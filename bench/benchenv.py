"""Process set-up shared by the benchmark's entry points.

Import this module before numpy: it pins BLAS to one thread, so every timing
is a single-threaded closed loop, and puts the checkout's own `src/` first on
the import path, so the benchmark always measures the source tree it sits in.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
BLAS_THREADS = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSource(RuntimeError):
    """The checkout lacks the package or configs the benchmark runs."""


def prepare() -> None:
    """Pin BLAS threads and make `import diffnet` resolve to ROOT/src."""
    for var in _THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "diffnet" / "__init__.py").is_file():
        raise MissingSource(f"no diffnet package under {src}")
    if not (ROOT / "configs").is_dir():
        raise MissingSource(f"no configs directory under {ROOT}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))

