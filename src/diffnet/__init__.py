"""Diffusion adaptive networks: simulation, robust kernel-MAP updates, and
closed-form mean-square performance predictions.

The command-line front end `diffnet.cli` is not imported here, so that
`python -m diffnet.cli` (or `python -m diffnet`) loads it only once.
"""

from . import diffusion, harness, network, noise, theory
from .diffusion import DLLAD, DLMS, DLMSF, DMCC, DSELMS, NPDLMS
from .harness import (
    AlgorithmSpec,
    ExperimentConfig,
    RunResult,
    config_from_dict,
    load_config,
    run_experiment,
    sweep,
)
from .network import (
    CombinationMatrix,
    GroundTruth,
    NetworkTopology,
    RandomWalk,
    Stationary,
    build_topology,
    combination_weights,
)
from .noise import AlphaStable, Gaussian
from .theory import MomentSet, PerformanceCurves, TheoryInputs, build_moments

__version__ = "0.1.0"
