"""Span recorder and the instrumentation that feeds it during traced repeats.

A span has a name, start, end and parent, and every span of a run shares the
run id. Spans stay in memory and are written out once, when the run ends.
Self time is a span's duration minus the time its children cover; the code
under test is single-threaded, so children never overlap and that time is
the sum of their durations.

Spans come from the benchmark's side of each layer boundary: public module
functions are wrapped while a traced repeat runs and restored afterwards.
Per-family times come from a replay of `run_realization` on one-algorithm
configs. Each replayed call draws the realization's data again; the first
draw counts as data generation and the rest, with the replay's own glue, as
`trace.replay`, so a layer never absorbs the cost of the tracing itself.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import replace

REPLAY = "trace.replay"
ROOT_SPAN = "bench.self"


class Recorder:
    """In-memory spans `[id, parent, name, start, end]` plus call counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counts = {}
        self.replaying = False
        self._stack = []

    def begin(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1][0] if self._stack else None, name,
                time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def timed(self, name: str, fn):
        """Wrap `fn` in a span named `name`, counting calls outside the replay."""
        def wrapper(*args, **kwargs):
            if self.replaying:
                span = self.begin(REPLAY)
            else:
                self.counts[name] = self.counts.get(name, 0) + 1
                span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)
        return wrapper

    def counted(self, name: str, fn):
        """Wrap `fn` to count its calls without a span (it runs per iteration)."""
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def self_times(self, first: int = 0) -> dict:
        """Seconds of self time per span name, over spans[first:]."""
        spans = self.spans[first:]
        own = {span[0]: span[4] - span[3] for span in spans}
        for span in spans:
            if span[1] in own:
                own[span[1]] -= span[4] - span[3]
        totals = {}
        for span in spans:
            totals[span[2]] = totals.get(span[2], 0.0) + own[span[0]]
        return totals

    def take_counts(self) -> dict:
        counts, self.counts = self.counts, {}
        return counts

    def dump(self, path) -> None:
        """JSON lines: a header naming the run and the fields, then one span per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"run": self.run_id,
                                 "fields": ["id", "parent", "name", "start", "end"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def family(spec) -> str:
    """Layer name of one configured algorithm."""
    return "npdlms.run" if spec.kind.kind == "npdlms" else f"diffusion.{spec.kind.kind}"


def _replay_realization(rec: Recorder, original):
    def run_realization(config, index):
        out = {}
        with rec.span(REPLAY):
            for i, spec in enumerate(config.algorithms):
                single = replace(config, algorithms=[spec])
                rec.replaying = i > 0
                try:
                    with rec.span(family(spec)):
                        out.update(original(single, index))
                finally:
                    rec.replaying = False
        return out
    return run_realization


@contextmanager
def instrumented(rec: Recorder):
    """Patch the layer boundaries for the duration of one traced repeat."""
    from diffnet import harness, network, noise, theory

    timed = [
        (harness, "run_experiment", "harness.self"),
        (harness, "sweep", "harness.self"),
        (harness, "generate_realization_data", "harness.datagen"),
        (harness, "export_csv", "harness.export"),
        (harness, "export_sweep_csv", "harness.export"),
        (network.GroundTruth, "advance", "network.drift"),
        (noise, "sample", "noise.sample"),
        (theory, "build_moments", "theory.build_moments"),
        (theory, "stepsize_upper_bound", "theory.step_bound"),
        (theory, "spectral_radius", "theory.spectral_radius"),
        (theory, "steady_state_metrics", "theory.steady_state"),
        (theory, "transient_curves", "theory.transient"),
        (harness, "export_theory_csv", "theory.export"),
    ]
    patches = [(owner, attr, lambda fn, name=name: rec.timed(name, fn))
               for owner, attr, name in timed]
    # harness holds its own reference to error_gain, which is the one it calls.
    patches.append((harness, "error_gain", lambda fn: rec.counted("diffusion.error_gain", fn)))
    patches.append((harness, "run_realization", lambda fn: _replay_realization(rec, fn)))

    saved = []
    try:
        for owner, attr, make_wrapper in patches:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, make_wrapper(original))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
