"""One benchmark sample, run in a fresh interpreter by ``run.py``.

    python3 perfbench/sample.py --workload NAME --seed N \
        --mode control|setup|run|trace --spawned-at T

``T`` is the parent's ``CLOCK_MONOTONIC`` reading just before it started
this process, so ``setup_s`` spans interpreter start, ``import projdim`` and
writing the workload's inputs.  ``setup`` stops there; ``run`` then times
the workload's calls and checks their outputs; ``trace`` does the same with
the span wrappers installed.  ``control`` imports numpy but not projdim and
stops: its ``setup_s`` is the yardstick ``run.py`` scales set-up time by.
A speed probe runs throughout, from before projdim and numpy are imported
(see ``SpeedProbe``).  The last line printed is one JSON object.  An
exception propagates: the non-zero exit is the parent's failure signal.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_INTERVAL_S = 0.025
PROBE_LOOP = 4000  # about 0.3 ms on a quiet 2-vCPU Xeon


class SpeedProbe:
    """Times a fixed unit of pure-Python work every ``PROBE_INTERVAL_S``, from a timer signal.

    On a shared host the speed of this process drifts by up to a factor of
    two, over seconds to minutes.  The probe runs in this process, between
    the workload's own bytecodes, so it sees the speed the workload gets
    while it runs; ``run.py`` divides by it.

    The unit is an integer loop of ``PROBE_LOOP`` steps.  It must not depend
    on the state projdim leaves in the process, or a change to projdim could
    move the divisor: so each probe first runs a short untimed pass that
    brings the loop's code and objects back into the caches and TLB, then
    times the full loop.  The loop touches no array; its integers come from
    the interpreter's small-object pools, which hand a just-freed block
    back at once whatever else the heap holds, and are not tracked by the
    garbage collector, so no collection runs inside it.
    """

    def __init__(self):
        self.durations: list[float] = []

    @staticmethod
    def _unit(n: int) -> int:
        acc = 0
        for i in range(n):
            acc += i * i
        return acc

    def _probe(self, signum, frame):
        self._unit(PROBE_LOOP // 10)
        t0 = time.perf_counter()
        self._unit(PROBE_LOOP)
        self.durations.append(time.perf_counter() - t0)

    def start(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self) -> dict:
        """Count, total and mean of the probes since the last ``take``."""
        got, self.durations = self.durations, []
        return {"count": len(got), "total_s": sum(got),
                "mean_s": sum(got) / len(got) if got else None}


def run_sample(workload, seed: int, mode: str, spawned_at: float,
               probe: SpeedProbe) -> dict:
    """Set up, then (unless ``mode`` is ``setup``) run and check, in the current directory.

    ``probe`` must be running; it is stopped once the last timed span ends.
    """
    inputs = workload.setup(seed)
    rec = {"mode": mode, "setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - spawned_at}
    probe.take()  # wall_s is scaled by the probes taken during the calls only
    if mode == "setup":
        probe.stop()
        rec["ok"] = True
        return rec
    tracer = None
    if mode == "trace":
        from spans import Tracer
        tracer = Tracer().install()
    t0 = time.perf_counter()
    try:
        ran = workload.run(inputs)
    finally:
        wall = time.perf_counter() - t0
        probe.stop()
        if tracer is not None:
            tracer.uninstall()
    rec["wall_s"] = wall
    rec["wall_probe"] = probe.take()
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if tracer is not None:
        layers = tracer.layer_metrics()
        rec["layers"] = layers
        rec["span_coverage"] = tracer.covered_s / wall
    rec["outputs"], rec["problems"] = workload.check(inputs, ran, layers)
    rec["ok"] = not rec["problems"]
    return rec


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["control", "setup", "run", "trace"], required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    args = p.parse_args(argv)

    probe = SpeedProbe().start()
    try:
        if args.mode == "control":
            import numpy  # noqa: F401
            rec = {"mode": "control", "ok": True,
                   "setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at}
        else:
            sys.path.insert(0, str(ROOT / "src"))
            import projdim
            if not Path(projdim.__file__).resolve().is_relative_to(ROOT / "src"):
                raise SystemExit(f"projdim imported from {projdim.__file__}, "
                                 "not from this checkout")
            from workloads import WORKLOADS

            rec = run_sample(WORKLOADS[args.workload], args.seed, args.mode,
                             args.spawned_at, probe)
    finally:
        probe.stop()
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
