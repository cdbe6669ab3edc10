"""Cold-process benchmark of the four projdim pipelines users run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every sample is a fresh interpreter
(``sample.py``), started one at a time, because projdim keeps module-global
and per-object caches that a warm loop would time as hits no command-line
user gets.  A run repeats rounds of ``SETUP_PAIRS`` pairs of a set-up-only
interpreter and a control interpreter, then one sample, until the next
round would end after ``S`` seconds (at least one round; with ``--trace 1``
at least one traced and one untraced sample, alternating).

Times are calibrated, so they read as seconds at the speed this machine
has when it is quiet.  Each interpreter runs a speed probe (``SpeedProbe``
in ``sample.py``) every 25 ms; a sample's wall time is multiplied by
``PROBE_REF_S`` over the mean probe time measured during it, raised to the
workload's ``WALL_EXPONENT``.  Set-up time is measured against control
interpreters, which start the same way and import numpy but not projdim:
each set-up-only interpreter is followed by one, and ``setup_s`` is
``CONTROL_REF_S`` times the median ratio of set-up to control time.
On a shared host raw times drift by up to a factor of two over seconds to
minutes and would hide any change smaller than that; the raw medians are
printed and recorded as well.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median calibrated
time of the workload's calls over the untraced samples), ``setup_s``
(calibrated time from interpreter start to ready),
``peak_rss_mb`` (median ``ru_maxrss`` of the untraced samples) and
``ok_frac`` (interpreters that passed over interpreters started).
``--trace 1`` reports the per-layer metrics of the traced samples (raw span
times, median over the traced samples), the tracing overhead (traced minus
untraced median calibrated ``wall_s``) and the share of wall time the spans
cover.  Human-readable lines come first; the last line is the JSON result.
The full record, with machine facts, every sample and the predicted moves,
is written to ``.perfbench-results/``; ``baseline.py`` reads the traced
records to compare them with the roadmap's baseline table.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PAIRS = 4  # per round, so set-up is measured throughout the run
PROBE_REF_S = 0.0003  # the speed probe's time on the quiet 2-vCPU Xeon it was tuned on
# the control interpreter's set-up time (start, import numpy) on that Xeon
CONTROL_REF_S = 0.15
# Host contention slows each workload by its own power of the probe's slow-down:
# the slope of log wall time on log probe time over 14-19 samples per workload
# (correlation 0.92-0.98), measured on the unmodified code on that Xeon.  The
# probe does not depend on projdim, so the exponents only decide how much host
# drift is removed; a change to projdim's own speed passes through unscaled.
WALL_EXPONENT = {"rauzy-n20": 1.5, "delta-gamma10": 1.0, "check-rauzy-d8": 0.8,
                 "walks-gamma10": 1.3}
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}

_FUNCTIONS = (
    "linalg.mat_mul", "linalg.log_ratio_batch", "linalg.opnorm_batch",
    "linalg.sym3_max_eig_batch", "semigroup.require_positive_like",
    "semigroup.diophantine_check", "semigroup.stopping_partition_psi",
    "projective.xi_partition", "cover.svd_cover_upper", "cover.cone_constant",
    "pressure.partition_sum", "pressure.affinity_dimension", "pressure.rauzy_gamma_system",
    "projective.project_measure_samples", "ergodic.dyadic_entropy",
    "ergodic.lyapunov_exponents", "ergodic.furstenberg_plane_sample",
    "ergodic.empirical_delta", "systems.load_system", "cli.main",
)
_WORK_COUNTS = (
    "linalg.log_ratio_batch.matrices", "linalg.opnorm_batch.matrices", "linalg.nonfinite",
    "semigroup.stopping_partition_psi.words", "projective.xi_partition.words",
    "cover.svd_cover_upper.nodes", "projective.project_measure_samples.samples",
    "ergodic.lyapunov_exponents.steps",
)
# per-layer metric -> (key in a traced sample's span metrics, unit); the two
# trace.* metrics are computed from traced and untraced samples together
PER_LAYER = {
    **{f"{fn}.{what}": (f"{fn}.{what}", unit) for fn in _FUNCTIONS
       for what, unit in (("s", "s"), ("self_s", "s"), ("calls", "count"))},
    **{c: (c, "count") for c in _WORK_COUNTS},
    "pressure.level_build_s": ("pressure.partition_sum[build].s", "s"),
    "pressure.partition_sum.warm_s": ("pressure.partition_sum[warm].s", "s"),
    **{f"{layer}.self_s": (f"{layer}.self_s", "s") for layer in LAYERS},
    "trace.overhead_s": (None, "s"),
    "trace.span_coverage": (None, "frac"),
}


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """OpenBLAS thread count from the library numpy loaded, else the env setting."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def spawn(workload: str, seed: int, mode: str, workdir: Path, timeout: float) -> dict:
    """Run one sample in a fresh interpreter and return its record."""
    workdir.mkdir(parents=True)
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--spawned-at", repr(spawned_at)]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=workdir, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"mode": mode, "ok": False, "problems": ["timed out"],
                "elapsed_s": time.perf_counter() - started}
    elapsed = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"mode": mode, "ok": False, "elapsed_s": elapsed,
                "problems": [f"exit code {proc.returncode}", *tail]}
    rec = json.loads(lines[-1])
    rec["elapsed_s"] = elapsed
    return rec


def high_percentile(values: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples above it, if any."""
    n = len(values)
    if n <= 10:
        return None
    return f"p{int(100 * (n - 10) / n)}", sorted(values)[n - 11]


def calibrated(seconds: float, probe: dict | None, exponent: float) -> float | None:
    """``seconds`` at the reference speed, from the probes taken during it; None without any.

    The probes' own time (about 3% of a sample) stays in: it is the same
    share of every sample.
    """
    if not probe or not probe["count"]:
        return None
    return seconds * (PROBE_REF_S / probe["mean_s"]) ** exponent


def _median(values) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def summarize(records: list[dict], trace: bool,
              wall_exponent: float = 1.0) -> tuple[dict, dict]:
    """(result line, details) from the records of one run."""
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    timed = [r for r in records if r["ok"] and "wall_s" in r]
    untraced = [r for r in timed if r["mode"] == "run"]
    traced = [r for r in timed if r["mode"] == "trace"]
    digests = {json.dumps(r["outputs"], sort_keys=True) for r in timed}
    correct = failed == 0 and len(digests) <= 1
    # a set-up-only interpreter and the control started right after it see the same host
    pairs = [(a["setup_s"], b["setup_s"]) for a, b in zip(records, records[1:])
             if a["mode"] == "setup" and a["ok"] and b["mode"] == "control" and b["ok"]]
    walls = [w for w in (calibrated(r["wall_s"], r["wall_probe"], wall_exponent)
                         for r in untraced)
             if w is not None]
    details = {
        "samples": len(walls), "digests_agree": len(digests) <= 1,
        "wall_exponent": wall_exponent,
        "wall_s_all": walls, "wall_s_high": high_percentile(walls),
        "raw_wall_s": _median(r["wall_s"] for r in untraced),
        "raw_setup_s": _median(a for a, _ in pairs),
        "control_s": _median(b for _, b in pairs),
        "probe_mean_s": _median(r["wall_probe"]["mean_s"] for r in untraced),
    }
    if trace:
        values = {name: statistics.median(r["layers"].get(key, 0) for r in traced)
                  for name, (key, _) in PER_LAYER.items() if key}
        values["trace.overhead_s"] = (
            _median(calibrated(r["wall_s"], r["wall_probe"], wall_exponent) for r in traced)
            - statistics.median(walls))
        values["trace.span_coverage"] = statistics.median(r["span_coverage"] for r in traced)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (_, unit) in PER_LAYER.items()}
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": CONTROL_REF_S * statistics.median(a / b for a, b in pairs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "ok_frac": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, details


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Cold-process benchmark of projdim pipelines")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "projdim" / "__init__.py").is_file():
        print(f"perfbench: no projdim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import PREDICTED_MOVES, WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    deadline = start + args.seconds
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    records: list[dict] = []
    counter = itertools.count()
    modes = ["trace", "run"] if args.trace else ["run"]

    def sample(mode: str) -> dict:
        rec = spawn(args.workload, args.seed, mode, work / str(next(counter)),
                    start + RUN_LIMIT_S - time.perf_counter())
        records.append(rec)
        return rec

    try:
        longest = 0.0
        for i in itertools.count():
            began = time.perf_counter()
            for _ in range(SETUP_PAIRS):
                sample("setup")
                sample("control")
            sample(modes[i % len(modes)])
            longest = max(longest, time.perf_counter() - began)
            if i + 1 >= len(modes) and time.perf_counter() + longest > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not (all(any(r["ok"] and r.get("wall_probe", {}).get("count") for r in records
                    if r["mode"] == m) for m in modes)
            and any(r["ok"] for r in records if r["mode"] == "control")
            and any(r["ok"] for r in records if r["mode"] == "setup")):
        for r in records:
            if not r["ok"]:
                print(f"perfbench: {r['mode']} sample failed: {r.get('problems')}",
                      file=sys.stderr)
        print("perfbench: not every kind of sample completed; nothing to report",
              file=sys.stderr)
        return 1

    result, details = summarize(records, bool(args.trace), WALL_EXPONENT[args.workload])
    facts = machine_facts()

    print(f"workload {args.workload} seed {args.seed}: {WORKLOADS[args.workload].why}")
    print("machine " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    for r in records:
        if not r["ok"]:
            print(f"FAILED {r['mode']} sample: {r.get('problems')}")
    high = details["wall_s_high"]
    print(f"untraced samples {details['samples']}; wall_s high percentile: "
          + (f"{high[0]} {high[1]:.4f} s" if high else "none (needs more than 10 samples)"))
    print(f"raw (uncalibrated) medians: wall_s {details['raw_wall_s']:.4f} s, setup_s "
          f"{details['raw_setup_s']:.4f} s, control {details['control_s']:.4f} s"
          f" (reference {CONTROL_REF_S} s); speed probe {1e3 * details['probe_mean_s']:.4f} ms"
          f" (reference {1e3 * PROBE_REF_S} ms, wall_s exponent {WALL_EXPONENT[args.workload]})")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    out_dir = ROOT / ".perfbench-results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "why": WORKLOADS[args.workload].why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "machine": facts,
        "predicted_moves": PREDICTED_MOVES, "result": result, "details": details,
        "records": records,
    }, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
