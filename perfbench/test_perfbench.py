"""Self-test of the benchmark: tracing is transparent and failures are counted.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py

Not part of the package's test suite; it takes a few seconds.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

from projdim import cli, cover, ergodic, pressure, projective, semigroup, systems  # noqa: E402


def _small_run(inp: dict) -> dict:
    """A few layers each, at sizes that take about a second."""
    code = cli.main(["rauzy", "--N", "4", "--depth", "2", "--out", "report.json"])
    gamma2 = pressure.rauzy_gamma_system(2)
    cov = cover.svd_cover_upper(gamma2, 1.5, 1e-2)
    psi = semigroup.stopping_partition_psi(gamma2, 4)
    frame = projective.plane_frame_orthonormal(np.ones(3) / math.sqrt(3.0))
    xi = projective.xi_partition(frame, gamma2, 4)
    delta = ergodic.empirical_delta(gamma2, planes=2, samples=20_000, n=6, seed=3)
    dio = semigroup.diophantine_check(systems.rauzy_system(), 3)
    return {
        "code": code,
        "report": json.loads(Path("report.json").read_text())["result"],
        "cover": [cov.word_count, cov.cover_cost, cov.cone_constant],
        "psi": [w.letters for w in psi],
        "xi": [w.letters for w in xi],
        "delta": delta.as_dict(),
        "dio": dio,
    }


SMALL = Workload("small", "self-test", lambda seed: {}, _small_run,
                 lambda inp, ran, counts: (ran, []))
FAILING = Workload("failing", "self-test", lambda seed: {}, _small_run,
                   lambda inp, ran, counts: ({}, ["deliberately failed check"]))


def _fresh_sample(name: str, mode: str, cwd: Path) -> dict:
    """``sample.run_sample`` on a workload of this file, in a fresh interpreter."""
    code = (f"import json, sys, time; sys.path[:0] = {[str(HERE), str(HERE.parent / 'src')]!r}; "
            "import sample, test_perfbench as t; "
            f"print(json.dumps(sample.run_sample(t.{name}, 0, {mode!r}, "
            "time.clock_gettime(time.CLOCK_MONOTONIC), sample.SpeedProbe().start()), "
            "default=str))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                          text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_wrappers_are_bound_at_every_importing_module():
    sites = [(pressure, "log_ratio_batch"), (pressure, "require_positive_like"),
             (semigroup, "mat_mul"), (semigroup, "opnorm_batch"),
             (ergodic, "project_measure_samples"), (ergodic, "frame_for_plane"),
             (projective, "stopping_partition_psi"), (ergodic, "require_positive_like"),
             (projective, "require_positive_like"), (cover, "require_positive_like"),
             (cli, "rauzy_dimension")]
    originals = [getattr(mod, name) for mod, name in sites]
    tracer = Tracer().install()
    try:
        for (mod, name), orig in zip(sites, originals):
            assert getattr(mod, name) is not orig, f"{mod.__name__}.{name} not wrapped"
            assert getattr(mod, name).__wrapped__ is orig
    finally:
        tracer.uninstall()
    assert [getattr(mod, name) for mod, name in sites] == originals


def test_wrapping_is_transparent(tmp_path):
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = _fresh_sample("SMALL", "run", tmp_path / "plain")
    traced = _fresh_sample("SMALL", "trace", tmp_path / "traced")
    assert plain["ok"] and traced["ok"]
    assert plain["outputs"]["code"] == 0
    assert traced["outputs"] == plain["outputs"]
    layers = traced["layers"]
    assert layers["pressure.partition_sum.calls"] == 3 * 48  # ladder N = 1, 2, 4
    assert layers["semigroup.stopping_partition_psi.words"] == len(plain["outputs"]["psi"])
    assert layers["linalg.nonfinite"] == 0
    assert 0.9 < traced["span_coverage"] <= 1.0


def test_failed_check_and_crash_count_as_failed(tmp_path):
    setups = [_fresh_sample("SMALL", "setup", tmp_path) for _ in range(3)]
    good = _fresh_sample("SMALL", "run", tmp_path)
    bad = _fresh_sample("FAILING", "run", tmp_path)
    crashed = run.spawn("no-such-workload", 0, "run", tmp_path / "crash", timeout=60)
    controls = [run.spawn("no-such-workload", 0, "control", tmp_path / f"control{i}", timeout=60)
                for i in range(2)]
    assert bad["ok"] is False and crashed["ok"] is False
    assert all(c["ok"] for c in controls)
    records = [setups[0], controls[0], good, setups[1], bad, setups[2], controls[1], crashed]
    result, details = run.summarize(records, trace=False)
    assert (result["attempted"], result["failed"]) == (8, 2)
    assert result["correct"] is False
    assert math.isclose(result["metrics"]["ok_frac"]["value"], 6 / 8)
    assert details["samples"] == 1
    probe = good["wall_probe"]
    assert probe["count"] > 0
    assert math.isclose(result["metrics"]["wall_s"]["value"],
                        good["wall_s"] * run.PROBE_REF_S / probe["mean_s"])
    # only a set-up-only interpreter followed by a control counts
    ratios = [setups[0]["setup_s"] / controls[0]["setup_s"],
              setups[2]["setup_s"] / controls[1]["setup_s"]]
    assert math.isclose(result["metrics"]["setup_s"]["value"],
                        run.CONTROL_REF_S * (ratios[0] + ratios[1]) / 2)


def test_high_percentile_needs_ten_samples_beyond():
    assert run.high_percentile([1.0] * 10) is None
    vals = [float(i) for i in range(30)]
    assert run.high_percentile(vals) == ("p66", 19.0)
    assert sum(v > 19.0 for v in vals) == 10


def test_benchmark_json_matches_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert run.WALL_EXPONENT.keys() == WORKLOADS.keys()
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: unit for name, (_, unit) in run.PER_LAYER.items()}
