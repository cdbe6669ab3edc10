"""The four benchmark workloads: inputs, the timed calls and the output checks.

Each workload is the pipeline a user runs from the command line, so the
calls go through ``projdim.cli.main`` (``walks-gamma10`` adds two library
walks after its CLI call).  Reference values were recorded at the commit
that introduced the benchmark; exact counts must repeat exactly, and
estimates must stay inside the acceptance tolerances of
``tests/test_acceptance.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# called through their modules, so the span wrappers installed later are seen
from projdim import cli, pressure, projective, semigroup, systems

# recorded at the benchmark's introduction; the walks are deterministic
COVER_WORDS = 122_544
COVER_NODES = 124_620
PSI_WORDS = 617_436
XI_WORDS = 363_736
LADDER_NS = [5, 10, 20]
PARTITION_SUM_CALLS = 144  # 48 objective evaluations per ladder system
RAUZY_TOL = 1e-3
REPORT = "report.json"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int], dict]  # seed -> call arguments; writes input files; untimed
    run: Callable[[dict], dict]  # the timed calls
    check: Callable[[dict, dict, dict | None], tuple[dict, list[str]]]
    # (inputs, run result, traced counts or None) -> (outputs, problems)


def _report() -> tuple[str, dict]:
    text = Path(REPORT).read_text()
    return text, json.loads(text)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _words_bytes(words) -> bytes:
    # letter indices stay below 255, so 255 separates the words unambiguously
    return b"\xff".join(bytes(w.letters) for w in words)


# Files live in the sample's own working directory and are named relative to
# it: reports echo the paths, and every sample of a run must write the same report.

def _gamma10_inputs(seed: int) -> dict:
    systems.save_system(pressure.rauzy_gamma_system(10), "gamma10.json")
    return {"system": "gamma10.json", "seed": seed}


# -- rauzy-n20 -----------------------------------------------------------------

def _no_inputs(seed: int) -> dict:
    # the pipeline reads no input file and takes no seed
    return {}


def _rauzy_run(inp: dict) -> dict:
    return {"code": cli.main(["rauzy", "--N", "20", "--tol", str(RAUZY_TOL),
                              "--depth", "3", "--out", REPORT])}


def _rauzy_check(inp, ran, counts):
    problems = []
    if ran["code"] != 0:
        return {"code": ran["code"]}, [f"exit code {ran['code']}"]
    text, rep = _report()
    res = rep["result"]
    ladder = {step["N"]: step["value"] for step in res["diagnostics"]["ladder"]}
    if sorted(ladder) != LADDER_NS:
        problems.append(f"ladder N set {sorted(ladder)} != {LADDER_NS}")
    elif not (ladder[5] <= ladder[10] + 2 * RAUZY_TOL
              and ladder[10] <= ladder[20] + 2 * RAUZY_TOL):
        problems.append(f"ladder not monotone within 2*tol: {ladder}")
    if not 1.19 < res["value"] < 1.74:
        problems.append(f"value {res['value']} outside (1.19, 1.74)")
    if counts is not None and counts.get("pressure.partition_sum.calls") != PARTITION_SUM_CALLS:
        problems.append(f"partition_sum calls {counts.get('pressure.partition_sum.calls')}"
                        f" != {PARTITION_SUM_CALLS}")
    return {"value": res["value"], "ladder": ladder, "digest": _digest(text.encode())}, problems


# -- delta-gamma10 -------------------------------------------------------------

def _delta_run(inp: dict) -> dict:
    return {"code": cli.main(["delta", "--system", inp["system"], "--planes", "32",
                              "--samples", "1000000", "--res", "12",
                              "--seed", str(inp["seed"]), "--out", REPORT])}


def _delta_check(inp, ran, counts):
    if ran["code"] != 0:
        return {"code": ran["code"]}, [f"exit code {ran['code']}"]
    text, rep = _report()
    res = rep["result"]
    target = res["diagnostics"]["target"]
    problems = []
    if not abs(res["value"] - target) <= 0.1:
        problems.append(f"|value - target| = |{res['value']} - {target}| > 0.1")
    return {"value": res["value"], "target": target, "digest": _digest(text.encode())}, problems


# -- check-rauzy-d8 ------------------------------------------------------------

def _check_run(inp: dict) -> dict:
    # a bare name resolves to the bundled system; the sample runs in a directory without one
    return {"code": cli.main(["check", "--system", "rauzy.json", "--depth", "8",
                              "--out", REPORT])}


def _check_check(inp, ran, counts):
    if ran["code"] != 0:
        return {"code": ran["code"]}, [f"exit code {ran['code']}"]
    text, rep = _report()
    dio = rep["result"]["diophantine"]
    lie = rep["result"]["lie_algebra_dimension"]
    problems = []
    if dio["all_distinct"] is not True:
        problems.append("level products not all distinct")
    if dio["gap_is_exact"] is not True:
        problems.append("gap not exact")
    if not dio["min_gap"] >= 1.0:
        problems.append(f"min_gap {dio['min_gap']} < 1")
    if lie != 8:
        problems.append(f"Lie algebra dimension {lie} != 8")
    return {"min_gap": dio["min_gap"], "lie_algebra_dimension": lie,
            "digest": _digest(text.encode())}, problems


# -- walks-gamma10 -------------------------------------------------------------

def _walks_run(inp: dict) -> dict:
    code = cli.main(["cover", "--system", inp["system"], "--s", "1.75",
                     "--delta", "1e-3", "--out", REPORT])
    gamma10 = systems.load_system(inp["system"])
    psi = semigroup.stopping_partition_psi(gamma10, 8)
    frame = projective.plane_frame_orthonormal(np.ones(3) / math.sqrt(3.0))
    xi = projective.xi_partition(frame, gamma10, 8)
    return {"code": code, "psi": psi, "xi": xi}


def _walks_check(inp, ran, counts):
    if ran["code"] != 0:
        return {"code": ran["code"]}, [f"exit code {ran['code']}"]
    text, rep = _report()
    res = rep["result"]
    found = {"cover word_count": (res["word_count"], COVER_WORDS),
             "cover nodes": (res["diagnostics"]["nodes"], COVER_NODES),
             "psi words": (len(ran["psi"]), PSI_WORDS),
             "xi words": (len(ran["xi"]), XI_WORDS)}
    problems = [f"{what} {got} != {want}" for what, (got, want) in found.items() if got != want]
    outputs = {what: got for what, (got, _) in found.items()}
    outputs["digest"] = _digest(b"\n".join([text.encode(), _words_bytes(ran["psi"]),
                                           _words_bytes(ran["xi"])]))
    return outputs, problems


WORKLOADS = {w.name: w for w in (
    Workload("rauzy-n20",
             "flagship rauzy --N 20 --depth 3: pressure level build, float batch kernels and "
             "the exact positivity gate",
             _no_inputs, _rauzy_run, _rauzy_check),
    Workload("delta-gamma10",
             "criterion-10 delta on Gamma_10: chaos sampler and ergodic estimators, no word "
             "enumeration, so pressure is bypassed",
             _gamma10_inputs, _delta_run, _delta_check),
    Workload("check-rauzy-d8",
             "criterion-8 check at depth 8: exact Fraction products and the pairwise gap, no "
             "float walks and no positivity gate",
             _no_inputs, _check_run, _check_check),
    Workload("walks-gamma10",
             "cover plus psi and xi stopping walks on Gamma_10: pruned frontiers that create "
             "Word objects; the only user of cover",
             _gamma10_inputs, _walks_run, _walks_check),
)}

# layer metric -> (end-to-end metric, workloads it should move); the rest predict no change
PREDICTED_MOVES = {
    "linalg.mat_mul.s": ("wall_s", ["check-rauzy-d8", "rauzy-n20"]),
    "linalg.log_ratio_batch.s": ("wall_s", ["rauzy-n20", "walks-gamma10"]),
    "linalg.opnorm_batch.s": ("wall_s", ["rauzy-n20", "walks-gamma10"]),
    "linalg.sym3_max_eig_batch.s": ("wall_s", ["rauzy-n20", "walks-gamma10"]),
    "linalg.nonfinite": ("ok_frac", ["rauzy-n20", "walks-gamma10"]),
    "semigroup.require_positive_like.s": ("wall_s", ["rauzy-n20", "delta-gamma10",
                                                     "walks-gamma10"]),
    "semigroup.diophantine_check.self_s": ("wall_s, peak_rss_mb", ["check-rauzy-d8"]),
    "semigroup.stopping_partition_psi.s": ("wall_s", ["walks-gamma10"]),
    "projective.xi_partition.s": ("wall_s", ["walks-gamma10"]),
    "cover.svd_cover_upper.self_s": ("wall_s", ["walks-gamma10"]),
    "cover.cone_constant.s": ("wall_s", ["walks-gamma10"]),
    "pressure.partition_sum.calls": ("wall_s", ["rauzy-n20"]),
    "pressure.level_build_s": ("wall_s, peak_rss_mb", ["rauzy-n20"]),
    "pressure.partition_sum.warm_s": ("wall_s", ["rauzy-n20"]),
    "pressure.affinity_dimension.self_s": ("wall_s", ["rauzy-n20"]),
    "pressure.rauzy_gamma_system.s": ("wall_s", ["rauzy-n20"]),
    "projective.project_measure_samples.s": ("wall_s", ["delta-gamma10"]),
    "ergodic.dyadic_entropy.s": ("wall_s", ["delta-gamma10"]),
    "ergodic.lyapunov_exponents.s": ("wall_s", ["delta-gamma10"]),
    "ergodic.furstenberg_plane_sample.s": ("wall_s", ["delta-gamma10"]),
    "ergodic.empirical_delta.self_s": ("wall_s", ["delta-gamma10"]),
    "systems.load_system.s": ("none (about 0 everywhere)", []),
    "cli.main.self_s": ("none (about 0 everywhere)", []),
}
