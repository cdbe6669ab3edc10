import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import projdim
from projdim.cli import main, validate_report
from projdim.errors import SingularInput
from projdim.linalg import Matrix3
from projdim.pressure import rauzy_gamma_system
from projdim.projective import PointCloud, save_cloud_csv
from projdim.semigroup import SystemSpec
from projdim.systems import (gamma_letter, load_system, positivizing_conjugator, rauzy_alphabet,
                             rauzy_system, save_system, triple9_system)


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def run_cli(args, tmp_path, name="report.json"):
    """Run ``projdim`` with ``--out`` and read the report as strict JSON."""
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, (json.loads(out.read_text(), parse_constant=_refuse_constant)
                  if out.exists() else None)


def test_pressure_triple9_analytic(tmp_path):
    code, rep = run_cli(
        ["pressure", "--system", "triple9.json", "--s", "0.5", "--depth", "3"],
        tmp_path,
    )
    assert code == 0
    validate_report(rep)
    assert rep["result"]["raw"] == pytest.approx(0.0, abs=1e-12)
    assert rep["config"]["depth"] == 3


def test_dimension_triple9(tmp_path):
    code, rep = run_cli(
        ["dimension", "--system", "triple9.json", "--tol", "1e-4"], tmp_path
    )
    assert code == 0
    assert rep["result"]["value"] == pytest.approx(0.5, abs=1e-3)


def test_check_rauzy_composite(tmp_path):
    code, rep = run_cli(
        ["check", "--system", "rauzy.json", "--depth", "4"], tmp_path
    )
    assert code == 0
    res = rep["result"]
    assert res["positivity"]["positive"] is False
    assert res["diophantine"]["all_distinct"] is True
    assert res["lie_algebra_dimension"] == 8
    assert res["irreducibility"]["invariant_line"] is None
    assert res["sosc"] == "assumed-unchecked"


def test_rauzy_small_ladder(tmp_path):
    code, rep = run_cli(
        ["rauzy", "--N", "2", "--tol", "1e-2", "--depth", "3"], tmp_path
    )
    assert code == 0
    assert 1.0 < rep["result"]["value"] < 2.0
    assert [s["N"] for s in rep["result"]["diagnostics"]["ladder"]] == [1, 2]


def test_lyapunov_report(tmp_path):
    code, rep = run_cli(
        ["lyapunov", "--system", "rauzy.json", "--steps", "2000", "--seed", "5"],
        tmp_path,
    )
    assert code == 0
    chi = rep["result"]["chi"]
    assert chi[0] > chi[1] > chi[2]
    assert abs(sum(chi)) < 1e-3


def test_render_and_boxdim_roundtrip(tmp_path):
    cloud = tmp_path / "cloud.csv"
    svg = tmp_path / "cloud.svg"
    report = tmp_path / "render.json"
    code = main([
        "render", "--system", "rauzy.json", "--points", "20000",
        "--coords", "simplex", "--seed", "1",
        "--out", str(cloud), "--svg", str(svg), "--report", str(report),
    ])
    assert code == 0
    assert svg.exists()
    doc = json.loads(report.read_text())
    validate_report(doc)
    assert doc["result"]["points_written"] == 20000

    code, rep = run_cli(["boxdim", "--cloud", str(cloud), "--res", "4:8"], tmp_path)
    assert code == 0
    assert 0.9 < rep["result"]["value"] < 2.0


def test_boxdim_res_list_matches_range(tmp_path, capsys):
    cloud = tmp_path / "cloud.csv"
    save_system(rauzy_gamma_system(2), tmp_path / "gamma2.json")
    assert main(["render", "--system", str(tmp_path / "gamma2.json"), "--points", "20000",
                 "--out", str(cloud)]) == 0
    results = [run_cli(["boxdim", "--cloud", str(cloud), "--res", res], tmp_path)
               for res in ("3,4,5,6", "3:6")]
    assert [code for code, _ in results] == [0, 0]
    assert results[0][1]["result"] == results[1][1]["result"]
    capsys.readouterr()
    assert main(["boxdim", "--cloud", str(cloud), "--res", "4:x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("projdim: ") and err.count("\n") == 1


def test_cylinder_render_short_of_the_budget_exits_2(tmp_path, capsys):
    path, cloud = tmp_path / "diag.json", tmp_path / "cloud.csv"
    save_system(SystemSpec.uniform("diag", (Matrix3.diagonal(9, 1, "1/9"),)), path)
    assert main(["render", "--system", str(path), "--method", "cylinder", "--points", "5",
                 "--out", str(cloud)]) == 2
    assert capsys.readouterr().err == ("projdim: no ψ partition up to n = 39 reaches the "
                                       "budget of 5 words; the largest has 1\n")
    assert not cloud.exists()


def test_singular_conjugator_and_non_unimodular_letter_exit_2(tmp_path, capsys):
    doc = {"label": "x", "matrices": [[["1", "1", "1"], ["0", "1", "0"], ["0", "0", "1"]]],
           "probabilities": ["1"]}
    singular = tmp_path / "singular.json"
    singular.write_text(json.dumps({**doc, "conjugator": [["1", "2", "3"], ["2", "4", "6"],
                                                          ["0", "0", "1"]]}))
    with pytest.raises(SingularInput, match="^matrix is exactly singular$"):
        load_system(singular).letters_float
    assert main(["check", "--system", str(singular), "--depth", "2"]) == 2
    assert capsys.readouterr().err == "projdim: matrix is exactly singular\n"
    halved = tmp_path / "halved.json"
    doc["matrices"].append([["1/2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    halved.write_text(json.dumps({**doc, "probabilities": ["1/2", "1/2"]}))
    assert main(["check", "--system", str(halved), "--depth", "2"]) == 2
    assert capsys.readouterr().err == "projdim: alphabet member has determinant 1/2, want 1\n"


@pytest.mark.parametrize("args,second,error", [
    (["dimension", "--depth", "2"], None, "an acting letter's entry is past float range"),
    (["lyapunov", "--steps", "1000"], None, "an acting letter's entry is past float range"),
    (["check", "--depth", "2"], Matrix3.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
     "the smallest product gap is past float range"),
], ids=["dimension", "lyapunov", "check"])
def test_letters_past_float_range_exit_2(args, second, error, tmp_path, capsys):
    # 2**1100 has no float: one line on stderr and exit 2, not a traceback
    huge = Matrix3.diagonal(2 ** 1100, 1, Fraction(1, 2 ** 1100))
    path = tmp_path / "huge.json"
    save_system(SystemSpec.uniform("huge", (huge, second or huge)), path)
    assert main(args[:1] + ["--system", str(path)] + args[1:]) == 2
    assert capsys.readouterr().err == f"projdim: {error}\n"


def test_exit_codes(tmp_path, capsys):
    assert main(["lyapunov", "--system", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"label": "x", "matrices": [], "probabilities": [],
                               "weird": 1}))
    assert main(["lyapunov", "--system", str(bad)]) == 2
    # a JSON number where an exact "p/q" entry belongs is a malformed file, not a crash
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"label": "x", "probabilities": ["1"], "matrices": [
        [[1.5, 0, 0], [0, 1, 0], [0, 0, 1]]]}))
    assert main(["check", "--system", str(malformed)]) == 2
    assert "projdim: malformed system file" in capsys.readouterr().err
    malformed.write_text("5")  # not a JSON object
    assert main(["check", "--system", str(malformed)]) == 2
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["boxdim", "--cloud", str(empty), "--res", "4:8"]) == 2
    assert "no header" in capsys.readouterr().err
    # an unwritable report path is an input error, like an unwritable point cloud CSV
    unwritable = str(tmp_path / "nonexistent" / "r.json")
    assert main(["check", "--system", "rauzy.json", "--depth", "2", "--out", unwritable]) == 2
    assert "No such file or directory" in capsys.readouterr().err
    cloud = str(tmp_path / "cloud.csv")
    assert main(["render", "--system", "rauzy.json", "--points", "100", "--out", cloud,
                 "--report", unwritable]) == 2
    assert "No such file or directory" in capsys.readouterr().err
    # the level build sizes its own thread pool; there is no flag for it
    with pytest.raises(SystemExit) as exc:
        main(["rauzy", "--N", "1", "--threads", "2"])
    assert exc.value.code == 2
    # budget exhaustion maps to exit 3
    import os

    os.environ["PROJDIM_NODE_CAP"] = "10"
    try:
        assert main(["dimension", "--system", "triple9.json", "--depth", "3"]) == 3
    finally:
        del os.environ["PROJDIM_NODE_CAP"]


def test_a_bare_name_is_bundled_only_when_no_such_file_exists(tmp_path, monkeypatch, capsys):
    # a path with a directory part never falls back to the bundled system, and says so
    missing = tmp_path / "nonexist" / "rauzy.json"
    assert main(["check", "--system", str(missing)]) == 2
    assert capsys.readouterr().err == (
        f"projdim: no system file at {missing}; the bundled system 'rauzy' is found "
        "only by a name without a directory, such as 'rauzy.json'\n")
    assert main(["check", "--system", str(tmp_path / "nonexist" / "other.json")]) == 2
    assert "no bundled system 'other'" in capsys.readouterr().err
    monkeypatch.chdir(tmp_path)
    assert load_system("rauzy.json") == rauzy_system()
    # a file of that name in the working directory wins over the bundled system
    save_system(rauzy_gamma_system(1), "rauzy.json")
    assert load_system("rauzy.json") == rauzy_gamma_system(1)


@pytest.mark.parametrize("argv", [
    ["pressure", "--s", "nan", "--depth", "2"],
    ["pressure", "--s", "inf", "--depth", "2"],
    ["pressure", "--s", "1", "--depth", "0"],  # not the default depth
    ["dimension", "--depth", "0"],
    ["dimension", "--tol", "nan", "--depth", "2"],
    ["rauzy", "--N", "2", "--tol", "nan"],
    ["rauzy", "--N", "2", "--tol", "inf"],
    ["rauzy", "--N", "300", "--tol", "nan"],  # checked before the node cap
], ids=["s-nan", "s-inf", "pressure-depth-0", "dimension-depth-0", "dimension-tol-nan",
        "rauzy-tol-nan", "rauzy-tol-inf", "rauzy-tol-nan-over-cap"])
def test_non_finite_exponents_tolerances_and_depth_zero_exit_2(tmp_path, argv):
    if argv[0] != "rauzy":
        save_system(rauzy_gamma_system(2), tmp_path / "gamma2.json")
        argv = [argv[0], "--system", str(tmp_path / "gamma2.json"), *argv[1:]]
    code, rep = run_cli(argv, tmp_path)
    assert code == 2 and rep is None


@pytest.mark.parametrize("s", ["1e308", "1e300"])
def test_huge_exponent_exits_2(tmp_path, s):
    # 1e308: log phi^s of every word overflows to -inf; 1e300: the fit's ratios overflow
    save_system(rauzy_gamma_system(1), tmp_path / "gamma1.json")
    argv = ["pressure", "--system", str(tmp_path / "gamma1.json"), "--s", s, "--depth", "2"]
    code, rep = run_cli(argv, tmp_path)
    assert code == 2 and rep is None


@pytest.mark.parametrize("make,command,path,unbounded", [
    # one product per level: no pair, so no gap
    (lambda: SystemSpec.uniform("one", (rauzy_alphabet()[0],)),
     "check", ("diophantine", "min_gap"), None),
    # supercritical: the pressure stays positive at s = 2, so the bracket has no top
    (lambda: SystemSpec.uniform("fat", (gamma_letter(0, 1, 1),) * 100,
                                conjugator=positivizing_conjugator()),
     "dimension", ("bracket",), [2.0, None]),
], ids=["check-one-letter", "dimension-supercritical"])
def test_unbounded_values_are_written_as_null(tmp_path, make, command, path, unbounded):
    save_system(make(), tmp_path / "sys.json")
    code, rep = run_cli([command, "--system", str(tmp_path / "sys.json"), "--depth", "2"],
                        tmp_path)
    assert code == 0
    value = rep["result"]
    for key in path:
        value = value[key]
    assert value == unbounded


@pytest.mark.parametrize("extra", [
    ["--planes", "0"],
    ["--samples", "0"],
    ["--samples", "-5"],
    ["--res", "70"],  # floor(v * 2^70) leaves int64
    ["--res", "1100"],  # 2.0 ** 1100 is not a float
])
def test_delta_rejects_degenerate_sizes_and_resolutions(tmp_path, extra):
    system = tmp_path / "gamma1.json"
    save_system(rauzy_gamma_system(1), system)
    args = ["delta", "--system", str(system), "--planes", "2", "--samples", "2000"]
    code, rep = run_cli(args + extra, tmp_path)
    assert code == 2 and rep is None


@pytest.mark.parametrize("argv", [
    ["render", "--system", "rauzy.json", "--points", "300000000", "--out", "cloud.csv"],
    ["delta", "--system", "gamma1.json", "--planes", "1", "--samples", "300000000"],
    # two planes run on the worker pool, so the error is raised in a worker
    ["delta", "--system", "gamma1.json", "--planes", "2", "--samples", "300000000"],
], ids=["render", "delta", "delta-pooled"])
def test_memory_exhaustion_exits_3(tmp_path, argv):
    resource = pytest.importorskip("resource")
    save_system(rauzy_gamma_system(1), tmp_path / "gamma1.json")
    limit = 1_500_000_000  # bytes of address space, in the child interpreter only

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run([sys.executable, "-m", "projdim.cli", *argv], cwd=tmp_path,
                          env=_child_env(), preexec_fn=cap_address_space,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3, proc.stderr
    assert "projdim: out of memory" in proc.stderr
    assert "Traceback" not in proc.stderr


_TEST_PID = os.getpid()


def _die_in_a_worker(*args):
    if os.getpid() != _TEST_PID:
        os._exit(1)
    raise AssertionError("the planes ran in the test's own process")


def test_a_killed_worker_exits_3(tmp_path, monkeypatch, capsys):
    import multiprocessing

    import projdim.ergodic as ergodic_mod

    monkeypatch.setattr(ergodic_mod, "_WORKERS", 2)
    monkeypatch.setattr(ergodic_mod, "_plane_estimate", _die_in_a_worker)
    save_system(rauzy_gamma_system(1), tmp_path / "gamma1.json")
    code, rep = run_cli(["delta", "--system", str(tmp_path / "gamma1.json"), "--planes", "2",
                         "--samples", "2000"], tmp_path)
    assert code == 3 and rep is None
    err = capsys.readouterr().err
    assert err.startswith("projdim: a worker process died: ") and err.count("\n") == 1
    assert multiprocessing.active_children() == []


def test_zeta_on_gamma10_fits_in_4_gb():
    resource = pytest.importorskip("resource")
    limit = 4_000_000_000  # bytes of address space, in the child interpreter only

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    code = ("from projdim.pressure import rauzy_gamma_system, zeta_truncated; "
            "z = zeta_truncated(rauzy_gamma_system(10), 1.9, 4); "
            "print(z.value, z.words_evaluated)")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          preexec_fn=cap_address_space, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    value, words = proc.stdout.split()
    assert 0.0 < float(value) < math.inf
    assert int(words) == sum(60 ** n for n in range(1, 5))


def _child_env() -> dict:
    """This environment, with the imported package first on ``PYTHONPATH``."""
    src = str(Path(projdim.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_python_m_projdim_runs_the_command_line(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "projdim", "--help"], cwd=tmp_path,
                          env=_child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: projdim")


def test_boxdim_past_int64_exits_2(tmp_path, capsys):
    cloud = tmp_path / "cloud.csv"
    save_cloud_csv(PointCloud(np.repeat([[0.5, 0.5], [3e4, 7e4]], 40, axis=0), "plane_P"),
                   cloud)
    code, rep = run_cli(["boxdim", "--cloud", str(cloud), "--res", "44:52"], tmp_path)
    assert code == 2 and rep is None
    assert "int64" in capsys.readouterr().err


def test_boxdim_of_one_point_at_resolutions_past_1023(tmp_path):
    cloud = tmp_path / "cloud.csv"
    save_cloud_csv(PointCloud(np.tile([0.0, 0.0, 1.0], (50, 1)), "simplex_S"), cloud)
    code, rep = run_cli(["boxdim", "--cloud", str(cloud), "--res", "1024:1026"], tmp_path)
    assert code == 0
    assert rep["result"]["diagnostics"]["counts"] == [1, 1, 1]


def test_diagonal_letters_dominant_on_different_axes_exit_2(tmp_path, capsys):
    # (AB)^n = diag(2^n, 2^n, 4^-n): a2/a1 = 1 on those words, so no uniform contraction
    save_system(SystemSpec.uniform("cross", (Matrix3.diagonal(2, 1, Fraction(1, 2)),
                                             Matrix3.diagonal(1, 2, Fraction(1, 2)))),
                tmp_path / "cross.json")
    code, rep = run_cli(["dimension", "--system", str(tmp_path / "cross.json"),
                         "--depth", "3"], tmp_path)
    assert code == 2 and rep is None
    assert "positive" in capsys.readouterr().err


def test_reports_are_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["lyapunov", "--system", "rauzy.json", "--steps", "3000", "--seed", "9"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    c = tmp_path / "c.json"
    d = tmp_path / "d.json"
    args = ["delta", "--system", "triple9.json", "--planes", "2",
            "--samples", "2000", "--res", "8", "--seed", "3"]
    # triple9 is diagonal: delta degenerates but must stay deterministic
    code_c = main(args + ["--out", str(c)])
    code_d = main(args + ["--out", str(d)])
    assert code_c == code_d
    if code_c == 0:
        assert c.read_bytes() == d.read_bytes()


def test_validate_report_rejects_unknown_fields(tmp_path):
    code, rep = run_cli(
        ["pressure", "--system", "triple9.json", "--s", "1.0", "--depth", "2"],
        tmp_path,
    )
    rep["extra"] = 1
    with pytest.raises(ValueError):
        validate_report(rep)
    del rep["extra"]
    rep["schema_version"] = 99
    with pytest.raises(ValueError):
        validate_report(rep)


def test_local_system_file_load(tmp_path):
    path = tmp_path / "mysys.json"
    save_system(triple9_system(), path)
    code, rep = run_cli(
        ["pressure", "--system", str(path), "--s", "0.5", "--depth", "2"], tmp_path
    )
    assert code == 0
    assert rep["config"]["label"] == "triple9"


_G1 = "gamma1.json"
# one small run per subcommand; paths are relative to the test's directory
_ECHO_CASES = [
    (["pressure", "--system", "triple9.json", "--s", "0.5"],
     {"system": "triple9.json", "label": "triple9", "s": 0.5, "depth": 4}),
    (["dimension", "--system", "triple9.json", "--tol", "0.01"],
     {"system": "triple9.json", "label": "triple9", "tol": 0.01, "depth": 4}),
    (["rauzy", "--N", "1", "--tol", "0.01", "--depth", "2"],
     {"N": 1, "tol": 0.01, "depth": 2}),
    (["lyapunov", "--system", "rauzy.json", "--steps", "1000", "--seed", "2"],
     {"system": "rauzy.json", "label": "rauzy", "steps": 1000, "seed": 2}),
    (["delta", "--system", _G1, "--planes", "1", "--samples", "500", "--res", "6"],
     {"system": _G1, "label": "rauzy-gamma-1", "planes": 1, "samples": 500, "res": 6,
      "seed": 0}),
    (["render", "--system", "rauzy.json", "--points", "300", "--coords", "plane",
      "--out", "cloud.csv", "--svg", "cloud.svg"],
     {"system": "rauzy.json", "label": "rauzy", "points": 300, "coords": "plane_P",
      "method": "chaos", "seed": 0, "out": "cloud.csv", "svg": "cloud.svg"}),
    (["cover", "--system", _G1, "--s", "1.5", "--delta", "0.01"],
     {"system": _G1, "label": "rauzy-gamma-1", "s": 1.5, "delta": 0.01}),
    (["boxdim", "--cloud", "cloud.csv", "--res", "2:4"],
     {"cloud": "cloud.csv", "res": "2:4"}),
    (["check", "--system", "rauzy.json", "--depth", "3"],
     {"system": "rauzy.json", "label": "rauzy", "depth": 3}),
]


@pytest.mark.parametrize("argv, config", _ECHO_CASES, ids=[a[0] for a, _ in _ECHO_CASES])
def test_report_config_echoes_resolved_flags(tmp_path, monkeypatch, argv, config):
    monkeypatch.chdir(tmp_path)
    save_system(rauzy_gamma_system(1), _G1)
    if argv[0] == "boxdim":
        assert main(["render", "--system", "rauzy.json", "--points", "300",
                     "--out", "cloud.csv"]) == 0
    dest = "--report" if argv[0] == "render" else "--out"
    assert main(argv + [dest, "report.json"]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    validate_report(rep)
    assert rep["config"] == config
