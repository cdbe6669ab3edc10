import json
import math

import numpy as np
import pytest

from projdim.cli import main, validate_report
from projdim.pressure import rauzy_gamma_system
from projdim.systems import rauzy_system, save_system, triple9_system


def run_cli(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, (json.loads(out.read_text()) if out.exists() else None)


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


def test_exit_codes(tmp_path, capsys):
    assert main(["lyapunov", "--system", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"label": "x", "matrices": [], "probabilities": [],
                               "weird": 1}))
    assert main(["lyapunov", "--system", str(bad)]) == 2
    # budget exhaustion maps to exit 3
    import os

    os.environ["PROJDIM_NODE_CAP"] = "10"
    try:
        assert main(["dimension", "--system", "triple9.json", "--depth", "3"]) == 3
    finally:
        del os.environ["PROJDIM_NODE_CAP"]


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
