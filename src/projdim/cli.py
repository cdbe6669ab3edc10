"""Command-line front end: one subcommand per pipeline, JSON reports.

Reports are versioned documents echoing the fully resolved configuration;
identical configurations (seeds included) reproduce byte-identical files.
The enumeration cap can be overridden with the PROJDIM_NODE_CAP variable.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys as _sys
from pathlib import Path

import numpy as np

from . import __version__
from .cover import box_dimension_estimate, svd_cover_upper
from .ergodic import empirical_delta, lyapunov_exponents, shannon_entropy
from .errors import BudgetExceeded, ProjdimError
from .pressure import (
    affinity_dimension,
    partition_sum,
    pressure_estimate,
    rauzy_dimension,
    rauzy_gamma_system,
)
from .projective import attractor_points, load_cloud_csv, render_svg, save_cloud_csv
from .semigroup import (
    diophantine_check,
    irreducibility_probe,
    lie_algebra_dimension,
    positivity_report,
)
from .systems import load_system, rauzy_alphabet, rauzy_curve_derivatives

SCHEMA_VERSION = 1
_REPORT_KEYS = {"schema_version", "command", "config", "result", "environment"}


def _environment() -> dict:
    return {
        "projdim": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def build_report(command: str, config: dict, result: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "result": result,
        "environment": _environment(),
    }


def validate_report(doc: dict) -> None:
    """Reject schema drift loudly: unknown fields are errors, not noise."""
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema {doc.get('schema_version')!r}")
    unknown = set(doc) - _REPORT_KEYS
    if unknown:
        raise ValueError(f"unknown report fields: {sorted(unknown)}")
    missing = _REPORT_KEYS - set(doc)
    if missing:
        raise ValueError(f"missing report fields: {sorted(missing)}")


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, default=str) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        _sys.stdout.write(text)


def _default_depth(k: int) -> int:
    # keeps desk-scale runtime in minutes: deeper only for small alphabets
    return 4 if k <= 30 else 3


def _parse_resolutions(arg: str) -> list[int]:
    if ":" in arg:
        lo, hi = arg.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in arg.split(",")]


def _lyap_dict(stats) -> dict:
    return {
        "chi": list(stats.chis),
        "stderr": list(stats.stderrs),
        "steps": stats.steps,
        "diagnostics": stats.diagnostics,
    }


def _is_rauzy(sys_spec) -> bool:
    return tuple(sys_spec.alphabet) == rauzy_alphabet()


def _cmd_pressure(args) -> dict:
    system = load_system(args.system)
    depth = args.depth or _default_depth(len(system))
    est = pressure_estimate(system, args.s, depth, workers=args.threads)
    return build_report(
        "pressure",
        {"system": args.system, "label": system.label, "s": args.s,
         "depth": depth, "threads": args.threads},
        {"raw": est.raw, "upper": est.upper, "lower": est.lower,
         "submult_constant": est.submult_constant, "diagnostics": est.diagnostics},
    )


def _cmd_dimension(args) -> dict:
    system = load_system(args.system)
    depth = args.depth or _default_depth(len(system))
    est = affinity_dimension(system, tol=args.tol, n_max=depth, workers=args.threads)
    return build_report(
        "dimension",
        {"system": args.system, "label": system.label, "tol": args.tol,
         "depth": depth, "threads": args.threads},
        est.as_dict(),
    )


def _cmd_rauzy(args) -> dict:
    est = rauzy_dimension(args.N, n_max=args.depth, tol=args.tol,
                          workers=args.threads)
    return build_report(
        "rauzy",
        {"N": args.N, "tol": args.tol, "depth": args.depth, "threads": args.threads},
        est.as_dict(),
    )


def _cmd_lyapunov(args) -> dict:
    system = load_system(args.system)
    stats = lyapunov_exponents(system, args.steps, seed=args.seed)
    return build_report(
        "lyapunov",
        {"system": args.system, "label": system.label, "steps": args.steps,
         "seed": args.seed},
        _lyap_dict(stats),
    )


def _cmd_delta(args) -> dict:
    system = load_system(args.system)
    est = empirical_delta(system, planes=args.planes, samples=args.samples,
                          n=args.res, seed=args.seed)
    return build_report(
        "delta",
        {"system": args.system, "label": system.label, "planes": args.planes,
         "samples": args.samples, "res": args.res, "seed": args.seed},
        est.as_dict(),
    )


def _cmd_render(args) -> dict:
    system = load_system(args.system)
    coords = {"simplex": "simplex_S", "plane": "plane_P"}.get(args.coords, args.coords)
    cloud = attractor_points(system, method=args.method, budget=args.points,
                             seed=args.seed, coords=coords)
    save_cloud_csv(cloud, args.out)
    if args.svg:
        render_svg(cloud, args.svg)
    return build_report(
        "render",
        {"system": args.system, "label": system.label, "points": args.points,
         "coords": coords, "method": args.method, "seed": args.seed,
         "out": args.out, "svg": args.svg},
        {"points_written": len(cloud), "coordinate_system": cloud.coordinate_system},
    )


def _cmd_cover(args) -> dict:
    system = load_system(args.system)
    rep = svd_cover_upper(system, args.s, args.delta)
    return build_report(
        "cover",
        {"system": args.system, "label": system.label, "s": args.s,
         "delta": args.delta},
        {"word_count": rep.word_count, "cover_cost": rep.cover_cost,
         "cone_constant": rep.cone_constant, "diagnostics": rep.diagnostics},
    )


def _cmd_boxdim(args) -> dict:
    cloud = load_cloud_csv(args.cloud)
    est = box_dimension_estimate(cloud, _parse_resolutions(args.res))
    return build_report(
        "boxdim",
        {"cloud": args.cloud, "res": args.res},
        est.as_dict(),
    )


def _cmd_check(args) -> dict:
    system = load_system(args.system)
    pos = positivity_report(system)
    dio = diophantine_check(system, args.depth)
    irr = irreducibility_probe(system)
    lie_dim = None
    if _is_rauzy(system):
        lie_dim = lie_algebra_dimension(rauzy_curve_derivatives())
    result = {
        "positivity": {"positive": pos["positive"],
                       "entry_ratio": str(pos["entry_ratio"])},
        "diophantine": {k: v for k, v in dio.items()},
        "irreducibility": {
            "invariant_line": None if irr["invariant_line"] is None
            else [str(x) for x in irr["invariant_line"]],
            "invariant_plane": None if irr["invariant_plane"] is None
            else [str(x) for x in irr["invariant_plane"]],
        },
        "lie_algebra_dimension": lie_dim,
        "entropy": shannon_entropy(system.probabilities),
        "sosc": "assumed-unchecked",
    }
    return build_report(
        "check",
        {"system": args.system, "label": system.label, "depth": args.depth},
        result,
    )


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projdim",
        description="Dimension estimators for positive 3x3 projective IFS",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, system=True):
        if system:
            p.add_argument("--system", required=True, help="system JSON (bundled: rauzy.json, triple9.json)")
        p.add_argument("--out", default=None, help="write the JSON report here")

    p = sub.add_parser("pressure", help="finite-depth pressure with brackets")
    add_common(p)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_pressure)

    p = sub.add_parser("dimension", help="affinity dimension by bisection")
    add_common(p)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_dimension)

    p = sub.add_parser("rauzy", help="Rauzy gasket dimension via the positivized ladder")
    add_common(p, system=False)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_rauzy)

    p = sub.add_parser("lyapunov", help="Monte-Carlo Lyapunov spectrum")
    add_common(p)
    p.add_argument("--steps", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_lyapunov)

    p = sub.add_parser("delta", help="empirical projected-measure dimension")
    add_common(p)
    p.add_argument("--planes", type=int, default=32)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--res", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("render", help="attractor point cloud to CSV/SVG")
    p.add_argument("--system", required=True)
    p.add_argument("--points", type=int, default=100_000)
    p.add_argument("--coords", default="simplex",
                   choices=["simplex", "plane", "simplex_S", "plane_P"])
    p.add_argument("--method", default="chaos", choices=["chaos", "cylinder"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="write the point cloud CSV here")
    p.add_argument("--svg", default=None)
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("cover", help="SVD covering upper-bound cost")
    add_common(p)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("boxdim", help="box-counting slope of a cloud CSV")
    p.add_argument("--cloud", required=True)
    p.add_argument("--res", required=True, help="range like 4:10 or list 4,6,8")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_boxdim)

    p = sub.add_parser("check", help="positivity / distinctness / invariant-subspace report")
    add_common(p)
    p.add_argument("--depth", type=int, default=8)
    p.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except BudgetExceeded as exc:
        print(f"projdim: budget exhausted: {exc}", file=_sys.stderr)
        return 3
    except (ProjdimError, ValueError, OSError) as exc:
        print(f"projdim: {exc}", file=_sys.stderr)
        return 2
    _emit(report, args.report if args.command == "render" else args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
