"""Command-line front end: one subcommand per pipeline, JSON reports.

A report is a versioned document.  Its ``config`` is the parsed flags with
every default resolved (a defaulted ``--depth``, render's full ``--coords``
name), less the report's own destination (``--out``, or ``--report`` for
``render``), plus the system's ``label``; identical configurations (seeds
included) reproduce byte-identical files.  Exit codes: 0 success, 2 invalid
input, 3 node budget or memory exhausted, or a worker process killed.  The
enumeration cap can be overridden with the PROJDIM_NODE_CAP variable.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys as _sys
from pathlib import Path

import numpy as np

from . import __version__
from .cover import box_dimension_estimate, svd_cover_upper
from .ergodic import empirical_delta, lyapunov_exponents, shannon_entropy
from .errors import BudgetExceeded, ProjdimError, WorkerDied
from .pressure import affinity_dimension, pressure_estimate, rauzy_dimension
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
    # a non-finite float is not JSON: fail here rather than write one
    text = json.dumps(report, indent=2, sort_keys=True, default=str, allow_nan=False) + "\n"
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


# Each command takes the parsed flags and the loaded --system (None without
# one), writes any default it resolves back into the flags, since they are
# the report's config, and returns the report's result.

def _cmd_pressure(args, system) -> dict:
    if args.depth is None:
        args.depth = _default_depth(len(system))
    est = pressure_estimate(system, args.s, args.depth)
    return {"raw": est.raw, "upper": est.upper, "lower": est.lower,
            "submult_constant": est.submult_constant, "diagnostics": est.diagnostics}


def _cmd_dimension(args, system) -> dict:
    if args.depth is None:
        args.depth = _default_depth(len(system))
    return affinity_dimension(system, tol=args.tol, n_max=args.depth).as_dict()


def _cmd_rauzy(args, system) -> dict:
    return rauzy_dimension(args.N, n_max=args.depth, tol=args.tol).as_dict()


def _cmd_lyapunov(args, system) -> dict:
    stats = lyapunov_exponents(system, args.steps, seed=args.seed)
    return {"chi": list(stats.chis), "stderr": list(stats.stderrs), "steps": stats.steps,
            "diagnostics": stats.diagnostics}


def _cmd_delta(args, system) -> dict:
    return empirical_delta(system, planes=args.planes, samples=args.samples,
                           n=args.res, seed=args.seed).as_dict()


def _cmd_render(args, system) -> dict:
    args.coords = {"simplex": "simplex_S", "plane": "plane_P"}.get(args.coords, args.coords)
    cloud = attractor_points(system, method=args.method, budget=args.points,
                             seed=args.seed, coords=args.coords)
    save_cloud_csv(cloud, args.out)
    if args.svg:
        render_svg(cloud, args.svg)
    return {"points_written": len(cloud), "coordinate_system": cloud.coordinate_system}


def _cmd_cover(args, system) -> dict:
    rep = svd_cover_upper(system, args.s, args.delta)
    return {"word_count": rep.word_count, "cover_cost": rep.cover_cost,
            "cone_constant": rep.cone_constant, "diagnostics": rep.diagnostics}


def _cmd_boxdim(args, system) -> dict:
    return box_dimension_estimate(load_cloud_csv(args.cloud),
                                  _parse_resolutions(args.res)).as_dict()


def _cmd_check(args, system) -> dict:
    pos = positivity_report(system)
    dio = diophantine_check(system, args.depth)
    if math.isinf(dio["min_gap"]):  # one product per level: no pair, no gap
        dio["min_gap"] = None
    irr = irreducibility_probe(system)
    lie_dim = None
    if tuple(system.alphabet) == rauzy_alphabet():
        lie_dim = lie_algebra_dimension(rauzy_curve_derivatives())
    return {
        "positivity": {"positive": pos["positive"],
                       "entry_ratio": str(pos["entry_ratio"])},
        "diophantine": dio,
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
    p.set_defaults(func=_cmd_pressure)

    p = sub.add_parser("dimension", help="affinity dimension by bisection")
    add_common(p)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--depth", type=int, default=None)
    p.set_defaults(func=_cmd_dimension)

    p = sub.add_parser("rauzy", help="Rauzy gasket dimension via the positivized ladder")
    add_common(p, system=False)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--depth", type=int, default=3)
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
    args = make_parser().parse_args(argv)
    dest = "report" if args.command == "render" else "out"
    try:
        system = load_system(args.system) if "system" in vars(args) else None
        result = args.func(args, system)
        config = {k: v for k, v in vars(args).items() if k not in ("command", "func", dest)}
        if system is not None:
            config["label"] = system.label
        _emit(build_report(args.command, config, result), getattr(args, dest))
    except BudgetExceeded as exc:
        print(f"projdim: budget exhausted: {exc}", file=_sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"projdim: out of memory: {exc}", file=_sys.stderr)
        return 3
    except WorkerDied as exc:
        print(f"projdim: a worker process died: {exc}", file=_sys.stderr)
        return 3
    except (ProjdimError, ValueError, OSError) as exc:
        print(f"projdim: {exc}", file=_sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
