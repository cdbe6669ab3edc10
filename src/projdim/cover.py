"""Covering upper bounds from singular value decompositions, and box counting.

The covering route writes each stopped word as ``V D U`` with orthogonal
factors and ``D = diag(a2, a3, a1)``: the induced chart map then contracts
by the two projective ratios, the image ellipse is covered by small balls
and the orthogonal factors inflate radii by at most a measured cone
constant.  The resulting weighted ball count is the cover cost; staying
bounded as the stopping scale shrinks indicates finite measure at that
exponent (heuristically: the constant is measured, not proven).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, FloatRange, TooFewScales
from .pressure import DimensionEstimate
from .projective import DenominatorZero, PointCloud, attractor_points, lft_apply
from .semigroup import Frontier, SystemSpec, require_positive_like

_PROBES = 16  # circle points mapped per ball by _image_radius
_CYCLIC = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


@dataclass(frozen=True)
class CoverReport:
    s: float
    delta: float
    word_count: int
    cover_cost: float
    cone_constant: float
    diagnostics: dict = field(default_factory=dict, compare=False)


def svd_vdu(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD rearranged as ``a = V @ D @ U`` with ``D = diag(a2, a3, a1)``.

    The largest value sits in the denominator slot of the chart map, so
    ``phi_D`` contracts by ``(a2/a1, a3/a1)``; ``V`` and ``U`` stay
    orthogonal.
    """
    w, s, xt = np.linalg.svd(a)
    u = _CYCLIC @ xt
    v = w @ _CYCLIC.T
    d = np.diag([s[1], s[2], s[0]])
    return v, d, u


def _image_radius(mat: np.ndarray, center: np.ndarray, r: float) -> Optional[float]:
    """Radius of a ball containing the chart image of B(center, r)."""
    angles = 2.0 * math.pi * np.arange(_PROBES) / _PROBES
    circle = center + r * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    tilde = np.concatenate([circle, np.ones((_PROBES, 1))], axis=1)
    dens = tilde @ mat[2]
    if np.abs(dens).min() < 1e-9 or abs(center @ mat[2, :2] + mat[2, 2]) < 1e-9:
        return None
    imgs = (tilde @ mat[:2].T) / dens[:, None]
    c_img = lft_apply(mat, center)
    return float(np.linalg.norm(imgs - c_img, axis=1).max())


def cone_constant(sys: SystemSpec) -> float:
    """Measured radius inflation of the orthogonal SVD factors.

    Probes each factor where the covering construction applies it: ``U`` on
    balls around attractor points and ``V`` on balls around their diagonal
    images (small radii, so the measurement approximates the local
    distortion).  Never less than one: the identity frame is a valid
    witness, and chart-aligned diagonal letters achieve it.
    """
    require_positive_like(sys, "cone_constant")
    cloud = attractor_points(sys, "chaos", budget=16, seed=0, coords="plane_P")
    centers = cloud.points
    best = 1.0
    radii = (1e-3, 1e-4)
    for m in sys.letters_float:
        v, d, u = svd_vdu(m)
        for center in centers:
            for r in radii:
                ri = _image_radius(u, center, r)
                if ri is not None:
                    best = max(best, ri / r)
            try:
                z = lft_apply(d, lft_apply(u, center))
            except DenominatorZero:
                continue
            for r in radii:
                ri = _image_radius(v, z, r)
                if ri is not None:
                    best = max(best, ri / r)
    return best


def svd_cover_upper(sys: SystemSpec, s: float, delta: float) -> CoverReport:
    """Cover cost of the attractor at exponent ``s`` and stopping scale ``delta``.

    Stops words when ``a3/a1`` (or ``a2/a1`` below exponent one) first
    drops under ``delta``; each stopped ellipse contributes
    ``ceil(a2/a3) + 1`` balls of radius ``C^2 (a3/a1) r`` (a single ball of
    radius ``C^2 (a2/a1) r`` below exponent one).
    """
    if not (0.0 < s < 2.0):
        raise DomainError("cover exponent must lie in (0, 2)")
    if not (0.0 < delta < 1.0):
        raise DomainError("stopping scale must lie in (0, 1)")
    require_positive_like(sys, "svd_cover_upper")
    c_cone = cone_constant(sys)

    cloud = attractor_points(sys, "chaos", budget=2048, seed=0, coords="plane_P")
    center = cloud.points.mean(axis=0)
    r_ball = float(np.linalg.norm(cloud.points - center, axis=1).max()) * 1.05 + 1e-9

    walk = Frontier(sys)
    cost = 0.0
    words = 0
    while True:
        r21, r31 = walk.ratios()
        ratio = r31 if s >= 1.0 else r21
        stopped = ratio <= delta
        if np.any(stopped):
            words += int(stopped.sum())
            if s >= 1.0:
                count = np.ceil(r21[stopped] / r31[stopped]) + 1.0
                radius = c_cone ** 2 * r31[stopped] * r_ball
            else:
                count = 1.0
                radius = c_cone ** 2 * r21[stopped] * r_ball
            cost += float(np.sum(count * radius ** s))
        if stopped.all():
            break
        walk.grow(~stopped)
    return CoverReport(
        s=s,
        delta=delta,
        word_count=words,
        cover_cost=cost,
        cone_constant=c_cone,
        diagnostics={"enclosing_radius": r_ball, "nodes": walk.visited,
                     "heuristic_constant": True},
    )


def box_dimension_estimate(cloud: PointCloud,
                           resolutions: Sequence[int]) -> DimensionEstimate:
    """Least-squares slope of log box counts against dyadic resolution.

    Resolutions whose occupancy exceeds a tenth of the cloud are dropped as
    sample-limited; at least two scales must survive.
    """
    resolutions = sorted(set(int(r) for r in resolutions))
    if len(resolutions) < 3:
        raise TooFewScales("need at least three resolutions")
    pts = cloud.points[:, :2]
    top, n_max = float(np.abs(pts).max()), resolutions[-1]
    # exponent arithmetic, as in ergodic._cell_counts: top * 2.0 ** n overflows for n >= 1024
    if not math.isfinite(top) or (top > 0 and math.frexp(top)[1] + n_max > 63):
        raise FloatRange(f"max |point| = {top} times 2^{n_max} leaves the int64 box range")
    counts = []
    for n in resolutions:
        b = np.floor(pts * (2.0 ** n)).astype(np.int64)
        # sorted rows put equal boxes next to each other; np.unique(b, axis=0)
        # counts the same but is about 5x slower on a million points
        b = b[np.lexsort(b.T)]
        counts.append(1 + np.count_nonzero((b[1:] != b[:-1]).any(axis=1)))
    sizes = np.array(counts, dtype=float)
    if np.any(np.diff(sizes) < 0):
        raise ValueError("box counts must be nondecreasing in resolution")
    usable = [
        (n, c) for n, c in zip(resolutions, sizes) if c <= len(pts) / 10 or c == 1
    ]
    if len(usable) < 2:
        raise TooFewScales("all resolutions are sample-limited")
    xs = np.array([n * math.log(2.0) for n, _ in usable])
    ys = np.log(np.array([c for _, c in usable]))
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.abs(ys - (slope * xs + intercept)).max())
    return DimensionEstimate(
        value=float(slope),
        bracket_lo=float(slope) - resid,
        bracket_hi=float(slope) + resid,
        depth=usable[-1][0],
        method="box_count",
        diagnostics={
            "resolutions": resolutions,
            "counts": [int(c) for c in sizes],
            "used": [n for n, _ in usable],
            "max_fit_residual": resid,
        },
    )
