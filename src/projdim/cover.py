"""Covering upper bounds from singular value decompositions, and box counting.

The covering route writes each stopped word as ``V D U`` with orthogonal
factors and ``D = diag(a2, a3, a1)``: the induced chart map then contracts
by the two projective ratios, the image ellipse is covered by small balls
and the orthogonal factors inflate radii by at most a measured cone
constant.  The resulting weighted ball count is the cover cost; staying
bounded as the stopping scale shrinks indicates finite measure at that
exponent (heuristically: the constant is measured, not proven).  Words stop
in :meth:`~projdim.semigroup.Frontier.stopping_walk`, depth first over
blocks of words: their count is read from its stop masks and their costs
from its states, and no word's letters are formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError, FloatRange, TooFewScales
from .pressure import DimensionEstimate
from .projective import PointCloud, attractor_points, dyadic_cells
from .semigroup import Frontier, SystemSpec, require_positive_like

_PROBES = 16  # circle points mapped per probe ball by cone_constant
_ANGLES = 2.0 * math.pi * np.arange(_PROBES) / _PROBES
_CIRCLE = np.stack([np.cos(_ANGLES), np.sin(_ANGLES)], axis=1)
_RADII = np.array([1e-3, 1e-4])  # small, so a ratio approximates the local distortion
_CYCLIC = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


@dataclass(frozen=True)
class CoverReport:
    word_count: int
    cover_cost: float
    cone_constant: float
    diagnostics: dict = field(default_factory=dict, compare=False)


def svd_vdu(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD rearranged as ``a = V @ D @ U`` with ``D = diag(a2, a3, a1)``,
    for one matrix or a ``(..., 3, 3)`` stack.

    The largest value sits in the denominator slot of the chart map, so
    ``phi_D`` contracts by ``(a2/a1, a3/a1)``; ``V`` and ``U`` stay
    orthogonal.
    """
    w, s, xt = np.linalg.svd(a)
    u = _CYCLIC @ xt
    v = w @ _CYCLIC.T
    d = s[..., [1, 2, 0], None] * np.eye(3)
    return v, d, u


def _lift(pts: np.ndarray) -> np.ndarray:
    return np.concatenate([pts, np.ones(pts.shape[:-1] + (1,))], axis=-1)


def _chart(mats: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chart images of the points ``pts`` (..., 2) under the stack ``mats``
    (..., 3, 3), and their denominators: one matrix times one lifted point,
    the product :func:`~projdim.projective.lft_apply` makes."""
    num = np.matmul(mats, _lift(pts)[..., None])[..., 0]
    return num[..., :2] / num[..., 2:], num[..., 2]


def _circle_images(mats: np.ndarray, circles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chart images of the rows of ``circles`` (k, m, 2) under ``mats`` (k, 3, 3),
    and their denominators.

    The denominators are the points times ``mats[2]`` and the numerators
    the points times ``mats[:2].T``, two products as a ball-by-ball loop
    forms them: numpy's matrix-vector and matrix-matrix products round the
    three-term sums differently, so :func:`_chart`'s one product would move
    some ratios by an ulp.
    """
    tilde = _lift(circles)
    den = np.matmul(tilde, mats[:, 2, :, None])[..., 0]
    return np.matmul(tilde, np.swapaxes(mats[:, :2], 1, 2)) / den[..., None], den


def _probe(mats: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radius inflation of the chart maps ``mats`` (k, 3, 3) on the probe balls
    around ``centers`` (k, c, 2), shape (k, c, radii), and the mask of balls
    with a denominator within 1e-9 of zero, at a probe or at the center."""
    k, c = centers.shape[:2]
    circles = centers[:, :, None, None] + _RADII[:, None, None] * _CIRCLE
    imgs, dens = _circle_images(mats, circles.reshape(k, -1, 2))
    c_img, _ = _chart(mats[:, None], centers)
    # the center test of the mask, ``center @ m[2, :2] + m[2, 2]``, rounds unlike the chart's
    c_den = (centers[..., None, :] @ mats[:, None, 2, :2, None])[..., 0, 0] + mats[:, None, 2, 2]
    diff = imgs.reshape(k, c, len(_RADII), _PROBES, 2) - c_img[:, :, None, None]
    radius = np.sqrt((diff * diff).sum(axis=-1)).max(axis=-1)
    near_zero = ((np.abs(dens) < 1e-9).reshape(k, c, len(_RADII), _PROBES).any(axis=-1)
                 | (np.abs(c_den) < 1e-9)[..., None])
    return radius / _RADII, near_zero


def cone_constant(sys: SystemSpec) -> float:
    """Measured radius inflation of the orthogonal SVD factors.

    Probes each factor where the covering construction applies it: ``U`` on
    balls around attractor points and ``V`` on balls around their diagonal
    images (small radii, so the measurement approximates the local
    distortion).  Never less than one: the identity frame is a valid
    witness, and chart-aligned diagonal letters achieve it.  A ball is
    skipped when a denominator comes within 1e-9 of zero, and the ``V``
    balls of a center when a chart step to its image divides by exactly
    zero; any other ratio that is not finite raises :class:`FloatRange`.
    """
    require_positive_like(sys, "cone_constant")
    cloud = attractor_points(sys, "chaos", budget=16, seed=0, coords="plane_P")
    v, d, u = svd_vdu(sys.letters_float)
    centers = np.broadcast_to(cloud.points, (len(u),) + cloud.points.shape)
    # skipped balls may divide by zero; the check below covers every kept one
    with np.errstate(all="ignore"):
        y, y_den = _chart(u[:, None], centers)
        z, z_den = _chart(d[:, None], y)
        ratio_u, skip_u = _probe(u, centers)
        ratio_v, skip_v = _probe(v, z)
    skip_v |= ((y_den == 0.0) | (z_den == 0.0))[..., None]
    ratios = np.concatenate([ratio_u[~skip_u], ratio_v[~skip_v]])
    if not np.isfinite(ratios).all():
        raise FloatRange("a cone probe ratio is outside the float range")
    return float(ratios.max(initial=1.0))


def svd_cover_upper(sys: SystemSpec, s: float, delta: float) -> CoverReport:
    """Cover cost of the attractor at exponent ``s`` and stopping scale ``delta``.

    Stops words when ``a3/a1`` (or ``a2/a1`` below exponent one) first
    drops under ``delta``; each stopped ellipse contributes
    ``ceil(a2/a3) + 1`` balls of radius ``C^2 (a3/a1) r`` (a single ball of
    radius ``C^2 (a2/a1) r`` below exponent one).  The node cap, not a depth
    limit, bounds the walk.  Each length's costs take one ``np.sum`` in word
    order, added in increasing length: the bits of a whole-level walk.
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

    terms: dict[int, list[np.ndarray]] = {}  # the stopped words' costs, by length

    def statistic(walk: Frontier) -> np.ndarray:
        r21, r31 = walk.ratios()
        ratio = r31 if s >= 1.0 else r21
        stop = ratio <= delta
        count = np.ceil(r21[stop] / r31[stop]) + 1.0 if s >= 1.0 else 1.0
        radius = c_cone ** 2 * ratio[stop] * r_ball
        terms.setdefault(walk.depth, []).append(count * radius ** s)
        return ratio

    walk = Frontier(sys)
    word_count = sum(int(np.count_nonzero(stopped))
                     for stopped in walk.stopping_walk(statistic, delta, math.inf))
    cost = 0.0
    for length in sorted(terms):  # not sum(): from Python 3.12 it rounds differently
        cost += float(np.sum(np.concatenate(terms[length])))
    return CoverReport(
        word_count=word_count,
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
    counts = []
    for n in resolutions:
        b = dyadic_cells(pts, n)
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
