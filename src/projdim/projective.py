"""Linear fractional transformations, plane frames and attractor sampling.

The projective action is realized on the affine chart ``(x, y) -> (x, y, 1)``:
a matrix acts through the linear fractional transformation whose denominator
is its last row.  Plane frames are 2x3 matrices with orthonormal rows whose
second row has nonnegative coordinates; they represent planes together with
a choice of coordinate on them, and ``rescale_decompose`` expresses the
composite map ``phi_{BA}`` as an affine rescaling of the frame transported
by ``A``.
"""

from __future__ import annotations

import csv
import math
import operator
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadDirection,
    DegenerateGap,
    DomainError,
    FloatRange,
    NotContracting,
    NotPositive,
    ProjdimError,
)
from .linalg import Matrix3, singular_values
from .rng import letter_sampler, make_rng
from .semigroup import (
    MAX_LEN,
    Frontier,
    SystemSpec,
    WordSet,
    is_nonnegative,
    require_positive_like,
    stopping_partition_psi,
)


_BURN_IN = 100  # chaos steps discarded before the first sample
_SVG_SIZE = 800  # side of the rendered square, in pixels
_SVG_MAX_POINTS = 50_000  # larger clouds are subsampled by a stride
_CYLINDER_ROWS = 65_536  # the words whose cylinder points are computed at once
_CSV_ROWS = 65_536  # the points a cloud file write formats at once


class DenominatorZero(ProjdimError):
    """The linear fractional transformation hit a vanishing denominator."""


def lft_apply(m, x) -> np.ndarray:
    """Apply the linear fractional transformation of ``m`` to the point ``x``.

    ``m`` is an (r, c) matrix acting on (c-1)-dimensional points and
    returning (r-1)-dimensional ones; the last row is the denominator.
    """
    mat = m.float_view if isinstance(m, Matrix3) else np.asarray(m, dtype=float)
    x = np.asarray(x, dtype=float)
    tilde = np.append(x, 1.0)
    if mat.shape[1] != tilde.shape[0]:
        raise ValueError(f"matrix of shape {mat.shape} cannot act on a {x.shape[0]}-d point")
    num = mat @ tilde
    den = num[-1]
    if den == 0.0:
        raise DenominatorZero("denominator row annihilates the lifted point")
    return num[:-1] / den


class PlaneFrame:
    """A 2x3 frame: orthonormal rows, the second one nonnegative."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = np.asarray(rows, dtype=float)
        if rows.shape != (2, 3):
            raise ValueError("a plane frame is a 2x3 matrix")
        r1, r2 = rows
        if abs(np.linalg.norm(r2) - 1.0) > 1e-9:
            raise ValueError("second row must be a unit vector")
        if r2.min() < -1e-12:
            raise ValueError("second row must have nonnegative coordinates")
        if abs(r1 @ r2) > 1e-12 or abs(np.linalg.norm(r1) - 1.0) > 1e-12:
            raise ValueError("rows are not orthonormal")
        rows = rows.copy()
        rows.setflags(write=False)
        self.rows = rows

    @property
    def r1(self) -> np.ndarray:
        return self.rows[0]

    @property
    def r2(self) -> np.ndarray:
        return self.rows[1]

    def apply(self, x) -> float:
        return float(lft_apply(self.rows, x)[0])

    def apply_homogeneous(self, h: np.ndarray) -> np.ndarray:
        """Frame values of homogeneous representatives (batch, scale free)."""
        num = h @ self.rows[0]
        den = h @ self.rows[1]
        return num / den


def plane_frame_orthonormal(direction) -> PlaneFrame:
    """The canonical orthonormal frame whose second row is ``direction``.

    The first row is Gram-Schmidt of the fixed reference (1,0,0) against
    the direction, falling back to (0,1,0) when parallel; that pins one
    deterministic frame per direction.
    """
    d = np.asarray(direction, dtype=float)
    if d.shape != (3,):
        raise BadDirection("direction must be a 3-vector")
    norm = np.linalg.norm(d)
    if norm < 1e-12:
        raise BadDirection("direction must be nonzero")
    if abs(norm - 1.0) > 1e-9:
        raise BadDirection("direction must be unit length")
    if d.min() < -1e-12:
        raise BadDirection("direction must have nonnegative coordinates")
    d = np.clip(d / norm, 0.0, None)
    d /= np.linalg.norm(d)
    for ref in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])):
        r1 = ref - (ref @ d) * d
        n = np.linalg.norm(r1)
        if n > 1e-9:
            return PlaneFrame(np.stack([r1 / n, d]))
    raise BadDirection("no reference vector is independent of the direction")


def positive_direction_in_plane(normal) -> np.ndarray:
    """A canonical nonnegative unit vector inside the plane ``normal^perp``.

    Projects (1,1,1) onto the plane; if that leaves the nonnegative octant,
    falls back to the bisector of the wedge cut out of the octant by the
    plane.  Raises :class:`BadDirection` when the plane misses the octant.
    """
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    u = np.ones(3) / math.sqrt(3.0)
    p = u - (u @ n) * n
    if np.linalg.norm(p) > 1e-12:
        p /= np.linalg.norm(p)
        if p.min() >= -1e-12:
            p = np.clip(p, 0.0, None)
            return p / np.linalg.norm(p)
    rays = []
    for i in range(3):
        d = np.cross(n, np.eye(3)[i])
        nd = np.linalg.norm(d)
        if nd < 1e-12:
            continue
        for sign in (1.0, -1.0):
            r = sign * d / nd
            if r.min() >= -1e-12:
                rays.append(np.clip(r, 0.0, None))
    if not rays:
        raise BadDirection("plane does not meet the nonnegative octant")
    s = np.sum(rays, axis=0)
    return s / np.linalg.norm(s)


def frame_for_plane(normal) -> PlaneFrame:
    """An orthonormal frame spanning ``normal^perp`` with nonnegative second row."""
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    r2 = positive_direction_in_plane(n)
    r1 = np.cross(n, r2)
    r1 /= np.linalg.norm(r1)
    nz = np.nonzero(np.abs(r1) > 1e-12)[0][0]
    if r1[nz] < 0:
        r1 = -r1
    return PlaneFrame(np.stack([r1, r2]))


# ---------------------------------------------------------------------------
# attractor sampling

@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray
    coordinate_system: str  # "plane_P" or "simplex_S"

    def __post_init__(self):
        pts = self.points
        if self.coordinate_system == "plane_P":
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise ValueError("plane_P clouds have two columns")
            # written so that a NaN fails them: every comparison with NaN is false
            if not (pts.min() > 0 and pts.max() < math.inf):
                raise ValueError("plane_P coordinates must be positive and finite")
        elif self.coordinate_system == "simplex_S":
            if pts.ndim != 2 or pts.shape[1] != 3:
                raise ValueError("simplex_S clouds have three columns")
            dev = pts.sum(axis=1)  # one temporary, worked in place
            dev -= 1.0
            np.abs(dev, out=dev)
            if not (pts.min() >= -1e-15 and dev.max() <= 1e-12):
                raise ValueError("simplex_S points must be nonnegative and sum to 1")
        else:
            raise ValueError(f"unknown coordinate system {self.coordinate_system!r}")

    def __len__(self) -> int:
        return len(self.points)


def dyadic_resolution(n) -> int:
    """The resolution ``n`` of dyadic cells as a Python int; raises
    :class:`DomainError` for anything that is not an integer, such as 8.5."""
    try:
        return operator.index(n)
    except TypeError:
        raise DomainError(f"a dyadic resolution must be an integer, got {n!r}") from None


def dyadic_cells(vals: np.ndarray, n: int) -> np.ndarray:
    """``floor(vals * 2^n)`` as ``int64``: the dyadic cells of side ``2^-n``.

    All-zero values lie in cell 0 at every ``n``.  Raises
    :class:`FloatRange` when a cell would leave ``int64``, and
    :class:`DomainError` for a resolution that is not an integer.
    """
    n = dyadic_resolution(n)
    top = float(np.abs(vals).max())
    if top == 0.0:
        return np.zeros(vals.shape, dtype=np.int64)
    # exponent arithmetic: the float 2.0 ** n overflows for n >= 1024, where
    # a tiny |value| still has a cell in range and ldexp scales it exactly
    if not math.isfinite(top) or math.frexp(top)[1] + n > 63:
        raise FloatRange(f"max |value| = {top} times 2^{n} leaves the int64 cell range")
    return np.floor(vals * 2.0 ** n if n < 1024 else np.ldexp(vals, n)).astype(np.int64)


def _require_nonnegative_action(sys: SystemSpec, what: str) -> None:
    if not is_nonnegative(sys):
        raise NotContracting(
            f"{what} iterates the positive cone; letters must be nonnegative"
        )


def _chaos_homogeneous(sys: SystemSpec, count: int, seed, record=None) -> np.ndarray:
    """Stationary-measure samples as sum-normalized homogeneous 3-vectors,
    or ``record`` of them.

    Runs a batch of parallel chains (counter-based streams keyed by the
    seed) and collects every post-burn-in state; the chain count is a pure
    function of ``count`` so results depend only on (count, seed).  The
    states are three (chains,) rows, and each round draws its letters as it
    starts.  After burn-in each round's states are copied into a contiguous
    (n, 3) block and ``record(block)`` (the block itself by default) is
    kept, in ``record``'s dtype, so a caller that keeps one value per point
    never holds the (count, 3) states.  Coordinate ``i`` is summed as
    ``(a_i0 x0 + a_i2 x2) + a_i1 x1``, the order numpy's batched
    ``einsum("cij,cj->ci", ...)`` takes, so the samples are bit-identical to
    that contraction's.
    """
    _require_nonnegative_action(sys, "chaos sampling")
    table = np.ascontiguousarray(sys.letters_float.transpose(2, 1, 0))  # [j, i, letter]
    draw = letter_sampler(sys.probabilities_float)
    rng = make_rng(seed)
    chains = min(4096, count)
    x = np.full((3, chains), 1.0 / 3.0)
    a = np.empty((3, 3, chains))  # a[j, i, c] = A_c[i, j], then A_c[i, j] * x[j, c]
    y = a[0]  # summed in place into the new states' coordinates
    total = np.empty(chains)
    block = np.empty((chains, 3))
    out = None
    for t in range(-_BURN_IN, (count + chains - 1) // chains):
        # the drawn letters are in range; "wrap" skips the copy through a
        # buffer that the default mode makes for its bounds check
        np.take(table, draw(rng, chains), axis=2, out=a, mode="wrap")
        a *= x[:, None, :]
        y += a[2]
        y += a[1]
        np.add(y[0], y[1], out=total)
        total += y[2]
        np.divide(y, total, out=x)
        if t >= 0:
            start = t * chains
            n = min(chains, count - start)
            for i in range(3):  # column copies: a transposed copy is slower
                block[:, i] = x[i]
            vals = block[:n] if record is None else record(block[:n])
            if out is None:
                out = np.empty((count,) + vals.shape[1:], dtype=vals.dtype)
            out[start:start + n] = vals
    return out


def _to_coords(h: np.ndarray, coords: str) -> np.ndarray:
    if coords == "simplex_S":
        return h / h.sum(axis=1, keepdims=True)
    if coords == "plane_P":
        return np.stack([h[:, 0] / h[:, 2], h[:, 1] / h[:, 2]], axis=1)
    raise ValueError(f"unknown coordinate system {coords!r}")


def attractor_points(sys: SystemSpec, method: str = "chaos", budget: int = 10_000,
                     seed: int = 0, coords: str = "simplex_S") -> PointCloud:
    """Sample the attractor by forward iteration or by cylinder midpoints.

    ``chaos`` iterates random letters from the barycenter; ``cylinder``
    evaluates one point per word of the first ψ partition
    (:func:`stopping_partition_psi`, n = 1..39) whose size reaches the
    budget, and raises :class:`DomainError` when none does.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    if method == "chaos":
        h = _chaos_homogeneous(sys, budget, seed)
        return PointCloud(_to_coords(h, coords), coords)
    if method == "cylinder":
        _require_nonnegative_action(sys, "cylinder sampling")
        for n in range(1, 40):
            words = stopping_partition_psi(sys, n)
            if len(words) >= budget:
                break
        else:  # each partition refines the one before, so the last is the largest
            raise DomainError(f"no ψ partition up to n = 39 reaches the budget of {budget} "
                              f"words; the largest has {len(words)}")
        # h = A_w1 ... A_wL x0 for a block of words at once, last letter first;
        # the padding index -1 selects the appended identity, an exact no-op
        lf = np.concatenate([sys.letters_float, np.eye(3)[None]])
        pts = np.empty((len(words), 3))
        for lo in range(0, len(words), _CYLINDER_ROWS):
            block = words.letters[lo:lo + _CYLINDER_ROWS]
            h = np.full((len(block), 3, 1), 1.0 / 3.0)
            for col in reversed(range(block.shape[1])):
                h = lf[block[:, col]] @ h
            pts[lo:lo + len(block)] = h[:, :, 0] / h.sum(axis=1)
        return PointCloud(_to_coords(pts, coords), coords)
    raise ValueError(f"unknown sampling method {method!r}")


def project_measure_samples(sys: SystemSpec, frame: PlaneFrame, count: int, seed,
                            cells: int | None = None) -> np.ndarray:
    """``count`` samples of the frame image of the stationary measure, or,
    given ``cells = n``, their dyadic cells (:func:`dyadic_cells`) as
    ``int64``, binned block by block so that the float samples are never
    all held."""
    if count < 1:
        raise DomainError("project_measure_samples needs count >= 1")
    if cells is None:
        return _chaos_homogeneous(sys, count, seed, frame.apply_homogeneous)
    return _chaos_homogeneous(sys, count, seed,
                              lambda block: dyadic_cells(frame.apply_homogeneous(block), cells))


# ---------------------------------------------------------------------------
# rescaling of composed frame maps

def rescale_decompose(frame: PlaneFrame, a: Matrix3) -> dict:
    """Write ``phi_(BA)`` as ``c * phi_M + t`` with ``M`` orthonormal.

    ``M`` spans the plane transported by the transpose of ``a``; ``c`` and
    ``t`` are scalars.  Requires a nonnegative matrix (negative entries
    leave the chart; boundary zeros are fine since the identity is pointwise
    algebra), and refuses inputs whose two smallest singular values coincide
    beyond 1e-9 (the rescaling direction is then ill-conditioned).
    """
    if any(x < 0 for row in a.entries for x in row):
        raise NotPositive("rescale_decompose requires a nonnegative matrix")
    sv = singular_values(a)
    if (sv.a2 - sv.a3) / sv.a2 < 1e-9:
        raise DegenerateGap("a2 and a3 coincide; transported frame ill-conditioned")

    at = a.float_view.T
    a_r1 = at @ frame.r1
    a_r2 = at @ frame.r2
    n2 = a_r2 @ a_r2
    t = float((a_r1 @ a_r2) / n2)
    v = a_r1 - (a_r1 @ a_r2) / n2 * a_r2
    # second orthogonalization pass: v is tiny against a_r1 for contracting
    # words and a single projection leaves O(eps/ratio) relative error
    v = v - (v @ a_r2) / n2 * a_r2
    nv = np.linalg.norm(v)
    if nv < 1e-14 * np.linalg.norm(a_r1):
        raise DegenerateGap("transported rows are parallel")
    m = PlaneFrame(np.stack([v / nv, a_r2 / math.sqrt(n2)]))
    return {"M": m, "c": float(nv / math.sqrt(n2)), "t": t}


def xi_partition(frame: PlaneFrame, sys: SystemSpec, n: int) -> WordSet:
    """First-passage words where the frame rescaling factor drops to ``2^-n``.

    Like :func:`stopping_partition_psi`, it returns a packed, read-only,
    lexicographically sorted :class:`WordSet`, and a branch that has not
    stopped by depth ``MAX_LEN`` raises :class:`NotContracting`.

    The stopping statistic for a word ``w`` is
    ``|A_w^T u| / |A_w^T r2|`` with ``u`` the unit in-plane direction whose
    transported image is orthogonal to the transported second row.  The
    walk carries only the transported rows ``w1 = A_w^T r1`` and
    ``w2 = A_w^T r2``: with ``c = w1.w2 / w2.w2``, ``u`` is
    ``(r1 - c r2) / sqrt(1 + c^2)`` and ``A_w^T u`` is ``w1 - c w2`` over the
    same norm, a ratio that no common scale of the rows changes.
    """
    if n < 0:
        raise ValueError("resolution must be >= 0")
    require_positive_like(sys, "xi_partition")
    lf = sys.letters_float
    walk = Frontier(sys, states=[np.matmul(frame.rows, lf)], steps=[lf])

    def statistic(walk: Frontier) -> np.ndarray:
        w1, w2 = walk.states[0][:, 0], walk.states[0][:, 1]
        n2 = np.einsum("ki,ki->k", w2, w2)
        c = np.einsum("ki,ki->k", w1, w2) / n2
        v = w1 - c[:, None] * w2
        nv = np.linalg.norm(v, axis=1)
        if np.any(nv < 1e-13 * np.linalg.norm(w1, axis=1)):
            raise DegenerateGap("transported rows became parallel during the walk")
        return nv / np.sqrt((1.0 + c * c) * n2)

    return walk.first_passage(statistic, 2.0 ** -n, MAX_LEN)


# ---------------------------------------------------------------------------
# cloud files

def save_cloud_csv(cloud: PointCloud, path: str | Path) -> None:
    """CSV with a header naming the coordinate system, one point per line.

    The points are written as ``csv.writer`` writes each float's ``repr``,
    one string per ``_CSV_ROWS`` points: no float repr holds a comma, quote
    or line break.
    """
    dim = cloud.points.shape[1]
    header = [f"{cloud.coordinate_system}_{axis}" for axis in "xyz"[:dim]]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, len(cloud.points), _CSV_ROWS):
            block = cloud.points[lo:lo + _CSV_ROWS].astype(float, copy=False)
            fh.write("".join(",".join(map(repr, row)) + "\r\n" for row in block.tolist()))


def load_cloud_csv(path: str | Path) -> PointCloud:
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if not header:
            raise ValueError(f"cloud file {path} has no header row")
        # a file with no points reads as a (0, 1) array, which PointCloud refuses
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            points = np.loadtxt(fh, delimiter=",", quotechar='"', ndmin=2)
    return PointCloud(points, header[0].rsplit("_", 1)[0])


def render_svg(cloud: PointCloud, path: str | Path) -> None:
    """Rasterize the cloud as an SVG scatter (subsampled past ``_SVG_MAX_POINTS``)."""
    pts = cloud.points[:, :2]
    if len(pts) > _SVG_MAX_POINTS:
        stride = len(pts) // _SVG_MAX_POINTS + 1
        pts = pts[::stride]
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.where(hi - lo < 1e-12, 1.0, hi - lo)
    xy = (pts - lo) / span * (_SVG_SIZE - 10) + 5
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>',
    ]
    for x, y in xy:
        parts.append(f'<circle cx="{x:.2f}" cy="{_SVG_SIZE - y:.2f}" r="0.6" fill="black"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))
