"""Linear fractional transformations, plane frames and attractor sampling.

The projective action is realized on the affine chart ``(x, y) -> (x, y, 1)``:
a matrix acts through the linear fractional transformation whose denominator
is its last row.  Plane frames are 2x3 matrices whose unit second row has
nonnegative coordinates; orthonormal frames represent planes together with a
choice of coordinate on them, and ``rescale_decompose`` expresses the
composite map ``phi_{BA}`` as an affine rescaling of the frame transported
by ``A``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BadDirection,
    DegenerateGap,
    NotContracting,
    NotPositive,
    ProjdimError,
)
from .linalg import Matrix3, singular_values
from .rng import make_rng
from .semigroup import (
    Frontier,
    SystemSpec,
    Word,
    is_nonnegative,
    require_positive_like,
    stopping_partition_psi,
)


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


def homogeneous_lift(x) -> np.ndarray:
    """The representative ``(x1, x2, 1)`` of a chart point in R^3."""
    x = np.asarray(x, dtype=float)
    return np.append(x, 1.0)


class PlaneFrame:
    """A 2x3 frame: unit nonnegative second row, independent rows."""

    __slots__ = ("rows", "orthonormal")

    def __init__(self, rows, orthonormal: bool = False):
        rows = np.asarray(rows, dtype=float)
        if rows.shape != (2, 3):
            raise ValueError("a plane frame is a 2x3 matrix")
        r1, r2 = rows
        if abs(np.linalg.norm(r2) - 1.0) > 1e-9:
            raise ValueError("second row must be a unit vector")
        if r2.min() < -1e-12:
            raise ValueError("second row must have nonnegative coordinates")
        if np.linalg.norm(np.cross(r1, r2)) < 1e-12:
            raise ValueError("frame rows must be linearly independent")
        if orthonormal:
            if abs(r1 @ r2) > 1e-12 or abs(np.linalg.norm(r1) - 1.0) > 1e-12:
                raise ValueError("rows are not orthonormal")
        rows = rows.copy()
        rows.setflags(write=False)
        self.rows = rows
        self.orthonormal = orthonormal

    @property
    def r1(self) -> np.ndarray:
        return self.rows[0]

    @property
    def r2(self) -> np.ndarray:
        return self.rows[1]

    def plane_normal(self) -> np.ndarray:
        n = np.cross(self.rows[0], self.rows[1])
        n /= np.linalg.norm(n)
        imax = int(np.argmax(np.abs(n)))
        return n if n[imax] > 0 else -n

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
            return PlaneFrame(np.stack([r1 / n, d]), orthonormal=True)
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
    return PlaneFrame(np.stack([r1, r2]), orthonormal=True)


# ---------------------------------------------------------------------------
# attractor sampling

@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray
    coordinate_system: str  # "plane_P" or "simplex_S"
    seed: int

    def __post_init__(self):
        pts = self.points
        if self.coordinate_system == "plane_P":
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise ValueError("plane_P clouds have two columns")
            if pts.min() <= 0:
                raise ValueError("plane_P coordinates must be positive")
        elif self.coordinate_system == "simplex_S":
            if pts.ndim != 2 or pts.shape[1] != 3:
                raise ValueError("simplex_S clouds have three columns")
            if pts.min() < -1e-15 or np.abs(pts.sum(axis=1) - 1.0).max() > 1e-12:
                raise ValueError("simplex_S points must be nonnegative and sum to 1")
        else:
            raise ValueError(f"unknown coordinate system {self.coordinate_system!r}")

    def __len__(self) -> int:
        return len(self.points)


def _require_nonnegative_action(sys: SystemSpec, what: str) -> None:
    if not is_nonnegative(sys):
        raise NotContracting(
            f"{what} iterates the positive cone; letters must be nonnegative"
        )


def _chaos_homogeneous(sys: SystemSpec, count: int, seed, burn_in: int = 100) -> np.ndarray:
    """Stationary-measure samples as sum-normalized homogeneous 3-vectors.

    Runs a batch of parallel chains (counter-based streams keyed by the
    seed) and collects every post-burn-in state; the chain count is a pure
    function of ``count`` so results depend only on (count, seed).
    """
    _require_nonnegative_action(sys, "chaos sampling")
    k = len(sys)
    letters = sys.letters_float
    p = sys.probabilities_float
    chains = min(4096, count)
    rounds = (count + chains - 1) // chains
    rng = make_rng(seed)
    idx = rng.choice(k, size=(burn_in + rounds, chains), p=p)
    x = np.full((chains, 3), 1.0 / 3.0)
    out = np.empty((rounds, chains, 3))
    for t in range(burn_in + rounds):
        y = np.einsum("cij,cj->ci", letters[idx[t]], x)
        x = y / y.sum(axis=1, keepdims=True)
        if t >= burn_in:
            out[t - burn_in] = x
    return out.reshape(-1, 3)[:count]


def _to_coords(h: np.ndarray, coords: str) -> np.ndarray:
    if coords == "simplex_S":
        return h / h.sum(axis=1, keepdims=True)
    if coords == "plane_P":
        return np.stack([h[:, 0] / h[:, 2], h[:, 1] / h[:, 2]], axis=1)
    raise ValueError(f"unknown coordinate system {coords!r}")


def attractor_points(sys: SystemSpec, method: str = "chaos", budget: int = 10_000,
                     seed: int = 0, coords: str = "simplex_S",
                     burn_in: int = 100) -> PointCloud:
    """Sample the attractor by forward iteration or by cylinder midpoints.

    ``chaos`` iterates random letters from the barycenter; ``cylinder``
    evaluates one point per word of a stopping partition whose size first
    reaches the budget.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    if method == "chaos":
        h = _chaos_homogeneous(sys, budget, seed, burn_in)
        return PointCloud(_to_coords(h, coords), coords, seed)
    if method == "cylinder":
        _require_nonnegative_action(sys, "cylinder sampling")
        words: Sequence[Word] = []
        for n in range(1, 40):
            words = stopping_partition_psi(sys, n)
            if len(words) >= budget:
                break
        letters = sys.letters_float
        x0 = np.ones(3) / 3.0
        pts = np.empty((len(words), 3))
        for w_i, w in enumerate(words):
            h = x0
            for letter in reversed(w.letters):
                h = letters[letter] @ h
            pts[w_i] = h / h.sum()
        return PointCloud(_to_coords(pts, coords), coords, seed)
    raise ValueError(f"unknown sampling method {method!r}")


def project_measure_samples(sys: SystemSpec, frame: PlaneFrame, count: int,
                            seed, burn_in: int = 100) -> np.ndarray:
    """``count`` samples of the frame image of the stationary measure."""
    h = _chaos_homogeneous(sys, count, seed, burn_in)
    return frame.apply_homogeneous(h)


# ---------------------------------------------------------------------------
# rescaling of composed frame maps

def rescale_decompose(frame: PlaneFrame, a: Matrix3) -> dict:
    """Write ``phi_(BA)`` as ``c * phi_M + t`` with ``M`` orthonormal.

    ``M`` spans the plane transported by the transpose of ``a``; ``c`` and
    ``t`` are scalars.  Requires an orthonormal frame and a nonnegative
    matrix (negative entries leave the chart; boundary zeros are fine since
    the identity is pointwise algebra), and refuses inputs whose two
    smallest singular values coincide beyond 1e-9 (the rescaling direction
    is then ill-conditioned).
    """
    if not frame.orthonormal:
        raise ValueError("rescale_decompose needs an orthonormal frame")
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
    inv_t = np.linalg.inv(at)
    w = inv_t @ v
    nw = np.linalg.norm(w)
    u = w / nw
    nz = np.nonzero(np.abs(u) > 1e-12)[0][0]
    if u[nz] < 0:
        u = -u
    c = float(nw * np.linalg.norm(at @ u) / math.sqrt(n2))
    m = PlaneFrame(np.stack([v / nv, a_r2 / math.sqrt(n2)]), orthonormal=True)
    return {"M": m, "c": c, "t": t, "u": u}


def xi_partition(frame: PlaneFrame, sys: SystemSpec, n: int, max_len: int = 64,
                 cap: Optional[int] = None) -> list[Word]:
    """First-passage words where the frame rescaling factor drops to ``2^-n``.

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
    if not frame.orthonormal:
        raise ValueError("xi_partition needs an orthonormal frame")
    require_positive_like(sys, "xi_partition")
    lf = sys.letters_float
    walk = Frontier(sys, cap, states=[np.matmul(frame.rows, lf)], steps=[lf])

    def statistic(walk: Frontier) -> np.ndarray:
        w1, w2 = walk.states[0][:, 0], walk.states[0][:, 1]
        n2 = np.einsum("ki,ki->k", w2, w2)
        c = np.einsum("ki,ki->k", w1, w2) / n2
        v = w1 - c[:, None] * w2
        nv = np.linalg.norm(v, axis=1)
        if np.any(nv < 1e-13 * np.linalg.norm(w1, axis=1)):
            raise DegenerateGap("transported rows became parallel during the walk")
        return nv / np.sqrt((1.0 + c * c) * n2)

    return walk.first_passage(statistic, n, max_len)


def xi_stopping_ratio(frame: PlaneFrame, sys: SystemSpec, word: Word) -> float:
    """The xi statistic of one word, evaluated directly (test hook)."""
    at = word.product.float_view.T
    w2 = at @ frame.r2
    w1 = at @ frame.r1
    v = w1 - (w1 @ w2) / (w2 @ w2) * w2
    inv_t = np.linalg.inv(at)
    return float(np.linalg.norm(v) / (np.linalg.norm(inv_t @ v) * np.linalg.norm(w2)))


# ---------------------------------------------------------------------------
# cloud files

def save_cloud_csv(cloud: PointCloud, path: str | Path) -> None:
    """CSV with a header naming the coordinate system, one point per line."""
    dim = cloud.points.shape[1]
    header = [f"{cloud.coordinate_system}_{axis}" for axis in "xyz"[:dim]]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in cloud.points:
            writer.writerow([repr(float(x)) for x in row])


def load_cloud_csv(path: str | Path) -> PointCloud:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(x) for x in row] for row in reader if row]
    coords = header[0].rsplit("_", 1)[0]
    return PointCloud(np.array(rows), coords, seed=-1)


def render_svg(cloud: PointCloud, path: str | Path, size: int = 800,
               max_points: int = 50_000) -> None:
    """Rasterize the cloud as an SVG scatter (subsampled past ``max_points``)."""
    pts = cloud.points[:, :2]
    if len(pts) > max_points:
        stride = len(pts) // max_points + 1
        pts = pts[::stride]
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.where(hi - lo < 1e-12, 1.0, hi - lo)
    xy = (pts - lo) / span * (size - 10) + 5
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for x, y in xy:
        parts.append(f'<circle cx="{x:.2f}" cy="{size - y:.2f}" r="0.6" fill="black"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))
