"""Exact 3x3 rational matrices and their singular-value machinery.

Matrices are stored entrywise as :class:`fractions.Fraction`, so word
products can be formed without rounding no matter how fast the entries
grow.  Floats enter only when singular values are evaluated: those are
Gram singular values, i.e. the largest eigenvalue of the Gram matrices of
``A`` and of its exterior square (a closed-form root of the characteristic
cubic), combined with the exact determinant.  That route keeps all three
values accurate to near machine precision even for badly conditioned
products, which an eigen-decomposition of ``A^T A`` alone cannot do for the
small values.  A stack of exact matrices can also be held as one common
denominator over Python-int numerators (:class:`IntegerStack`), whose
products, adjugates and determinants stay exact without a ``Fraction``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, FloatRange, PrecisionLoss, SingularInput

Rational = Fraction | int | str


def _as_fraction(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"matrix entries must be exact rationals, got {type(x).__name__}")


@dataclass(frozen=True)
class Matrix3:
    """An exact 3x3 rational matrix with a cached float view."""

    entries: tuple[tuple[Fraction, Fraction, Fraction], ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Rational]]) -> "Matrix3":
        r = tuple(tuple(_as_fraction(x) for x in row) for row in rows)
        if len(r) != 3 or any(len(row) != 3 for row in r):
            raise ValueError("Matrix3 requires a 3x3 array of entries")
        return cls(r)

    @classmethod
    def identity(cls) -> "Matrix3":
        return cls.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    @classmethod
    def diagonal(cls, a: Rational, b: Rational, c: Rational) -> "Matrix3":
        return cls.from_rows([[a, 0, 0], [0, b, 0], [0, 0, c]])

    @cached_property
    def float_view(self) -> np.ndarray:
        """Nearest-float rendering of the exact entries (read-only)."""
        m = np.array([[float(x) for x in row] for row in self.entries], dtype=float)
        m.setflags(write=False)
        return m

    @cached_property
    def det(self) -> Fraction:
        e = self.entries
        return (
            e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
            - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
            + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0])
        )

    @property
    def trace(self) -> Fraction:
        e = self.entries
        return e[0][0] + e[1][1] + e[2][2]

    def transpose(self) -> "Matrix3":
        e = self.entries
        return Matrix3(tuple(tuple(e[j][i] for j in range(3)) for i in range(3)))

    def inverse(self) -> "Matrix3":
        d = self.det
        if d == 0:
            raise SingularInput("matrix is exactly singular")
        e = self.entries

        def cof(i: int, j: int) -> Fraction:
            rs = [r for r in range(3) if r != i]
            cs = [c for c in range(3) if c != j]
            m = e[rs[0]][cs[0]] * e[rs[1]][cs[1]] - e[rs[0]][cs[1]] * e[rs[1]][cs[0]]
            return m if (i + j) % 2 == 0 else -m

        # adjugate transposed, divided by the determinant
        return Matrix3(tuple(tuple(cof(j, i) / d for j in range(3)) for i in range(3)))

    def __matmul__(self, other: "Matrix3") -> "Matrix3":
        return mat_mul(self, other)

    def __sub__(self, other: "Matrix3") -> "Matrix3":
        return Matrix3(tuple(tuple(x - y for x, y in zip(r, q))
                             for r, q in zip(self.entries, other.entries)))

    def scale(self, c: Rational) -> "Matrix3":
        c = _as_fraction(c)
        return Matrix3(tuple(tuple(c * x for x in row) for row in self.entries))

    def to_strings(self) -> list[list[str]]:
        """Row-major ``"p/q"`` rendering used by the JSON serializers."""
        return [[str(x) for x in row] for row in self.entries]

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.entries) + "]"


def mat_mul(a: Matrix3, b: Matrix3) -> Matrix3:
    """Exact rational product ``a @ b``."""
    ae, be = a.entries, b.entries
    return Matrix3(
        tuple(
            tuple(sum(ae[i][k] * be[k][j] for k in range(3)) for j in range(3))
            for i in range(3)
        )
    )


_EXT_INDEX = ((0, 1), (0, 2), (1, 2))  # basis e1^e2, e1^e3, e2^e3


def exterior_square(a: Matrix3) -> Matrix3:
    """The matrix of 2x2 minors representing the induced map on 2-vectors.

    Functorial: ``exterior_square(a @ b) == exterior_square(a) @ exterior_square(b)``
    holds exactly.
    """
    e = a.entries
    rows = []
    for (i1, i2) in _EXT_INDEX:
        row = []
        for (j1, j2) in _EXT_INDEX:
            row.append(e[i1][j1] * e[i2][j2] - e[i1][j2] * e[i2][j1])
        rows.append(tuple(row))
    return Matrix3(tuple(rows))


@dataclass(frozen=True)
class SvTriple:
    """Singular values sorted ``a1 >= a2 >= a3 >= 0``."""

    a1: float
    a2: float
    a3: float

    def __post_init__(self):
        if not (self.a1 >= self.a2 >= self.a3 >= 0.0):
            raise ValueError(f"singular values out of order: {self}")

    def ratios(self) -> tuple[float, float]:
        """The projective contraction ratios ``(a2/a1, a3/a1)``."""
        return self.a2 / self.a1, self.a3 / self.a1


def _pow2(e: int) -> Fraction:
    """The exact rational ``2**e`` for any integer ``e``."""
    return Fraction(1 << e) if e >= 0 else Fraction(1, 1 << -e)


def _range_exponent(x: Fraction) -> int:
    """An exponent ``e`` with ``2**-1 < |x| * 2**-e < 2**65`` for ``x != 0``,
    read exactly from the bit lengths; ``e = 0`` whenever
    ``2**-64 <= |x| < 2**64``."""
    b = abs(x.numerator).bit_length() - x.denominator.bit_length()
    return b - 64 if b > 64 else b if b < -64 else 0


def _scaled_float(x: Fraction, e: int) -> float:
    """The float nearest to ``x * 2**-e``."""
    return float(x if e == 0 else x * _pow2(-e))


def _scaled_norm(a: Matrix3) -> tuple[float, int]:
    """``(n, e)`` with spectral norm ``n * 2**e``, from the float view of
    ``a * 2**-e``, so the norm kernel (:func:`opnorm_batch`) stays in
    float range.

    The kernel's closed-form root loses digits as the two largest singular
    values meet (about 1e-15 relative over their relative gap, until its
    guard takes over below a 1e-4 gap), so below a 1e-2 gap the norm is
    LAPACK's largest eigenvalue of the Gram matrix instead.
    """
    e = _range_exponent(max(abs(x) for row in a.entries for x in row))
    view = a.float_view if e == 0 else a.scale(_pow2(-e)).float_view
    s2, s1 = np.sqrt(np.maximum(np.linalg.eigvalsh(view.T @ view)[1:], 0.0))
    if s1 - s2 < 1e-2 * s1:
        return float(s1), e
    return float(opnorm_batch(view)), e


def operator_norm(a: Matrix3) -> float:
    """Spectral norm, i.e. the largest singular value (see :func:`_scaled_norm`).

    Raises :class:`FloatRange` when a nonzero norm overflows or underflows
    a float.
    """
    n, e = _scaled_norm(a)
    try:
        norm = math.ldexp(n, e)
    except OverflowError:
        norm = 0.0
    if norm == 0.0 and n != 0.0:
        raise FloatRange("the operator norm is outside the float range")
    return norm


def singular_values(a: Matrix3) -> SvTriple:
    """Singular values of ``a`` from its float view.

    ``a1`` comes from the Gram matrix of ``a``, ``a1*a2`` from the Gram
    matrix of the exterior square, and ``a3`` from the exact determinant,
    so the relative error stays near machine precision until the condition
    number approaches 1/eps.  A matrix (or exterior square) whose largest
    entry is 2**64 or more, or below 2**-64, is first scaled by an exact
    power of two, and the exponent is carried into the values; between
    those bounds nothing is scaled.  Raises :class:`FloatRange` when a
    value overflows or underflows a float, and emits :class:`PrecisionLoss`
    once ``a1/a3 > 1e12``.
    """
    d = a.det
    if d == 0:
        raise SingularInput("singular values of an exactly singular matrix")
    n1, e1 = _scaled_norm(a)
    n2, e2 = _scaled_norm(exterior_square(a))  # a1*a2 = n2 * 2**e2
    ed = _range_exponent(d)
    try:
        a1 = math.ldexp(n1, e1)
        a2 = min(math.ldexp(n2 / n1, e2 - e1), a1)
        a3 = min(math.ldexp(_scaled_float(abs(d), ed) / n2, ed - e2), a2)
    except OverflowError:
        a3 = 0.0
    if a3 == 0.0:
        raise FloatRange("a singular value is outside the float range")
    if a1 / a3 > 1e12:
        warnings.warn(
            f"condition number {a1 / a3:.3e} exceeds 1e12", PrecisionLoss, stacklevel=2
        )
    return SvTriple(a1, a2, a3)


def svf(a: Matrix3, s: float) -> float:
    """The singular value function ``phi^s`` of the projective action.

    Branches: ``(a2/a1)^s`` on ``[0,1]``, ``(a2/a1)(a3/a1)^(s-1)`` on
    ``[1,2]`` and ``((a2*a3)/a1^2)^(s/2)`` beyond.  The exponent of the
    last branch is ``s/2`` (not ``s``) so the function stays continuous at
    ``s = 2``; the dimension formulas only evaluate ``s <= 2`` so the
    choice is unobservable there.
    """
    if not 0.0 <= s < math.inf:  # NaN fails this test too
        raise DomainError("svf requires a finite s >= 0")
    sv = singular_values(a)
    r21, r31 = sv.ratios()
    if s <= 1.0:
        return r21 ** s
    if s <= 2.0:
        return r21 * r31 ** (s - 1.0)
    return (r21 * r31) ** (s / 2.0)


def svf_via_norms(a: Matrix3, s: float) -> float:
    """Independent evaluation of ``phi^s`` from operator norms.

    Uses ``a2/a1 = |A^2|/|A|^2`` and ``a3/a1 = |det A|/(|A| |A^2|)``
    (where ``|A^2|`` is the norm of the exterior square); on ``[1,2]``
    this is the identity ``phi^s = |A^2|^(2-s) / |A|^(1+s)`` for
    unimodular input.  Only defined for ``0 <= s <= 2``.
    """
    if not (0.0 <= s <= 2.0):
        raise DomainError("svf_via_norms is defined for s in [0, 2]")
    d = a.det
    if d == 0:
        raise SingularInput("svf_via_norms of an exactly singular matrix")
    n1, e1 = _scaled_norm(a)
    n2, e2 = _scaled_norm(exterior_square(a))
    r21 = math.ldexp(n2 / n1 ** 2, e2 - 2 * e1)
    if s <= 1.0:
        return r21 ** s
    ed = _range_exponent(d)
    r31 = math.ldexp(_scaled_float(abs(d), ed) / (n1 * n2), ed - e1 - e2)
    return r21 * r31 ** (s - 1.0)


# ---------------------------------------------------------------------------
# batch float kernels used by the enumeration pipelines

def ext2_batch(a: np.ndarray) -> np.ndarray:
    """Exterior squares of a ``(..., 3, 3)`` float stack."""

    def minor(i1, i2, j1, j2):
        return a[..., i1, j1] * a[..., i2, j2] - a[..., i1, j2] * a[..., i2, j1]

    rows = [
        [minor(i1, i2, j1, j2) for (j1, j2) in _EXT_INDEX]
        for (i1, i2) in _EXT_INDEX
    ]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


_TOP_GAP = 1e-4  # relative top gap below which LAPACK recomputes the root
_SQRT3 = math.sqrt(3.0)
_GRAM_INDEX = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def sym3_max_eig_batch(s00, s01, s02, s11, s12, s22) -> np.ndarray:
    """Largest eigenvalue of symmetric 3x3 matrices given as the stacks of
    their six upper entries: the closed-form trigonometric root of the
    characteristic cubic, with det B written out as a cofactor expansion.

    The root's error grows like eps over the relative gap between the two
    largest eigenvalues, so the matrices whose gap is below 1e-4 of the
    largest are recomputed with LAPACK's ``eigvalsh``: simple or repeated,
    every root is accurate to near machine precision.
    """
    q = (s00 + s11 + s22) / 3.0
    d0, d1, d2 = s00 - q, s11 - q, s22 - q
    p = np.sqrt(np.maximum((d0 ** 2 + d1 ** 2 + d2 ** 2
                            + 2.0 * (s01 ** 2 + s02 ** 2 + s12 ** 2)) / 6.0, 0.0))
    safe = np.where(p == 0.0, 1.0, p)
    b00, b11, b22, b01, b02, b12 = (x / safe for x in (d0, d1, d2, s01, s02, s12))
    detb = (b00 * (b11 * b22 - b12 * b12) - b01 * (b01 * b22 - b12 * b02)
            + b02 * (b01 * b12 - b11 * b02))
    c = np.cos(np.arccos(np.clip(detb / 2.0, -1.0, 1.0)) / 3.0)
    lam = q + 2.0 * p * c  # q itself where p == 0
    # the gap to the second root, q + 2p cos(phi - 2pi/3), is p (3c - sqrt(3 (1 - c^2)))
    near = p * (3.0 * c - _SQRT3 * np.sqrt(1.0 - c * c)) < _TOP_GAP * lam
    if near.any():
        rows = np.stack(np.broadcast_arrays(s00, s01, s02, s01, s11, s12, s02, s12, s22), axis=-1)
        lam = np.asarray(lam)
        lam[near] = np.linalg.eigvalsh(rows[near].reshape(-1, 3, 3))[:, -1]
    return lam


def gram_entries(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """The six upper entries ``(s00, s01, s02, s11, s12, s22)`` of the Gram
    matrices ``a^T a`` of a ``(..., 3, 3)`` float stack, written out as
    ``a0i*a0k + a1i*a1k + a2i*a2k``; an entry past about 1e154 gives inf,
    without a warning."""
    c = [[a[..., j, i] for i in range(3)] for j in range(3)]
    with np.errstate(over="ignore", invalid="ignore"):
        return tuple(c[0][i] * c[0][k] + c[1][i] * c[1][k] + c[2][i] * c[2][k]
                     for i, k in _GRAM_INDEX)


def opnorm_batch(a: np.ndarray) -> np.ndarray:
    """Spectral norms of a ``(..., 3, 3)`` float stack, from its Gram entries
    (:func:`gram_entries`).  Raises :class:`FloatRange` when a norm is not
    finite (an entry past about 1e77 overflows the Gram step)."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.maximum(sym3_max_eig_batch(*gram_entries(a)), 0.0))
    if not np.isfinite(norms).all():
        raise FloatRange("a spectral norm is outside the float range")
    return norms


def log_ratio_batch(prod: np.ndarray, prod_ext: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(log(a2/a1), log(a3/a1))`` for unimodular product stacks.

    ``prod_ext`` must be the exterior-square products maintained alongside
    ``prod`` (functoriality makes that an independent recurrence).
    """
    n1 = np.log(opnorm_batch(prod))
    n2 = np.log(opnorm_batch(prod_ext))
    return n2 - 2.0 * n1, -n2 - n1


# ---------------------------------------------------------------------------
# exact integer stacks

class IntegerStack(NamedTuple):
    """Exact 3x3 matrices ``num / den``: one common denominator and a stack
    of integer numerators."""

    den: int  # positive, the least common denominator of every entry
    num: np.ndarray  # (k, 3, 3) read-only object stack of Python ints


def lowest_terms(den: int, num: np.ndarray) -> IntegerStack:
    """``num / den`` for an integer ``den != 0`` and an object stack ``num``
    of Python ints, with their common factor and the sign of ``den`` taken
    out."""
    g = math.gcd(den, *num.ravel().tolist())
    num = num // (g if den > 0 else -g)
    num.setflags(write=False)
    return IntegerStack(abs(den) // g, num)


def integer_stack(mats: Sequence[Matrix3]) -> IntegerStack:
    """The matrices ``mats`` over the least common denominator of their
    entries."""
    den = math.lcm(*(x.denominator for m in mats for row in m.entries for x in row))
    num = np.array([[[x.numerator * (den // x.denominator) for x in row] for row in m.entries]
                    for m in mats], dtype=object)
    num.setflags(write=False)
    return IntegerStack(den, num)


def adjugate(a: np.ndarray) -> np.ndarray:
    """The adjugates of a ``(..., 3, 3)`` stack, written out as 2x2 minors
    with cyclic indices, so an object stack of Python ints stays exact;
    ``a @ adjugate(a)`` is ``det(a)`` times the identity."""
    adj = np.empty_like(a)
    for i in range(3):
        for j in range(3):
            j1, j2, i1, i2 = (j + 1) % 3, (j + 2) % 3, (i + 1) % 3, (i + 2) % 3
            adj[..., i, j] = a[..., j1, i1] * a[..., j2, i2] - a[..., j1, i2] * a[..., j2, i1]
    return adj


def det_stack(a: np.ndarray) -> np.ndarray:
    """The determinants of a ``(..., 3, 3)`` stack, by cofactors along the
    first row (:func:`adjugate`)."""
    return (a[..., 0, :] * adjugate(a)[..., :, 0]).sum(axis=-1)
