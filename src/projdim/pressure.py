"""Partition sums, pressure brackets and the affinity-dimension root solve.

The pressure of a system at exponent ``s`` is the exponential growth rate
of the level sums ``sum phi^s`` over all words of a given length; the
affinity dimension is its unique zero.  Level sums are evaluated from
cached per-word contraction ratios: products and their exterior squares
are pushed in float by one walk (:meth:`Frontier.stopping_walk`) from the
orbit representatives (below), in blocks of words, one matrix product per
stack and block, and each block writes its words' ratios into the level
arrays; after that every evaluation at a new ``s`` is a vectorized
log-sum-exp over the cached arrays, and each level sum is kept on the
system too, so a repeated ``(s, n)`` is summed once.  The word order and
the reduction tree are fixed, so results are bitwise reproducible and do
not depend on the block size.  The truncated zeta series reads the same
table; the multiplicativity fit walks a pool of short words of its own.

The table keeps one subtree per orbit of the system's exact letter
symmetries (:attr:`SystemSpec.letter_orbits`, found on the integer
numerators of the acting letters): only the words that start with the least
letter of an orbit are walked and stored, and each level sum weighs a
representative's block by its orbit size.  Every Rauzy generator is
``I + e_i (1 - e_i)^T``, so a 3x3 permutation matrix ``P`` of ``sigma`` has
``P A_i P^-1 = A_sigma(i)``; the positivizing conjugator commutes with
``P``, so it maps ``gamma_letter(i, j, n)`` to
``gamma_letter(sigma(i), sigma(j), n)`` and a word to one with the same
singular values.  On Γ_N, N of the 6N subtrees are walked and kept.  A
relabelled word's own product can differ from its representative's in the
last bit, so what reads single words does not use the symmetry: the
stopping walks of ψ, ξ and the cover, which decide per word, and the
multiplicativity fit, whose constants are a max and a min over words.  A
system whose only symmetry is the identity walks and keeps every subtree.

The ``rauzy`` ladder builds one table: Γ_n's letters are the first ``6n``
letters of Γ_N, with the same conjugator and the first ``n`` of its
representatives, so each level of Γ_n's table is the corner of Γ_N's level
(reshaped to one axis per letter) where every letter is below ``6n``, in the
same order and bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DomainError, FloatRange, NotPositive
from .rng import make_rng
from .linalg import log_ratio_batch
from .semigroup import (Frontier, SystemSpec, check_table_budget, is_nonnegative,
                        require_positive_like)
from .systems import gamma_letter, positivizing_conjugator

_PAIR_SAMPLE_CAP = 10_000
_GAMMA_LABEL = "rauzy-gamma-{}"
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class PressureEstimate:
    """A finite-depth pressure value with heuristic sub/supermultiplicative brackets."""

    raw: float
    upper: float
    lower: float
    submult_constant: float
    diagnostics: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class DimensionEstimate:
    value: float
    bracket_lo: float
    bracket_hi: float
    depth: int
    method: str
    diagnostics: dict = field(default_factory=dict, compare=False)

    @property
    def bracket(self) -> list:
        """``[bracket_lo, bracket_hi]`` for a report: ``None`` for an unbounded end."""
        return [None if math.isinf(x) else x for x in (self.bracket_lo, self.bracket_hi)]

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "bracket": self.bracket,
            "depth": self.depth,
            "method": self.method,
            "diagnostics": self.diagnostics,
        }


class ZetaTruncation(NamedTuple):
    value: float
    words_evaluated: int


# ---------------------------------------------------------------------------
# cached per-level contraction ratios

def _log_ratios(prod: np.ndarray, ext2: np.ndarray, e1: np.ndarray,
                e2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(log(a2/a1), log(a3/a1))`` of the words whose products are
    ``prod * 2**e1``, with exterior squares ``ext2 * 2**e2``."""
    r21, r31 = log_ratio_batch(prod, ext2)
    return r21 + (e2 - 2 * e1) * _LN2, r31 - (e1 + e2) * _LN2


def _ratio_levels(sys: SystemSpec, depth: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per-level arrays ``(log(a2/a1), log(a3/a1))`` of the words of length
    1..depth that start with an orbit representative.

    Level ``n`` holds one block of ``k**(n-1)`` words per representative in
    ``sys.letter_orbits.reps``, in lexicographic order, which fixes the
    summation tree; every other word has the singular values of one of
    these (:class:`LetterOrbits`).  One :meth:`Frontier.stopping_walk` from
    the representatives, in which every word stops at length ``depth``,
    hands each level over in blocks, in word order, and each block writes
    its ratios at its level's running offset in arrays allocated once; a
    walk state stands for ``states * 2**exps`` (see :class:`Frontier`).
    The arrays are kept on the system, one table for the deepest request
    so far.
    """
    k = len(sys)
    # the subtrees are full, so the whole walk is checked before any is built
    check_table_budget(k, depth)
    # the levels of a deeper table start with these: serve its prefix
    for built, levels in sys.word_levels.items():
        if built >= depth:
            return levels[:depth]

    reps = sys.letter_orbits.reps
    levels = tuple((np.empty(len(reps) * k ** (n - 1)), np.empty(len(reps) * k ** (n - 1)))
                   for n in range(1, depth + 1))
    offsets = [0] * depth  # per length, where the next block's words go

    def record(walk: Frontier) -> np.ndarray:
        """Write the block's ratios; its words stop at length ``depth``."""
        la21, la31 = levels[walk.depth - 1]
        lo = offsets[walk.depth - 1]
        hi = offsets[walk.depth - 1] = lo + len(walk)
        la21[lo:hi], la31[lo:hi] = _log_ratios(*walk.states, *walk.exps)
        return np.full(len(walk), depth - walk.depth)

    Frontier(sys, tops=reps).stopping_walk(record, 0, depth)
    sys.word_levels.clear()  # every cached table is a prefix of this one
    sys.word_levels[depth] = _read_only(levels)
    return levels


def _read_only(levels: tuple[tuple[np.ndarray, np.ndarray], ...]):
    """``levels``, with every array made read-only."""
    for level in levels:
        for arr in level:
            arr.setflags(write=False)
    return levels


def _log_phi(s: float, la21: np.ndarray, la31: np.ndarray) -> np.ndarray:
    """``log phi^s`` per word from the two log contraction ratios."""
    if not 0.0 <= s < math.inf:
        raise DomainError("exponent must be finite and >= 0")
    if s <= 1.0:
        return s * la21
    if s <= 2.0:
        return la21 + (s - 1.0) * la31
    with np.errstate(over="ignore"):  # a phi^s below the float range: -inf, see _logsumexp
        return 0.5 * s * (la21 + la31)


def _logsumexp(logs: np.ndarray, weights: np.ndarray) -> float:
    """``log sum_i weights[i] sum exp(block i)``, the blocks ``len(weights)``
    equal slices of ``logs``; overwrites ``logs`` (a fresh :func:`_log_phi` array).

    Raises :class:`FloatRange` when the largest term is not finite.
    """
    m = float(logs.max())
    if not math.isfinite(m):
        raise FloatRange(f"the largest log phi^s of the level is {m}")
    logs -= m
    np.exp(logs, out=logs)
    if (weights == weights[0]).all():
        return m + math.log(float(np.sum(logs))) + math.log(weights[0])
    blocks = np.sum(logs.reshape(len(weights), -1), axis=1)
    return m + math.log(float(np.sum(weights * blocks)))


def partition_sum(sys: SystemSpec, s: float, n: int) -> float:
    """``log sum phi^s`` over all words of length ``n``.

    ``s = 0`` short-circuits to ``n * log |alphabet|`` (every summand is 1).
    The general path is a shifted exponential sum over the cached log
    ratios with a fixed pairwise reduction, each representative's block
    weighted by its orbit size, kept in :attr:`SystemSpec.level_sums` for
    the next call with the same ``(s, n)``.
    """
    if n < 1:
        raise ValueError("depth must be >= 1")
    if s == 0.0:
        return n * math.log(len(sys))
    total = sys.level_sums.get((s, n))
    if total is None:
        la21, la31 = _ratio_levels(sys, n)[n - 1]
        total = sys.level_sums[s, n] = _logsumexp(_log_phi(s, la21, la31),
                                                   sys.letter_orbits.sizes)
    return total


# ---------------------------------------------------------------------------
# sampled multiplicativity constants

def _fit_multiplicativity(sys: SystemSpec, s: float, max_len: int) -> dict:
    """Sampled max/min of ``phi^s(AB) / (phi^s(A) phi^s(B))`` over word pairs.

    The pool holds the words of lengths ``1..top``, ``top <= max_len`` the
    deepest whose level holds at most 4,000 words, in lexicographic order:
    one walk over every top letter, separate from the word table.  Each
    sampled pair is multiplied from the pool's states, at most
    ``_PAIR_SAMPLE_CAP`` products.  No word is read at an orbit-mate's
    place, so the constants do not depend on the letter symmetries.
    Raises :class:`FloatRange` when a ratio is not a positive float.
    """
    walk = Frontier(sys)
    pool = [walk.states + walk.exps]
    while len(pool) < max_len and len(walk) * len(sys) <= 4000:
        walk.grow()
        pool.append(walk.states + walk.exps)
    prod, ext2, e1, e2 = (np.concatenate(parts) for parts in zip(*pool))
    m = len(prod)
    if m * m <= _PAIR_SAMPLE_CAP:
        ia, ib = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
        ia, ib = ia.ravel(), ib.ravel()
    else:
        rng = make_rng(0)
        ia = rng.integers(0, m, size=_PAIR_SAMPLE_CAP)
        ib = rng.integers(0, m, size=_PAIR_SAMPLE_CAP)

    # in log space: phi^s of a long word can underflow, and 0/0 would hide in max()
    log_phi = _log_phi(s, *_log_ratios(prod, ext2, e1, e2))
    log_num = _log_phi(s, *_log_ratios(np.matmul(prod[ia], prod[ib]),
                                       np.matmul(ext2[ia], ext2[ib]),
                                       e1[ia] + e1[ib], e2[ia] + e2[ib]))
    with np.errstate(invalid="ignore", over="ignore"):  # -inf - -inf, exp(710): checked below
        ratio = np.exp(log_num - log_phi[ia] - log_phi[ib])
    if not np.all((0.0 < ratio) & (ratio < math.inf)):
        raise FloatRange(f"a ratio phi^s(AB) / (phi^s(A) phi^s(B)) at s = {s} "
                         "leaves the float range")
    return {
        "fitted_C": float(ratio.max()),
        "fitted_c": float(ratio.min()),
        "pairs": int(len(ratio)),
    }


def pressure_estimate(sys: SystemSpec, s: float, n_max: int) -> PressureEstimate:
    """Raw pressure at depth ``n_max`` with heuristic Fekete-style brackets.

    The almost-sub/supermultiplicativity constants are fitted by sampling
    word pairs (lengths up to ``n_max // 2``), then clamped to ``C >= 1``
    and ``c <= 1`` so the bracket always contains the raw value; both the
    fitted and the clamped values are reported.  Brackets are heuristic:
    the constants are sampled, not proven.
    """
    if n_max < 1:
        raise ValueError("depth must be >= 1")
    require_positive_like(sys, "pressure_estimate")
    # deepest first, so the word levels are built once and the rest read prefixes
    raws = [partition_sum(sys, s, n) for n in range(n_max, 0, -1)][::-1]
    fit = _fit_multiplicativity(sys, s, max(1, n_max // 2))
    c_up = max(1.0, fit["fitted_C"])
    c_lo = min(1.0, fit["fitted_c"])
    upper = min((r + math.log(c_up)) / n for n, r in enumerate(raws, start=1))
    lower = max((r + math.log(c_lo)) / n for n, r in enumerate(raws, start=1))
    return PressureEstimate(
        raw=raws[-1] / n_max,
        upper=upper,
        lower=lower,
        submult_constant=c_up,
        diagnostics={
            "gate": sys.contraction,
            "heuristic_brackets": True,
            "level_raw": [r / n for n, r in enumerate(raws, start=1)],
            **fit,
        },
    )


# ---------------------------------------------------------------------------
# affinity dimension

_GRID = tuple(i / 4 for i in range(9))  # 0, 0.25, ..., 2


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise DomainError("tol must be finite and positive")


def affinity_dimension(sys: SystemSpec, tol: float = 1e-3, n_max: int = 3) -> DimensionEstimate:
    """Zero of the depth-``n_max`` pressure by bisection on ``[0, 2]``.

    Returns a bound-only estimate when the pressure does not change sign
    on the interval (diagnostics flag ``bound_only``).  The bracket comes
    from the zeros of the heuristic upper/lower pressure curves.
    """
    _check_tol(tol)
    require_positive_like(sys, "affinity_dimension")

    def raw(s: float) -> float:
        return partition_sum(sys, s, n_max) / n_max

    grid_vals = [raw(s) for s in _GRID]
    monotone = all(a > b - 1e-12 for a, b in zip(grid_vals, grid_vals[1:]))

    fit = _fit_multiplicativity(sys, 1.0, max(1, n_max // 2))
    log_c_up = math.log(max(1.0, fit["fitted_C"]))
    log_c_lo = math.log(min(1.0, fit["fitted_c"]))

    diagnostics = {
        "gate": sys.contraction,
        "grid_s": list(_GRID),
        "grid_pressure": grid_vals,
        "grid_monotone_decreasing": monotone,
        **fit,
    }

    p0, p2 = grid_vals[0], grid_vals[-1]
    if p0 <= 0.0:
        # pressure starts nonpositive: the series is finite for every s > 0
        diagnostics["bound_only"] = None if p0 == 0.0 else "upper"
        return DimensionEstimate(0.0, 0.0, 0.0, n_max, "pressure_root", diagnostics)
    if p2 > 0.0:
        diagnostics["bound_only"] = "lower"
        return DimensionEstimate(2.0, 2.0, math.inf, n_max, "pressure_root", diagnostics)

    def bisect(f, lo: float, hi: float) -> tuple[float, float]:
        """Final ``(lo, hi)`` with ``f(lo) > 0 >= f(hi)``, or a point end."""
        flo = f(lo)
        fhi = f(hi)
        if flo <= 0.0:
            return lo, lo
        if fhi > 0.0:
            return hi, hi
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:  # adjacent floats: a smaller tol cannot be met
                break
            if f(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return lo, hi

    raw_lo, raw_hi = bisect(raw, 0.0, 2.0)
    # bracket ends are final bisection ends, so the bracket holds the roots
    # of the raw and of both constant-shifted curves
    lower_lo, _ = bisect(lambda s: raw(s) + log_c_lo / n_max, 0.0, 2.0)
    _, upper_hi = bisect(lambda s: raw(s) + log_c_up / n_max, 0.0, 2.0)
    diagnostics["tol"] = tol
    return DimensionEstimate(
        value=0.5 * (raw_lo + raw_hi),
        bracket_lo=min(lower_lo, raw_lo),
        bracket_hi=max(upper_hi, raw_hi),
        depth=n_max,
        method="pressure_root",
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# truncated zeta function

def zeta_truncated(sys: SystemSpec, s: float, n_max: int) -> ZetaTruncation:
    """Partial sum ``sum_{n <= n_max} sum_{|w| = n} phi^s(w)`` of the zeta series.

    Each level is one :func:`partition_sum`, taken deepest first so the
    word table is built once; ``words_evaluated`` counts every word of
    every level.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    sums = [partition_sum(sys, s, n) for n in range(n_max, 0, -1)]
    return ZetaTruncation(sum(math.exp(x) for x in reversed(sums)),
                          sum(len(sys) ** n for n in range(1, n_max + 1)))


# ---------------------------------------------------------------------------
# the positivized subsystem ladder

def rauzy_gamma_system(N: int, epsilon: Fraction = Fraction(1, 5)) -> SystemSpec:
    """The ``6N``-letter subsystem ``A_i^n A_j`` (``n <= N``), conjugated.

    Entries of the conjugated letters are verified exactly: any strictly
    negative entry raises :class:`NotPositive` (the conjugation parameter
    is too large).  At the boundary parameter 1/5 the six ``n = 1`` letters
    each carry one exact zero; the system is then primitive nonnegative
    rather than strictly positive, which the pressure machinery accepts.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    epsilon = Fraction(epsilon)
    if not (0 < epsilon < 1):
        raise DomainError("epsilon must lie in (0, 1)")
    letters = []
    for n in range(1, N + 1):
        for i in range(3):
            for j in range(3):
                if i != j:
                    letters.append(gamma_letter(i, j, n))
    conj = positivizing_conjugator(epsilon)
    sys = SystemSpec.uniform(_GAMMA_LABEL.format(N), tuple(letters), conjugator=conj)
    if not is_nonnegative(sys):
        raise NotPositive("a conjugated letter has a negative entry; epsilon too large")
    return sys


def _corner_levels(big: SystemSpec, sub: SystemSpec, depth: int):
    """Read-only copies of ``big``'s levels restricted to the words over
    ``sub``'s letters, the first of ``big``'s, that start with one of
    ``sub``'s representatives (each also one of ``big``'s), in the same
    (lexicographic) order."""
    k, blocks = len(big), big.letter_orbits.reps
    rows = [blocks.index(rep) for rep in sub.letter_orbits.reps]
    return _read_only(tuple(
        tuple(arr.reshape((len(blocks),) + (k,) * (n - 1))[
            (rows,) + (slice(len(sub)),) * (n - 1)].reshape(-1) for arr in level)
        for n, level in enumerate(_ratio_levels(big, depth), start=1)))


def rauzy_dimension(N: int, n_max: int = 3, tol: float = 1e-3) -> DimensionEstimate:
    """Affinity dimension of the level-``N`` positivized subsystem.

    Runs the estimate along the ladder ``N//4, N//2, N`` so the
    monotone-in-``N`` approximation is visible in the diagnostics; the
    returned value is the ``N`` estimate.  The ``N`` rung runs first and
    builds the only word table: each smaller rung is the uniform system of
    Γ_N's first ``6n`` letters and its conjugator, so that rung's levels
    are corners of it (see the module docstring).
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    _check_tol(tol)
    # refuse the top rung's table before its 6N letters are conjugated exactly
    check_table_budget(6 * N, n_max)
    top = rauzy_gamma_system(N)
    final = affinity_dimension(top, tol=tol, n_max=n_max)
    ests = {N: final}
    for n in sorted({max(1, N // 4), max(1, N // 2)} - {N}, reverse=True):
        # Γ_N's letters, whose conjugates are already checked for negative entries
        sys = SystemSpec.uniform(_GAMMA_LABEL.format(n), top.alphabet[:6 * n], top.conjugator)
        sys.word_levels[n_max] = _corner_levels(top, sys, n_max)
        ests[n] = affinity_dimension(sys, tol=tol, n_max=n_max)
    diagnostics = dict(final.diagnostics)
    diagnostics["ladder"] = [{"N": n, "value": est.value, "bracket": est.bracket}
                             for n, est in sorted(ests.items())]
    return DimensionEstimate(final.value, final.bracket_lo, final.bracket_hi,
                             final.depth, final.method, diagnostics)
