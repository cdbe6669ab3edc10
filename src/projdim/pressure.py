"""Partition sums, pressure brackets and the affinity-dimension root solve.

The pressure of a system at exponent ``s`` is the exponential growth rate
of the level sums ``sum phi^s`` over all words of a given length; the
affinity dimension is its unique zero.  Level sums are evaluated from
cached per-word contraction ratios: products and their exterior squares
are pushed level by level in float (one subtree per top letter, in letter
order), after which every evaluation at a new ``s`` is a vectorized
log-sum-exp over the cached arrays.  The reduction tree is fixed, so
results are bitwise reproducible and independent of the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, NotPositive
from .rng import make_rng
from .linalg import log_ratio_batch
from .semigroup import Frontier, SystemSpec, check_budget, require_positive_like
from .systems import gamma_letter, positivizing_conjugator

_PAIR_SAMPLE_CAP = 10_000
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class PressureEstimate:
    """A finite-depth pressure value with heuristic sub/supermultiplicative brackets."""

    s: float
    depth: int
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

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "bracket": [self.bracket_lo, self.bracket_hi],
            "depth": self.depth,
            "method": self.method,
            "diagnostics": self.diagnostics,
        }


class ZetaTruncation(NamedTuple):
    value: float
    pruning_loss: float
    words_evaluated: int


# ---------------------------------------------------------------------------
# cached per-level contraction ratios

_ratio_cache: dict[tuple[SystemSpec, int], tuple] = {}


def _log_ratios(prod: np.ndarray, prod_ext: np.ndarray, e1: np.ndarray,
                e2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(log(a2/a1), log(a3/a1))`` of words stored as ``prod * 2**e1`` with
    exterior squares ``prod_ext * 2**e2`` (see :class:`Frontier`)."""
    la21, la31 = log_ratio_batch(prod, prod_ext)
    return la21 + (e2 - 2 * e1) * _LN2, la31 - (e1 + e2) * _LN2


def _subtree_levels(args) -> list[tuple[np.ndarray, np.ndarray]]:
    sys, top, depth = args
    walk = Frontier(sys, tops=[top])
    levels = [_log_ratios(*walk.states, *walk.exps)]
    for _ in range(2, depth + 1):
        walk.grow()
        levels.append(_log_ratios(*walk.states, *walk.exps))
    return levels


def _ratio_levels(sys: SystemSpec, depth: int,
                  workers: int = 1) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per-level arrays ``(log(a2/a1), log(a3/a1))`` for words of length 1..depth.

    Words appear in lexicographic order (subtree by subtree under each top
    letter), which fixes the summation tree; worker threads only change the
    schedule, never the result.
    """
    k = len(sys)
    # the subtrees are full, so the whole walk is checked before any is built
    check_budget(sum(k ** n for n in range(1, depth + 1)))
    key = (sys, depth)
    cached = _ratio_cache.get(key)
    if cached is not None:
        return cached

    jobs = [(sys, top, depth) for top in range(k)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_top = list(pool.map(_subtree_levels, jobs))
    else:
        per_top = [_subtree_levels(j) for j in jobs]

    merged = []
    for lvl in range(depth):
        la21 = np.concatenate([per_top[t][lvl][0] for t in range(k)])
        la31 = np.concatenate([per_top[t][lvl][1] for t in range(k)])
        la21.setflags(write=False)
        la31.setflags(write=False)
        merged.append((la21, la31))
    result = tuple(merged)
    if len(_ratio_cache) >= 8:
        _ratio_cache.pop(next(iter(_ratio_cache)))
    _ratio_cache[key] = result
    return result


def _log_phi(s: float, la21: np.ndarray, la31: np.ndarray) -> np.ndarray:
    """``log phi^s`` per word from the two log contraction ratios."""
    if s < 0:
        raise DomainError("exponent must be >= 0")
    if s <= 1.0:
        return s * la21
    if s <= 2.0:
        return la21 + (s - 1.0) * la31
    return 0.5 * s * (la21 + la31)


def _logsumexp(logs: np.ndarray) -> float:
    m = float(logs.max())
    return m + math.log(float(np.sum(np.exp(logs - m))))


def partition_sum(sys: SystemSpec, s: float, n: int, workers: int = 1) -> float:
    """``log sum phi^s`` over all words of length ``n``.

    ``s = 0`` short-circuits to ``n * log |alphabet|`` (every summand is 1).
    The general path is a shifted exponential sum over the cached log
    ratios with a fixed pairwise reduction.
    """
    if n < 1:
        raise ValueError("depth must be >= 1")
    if s == 0.0:
        return n * math.log(len(sys))
    la21, la31 = _ratio_levels(sys, n, workers)[n - 1]
    return _logsumexp(_log_phi(s, la21, la31))


# ---------------------------------------------------------------------------
# sampled multiplicativity constants

def _phi(s: float, la21: np.ndarray, la31: np.ndarray) -> np.ndarray:
    return np.exp(_log_phi(s, la21, la31))


def _fit_multiplicativity(sys: SystemSpec, s: float, max_len: int, seed: int = 0) -> dict:
    """Sampled max/min of ``phi^s(AB) / (phi^s(A) phi^s(B))`` over word pairs."""
    k = len(sys)
    walk = Frontier(sys)
    levels = [walk.states + walk.exps]
    while len(levels) < max_len and len(walk) * k <= 4000:
        walk.grow()
        levels.append(walk.states + walk.exps)
    pool, pool_ext, e1, e2 = (np.concatenate(parts) for parts in zip(*levels))
    m = len(pool)

    if m * m <= _PAIR_SAMPLE_CAP:
        ia, ib = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
        ia, ib = ia.ravel(), ib.ravel()
    else:
        rng = make_rng(seed)
        ia = rng.integers(0, m, size=_PAIR_SAMPLE_CAP)
        ib = rng.integers(0, m, size=_PAIR_SAMPLE_CAP)

    ab = np.einsum("aij,ajk->aik", pool[ia], pool[ib])
    ab_ext = np.einsum("aij,ajk->aik", pool_ext[ia], pool_ext[ib])
    num = _phi(s, *_log_ratios(ab, ab_ext, e1[ia] + e1[ib], e2[ia] + e2[ib]))
    phi = _phi(s, *_log_ratios(pool, pool_ext, e1, e2))
    ratio = num / (phi[ia] * phi[ib])
    return {
        "fitted_C": float(ratio.max()),
        "fitted_c": float(ratio.min()),
        "pairs": int(len(ratio)),
    }


def pressure_estimate(sys: SystemSpec, s: float, n_max: int, workers: int = 1) -> PressureEstimate:
    """Raw pressure at depth ``n_max`` with heuristic Fekete-style brackets.

    The almost-sub/supermultiplicativity constants are fitted by sampling
    word pairs (lengths up to ``n_max // 2``), then clamped to ``C >= 1``
    and ``c <= 1`` so the bracket always contains the raw value; both the
    fitted and the clamped values are reported.  Brackets are heuristic:
    the constants are sampled, not proven.
    """
    require_positive_like(sys, "pressure_estimate")
    fit = _fit_multiplicativity(sys, s, max(1, n_max // 2))
    c_up = max(1.0, fit["fitted_C"])
    c_lo = min(1.0, fit["fitted_c"])
    raws = [partition_sum(sys, s, n, workers) for n in range(1, n_max + 1)]
    upper = min((r + math.log(c_up)) / n for n, r in enumerate(raws, start=1))
    lower = max((r + math.log(c_lo)) / n for n, r in enumerate(raws, start=1))
    return PressureEstimate(
        s=s,
        depth=n_max,
        raw=raws[-1] / n_max,
        upper=upper,
        lower=lower,
        submult_constant=c_up,
        diagnostics={
            "heuristic_brackets": True,
            "level_raw": [r / n for n, r in enumerate(raws, start=1)],
            **fit,
        },
    )


# ---------------------------------------------------------------------------
# affinity dimension

_GRID = tuple(i / 4 for i in range(9))  # 0, 0.25, ..., 2


def affinity_dimension(sys: SystemSpec, tol: float = 1e-3, n_max: int = 3,
                       workers: int = 1) -> DimensionEstimate:
    """Zero of the depth-``n_max`` pressure by bisection on ``[0, 2]``.

    Returns a bound-only estimate when the pressure does not change sign
    on the interval (diagnostics flag ``bound_only``).  The bracket comes
    from the zeros of the heuristic upper/lower pressure curves.
    """
    require_positive_like(sys, "affinity_dimension")
    if tol <= 0:
        raise DomainError("tol must be positive")

    def raw(s: float) -> float:
        return partition_sum(sys, s, n_max, workers) / n_max

    grid_vals = [raw(s) for s in _GRID]
    monotone = all(a > b - 1e-12 for a, b in zip(grid_vals, grid_vals[1:]))

    fit = _fit_multiplicativity(sys, 1.0, max(1, n_max // 2))
    log_c_up = math.log(max(1.0, fit["fitted_C"]))
    log_c_lo = math.log(min(1.0, fit["fitted_c"]))

    diagnostics = {
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

    def bisect(f, lo: float, hi: float) -> float:
        flo = f(lo)
        fhi = f(hi)
        if flo <= 0.0:
            return lo
        if fhi > 0.0:
            return hi
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if f(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    value = bisect(raw, 0.0, 2.0)
    lo_root = bisect(lambda s: raw(s) + log_c_lo / n_max, 0.0, 2.0)
    hi_root = bisect(lambda s: raw(s) + log_c_up / n_max, 0.0, 2.0)
    diagnostics["tol"] = tol
    return DimensionEstimate(
        value=value,
        bracket_lo=min(lo_root, value),
        bracket_hi=max(hi_root, value),
        depth=n_max,
        method="pressure_root",
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# truncated zeta function with pruning

def zeta_truncated(sys: SystemSpec, s: float, n_max: int,
                   prune_tol: float = 1e-15) -> ZetaTruncation:
    """Partial sum of the zeta series up to depth ``n_max`` with subtree pruning.

    A subtree is cut once its (heuristically bounded) remaining mass drops
    below ``prune_tol`` of the running total; the accumulated bound on the
    discarded mass is returned alongside the value.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    walk = Frontier(sys)
    level_values = _phi(s, *_log_ratios(*walk.states, *walk.exps))

    fit = _fit_multiplicativity(sys, s, 1)
    c_up = max(1.0, fit["fitted_C"])
    s1 = float(np.sum(level_values))

    def tail_bound(phi: np.ndarray, remaining: int) -> np.ndarray:
        # geometric bound on sum over nonempty extensions within the horizon
        g = c_up * s1
        if g == 1.0:
            factor = float(remaining)
        else:
            factor = g * (g ** remaining - 1.0) / (g - 1.0)
        return phi * factor

    total = 0.0
    loss = 0.0
    for depth in range(1, n_max + 1):
        total += float(np.sum(level_values))
        if depth == n_max:
            break
        bounds = tail_bound(level_values, n_max - depth)
        keep = bounds >= prune_tol * total
        loss += float(np.sum(bounds[~keep]))
        if not np.any(keep):
            break
        walk.grow(keep)
        level_values = _phi(s, *_log_ratios(*walk.states, *walk.exps))
    return ZetaTruncation(total, loss, walk.visited)


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
    sys = SystemSpec.uniform(f"rauzy-gamma-{N}", tuple(letters), conjugator=conj)
    for pos, a in enumerate(sys.effective_alphabet):
        for row in a.entries:
            for x in row:
                if x < 0:
                    raise NotPositive(
                        f"conjugated letter {pos} has a negative entry; epsilon too large"
                    )
    return sys


def rauzy_dimension(N: int, n_max: int = 3, tol: float = 1e-3,
                    workers: int = 1) -> DimensionEstimate:
    """Affinity dimension of the level-``N`` positivized subsystem.

    Runs the estimate along the ladder ``N//4, N//2, N`` so the
    monotone-in-``N`` approximation is visible in the diagnostics; the
    returned value is the ``N`` estimate.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    ladder_ns = sorted({max(1, N // 4), max(1, N // 2), N})
    ladder = []
    final: Optional[DimensionEstimate] = None
    for n in ladder_ns:
        est = affinity_dimension(rauzy_gamma_system(n), tol=tol, n_max=n_max,
                                 workers=workers)
        ladder.append({"N": n, "value": est.value,
                       "bracket": [est.bracket_lo, est.bracket_hi]})
        final = est
    assert final is not None
    diagnostics = dict(final.diagnostics)
    diagnostics["ladder"] = ladder
    return DimensionEstimate(final.value, final.bracket_lo, final.bracket_hi,
                             final.depth, final.method, diagnostics)
