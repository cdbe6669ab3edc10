"""Word enumeration over a matrix alphabet and algebraic diagnostics.

A :class:`SystemSpec` bundles an exact alphabet with a rational probability
vector and an optional conjugator ``M`` (the system then acts through the
letters ``M^-1 A M``).  Enumeration is depth-first and lexicographic with
incrementally maintained exact products, so memory stays proportional to
the depth.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    BadVector,
    BudgetExceeded,
    NotContracting,
    NotPositive,
    NotTraceless,
)
from .linalg import (
    Matrix3,
    ext2_batch,
    mat_mul,
    opnorm_batch,
    stack_matrices,
)

DEFAULT_NODE_CAP = 20_000_000


def node_cap() -> int:
    """Enumeration node cap; override with the PROJDIM_NODE_CAP env var."""
    raw = os.environ.get("PROJDIM_NODE_CAP")
    return int(raw) if raw else DEFAULT_NODE_CAP


def check_budget(words: int, cap: Optional[int] = None) -> None:
    """Raise :class:`BudgetExceeded` once a walk visits more than ``cap`` words
    (default: the node cap)."""
    cap = cap if cap is not None else node_cap()
    if words > cap:
        raise BudgetExceeded(f"{words} words exceed the node cap {cap}")


@dataclass(frozen=True)
class SystemSpec:
    """A finite alphabet of unimodular matrices with sampling weights."""

    label: str
    alphabet: tuple[Matrix3, ...]
    probabilities: tuple[Fraction, ...]
    conjugator: Optional[Matrix3] = None

    def __post_init__(self):
        if not self.alphabet:
            raise ValueError("alphabet must be nonempty")
        if len(self.probabilities) != len(self.alphabet):
            raise BadVector("one probability per letter required")
        if any(p <= 0 for p in self.probabilities):
            raise BadVector("probabilities must be strictly positive")
        if sum(self.probabilities, Fraction(0)) != 1:
            raise BadVector("probabilities must sum to 1 exactly")
        for a in self.alphabet:
            if a.det != 1:
                raise ValueError(f"alphabet member has determinant {a.det}, want 1")

    @classmethod
    def uniform(cls, label: str, alphabet: Sequence[Matrix3],
                conjugator: Optional[Matrix3] = None) -> "SystemSpec":
        k = len(alphabet)
        return cls(label, tuple(alphabet), tuple(Fraction(1, k) for _ in range(k)),
                   conjugator)

    @cached_property
    def effective_alphabet(self) -> tuple[Matrix3, ...]:
        """The acting letters: ``M^-1 A M`` when a conjugator is set."""
        if self.conjugator is None:
            return self.alphabet
        minv = self.conjugator.inverse()
        return tuple(mat_mul(mat_mul(minv, a), self.conjugator) for a in self.alphabet)

    @cached_property
    def letters_float(self) -> np.ndarray:
        return stack_matrices(self.effective_alphabet)

    @cached_property
    def letters_ext2_float(self) -> np.ndarray:
        return ext2_batch(self.letters_float)

    @cached_property
    def letters_inverse_float(self) -> np.ndarray:
        return stack_matrices([a.inverse() for a in self.effective_alphabet])

    @cached_property
    def probabilities_float(self) -> np.ndarray:
        return np.array([float(p) for p in self.probabilities])

    def __len__(self) -> int:
        return len(self.alphabet)


class Word:
    """A finite word of letter indices with its cached exact product.

    The product is the left-to-right product of the acting letters; it is
    computed on first access when only the alphabet reference was supplied
    (large stopping families rarely touch most of their exact products).
    """

    __slots__ = ("letters", "_product", "_alphabet")

    def __init__(self, letters: tuple[int, ...], product: Optional[Matrix3] = None,
                 alphabet: Optional[tuple[Matrix3, ...]] = None):
        if product is None and alphabet is None:
            raise ValueError("Word needs either a product or an alphabet")
        self.letters = tuple(letters)
        self._product = product
        self._alphabet = alphabet

    @property
    def product(self) -> Matrix3:
        if self._product is None:
            p = self._alphabet[self.letters[0]]
            for i in self.letters[1:]:
                p = mat_mul(p, self._alphabet[i])
            self._product = p
        return self._product

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Word{self.letters}"

    def probability(self, sys: SystemSpec) -> Fraction:
        p = Fraction(1)
        for i in self.letters:
            p *= sys.probabilities[i]
        return p


def enumerate_words(sys: SystemSpec, n: int, cap: Optional[int] = None) -> Iterator[Word]:
    """All length-``n`` words in lexicographic order, products exact."""
    if n < 1:
        raise ValueError("word length must be >= 1")
    k = len(sys)
    check_budget(k ** n, cap)
    letters = sys.effective_alphabet

    def rec(prefix: tuple[int, ...], prod: Matrix3) -> Iterator[Word]:
        if len(prefix) == n:
            yield Word(prefix, prod)
            return
        for i in range(k):
            yield from rec(prefix + (i,), mat_mul(prod, letters[i]))

    yield from rec((), Matrix3.identity())


# ---------------------------------------------------------------------------
# positivity and contraction gates

def positivity_report(sys: SystemSpec) -> dict:
    """Exact entrywise positivity of the (conjugated) letters.

    ``entry_ratio`` is the worst min-entry/max-entry ratio over letters; it
    lower-bounds the cone-contraction constant when positive.
    """
    positive = True
    ratio: Optional[Fraction] = None
    for a in sys.effective_alphabet:
        flat = [x for row in a.entries for x in row]
        lo, hi = min(flat), max(flat)
        if lo <= 0:
            positive = False
        r = lo / hi if hi != 0 else Fraction(0)
        ratio = r if ratio is None else min(ratio, r)
    return {"positive": positive, "entry_ratio": ratio}


def is_nonnegative(sys: SystemSpec) -> bool:
    return all(
        x >= 0 for a in sys.effective_alphabet for row in a.entries for x in row
    )


def is_primitive_nonnegative(sys: SystemSpec) -> bool:
    """Nonnegative letters whose two-letter products are all strictly positive.

    This is the weakest hypothesis under which the pressure machinery here
    is run: it gives uniform projective contraction at lag two, which is
    enough for the desk-scale brackets (boundary conjugations can place
    exact zeros in single letters).
    """
    if not is_nonnegative(sys):
        return False
    letters = sys.effective_alphabet
    for a, b in itertools.product(letters, repeat=2):
        p = mat_mul(a, b)
        if any(x <= 0 for row in p.entries for x in row):
            return False
    return True


def _is_contracting_diagonal(sys: SystemSpec) -> bool:
    """Exactly diagonal letters with ``a2 < a1``: products stay diagonal, so
    the word ratios decay geometrically without any positivity."""
    for a in sys.effective_alphabet:
        e = a.entries
        if any(e[i][j] != 0 for i in range(3) for j in range(3) if i != j):
            return False
        diag = sorted((abs(e[0][0]), abs(e[1][1]), abs(e[2][2])), reverse=True)
        if diag[1] >= diag[0]:
            return False
    return True


def require_positive_like(sys: SystemSpec, what: str) -> None:
    """Gate for operations that need uniform projective contraction.

    Accepts strictly positive systems, primitive nonnegative ones (zeros in
    single letters, all two-letter products positive) and contracting
    diagonal families; each branch genuinely implies a uniform geometric
    decay of ``a2/a1`` along words.
    """
    if positivity_report(sys)["positive"]:
        return
    if _is_contracting_diagonal(sys):
        return
    if is_primitive_nonnegative(sys):
        return
    raise NotPositive(f"{what} requires a positive (or primitive nonnegative) system")


# ---------------------------------------------------------------------------
# the level-by-level word-tree walk

_RESCALE_ABOVE = 2.0 ** 64


class Frontier:
    """The undecided words of one length in a level-by-level word-tree walk.

    Words are the rows of the letter-index array ``letters``.  Each word
    carries float states, ``(m, r, 3)`` stacks that start from a per-letter
    stack and advance by right multiplication with a per-letter step stack.
    A state whose largest entry passes 2**64 is rescaled by an exact power
    of two, kept in ``exps``: state ``i`` of word ``w`` stands for
    ``states[i][w] * 2**exps[i][w]``, so later norms stay in float range.
    In range every exponent is 0 and no value is touched.

    Every word the walk visits counts against the node cap (``visited``);
    :class:`BudgetExceeded` is raised before a level over the cap is built.
    """

    def __init__(self, sys: SystemSpec, cap: Optional[int] = None,
                 tops: Optional[Sequence[int]] = None,
                 states: Optional[Sequence[np.ndarray]] = None,
                 steps: Optional[Sequence[np.ndarray]] = None):
        """A walk from the letters ``tops`` (all by default); without
        ``states``, the states are the word products and their exterior
        squares."""
        if states is None:
            states = steps = [sys.letters_float, sys.letters_ext2_float]
        tops = np.arange(len(sys)) if tops is None else np.asarray(tops)
        self.alphabet = sys.effective_alphabet
        self.steps = steps
        self.cap = cap if cap is not None else node_cap()
        self.visited = len(tops)
        check_budget(self.visited, self.cap)
        self.letters = tops.astype(np.int32)[:, None]
        self.states = [x[tops] for x in states]
        self.exps = [np.zeros(len(tops), dtype=np.int32) for _ in states]
        self._rescale()

    def __len__(self) -> int:
        return len(self.letters)

    def _rescale(self) -> None:
        for x, e in zip(self.states, self.exps):
            big = np.abs(x).max(axis=(1, 2))
            over = big > _RESCALE_ABOVE
            if over.any():
                shift = np.frexp(big[over])[1]
                x[over] = np.ldexp(x[over], -shift[:, None, None])
                e[over] += shift

    def grow(self, keep: Optional[np.ndarray] = None) -> None:
        """Replace the words by their one-letter extensions, in letter order;
        with ``keep``, only the kept words are extended."""
        if keep is not None:
            self.letters = self.letters[keep]
            self.states = [x[keep] for x in self.states]
            self.exps = [e[keep] for e in self.exps]
        m, k = len(self.letters), len(self.steps[0])
        self.visited += m * k
        check_budget(self.visited, self.cap)
        self.letters = np.concatenate(
            [np.repeat(self.letters, k, axis=0),
             np.tile(np.arange(k, dtype=np.int32), m)[:, None]], axis=1)
        self.states = [np.matmul(x[:, None], step).reshape(m * k, -1, 3)
                       for x, step in zip(self.states, self.steps)]
        self.exps = [np.repeat(e, k) for e in self.exps]
        self._rescale()

    def ratios(self) -> tuple[np.ndarray, np.ndarray]:
        """``(a2/a1, a3/a1)`` per word of a walk over products."""
        n1, n2 = opnorm_batch(self.states[0]), opnorm_batch(self.states[1])
        e1, e2 = self.exps
        return (np.ldexp(n2 / n1 ** 2, e2 - 2 * e1),
                np.ldexp(1.0 / (n1 * n2), -(e1 + e2)))

    def first_passage(self, statistic: Callable[["Frontier"], np.ndarray], n: int,
                      max_len: int) -> list[Word]:
        """The minimal words whose ``statistic(self)`` drops to ``2^-n``.

        The result is sorted lexicographically; a branch still above the
        threshold at length ``max_len`` raises :class:`NotContracting`.
        """
        threshold = 2.0 ** (-n)
        out: list[Word] = []
        while True:
            ratio = statistic(self)
            stopped = ratio <= threshold
            out.extend(Word(tuple(row), alphabet=self.alphabet)
                       for row in self.letters[stopped].tolist())
            if stopped.all():
                break
            if self.letters.shape[1] >= max_len:
                raise NotContracting(f"ratio {ratio[~stopped].max():.3g} still "
                                     f"above 2^-{n} at depth {max_len}")
            self.grow(~stopped)
        out.sort(key=lambda w: w.letters)
        return out


def stopping_partition_psi(sys: SystemSpec, n: int, max_len: int = 64,
                           cap: Optional[int] = None) -> list[Word]:
    """First-passage words where ``a2/a1`` drops to ``2^-n``.

    Returns the minimal words whose ratio is ``<= 2^-n`` while every proper
    nonempty prefix stays above; the result is a prefix-free partition of
    the sequence space, sorted lexicographically.  ``n = 0`` therefore
    returns the single letters.  Branches that fail to cross the threshold
    by ``max_len`` raise :class:`NotContracting` (the runtime form of the
    uniform-contraction hypothesis).
    """
    if n < 0:
        raise ValueError("resolution must be >= 0")
    return Frontier(sys, cap).first_passage(
        lambda walk: walk.ratios()[0], n, max_len)


# ---------------------------------------------------------------------------
# Diophantine distinctness at finite depth

def diophantine_check(sys: SystemSpec, n_max: int, cap: Optional[int] = None) -> dict:
    """Pairwise distinctness of all level-``n`` products for ``n <= n_max``.

    Products are compared exactly.  ``min_gap`` is the smallest max-abs
    entry difference over same-level pairs, a lower bound for the operator
    norm gap; for integer alphabets it is an exact integer, so distinctness
    alone certifies ``min_gap >= 1``.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    k = len(sys)
    check_budget(sum(k ** n for n in range(1, n_max + 1)), cap)

    integer = all(a.is_integer() for a in sys.effective_alphabet)
    all_distinct = True
    min_gap: Optional[float] = None
    gap_exact = integer
    first_collision = None

    level = [Matrix3.identity()]
    for n in range(1, n_max + 1):
        level = [mat_mul(p, a) for p in level for a in sys.effective_alphabet]
        seen: dict[tuple, int] = {}
        for idx, p in enumerate(level):
            key = p.entries
            if key in seen:
                all_distinct = False
                if first_collision is None:
                    first_collision = (n, seen[key], idx)
            else:
                seen[key] = idx
        gap = _level_min_gap(level, integer)
        if gap is not None:
            min_gap = gap if min_gap is None else min(min_gap, gap)

    return {
        "all_distinct": all_distinct,
        "min_gap": 0.0 if not all_distinct else (min_gap if min_gap is not None else math.inf),
        "gap_is_exact": gap_exact,
        "levels_checked": n_max,
        "first_collision": first_collision,
    }


def _level_min_gap(level: list[Matrix3], integer: bool) -> Optional[float]:
    m = len(level)
    if m < 2:
        return None
    if integer:
        flat = np.array(
            [[int(x) for row in p.entries for x in row] for p in level], dtype=object
        )
        if abs(flat).max() < 2 ** 31:
            flat = flat.astype(np.int64)
    else:
        flat = np.array(
            [[float(x) for row in p.entries for x in row] for p in level]
        )
    best = None
    chunk = max(1, int(2e7) // (9 * m))
    for start in range(0, m, chunk):
        block = flat[start:start + chunk]
        diff = np.abs(block[:, None, :] - flat[None, :, :]).max(axis=2)
        rows = np.arange(start, start + len(block))
        diff[rows - start, rows] = np.iinfo(np.int64).max if diff.dtype.kind == "i" else np.inf
        g = diff.min()
        best = g if best is None else min(best, g)
    return float(best) if best is not None else None


# ---------------------------------------------------------------------------
# Lie-algebra span diagnostic (Zariski density)

def _traceless_part(a: Matrix3) -> Matrix3:
    t = a.trace / 3
    rows = [
        [a.entries[i][j] - (t if i == j else 0) for j in range(3)]
        for i in range(3)
    ]
    return Matrix3.from_rows(rows)


def _flat9(a: Matrix3) -> list[Fraction]:
    return [a.entries[i][j] for i in range(3) for j in range(3)]


class _RationalSpan:
    """Incremental exact span with reduced pivots."""

    def __init__(self):
        self.rows: list[tuple[int, list[Fraction]]] = []

    def add(self, vec: list[Fraction]) -> bool:
        v = list(vec)
        for piv, row in self.rows:
            if v[piv] != 0:
                c = v[piv] / row[piv]
                v = [x - c * y for x, y in zip(v, row)]
        for i, x in enumerate(v):
            if x != 0:
                self.rows.append((i, v))
                return True
        return False

    @property
    def dim(self) -> int:
        return len(self.rows)


def lie_algebra_dimension(generators: Sequence[Matrix3]) -> int:
    """Dimension of the Lie algebra generated inside sl(3).

    Generators are taken modulo scalars (their traceless parts), matching
    the projective action they diagnose; the span is closed under the
    bracket ``[X, Y] = XY - YX`` until stable.  A nonzero scalar generator
    is rejected because it has no traceless content.
    """
    mats: list[Matrix3] = []
    span = _RationalSpan()
    for g in generators:
        t = _traceless_part(g)
        if all(x == 0 for row in t.entries for x in row):
            if any(x != 0 for row in g.entries for x in row):
                raise NotTraceless(f"generator {g} is a nonzero scalar matrix")
            continue
        if span.add(_flat9(t)):
            mats.append(t)

    frontier = list(mats)
    while frontier:
        new: list[Matrix3] = []
        for x in frontier:
            for y in mats:
                b = _bracket(x, y)
                if span.add(_flat9(b)):
                    new.append(b)
        mats.extend(new)
        frontier = new
    return span.dim


def _bracket(x: Matrix3, y: Matrix3) -> Matrix3:
    xy = mat_mul(x, y)
    yx = mat_mul(y, x)
    rows = [
        [xy.entries[i][j] - yx.entries[i][j] for j in range(3)] for i in range(3)
    ]
    return Matrix3.from_rows(rows)


# ---------------------------------------------------------------------------
# invariant subspace probe

def _rational_eigenvalues(a: Matrix3) -> list[Fraction]:
    """Exactly verified rational eigenvalues, descending.

    Candidates come from a float root solve and are rationalized before
    exact verification, so irrational spectra simply yield nothing; the
    probe is a sound witness detector, not a completeness proof.
    """
    t = a.trace
    e = a.entries
    m = (
        e[1][1] * e[2][2] - e[1][2] * e[2][1]
        + e[0][0] * e[2][2] - e[0][2] * e[2][0]
        + e[0][0] * e[1][1] - e[0][1] * e[1][0]
    )
    d = a.det

    def char(lam: Fraction) -> Fraction:
        return lam ** 3 - t * lam ** 2 + m * lam - d

    roots = np.roots([1.0, -float(t), float(m), -float(d)])
    found: set[Fraction] = set()
    for r in roots:
        if abs(r.imag) > 1e-8:
            continue
        cand = Fraction(float(r.real)).limit_denominator(10 ** 9)
        for c in (cand, Fraction(round(float(r.real)))):
            if char(c) == 0:
                found.add(c)
    return sorted(found, reverse=True)


def _null_space(a: Matrix3) -> list[list[Fraction]]:
    """Exact basis of the kernel, in reduced echelon coordinates."""
    rows = [list(r) for r in a.entries]
    pivots: list[int] = []
    r = 0
    for c in range(3):
        piv = next((i for i in range(r, 3) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(3):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    basis = []
    free = [c for c in range(3) if c not in pivots]
    for fc in free:
        v = [Fraction(0)] * 3
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        basis.append(v)
    return basis


def _shift(a: Matrix3, lam: Fraction) -> Matrix3:
    rows = [
        [a.entries[i][j] - (lam if i == j else 0) for j in range(3)] for i in range(3)
    ]
    return Matrix3.from_rows(rows)


def _eigenvector_candidates(letters: Sequence[Matrix3]) -> list[list[Fraction]]:
    """Common rational eigenvectors of every letter (up to scale)."""
    pools: Optional[list[list[list[Fraction]]]] = None
    for a in letters:
        lams = _rational_eigenvalues(a)
        spaces = [_null_space(_shift(a, lam)) for lam in lams]
        spaces = [s for s in spaces if s]
        if pools is None:
            pools = spaces
        else:
            refined = []
            for basis in pools:
                for space in spaces:
                    inter = _intersect(basis, space)
                    if inter:
                        refined.append(inter)
            pools = refined
        if not pools:
            return []
    out = []
    for basis in pools or []:
        out.append(_integerize(basis[0]))
    return out


def _intersect(b1: list[list[Fraction]], b2: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of span(b1) ∩ span(b2) via the kernel of the stacked system."""
    k1, k2 = len(b1), len(b2)
    cols = k1 + k2
    rows = [[Fraction(0)] * cols for _ in range(3)]
    for j, v in enumerate(b1):
        for i in range(3):
            rows[i][j] = v[i]
    for j, v in enumerate(b2):
        for i in range(3):
            rows[i][k1 + j] = -v[i]
    # gaussian elimination on the 3 x cols system
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, 3) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(3):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == 3:
            break
    basis = []
    free = [c for c in range(cols) if c not in pivots]
    for fc in free:
        coeff = [Fraction(0)] * cols
        coeff[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            coeff[pc] = -rows[i][fc]
        vec = [sum(coeff[j] * b1[j][i] for j in range(k1)) for i in range(3)]
        if any(x != 0 for x in vec):
            basis.append(vec)
    return basis


def _integerize(v: list[Fraction]) -> list[Fraction]:
    den = math.lcm(*(x.denominator for x in v))
    w = [x * den for x in v]
    num = math.gcd(*(abs(int(x)) for x in w if x != 0))
    w = [x / num for x in w]
    lead = next(x for x in w if x != 0)
    if lead < 0:
        w = [-x for x in w]
    return w


def irreducibility_probe(sys: SystemSpec) -> dict:
    """Search for an invariant line or plane witnessed by rational eigenvectors.

    A returned ``None``/``None`` pair means no witness was found among the
    exact candidates; it is not a proof of irreducibility.  A line
    invariant under the whole semigroup is already an eigenvector of every
    single letter, so level-1 candidates are exhaustive for this witness
    class.
    """
    letters = list(sys.effective_alphabet)
    lines = _eigenvector_candidates(letters)
    planes = _eigenvector_candidates([a.transpose() for a in letters])
    return {
        "invariant_line": lines[0] if lines else None,
        "invariant_plane": planes[0] if planes else None,
    }
