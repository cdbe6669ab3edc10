"""Word-tree walks over a matrix alphabet and algebraic diagnostics.

A :class:`SystemSpec` bundles an exact alphabet with a rational probability
vector and an optional conjugator ``M`` (the system then acts through the
letters ``M^-1 A M``).  ψ, ξ, the cover and the pressure's word table
each run one walk (:meth:`Frontier.stopping_walk`), depth first over full
blocks of ``_BLOCK_ROWS // k`` parents taken from per-depth queues of
unstopped words; only the multiplicativity fit's pool of short words
grows whole levels (:meth:`Frontier.grow`).
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    BadVector,
    BudgetExceeded,
    FloatRange,
    NotContracting,
    NotPositive,
    NotTraceless,
    SingularInput,
)
from .linalg import (
    IntegerStack,
    Matrix3,
    adjugate,
    det_stack,
    ext2_batch,
    gram_entries,
    integer_stack,
    lowest_terms,
    mat_mul,
    opnorm_batch,
)

mat_mul  # called nowhere here, but perfbench's tracer wraps this binding and its tests pin it

DEFAULT_NODE_CAP = 20_000_000
MAX_LEN = 64  # the depth by which ψ and ξ must stop every word (uniform contraction)


def node_cap() -> int:
    """Enumeration node cap; override with the PROJDIM_NODE_CAP env var."""
    raw = os.environ.get("PROJDIM_NODE_CAP")
    return int(raw) if raw else DEFAULT_NODE_CAP


def check_budget(words: int) -> None:
    """Raise :class:`BudgetExceeded` once a walk visits more than the node cap."""
    cap = node_cap()
    if words > cap:
        raise BudgetExceeded(f"{words} words exceed the node cap {cap}")


def check_table_budget(k: int, depth: int) -> None:
    """The node cap on every word of ``k`` letters and lengths ``1..depth``,
    counted before any is built."""
    check_budget(sum(k ** n for n in range(1, depth + 1)))


class LetterOrbits(NamedTuple):
    """The orbits of the letters' exact symmetries (:attr:`SystemSpec.letter_orbits`).

    A word that starts with any letter of an orbit is a symmetry applied to
    a word that starts with the orbit's representative: both words have the
    same singular values, so the pressure table keeps the representatives'
    words only and weighs each by its orbit's size.
    """

    reps: tuple[int, ...]  # the least letter of each orbit, increasing
    sizes: np.ndarray  # the size of each orbit, in the order of ``reps``


@dataclass(frozen=True)
class SystemSpec:
    """A finite alphabet of unimodular matrices with sampling weights.

    The system acts through its letters ``A``, or through ``M^-1 A M`` with
    a conjugator ``M``.  These acting letters are formed once, exactly, as
    integers (:attr:`letters_exact`), and every view of them is read from
    that stack: the float letters and their inverses, the contraction
    gate's signs, the letter symmetries and the Diophantine check's levels.
    """

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
        den, num = self.alphabet_exact
        for a, d in zip(self.alphabet, det_stack(num)):
            if d != den ** 3:
                raise ValueError(f"alphabet member has determinant {a.det}, want 1")

    @classmethod
    def uniform(cls, label: str, alphabet: Sequence[Matrix3],
                conjugator: Optional[Matrix3] = None) -> "SystemSpec":
        k = len(alphabet)
        return cls(label, tuple(alphabet), tuple(Fraction(1, k) for _ in range(k)),
                   conjugator)

    def first_letters(self, m: int, label: str) -> "SystemSpec":
        """The uniform system of the first ``m`` letters, with the same
        conjugator; its acting letters are sliced from this system's, not
        conjugated again."""
        sub = SystemSpec.uniform(label, self.alphabet[:m], self.conjugator)
        exact = self.letters_exact
        vars(sub)["letters_exact"] = lowest_terms(exact.den, exact.num[:m])
        return sub

    @cached_property
    def alphabet_exact(self) -> IntegerStack:
        """The alphabet ``A`` as an :class:`IntegerStack` ``N_A / D_A``."""
        return integer_stack(self.alphabet)

    @cached_property
    def letters_exact(self) -> IntegerStack:
        """The acting letters ``M^-1 A M`` as an :class:`IntegerStack`.

        With ``C`` the conjugator scaled to integers and ``N_A / D_A`` the
        alphabet (:attr:`alphabet_exact`), ``M^-1 A M`` is
        ``adj(C) N_A C / (det(C) D_A)``: one object ``matmul`` of Python
        ints, brought to lowest terms.  Raises :class:`SingularInput` for a
        singular conjugator.
        """
        alphabet = self.alphabet_exact
        if self.conjugator is None:
            return alphabet
        _, (c,) = integer_stack([self.conjugator])
        det = det_stack(c)
        if det == 0:
            raise SingularInput("matrix is exactly singular")
        return lowest_terms(det * alphabet.den, adjugate(c) @ alphabet.num @ c)

    @property
    def effective_alphabet(self) -> tuple[Matrix3, ...]:
        """The acting letters as :class:`Matrix3`, for callers outside the
        package, which reads :attr:`letters_exact`; built on each read."""
        den, num = self.letters_exact
        return tuple(Matrix3(tuple(tuple(Fraction(x, den) for x in row) for row in a))
                     for a in num.tolist())

    @cached_property
    def letters_float(self) -> np.ndarray:
        """The acting letters rounded to the nearest floats: one ``int / int``
        per entry, which Python rounds correctly, as ``float(Fraction)``."""
        den, num = self.letters_exact
        return _float_stack(num, den)

    @cached_property
    def letters_ext2_float(self) -> np.ndarray:
        return ext2_batch(self.letters_float)

    @cached_property
    def letters_inverse_float(self) -> np.ndarray:
        """The inverses of the acting letters, rounded as :attr:`letters_float`:
        a letter ``N / D`` of determinant 1 has the inverse ``adj(N) / D^2``."""
        den, num = self.letters_exact
        return _float_stack(adjugate(num), den ** 2)

    @cached_property
    def probabilities_float(self) -> np.ndarray:
        return np.array([float(p) for p in self.probabilities])

    @cached_property
    def contraction(self) -> Optional[str]:
        """The uniform-contraction hypothesis the acting letters meet, decided
        exactly: ``"positive"``, ``"diagonal"``, ``"primitive"`` or ``None``."""
        if positivity_report(self)["positive"]:
            return "positive"
        if _is_contracting_diagonal(self):
            return "diagonal"
        if is_primitive_nonnegative(self):
            return "primitive"
        return None

    @cached_property
    def letter_orbits(self) -> LetterOrbits:
        """The orbits of the letters under the 3x3 permutation matrices that
        permute the acting letters, found exactly on their integer
        numerators (:attr:`letters_exact`).

        A map ``g`` has ``P A_i P^-1 = A_g[i]`` for every acting letter
        ``A_i`` and one permutation matrix ``P``, so word ``g(w)`` has the
        product ``P A_w P^-1``: the same singular values.  A ``P`` whose
        letter map is not one to one (duplicate letters) is dropped.  The
        maps found form a subgroup of S3, so the least image of a letter
        under them is the least letter of its orbit.  A system with no map
        but the identity has one orbit per letter.
        """
        num = self.letters_exact.num
        k = len(self)
        index = {tuple(a): i for i, a in enumerate(num.reshape(k, 9).tolist())}
        rep_of = list(range(k))  # the identity's map
        for p in itertools.islice(itertools.permutations(range(3)), 1, None):  # the others
            p = list(p)
            image = [index.get(tuple(a)) for a in num[:, p][:, :, p].reshape(k, 9).tolist()]
            if None not in image and len(set(image)) == len(image):
                rep_of = list(map(min, rep_of, image))
        reps = sorted(set(rep_of))
        return LetterOrbits(reps=tuple(reps), sizes=np.bincount(rep_of)[reps])

    @cached_property
    def word_levels(self) -> dict:
        """The pressure layer's word-level table, keyed by depth, freed with the system."""
        return {}

    @cached_property
    def level_sums(self) -> dict:
        """The pressure layer's level sums ``log sum phi^s``, keyed by ``(s, n)``,
        freed with the system."""
        return {}

    def __len__(self) -> int:
        return len(self.alphabet)


def _float_stack(num: np.ndarray, den: int) -> np.ndarray:
    """``num / den`` as floats, one ``int / int`` per entry; :class:`FloatRange` past range."""
    try:
        return (num / den).astype(float)
    except OverflowError:
        raise FloatRange("an acting letter's entry is past float range") from None


class Word:
    """A finite word of letter indices."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[int, ...]):
        self.letters = tuple(letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Word{self.letters}"


_ITER_BLOCK = 4096  # the rows a WordSet iteration unpacks at once


class WordSet(Sequence):
    """A packed, read-only sequence of words.

    Row ``i`` of the ``(m, L)`` signed integer array ``letters`` holds word
    ``i``, padded with -1 past ``lengths[i]``; both arrays are read-only,
    and of any signed integer type (:meth:`Frontier.first_passage` writes
    the narrowest that holds its letters and its width).  Items
    are built on access as :class:`Word` objects with Python ``int``
    letters and are not kept, so the set stays packed; a slice is a
    :class:`WordSet` view.
    """

    __slots__ = ("letters", "lengths")

    def __init__(self, letters: np.ndarray, lengths: np.ndarray):
        self.letters, self.lengths = letters, lengths
        letters.setflags(write=False)
        lengths.setflags(write=False)

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return WordSet(self.letters[i], self.lengths[i])
        i = operator.index(i)
        row = self.letters[i, :self.lengths[i]]
        return Word(tuple(row.tolist()))

    def __iter__(self) -> Iterator[Word]:
        # rows become Python lists a block at a time, so the set stays packed
        for lo in range(0, len(self), _ITER_BLOCK):
            hi = lo + _ITER_BLOCK
            for row, n in zip(self.letters[lo:hi].tolist(), self.lengths[lo:hi].tolist()):
                yield Word(tuple(row[:n]))


# ---------------------------------------------------------------------------
# positivity and contraction gates

def positivity_report(sys: SystemSpec) -> dict:
    """Exact entrywise positivity of the (conjugated) letters.

    ``entry_ratio`` is the worst min-entry/max-entry ratio over letters; it
    lower-bounds the cone-contraction constant when positive.  Both are
    read from the integer numerators, which share one positive denominator.
    """
    num = sys.letters_exact.num.reshape(len(sys), 9)
    lo, hi = num.min(axis=1).tolist(), num.max(axis=1).tolist()
    return {"positive": min(lo) > 0,
            "entry_ratio": min(Fraction(a, b) if b != 0 else Fraction(0)
                               for a, b in zip(lo, hi))}


def is_nonnegative(sys: SystemSpec) -> bool:
    return bool((sys.letters_exact.num >= 0).all())


def is_primitive_nonnegative(sys: SystemSpec) -> bool:
    """Nonnegative letters whose two-letter products are all strictly positive.

    This is the weakest hypothesis under which the pressure machinery here
    is run: it gives uniform projective contraction at lag two, which is
    enough for the desk-scale brackets (boundary conjugations can place
    exact zeros in single letters).  For nonnegative letters ``(AB)_ij > 0``
    exactly when ``A_ij' > 0`` and ``B_j'j > 0`` for some ``j'``: so the
    positive pattern of each row of each letter must meet that of each
    column of each letter.  At most eight 0/1 patterns of each kind occur,
    whatever the alphabet's size.
    """
    if not is_nonnegative(sys):
        return False
    support = sys.letters_exact.num > 0
    rows = set(map(tuple, support.reshape(-1, 3).tolist()))
    cols = set(map(tuple, support.transpose(0, 2, 1).reshape(-1, 3).tolist()))
    return all(any(map(operator.and_, r, c)) for r in rows for c in cols)


def _is_contracting_diagonal(sys: SystemSpec) -> bool:
    """Exactly diagonal letters whose largest ``|entry|`` is strict and sits
    on one axis common to all of them: products stay diagonal with that
    axis dominant, so the word ratios ``a2/a1`` decay geometrically without
    any positivity.  Without a common axis some long words have ``a2/a1``
    bounded below: ``(AB)^n`` is ``diag(2^n, 2^n, 4^-n)`` for ``A`` =
    diag(2, 1, 1/2) and ``B`` = diag(1, 2, 1/2)."""
    axes = set()
    for e in sys.letters_exact.num.tolist():
        diag = [abs(e[i][i]) for i in range(3)]
        top = max(diag)
        if sorted(diag)[1] >= top or any(e[i][j] for i in range(3) for j in range(3) if i != j):
            return False
        axes.add(diag.index(top))
    return len(axes) == 1


def require_positive_like(sys: SystemSpec, what: str) -> None:
    """Gate for operations that need uniform projective contraction.

    Accepts strictly positive systems, primitive nonnegative ones (zeros in
    single letters, all two-letter products positive) and contracting
    diagonal families; each branch genuinely implies a uniform geometric
    decay of ``a2/a1`` along words.  The branch is decided once per system
    (:attr:`SystemSpec.contraction`).
    """
    if sys.contraction is None:
        raise NotPositive(f"{what} requires a positive (or primitive nonnegative) system")


# ---------------------------------------------------------------------------
# the level-by-level word-tree walk

_RESCALE_ABOVE = 2.0 ** 64
_BLOCK_ROWS = 4096  # the most words one statistic call of a stopping walk sees


class Frontier:
    """The undecided words of one length in a word-tree walk: one block of
    a level in :meth:`stopping_walk`, the walk of ψ, ξ, the cover and the
    word table, or a whole level, as the multiplicativity fit grows it.

    A word is fixed by its place in the tree, so the walk keeps no letters:
    the first letters of its words are ``tops``, and at ``depth > 1`` word
    ``i`` of a full level ends in letter ``i mod k``, as :meth:`grow` places
    each word's ``k`` extensions next to each other in letter order.  Each
    word carries float states: :attr:`states` are ``(m, r, 3)`` stacks that
    start from a per-letter stack and advance by right multiplication with a
    per-letter step stack.  Each stack is stored row-major, ``(r, m, 3)``,
    and the ``k`` steps as one ``(3, 3k)`` panel, so a level is one matrix
    product per stack whose output is already the next level in word order.
    A state whose largest entry passes 2**64 is rescaled by an exact power
    of two, kept in ``exps``: state ``i`` of word ``w`` stands for
    ``states[i][w] * 2**exps[i][w]``, so later norms stay in float range.
    In range every exponent is 0 and no value is touched.

    Every word the walk visits counts against the node cap (``visited``),
    one count over the whole walk, also when :meth:`stopping_walk` grows
    it a block at a time; :class:`BudgetExceeded` is raised before a
    level or block over the cap is built.
    """

    def __init__(self, sys: SystemSpec, tops: Optional[Sequence[int]] = None,
                 states: Optional[Sequence[np.ndarray]] = None,
                 steps: Optional[Sequence[np.ndarray]] = None):
        """A walk from the letters ``tops`` (all by default); without
        ``states``, the states are the word products and their exterior
        squares."""
        if states is None:
            states = steps = [sys.letters_float, sys.letters_ext2_float]
        tops = np.arange(len(sys)) if tops is None else np.asarray(tops)
        # column block j of a panel is step j
        self._panels = [step.swapaxes(0, 1).reshape(3, -1) for step in steps]
        self.visited = len(tops)
        check_budget(self.visited)
        self.tops, self.depth = tops.astype(np.int32), 1
        self._stacks = [np.ascontiguousarray(x[tops].swapaxes(0, 1)) for x in states]
        self.exps = [np.zeros(len(tops), dtype=np.int32) for _ in states]
        self._rescale()

    def __len__(self) -> int:
        return len(self.exps[0])

    @property
    def states(self) -> list[np.ndarray]:
        """The ``(m, r, 3)`` state stacks, as views of the row-major store."""
        return [x.swapaxes(0, 1) for x in self._stacks]

    def _rescale(self) -> None:
        for x, e in zip(self._stacks, self.exps):
            # a stack in range skips the per-word scan; a NaN fails this test and is scanned
            if x.max() <= _RESCALE_ABOVE and x.min() >= -_RESCALE_ABOVE:
                continue
            big = np.abs(x).max(axis=(0, 2))
            over = big > _RESCALE_ABOVE
            if over.any():
                shift = np.frexp(big[over])[1]
                x[:, over] = np.ldexp(x[:, over], -shift[:, None])
                e[over] += shift

    def grow(self) -> None:
        """Replace the words by their one-letter extensions, in letter order."""
        m, k = len(self), self._panels[0].shape[1] // 3
        self.visited += m * k
        check_budget(self.visited)
        self.depth += 1
        # row i of word w times column block j is row i of word w's extension by j
        self._stacks = [(x.reshape(-1, 3) @ panel).reshape(len(x), m * k, 3)
                        for x, panel in zip(self._stacks, self._panels)]
        self.exps = [np.repeat(e, k) for e in self.exps]
        self._rescale()

    def ratios(self) -> tuple[np.ndarray, np.ndarray]:
        """``(a2/a1, a3/a1)`` per word of a walk over products.  Raises
        :class:`FloatRange` when a ratio is zero or not finite: the float
        product lost the digits of its smaller singular values."""
        n1, n2 = (opnorm_batch(x) for x in self.states)
        e1, e2 = self.exps
        with np.errstate(divide="ignore", over="ignore"):
            r21 = np.ldexp(n2 / n1 ** 2, e2 - 2 * e1)
            r31 = np.ldexp(1.0 / (n1 * n2), -(e1 + e2))
        _check_range(r21, r31)
        return r21, r31

    def stopping_walk(self, statistic: Callable[["Frontier"], np.ndarray], threshold: float,
                      max_len: float) -> list[np.ndarray]:
        """Stop each word where ``statistic(self)`` first drops to ``threshold``.

        The walk grows blocks of ``_BLOCK_ROWS // k`` parents, so each
        statistic call but at most one per depth sees ``_BLOCK_ROWS // k * k``
        words; the tops are the first block.  Each depth keeps a queue of its
        unstopped words, in word order.  The next block grows from the
        deepest queue that holds a full block of parents, so the walk goes
        depth first and holds about one block per depth.  When no queue holds
        one, the shallowest non-empty queue can gain no more words, and its
        words grow as that depth's one partial block.  It returns one stop
        mask per length, the blocks' masks in walk order, which is word order
        over the length's whole level: that level extends each unstopped word
        of the level before by every letter.  ``visited`` counts every block,
        so the node cap counts the whole walk.  A branch still above the
        threshold at length ``max_len`` raises :class:`NotContracting`, which
        names the largest ratio left in its block; ``max_len = math.inf``
        walks on until every branch stops.
        """
        rows = max(1, _BLOCK_ROWS // (self._panels[0].shape[1] // 3))
        tops = self._stacks, self.exps
        levels: list[list[np.ndarray]] = []  # per length, the blocks' masks in walk order
        queues: list[list] = []  # per length, the unstopped words not grown: (stacks, exps) parts
        while True:
            ratio = statistic(self)
            stopped = ratio <= threshold
            if len(levels) < self.depth:
                levels.append([])
                queues.append([])
            levels[self.depth - 1].append(stopped)
            if not stopped.all():
                if self.depth >= max_len:
                    raise NotContracting(f"ratio {ratio[~stopped].max():.3g} still "
                                         f"above {threshold:.3g} at depth {max_len}")
                going = ~stopped
                queues[self.depth - 1].append(([np.compress(going, x, axis=1) for x in self._stacks],
                                               [e[going] for e in self.exps]))
            waiting = [sum(len(exps[0]) for _, exps in queue) for queue in queues]
            left = [depth for depth, count in enumerate(waiting) if count]
            if not left:
                break
            full = [depth for depth in left if waiting[depth] >= rows]
            depth = full[-1] if full else left[0]
            self._stacks, self.exps = _take(queues[depth], min(rows, waiting[depth]))
            self.depth = depth + 1
            self.grow()
        self._stacks, self.exps, self.depth = *tops, 1  # back at the tops
        return [np.concatenate(masks) for masks in levels]

    def first_passage(self, statistic: Callable[["Frontier"], np.ndarray], threshold: float,
                      max_len: float) -> WordSet:
        """The minimal words whose ``statistic(self)`` drops to ``threshold``
        (:meth:`stopping_walk`), in the walk's preorder, a word before its
        extensions: lexicographic, as the tops are taken in order and
        :meth:`grow` places each word's extensions next to each other in
        letter order.  Its width is the walk's depth.

        Only the stop masks are kept from the walk, each level's in word
        order.  Each level's mask is split at the tops' boundaries (a top's
        range on the next level is ``k`` times its unstopped count), and each
        top's words are written down its levels: a node covers the next
        ``size`` rows (its stopped words, counted from the leaves up), and
        each depth writes its nodes' letters into its column, through the
        column's view, and itself as the length on the rows under them.  The
        letters and lengths take the narrowest signed integer types that hold
        -1 and ``k - 1`` (``int8`` up to 128 letters) and the width.
        """
        k = self._panels[0].shape[1] // 3
        levels = self.stopping_walk(statistic, threshold, max_len)
        total = sum(int(np.count_nonzero(mask)) for mask in levels)
        width = len(levels)
        letters = np.full((total, width), -1, dtype=np.min_scalar_type(-k))
        lengths = np.empty(total, dtype=np.min_scalar_type(-width - 1))
        node_letters = np.arange(k, dtype=letters.dtype)
        starts = [0] * width  # per length, where the next top's words start
        row = 0
        for top in self.tops:
            masks, count = [], 1  # this top's masks, and its words on the next level
            for depth, level in enumerate(levels):
                if not count:
                    break
                masks.append(level[starts[depth]:starts[depth] + count])
                starts[depth] += count
                count = k * (count - int(np.count_nonzero(masks[-1])))
            # the stopped words under each node, from the leaves up
            sizes = [masks[-1].astype(np.int64)]
            for stopped in masks[-2::-1]:
                size = stopped.astype(np.int64)
                size[~stopped] = sizes[-1].reshape(-1, k).sum(axis=1)
                sizes.append(size)
            sizes.reverse()
            block = letters[row:row + sizes[0][0]]
            deeper = np.ones(len(block), dtype=bool)  # the rows under this depth's nodes
            for depth, (stopped, size) in enumerate(zip(masks, sizes)):
                nodes = np.tile(node_letters, len(size) // k) if depth else top
                block[:, depth][deeper] = np.repeat(nodes, size)
                lengths[row:row + len(block)][deeper] = depth + 1
                deeper[deeper] = np.repeat(~stopped, size)
            row += len(block)
        return WordSet(letters, lengths)


def _take(queue: list, count: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The first ``count`` words of ``queue``, removed from it: the state
    stacks and exponents of its ``(stacks, exps)`` parts, in word order."""
    parts = []
    while count:
        stacks, exps = queue.pop(0)
        if len(exps[0]) > count:  # the part's other words stay queued, as views
            queue.insert(0, ([x[:, count:] for x in stacks], [e[count:] for e in exps]))
            stacks, exps = [x[:, :count] for x in stacks], [e[:count] for e in exps]
        parts.append((stacks, exps))
        count -= len(exps[0])
    stacks, exps = zip(*parts)
    return ([np.concatenate(x, axis=1) for x in zip(*stacks)],
            [np.concatenate(e) for e in zip(*exps)])


def _check_range(*ratios: np.ndarray) -> None:
    """Raise :class:`FloatRange` when a ratio is zero or not finite: the
    float product lost the digits of its smaller singular values."""
    if not all(np.all((0.0 < r) & (r < math.inf)) for r in ratios):
        raise FloatRange("a singular value ratio is zero or not finite in float")


_MARGIN = 1e-6  # relative; far above the error of the largest-eigenvalue root


def _gram_traces(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(tr G, tr G^2)`` of the Gram matrices ``G`` of a ``(m, 3, 3)`` stack."""
    s00, s01, s02, s11, s12, s22 = gram_entries(states)
    trace = s00 + s11
    trace += s22
    # tr G^2 = s00^2 + s11^2 + s22^2 + 2 (s01^2 + s02^2 + s12^2), summed left
    # to right in place of the entries, so no other temporary is made
    for s in (s00, s01, s02, s11, s12, s22):
        s *= s
    s00 += s11
    s00 += s22
    s01 += s02
    s01 += s12
    s01 *= 2.0
    s00 += s01
    return trace, s00


def stopping_partition_psi(sys: SystemSpec, n: int) -> WordSet:
    """First-passage words where ``a2/a1`` drops to ``2^-n``.

    Returns the minimal words whose ratio is ``<= 2^-n`` while every proper
    nonempty prefix stays above, as a packed, read-only, lexicographically
    sorted :class:`WordSet`; they form a prefix-free partition of the
    sequence space.  ``n = 0`` therefore returns the single letters.
    Branches that fail to cross the threshold by :data:`MAX_LEN` raise
    :class:`NotContracting` (the runtime form of the uniform-contraction
    hypothesis).

    ``a2/a1 = sqrt(l2) / l1``, with ``l1`` and ``l2`` the largest
    eigenvalues of the Gram matrices of a word's product and of its
    exterior square, and ``tr(G^2)/tr G <= l <= sqrt(tr G^2)`` bounds each
    from its Gram entries.  A word whose bounds clear the threshold by a
    relative 1e-6 is decided from them.  The others take the root, as
    :meth:`Frontier.ratios` does, and so do the words still above the
    threshold at ``MAX_LEN``, which :class:`NotContracting` names.  The
    margin is far above the root's error, so every decision is the root's.
    A word whose upper bound is 0 or not finite takes the root too (the
    float state lost its smaller singular values), and a root ratio that
    is 0 or not finite raises :class:`FloatRange`.
    """
    if n < 0:
        raise ValueError("resolution must be >= 0")
    threshold = 2.0 ** -n
    stop_at, go_on = threshold * (1.0 - _MARGIN), threshold * (1.0 + _MARGIN)

    def statistic(walk: Frontier) -> np.ndarray:
        e = walk.exps[1] - 2 * walk.exps[0]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            (t1, f1), (t2, f2) = (_gram_traces(x) for x in walk.states)
            hi = np.ldexp(np.sqrt(np.sqrt(f2)) * t1 / f1, e)
            lo = np.ldexp(np.sqrt(f2 / (t2 * f1)), e)
        # an upper bound that is 0, not finite or NaN decides nothing
        bounded = (0.0 < hi) & (hi < math.inf)
        stop = bounded & (hi <= stop_at)
        ratio = np.where(stop, hi, lo)
        root = ~stop if walk.depth >= MAX_LEN else ~stop & ~(bounded & (lo > go_on))
        if root.any():
            n1, n2 = (opnorm_batch(x[root]) for x in walk.states)
            with np.errstate(divide="ignore", over="ignore"):
                ratio[root] = np.ldexp(n2 / n1 ** 2, e[root])
            _check_range(ratio[root])
        return ratio

    return Frontier(sys).first_passage(statistic, threshold, MAX_LEN)


# ---------------------------------------------------------------------------
# Diophantine distinctness at finite depth

def diophantine_check(sys: SystemSpec, n_max: int) -> dict:
    """Pairwise distinctness of all level-``n`` products for ``n <= n_max``.

    Each level is one stack of the exact integer products ``D^n A_w`` in
    lexicographic word order, ``D`` the common denominator of the acting
    letters, grown from their integer numerators
    (:attr:`SystemSpec.letters_exact`): ``int64`` when ``R^n_max < 2**62`` (``R`` the largest absolute
    row sum of the letters ``D A``, so every entry and entry difference
    fits), Python ints otherwise, never floats.  A stable sort of each
    level, first entry primary, makes a repeat an offset-1 zero.
    ``first_collision`` is ``(n, i, j)``: ``j`` is the first repeated
    product of the first level with one, ``i`` its first occurrence; later
    levels cannot change the report, so the check stops there.
    ``levels_checked`` is ``n_max`` either way.

    ``min_gap`` is the smallest max-abs entry difference over same-level
    pairs (``inf`` with none), a lower bound for the operator norm gap,
    exact for every rational alphabet (``g / D^n``, rounded to float once,
    :class:`FloatRange` past float range), so ``gap_is_exact`` is always
    true.  :func:`_min_linf_gap` starts from the sort: the smallest
    offset-1 difference ``B`` ends every rauzy level at once (gap 1), and
    a deeper rational level compares only the rows in the same or
    neighbouring grid cells of side ``B``.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    check_table_budget(len(sys), n_max)

    den, step = sys.letters_exact
    if np.abs(step).sum(axis=2).max() ** n_max < 2 ** 62:
        step = step.astype(np.int64)

    first_collision = None
    min_gap = math.inf
    level = np.identity(3, dtype=step.dtype).reshape(1, 9)
    for n in range(1, n_max + 1):
        level = np.matmul(level.reshape(-1, 1, 3, 3), step[None]).reshape(-1, 9)
        order = np.lexsort(level.T[::-1])
        rows = level[order]
        gaps = rows[1:] - rows[:-1]
        gaps = np.abs(gaps, out=gaps).max(axis=1)
        repeats = np.flatnonzero(gaps == 0)
        if len(repeats):
            p = repeats[np.argmin(order[repeats + 1])]
            first_collision = (n, int(order[p]), int(order[p + 1]))
            break
        if len(rows) > 1:
            min_gap = min(min_gap, Fraction(_min_linf_gap(rows, gaps), den ** n))

    all_distinct = first_collision is None
    try:
        min_gap = float(min_gap) if all_distinct else 0.0
    except OverflowError:
        min_gap = 0.0
    if all_distinct and not min_gap:  # a gap of distinct products is never 0: past range
        raise FloatRange("the smallest product gap is past float range")
    return {
        "all_distinct": all_distinct,
        "min_gap": min_gap,
        "gap_is_exact": True,
        "levels_checked": n_max,
        "first_collision": first_collision,
    }


_AHEAD = list(itertools.product((-1, 0, 1), repeat=3))[13:]  # a cell, then the 13 after it


def _min_linf_gap(rows: np.ndarray, gaps: np.ndarray) -> int:
    """Smallest max-abs difference between two distinct integer rows.

    ``rows`` are sorted with their first column primary and ``gaps`` are
    their offset-1 max-abs differences, whose minimum ``B`` bounds the gap
    from above.  ``B <= 1`` is the answer at once (distinct integer rows
    are never closer), so every rauzy level ends there.  Otherwise a grid
    (Khuller and Matias, *A simple randomized sieve algorithm for the
    closest-pair problem*, 1995) bins each row by ``floor(x / B)`` on the
    three columns of widest spread: two rows closer than ``B`` lie in the
    same cell or in neighbouring ones, so each row is compared with the
    later rows of its cell and with the rows of the 13 cells after it.
    The work is the number of such pairs, quadratic in the fullest cell.
    """
    best = gaps.min()
    if best <= 1:
        return int(best)
    cells = rows[:, np.argsort(rows.max(axis=0) - rows.min(axis=0))[-3:]] // best
    cells = cells - cells.min(axis=0) + 1  # from 1, so the cells before stay >= 0
    size = [int(x) + 2 for x in cells.max(axis=0)]
    if size[0] * size[1] * size[2] >= 2 ** 63:
        cells = cells.astype(object)
    key = (cells[:, 0] * size[1] + cells[:, 1]) * size[2] + cells[:, 2]
    order = np.argsort(key)
    key = key[order]
    for d0, d1, d2 in _AHEAD:
        k = key + ((d0 * size[1] + d1) * size[2] + d2)
        # the later rows of the same cell, or all rows of a cell after it
        lo = np.searchsorted(key, k) if d0 or d1 or d2 else np.arange(1, len(key) + 1)
        hi = np.searchsorted(key, k, "right")
        i = np.flatnonzero(hi > lo)
        while len(i):  # one row of each range at a time, until every range is spent
            pair = np.abs(rows[order[i]] - rows[order[lo[i]]])
            best = min(best, pair.max(axis=1).min())
            lo[i] += 1
            i = i[hi[i] > lo[i]]
    return int(best)


# ---------------------------------------------------------------------------
# Lie-algebra span diagnostic (Zariski density)

def _extend_echelon(echelon: list[tuple[int, list[int]]], v: list[int]) -> bool:
    """Reduce the integer row ``v`` by the fraction-free ``echelon`` of
    ``(pivot, row)`` pairs, each row 0 at the pivots before its own, and
    append what is left over its gcd; ``False`` when nothing is.  The Lie
    closure and the invariant-subspace probe share it."""
    for piv, row in echelon:
        if c := v[piv]:
            v = [row[piv] * x - c * y for x, y in zip(v, row)]
    if not any(v):
        return False
    g = math.gcd(*v)
    echelon.append((next(i for i, x in enumerate(v) if x), [x // g for x in v]))
    return True


def _bracket(x: list[int], y: list[int]) -> list[int]:
    """``XY - YX`` of two integer 3x3 matrices, each nine ints row by row."""
    return [sum(x[3 * i + k] * y[3 * k + j] - y[3 * i + k] * x[3 * k + j] for k in range(3))
            for i in range(3) for j in range(3)]


def lie_algebra_dimension(generators: Sequence[Matrix3]) -> int:
    """Dimension of the Lie algebra generated inside sl(3).

    Generators are taken modulo scalars (their traceless parts), matching
    the projective action they diagnose; the span is closed under the
    bracket ``[X, Y] = XY - YX``.  A nonzero scalar generator
    is rejected because it has no traceless content.

    The closure runs in Python ints.  With ``D`` the common denominator of
    every generator's entries (:func:`integer_stack`), a generator ``g``
    enters as ``3 D g - D tr(g) I``, a positive multiple of its traceless
    part, and scaling changes neither the span nor the algebra generated.
    The span is kept as a fraction-free echelon (:func:`_extend_echelon`).
    """
    echelon: list[tuple[int, list[int]]] = []
    mats: list[list[int]] = []
    for g, a in zip(generators, integer_stack(generators).num.tolist()):
        tr = a[0][0] + a[1][1] + a[2][2]
        t = [3 * x - (tr if i % 4 == 0 else 0) for i, x in enumerate(v for row in a for v in row)]
        if not any(t):
            if tr:
                raise NotTraceless(f"generator {g} is a nonzero scalar matrix")
            continue
        if _extend_echelon(echelon, t):
            mats.append(t)

    # the brackets of a basis span all brackets, [y, x] = -[x, y] and [x, x] = 0:
    # each element is bracketed once with every earlier one, new ones included
    for i, x in enumerate(mats):
        for y in mats[:i]:
            b = _bracket(x, y)
            if _extend_echelon(echelon, b):
                mats.append(b)
    return len(echelon)


# ---------------------------------------------------------------------------
# invariant subspace probe

def _integer_eigenvalues(t: int, m: int, d: int, den: int) -> list[int]:
    """The integer roots, descending, of ``x^3 - t x^2 + m x - d``, the
    characteristic polynomial of ``N = den A``: ``A``'s exact repeated root
    and, per real float root, the nearest integer and nearest fraction of
    denominator at most 10**9, each times ``den`` and verified exactly."""
    # np.roots splits a repeated root, but a repeated root is rational: the root of
    # the remainder 9 (r1 x + r0) of char mod char', or t/3 when char' divides char
    r1, r0 = 2 * (3 * m - t * t), t * m - 9 * d
    cands = {Fraction(-r0, r1) if r1 else Fraction(t, 3)}
    try:  # at A's scale, so that den does not limit the fractions found
        roots = np.roots([1.0, -t / den, m / den ** 2, -d / den ** 3])
        for x in roots.real[np.abs(roots.imag) <= 1e-8].tolist():
            cands |= {Fraction(x).limit_denominator(10 ** 9) * den, Fraction(round(x) * den)}
    except OverflowError:
        raise FloatRange("a characteristic polynomial is past float range") from None
    xs = (x.numerator for x in cands if x.denominator == 1)
    return sorted((x for x in xs if ((x - t) * x + m) * x == d), reverse=True)


def _shifted(echelon: list, rows: Sequence[Sequence[int]], lam: int) -> list:
    """A copy of ``echelon`` grown by the rows of ``rows - lam I``."""
    echelon = list(echelon)
    for i, row in enumerate(rows):
        _extend_echelon(echelon, [x - lam if j == i else x for j, x in enumerate(row)])
    return echelon


def _first_kernel_vector(echelon: list[tuple[int, list[int]]]) -> list[int]:
    """The first kernel vector of an echelon of rank below 3, primitive with
    its first nonzero entry positive: the cross product at rank 2,
    ``u[p] e_f - u[f] e_p`` at rank 1 (``p`` the pivot, ``f`` the first free
    column) and ``e_0`` at rank 0."""
    if len(echelon) == 2:
        (_, u), (_, w) = echelon
        v = [u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0]]
    elif echelon and echelon[0][0] == 0:
        v = [-echelon[0][1][1], echelon[0][1][0], 0]
    else:  # rank 0, or a pivot past column 0, which leaves e_0 free
        v = [1, 0, 0]
    g = math.gcd(*v) if next(x for x in v if x) > 0 else -math.gcd(*v)
    return [x // g for x in v]


def irreducibility_probe(sys: SystemSpec) -> dict:
    """Search for an invariant line or plane witnessed by rational eigenvectors.

    A line is a common eigenvector of the acting letters, a plane's normal
    one of their transposes, both found on the integer numerators ``N``
    (:attr:`SystemSpec.letters_exact`), whose rational eigenvalues are
    integers (:func:`_integer_eigenvalues`).  Each choice of one eigenvalue
    per letter, in letter order and each letter's descending, grows an
    integer echelon of the rows of every ``N - λI``; a choice that reaches
    rank 3 is dropped, and the first one left gives the witness.

    ``None`` means no witness was found among the exact candidates; it is
    not a proof of irreducibility.  A line invariant under the whole
    semigroup is already an eigenvector of every single letter, so
    level-1 candidates are exhaustive for this witness class.  Raises
    :class:`FloatRange` when a letter's eigenvalues are past float range.
    """
    den, num = sys.letters_exact
    coeffs = zip(num.trace(axis1=1, axis2=2).tolist(),
                 adjugate(num).trace(axis1=1, axis2=2).tolist(), det_stack(num).tolist())
    live = {"invariant_line": [[]], "invariant_plane": [[]]}  # the echelons of each choice
    for a, (t, m, d) in zip(num.tolist(), coeffs):
        if not any(live.values()):
            break
        spectrum = _integer_eigenvalues(t, m, d, den)
        for key, rows in zip(live, (a, list(zip(*a)))):
            live[key] = [e for echelon in live[key] for lam in spectrum
                         if len(e := _shifted(echelon, rows, lam)) < 3]
    return {key: _first_kernel_vector(e[0]) if e else None for key, e in live.items()}
