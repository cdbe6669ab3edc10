import functools
import hashlib
import itertools
import math
import sys as _sys
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projdim import linalg, semigroup
from projdim.cli import main
from projdim.cover import svd_cover_upper
from projdim.errors import (
    BadVector,
    BudgetExceeded,
    FloatRange,
    NotContracting,
    NotPositive,
    NotTraceless,
)
from projdim.linalg import Matrix3, mat_mul
from projdim.pressure import (
    _fit_multiplicativity,
    partition_sum,
    pressure_estimate,
    rauzy_gamma_system,
    zeta_truncated,
)
from projdim.projective import plane_frame_orthonormal, xi_partition
from projdim.semigroup import (
    MAX_LEN,
    Frontier,
    SystemSpec,
    Word,
    WordSet,
    diophantine_check,
    irreducibility_probe,
    is_nonnegative,
    is_primitive_nonnegative,
    lie_algebra_dimension,
    positivity_report,
    require_positive_like,
    stopping_partition_psi,
)
from projdim.systems import (
    gamma_letter,
    positivizing_conjugator,
    rauzy_alphabet,
    rauzy_curve_derivatives,
    rauzy_system,
    system_from_dict,
    triple9_system,
)


def diag_system(*entries):
    return SystemSpec.uniform("diag", (Matrix3.diagonal(*entries),))


def exact_products(sys, n):
    """The exact products of all length-``n`` words, in lexicographic order."""
    letters = sys.effective_alphabet
    return [functools.reduce(mat_mul, (letters[i] for i in w))
            for w in itertools.product(range(len(sys)), repeat=n)]


def test_system_spec_validation():
    a1, a2, a3 = rauzy_alphabet()
    with pytest.raises(BadVector):
        SystemSpec("bad", (a1,), (F(1, 2),))
    with pytest.raises(BadVector):
        SystemSpec("bad", (a1, a2), (F(1, 2), F(1, 3)))
    with pytest.raises(ValueError, match="^alphabet member has determinant 2, want 1$"):
        SystemSpec.uniform("bad", (Matrix3.diagonal(2, 1, 1),))
    # the first letter off determinant 1 is named
    with pytest.raises(ValueError, match="^alphabet member has determinant 1/4, want 1$"):
        SystemSpec.uniform("bad", (a1, Matrix3.diagonal(F(1, 2), F(1, 2), 1),
                                   Matrix3.diagonal(3, 1, 1)))


def test_gamma_letter_matches_exact_powers():
    a = rauzy_alphabet()
    for (i, j, n) in [(0, 1, 1), (0, 2, 3), (1, 0, 4), (2, 1, 7)]:
        p = Matrix3.identity()
        for _ in range(n):
            p = mat_mul(p, a[i])
        p = mat_mul(p, a[j])
        assert gamma_letter(i, j, n) == p


def test_psi_threshold_zero_returns_single_letters():
    sys = SystemSpec.uniform(
        "g1", tuple(gamma_letter(i, j, 2) for i in range(3) for j in range(3) if i != j),
        conjugator=positivizing_conjugator(),
    )
    words = stopping_partition_psi(sys, 0)
    assert sorted(w.letters for w in words) == [(i,) for i in range(6)]


def test_psi_diagonal_singleton():
    sys = diag_system(9, 1, F(1, 9))
    words = stopping_partition_psi(sys, 3)
    assert [w.letters for w in words] == [(0,)]
    # ratio 9^-k first drops below 2^-7 at k = 3
    words = stopping_partition_psi(sys, 7)
    assert [w.letters for w in words] == [(0, 0, 0)]


def test_psi_raises_not_contracting_on_parabolic_system():
    with pytest.raises(NotContracting):
        stopping_partition_psi(rauzy_system(), 8)


def test_psi_raises_not_contracting_in_a_later_top():
    # the first top stops at once; the unipotent top's ratio decays only like
    # 1/length and is still 0.0156 > 2^-7 at length MAX_LEN = 64
    sys = SystemSpec.uniform("diag-unipotent", (
        Matrix3.diagonal(9, 1, F(1, 9)), Matrix3.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])))
    assert [w.letters for w in stopping_partition_psi(sys, 2)] == [
        (0,), (1, 0), (1, 1, 0), (1, 1, 1, 0), (1, 1, 1, 1)]
    # the message names the largest ratio left in the failing top's level
    with pytest.raises(NotContracting, match=r"^ratio 0\.0156 still above 0\.00781 at depth 64$"):
        stopping_partition_psi(sys, 7)


def test_psi_stops_by_max_len():
    # the shear's a2/a1 = 1/a1 with a1 = L + 1/L + O(L^-3) at length L: it
    # first drops under 2^-6 at L = 64 = MAX_LEN and under 2^-7 only later
    sys = SystemSpec.uniform("unipotent", (Matrix3.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),))
    assert stopping_partition_psi(sys, 6).lengths.tolist() == [MAX_LEN]
    with pytest.raises(NotContracting, match=rf"at depth {MAX_LEN}$"):
        stopping_partition_psi(sys, 7)


# a2/a1 = 0.9 per letter while the entries grow like 1e4^n: the norms of the
# exterior-square products overflow from length 14 on unless they are rescaled
BIG = Matrix3.diagonal(10 ** 4, 9000, F(1, 9 * 10 ** 7))


@pytest.mark.parametrize("copies, n, lengths", [
    (1, 2, [14]),
    (1, 3, [20]),
    (2, 2, [14] * 2 ** 14),
])
def test_psi_stays_in_float_range(copies, n, lengths):
    sys = SystemSpec.uniform("big", (BIG,) * copies)
    assert [len(w) for w in stopping_partition_psi(sys, n)] == lengths


# BIG with negative entries: at odd lengths the large entries of the products
# pass -2**64 while the largest entry stays tiny
NEG_BIG = Matrix3.diagonal(-10 ** 4, -9000, F(1, 9 * 10 ** 7))


@pytest.mark.parametrize("copies, n, lengths", [
    (1, 2, [14]),
    (1, 3, [20]),
    (2, 2, [14] * 2 ** 14),
])
def test_psi_stays_in_float_range_with_negative_entries(copies, n, lengths):
    sys = SystemSpec.uniform("-big", (NEG_BIG,) * copies)
    assert [len(w) for w in stopping_partition_psi(sys, n)] == lengths
    walk = Frontier(sys)
    while walk.depth < lengths[0]:
        walk.grow()
        assert all(np.abs(x).max() <= 2.0 ** 64 for x in walk.states)
    assert all(e.all() for e in walk.exps)


FRAME = plane_frame_orthonormal(np.ones(3) / math.sqrt(3.0))


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _keep(walk, keep):
    """Keep only the words ``keep`` (a mask) of ``walk``, as
    :meth:`Frontier.stopping_walk` keeps the unstopped words it grows."""
    walk._stacks = [x[:, keep] for x in walk._stacks]
    walk.exps = [e[keep] for e in walk.exps]


def _per_word_grow(states, exps, steps, keep):
    """One level with one ``np.matmul`` per word and step, then the
    power-of-two rescale: the reference for :meth:`Frontier.grow`."""
    if keep is not None:
        states, exps = [x[keep] for x in states], [e[keep] for e in exps]
    grown = []
    for x, e, step in zip(states, exps, steps):
        y = np.matmul(x[:, None], step).reshape(len(x) * len(step), -1, 3)
        e = np.repeat(e, len(step))
        big = np.abs(y).max(axis=(1, 2))
        over = big > 2.0 ** 64
        shift = np.frexp(big[over])[1]
        y[over] = np.ldexp(y[over], -shift[:, None, None])
        e[over] += shift
        grown.append((y, e))
    return grown


def _product_walks(sys, tops=(None,)):
    """Walks over the products from each of ``tops`` (``None``: every letter)."""
    return [Frontier(sys, tops=top) for top in tops], [sys.letters_float, sys.letters_ext2_float]


def _rep_walks(sys):
    """The level build's walks: one per orbit representative."""
    return _product_walks(sys, [[top] for top in sys.letter_orbits.reps])


def _xi_walks(sys):
    lf = sys.letters_float
    return [Frontier(sys, states=[np.matmul(FRAME.rows, lf)], steps=[lf])], [lf]


GROWTH_WALKS = {  # (walks and their steps, depth, drop every third word before each level)
    "gamma10": (lambda: _product_walks(rauzy_gamma_system(10)), 3, False),
    "gamma10-kept": (lambda: _product_walks(rauzy_gamma_system(10)), 3, True),
    "gamma20-reps": (lambda: _rep_walks(rauzy_gamma_system(20)), 3, False),
    "xi-gamma10": (lambda: _xi_walks(rauzy_gamma_system(10)), 3, True),
    "big": (lambda: _product_walks(SystemSpec.uniform("big", (BIG,) * 2)), 14, False),
    "neg-big": (lambda: _product_walks(SystemSpec.uniform("-big", (NEG_BIG,) * 2)), 14, True),
}
RESCALED = {"big", "neg-big"}


@pytest.mark.parametrize("case", GROWTH_WALKS)
def test_grow_matches_per_word_matmul(case):
    make, depth, thin = GROWTH_WALKS[case]
    walks, steps = make()
    for walk in walks:
        for _ in range(depth - 1):
            keep = np.arange(len(walk)) % 3 != 1 if thin else None
            ref = _per_word_grow(walk.states, walk.exps, steps, keep)
            if thin:
                _keep(walk, keep)
            walk.grow()
            assert len(walk.states) == len(ref)
            for x, e, (y, f) in zip(walk.states, walk.exps, ref):
                assert x.shape == y.shape and (_bits(x) == _bits(y)).all()
                assert (e == f).all()
        assert any(e.any() for e in walk.exps) == (case in RESCALED)


def _rotated_letter(m):
    """``Q diag(2^m, 1, 2^-m) Q^T`` for an exact rational rotation ``Q``: a2/a1 = 2^-m."""
    q = Matrix3.from_rows([[F(1, 9), F(4, 9), F(8, 9)], [F(4, 9), F(7, 9), F(-4, 9)],
                           [F(8, 9), F(-4, 9), F(1, 9)]])
    return mat_mul(mat_mul(q, Matrix3.diagonal(F(2) ** m, 1, F(1, 2 ** m))), q.transpose())


def test_ratios_raise_when_the_float_letters_lost_their_digits():
    r21, _ = Frontier(SystemSpec.uniform("q", (_rotated_letter(20),))).ratios()
    assert r21[0] == pytest.approx(2.0 ** -20, rel=1e-10)
    # a2/a1 of the float letter reads 0, and a3/a1 inf
    for m in (60, 89):
        with pytest.raises(FloatRange):
            Frontier(SystemSpec.uniform("q", (_rotated_letter(m),))).ratios()


@pytest.mark.parametrize("m", [60, 89])
def test_psi_takes_the_root_when_the_bound_reads_zero(m):
    # tr G^2 of the float exterior square is 0, so the upper bound reads 0;
    # the root's a2/a1 reads 0 too, and no digit of the exact 2^-m is left
    with pytest.raises(FloatRange):
        stopping_partition_psi(SystemSpec.uniform("q", (_rotated_letter(m),)), 61)


def _reference_first_passage(walk, statistic, threshold, max_len):
    """The list-of-tuples first passage: per-level rows, sorted as tuples.
    It extends its own letter array as the walk grows its unstopped
    words, so it does not read the walk's word order."""
    letters, out = walk.tops[:, None], []
    while True:
        stopped = statistic(walk) <= threshold
        out.extend(tuple(row) for row in letters[stopped].tolist())
        if stopped.all():
            return sorted(out)
        _keep(walk, ~stopped)
        walk.grow()
        m = np.count_nonzero(~stopped)
        k = len(walk) // m
        letters = np.concatenate([np.repeat(letters[~stopped], k, axis=0),
                                  np.tile(np.arange(k), m)[:, None]], axis=1)


FIRST_PASSAGES = {
    "psi-gamma2": (lambda: rauzy_gamma_system(2), lambda sys: stopping_partition_psi(sys, 6)),
    "psi-gamma10": (lambda: rauzy_gamma_system(10), lambda sys: stopping_partition_psi(sys, 4)),
    "xi-gamma2": (lambda: rauzy_gamma_system(2), lambda sys: xi_partition(FRAME, sys, 6)),
    "psi-big2": (lambda: SystemSpec.uniform("big", (BIG,) * 2),
                 lambda sys: stopping_partition_psi(sys, 2)),
    "psi-diag": (lambda: diag_system(9, 1, F(1, 9)), lambda sys: stopping_partition_psi(sys, 7)),
    # the first top's words stop by length 4, the second's only at length 5
    "psi-two-rates": (lambda: SystemSpec.uniform("diag2", (Matrix3.diagonal(9, 1, F(1, 9)),
                                                           Matrix3.diagonal(3, 1, F(1, 3)))),
                      lambda sys: stopping_partition_psi(sys, 7)),
}


@pytest.mark.parametrize("case", FIRST_PASSAGES)
def test_first_passage_wordset_matches_reference(case, monkeypatch):
    make, run = FIRST_PASSAGES[case]
    sys = make()
    with monkeypatch.context() as m:
        m.setattr(Frontier, "first_passage", _reference_first_passage)
        ref = run(sys)
    ws = run(sys)
    assert isinstance(ws, WordSet)
    assert not ws.letters.flags.writeable and not ws.lengths.flags.writeable
    assert [w.letters for w in ws] == ref
    assert len(ws) == len(ref)
    assert ws.letters.shape[1] == ws.lengths.max()
    assert ws[0].letters == ref[0] and ws[-1].letters == ref[-1]
    with pytest.raises(IndexError):
        ws[len(ws)]
    view = ws[::7]
    assert isinstance(view, WordSet) and not view.letters.flags.writeable
    assert list(view) == list(ws)[::7]
    assert all(type(x) is int for w in (ws[0], ws[-1], next(iter(ws))) for x in w.letters)


def _cover_bits(sys):
    rep = svd_cover_upper(sys, 1.75, 1e-3)
    return rep.cover_cost.hex(), rep.word_count, rep.diagnostics["nodes"]


BLOCKED_WALKS = {
    "psi-gamma2": lambda: _wordset_digest(stopping_partition_psi(rauzy_gamma_system(2), 6)),
    "psi-gamma10": lambda: _wordset_digest(stopping_partition_psi(rauzy_gamma_system(10), 4)),
    "xi-gamma2": lambda: _wordset_digest(xi_partition(FRAME, rauzy_gamma_system(2), 6)),
    "cover-gamma2": lambda: _cover_bits(rauzy_gamma_system(2)),
}


@pytest.mark.parametrize("case", BLOCKED_WALKS)
def test_first_passage_blocks_equal_one_block(case, monkeypatch):
    run = BLOCKED_WALKS[case]
    default = run()
    monkeypatch.setattr(semigroup, "_BLOCK_ROWS", 1)  # one parent per block
    assert run() == default
    # partial blocks, and queues of several parts
    monkeypatch.setattr(semigroup, "_BLOCK_ROWS", 100)
    assert run() == default
    monkeypatch.setattr(semigroup, "_BLOCK_ROWS", 10 ** 9)  # one block per level
    assert run() == default


FULL_BLOCK_WALKS = {
    "cover": lambda sys: svd_cover_upper(sys, 1.75, 1e-3),
    "psi": lambda sys: stopping_partition_psi(sys, 8),
    "xi": lambda sys: xi_partition(FRAME, sys, 8),
}


@pytest.mark.parametrize("case", FULL_BLOCK_WALKS)
def test_first_passage_blocks_are_full(case, monkeypatch):
    sys = rauzy_gamma_system(10)
    full = semigroup._BLOCK_ROWS // len(sys) * len(sys)
    seen = []  # (depth, words) of each statistic call
    walk = Frontier.stopping_walk

    def counted(self, statistic, threshold, max_len):
        def stat(w):
            seen.append((w.depth, len(w)))
            return statistic(w)
        return walk(self, stat, threshold, max_len)

    monkeypatch.setattr(Frontier, "stopping_walk", counted)
    FULL_BLOCK_WALKS[case](sys)
    partial = [depth for depth, words in seen if words != full]
    assert len(seen) > 30 and len(partial) == len(set(partial))


def test_walks_stay_in_float_range():
    sys = SystemSpec.uniform("big", (BIG,))
    # first passages of the xi ratio, checked in exact arithmetic
    assert [len(w) for n in (2, 4, 8) for w in xi_partition(FRAME, sys, n)] == [16, 29, 55]
    est = pressure_estimate(sys, 1.0, 40)
    assert est.raw == pytest.approx(math.log(0.9), rel=1e-12)
    assert est.diagnostics["fitted_C"] == pytest.approx(1.0, abs=1e-12)
    assert est.diagnostics["fitted_c"] == pytest.approx(1.0, abs=1e-12)
    z = zeta_truncated(sys, 1.0, 40)
    assert z.value == pytest.approx(sum(0.9 ** n for n in range(1, 41)), rel=1e-12)


def test_multiplicativity_fit_survives_underflow():
    # phi^1.5 of the length-30 pool words underflows: a linear-space ratio is 0/0
    sys = SystemSpec.uniform("big", (BIG,))
    fit = _fit_multiplicativity(sys, 1.5, 30)
    assert fit["fitted_C"] == pytest.approx(1.0, abs=1e-12)
    assert fit["fitted_c"] == pytest.approx(1.0, abs=1e-12)
    est = pressure_estimate(sys, 1.5, 60)
    consts = [est.submult_constant, est.upper, est.lower,
              est.diagnostics["fitted_C"], est.diagnostics["fitted_c"]]
    assert all(math.isfinite(x) for x in consts)
    assert est.diagnostics["fitted_C"] == pytest.approx(1.0, abs=1e-12)


CAPPED_WALKS = {
    "psi": lambda sys: stopping_partition_psi(sys, 6),
    "xi": lambda sys: xi_partition(FRAME, sys, 6),
    "partition_sum": lambda sys: partition_sum(sys, 1.5, 3),
    "cover": lambda sys: svd_cover_upper(sys, 1.5, 2.0 ** -6).diagnostics["nodes"],
    "zeta": lambda sys: zeta_truncated(sys, 1.5, 3).words_evaluated,
}
REPORTS_ITS_COUNT = {"cover", "zeta"}


@pytest.mark.parametrize("walk", CAPPED_WALKS)
def test_walks_count_words_against_the_node_cap(walk, monkeypatch):
    run = CAPPED_WALKS[walk]
    sys = rauzy_gamma_system(1)
    cap = len(sys)  # the single letters only
    if walk in REPORTS_ITS_COUNT:
        visited = run(sys)
        monkeypatch.setenv("PROJDIM_NODE_CAP", str(visited))
        assert run(sys) == visited
        cap = visited - 1
    monkeypatch.setenv("PROJDIM_NODE_CAP", str(cap))
    with pytest.raises(BudgetExceeded):
        run(rauzy_gamma_system(1))  # a fresh system holds no word levels


def test_first_passage_node_cap_counts_across_tops(monkeypatch):
    sys = rauzy_gamma_system(10)
    k = len(sys)
    monkeypatch.setenv("PROJDIM_NODE_CAP", "627900")
    walk = Frontier(sys)
    words = walk.first_passage(lambda w: w.ratios()[0], 2.0 ** -8, 64)
    assert walk.visited == 627_900
    # a top whose subtree has l stopped words visited 1 + k (l - 1) / (k - 1)
    # words: each top's own count is far below the cap
    per_top = 1 + k * (np.bincount(words.letters[:, 0], minlength=k) - 1) // (k - 1)
    assert per_top.sum() == walk.visited and per_top.max() < 627_900 // 10
    monkeypatch.setenv("PROJDIM_NODE_CAP", "627899")
    with pytest.raises(BudgetExceeded):
        Frontier(sys).first_passage(lambda w: w.ratios()[0], 2.0 ** -8, 64)


def test_first_passage_leaves_the_walk_at_its_tops():
    walk = Frontier(rauzy_gamma_system(2))
    words = walk.first_passage(lambda w: w.ratios()[0], 2.0 ** -4, 64)
    assert walk.depth == 1 and len(walk) == len(walk.tops)
    again = walk.first_passage(lambda w: w.ratios()[0], 2.0 ** -4, 64)
    assert _wordset_digest(again) == _wordset_digest(words)


def _wordset_digest(words):
    # int32 views, so the digest does not depend on the arrays' integer type
    return hashlib.sha256(words.letters.astype(np.int32).tobytes()
                          + words.lengths.astype(np.int32).tobytes()).hexdigest()[:16]


def _root_first_passage(sys, n, max_len=64):
    """ψ from the closed-form root of every visited word."""
    return Frontier(sys).first_passage(lambda w: w.ratios()[0], 2.0 ** -n, max_len)


ROOT_DECIDED = {
    "gamma10": (lambda: rauzy_gamma_system(10), 8),
    # a2/a1 of the square is 2^-4 itself
    "diag-at-threshold": (lambda: diag_system(4, 1, F(1, 4)), 4),
    "two-rates": (FIRST_PASSAGES["psi-two-rates"][0], 7),
}
# nonzero exps: the bounds must be rescaled as the ratios are
for _name, _m in (("big", BIG), ("neg-big", NEG_BIG)):
    for _copies, _n in ((1, 2), (1, 3), (2, 2)):
        ROOT_DECIDED[f"{_name}-{_copies}-{_n}"] = (
            functools.partial(SystemSpec.uniform, _name, (_m,) * _copies), _n)


@pytest.mark.parametrize("case", ROOT_DECIDED)
def test_psi_bounds_decide_as_the_root(case):
    make, n = ROOT_DECIDED[case]
    sys = make()
    words, ref = stopping_partition_psi(sys, n), _root_first_passage(sys, n)
    assert words.letters.shape == ref.letters.shape
    assert _wordset_digest(words) == _wordset_digest(ref)


def test_psi_bounds_leave_a_tie_to_the_root(monkeypatch):
    # diag(4, 1, 1/4)^20 has a2/a1 = 2^-40, and both Gram bounds are exactly
    # 2^-40 too: a root nudged up by a few ulps must still decide it
    real = linalg.sym3_max_eig_batch
    monkeypatch.setattr(linalg, "sym3_max_eig_batch",
                        lambda *s: real(*s) * (1.0 - 8.0 * np.finfo(float).eps))
    sys = diag_system(4, 1, F(1, 4))
    ref = [w.letters for w in _root_first_passage(sys, 40)]
    assert ref == [(0,) * 21]
    assert [w.letters for w in stopping_partition_psi(sys, 40)] == ref


def test_psi_roots_only_the_words_near_the_threshold(monkeypatch):
    real, rooted = linalg.sym3_max_eig_batch, []

    def sym3_max_eig_batch(*s):
        rooted.append(np.size(s[0]))
        return real(*s)

    monkeypatch.setattr(linalg, "sym3_max_eig_batch", sym3_max_eig_batch)
    stopping_partition_psi(rauzy_gamma_system(10), 8)
    # 66 of the 627,900 visited words, two matrices each
    assert 0 < sum(rooted) < 1_000


def test_psi_is_prefix_free_with_full_mass():
    from projdim.pressure import rauzy_gamma_system

    sys = rauzy_gamma_system(10)
    words = stopping_partition_psi(sys, 8)
    letters, lengths = words.letters, words.lengths
    assert ((letters >= 0) == (np.arange(letters.shape[1]) < lengths[:, None])).all()
    differ = letters[1:] != letters[:-1]
    assert differ.any(axis=1).all()  # no word twice
    first = differ.argmax(axis=1)  # the first column where a word and its successor differ
    rows = np.arange(len(first))
    assert (letters[rows, first] < letters[rows + 1, first]).all()  # strictly increasing
    # in a sorted set every extension of a word follows it directly, so it
    # is enough that no word is a prefix of its successor
    assert (first < lengths[:-1]).all()
    # uniform letters: exact mass by length counts
    counts = np.bincount(lengths)
    mass = sum((int(cnt) * F(1, len(sys)) ** length for length, cnt in enumerate(counts)), F(0))
    assert mass == 1
    # the bytes of the whole-level walk this set was first built by
    assert letters.shape == (617_436, 6)
    assert _wordset_digest(words) == "9e3177699e72cac8"
    # 60 letters: one byte per letter
    assert letters.dtype == np.int8 and letters.nbytes == 3_704_616


@pytest.mark.parametrize("n, dtype", [(21, np.int8), (22, np.int16)])
def test_first_passage_letters_take_the_narrowest_type(n, dtype):
    # 6n letters: 126 fit a signed byte next to the padding -1, 132 do not
    sys = rauzy_gamma_system(n)
    words = stopping_partition_psi(sys, 0)
    assert words.letters.dtype == dtype
    assert (words.letters[:, 0] == np.arange(len(sys))).all()
    assert (words.lengths == 1).all()


def _traced_peak(run):
    """``run()`` and the peak of the memory it traced on top of what it found."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = run()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_psi_holds_its_words_once():
    sys = rauzy_gamma_system(10)
    sys.letters_float, sys.letters_ext2_float
    words, peak = _traced_peak(lambda: stopping_partition_psi(sys, 8))
    # the walk keeps only its stop masks, and each word is written once
    assert peak < words.letters.nbytes + words.lengths.nbytes + 4_000_000
    # a walk that holds whole levels peaks at 94.5 MB here, one top's level at 7.7 MB
    assert peak <= 7.7e6


def test_wordset_iterates_a_block_at_a_time():
    words = stopping_partition_psi(rauzy_gamma_system(10), 8)
    count, peak = _traced_peak(lambda: sum(1 for _ in words))
    assert count == len(words) and peak < 2_000_000
    few = stopping_partition_psi(rauzy_gamma_system(10), 5)  # several blocks and a partial one
    assert len(few) % 4096 and list(few) == [
        Word(tuple(row[:n])) for row, n in zip(few.letters.tolist(), few.lengths.tolist())]


def test_xi_wordset_is_pinned():
    words = xi_partition(FRAME, rauzy_gamma_system(10), 8)
    # the bytes of the whole-level walk this set was first built by
    assert words.letters.shape == (363_736, 6)
    assert _wordset_digest(words) == "02369c820c5a8abd"


def test_psi_partition_hits_exactly_one_prefix():
    from projdim.pressure import rauzy_gamma_system

    sys = rauzy_gamma_system(5)
    words = {w.letters for w in stopping_partition_psi(sys, 6)}
    max_len = max(len(w) for w in words)
    rng = np.random.Generator(np.random.Philox(key=42))
    seqs = rng.integers(0, len(sys), size=(10_000, max_len))
    for seq in seqs:
        hits = sum(tuple(seq[:m]) in words for m in range(1, max_len + 1))
        assert hits == 1


def test_positivity_report():
    assert positivity_report(rauzy_system())["positive"] is False
    assert positivity_report(diag_system(1, 1, 1))["positive"] is False

    conj = positivizing_conjugator()
    pos2 = SystemSpec.uniform("g2", (gamma_letter(0, 1, 2),), conjugator=conj)
    rep = positivity_report(pos2)
    assert rep["positive"] is True and rep["entry_ratio"] > 0

    # boundary case: at parameter 1/5 the n = 1 letter has one exact zero
    pos1 = SystemSpec.uniform("g1", (gamma_letter(0, 1, 1),), conjugator=conj)
    rep1 = positivity_report(pos1)
    assert rep1["positive"] is False and rep1["entry_ratio"] == 0


def test_primitive_nonnegative_gate():
    conj = positivizing_conjugator()
    g1 = SystemSpec.uniform(
        "g1", tuple(gamma_letter(i, j, 1) for i in range(3) for j in range(3) if i != j),
        conjugator=conj,
    )
    assert positivity_report(g1)["positive"] is False
    assert is_primitive_nonnegative(g1)
    assert not is_primitive_nonnegative(rauzy_system())


def primitive_by_exact_products(sys):
    """Reference: every two-letter product formed in exact arithmetic."""
    letters = sys.effective_alphabet
    if any(x < 0 for a in letters for row in a.entries for x in row):
        return False
    return all(x > 0 for a, b in itertools.product(letters, repeat=2)
               for row in mat_mul(a, b).entries for x in row)


UPPER = (Matrix3.from_rows([[1, 1, 1], [0, 1, 1], [0, 0, 1]]),
         Matrix3.from_rows([[1, 2, 0], [0, 1, 1], [0, 0, 1]]))
GATE_CASES = {
    "rauzy": (rauzy_system, None),
    "gamma1": (lambda: rauzy_gamma_system(1), "primitive"),
    "gamma20": (lambda: rauzy_gamma_system(20), "primitive"),
    "gamma1-eps1/6": (lambda: rauzy_gamma_system(1, F(1, 6)), "positive"),
    "triple9": (triple9_system, "diagonal"),
    # diagonal, but the largest entries sit on different axes: (AB)^n = diag(2^n, 2^n, 4^-n)
    "diagonal-cross-axes": (lambda: SystemSpec.uniform("cross", (Matrix3.diagonal(2, 1, F(1, 2)),
                                                                 Matrix3.diagonal(1, 2, F(1, 2)))),
                            None),
    # nonnegative, but every two-letter product keeps the lower zeros
    "upper-triangular": (lambda: SystemSpec.uniform("upper", UPPER), None),
    # the Gamma_1 letters conjugated too far: a negative entry
    "negative-entry": (lambda: SystemSpec.uniform("neg", rauzy_gamma_system(1).alphabet,
                                                  positivizing_conjugator(F(1, 3))), None),
}


@pytest.mark.parametrize("case", GATE_CASES)
def test_contraction_gate_against_exact_products(case):
    make, branch = GATE_CASES[case]
    sys = make()
    assert sys.contraction == branch
    assert is_primitive_nonnegative(sys) == primitive_by_exact_products(sys)


@pytest.mark.parametrize("conjugated", [False, True], ids=["gamma-letters", "gamma167"])
def test_primitive_gate_memory_does_not_grow_with_the_pairs(conjugated):
    """1,002 letters: the 0/1 patterns of all letter pairs would take 72 MB."""
    letters = [gamma_letter(i, j, n) for n in range(1, 168)
               for i in range(3) for j in range(3) if i != j]
    sys = SystemSpec.uniform("big", letters, positivizing_conjugator() if conjugated else None)
    sys.effective_alphabet
    tracemalloc.start()
    try:
        # unconjugated, the unit row of each letter misses column i: A_w A_w has a zero
        assert is_primitive_nonnegative(sys) == conjugated
        assert tracemalloc.get_traced_memory()[1] < 1_000_000
    finally:
        tracemalloc.stop()


def test_contraction_gate_is_decided_once(monkeypatch):
    import projdim.semigroup as semigroup_mod

    calls = []
    report = semigroup_mod.positivity_report
    monkeypatch.setattr(semigroup_mod, "positivity_report",
                        lambda sys: calls.append(sys) or report(sys))
    sys = rauzy_gamma_system(2)
    for what in ("pressure_estimate", "affinity_dimension", "xi_partition"):
        require_positive_like(sys, what)
    assert len(calls) == 1
    with pytest.raises(NotPositive):
        require_positive_like(rauzy_system(), "pressure_estimate")


PERMUTATION_MATRICES = [Matrix3.from_rows([[int(p[r] == c) for c in range(3)] for r in range(3)])
                        for p in itertools.permutations(range(3))]
# Γ_2's letters under a conjugator that no permutation matrix commutes with
GENERIC = Matrix3.from_rows([[1, F(-1, 5), F(-1, 7)], [F(-1, 6), 1, F(-1, 5)],
                             [F(-1, 9), F(-1, 8), 1]])


def exact_letter_maps(sys):
    """The one-to-one letter maps ``i -> j`` with ``P A_i P^-1 = A_j``, by exact products."""
    letters = list(sys.effective_alphabet)
    maps = set()
    for p in PERMUTATION_MATRICES:
        image = [mat_mul(mat_mul(p, a), p.inverse()) for a in letters]
        if all(b in letters for b in image):
            g = tuple(letters.index(b) for b in image)
            if len(set(g)) == len(g):
                maps.add(g)
    return maps


def orbit_components(sys):
    """The connected components of the graph ``i -- g(i)`` over :func:`exact_letter_maps`."""
    parent = list(range(len(sys)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for g in exact_letter_maps(sys):
        for i, j in enumerate(g):
            parent[root(i)] = root(j)
    comps: dict[int, list[int]] = {}
    for i in range(len(sys)):
        comps.setdefault(root(i), []).append(i)
    return sorted(comps.values())


@pytest.mark.parametrize("make, sizes", [
    (rauzy_system, [3]),
    (lambda: rauzy_gamma_system(1), [6]),
    (lambda: rauzy_gamma_system(20), [6] * 20),
    (triple9_system, [1] * 3),  # three equal letters: no map is one to one but the identity
    # a letter twice and its image under (0 1) once: (0 1) maps the letters two to one
    (lambda: SystemSpec.uniform("twice", (gamma_letter(0, 1, 1),) * 2
                                + (gamma_letter(1, 0, 1),)), [1] * 3),
    (lambda: SystemSpec.uniform("generic", rauzy_gamma_system(2).alphabet, GENERIC), [1] * 12),
], ids=["rauzy", "gamma1", "gamma20", "triple9", "twice", "generic"])
def test_letter_orbits_are_the_permutation_conjugation_orbits(make, sizes):
    sys = make()
    comps = orbit_components(sys)
    orbits = sys.letter_orbits
    assert orbits.reps == tuple(c[0] for c in comps)
    assert orbits.sizes.tolist() == [len(c) for c in comps] == sizes


def test_diophantine_rauzy_distinct():
    rep = diophantine_check(rauzy_system(), 5)
    assert rep["all_distinct"] is True
    assert rep["gap_is_exact"] is True
    assert rep["min_gap"] >= 1.0


def test_diophantine_duplicate_letter():
    a1, _, _ = rauzy_alphabet()
    sys = SystemSpec("dup", (a1, a1), (F(1, 2), F(1, 2)))
    rep = diophantine_check(sys, 2)
    assert rep["all_distinct"] is False
    assert rep["min_gap"] == 0.0
    assert rep["first_collision"] == (1, 0, 1)


def test_diophantine_cross_length_collision_detected_per_level():
    # {A1, A1*A2} shares products across word shapes at equal lengths
    a = rauzy_alphabet()
    sys = SystemSpec("mix", (a[0], mat_mul(a[0], a[1])), (F(1, 2), F(1, 2)))
    rep = diophantine_check(sys, 6)
    assert rep["all_distinct"] is True
    assert rep["min_gap"] == 1.0
    assert rep["first_collision"] is None


def _diophantine_reference(sys, n_max):
    """Every pair of every level, over the exact products in word order."""
    first_collision, gaps = None, []
    for n in range(1, n_max + 1):
        prods = [p.entries for p in exact_products(sys, n)]
        first = {}
        for j, p in enumerate(prods):
            i = first.setdefault(p, j)
            if i != j and first_collision is None:
                first_collision = (n, i, j)
        # the level's own common denominator makes every entry an integer
        den = math.lcm(*(x.denominator for p in prods for row in p for x in row))
        ints = [[int(x * den) for row in p for x in row] for p in prods]
        wide = max(abs(x) for row in ints for x in row) >= 2 ** 62
        flat = np.array(ints, dtype=object if wide else np.int64)
        for i in range(len(flat) - 1):
            gaps.append(F(int(np.abs(flat[i + 1:] - flat[i]).max(axis=1).min()), den))
    distinct = first_collision is None
    return {
        "all_distinct": distinct,
        "min_gap": 0.0 if not distinct else (float(min(gaps)) if gaps else math.inf),
        "gap_is_exact": True,
        "levels_checked": n_max,
        "first_collision": first_collision,
    }


def _rational_shears():
    # D = 6 and offset-1 gaps above 1 at every level, so each level takes the grid
    return SystemSpec.uniform("qshear", (
        Matrix3.from_rows([[1, F(1, 2), 0], [0, 1, 0], [0, 0, 1]]),
        Matrix3.from_rows([[1, 0, 0], [F(1, 3), 1, 0], [0, 0, 1]]),
        Matrix3.diagonal(2, F(1, 3), F(3, 2)),
    ))


def _wide_cells():
    # int64 levels whose diagonal entries span about 2**30 while the closest rows are 2 apart
    return SystemSpec.uniform("wide", (
        Matrix3.diagonal(2 ** 10, 2 ** 10, F(1, 2 ** 20)),
        Matrix3.from_rows([[1, 0, 0], [0, 1, F(1, 2 ** 19)], [0, 0, 1]]),
        Matrix3.from_rows([[1, 0, 0], [0, 1, 0], [0, F(1, 2 ** 19), 1]]),
    ))


def _big_shears(order=(0, 1)):
    # unimodular shears with a 2**40 entry: (1 + 2**40)**3 passes 2**62, so the
    # depth-3 products are Python ints, and some entries pass 2**63
    big = 2 ** 40
    shears = (Matrix3.from_rows([[1, big, 0], [0, 1, 0], [0, 0, 1]]),
              Matrix3.from_rows([[1, 0, 0], [big, 1, 0], [0, 0, 1]]))
    return SystemSpec.uniform("shear", tuple(shears[i] for i in order))


@pytest.mark.parametrize("make,depth", [
    (rauzy_system, 5),
    (triple9_system, 4),
    (lambda: rauzy_gamma_system(2), 3),
    (lambda: SystemSpec("dup", (rauzy_alphabet()[0],) * 2, (F(1, 2), F(1, 2))), 2),
    (lambda: SystemSpec("mix", (rauzy_alphabet()[0],
                                mat_mul(rauzy_alphabet()[0], rauzy_alphabet()[1])),
                        (F(1, 2), F(1, 2))), 6),
    (_rational_shears, 4),
    # level 2 (900 rows): the grid finds 126 below the offset-1 minimum 135
    pytest.param(lambda: rauzy_gamma_system(5), 2, id="gamma5-2"),
    # level 2: the grid finds 2 below the offset-1 minimum 2**21, with cell keys past int64
    (_wide_cells, 2),
    # equal letters in both orders: the repeat whose rows sort first is (0, 3)
    # in one of them, yet the first repeat in word order is (1, 2) in both
    pytest.param(lambda: SystemSpec.uniform(
        "abba", tuple(rauzy_alphabet()[i] for i in (0, 1, 1, 0))), 2, id="abba-2"),
    pytest.param(lambda: SystemSpec.uniform(
        "baab", tuple(rauzy_alphabet()[i] for i in (1, 0, 0, 1))), 2, id="baab-2"),
    # a repeated letter; at depth 3 the levels are Python ints
    pytest.param(lambda: _big_shears((0, 1, 0)), 3, id="big_shears_aba-3"),
])
def test_diophantine_matches_exact_reference(make, depth):
    sys = make()
    for n in range(1, depth + 1):
        assert diophantine_check(sys, n) == _diophantine_reference(sys, n)


def test_min_linf_gap_matches_every_pair():
    # 200 small random levels, as int64 and as Python ints past 2**62: the pair
    # that sets the gap lies in each of the 13 neighbour directions in some of
    # them; in every fourth each column takes two values, so at most 8 cells hold every row
    rng = np.random.default_rng(4)
    for case in range(200):
        scale = rng.integers(1, 40, size=9)  # columns of unequal spread
        rows = rng.integers(-50, 50, size=(int(rng.integers(2, 60)), 9))
        rows = np.unique((rows > 0 if case % 4 == 0 else rows) * scale, axis=0)
        for level in (rows, rows.astype(object) * 2 ** 70):
            gaps = np.abs(level[1:] - level[:-1]).max(axis=1)  # np.unique sorts column 0 first
            every_pair = min(np.abs(level[i + 1:] - level[i]).max(axis=1).min()
                             for i in range(len(level) - 1))
            assert semigroup._min_linf_gap(level, gaps) == every_pair, case


def test_diophantine_exact_past_int64():
    sys = _big_shears()
    assert max(abs(x) for p in exact_products(sys, 3)
               for row in p.entries for x in row) > 2 ** 63
    rep = diophantine_check(sys, 3)
    assert rep == _diophantine_reference(sys, 3)
    assert rep["all_distinct"] is True


# ---------------------------------------------------------------------------
# the acting letters' integer stack against exact Fraction products

def fraction_letters(sys):
    """The acting letters ``M^-1 A M`` by exact Fraction products."""
    if sys.conjugator is None:
        return sys.alphabet
    minv = sys.conjugator.inverse()
    return tuple(mat_mul(mat_mul(minv, a), sys.conjugator) for a in sys.alphabet)


def float_stack(mats):
    return np.array([[[float(x) for x in row] for row in m.entries] for m in mats])


def fraction_gate(letters):
    """``(positivity_report, is_nonnegative, contraction)`` from Fraction letters."""
    flat = [[x for row in a.entries for x in row] for a in letters]
    report = {"positive": all(min(f) > 0 for f in flat),
              "entry_ratio": min(min(f) / max(f) if max(f) != 0 else F(0) for f in flat)}
    nonnegative = all(min(f) >= 0 for f in flat)
    diagonal = all(all(x == 0 for i, x in enumerate(f) if i % 4)
                   and sorted(abs(x) for x in f[::4])[1] < max(abs(x) for x in f[::4])
                   for f in flat)
    support = np.array([[[x > 0 for x in row] for row in a.entries] for a in letters],
                       dtype=np.int64)
    primitive = nonnegative and bool((np.einsum("aij,bjk->abik", support, support) > 0).all())
    contraction = ("positive" if report["positive"] else "diagonal" if diagonal
                   else "primitive" if primitive else None)
    return report, nonnegative, contraction


def fraction_orbits(letters):
    """``(reps, sizes)`` of the permutation-conjugation orbits, keyed on Fraction entries."""
    index = {a.entries: i for i, a in enumerate(letters)}
    rep_of = list(range(len(letters)))
    for p in itertools.permutations(range(3)):
        image = [index.get(tuple(tuple(a.entries[p[r]][p[c]] for c in range(3))
                                 for r in range(3))) for a in letters]
        if None not in image and len(set(image)) == len(image):
            rep_of = list(map(min, rep_of, image))
    reps = sorted(set(rep_of))
    return tuple(reps), [rep_of.count(r) for r in reps]


_Q = 3 ** 27
# rauzy's letters under a conjugator with 3**27 denominators, as a system file holds them: the
# numerators pass 2**63, and rounding numerator and denominator first moves 16 of 27 entries
WIDE = {"label": "wide", "matrices": [a.to_strings() for a in rauzy_alphabet()],
        "probabilities": ["1/3"] * 3,
        "conjugator": [["1", f"-1/{_Q}", f"-2/{_Q}"], [f"-3/{_Q}", "1", f"-1/{_Q}"],
                       [f"-1/{_Q}", f"-2/{_Q}", "1"]]}
ACTING_CASES = {
    "gamma1": lambda: rauzy_gamma_system(1),
    "gamma5": lambda: rauzy_gamma_system(5),
    "gamma20": lambda: rauzy_gamma_system(20),
    "gamma1-eps1/6": lambda: rauzy_gamma_system(1, F(1, 6)),
    "gamma1-eps1/3": lambda: SystemSpec.uniform("neg", rauzy_gamma_system(1).alphabet,
                                                positivizing_conjugator(F(1, 3))),
    # the conjugator's rows 0 and 1 swapped: det(C) < 0, and the acting letters are
    # Γ_1's positivized letters relabelled, so the gate still reads their signs
    "gamma1-swapped": lambda: SystemSpec.uniform("swapped", rauzy_gamma_system(1).alphabet,
                                                 Matrix3.from_rows([[F(-1, 5), 1, F(-1, 5)],
                                                                    [1, F(-1, 5), F(-1, 5)],
                                                                    [F(-1, 5), F(-1, 5), 1]])),
    "rauzy": rauzy_system,
    "triple9": triple9_system,
    "big-shears": _big_shears,
    "wide": lambda: system_from_dict(WIDE),
}


@pytest.mark.parametrize("case", ACTING_CASES)
def test_acting_letters_match_fraction_products(case):
    sys = ACTING_CASES[case]()
    letters = fraction_letters(sys)
    assert sys.effective_alphabet == letters
    assert np.array_equal(sys.letters_float, float_stack(letters))
    assert np.array_equal(sys.letters_inverse_float, float_stack([a.inverse() for a in letters]))
    report, nonnegative, contraction = fraction_gate(letters)
    assert positivity_report(sys) == report
    assert is_nonnegative(sys) is nonnegative
    assert sys.contraction == contraction
    reps, sizes = fraction_orbits(letters)
    assert sys.letter_orbits.reps == reps and sys.letter_orbits.sizes.tolist() == sizes


def test_wide_numerators_stay_python_ints():
    sys = system_from_dict(WIDE)
    assert max(abs(x) for x in sys.letters_exact.num.ravel()) > 2 ** 63
    for n in (1, 2):
        assert diophantine_check(sys, n) == _diophantine_reference(sys, n)


@pytest.mark.parametrize("sub, ref", [
    *[(lambda n=n: rauzy_gamma_system(20).first_letters(6 * n, "sub"),
       lambda n=n: rauzy_gamma_system(n)) for n in (1, 5, 10)],
    # the first letter alone has the smaller denominator 2
    (lambda: SystemSpec.uniform("two", (Matrix3.diagonal(2, 1, F(1, 2)),
                                        Matrix3.diagonal(3, 1, F(1, 3)))).first_letters(1, "one"),
     lambda: SystemSpec.uniform("one", (Matrix3.diagonal(2, 1, F(1, 2)),))),
], ids=["gamma1", "gamma5", "gamma10", "diagonal"])
def test_first_letters_slice_the_stack(sub, ref):
    sub, ref = sub(), ref()
    assert sub.letters_exact.den == ref.letters_exact.den
    assert np.array_equal(sub.letters_exact.num, ref.letters_exact.num)
    assert np.array_equal(sub.letters_float, ref.letters_float)
    assert np.array_equal(sub.letters_inverse_float, ref.letters_inverse_float)


def count_mat_mul(monkeypatch) -> list:
    """A list that gets one item per call of ``linalg.mat_mul``, through
    every ``projdim`` module that binds it (``Matrix3.__matmul__`` included)."""
    calls, product = [], linalg.mat_mul

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    for module in [m for name, m in _sys.modules.items() if name.startswith("projdim")]:
        if getattr(module, "mat_mul", None) is product:
            monkeypatch.setattr(module, "mat_mul", counted)
    return calls


def test_acting_letters_take_no_fraction_products(monkeypatch):
    products, inverses = count_mat_mul(monkeypatch), []
    inverse = Matrix3.inverse
    monkeypatch.setattr(Matrix3, "inverse", lambda a: inverses.append(1) or inverse(a))
    sys = rauzy_gamma_system(20)
    sys.contraction, sys.letter_orbits, sys.letters_float, sys.letters_inverse_float
    assert products == [] and inverses == []


def test_lie_algebra_dimension_of_rational_generators():
    # each generator scaled by its own rational, so the common denominator is 3 * 5 * 7
    derivs = rauzy_curve_derivatives()
    scaled = [d.scale(F(k + 1, (3, 5, 7)[k % 3])) for k, d in enumerate(derivs)]
    assert [lie_algebra_dimension(scaled[:k]) for k in range(7)] == \
        [lie_algebra_dimension(derivs[:k]) for k in range(7)]
    with pytest.raises(NotTraceless):
        lie_algebra_dimension([derivs[0], Matrix3.diagonal(F(1, 3), F(1, 3), F(1, 3))])


def test_lie_algebra_dimension_examples():
    derivs = rauzy_curve_derivatives()
    assert lie_algebra_dimension([]) == 0
    assert lie_algebra_dimension([derivs[0]]) == 1
    assert lie_algebra_dimension(derivs) == 8
    # a zero generator has no traceless content and adds nothing
    zero = Matrix3.diagonal(0, 0, 0)
    assert lie_algebra_dimension((zero,) + derivs) == 8
    assert lie_algebra_dimension([zero]) == 0
    # monotone under adding generators, capped at 8
    dims = [lie_algebra_dimension(derivs[: k + 1]) for k in range(6)]
    assert dims == sorted(dims) and dims[-1] == 8


def test_lie_algebra_brackets_each_basis_pair_once(monkeypatch):
    products, brackets, bracket = count_mat_mul(monkeypatch), [], semigroup._bracket
    monkeypatch.setattr(semigroup, "_bracket", lambda x, y: brackets.append(1) or bracket(x, y))
    assert lie_algebra_dimension(rauzy_curve_derivatives()) == 8
    assert len(brackets) == 28  # one for each of the 8 * 7 / 2 basis pairs
    assert products == []  # the closure forms no Fraction product


def _lie_reference(generators):
    """The dimension of the Lie algebra generated by the traceless parts of
    ``generators``, by Fraction products and ranks: every bracket of the
    kept elements is added until none enlarges their span."""
    def rank(mats):
        rows, r = [[x for row in m.entries for x in row] for m in mats], 0
        for c in range(9):
            piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            for i in range(r + 1, len(rows)):
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
            r += 1
        return r

    zero, kept = Matrix3.diagonal(0, 0, 0), []
    for g in generators:
        t = g - Matrix3.identity().scale(g.trace / 3)
        if t == zero and g != zero:
            raise NotTraceless("scalar")
        if rank(kept + [t]) > len(kept):
            kept.append(t)
    grown = True
    while grown:
        grown = False
        for x, y in itertools.combinations(list(kept), 2):
            b = mat_mul(x, y) - mat_mul(y, x)
            if rank(kept + [b]) > len(kept):
                kept.append(b)
                grown = True
    return len(kept)


_SMALL = st.sampled_from([F(0), F(1), F(-1), F(2), F(1, 2), F(-1, 2), F(2, 3), F(-3, 4)])
# entries of sl(3) subalgebras: upper triangular, a 2x2 block, diagonal, strictly upper
_SUPPORTS = [{0, 1, 2, 4, 5, 8}, {0, 1, 3, 4}, {0, 4, 8}, {1, 2, 5}]


def _generator_lists(support):
    """Up to five generators ``N - c I``: ``N`` with its nonzero entries in
    ``support``, so that many lists generate a proper subalgebra.  A zero
    ``N`` gives a zero generator or a nonzero scalar."""
    def generator(e):
        n = Matrix3.from_rows([[e[3 * i + j] if 3 * i + j in support else 0 for j in range(3)]
                               for i in range(3)])
        return n - Matrix3.identity().scale(e[9])

    return st.lists(st.lists(_SMALL, min_size=10, max_size=10).map(generator), max_size=5)


@given(st.one_of(st.sampled_from(_SUPPORTS), st.sets(st.integers(0, 8))).flatmap(_generator_lists))
@settings(max_examples=80, deadline=None)
def test_lie_algebra_dimension_matches_fraction_closure(generators):
    def outcome(f):
        try:
            return f(generators)
        except NotTraceless:
            return NotTraceless

    assert outcome(lie_algebra_dimension) == outcome(_lie_reference)


def test_lie_algebra_rejects_scalar():
    with pytest.raises(NotTraceless):
        lie_algebra_dimension([Matrix3.diagonal(2, 2, 2)])


def test_curve_derivative_matches_displayed_tangent():
    assert rauzy_curve_derivatives()[0] == Matrix3.from_rows(
        [[1, 1, 2], [0, 0, 0], [0, 0, 0]]
    )


def test_irreducibility_probe_diagonal():
    rep = irreducibility_probe(diag_system(2, 1, F(1, 2)))
    assert rep["invariant_line"] == [1, 0, 0]


def test_irreducibility_probe_rauzy_none():
    rep = irreducibility_probe(rauzy_system())
    assert rep["invariant_line"] is None
    assert rep["invariant_plane"] is None


def test_irreducibility_probe_shared_axis():
    u1 = Matrix3.from_rows([[2, 1, 0], [0, 1, 0], [0, 0, F(1, 2)]])
    u2 = Matrix3.from_rows([[1, 0, 1], [0, 2, 0], [0, 0, F(1, 2)]])
    sys = SystemSpec("ut", (u1, u2), (F(1, 2), F(1, 2)))
    rep = irreducibility_probe(sys)
    assert rep["invariant_line"] == [1, 0, 0]
    # both coordinate planes y=0 and z=0 are invariant; accept any verified one
    normal = rep["invariant_plane"]
    assert normal in ([0, 1, 0], [0, 0, 1])
    for m in (u1, u2):
        image = [sum(m.transpose().entries[r][c] * normal[c] for c in range(3)) for r in range(3)]
        cross = [image[1] * normal[2] - image[2] * normal[1],
                 image[2] * normal[0] - image[0] * normal[2],
                 image[0] * normal[1] - image[1] * normal[0]]
        assert cross == [0, 0, 0]


def _is_eigenvector(m: Matrix3, v) -> bool:
    image = [sum(m.entries[r][c] * v[c] for c in range(3)) for r in range(3)]
    return all(image[i] * v[j] == image[j] * v[i] for i in range(3) for j in range(3))


def test_irreducibility_probe_repeated_eigenvalues():
    # np.roots splits a double eigenvalue: into a complex pair for 2, into two
    # reals about 1e-8 apart for 3/7; every coordinate axis is invariant here
    for a, b in ((2, F(1, 4)), (F(3, 7), F(49, 9))):
        letters = (Matrix3.diagonal(a, a, b), Matrix3.diagonal(b, a, a))
        rep = irreducibility_probe(SystemSpec("repeated", letters, (F(1, 2), F(1, 2))))
        line, normal = rep["invariant_line"], rep["invariant_plane"]
        assert line is not None and normal is not None
        for m in letters:
            assert _is_eigenvector(m, line)
            assert _is_eigenvector(m.transpose(), normal)


@pytest.mark.parametrize("letters,line,normal", [
    ((Matrix3.diagonal(2, 2, F(1, 4)),), [1, 0, 0], [1, 0, 0]),
    ((Matrix3.identity(),), [1, 0, 0], [1, 0, 0]),
    ((Matrix3.from_rows([[1, 5, 0], [0, 1, 0], [0, 0, 1]]),), [1, 0, 0], [0, 1, 0]),
    # np.roots splits the double root 3**13 into a complex pair whose real part times
    # the denominator 3**26 misses 3**39: only the exact repeated-root candidate finds it
    ((Matrix3.diagonal(3 ** 13, 3 ** 13, F(1, 3 ** 26)),), [1, 0, 0], [1, 0, 0]),
    ((Matrix3.from_rows([[3 ** 13, 1, 0], [0, 3 ** 13, 0], [0, 0, F(1, 3 ** 26)]]),),
     [1, 0, 0], [0, 1, 0]),
], ids=["diag-2-2-quarter", "identity", "shear", "double-3-13", "jordan-3-13"])
def test_irreducibility_probe_takes_the_first_vector_of_a_common_plane(letters, line, normal):
    # a 2-D eigenspace common to every letter: the first vector of its kernel basis
    rep = irreducibility_probe(SystemSpec.uniform("plane", letters))
    assert rep == {"invariant_line": line, "invariant_plane": normal}


def test_irreducibility_probe_finds_eigenvalues_under_a_large_common_denominator():
    # the common denominator is 3 * 2**60, so the eigenvalue 1/3 of the first letter is
    # 2**60 in integers, which no float near 1/3 (k * 2**-54) times 3 * 2**60 rounds to
    letters = (Matrix3.diagonal(F(1, 3), 3, 1),
               Matrix3.from_rows([[1, F(1, 2 ** 60), 0], [0, 2, 1], [0, 1, 1]]))
    rep = irreducibility_probe(SystemSpec.uniform("large-denominator", letters))
    assert rep == {"invariant_line": [1, 0, 0], "invariant_plane": None}


def _probe_reference(sys):
    """The invariant line and plane normal by Fraction arithmetic: float roots
    rationalised and verified, kernels by reduced row echelon form and common
    eigenspaces by pairwise subspace intersections."""
    def eigenvalues(a):
        t, e, d = a.trace, a.entries, a.det
        m = (e[1][1] * e[2][2] - e[1][2] * e[2][1] + e[0][0] * e[2][2] - e[0][2] * e[2][0]
             + e[0][0] * e[1][1] - e[0][1] * e[1][0])
        r1, r0 = 2 * (3 * m - t * t) / 9, (t * m - 9 * d) / 9
        cands = [-r0 / r1 if r1 else t / 3]
        for r in np.roots([1.0, -float(t), float(m), -float(d)]):
            if abs(r.imag) <= 1e-8:
                cands += [F(float(r.real)).limit_denominator(10 ** 9), F(round(float(r.real)))]
        return sorted({c for c in cands if c ** 3 - t * c ** 2 + m * c - d == 0}, reverse=True)

    def kernel(rows):
        rows, cols, pivots = [list(r) for r in rows], len(rows[0]), []
        for c in range(cols):
            r = len(pivots)
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
        basis = []
        for fc in (c for c in range(cols) if c not in pivots):
            v = [F(0)] * cols
            v[fc] = F(1)
            for i, pc in enumerate(pivots):
                v[pc] = -rows[i][fc]
            basis.append(v)
        return basis

    def intersect(b1, b2):
        stacked = [[v[i] for v in b1] + [-v[i] for v in b2] for i in range(3)]
        vecs = ([sum(c * v[i] for c, v in zip(coeff, b1)) for i in range(3)]
                for coeff in kernel(stacked))
        return [v for v in vecs if any(v)]

    def common_eigenvector(letters):
        pools = None
        for a in letters:
            spaces = [kernel((a - Matrix3.identity().scale(lam)).entries) for lam in eigenvalues(a)]
            spaces = [s for s in spaces if s]
            pools = spaces if pools is None else [
                inter for basis in pools for space in spaces if (inter := intersect(basis, space))]
            if not pools:
                return None
        w = [x * math.lcm(*(x.denominator for x in pools[0][0])) for x in pools[0][0]]
        g = math.gcd(*(int(x) for x in w))
        return [x / (g if next(x for x in w if x) > 0 else -g) for x in w]

    letters = fraction_letters(sys)
    return {"invariant_line": common_eigenvector(letters),
            "invariant_plane": common_eigenvector([a.transpose() for a in letters])}


_EIGEN = [F(1), F(-1), F(2), F(1, 2), F(-2), F(3), F(1, 3), F(2, 3), F(-3, 2), F(4)]
_UPPER = [(0, 1), (0, 2), (1, 2)]


def _probe_systems(count, seed):
    """Seeded random systems of conjugates ``P^-1 U P``, ``U`` upper triangular
    with a rational diagonal of product 1: one ``P`` for every letter and one
    off-diagonal pattern (shared eigenlines and eigenplanes), or one each;
    repeated eigenvalues, duplicate letters, a conjugator, and now and then a
    unimodular letter of irrational spectrum or a conjugated unit shear of
    corner ``2**-60``, which makes the common denominator large."""
    rng = np.random.default_rng(seed)

    def invertible():
        while (p := Matrix3.from_rows(rng.integers(-2, 3, size=(3, 3)).tolist())).det == 0:
            pass
        return p

    for _ in range(count):
        shared, pattern = rng.random() < 0.7, [c for c in _UPPER if rng.random() < 0.5]
        p, letters = invertible(), []
        for _ in range(int(rng.integers(1, 4))):
            a, b = (_EIGEN[i] for i in rng.integers(len(_EIGEN), size=2))
            b = a if rng.random() < 0.4 else b
            u = [[F(0)] * 3 for _ in range(3)]
            for i, x in enumerate([[a, b, 1 / (a * b)][j] for j in rng.permutation(3)]):
                u[i][i] = x
            for i, j in (pattern if shared else [c for c in _UPPER if rng.random() < 0.5]):
                u[i][j] = F(int(rng.integers(-3, 4)), int(rng.integers(1, 3)))
            u = Matrix3.from_rows(u)
            if rng.random() < 0.1:  # unit lower times unit upper
                u = mat_mul(Matrix3.from_rows([[1, 0, 0], [int(rng.integers(-2, 3)), 1, 0],
                                               [int(rng.integers(-2, 3)), 1, 1]]),
                            Matrix3.from_rows([[1, 1, int(rng.integers(-2, 3))], [0, 1, 2],
                                               [0, 0, 1]]))
            q = p if shared else invertible()
            letters.append(mat_mul(mat_mul(q.inverse(), u), q))
        if rng.random() < 0.2:
            i, j = _UPPER[int(rng.integers(len(_UPPER)))]
            s = [[int(r == c) for c in range(3)] for r in range(3)]
            s[i][j] = F(1, 2 ** 60)
            letters.append(mat_mul(mat_mul(p.inverse(), Matrix3.from_rows(s)), p))
        if rng.random() < 0.25:
            letters.append(letters[int(rng.integers(len(letters)))])
        yield SystemSpec.uniform("random", letters, invertible() if rng.random() < 0.3 else None)


def test_irreducibility_probe_matches_fraction_probe(monkeypatch):
    ranks, first = [], semigroup._first_kernel_vector
    monkeypatch.setattr(semigroup, "_first_kernel_vector",
                        lambda e: ranks.append(len(e)) or first(e))
    for sys in _probe_systems(1000, seed=7):
        assert irreducibility_probe(sys) == _probe_reference(sys), sys
    # witnesses from common eigenspaces of every dimension: lines, planes and all of space
    assert set(ranks) == {0, 1, 2}


def test_irreducibility_probe_reads_no_matrix3_letters(monkeypatch, tmp_path):
    def refuse(sys):
        raise AssertionError("the exact integer letters are the probe's input")

    monkeypatch.setattr(SystemSpec, "effective_alphabet", property(refuse))
    rep = irreducibility_probe(rauzy_gamma_system(2))
    assert rep == {"invariant_line": None, "invariant_plane": None}
    assert main(["check", "--system", "rauzy.json", "--out", str(tmp_path / "check.json")]) == 0


PAST_FLOAT = Matrix3.diagonal(2 ** 1100, 1, F(1, 2 ** 1100))
UNIT_SHEAR = Matrix3.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])


@pytest.mark.parametrize("view", ["letters_float", "letters_inverse_float"])
def test_float_letters_past_float_range_raise(view):
    with pytest.raises(FloatRange):
        getattr(SystemSpec.uniform("huge", (PAST_FLOAT,)), view)


def test_diophantine_gap_past_float_range_raises():
    with pytest.raises(FloatRange):
        diophantine_check(SystemSpec.uniform("huge", (PAST_FLOAT, UNIT_SHEAR)), 1)
    # an exact gap of 2**-1100 rounds to 0.0 without an error: distinct, but past range
    tiny = [Matrix3.from_rows([[1, 0, 0], [0, 1, 0], [F(1, 2 ** e), 0, 1]]) for e in (1100, 1099)]
    with pytest.raises(FloatRange):
        diophantine_check(SystemSpec.uniform("tiny", tiny), 1)


def test_irreducibility_probe_past_float_range_raises():
    with pytest.raises(FloatRange):
        irreducibility_probe(SystemSpec.uniform("huge", (PAST_FLOAT,)))
    # up to the float range of the letters themselves, 2**1023, the roots are found
    huge = Matrix3.diagonal(2 ** 1023, 1, F(1, 2 ** 1023))
    rep = irreducibility_probe(SystemSpec.uniform("huge", (huge, huge)))
    assert rep == {"invariant_line": [1, 0, 0], "invariant_plane": [1, 0, 0]}
