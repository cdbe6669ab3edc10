import gc
import itertools
import math
import tracemalloc
import weakref
from fractions import Fraction as F
from sys import getrefcount

import numpy as np
import pytest

from projdim.cli import main
from projdim.errors import BudgetExceeded, DomainError, NotPositive
from projdim.linalg import Matrix3
from projdim.linalg import log_ratio_batch
from projdim.pressure import (
    _PAIR_SAMPLE_CAP,
    _fit_multiplicativity,
    _log_phi,
    _log_ratios,
    _logsumexp,
    _ratio_levels,
    affinity_dimension,
    partition_sum,
    pressure_estimate,
    rauzy_dimension,
    rauzy_gamma_system,
    zeta_truncated,
)
from projdim import semigroup
from projdim.rng import make_rng
from projdim.semigroup import Frontier, LetterOrbits, SystemSpec
from projdim.systems import (
    gamma_letter,
    positivizing_conjugator,
    rauzy_alphabet,
    rauzy_system,
    triple9_system,
)


def singleton9():
    return SystemSpec.uniform("d9", (Matrix3.diagonal(9, 1, F(1, 9)),))


def brute_force_log_sum(sys, s, n):
    """Independent oracle: multiply float matrices and sum phi^s via LAPACK."""
    letters = [a.float_view for a in sys.effective_alphabet]
    total = 0.0
    for combo in itertools.product(letters, repeat=n):
        m = combo[0]
        for f in combo[1:]:
            m = m @ f
        sv = np.linalg.svd(m, compute_uv=False)
        r21, r31 = sv[1] / sv[0], sv[2] / sv[0]
        total += r21 ** s if s <= 1 else r21 * r31 ** (s - 1)
    return math.log(total)


def test_partition_sum_singleton_diagonal():
    assert partition_sum(singleton9(), 1.0, 4) == pytest.approx(math.log(9.0 ** -4), rel=1e-12)


def test_partition_sum_s0_exact():
    sys = rauzy_system()
    assert partition_sum(sys, 0.0, 3) == 3 * math.log(3)


def test_partition_sum_matches_brute_force():
    sys = rauzy_gamma_system(2)
    for s in (0.5, 1.5, 1.9):
        mine = partition_sum(sys, s, 3)
        ref = brute_force_log_sum(sys, s, 3)
        assert mine == pytest.approx(ref, rel=1e-8, abs=1e-8)
    sys10 = rauzy_gamma_system(10)
    assert partition_sum(sys10, 1.5, 2) == pytest.approx(
        brute_force_log_sum(sys10, 1.5, 2), rel=1e-8
    )


def test_partition_sum_gamma20_depth2_brute_force():
    # the acceptance-scale alphabet, cross-checked word by word via LAPACK
    sys = rauzy_gamma_system(20)
    assert partition_sum(sys, 1.6, 2) == pytest.approx(
        brute_force_log_sum(sys, 1.6, 2), rel=1e-8
    )


def test_pressure_estimate_exactly_multiplicative():
    sys = triple9_system()
    for s in (0.25, 0.5, 1.0):
        est = pressure_estimate(sys, s, 3)
        want = math.log(3) - s * math.log(9)
        assert est.raw == pytest.approx(want, abs=1e-12)
        assert est.upper == pytest.approx(want, abs=1e-9)
        assert est.lower == pytest.approx(want, abs=1e-9)
        assert est.lower <= est.raw <= est.upper
    assert pressure_estimate(sys, 0.5, 3).raw == pytest.approx(0.0, abs=1e-12)


def test_pressure_brackets_contain_raw_and_narrow():
    sys = rauzy_gamma_system(3)
    widths = []
    for n_max in (2, 4):
        est = pressure_estimate(sys, 1.7, n_max)
        assert est.lower <= est.raw <= est.upper
        assert est.diagnostics["heuristic_brackets"] is True
        widths.append(est.upper - est.lower)
    assert widths[1] <= widths[0] + 1e-12


def test_pressure_requires_positive_like():
    with pytest.raises(NotPositive):
        pressure_estimate(rauzy_system(), 1.0, 2)
    with pytest.raises(NotPositive):
        affinity_dimension(rauzy_system())


def reference_fit(sys, s, max_len):
    """The multiplicativity fit as a pool walk of its own with einsum pair products."""
    k = len(sys)
    walk = Frontier(sys)
    levels = [walk.states + walk.exps]
    while len(levels) < max_len and len(walk) * k <= 4000:
        walk.grow()
        levels.append(walk.states + walk.exps)
    pool, pool_ext, e1, e2 = (np.concatenate(parts) for parts in zip(*levels))
    m = len(pool)
    if m * m <= _PAIR_SAMPLE_CAP:
        ia, ib = (g.ravel() for g in np.meshgrid(np.arange(m), np.arange(m), indexing="ij"))
    else:
        rng = make_rng(0)
        ia = rng.integers(0, m, size=_PAIR_SAMPLE_CAP)
        ib = rng.integers(0, m, size=_PAIR_SAMPLE_CAP)

    def log_phi(prod, prod_ext, f1, f2):
        la21, la31 = log_ratio_batch(prod, prod_ext)
        return _log_phi(s, la21 + (f2 - 2 * f1) * math.log(2.0),
                        la31 - (f1 + f2) * math.log(2.0))

    ab = np.einsum("aij,ajk->aik", pool[ia], pool[ib])
    ab_ext = np.einsum("aij,ajk->aik", pool_ext[ia], pool_ext[ib])
    one = log_phi(pool, pool_ext, e1, e2)
    ratio = np.exp(log_phi(ab, ab_ext, e1[ia] + e1[ib], e2[ia] + e2[ib]) - one[ia] - one[ib])
    return {"fitted_C": float(ratio.max()), "fitted_c": float(ratio.min()), "pairs": len(ratio)}


# one letter whose products pass 2**64 and whose phi^1.5 underflows by length 30
BIG = Matrix3.diagonal(10 ** 4, 9000, F(1, 9 * 10 ** 7))


@pytest.mark.parametrize("make, max_len, sampled", [
    (lambda: rauzy_gamma_system(1), 2, False),
    (lambda: rauzy_gamma_system(2), 2, True),
    (lambda: rauzy_gamma_system(20), 1, True),  # m**2 = 14,400 pairs
    (triple9_system, 3, False),
    (lambda: SystemSpec.uniform("big", (BIG,)), 30, False),
], ids=["gamma1", "gamma2", "gamma20", "triple9", "big"])
def test_table_fit_matches_the_pool_walk(make, max_len, sampled):
    for s in (0.0, 0.75, 1.5, 2.5):
        sys = make()
        fit, ref = _fit_multiplicativity(sys, s, max_len), reference_fit(sys, s, max_len)
        assert fit["pairs"] == ref["pairs"] and (fit["pairs"] == _PAIR_SAMPLE_CAP) == sampled
        for key in ("fitted_C", "fitted_c"):
            assert fit[key] == pytest.approx(ref[key], rel=1e-14)


@pytest.mark.parametrize("run, table, pool", [
    (lambda sys: pressure_estimate(sys, 1.5, 1), 2, 12),
    (lambda sys: pressure_estimate(sys, 1.5, 3), 2 * (1 + 12 + 12 ** 2), 12),
    (lambda sys: affinity_dimension(sys), 2 * (1 + 12 + 12 ** 2), 12),
    (lambda sys: affinity_dimension(sys, n_max=1), 2, 12),
    (lambda sys: pressure_estimate(sys, 0.0, 4), None, 12 + 12 ** 2),  # phi^0 = 1: no table
], ids=["pressure-1", "pressure-3", "dimension", "dimension-1", "pressure-s0"])
def test_pressure_layer_walks_each_top_letter_once(run, table, pool, monkeypatch):
    import projdim.pressure as pressure_mod

    real, made = pressure_mod.Frontier, []

    def frontier(sys, **kw):
        made.append((kw.get("tops"), real(sys, **kw)))
        return made[-1][1]

    monkeypatch.setattr(pressure_mod, "Frontier", frontier)
    sys = rauzy_gamma_system(2)
    run(sys)
    # the table: one walk from the orbits' representatives of the letter
    # symmetries, Γ_2's tops 0 and 6, over each of the table's words once
    assert [(tuple(tops), walk.visited) for tops, walk in made if tops is not None] == \
        ([((0, 6), table)] if table else [])
    # the fit: one walk over every top, down to its pool of short words
    assert [walk.visited for tops, walk in made if tops is None] == [pool]


def test_affinity_dimension_triple9():
    est = affinity_dimension(triple9_system(), tol=1e-4, n_max=3)
    assert est.diagnostics["gate"] == "diagonal"
    assert est.value == pytest.approx(0.5, abs=1e-3)
    assert est.bracket_lo <= est.value <= est.bracket_hi
    assert est.diagnostics["grid_monotone_decreasing"] is True


def test_affinity_dimension_bracket_contains_root(monkeypatch):
    # with C = c = 1 every curve is the raw one, so the bracket is one
    # bisection's final interval and must hold triple9's dimension 1/2
    import projdim.pressure as pressure_mod

    monkeypatch.setattr(pressure_mod, "_fit_multiplicativity",
                        lambda *args: {"fitted_C": 1.0, "fitted_c": 1.0, "pairs": 0})
    est = affinity_dimension(triple9_system(), tol=1e-3, n_max=4)
    assert est.bracket_lo <= 0.5 <= est.bracket_hi
    assert est.bracket_hi - est.bracket_lo <= 1e-3
    assert est.bracket_lo <= est.value <= est.bracket_hi


def test_affinity_dimension_bracket_takes_point_ends(monkeypatch):
    # C = 1e300 keeps the upper curve positive at s = 2 and c = 1e-300 keeps
    # the lower one nonpositive at s = 0, so both bisections return an end
    import projdim.pressure as pressure_mod

    monkeypatch.setattr(pressure_mod, "_fit_multiplicativity",
                        lambda *args: {"fitted_C": 1e300, "fitted_c": 1e-300, "pairs": 0})
    est = affinity_dimension(rauzy_gamma_system(1))
    assert est.bracket == [0.0, 2.0]
    assert est.value == 1.15380859375


def test_affinity_dimension_singleton_is_zero():
    est = affinity_dimension(singleton9(), tol=1e-6, n_max=3)
    assert est.value == 0.0
    assert est.bracket_hi == 0.0


def test_affinity_dimension_bound_only_when_supercritical():
    # many copies of one mild letter: level sums grow like 100^n * phi^s(g^n)
    g = gamma_letter(0, 1, 1)
    sys = SystemSpec.uniform("fat", tuple([g] * 100), conjugator=positivizing_conjugator())
    est = affinity_dimension(sys, tol=1e-3, n_max=2)
    assert est.diagnostics["bound_only"] == "lower"
    assert est.value == 2.0 and est.bracket_hi == math.inf


def test_pressure_grid_piecewise_convex_and_decreasing():
    sys = rauzy_gamma_system(1)
    grid = [i / 8 for i in range(17)]
    vals = [partition_sum(sys, s, 3) / 3 for s in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    for lo, hi in ((0.0, 1.0), (1.0, 2.0)):
        seg = [(s, v) for s, v in zip(grid, vals) if lo <= s <= hi]
        sec = [a - 2 * b + c for (_, a), (_, b), (_, c) in zip(seg, seg[1:], seg[2:])]
        assert all(d >= -1e-9 for d in sec)


def test_zeta_truncated_geometric():
    z = zeta_truncated(singleton9(), 1.0, 6)
    want = (1 - 9.0 ** -6) / 8.0
    assert z.value == pytest.approx(want, rel=1e-12)
    assert z.words_evaluated == 6


def test_zeta_truncated_s0_partial_sum():
    z = zeta_truncated(rauzy_system(), 0.0, 4)
    assert z.value == pytest.approx(3 + 9 + 27 + 81, rel=1e-14)


def test_zeta_truncated_matches_brute_force():
    sys = rauzy_gamma_system(2)
    z = zeta_truncated(sys, 1.9, 3)
    ref = sum(math.exp(brute_force_log_sum(sys, 1.9, n)) for n in (1, 2, 3))
    assert z.value == pytest.approx(ref, rel=1e-8)


def test_gamma_system_letters_and_positivity():
    sys = rauzy_gamma_system(1)
    assert len(sys) == 6
    assert sys.alphabet[0] == gamma_letter(0, 1, 1)
    # boundary parameter: nonnegative with exact zeros in the n = 1 letters
    from projdim.semigroup import is_primitive_nonnegative, positivity_report

    assert positivity_report(sys)["positive"] is False
    assert is_primitive_nonnegative(sys)
    # away from the boundary the letters are strictly positive
    sys6 = rauzy_gamma_system(1, F(1, 6))
    assert positivity_report(sys6)["positive"] is True


def test_pressure_rejects_non_finite_exponents_and_depth_zero():
    sys = rauzy_gamma_system(1)
    for s in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite"):
            pressure_estimate(sys, s, 2)
        with pytest.raises(DomainError, match="finite"):
            affinity_dimension(sys, tol=s, n_max=2)
    with pytest.raises(ValueError, match="depth must be >= 1"):
        pressure_estimate(sys, 1.0, 0)


def test_bisection_ends_below_float_resolution(monkeypatch):
    import projdim.pressure as pressure_mod

    calls = []
    real = pressure_mod.partition_sum

    def counted(*args):
        calls.append(args)
        assert len(calls) < 10_000, "the bisection does not end"
        return real(*args)

    monkeypatch.setattr(pressure_mod, "partition_sum", counted)
    est = affinity_dimension(rauzy_gamma_system(1), tol=1e-300, n_max=2)
    assert est.bracket_lo <= est.value <= est.bracket_hi


def test_gamma_system_rejects_bad_epsilon():
    with pytest.raises(NotPositive):
        rauzy_gamma_system(1, F(1, 3))
    with pytest.raises(DomainError):
        rauzy_gamma_system(0)
    with pytest.raises(DomainError):
        rauzy_gamma_system(1, F(3, 2))


def test_rauzy_dimension_ladder():
    est = rauzy_dimension(4, n_max=3, tol=1e-3)
    ladder = est.diagnostics["ladder"]
    assert [step["N"] for step in ladder] == [1, 2, 4]
    values = [step["value"] for step in ladder]
    assert values[0] > 1.0
    assert all(a <= b + 2e-3 for a, b in zip(values, values[1:]))
    assert est.value == ladder[-1]["value"]
    assert est.diagnostics["gate"] == "primitive"


def table_walks(monkeypatch) -> list:
    """``(system, tops, walk)`` of each word-table walk that ``pressure`` makes from now on."""
    import projdim.pressure as pressure_mod

    real, made = pressure_mod.Frontier, []

    def frontier(sys, **kw):
        walk = real(sys, **kw)
        if kw.get("tops") is not None:  # the fit walks from every letter
            made.append((sys, tuple(kw["tops"]), walk))
        return walk

    monkeypatch.setattr(pressure_mod, "Frontier", frontier)
    return made


def test_word_levels_are_built_once_and_freed_with_the_system(monkeypatch):
    built = table_walks(monkeypatch)
    sys = rauzy_gamma_system(2)
    first = partition_sum(sys, 1.3, 3)
    # one walk from the orbits' representatives of the letter symmetries, over each word once
    assert [(tops, walk.visited) for _, tops, walk in built] == [((0, 6), 2 + 24 + 288)]
    assert [len(arr) for level in sys.word_levels[3] for arr in level] == [2, 2, 24, 24, 288, 288]
    assert partition_sum(sys, 1.3, 3) == first
    partition_sum(sys, 0.7, 3)
    assert len(built) == 1

    # depth 4 is built once and replaces depth 3, whose levels are its prefix
    pressure_estimate(sys, 1.5, 4)
    assert len(built) == 2 and list(sys.word_levels) == [4]
    assert (built[1][1], built[1][2].visited) == ((0, 6), 2 + 24 + 288 + 3456)
    assert partition_sum(sys, 1.3, 3) == first
    assert len(built) == 2

    del built[:]  # it holds the system
    spec, level = weakref.ref(sys), weakref.ref(sys.word_levels[4][-1][0])
    del sys
    gc.collect()
    assert spec() is None and level() is None


def test_in_place_logsumexp_leaves_the_word_levels_unchanged():
    # _logsumexp overwrites the fresh array _log_phi returns, never a level
    sys = rauzy_gamma_system(2)
    grid = [(s, n) for s in (0.5, 1.0, 1.5, 2.5) for n in (3, 2, 1)]
    first = [partition_sum(sys, s, n) for s, n in grid]
    levels = [arr for level in sys.word_levels[3] for arr in level]
    saved = [arr.copy() for arr in levels]
    sys.level_sums.clear()  # sum again, not read the kept sums
    assert [partition_sum(sys, s, n) for s, n in grid] == first
    for arr, copy in zip(levels, saved):
        assert not arr.flags.writeable and np.array_equal(arr, copy)

    logs = np.random.default_rng(9).normal(scale=30.0, size=10_001)
    m = float(logs.max())
    allocating = m + math.log(float(np.sum(np.exp(logs - m))))
    assert _logsumexp(logs.copy(), np.ones(1, dtype=int)) == allocating


def test_level_sums_are_summed_once_and_freed_with_the_system(monkeypatch):
    import projdim.pressure as pressure_mod

    lse = pressure_mod._logsumexp
    summed = []
    monkeypatch.setattr(pressure_mod, "_logsumexp",
                        lambda logs, weights: summed.append(1) or lse(logs, weights))
    sys = rauzy_gamma_system(2)
    grid = [(s, n) for s in (0.5, 1.5) for n in (2, 1)]
    first = [partition_sum(sys, s, n) for s, n in grid]
    assert [partition_sum(sys, s, n) for s, n in grid] == first
    assert len(summed) == len(grid) and sys.level_sums == dict(zip(grid, first))

    cache, spec = sys.level_sums, weakref.ref(sys)
    held = getrefcount(cache)
    del sys
    gc.collect()
    assert spec() is None and getrefcount(cache) == held - 1  # only this test holds it


def test_ladder_rungs_are_corners_of_the_top_table(monkeypatch):
    import projdim.pressure as pressure_mod

    make, solve = pressure_mod.rauzy_gamma_system, pressure_mod.affinity_dimension
    made, solved = [], []
    built = table_walks(monkeypatch)
    monkeypatch.setattr(pressure_mod, "rauzy_gamma_system",
                        lambda N: made.append(make(N)) or made[-1])
    monkeypatch.setattr(pressure_mod, "affinity_dimension",
                        lambda sys, **kw: solved.append(sys) or solve(sys, **kw))
    est = rauzy_dimension(4, 3, 1e-3)
    assert [len(sys) for sys in made] == [24]  # the rungs are slices of the top rung
    assert [len(sys) for sys in solved] == [24, 12, 6] and solved[0] is made[0]
    # one walk from the orbits' representatives of Γ_4's letter symmetries
    assert [(tops, walk.visited) for _, tops, walk in built] == \
        [((0, 6, 12, 18), 4 * (1 + 24 + 24 ** 2))]
    assert built[0][0] is made[0]
    assert [step["N"] for step in est.diagnostics["ladder"]] == [1, 2, 4]

    for sys in solved[1:]:
        ref = make(len(sys) // 6)
        assert (sys.label, sys.alphabet, sys.probabilities, sys.conjugator) == \
            (ref.label, ref.alphabet, ref.probabilities, ref.conjugator)
        assert sys.effective_alphabet == ref.effective_alphabet
        corner = [arr for level in sys.word_levels[3] for arr in level]
        own = [arr for level in _ratio_levels(ref, 3) for arr in level]
        assert list(sys.word_levels) == [3]
        # the rung's own representatives, one block of (6n)**(d-1) words each
        n = len(sys) // 6
        assert sys.letter_orbits.reps == tuple(range(0, 6 * n, 6))
        assert [len(arr) for arr in corner] == [n * (6 * n) ** d for d in (0, 0, 1, 1, 2, 2)]
        assert [arr.tobytes() for arr in corner] == [arr.tobytes() for arr in own]
        assert not any(arr.flags.writeable for arr in corner)


def walked_table(sys, depth):
    """The word table with the subtree under every top letter walked whole,
    one level at a time, in the full lexicographic order."""
    per_top = []
    for top in range(len(sys)):
        walk, levels = Frontier(sys, tops=[top]), []
        for n in range(depth):
            if n:
                walk.grow()
            levels.append(_log_ratios(*walk.states, *walk.exps))
        per_top.append(levels)
    return tuple(tuple(np.concatenate(arrs) for arrs in zip(*level)) for level in zip(*per_top))


def full_build(sys):
    """``sys`` told that each letter is its own orbit: every top is walked and kept."""
    k = len(sys)
    vars(sys)["letter_orbits"] = LetterOrbits(tuple(range(k)), np.ones(k, dtype=np.int64))
    return sys


def generic_gamma2():
    """Γ_2's letters under a conjugator that no permutation matrix commutes with."""
    conj = Matrix3.from_rows([[1, F(-1, 5), F(-1, 7)], [F(-1, 6), 1, F(-1, 5)],
                              [F(-1, 9), F(-1, 8), 1]])
    return SystemSpec.uniform("generic", rauzy_gamma_system(2).alphabet, conj)


def mixed_orbits():
    """The three Rauzy generators and Γ_1's six letters, conjugated: S3 orbits of sizes 3 and 6."""
    return SystemSpec.uniform("mixed", rauzy_alphabet() + rauzy_gamma_system(1).alphabet,
                              positivizing_conjugator())


def test_symmetric_table_matches_the_full_build():
    sys, depth = rauzy_gamma_system(5), 3
    k, reps = len(sys), sys.letter_orbits.reps
    assert reps == (0, 6, 12, 18, 24) and list(sys.letter_orbits.sizes) == [6] * 5
    walked = walked_table(rauzy_gamma_system(5), depth)
    for level, ref in zip(_ratio_levels(sys, depth), walked):
        for arr, want in zip(level, ref):
            blocks = want.reshape(k, -1)[list(reps)].reshape(-1)
            assert arr.tobytes() == blocks.tobytes()  # bit for bit


@pytest.mark.parametrize("make, sizes", [(lambda: rauzy_gamma_system(1), [6]),
                                         (lambda: rauzy_gamma_system(2), [6] * 2),
                                         (lambda: rauzy_gamma_system(5), [6] * 5),
                                         (mixed_orbits, [3, 6])],
                         ids=["gamma1", "gamma2", "gamma5", "mixed"])
def test_orbit_weighted_sums_match_the_full_build(make, sizes):
    sym, full = make(), full_build(make())
    assert list(sym.letter_orbits.sizes) == sizes
    assert full.letter_orbits.reps == tuple(range(len(full)))
    for s in (0.5, 1.25, 1.6):
        for n in (1, 2, 3, 4):
            assert abs(partition_sum(sym, s, n) - partition_sum(full, s, n)) <= 1e-15 * n
    # the fit does not read the table: its constants do not depend on the symmetries
    for s in (0.75, 1.5, 2.5):
        assert _fit_multiplicativity(sym, s, 2) == _fit_multiplicativity(full, s, 2)


LEVEL_TABLES = {
    "gamma2": (lambda: rauzy_gamma_system(2), 5),
    "gamma5": (lambda: rauzy_gamma_system(5), 4),
    "triple9": (triple9_system, 5),
    "generic": (generic_gamma2, 4),
}


@pytest.mark.parametrize("case", LEVEL_TABLES)
def test_level_table_blocks_equal_one_block(case, monkeypatch):
    make, depth = LEVEL_TABLES[case]

    def table():
        return [arr.view(np.uint64).tobytes() for level in _ratio_levels(make(), depth)
                for arr in level]

    default = table()
    # one parent per block; partial blocks and queues of several parts; one block per level
    for rows in (1, 100, 10 ** 9):
        monkeypatch.setattr(semigroup, "_BLOCK_ROWS", rows)
        assert table() == default


def test_level_table_build_peaks_under_8_mb():
    sys = rauzy_gamma_system(5)
    sys.letters_float, sys.letters_ext2_float, sys.letter_orbits  # set-up, not the build
    tracemalloc.start()
    try:
        levels = _ratio_levels(sys, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 2.2 MB of table; a whole level per representative walked at once peaked at 20.8 MB
    assert sum(arr.nbytes for level in levels for arr in level) == 16 * 5 * (1 + 30 + 900 + 27_000)
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("make, depth", [(triple9_system, 4), (generic_gamma2, 3)],
                         ids=["triple9", "generic"])
def test_system_without_symmetry_walks_every_top(make, depth):
    sys = make()
    assert sys.letter_orbits.reps == tuple(range(len(sys)))
    table = [arr.tobytes() for level in _ratio_levels(sys, depth) for arr in level]
    assert table == [arr.tobytes() for level in walked_table(make(), depth) for arr in level]
    # the unweighted sum of the parent layout, bit for bit
    full = walked_table(make(), depth)
    for s in (0.5, 1.5, 2.5):
        for n in range(1, depth + 1):
            m = _log_phi(s, *full[n - 1])
            top = float(m.max())
            assert partition_sum(sys, s, n) == top + math.log(float(np.sum(np.exp(m - top))))


def test_rauzy_budget_is_checked_before_the_top_rung_is_made(monkeypatch):
    import projdim.pressure as pressure_mod

    made = []
    monkeypatch.setattr(pressure_mod, "rauzy_gamma_system", lambda N: made.append(N))
    monkeypatch.setenv("PROJDIM_NODE_CAP", str(6 * 50 + (6 * 50) ** 2 - 1))
    with pytest.raises(BudgetExceeded):
        rauzy_dimension(50, n_max=2)
    assert made == []


@pytest.mark.parametrize("k", [100, 102], ids=["all-pairs", "sampled"])
def test_depth_one_fit_over_the_node_cap(k, monkeypatch):
    # k + k**2 words exceed the cap: the fit multiplies the sampled letter pairs
    monkeypatch.setenv("PROJDIM_NODE_CAP", "1000")

    def make():
        return SystemSpec.uniform("gamma-k", rauzy_gamma_system(17).alphabet[:k],
                                  positivizing_conjugator())

    for s in (0.75, 1.5, 2.5):
        fit, ref = _fit_multiplicativity(make(), s, 1), reference_fit(make(), s, 1)
        assert fit["pairs"] == ref["pairs"] == min(k * k, _PAIR_SAMPLE_CAP)
        for key in ("fitted_C", "fitted_c"):
            assert fit[key] == pytest.approx(ref[key], rel=1e-14)
    sys = make()
    est = pressure_estimate(sys, 1.5, 1)
    assert est.lower <= est.raw <= est.upper
    dim = affinity_dimension(sys, n_max=1)
    assert dim.bracket_lo <= dim.value <= dim.bracket_hi
    assert list(sys.word_levels) == [1]


def test_uniform_contraction_decay_fit():
    # max word ratio a2/a1 decays geometrically: fitted r < 1 through depth 8
    sys = rauzy_gamma_system(1)
    levels = _ratio_levels(sys, 8)
    worst = [float(l21.max()) for l21, _ in levels]
    assert all(w < 0.0 for w in worst)
    r_fit = math.exp((worst[7] - worst[3]) / 4.0)
    assert r_fit < 1.0
    # and the per-level maxima themselves never increase
    assert all(a >= b for a, b in zip(worst, worst[1:]))


def test_bisection_postcondition_small_residual():
    sys = rauzy_gamma_system(2)
    tol = 1e-3
    est = affinity_dimension(sys, tol=tol, n_max=3)
    grid_p = est.diagnostics["grid_pressure"]
    lipschitz = max(
        abs(a - b) / 0.25 for a, b in zip(grid_p, grid_p[1:])
    )
    residual = abs(partition_sum(sys, est.value, 3) / 3)
    assert residual <= lipschitz * tol


def test_fekete_monotone_along_doubling():
    sys = rauzy_gamma_system(1)
    est = pressure_estimate(sys, 1.5, 4)
    assert est.diagnostics["gate"] == "primitive"
    c_up = est.submult_constant
    seq = [
        (partition_sum(sys, 1.5, n) + math.log(c_up)) / n for n in (1, 2, 4)
    ]
    assert seq[0] >= seq[1] - 1e-12 >= seq[2] - 2e-12
