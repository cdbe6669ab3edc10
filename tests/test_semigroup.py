import math
from fractions import Fraction as F

import numpy as np
import pytest

from projdim import pressure
from projdim.cover import svd_cover_upper
from projdim.errors import BadVector, BudgetExceeded, NotContracting, NotTraceless
from projdim.linalg import Matrix3, mat_mul
from projdim.pressure import (
    partition_sum,
    pressure_estimate,
    rauzy_gamma_system,
    zeta_truncated,
)
from projdim.projective import plane_frame_orthonormal, xi_partition
from projdim.semigroup import (
    SystemSpec,
    Word,
    diophantine_check,
    enumerate_words,
    irreducibility_probe,
    is_primitive_nonnegative,
    lie_algebra_dimension,
    positivity_report,
    stopping_partition_psi,
)
from projdim.systems import (
    gamma_letter,
    positivizing_conjugator,
    rauzy_alphabet,
    rauzy_curve_derivatives,
    rauzy_system,
    triple9_system,
)


def diag_system(*entries):
    return SystemSpec.uniform("diag", (Matrix3.diagonal(*entries),))


def test_system_spec_validation():
    a1, a2, a3 = rauzy_alphabet()
    with pytest.raises(BadVector):
        SystemSpec("bad", (a1,), (F(1, 2),))
    with pytest.raises(BadVector):
        SystemSpec("bad", (a1, a2), (F(1, 2), F(1, 3)))
    with pytest.raises(ValueError):
        SystemSpec.uniform("bad", (Matrix3.diagonal(2, 1, 1),))


def test_enumerate_words_counts_and_order():
    sys = rauzy_system()
    words = list(enumerate_words(sys, 2))
    assert len(words) == 9
    assert words[0].letters == (0, 0) and words[-1].letters == (2, 2)
    ones = list(enumerate_words(sys, 1))
    assert [w.product for w in ones] == list(sys.effective_alphabet)


def test_enumerate_words_products_distinct_at_depth_5():
    sys = rauzy_system()
    seen = {w.product.entries for w in enumerate_words(sys, 5)}
    assert len(seen) == 3 ** 5


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
        stopping_partition_psi(rauzy_system(), 8, max_len=12)


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


FRAME = plane_frame_orthonormal(np.ones(3) / math.sqrt(3.0))


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
    monkeypatch.setattr(pressure, "_ratio_cache", {})
    with pytest.raises(BudgetExceeded):
        run(sys)


def test_psi_is_prefix_free_with_full_mass():
    from projdim.pressure import rauzy_gamma_system

    sys = rauzy_gamma_system(10)
    words = stopping_partition_psi(sys, 8)
    keys = {w.letters for w in words}
    assert len(keys) == len(words)
    for w in words:
        for m in range(1, len(w)):
            assert w.letters[:m] not in keys
    # uniform letters: exact mass by length counts
    from collections import Counter
    counts = Counter(len(w) for w in words)
    mass = sum((cnt * F(1, len(sys)) ** length for length, cnt in counts.items()), F(0))
    assert mass == 1


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
    assert rep["first_collision"][0] == 1


def test_diophantine_cross_length_collision_detected_per_level():
    # {A1, A1*A2} shares products across word shapes at equal lengths
    a = rauzy_alphabet()
    sys = SystemSpec("mix", (a[0], mat_mul(a[0], a[1])), (F(1, 2), F(1, 2)))
    rep = diophantine_check(sys, 6)
    assert isinstance(rep["all_distinct"], bool)


def test_lie_algebra_dimension_examples():
    derivs = rauzy_curve_derivatives()
    assert lie_algebra_dimension([]) == 0
    assert lie_algebra_dimension([derivs[0]]) == 1
    assert lie_algebra_dimension(derivs) == 8
    # monotone under adding generators, capped at 8
    dims = [lie_algebra_dimension(derivs[: k + 1]) for k in range(6)]
    assert dims == sorted(dims) and dims[-1] == 8


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


def test_enumerate_words_budget():
    from projdim.errors import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        list(enumerate_words(rauzy_system(), 20))


def test_word_probability():
    sys = rauzy_system()
    w = Word((0, 1, 2), Matrix3.identity())
    assert w.probability(sys) == F(1, 27)
