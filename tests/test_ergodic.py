import json
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from projdim.errors import BadVector, DegenerateSpectrum, DomainError, FloatRange
from projdim.ergodic import (
    LyapunovStats,
    _entropy_slope,
    dyadic_entropy,
    empirical_delta,
    furstenberg_plane_sample,
    lyapunov_dimension,
    lyapunov_exponents,
    shannon_entropy,
)
from projdim.linalg import Matrix3, mat_mul
from projdim.pressure import rauzy_gamma_system
from projdim.projective import dyadic_cells, plane_frame_orthonormal, project_measure_samples
from projdim.semigroup import SystemSpec
from projdim.systems import (
    gamma_letter,
    positivizing_conjugator,
    rauzy_alphabet,
    rauzy_system,
    triple9_system,
)

# Frozen regression values from a pre-build prototype (independent script,
# QR cadences 1-8 all agreeing to 5 digits):
RAUZY_CHI = (0.5009, -0.2021, -0.2989)
GAMMA10_CHI = (2.0601, -0.6618, -1.3983)

# Exact outputs of the samplers, recorded before their letter draws moved
# from Generator.choice to the guide-table draws of rng.letter_sampler
# (numpy 2.4.6, x86-64, OpenBLAS); any drift of a sampler shows here.
GAMMA2_PLANE_ESTIMATES = [0.9672152673217519, 0.9687001465106119, 0.9702137263988884]
RAUZY_CHI_SEED3 = (0.5011285809508395, -0.20436335207440187, -0.2967652288765906)


def test_shannon_entropy_values():
    assert shannon_entropy([F(1)]) == 0.0
    assert shannon_entropy([F(1, 3)] * 3) == pytest.approx(math.log(3), rel=1e-14)
    assert shannon_entropy([F(1, 2), F(1, 4), F(1, 4)]) == pytest.approx(
        1.5 * math.log(2), rel=1e-14
    )
    # dyadic floats are read exactly, as the same rationals
    assert shannon_entropy([0.5, 0.25, 0.25]) == shannon_entropy([F(1, 2), F(1, 4), F(1, 4)])


def test_shannon_entropy_rejects_bad_vectors():
    with pytest.raises(BadVector):
        shannon_entropy([])
    with pytest.raises(BadVector):
        shannon_entropy([F(1, 2), F(1, 3)])
    with pytest.raises(BadVector):
        shannon_entropy([F(3, 2), F(-1, 2)])
    # read exactly, the floats 0.1, 0.2 and 0.7 do not sum to 1
    with pytest.raises(BadVector, match="sum to 1"):
        shannon_entropy([0.1, 0.2, 0.7])


def test_lyapunov_singleton_diagonal_exact():
    sys = SystemSpec.uniform("d9", (Matrix3.diagonal(9, 1, F(1, 9)),))
    stats = lyapunov_exponents(sys, 1000, seed=0)
    assert stats.chi1 == pytest.approx(math.log(9), abs=1e-12)
    assert stats.chi2 == pytest.approx(0.0, abs=1e-12)
    assert stats.chi3 == pytest.approx(-math.log(9), abs=1e-12)


# two copies of diag(1, 2, 1/2): axis-aligned letters never rotate the QR
# frame, so each chain's exponents come out in axis order, not sorted
TWIN = SystemSpec.uniform("twin", (Matrix3.diagonal(1, 2, F(1, 2)),) * 2)


def test_lyapunov_spectrum_is_sorted_for_axis_aligned_letters():
    stats = lyapunov_exponents(TWIN, 2000, seed=0)
    assert stats.chis == pytest.approx((math.log(2), 0.0, -math.log(2)), abs=1e-12)


def test_empirical_delta_target_of_axis_aligned_letters():
    est = empirical_delta(TWIN, planes=2, samples=20_000, n=8, seed=0, lyap_steps=2000)
    assert est.diagnostics["target"] == pytest.approx(1.0, rel=1e-12)


def test_lyapunov_rejects_tiny_runs():
    sys = rauzy_system()
    with pytest.raises(DomainError):
        lyapunov_exponents(sys, 10, seed=0)


def test_lyapunov_rauzy_structure_and_regression():
    stats = lyapunov_exponents(rauzy_system(), 20_000, seed=7)
    assert stats.chi1 - stats.chi2 > 3 * (stats.stderr1 + stats.stderr2)
    assert stats.chi2 - stats.chi3 > 3 * (stats.stderr2 + stats.stderr3)
    total_se = stats.stderr1 + stats.stderr2 + stats.stderr3
    assert abs(stats.chi1 + stats.chi2 + stats.chi3) <= 3 * max(total_se, 1e-12)
    for got, want in zip(stats.chis, RAUZY_CHI):
        assert got == pytest.approx(want, abs=0.01)


def test_lyapunov_pinned_bits():
    assert lyapunov_exponents(rauzy_system(), 2000, seed=3).chis == RAUZY_CHI_SEED3


def test_lyapunov_block_draws_equal_one_draw(monkeypatch):
    import projdim.ergodic as ergodic_mod

    sys = rauzy_gamma_system(2)
    steps = 2 * ergodic_mod._DRAW_ROWS + 77  # the last block is short
    blocked = lyapunov_exponents(sys, steps, seed=5)
    monkeypatch.setattr(ergodic_mod, "_DRAW_ROWS", steps)  # the whole array up front
    whole = lyapunov_exponents(sys, steps, seed=5)
    assert blocked == whole and blocked.diagnostics == whole.diagnostics


def _lyapunov_peak_bytes(sys, steps: int) -> int:
    tracemalloc.start()
    try:
        lyapunov_exponents(sys, steps, seed=2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lyapunov_memory_does_not_grow_with_steps():
    sys = rauzy_system()
    sys.letters_float, sys.probabilities_float  # cached before the traced runs
    # one up-front draw of 20,000 steps holds 5.1 MB of uniforms alone
    assert _lyapunov_peak_bytes(sys, 20_000) < 1.5 * _lyapunov_peak_bytes(sys, 2_000)


def test_lyapunov_gamma10_regression_guards_renorm_cadence():
    sys = rauzy_gamma_system(10)
    stats = lyapunov_exponents(sys, 20_000, seed=11)
    assert stats.diagnostics["renorm_cadence"] < 20
    for got, want in zip(stats.chis, GAMMA10_CHI):
        assert got == pytest.approx(want, abs=0.02)
    total_se = stats.stderr1 + stats.stderr2 + stats.stderr3
    assert abs(stats.chi1 + stats.chi2 + stats.chi3) <= 3 * max(total_se, 1e-10)


def test_renorm_cadence_pinned():
    # the cadence truncates 16 / log(max letter norm): a norm kernel that moves
    # a letter norm must not move it
    from projdim.ergodic import _renorm_cadence

    assert _renorm_cadence(rauzy_system()) == 20
    assert _renorm_cadence(triple9_system()) == 7
    got = {n: _renorm_cadence(rauzy_gamma_system(n)) for n in (1, 2, 4, 5, 10, 20)}
    assert got == {1: 12, 2: 9, 4: 7, 5: 6, 10: 5, 20: 4}


def _stats(chi1, chi2, chi3):
    return LyapunovStats(chi1, chi2, chi3, 0.0, 0.0, 0.0, steps=0)


def test_lyapunov_dimension_branches():
    stats = _stats(1.0, 0.25, -1.25)
    assert lyapunov_dimension(0.0, stats) == 0.0
    g12 = stats.chi1 - stats.chi2
    g13 = stats.chi1 - stats.chi3
    assert lyapunov_dimension(g12, stats) == pytest.approx(1.0, abs=1e-14)
    assert lyapunov_dimension(g12 + g13, stats) == 2.0
    assert lyapunov_dimension(10.0, stats) == 2.0
    lo = lyapunov_dimension(g12 * (1 - 1e-9), stats)
    hi = lyapunov_dimension(g12 * (1 + 1e-9), stats)
    assert abs(hi - lo) <= 1e-6
    grid = np.linspace(0.0, 5.0, 60)
    vals = [lyapunov_dimension(h, stats) for h in grid]
    assert all(a <= b + 1e-14 for a, b in zip(vals, vals[1:]))


def test_lyapunov_dimension_degenerate():
    with pytest.raises(DegenerateSpectrum):
        lyapunov_dimension(1.0, _stats(1.0, 1.0, -2.0))
    with pytest.raises(DomainError):
        lyapunov_dimension(-1.0, _stats(1.0, 0.0, -1.0))


def test_furstenberg_singleton_converges_to_contracting_axis():
    sys = SystemSpec.uniform("d9", (Matrix3.diagonal(9, 1, F(1, 9)),))
    n = furstenberg_plane_sample(sys, 200, seed=0)
    assert np.allclose(n, [0, 0, 1], atol=1e-10)
    assert abs(np.linalg.norm(n) - 1.0) <= 1e-12


def test_furstenberg_batches_agree():
    sys = rauzy_gamma_system(2)
    a = np.stack([furstenberg_plane_sample(sys, 200, seed=(0, w)) for w in range(200)])
    b = np.stack([furstenberg_plane_sample(sys, 200, seed=(1, w)) for w in range(200)])
    se = np.sqrt(a.var(axis=0, ddof=1) / len(a) + b.var(axis=0, ddof=1) / len(b))
    assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 3.5 * se + 1e-12)


def test_dyadic_entropy_basics():
    assert dyadic_entropy(np.full(100, 0.375), 8) == 0.0
    cells = (np.arange(256) + 0.5) / 256.0
    assert dyadic_entropy(np.repeat(cells, 4), 8) == pytest.approx(8 * math.log(2), rel=1e-12)
    rng = np.random.default_rng(0)
    u = rng.random(10**6)
    assert dyadic_entropy(u, 8) == pytest.approx(8 * math.log(2), abs=0.01)


def test_dyadic_entropy_of_one_cell_is_positive_zero():
    # the entropy of one occupied cell is +0.0, not the negation of a 0.0 sum
    for vals, n in ((np.full(10, 0.375), 8), (np.zeros(8), 1100)):
        assert math.copysign(1.0, dyadic_entropy(vals, n)) == 1.0


def test_dyadic_entropy_scaling_commutes():
    rng = np.random.default_rng(1)
    x = rng.random(5000) * 3.0
    for k in (1, 3):
        assert dyadic_entropy(x * 2.0**k, 8) == dyadic_entropy(x, 8 + k)
        assert dyadic_entropy(x * 2.0**-k, 8 + k) == dyadic_entropy(x, 8)


from hypothesis import assume, given, settings
from hypothesis import strategies as st


@given(
    st.lists(st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
             min_size=1, max_size=200),
    st.integers(min_value=-3, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_dyadic_entropy_scaling_property(xs, k):
    x = np.array(xs)
    assume(np.array_equal(x * 2.0**k * 2.0**-k, x))  # the identity needs exact scaling
    assert dyadic_entropy(x * 2.0**k, 6) == dyadic_entropy(x, 6 + k)


def test_dyadic_entropy_scaling_that_underflows():
    # the smallest subnormal halves to -0.0, which bins into cell 0, not -1
    x = np.array([0.0, -5e-324])
    assert dyadic_entropy(x * 2.0**-1, 6) == 0.0
    assert dyadic_entropy(x, 5) == math.log(2.0)
    assert dyadic_entropy(x * 2.0, 4) == dyadic_entropy(x, 5)  # exact scaling keeps it


@pytest.mark.parametrize("vals", [
    -np.random.default_rng(3).random(5000) * 5.0,
    np.random.default_rng(4).integers(-300, 300, 4000) / 2.0 ** 6,  # on cell edges
    np.full(1000, -0.8125),
    np.random.default_rng(5).standard_normal((300, 7)),
])
def test_entropy_slope_equals_two_entropies(vals):
    for n in (5, 6, 10, 12):
        cells = dyadic_cells(vals, n).ravel()
        assert _entropy_slope(cells) == dyadic_entropy(vals, n) - dyadic_entropy(vals, n - 4)


def test_dyadic_entropy_raises_when_cells_leave_int64():
    x = np.array([0.25, -0.75])
    dyadic_entropy(x, 63)  # 0.75 * 2^63 < 2^63
    with pytest.raises(FloatRange):
        dyadic_entropy(x, 64)
    with pytest.raises(FloatRange):
        dyadic_entropy(np.array([1.0, -2.0 ** 62]), 1)
    with pytest.raises(FloatRange):
        dyadic_entropy(np.array([0.5, np.nan]), 8)
    assert dyadic_entropy(np.zeros(5), 100) == 0.0


def test_dyadic_cells_past_float_range_of_the_scale():
    # the float 2.0 ** n overflows from n = 1024; all-zero values lie in cell 0 at every n
    for n in (1023, 1024, 1100):
        cells = dyadic_cells(np.zeros((4, 2)), n)
        assert cells.dtype == np.int64 and cells.shape == (4, 2) and not cells.any()
    assert dyadic_entropy(np.zeros(8), 1100) == 0.0
    # the smallest subnormal is 2^-1074, so its cell at n = 1100 is 2^26
    assert dyadic_cells(np.array([0.0, 5e-324, -5e-324]), 1100).tolist() == [0, 2 ** 26, -2 ** 26]
    with pytest.raises(FloatRange):
        dyadic_cells(np.array([0.0, 2.0 ** -1036]), 1100)


def test_dyadic_entropy_bounded_by_occupancy():
    rng = np.random.default_rng(2)
    x = rng.random(400)
    h = dyadic_entropy(x, 6)
    occupied = len(np.unique(np.floor(x * 64).astype(int)))
    assert h <= math.log(occupied) + 1e-12


def test_empirical_delta_singleton_point_mass():
    sys = SystemSpec.uniform("g", (gamma_letter(0, 1, 2),),
                             conjugator=positivizing_conjugator())
    est = empirical_delta(sys, planes=4, samples=5000, n=10, seed=0, lyap_steps=1000)
    assert est.value == pytest.approx(0.0, abs=1e-6)


def test_empirical_delta_pinned_bits():
    est = empirical_delta(rauzy_gamma_system(2), planes=3, samples=20_000, n=10, seed=5)
    assert est.diagnostics["plane_estimates"] == GAMMA2_PLANE_ESTIMATES


def test_empirical_delta_is_independent_of_worker_count(tmp_path, monkeypatch):
    import multiprocessing

    import projdim.ergodic as ergodic_mod
    from projdim.cli import main
    from projdim.systems import save_system

    save_system(rauzy_gamma_system(10), tmp_path / "gamma10.json")
    runs = []
    for workers in (1, 2, 3):  # 1 runs the planes in this process
        monkeypatch.setattr(ergodic_mod, "_WORKERS", workers)
        est = empirical_delta(rauzy_gamma_system(2), planes=3, samples=20_000, n=10, seed=5)
        assert multiprocessing.active_children() == []
        out = tmp_path / f"delta-{workers}.json"
        assert main(["delta", "--system", str(tmp_path / "gamma10.json"), "--planes", "4",
                     "--samples", "20000", "--seed", "3", "--out", str(out)]) == 0
        assert multiprocessing.active_children() == []
        assert est.diagnostics["plane_estimates"] == GAMMA2_PLANE_ESTIMATES
        runs.append((json.dumps(est.as_dict(), sort_keys=True), out.read_bytes()))
    assert runs[0] == runs[1] == runs[2]


def test_empirical_delta_rejects_degenerate_sizes():
    sys = rauzy_gamma_system(1)
    for planes, samples in ((0, 100), (2, 0), (2, -5)):
        with pytest.raises(DomainError):
            empirical_delta(sys, planes=planes, samples=samples, n=8)
    frame = plane_frame_orthonormal(np.ones(3) / math.sqrt(3.0))
    with pytest.raises(DomainError):
        project_measure_samples(sys, frame, 0, seed=0)


def _mixed_word_letters():
    """Distinct conjugated three-letter words that are entrywise positive."""
    a = rauzy_alphabet()
    conj = positivizing_conjugator()
    minv = conj.inverse()
    out = []
    for i in range(3):
        for j in range(3):
            for k in range(3):
                w = mat_mul(mat_mul(a[i], a[j]), a[k])
                c = mat_mul(mat_mul(minv, w), conj)
                if all(x > 0 for row in c.entries for x in row):
                    out.append(w)
    return out


def test_empirical_delta_saturates_for_high_entropy():
    letters = _mixed_word_letters()
    assert len(letters) == 12
    sys = SystemSpec.uniform("mixed3", tuple(letters),
                             conjugator=positivizing_conjugator())
    est = empirical_delta(sys, planes=8, samples=400_000, n=12, seed=0,
                          lyap_steps=4000)
    assert est.diagnostics["target"] == 1.0
    assert abs(est.value - 1.0) <= 0.1
