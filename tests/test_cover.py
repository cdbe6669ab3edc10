import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from projdim import cover
from projdim.cover import (
    CoverReport,
    box_dimension_estimate,
    cone_constant,
    svd_cover_upper,
    svd_vdu,
)
from projdim.errors import DomainError, FloatRange, NotPositive, TooFewScales
from projdim.linalg import Matrix3
from projdim.pressure import rauzy_gamma_system, zeta_truncated
from projdim.projective import DenominatorZero, PointCloud, attractor_points, lft_apply
from projdim.semigroup import SystemSpec
from projdim.systems import gamma_letter, positivizing_conjugator, rauzy_system


def test_svd_vdu_reconstruction_and_ordering():
    rng = np.random.default_rng(0)
    sys = rauzy_gamma_system(2)
    for m in sys.letters_float:
        v, d, u = svd_vdu(m)
        assert np.allclose(v @ d @ u, m, atol=1e-12 * np.abs(m).max())
        assert np.allclose(v @ v.T, np.eye(3), atol=1e-12)
        assert np.allclose(u @ u.T, np.eye(3), atol=1e-12)
        sv = np.linalg.svd(m, compute_uv=False)
        assert np.allclose(np.diag(d), [sv[1], sv[2], sv[0]])


def test_cone_constant_identity_for_chart_aligned_diagonal():
    # diag(a2, a3, a1) has identity orthogonal factors in the chart ordering
    sys = SystemSpec.uniform("d", (Matrix3.diagonal(1, F(1, 4), 4),))
    c = cone_constant(sys)
    assert c == pytest.approx(1.0, abs=1e-9)


def test_cone_constant_at_least_one_and_finite():
    c = cone_constant(rauzy_gamma_system(1))
    assert 1.0 <= c < 50.0


def test_cone_constant_rejects_raw_system():
    with pytest.raises(NotPositive):
        cone_constant(rauzy_system())


def _image_radius(mat, center, r):
    """Radius of a ball containing the chart image of B(center, r), from 16 circle points."""
    angles = 2.0 * math.pi * np.arange(16) / 16
    circle = center + r * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    tilde = np.concatenate([circle, np.ones((16, 1))], axis=1)
    dens = tilde @ mat[2]
    if np.abs(dens).min() < 1e-9 or abs(center @ mat[2, :2] + mat[2, 2]) < 1e-9:
        return None
    imgs = (tilde @ mat[:2].T) / dens[:, None]
    c_img = lft_apply(mat, center)
    return float(np.linalg.norm(imgs - c_img, axis=1).max())


def cone_reference(sys):
    """The per-ball loop: one ``_image_radius`` call per letter, center, factor and radius."""
    centers = attractor_points(sys, "chaos", budget=16, seed=0, coords="plane_P").points
    best = 1.0
    for m in sys.letters_float:
        v, d, u = svd_vdu(m)
        for center in centers:
            for r in (1e-3, 1e-4):
                ri = _image_radius(u, center, r)
                if ri is not None:
                    best = max(best, ri / r)
            try:
                z = lft_apply(d, lft_apply(u, center))
            except DenominatorZero:
                continue
            for r in (1e-3, 1e-4):
                ri = _image_radius(v, z, r)
                if ri is not None:
                    best = max(best, ri / r)
    return best


@pytest.mark.parametrize("make", [
    lambda: rauzy_gamma_system(1),
    lambda: rauzy_gamma_system(2),
    lambda: rauzy_gamma_system(10),
    lambda: SystemSpec.uniform("d", (Matrix3.diagonal(1, F(1, 4), 4),)),
], ids=["gamma1", "gamma2", "gamma10", "diagonal"])
def test_cone_constant_matches_the_per_ball_loop_bit_for_bit(make):
    sys = make()
    assert cone_constant(sys) == cone_reference(sys)


def _diagonal_step_hits_zero(monkeypatch, den_value):
    # the diagonal factor's chart step divides by den_value at the first letter and center
    real = cover._chart

    def chart(mats, pts):
        img, den = real(mats, pts)
        if np.array_equal(mats, mats * np.eye(3)):
            img, den = img.copy(), den.copy()
            img[0, 0], den[0, 0] = np.nan, den_value
        return img, den

    monkeypatch.setattr(cover, "_chart", chart)


def test_cone_constant_skips_only_zero_denominators(monkeypatch):
    sys = rauzy_gamma_system(1)
    _diagonal_step_hits_zero(monkeypatch, 0.0)
    c = cone_constant(sys)  # the V balls of that center are skipped
    assert math.isfinite(c) and c >= 1.0
    _diagonal_step_hits_zero(monkeypatch, 1e-300)
    with pytest.raises(FloatRange):
        cone_constant(sys)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_cone_constant_raises_on_a_non_finite_probe(monkeypatch, bad):
    # one probe image outside the float range must reach the caller, not be skipped
    real = cover._circle_images

    def circle_images(mats, circles):
        imgs, dens = real(mats, circles)
        imgs = imgs.copy()
        imgs[0, 0, 0] = bad
        return imgs, dens

    monkeypatch.setattr(cover, "_circle_images", circle_images)
    with pytest.raises(FloatRange):
        cone_constant(rauzy_gamma_system(1))


def test_cover_cost_trend_above_dimension():
    sys = rauzy_gamma_system(2)
    costs = [svd_cover_upper(sys, 1.8, 2.0 ** -k).cover_cost for k in (4, 6, 8)]
    assert costs[0] >= costs[1] >= costs[2]


def test_cover_cost_vanishes_for_singleton():
    sys = SystemSpec.uniform("g", (gamma_letter(0, 1, 2),),
                             conjugator=positivizing_conjugator())
    costs = [svd_cover_upper(sys, 0.8, 2.0 ** -k).cover_cost for k in (4, 8, 12)]
    assert costs[0] > costs[1] > costs[2]
    assert costs[2] < 1e-3


def test_cover_cost_monotone_in_exponent():
    sys = rauzy_gamma_system(1)
    # delta small enough that every covering ball has radius < 1, so the
    # per-word summands decrease in s (counts stay fixed on this branch)
    reps = [svd_cover_upper(sys, s, 2.0 ** -12) for s in (1.2, 1.5, 1.8)]
    rad = reps[0].cone_constant ** 2 * reps[0].diagnostics["enclosing_radius"]
    assert rad * 2.0 ** -12 < 1.0
    costs = [r.cover_cost for r in reps]
    assert costs[0] >= costs[1] >= costs[2]


def test_cover_cost_bounded_by_zeta_shape():
    sys = rauzy_gamma_system(1)
    rep = svd_cover_upper(sys, 1.9, 2.0 ** -6)
    z = zeta_truncated(sys, 1.9, 8)
    bound = rep.cone_constant ** (2 * 1.9) * rep.diagnostics["enclosing_radius"] ** 1.9
    # the stopped family is a subset of all words; +1 ball slack per word
    assert rep.cover_cost <= bound * z.value * 2.0


@pytest.mark.parametrize("n, s, delta, words, nodes, cost", [
    (10, 1.75, 1e-3, 122_544, 124_620, "0x1.6e7f4638aa31bp+14"),
    (5, 0.8, 1e-2, 33_438, 34_590, "0x1.3fcaea8e6defep+15"),
], ids=["gamma10-s1.75", "gamma5-s0.8"])
def test_cover_outputs_pinned(n, s, delta, words, nodes, cost):
    # one np.sum over all stopped words, or one per top, moves the cost's last bits
    rep = svd_cover_upper(rauzy_gamma_system(n), s, delta)
    assert rep.word_count == words
    assert rep.diagnostics["nodes"] == nodes
    assert rep.cover_cost.hex() == cost


def test_cover_has_no_depth_limit():
    # a2/a1 = (50/51)^n first drops under 0.1 at length n = 117
    sys = SystemSpec.uniform("slow", (Matrix3.diagonal(F(51, 50), 1, F(50, 51)),))
    rep = svd_cover_upper(sys, 0.8, 0.1)
    assert rep.word_count == 1
    assert rep.diagnostics["nodes"] == 117


def test_cover_holds_no_whole_level():
    sys = rauzy_gamma_system(10)
    sys.letters_float, sys.letters_ext2_float  # cached before the traced run
    tracemalloc.start()
    try:
        svd_cover_upper(sys, 1.75, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a walk that holds whole levels peaks at 26.7 MB here, one top's level at 3.7 MB
    assert peak <= 3.7e6


def test_cover_domain_checks():
    sys = rauzy_gamma_system(1)
    with pytest.raises(DomainError):
        svd_cover_upper(sys, 2.0, 0.01)
    with pytest.raises(DomainError):
        svd_cover_upper(sys, 1.0, 1.5)
    with pytest.raises(NotPositive):
        svd_cover_upper(rauzy_system(), 1.5, 0.01)


def test_box_dimension_single_point():
    cloud = PointCloud(np.full((50, 2), 0.375), "plane_P")
    est = box_dimension_estimate(cloud, range(3, 9))
    assert est.value == pytest.approx(0.0, abs=1e-12)


def test_box_dimension_uniform_grid():
    side = 512
    g = (np.arange(side) + 0.5) / side
    xx, yy = np.meshgrid(g, g)
    cloud = PointCloud(np.stack([xx.ravel(), yy.ravel()], axis=1), "plane_P")
    est = box_dimension_estimate(cloud, range(3, 8))
    assert est.value == pytest.approx(2.0, abs=0.05)


def test_box_dimension_rauzy_band():
    cloud = attractor_points(rauzy_system(), "chaos", budget=1_000_000, seed=2)
    est = box_dimension_estimate(cloud, range(4, 11))
    assert 1.1 <= est.value <= 1.9
    assert est.bracket_lo <= est.value <= est.bracket_hi


def test_box_counts_monotone_and_nested():
    cloud = attractor_points(rauzy_system(), "chaos", budget=20_000, seed=3)
    est = box_dimension_estimate(cloud, range(3, 8))
    counts = est.diagnostics["counts"]
    assert counts == sorted(counts)
    sub = PointCloud(cloud.points[:5000], "simplex_S")
    est_sub = box_dimension_estimate(sub, range(3, 8))
    assert all(a <= b for a, b in zip(est_sub.diagnostics["counts"], counts))


def test_box_counts_are_exact_for_far_apart_boxes():
    # a key packed as (b0 << 24) ^ (b1 & 0xFFFFFF) merged these two boxes
    pts = np.repeat([[1.0, 1.0], [1.0, 1.0 + 2.0 ** 20]], 40, axis=0)
    est = box_dimension_estimate(PointCloud(pts, "plane_P"), [4, 5, 6])
    assert est.diagnostics["counts"] == [2, 2, 2]


def test_box_counts_past_int64_raise_float_range():
    pts = np.repeat([[0.5, 0.5], [3.0, 2.0 ** 20]], 40, axis=0)
    cloud = PointCloud(pts, "plane_P")
    # 2^20 * 2^42 stays below 2^63; 2^20 * 2^43 reaches it
    assert box_dimension_estimate(cloud, [40, 41, 42]).diagnostics["counts"] == [2, 2, 2]
    with pytest.raises(FloatRange):
        box_dimension_estimate(cloud, [41, 42, 43])
    with pytest.raises(FloatRange):
        box_dimension_estimate(cloud, [1100, 1101, 1102])  # 2.0 ** 1100 is not a float


def test_box_dimension_resolutions_must_be_integers():
    cloud = PointCloud(np.full((10, 2), 0.25), "plane_P")
    with pytest.raises(DomainError):  # once truncated to 3, 4, 5, 6
        box_dimension_estimate(cloud, [3.7, 4.2, 5.9, 6.5])
    est = box_dimension_estimate(cloud, np.arange(3, 7))
    assert est.diagnostics["resolutions"] == [3, 4, 5, 6]
    assert all(type(n) is int for n in est.diagnostics["resolutions"] + est.diagnostics["used"])


def test_box_dimension_too_few_scales():
    cloud = PointCloud(np.full((10, 2), 0.25), "plane_P")
    with pytest.raises(TooFewScales):
        box_dimension_estimate(cloud, [4, 5])
