import csv
import functools
import io
import math
from fractions import Fraction as F

import numpy as np
import pytest

from projdim import projective
from projdim.errors import BadDirection, DegenerateGap, DomainError, NotContracting, NotPositive
from projdim.linalg import Matrix3, mat_mul
from projdim.pressure import rauzy_gamma_system
from projdim.projective import (
    _BURN_IN,
    DenominatorZero,
    PlaneFrame,
    PointCloud,
    attractor_points,
    dyadic_cells,
    frame_for_plane,
    lft_apply,
    load_cloud_csv,
    plane_frame_orthonormal,
    positive_direction_in_plane,
    project_measure_samples,
    rescale_decompose,
    render_svg,
    save_cloud_csv,
    _chaos_homogeneous,
    xi_partition,
)
from projdim.rng import make_rng
from projdim.semigroup import SystemSpec
from projdim.systems import gamma_letter, positivizing_conjugator, rauzy_alphabet, rauzy_system


def xi_stopping_ratio(frame, sys, letters):
    """The xi statistic of one word, evaluated directly from its exact product."""
    at = functools.reduce(mat_mul, (sys.effective_alphabet[i] for i in letters)).float_view.T
    w2 = at @ frame.r2
    w1 = at @ frame.r1
    v = w1 - (w1 @ w2) / (w2 @ w2) * w2
    inv_t = np.linalg.inv(at)
    return float(np.linalg.norm(v) / (np.linalg.norm(inv_t @ v) * np.linalg.norm(w2)))


def gamma_singleton():
    return SystemSpec.uniform("g", (gamma_letter(0, 1, 2),),
                              conjugator=positivizing_conjugator())


def random_positive_word(rng, sys, max_len=6):
    letters = sys.effective_alphabet
    word = [int(i) for i in rng.integers(0, len(letters), size=rng.integers(1, max_len + 1))]
    prod = letters[word[0]]
    for i in word[1:]:
        prod = mat_mul(prod, letters[i])
    return prod


def test_lft_identity_and_hand_value():
    assert np.allclose(lft_apply(Matrix3.identity(), [0.3, 0.4]), [0.3, 0.4])
    a1 = rauzy_alphabet()[0]
    assert np.allclose(lft_apply(a1, [1.0, 1.0]), [3.0, 1.0])


def test_lft_denominator_zero():
    m = np.array([[1.0, 0, 0], [0, 1, 0], [1, 0, -1]])
    with pytest.raises(DenominatorZero):
        lft_apply(m, [1.0, 2.0])


def test_lft_composition():
    sys = rauzy_gamma_system(2)
    rng = np.random.default_rng(0)
    letters = sys.effective_alphabet
    for _ in range(100):
        a = letters[rng.integers(0, len(letters))]
        b = letters[rng.integers(0, len(letters))]
        x = rng.uniform(0.2, 3.0, size=2)
        via_comp = lft_apply(b, lft_apply(a, x))
        direct = lft_apply(mat_mul(b, a), x)
        assert np.linalg.norm(via_comp - direct) <= 1e-12 * max(1.0, np.linalg.norm(direct))


def test_chart_embedding_equivariance():
    sys = rauzy_gamma_system(1)
    rng = np.random.default_rng(1)
    for a in sys.effective_alphabet:
        x = rng.uniform(0.3, 2.0, size=2)
        lifted = a.float_view @ np.append(x, 1.0)
        image = np.append(lft_apply(a, x), 1.0)
        cross = np.cross(lifted, image)
        assert np.linalg.norm(cross) <= 1e-12 * np.linalg.norm(lifted)


def test_plane_frame_orthonormal_reference_choice():
    b = plane_frame_orthonormal([0.0, 0.0, 1.0])
    assert np.allclose(b.rows, [[1, 0, 0], [0, 0, 1]])
    d = np.ones(3) / math.sqrt(3.0)
    b = plane_frame_orthonormal(d)
    assert abs(b.r1 @ b.r2) <= 1e-12
    assert abs(np.linalg.norm(b.r1) - 1.0) <= 1e-12
    assert np.allclose(b.r2, d)


def test_plane_frame_orthonormal_rejects_bad_input():
    with pytest.raises(BadDirection):
        plane_frame_orthonormal([0.0, 0.0, 0.0])
    with pytest.raises(BadDirection):
        plane_frame_orthonormal([1.0, -1.0, 0.0])
    with pytest.raises(BadDirection):
        plane_frame_orthonormal([2.0, 0.0, 0.0])


def test_plane_frame_requires_orthonormal_rows():
    assert np.array_equal(PlaneFrame([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]).r1, [1.0, 0.0, 0.0])
    r = 1.0 / math.sqrt(2.0)
    # a long first row, a unit one at 45 degrees to the second, and a parallel one
    for r1 in ([2.0, 0.0, 0.0], [r, 0.0, r], [0.0, 0.0, 1.0]):
        with pytest.raises(ValueError, match="not orthonormal"):
            PlaneFrame([r1, [0.0, 0.0, 1.0]])


def test_frame_for_plane_spans_the_plane():
    rng = np.random.default_rng(2)
    sys = rauzy_gamma_system(2)
    from projdim.ergodic import furstenberg_plane_sample

    for w in range(20):
        normal = furstenberg_plane_sample(sys, 200, seed=(3, w))
        frame = frame_for_plane(normal)
        assert frame.r2.min() >= 0
        assert abs(frame.r1 @ normal) <= 1e-10
        assert abs(frame.r2 @ normal) <= 1e-10


def test_positive_direction_in_plane_basic():
    d = positive_direction_in_plane([0.0, 1.0, 0.0])
    assert np.allclose(d, [1, 0, 1] / np.sqrt(2))
    with pytest.raises(BadDirection):
        positive_direction_in_plane([1.0, 1.0, 1.0])


def test_positive_direction_in_plane_wedge_fallback():
    # the projection of (1, 1, 1) onto this plane has a negative third coordinate,
    # so the direction is the bisector of the plane's wedge of the octant
    n = np.array([1.0, -100.0, -200.0])
    n /= np.linalg.norm(n)
    u = np.ones(3) - np.ones(3) @ n * n
    assert u[2] < 0
    d = positive_direction_in_plane(n)
    assert d.min() >= 0 and abs(np.linalg.norm(d) - 1.0) <= 1e-12
    assert abs(d @ n) <= 1e-12
    assert np.allclose(d, [0.99998, 0.0050, 0.0025], atol=1e-5)
    frame = frame_for_plane(n)
    assert np.allclose(frame.rows @ frame.rows.T, np.eye(2), atol=1e-12)
    assert np.allclose(frame.rows @ n, 0.0, atol=1e-12)
    assert np.allclose(frame.r2, d, rtol=0, atol=1e-15)


def test_attractor_singleton_collapses():
    cloud = attractor_points(gamma_singleton(), "chaos", budget=500, seed=0)
    assert np.ptp(cloud.points, axis=0).max() <= 1e-9


def test_attractor_rauzy_simplex_with_thin_corners():
    cloud = attractor_points(rauzy_system(), "chaos", budget=50_000, seed=1)
    pts = cloud.points
    assert cloud.coordinate_system == "simplex_S"
    assert pts.min() >= -1e-15
    assert np.abs(pts.sum(axis=1) - 1.0).max() <= 1e-12
    for corner in np.eye(3):
        near = np.linalg.norm(pts - corner, axis=1) < 0.02
        assert near.mean() < 0.02


def test_attractor_requires_nonnegative_letters():
    bad = SystemSpec.uniform(
        "mixed", (Matrix3.from_rows([[2, 1, 0], [0, 1, 0], [0, -1, F(1, 2)]]),)
    )
    with pytest.raises(NotContracting):
        attractor_points(bad, "chaos", budget=10, seed=0)


def test_cylinder_short_of_the_budget_raises():
    # every ψ partition of one diagonal letter is the single word 0...0
    sys = SystemSpec.uniform("diag", (Matrix3.diagonal(9, 1, F(1, 9)),))
    with pytest.raises(DomainError, match="up to n = 39 .* budget of 5 words; the largest has 1$"):
        attractor_points(sys, "cylinder", budget=5)
    assert len(attractor_points(sys, "cylinder", budget=1)) == 1


def test_cylinder_row_blocks_equal_one_block(monkeypatch):
    import projdim.projective as projective_mod

    sys = rauzy_gamma_system(2)
    monkeypatch.setattr(projective_mod, "_CYLINDER_ROWS", 77)  # the last block is short
    blocked = attractor_points(sys, "cylinder", budget=2_000)
    assert len(blocked) % 77
    monkeypatch.setattr(projective_mod, "_CYLINDER_ROWS", len(blocked))  # one block
    whole = attractor_points(sys, "cylinder", budget=2_000)
    assert blocked.points.tobytes() == whole.points.tobytes()


def test_attractor_chaos_vs_cylinder():
    from scipy.spatial import cKDTree

    sys = rauzy_gamma_system(1)
    chaos = attractor_points(sys, "chaos", budget=10_000, seed=3)
    cyl = attractor_points(sys, "cylinder", budget=10_000, seed=3)
    assert len(cyl) >= 10_000

    # max cylinder diameter at the stopping resolution actually used
    letters = sys.letters_float
    from projdim.semigroup import stopping_partition_psi

    words = None
    for n in range(1, 40):
        words = stopping_partition_psi(sys, n)
        if len(words) >= 10_000:
            break
    probes = np.array([[0.4, 0.3, 0.3], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8], [0.5, 0.1, 0.4]])
    max_diam = 0.0
    for w in words[:: max(1, len(words) // 200)]:
        imgs = probes.copy()
        for letter in reversed(w.letters):
            imgs = imgs @ letters[letter].T
            imgs /= imgs.sum(axis=1, keepdims=True)
        span = np.linalg.norm(imgs[:, None, :] - imgs[None, :, :], axis=2).max()
        max_diam = max(max_diam, span)

    t_chaos = cKDTree(chaos.points)
    t_cyl = cKDTree(cyl.points)
    d1 = t_cyl.query(chaos.points)[0].max()
    d2 = t_chaos.query(cyl.points)[0].max()
    assert max(d1, d2) <= 2.0 * max_diam


def test_attractor_invariance_under_letters():
    from scipy.spatial import cKDTree

    sys = rauzy_gamma_system(1)
    cloud = attractor_points(sys, "chaos", budget=10_000, seed=4)
    tree = cKDTree(cloud.points)
    h = cloud.points
    for m in sys.letters_float:
        img = h @ m.T
        img /= img.sum(axis=1, keepdims=True)
        dist = tree.query(img)[0].max()
        assert dist <= 0.05


def test_rescale_identity_and_outputs():
    rng = np.random.default_rng(5)
    sys = rauzy_gamma_system(1)
    cloud = attractor_points(sys, "chaos", budget=64, seed=5, coords="plane_P")
    for _ in range(100):
        raw = rng.uniform(0.0, 1.0, size=3)
        direction = raw / np.linalg.norm(raw)
        frame = plane_frame_orthonormal(direction)
        a = random_positive_word(rng, sys)
        parts = rescale_decompose(frame, a)
        m, c, t = parts["M"], parts["c"], parts["t"]
        assert np.allclose(m.rows @ m.rows.T, np.eye(2), rtol=0, atol=1e-12) and c > 0
        ba = np.vstack([frame.rows @ a.float_view])
        for x in cloud.points[rng.integers(0, len(cloud.points), size=5)]:
            lhs = float(lft_apply(ba, x)[0])
            rhs = c * m.apply(x) + t
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_rescale_scaling_factor_tracks_ratio():
    rng = np.random.default_rng(6)
    sys = rauzy_gamma_system(1)
    from projdim.linalg import singular_values

    logs = []
    for _ in range(50):
        raw = rng.uniform(0.1, 1.0, size=3)
        frame = plane_frame_orthonormal(raw / np.linalg.norm(raw))
        a = random_positive_word(rng, sys, max_len=5)
        sv = singular_values(a)
        c = rescale_decompose(frame, a)["c"]
        logs.append(math.log(c / (sv.a2 / sv.a1)))
    assert max(abs(x) for x in logs) < 5.0


def test_rescale_rejects_negative_and_degenerate():
    frame = plane_frame_orthonormal([0.0, 0.0, 1.0])
    neg = Matrix3.from_rows([[2, 1, 0], [0, 1, 0], [0, -1, F(1, 2)]])
    with pytest.raises(NotPositive):
        rescale_decompose(frame, neg)
    with pytest.raises(DegenerateGap):
        rescale_decompose(frame, Matrix3.diagonal(4, F(1, 2), F(1, 2)))
    # boundary zeros are fine: the conjugated two-letter word has one
    from projdim.pressure import rauzy_gamma_system

    parts = rescale_decompose(frame, rauzy_gamma_system(1).effective_alphabet[0])
    assert parts["c"] > 0


def test_xi_partition_zero_returns_letters():
    sys = rauzy_gamma_system(2)
    frame = plane_frame_orthonormal(np.ones(3) / math.sqrt(3.0))
    words = xi_partition(frame, sys, 0)
    assert sorted(w.letters for w in words) == [(i,) for i in range(len(sys))]


def test_xi_partition_prefix_free_and_ratio_window():
    sys = rauzy_gamma_system(3)
    frame = plane_frame_orthonormal(np.ones(3) / math.sqrt(3.0))
    n = 6
    words = xi_partition(frame, sys, n)
    keys = {w.letters for w in words}
    for w in words:
        for m in range(1, len(w)):
            assert w.letters[:m] not in keys
    ratios = np.array([xi_stopping_ratio(frame, sys, w.letters) for w in words[::7]])
    assert ratios.max() <= 2.0 ** -n * (1 + 1e-9)
    assert ratios.min() > 0.001 * 2.0 ** -n

    # one-step drop is bounded below on sampled extensions
    rng = np.random.default_rng(7)
    drops = []
    for w in list(words)[::11]:
        before = xi_stopping_ratio(frame, sys, w.letters[:-1]) if len(w) > 1 else 1.0
        drops.append(xi_stopping_ratio(frame, sys, w.letters) / before)
    assert min(drops) > 1e-4


def test_xi_partition_hits_exactly_one_prefix():
    sys = rauzy_gamma_system(2)
    frame = plane_frame_orthonormal(np.ones(3) / math.sqrt(3.0))
    words = {w.letters for w in xi_partition(frame, sys, 5)}
    max_len = max(len(w) for w in words)
    rng = np.random.Generator(np.random.Philox(key=11))
    seqs = rng.integers(0, len(sys), size=(2000, max_len))
    for seq in seqs:
        hits = sum(tuple(seq[:m]) in words for m in range(1, max_len + 1))
        assert hits == 1


def test_xi_incremental_matches_direct():
    sys = rauzy_gamma_system(2)
    frame = plane_frame_orthonormal(np.array([0.2, 0.3, 0.5]) / np.linalg.norm([0.2, 0.3, 0.5]))
    words = xi_partition(frame, sys, 4)
    # recomputing the statistic from the exact word product must agree with
    # the incremental walk: every stopped word sits at or below threshold
    for w in words[:: max(1, len(words) // 50)]:
        assert xi_stopping_ratio(frame, sys, w.letters) <= 2.0 ** -4 * (1 + 1e-9)


def test_project_measure_samples_singleton_and_axis_frame():
    sys = gamma_singleton()
    frame = plane_frame_orthonormal([0.0, 0.0, 1.0])
    vals = project_measure_samples(sys, frame, 200, seed=0)
    assert np.ptp(vals) <= 1e-9

    sys2 = rauzy_gamma_system(1)
    vals2 = project_measure_samples(sys2, frame, 1000, seed=9)
    cloud = attractor_points(sys2, "chaos", budget=1000, seed=9, coords="plane_P")
    assert np.array_equal(vals2, cloud.points[:, 0])


def chaos_reference(sys, count, seed):
    """The batched chaos loop: all letters drawn up front (``Generator.choice``),
    one ``einsum`` per round, every post-burn-in round kept."""
    letters = sys.letters_float
    chains = min(4096, count)
    rounds = (count + chains - 1) // chains
    p = sys.probabilities_float
    idx = make_rng(seed).choice(len(p), size=(_BURN_IN + rounds, chains), p=p)
    x = np.full((chains, 3), 1.0 / 3.0)
    out = np.empty((rounds, chains, 3))
    for t in range(_BURN_IN + rounds):
        y = np.einsum("cij,cj->ci", letters[idx[t]], x)
        x = y / (y[:, 0] + y[:, 1] + y[:, 2])[:, None]
        if t >= _BURN_IN:
            out[t - _BURN_IN] = x
    return out.reshape(-1, 3)[:count]


@pytest.mark.parametrize("sys, count, seed", [
    (rauzy_gamma_system(10), 20_003, (0, 2, 7)),  # five rounds, the last one partial
    (rauzy_system(), 3_001, 4),  # one round of fewer than 4096 chains
    (rauzy_gamma_system(1), 9_000, 11),
])
def test_chaos_samples_match_the_batched_reference_bit_for_bit(sys, count, seed):
    want = chaos_reference(sys, count, seed)
    got = _chaos_homogeneous(sys, count, seed)
    assert got.shape == want.shape and np.array_equal(got, want)
    frame = frame_for_plane(np.array([0.3, -0.8, 0.5]))
    vals = project_measure_samples(sys, frame, count, seed)
    assert vals.shape == (count,) and np.array_equal(vals, frame.apply_homogeneous(want))
    cells = project_measure_samples(sys, frame, count, seed, cells=10)
    assert cells.dtype == np.int64 and np.array_equal(cells, dyadic_cells(vals, 10))


def test_project_measure_mean_stable_across_seeds():
    sys = rauzy_gamma_system(1)
    frame = plane_frame_orthonormal(np.ones(3) / math.sqrt(3.0))
    a = project_measure_samples(sys, frame, 20_000, seed=1)
    b = project_measure_samples(sys, frame, 20_000, seed=2)
    se = math.hypot(a.std() / math.sqrt(len(a)), b.std() / math.sqrt(len(b)))
    assert abs(a.mean() - b.mean()) <= 3.0 * se


def test_cloud_csv_roundtrip_and_svg(tmp_path):
    cloud = attractor_points(rauzy_gamma_system(1), "chaos", budget=500, seed=0,
                             coords="plane_P")
    path = tmp_path / "cloud.csv"
    save_cloud_csv(cloud, path)
    back = load_cloud_csv(path)
    assert back.coordinate_system == "plane_P"
    assert np.array_equal(back.points, cloud.points)
    svg = tmp_path / "cloud.svg"
    render_svg(cloud, svg)
    assert svg.read_text().startswith("<svg")


@pytest.mark.parametrize("pts", [
    np.array([[1e-300, 1e300], [0.12345678901234567, 2.0],
              [5e-324, 1.7976931348623157e308], [1 / 3, 0.1]]),
    np.array([[1, 2], [3, 4], [5, 6], [7, 8]]),  # an integer cloud is written as floats
], ids=["float", "int"])
def test_cloud_csv_bytes_and_points_roundtrip(tmp_path, monkeypatch, pts):
    path = tmp_path / "cloud.csv"
    monkeypatch.setattr(projective, "_CSV_ROWS", 3)  # two blocks
    save_cloud_csv(PointCloud(pts, "plane_P"), path)
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["plane_P_x", "plane_P_y"])
    for row in pts:
        writer.writerow([repr(float(x)) for x in row])
    assert path.read_bytes() == expected.getvalue().encode()
    back = load_cloud_csv(path)
    assert back.coordinate_system == "plane_P"
    assert back.points.tobytes() == pts.astype(float).tobytes()
    # quoted numbers and blank lines, as csv.reader reads them
    path.write_text('plane_P_x,plane_P_y\r\n"0.5","2.0"\r\n\r\n3.0,"4"\r\n')
    assert load_cloud_csv(path).points.tolist() == [[0.5, 2.0], [3.0, 4.0]]
    path.write_text("plane_P_x,plane_P_y\r\n")  # a header and no points
    with pytest.raises(ValueError, match="two columns"):
        load_cloud_csv(path)


def test_render_svg_strides_a_large_cloud(tmp_path):
    # past 50,000 points every third one is drawn: 120,001 // 50,000 + 1 = 3
    pts = np.random.default_rng(4).uniform(0.1, 1.0, size=(120_001, 2))
    svg = tmp_path / "big.svg"
    render_svg(PointCloud(pts, "plane_P"), svg)
    assert svg.read_text().count("<circle") == 40_001


def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.array([[0.5, -0.1]]), "plane_P")
    with pytest.raises(ValueError):
        PointCloud(np.array([[0.5, 0.2, 0.4]]), "simplex_S")
    with pytest.raises(ValueError):
        PointCloud(np.array([[0.5, 0.5]]), "weird")
