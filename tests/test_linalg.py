import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projdim.errors import DomainError, FloatRange, PrecisionLoss, SingularInput
from projdim.linalg import (
    Matrix3,
    ext2_batch,
    exterior_square,
    mat_mul,
    operator_norm,
    opnorm_batch,
    singular_values,
    svf,
    svf_via_norms,
    sym3_max_eig_batch,
)
from projdim.pressure import rauzy_gamma_system
from projdim.systems import rauzy_alphabet

# Written-out expansions, independent of `adjugate` and `det_stack`: the
# references for the exact and float routines that read every minor there.
_EXT_INDEX = ((0, 1), (0, 2), (1, 2))  # basis e1^e2, e1^e3, e2^e3


def ref_exterior_square(e):
    return tuple(tuple(e[i1][j1] * e[i2][j2] - e[i1][j2] * e[i2][j1] for j1, j2 in _EXT_INDEX)
                 for i1, i2 in _EXT_INDEX)


def ref_ext2_batch(a):
    """:func:`ref_exterior_square` of each matrix of a ``(..., 3, 3)`` float stack."""
    rows = [[a[..., i, j] for j in range(3)] for i in range(3)]
    return np.moveaxis(np.array(ref_exterior_square(rows)), (0, 1), (-2, -1))


def ref_det(e):
    return (e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
            - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
            + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0]))


def ref_inverse(e):
    d = ref_det(e)

    def cof(i, j):
        rs = [r for r in range(3) if r != i]
        cs = [c for c in range(3) if c != j]
        m = e[rs[0]][cs[0]] * e[rs[1]][cs[1]] - e[rs[0]][cs[1]] * e[rs[1]][cs[0]]
        return m if (i + j) % 2 == 0 else -m

    return tuple(tuple(cof(j, i) / d for j in range(3)) for i in range(3))


def ref_mat_mul(x, y):
    return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3))
                 for i in range(3))


# Singular values of the first Rauzy generator, frozen from an independent
# dense eigensolver run on A A^T = [[3,1,1],[1,1,0],[1,0,1]] before this
# module was written.
A1_SV = (1.9318516525781364, 1.0, 0.5176380902050415)


def test_mat_mul_identity_and_inverse():
    a1, a2, _ = rauzy_alphabet()
    ident = Matrix3.identity()
    assert mat_mul(a1, ident) == a1
    assert mat_mul(a1, a1.inverse()) == ident
    assert mat_mul(a1, a2) == Matrix3.from_rows([[2, 1, 2], [1, 1, 1], [0, 0, 1]])


def test_exterior_square_trivial_cases():
    ident = Matrix3.identity()
    assert exterior_square(ident) == ident
    d = Matrix3.diagonal(2, 3, 5)
    assert exterior_square(d) == Matrix3.diagonal(6, 10, 15)


@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=18, max_size=18))
@settings(max_examples=100, deadline=None)
def test_exterior_square_functorial_exact(vals):
    a = Matrix3.from_rows([vals[0:3], vals[3:6], vals[6:9]])
    b = Matrix3.from_rows([vals[9:12], vals[12:15], vals[15:18]])
    assert exterior_square(mat_mul(a, b)) == mat_mul(exterior_square(a), exterior_square(b))


def _all_fractions(rows):
    return all(type(x) is F for row in rows for x in row)


@given(st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=12),
                min_size=18, max_size=18))
@settings(max_examples=150, deadline=None)
def test_exact_routines_match_written_out_expansions(vals):
    a = Matrix3.from_rows([vals[0:3], vals[3:6], vals[6:9]])
    b = Matrix3.from_rows([vals[9:12], vals[12:15], vals[15:18]])
    assert exterior_square(a).entries == ref_exterior_square(a.entries)
    assert mat_mul(a, b).entries == ref_mat_mul(a.entries, b.entries)
    assert type(a.det) is F and a.det == ref_det(a.entries)
    assert _all_fractions(exterior_square(a).entries) and _all_fractions(mat_mul(a, b).entries)
    if a.det == 0:
        with pytest.raises(SingularInput):
            a.inverse()
    else:
        assert a.inverse().entries == ref_inverse(a.entries)
        assert _all_fractions(a.inverse().entries)


def _assert_same_minors(got, want):
    """Equal values, and equal bits wherever the minor is nonzero: an exact
    zero minor may come out as -0.0 on one side and 0.0 on the other."""
    assert got.dtype == want.dtype and np.array_equal(got, want)
    nonzero = want != 0.0
    assert np.array_equal(got.view(np.uint64)[nonzero], want.view(np.uint64)[nonzero])


@pytest.mark.parametrize("stack", [
    lambda: np.random.default_rng(11).normal(size=(2000, 3, 3)),
    lambda: np.random.default_rng(12).integers(-3, 4, size=(2000, 3, 3)) / 4.0,
    lambda: np.random.default_rng(13).normal(size=(3, 3)) * 1e100,
], ids=["signed", "exact-zeros", "single"])
def test_ext2_batch_matches_written_out_minors(stack):
    a = stack()
    _assert_same_minors(ext2_batch(a), ref_ext2_batch(a))


def test_ext2_of_gamma_letters_is_bit_identical_to_the_written_out_minors():
    for n in (10, 20):
        lf = rauzy_gamma_system(n).letters_float
        got, want = ext2_batch(lf), ref_ext2_batch(lf)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        prods = np.matmul(lf[:, None], lf[None]).reshape(-1, 3, 3)
        _assert_same_minors(ext2_batch(prods), ref_ext2_batch(prods))


def test_singular_values_identity_and_diagonal():
    sv = singular_values(Matrix3.identity())
    assert (sv.a1, sv.a2, sv.a3) == (1.0, 1.0, 1.0)
    sv = singular_values(Matrix3.diagonal(4, 1, F(1, 4)))
    assert sv.a1 == pytest.approx(4.0, rel=1e-14)
    assert sv.a2 == pytest.approx(1.0, rel=1e-14)
    assert sv.a3 == pytest.approx(0.25, rel=1e-14)


def test_singular_values_rauzy_frozen():
    a1 = rauzy_alphabet()[0]
    sv = singular_values(a1)
    for got, want in zip((sv.a1, sv.a2, sv.a3), A1_SV):
        assert got == pytest.approx(want, rel=1e-12)


def test_singular_values_rejects_singular():
    with pytest.raises(SingularInput):
        singular_values(Matrix3.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]]))


def test_precision_loss_warning():
    m = Matrix3.diagonal(10**7, 1, F(1, 10**7))
    with pytest.warns(PrecisionLoss):
        singular_values(m)


def _random_positive_unimodular(rng, max_len=4):
    """Random products of the Rauzy generators; unimodular, mostly positive."""
    a = Matrix3.identity()
    alphabet = rauzy_alphabet()
    for idx in rng.integers(0, 3, size=rng.integers(2, max_len + 1)):
        a = mat_mul(a, alphabet[idx])
    return a


def test_unimodular_product_of_singular_values():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = _random_positive_unimodular(rng, max_len=6)
        sv = singular_values(a)
        assert sv.a1 * sv.a2 * sv.a3 == pytest.approx(1.0, rel=1e-9)


def test_singular_values_against_lapack():
    # cross-check the Jacobi/Gram route against LAPACK's SVD
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = _random_positive_unimodular(rng, max_len=8)
        sv = singular_values(a)
        ref = np.linalg.svd(a.float_view, compute_uv=False)
        assert sv.a1 == pytest.approx(ref[0], rel=1e-10)
        assert sv.a2 == pytest.approx(ref[1], rel=1e-9)
        assert sv.a3 == pytest.approx(ref[2], rel=1e-9)


def test_singular_values_stay_in_float_range():
    # the products of rauzy_alphabet()[n % 3] over n = 1..N; past N = 280 the
    # entries pass 1e77 and the unscaled Gram-of-Gram step overflows
    alphabet = rauzy_alphabet()
    p, prods = Matrix3.identity(), {}
    for n in range(1, 1201):
        p = mat_mul(p, alphabet[n % 3])
        prods[n] = p
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionLoss)
        for n in (40, 100, 280):
            # the unscaled route is in range here, and scaling moves no bit
            a = prods[n]
            n1 = float(opnorm_batch(a.float_view))
            n2 = float(opnorm_batch(exterior_square(a).float_view))
            sv = singular_values(a)
            assert (sv.a1, sv.a2, sv.a3) == (n1, n2 / n1, 1.0 / n2)
            assert operator_norm(a) == n1
            assert svf_via_norms(a, 1.5) == (n2 / n1 ** 2) * (1.0 / (n1 * n2)) ** 0.5
        for n in (300, 700):
            sv = singular_values(prods[n])
            ref = np.linalg.svd(prods[n].float_view, compute_uv=False)
            assert sv.a1 == pytest.approx(ref[0], rel=1e-13)
            assert sv.a1 * sv.a2 * sv.a3 == pytest.approx(1.0, rel=1e-12)
            assert 0.0 < sv.a3 <= sv.a2 < sv.a1
            # the norm route scales the same way
            assert operator_norm(prods[n]) == sv.a1
        assert svf_via_norms(prods[300], 1.5) == pytest.approx(svf(prods[300], 1.5), rel=1e-9)
        with pytest.raises(FloatRange):  # a1 is about 2**1055
            singular_values(prods[1200])
        with pytest.raises(FloatRange):
            operator_norm(prods[1200])
    # every value fits a float, but the Gram of the exterior square does not
    tiny = singular_values(Matrix3.diagonal(F(1, 10 ** 60), F(2, 10 ** 60), F(3, 10 ** 60)))
    assert (tiny.a1, tiny.a2, tiny.a3) == pytest.approx((3e-60, 2e-60, 1e-60), rel=1e-14)
    with pytest.raises(FloatRange):  # every value underflows a float
        singular_values(Matrix3.diagonal(*[F(1, 2 ** 1100)] * 3))


def test_svf_trivial_branches():
    ident = Matrix3.identity()
    for s in (0.0, 0.7, 1.0, 1.5, 2.0, 3.0):
        assert svf(ident, s) == 1.0
    d = Matrix3.diagonal(4, 1, F(1, 4))
    assert svf(d, 1.0) == pytest.approx(0.25, rel=1e-12)
    assert svf(d, 1.5) == pytest.approx(1.0 / 16.0, rel=1e-12)
    assert svf(d, 2.0) == pytest.approx(1.0 / 64.0, rel=1e-12)


def test_svf_monotone_and_continuous_at_joints():
    rng = np.random.default_rng(2)
    grid = np.linspace(0.0, 2.5, 11)
    for _ in range(50):
        a = _random_positive_unimodular(rng)
        vals = [svf(a, s) for s in grid]
        assert all(x >= y - 1e-15 for x, y in zip(vals, vals[1:]))
        for joint in (1.0, 2.0):
            for eps in (1e-3, 1e-6):
                gap = abs(svf(a, joint - eps) - svf(a, joint + eps))
                assert gap <= 10 * eps * max(svf(a, joint - eps), 1e-300)


def test_svf_cross_oracle():
    rng = np.random.default_rng(3)
    for _ in range(300):
        a = _random_positive_unimodular(rng, max_len=6)
        for s in (0.0, 0.3, 1.0, 1.5, 2.0):
            assert svf_via_norms(a, s) == pytest.approx(svf(a, s), rel=1e-9)


def test_svf_via_norms_domain():
    with pytest.raises(DomainError):
        svf_via_norms(Matrix3.identity(), 2.5)
    for s in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            svf(Matrix3.identity(), s)
    d = Matrix3.diagonal(4, 1, F(1, 4))
    assert svf_via_norms(d, 1.0) == pytest.approx(0.25, rel=1e-12)
    assert svf_via_norms(Matrix3.identity(), 1.0) == 1.0


def test_operator_norm_and_frobenius_bracket():
    assert operator_norm(Matrix3.identity()) == pytest.approx(1.0, rel=1e-14)
    assert operator_norm(Matrix3.diagonal(4, 1, F(1, 4))) == pytest.approx(4.0, rel=1e-14)
    rng = np.random.default_rng(4)
    for _ in range(100):
        a = _random_positive_unimodular(rng)
        f2 = sum(x * x for row in a.entries for x in row)  # exact: frob^2/3 <= |A|^2 <= frob^2
        n = operator_norm(a)
        assert float(f2 / 3) * (1 - 1e-12) <= n * n <= float(f2) * (1 + 1e-12)


def test_exterior_square_norm_is_a1_a2():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = _random_positive_unimodular(rng)
        sv = singular_values(a)
        assert operator_norm(exterior_square(a)) == pytest.approx(sv.a1 * sv.a2, rel=1e-9)


def test_opnorm_batch_matches_scalar():
    rng = np.random.default_rng(7)
    mats = [_random_positive_unimodular(rng) for _ in range(64)]
    batch = opnorm_batch(np.stack([m.float_view for m in mats]))
    for m, b in zip(mats, batch):
        assert b == pytest.approx(np.linalg.norm(m.float_view, 2), rel=1e-10)


def _rotation(axis, t):
    c, s = math.cos(t), math.sin(t)
    i, j = [k for k in range(3) if k != axis]
    r = np.eye(3)
    r[i, i], r[i, j], r[j, i], r[j, j] = c, -s, s, c
    return r


def test_opnorm_batch_edge_cases_match_lapack():
    # p == 0 (Gram = c^2 I) and the degenerate spectra of the closed-form
    # cubic, each against LAPACK's 2-norm
    u, v = np.array([1.0, -2.0, 0.5]), np.array([3.0, 0.25, -1.0])
    mats = [
        3.5 * np.eye(3),
        np.eye(3)[[1, 2, 0]],                      # cyclic permutation
        -np.eye(3)[[0, 2, 1]],                     # signed transposition
        _rotation(0, math.pi / 2),                 # exact entries, Gram = I
        _rotation(1, 0.3) @ _rotation(2, 1.1),     # Gram = I up to rounding
        np.diag([2.0, 2.0, 1.0]),                  # repeated largest eigenvalue
        np.outer(u, v),                            # rank one
    ]
    got = opnorm_batch(np.stack(mats))
    for m, g in zip(mats, got):
        assert g == pytest.approx(np.linalg.norm(m, 2), rel=1e-12)
    # at a repeated largest eigenvalue the cubic's root is only known to
    # about sqrt(eps): arccos has a square-root branch point at -1, and the
    # rounding of det B decides on which side of it the argument lands
    # (diag(2, 2, 1) happens to land exactly on it)
    rng = np.random.default_rng(8)
    frames = [np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(40)]
    repeated = np.stack([np.diag([1.0, 3.0, 3.0])]
                        + [p @ np.diag([3.0, 3.0, 1.0]) @ q for p, q in zip(frames, frames[1:])])
    np.testing.assert_allclose(opnorm_batch(repeated), 3.0, rtol=1e-8, atol=0)
    assert opnorm_batch(np.zeros((2, 3, 3))).tolist() == [0.0, 0.0]
    # where p == 0 the root is the mean of the diagonal as it is
    lam = sym3_max_eig_batch(*[np.array([x]) for x in (2.25, 0.0, 0.0, 2.25, 0.0, 2.25)])
    assert lam.tolist() == [2.25]


def test_opnorm_batch_guards_a_near_repeated_top_eigenvalue(monkeypatch):
    # below a 1e-4 relative top gap the closed-form root gives way to LAPACK,
    # so a repeated or nearly repeated largest singular value keeps every digit
    rng = np.random.default_rng(10)
    frames = [np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(41)]
    near = np.stack([p @ np.diag([1.0, 3.0, 3.0]) @ q for p, q in zip(frames, frames[1:])]
                    + [np.diag([3.0 * (1.0 + 10.0 ** -j), 3.0, 1.0]) for j in range(6, 14)])
    real, guarded = np.linalg.eigvalsh, []

    def eigvalsh(g):
        guarded.append(len(g))
        return real(g)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    np.testing.assert_allclose(opnorm_batch(near), np.linalg.norm(near, 2, axis=(1, 2)),
                               rtol=1e-14, atol=0)
    assert guarded == [len(near)]
    # Γ_N products stay far from the guard (Γ₁'s smallest relative gap to depth 8 is 7.2e-3)
    lf = rauzy_gamma_system(20).letters_float
    prods = np.matmul(lf[:, None], lf[None]).reshape(-1, 3, 3)
    opnorm_batch(prods), opnorm_batch(ext2_batch(prods))
    assert guarded == [len(near)]


@pytest.mark.parametrize("diag", [(3.0, 3.0, 1.0), (5.0, 5.0, 0.2)]
                         + [(3.0 * (1.0 + 10.0 ** -j), 3.0, 1.0) for j in range(14)])
def test_exact_path_norms_at_near_repeated_top_singular_value(diag):
    # the batch kernel keeps about half its digits at a repeated largest
    # singular value (above); the exact path's norms take LAPACK's value
    # below a 1e-2 relative gap and stay near machine precision throughout
    rng = np.random.default_rng(9)
    for _ in range(200):
        p, q = (np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(2))
        m = p @ np.diag(diag) @ q
        a = Matrix3.from_rows([[F(x) for x in row] for row in m.tolist()])
        ref = np.linalg.svd(m, compute_uv=False)
        np.testing.assert_allclose(operator_norm(a), ref[0], rtol=1e-14, atol=0)
        sv = singular_values(a)
        np.testing.assert_allclose([sv.a1, sv.a2, sv.a3], ref, rtol=1e-14, atol=0)


def test_operator_norm_of_a_repeated_top_singular_value():
    assert abs(operator_norm(Matrix3.diagonal(1, 3, 3)) - 3.0) <= 2 * math.ulp(3.0)
    assert abs(operator_norm(Matrix3.diagonal(F(1, 5), 5, 5)) - 5.0) <= 2 * math.ulp(5.0)


def test_opnorm_batch_gamma20_products_match_svd():
    lf = rauzy_gamma_system(20).letters_float
    prods = np.matmul(lf[:, None], lf[None]).reshape(-1, 3, 3)[:10_000]
    for stack in (prods, ext2_batch(prods)):
        ref = np.linalg.svd(stack, compute_uv=False)[:, 0]
        np.testing.assert_allclose(opnorm_batch(stack), ref, rtol=1e-12, atol=0)


def test_opnorm_batch_raises_float_range():
    # past about 1e77 the Gram step overflows; the kernel says so, not NaN
    big = np.full((2, 3, 3), 1e80)
    big[1] = np.diag([1e80, 1.0, 1.0])
    with pytest.raises(FloatRange):
        opnorm_batch(big)
    assert opnorm_batch(big * 1e-10) == pytest.approx([3e70, 1e70], rel=1e-12)


def test_json_roundtrip_strings():
    a = Matrix3.from_rows([["1/3", "2", "0"], [1, F(5, 7), 3], [0, 0, 1]])
    s = a.to_strings()
    assert s[0][0] == "1/3" and s[1][1] == "5/7"
    assert Matrix3.from_rows(s) == a
