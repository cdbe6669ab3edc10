import numpy as np
import pytest

from projdim.pressure import rauzy_gamma_system
from projdim.rng import letter_sampler, make_rng
from projdim.systems import rauzy_system, triple9_system

PROBABILITIES = {
    "gamma10": rauzy_gamma_system(10).probabilities_float,
    "rauzy": rauzy_system().probabilities_float,
    "triple9": triple9_system().probabilities_float,
    "tiny": np.array([1e-12, 0.5 - 1e-12, 0.125, 0.375]),
    "k1": np.array([1.0]),
    "k2": np.array([0.3, 0.7]),
}


@pytest.mark.parametrize("name", sorted(PROBABILITIES))
@pytest.mark.parametrize("shape", [1, 300, (7, 5), (120, 64)])
def test_draw_letters_matches_choice_bit_for_bit(name, shape):
    p = PROBABILITIES[name]
    draw = letter_sampler(p)
    for seed in (0, 1, (3, 2, 7)):
        want = make_rng(seed).choice(len(p), size=shape, p=p)
        got = draw(make_rng(seed), shape)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


class _FixedUniforms:
    """A generator stub whose ``random`` returns given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        return self.u.reshape(shape)


@pytest.mark.parametrize("name", sorted(PROBABILITIES) + ["zero"])
def test_draw_letters_at_cdf_edges(name):
    p = PROBABILITIES.get(name, np.array([0.5, 0.0, 0.5]))
    cdf = p.cumsum()
    cdf /= cdf[-1]
    u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0),
                        [0.0, 1.0 - 2.0 ** -53]])
    u = u[(u >= 0.0) & (u < 1.0)]
    got = letter_sampler(p)(_FixedUniforms(u), u.shape)
    assert np.array_equal(got, cdf.searchsorted(u, side="right"))
    assert got.max() < len(p)


@pytest.mark.parametrize("name", ["gamma10", "rauzy", "k1"])
def test_letter_sampler_row_by_row_equals_one_draw(name):
    draw = letter_sampler(PROBABILITIES[name])
    whole = draw(make_rng(5), (37, 300))
    rng = make_rng(5)
    rows = np.stack([draw(rng, 300) for _ in range(37)])
    assert np.array_equal(rows, whole)
