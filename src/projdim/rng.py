"""Deterministic counter-based random streams.

Streams are keyed by hashing the seed material (ints, tuples, strings), so
worker indices can be mixed into a seed without colliding and the same
seed always reproduces the same stream on any platform.
"""

from __future__ import annotations

import hashlib

import numpy as np


def philox_key(seed) -> np.ndarray:
    digest = hashlib.sha256(repr(seed).encode()).digest()
    return np.frombuffer(digest, dtype=np.uint64)[:2]


def make_rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=philox_key(seed)))


def letter_sampler(p):
    """A function ``draw(rng, shape)`` of letter indices drawn with
    probabilities ``p``, index for index what
    ``rng.choice(len(p), size=shape, p=p)`` draws.

    ``choice`` takes ``u = rng.random(shape)`` and returns the number of
    entries of ``cdf = p.cumsum(); cdf /= cdf[-1]`` that are ``<= u``, by
    binary search.  ``draw`` does the same count with a guide table (Chen
    and Asau, 1974), built once here: with a power-of-two number of buckets
    ``K >= 4k``, ``floor(u * K)`` is exact, bucket ``b`` starts at the count
    of entries ``<= b / K <= u`` (never past the answer), and a forward walk
    of the bucket's longest length finishes it with the same ``cdf[i] <= u``
    test.  The walk stops at ``k - 1`` because ``cdf[-1] == 1 > u``.
    Philox fills ``random`` sequentially, so drawing the rows of a shape one
    at a time gives the same indices as one draw of the whole shape.
    """
    cdf = np.asarray(p, dtype=float).cumsum()
    cdf /= cdf[-1]
    buckets = 1 << (4 * cdf.size - 1).bit_length()
    edges = np.arange(buckets + 1) / buckets
    start = cdf.searchsorted(edges[:-1], side="right")
    walk = int((cdf.searchsorted(edges[1:], side="left") - start).max())

    def draw(rng: np.random.Generator, shape) -> np.ndarray:
        u = rng.random(shape)
        idx = start[(u * buckets).astype(np.intp)]
        for _ in range(walk):
            idx += cdf[idx] <= u
        return idx

    return draw
