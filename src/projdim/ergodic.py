"""Entropy, Lyapunov exponents and the projected-measure dimension estimate.

Lyapunov exponents come from QR-renormalized random products averaged over
independent chains.  The renormalization cadence adapts to the letter
norms: the triangular factor's diagonal spread grows like the product of
letter norms, and once it passes 1/eps the two small exponents drown in
rounding, so the cadence keeps the per-block growth safely inside double
precision (large subsystem letters need renormalizing every few steps).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Sequence

import numpy as np

from .errors import BadVector, DegenerateSpectrum, DomainError, WorkerDied
from .linalg import opnorm_batch
from .rng import letter_sampler, make_rng
from .pressure import DimensionEstimate
from .projective import dyadic_cells, frame_for_plane, project_measure_samples
from .semigroup import SystemSpec, require_positive_like

LOG2 = math.log(2.0)
_CHAINS = 32  # independent Lyapunov chains; their spread gives the standard errors
_DRAW_ROWS = 1024  # steps whose letters are drawn at once
# processes of empirical_delta's plane pool: one per available CPU
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def shannon_entropy(p: Sequence) -> float:
    """``-sum p_i log p_i`` in nats of exact rationals (floats are read
    exactly); rejects non-probability vectors."""
    vals = [Fraction(x) for x in p]
    if not vals:
        raise BadVector("empty probability vector")
    if sum(vals) != 1:
        raise BadVector("probabilities must sum to 1")
    if any(x <= 0 for x in vals):
        raise BadVector("probabilities must be strictly positive")
    return -math.fsum(float(x) * math.log(float(x)) for x in vals)


@dataclass(frozen=True)
class LyapunovStats:
    chi1: float
    chi2: float
    chi3: float
    stderr1: float
    stderr2: float
    stderr3: float
    steps: int
    diagnostics: dict = field(default_factory=dict, compare=False)

    @property
    def chis(self) -> tuple[float, float, float]:
        return self.chi1, self.chi2, self.chi3

    @property
    def stderrs(self) -> tuple[float, float, float]:
        return self.stderr1, self.stderr2, self.stderr3


def _renorm_cadence(sys: SystemSpec) -> int:
    kappa = max(math.log(max(n, 1.0 + 1e-12)) for n in opnorm_batch(sys.letters_float))
    return max(1, min(20, int(16.0 / max(kappa, 1e-9))))


def lyapunov_exponents(sys: SystemSpec, steps: int, seed=0) -> LyapunovStats:
    """Monte-Carlo Lyapunov spectrum with chain-wise standard errors.

    The letters are drawn ``_DRAW_ROWS`` steps at a time, so memory does not
    grow with ``steps``; Philox fills ``random`` in order, so every index is
    the one a single ``(steps, chains)`` draw gives.
    """
    if steps < 1000:
        raise DomainError("lyapunov_exponents needs steps >= 1000")
    letters = sys.letters_float
    cadence = _renorm_cadence(sys)
    draw = letter_sampler(sys.probabilities_float)
    rng = make_rng(seed)
    q = np.broadcast_to(np.eye(3), (_CHAINS, 3, 3)).copy()
    acc = np.zeros((_CHAINS, 3))
    for t in range(steps):
        row = t % _DRAW_ROWS
        if row == 0:
            idx = draw(rng, (min(_DRAW_ROWS, steps - t), _CHAINS))
        q = letters[idx[row]] @ q
        if (t + 1) % cadence == 0:
            q, r = np.linalg.qr(q)
            acc += np.log(np.abs(np.diagonal(r, axis1=-2, axis2=-1)))
    q, r = np.linalg.qr(q)
    acc += np.log(np.abs(np.diagonal(r, axis1=-2, axis2=-1)))
    # axis-aligned letters never rotate the frame, so sort each chain's spectrum
    per = np.sort(acc / steps, axis=1)[:, ::-1]
    chi = per.mean(axis=0)
    se = per.std(axis=0, ddof=1) / math.sqrt(_CHAINS)
    return LyapunovStats(
        float(chi[0]), float(chi[1]), float(chi[2]),
        float(se[0]), float(se[1]), float(se[2]),
        steps=steps,
        diagnostics={"chains": _CHAINS, "renorm_cadence": cadence},
    )


def lyapunov_dimension(entropy: float, stats: LyapunovStats) -> float:
    """Dimension from entropy and the Lyapunov spectrum, clamped to [0, 2].

    Piecewise in the entropy: a ratio against the top gap up to dimension
    one, then one plus the excess against the full gap, saturating at two.
    """
    if entropy < 0:
        raise DomainError("entropy must be nonnegative")
    g12 = stats.chi1 - stats.chi2
    g13 = stats.chi1 - stats.chi3
    if g12 <= 0 or stats.chi2 - stats.chi3 <= 0:
        raise DegenerateSpectrum(f"need chi1 > chi2 > chi3, got {stats.chis}")
    if entropy <= g12:
        return min(2.0, entropy / g12)
    if entropy <= g12 + g13:
        return min(2.0, 1.0 + (entropy - g12) / g13)
    return 2.0


def furstenberg_plane_sample(sys: SystemSpec, steps: int, seed=0) -> np.ndarray:
    """One sample of the stationary plane, returned as a unit normal.

    Pushing a plane through the transposed letters moves its normal by the
    letter inverses, so the chain iterates ``n <- A^-1 n`` from a fixed
    initial plane and returns the terminal unit normal with a deterministic
    sign (largest coordinate positive).
    """
    if steps < 100:
        raise DomainError("furstenberg_plane_sample needs steps >= 100")
    inv = sys.letters_inverse_float
    idx = letter_sampler(sys.probabilities_float)(make_rng(seed), steps)
    n = np.array([0.0, -1.0, 1.0]) / math.sqrt(2.0)  # normal of span{e1, (1,1,1)}
    for t in idx:
        n = inv[t] @ n
        n /= np.linalg.norm(n)
    imax = int(np.argmax(np.abs(n)))
    return n if n[imax] > 0 else -n


def _cell_counts(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Occupied cells in increasing order and their counts, as ``np.unique``
    gives them; sorts the 1-d ``cells`` in place."""
    cells.sort()
    starts = _run_starts(cells)
    return cells[starts], np.diff(np.append(starts, cells.size))


def _run_starts(sorted_vals: np.ndarray) -> np.ndarray:
    return np.flatnonzero(np.concatenate(([True], sorted_vals[1:] != sorted_vals[:-1])))


def _plugin_entropy(counts: np.ndarray) -> float:
    qf = counts / counts.sum()
    return float(0.0 - (qf * np.log(qf)).sum())  # +0.0 for one cell, where negation gives -0.0


def dyadic_entropy(samples, n: int) -> float:
    """Plug-in entropy of the sample histogram on cells of side ``2^-n``.

    Binning commutes with dyadic scaling exactly: scaling samples by
    ``2^k`` and evaluating at resolution ``n + k`` reproduces resolution
    ``n`` bit for bit whenever the scaling itself is exact.  It is not for
    samples it rounds below the normal range: ``-5e-324 * 2^-1`` is
    ``-0.0``, which leaves cell ``-1`` for cell ``0``.  Raises
    ``FloatRange`` once ``max |v| * 2^n`` reaches ``2^63``, where the cell
    indices would leave ``int64``.
    """
    vals = np.asarray(samples, dtype=float)
    if vals.size == 0:
        raise BadVector("dyadic_entropy needs samples")
    return _plugin_entropy(_cell_counts(dyadic_cells(vals, n).ravel())[1])


def _entropy_slope(cells: np.ndarray) -> float:
    """``dyadic_entropy(v, n) - dyadic_entropy(v, n - 4)`` from the 1-d cells
    ``floor(v 2^n)`` and one sort, done in place.

    ``floor(v 2^n) >> 4 == floor(v 2^(n-4))`` exactly, and shifting keeps
    the sorted cells sorted, so the coarse counts are sums over runs of
    equal shifted fine cells, in the order ``np.unique`` gives them.
    """
    cells, counts = _cell_counts(cells)
    coarse = np.add.reduceat(counts, _run_starts(cells >> 4))
    return _plugin_entropy(counts) - _plugin_entropy(coarse)


def _plane_estimate(sys: SystemSpec, samples: int, n: int, seed, w: int):
    """Plane ``w``'s entropy-slope estimate and its unit normal, from its own seeds."""
    normal = furstenberg_plane_sample(sys, 300, seed=(seed, 1, w))
    cells = project_measure_samples(sys, frame_for_plane(normal), samples, seed=(seed, 2, w),
                                    cells=n)
    return _entropy_slope(cells) / (4 * LOG2), [float(x) for x in normal]


_pool_system = None  # the system, in each worker of empirical_delta's pool


def _keep_system(sys: SystemSpec) -> None:
    global _pool_system
    _pool_system = sys


def _on_pool_system(fn, *args, **kwargs):
    """``fn(system, ...)`` in a pool worker, whose system came through fork, unpickled."""
    return fn(_pool_system, *args, **kwargs)


def _fork_context(planes: int):
    """The ``fork`` context for the plane pool, or None to run serially."""
    if planes == 1 or _WORKERS == 1:
        return None
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def empirical_delta(sys: SystemSpec, planes: int = 32, samples: int = 100_000,
                    n: int = 12, seed=0, lyap_steps: int = 20_000) -> DimensionEstimate:
    """Monte-Carlo dimension of typical plane projections of the measure.

    For each sampled stationary plane the projected measure's entropy slope
    between resolutions ``n-4`` and ``n`` estimates the local dimension; the
    plane average is reported next to the theoretical target
    ``min(1, H / (chi1 - chi2))`` computed from the same run's exponents.

    The planes and the Lyapunov run are independent tasks, each drawing
    from its own seeds, so they run on a pool of forked processes, one per
    available CPU (at most ``planes + 1``), and the result does not depend
    on that number.  With one plane, one CPU or no ``fork``, they run in
    this process.
    """
    if n < 5:
        raise DomainError("resolution must be at least 5")
    if planes < 1 or samples < 1:
        raise DomainError(f"empirical_delta needs planes >= 1 and samples >= 1, "
                          f"got {planes} and {samples}")
    require_positive_like(sys, "empirical_delta")
    lyap_seed = (seed, 0xABCD)
    context = _fork_context(planes)
    if context is None:
        stats = lyapunov_exponents(sys, lyap_steps, seed=lyap_seed)
        per_plane = [_plane_estimate(sys, samples, n, seed, w) for w in range(planes)]
    else:
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        pool = ProcessPoolExecutor(min(_WORKERS, planes + 1), mp_context=context,
                                   initializer=_keep_system, initargs=(sys,))
        try:
            # the longest task first, so it does not finish last
            lyap = pool.submit(_on_pool_system, lyapunov_exponents, lyap_steps, seed=lyap_seed)
            runs = pool.map(partial(_on_pool_system, _plane_estimate, samples, n, seed),
                            range(planes))
            stats = lyap.result()
            per_plane = list(runs)
        except BrokenExecutor as exc:  # the kernel's out-of-memory killer, most often
            raise WorkerDied(str(exc)) from exc
        finally:  # joins the workers; after an error, drops the planes not yet started
            pool.shutdown(cancel_futures=True)
    ests = [est for est, _ in per_plane]
    normals = [normal for _, normal in per_plane]
    entropy = shannon_entropy(sys.probabilities)
    target = min(1.0, entropy / (stats.chi1 - stats.chi2))
    value = float(np.mean(ests))
    spread = float(np.std(ests, ddof=1)) if planes > 1 else 0.0
    return DimensionEstimate(
        value=value,
        bracket_lo=value - spread,
        bracket_hi=value + spread,
        depth=n,
        method="empirical_entropy",
        diagnostics={
            "target": target,
            "entropy": entropy,
            "chi": list(stats.chis),
            "chi_stderr": list(stats.stderrs),
            "plane_estimates": ests,
            "plane_normals": normals,
            "planes": planes,
            "samples": samples,
        },
    )
