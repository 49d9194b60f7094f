"""Independent verification engine: exact samplers through the stochastic
representation X_i = G_i / Theta, G_i ~ Gamma(shape_i, 1) (one frailty draw
per row; exponential claims have shape 1), empirical
cdf / Kolmogorov-Smirnov machinery, and direct quadrature of the mixture
integral (MixingDistribution.quadrature_transform).

Reproducibility contract: a plan with a fixed seed produces bit-identical
samples no matter how many worker threads execute it.  Each stream owns a
counter-based Philox generator spawned deterministically from the seed and
fills a disjoint slice of the output.
"""

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import exp, inf, lgamma, log

import numpy as np

from .aggregate import AggregateModel
from .mixing import MixingDistribution

__all__ = [
    "SimulationPlan",
    "sample_vector",
    "sample_sums",
    "empirical_ks",
    "quadrature_mixture_pdf",
    "save_samples",
    "load_samples",
]

_MAGIC = b"RMIXSMP1"
_KS_BLOCK = 1 << 14  # the sorted sums empirical_ks hands the cdf at once


@dataclass(frozen=True)
class SimulationPlan:
    """Batch description: which model, how many rows, seed and stream count."""

    model: AggregateModel
    samples: int
    seed: int
    streams: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.streams < 1:
            raise ValueError("streams must be >= 1")
        if not isinstance(self.model, AggregateModel):
            raise TypeError("plan model must be an AggregateModel")

    @property
    def n(self) -> int:
        return self.model.n


def _fill_block(model, out, rng):
    # X_ij = G_ij / Theta_i with G_ij ~ Gamma(shape_j, 1), drawn into the block and
    # divided there, so no second array of its size is held; at shape 1 numpy's gamma
    # draws are its exponential ones, bit for bit.  One shape for every claim (always so
    # for exponential claims) takes numpy's scalar-shape path, which draws the same
    # values as the array path at about half the cost
    theta = model.mixing.sample(out.shape[0], rng)
    shapes = model.shapes
    rng.standard_gamma(shapes[0] if len(set(shapes)) == 1 else np.asarray(shapes),
                       size=out.shape, out=out)
    np.divide(out, theta[:, None], out=out)


def _run_streams(plan: SimulationPlan, threads: int, fill):
    """fill(lo, hi, rng) on each stream's rows lo:hi, with the stream's own generator,
    on up to `threads` worker threads."""
    seqs = np.random.SeedSequence(plan.seed).spawn(plan.streams)
    base, rem = divmod(plan.samples, plan.streams)
    bounds = []
    start = 0
    for i in range(plan.streams):
        stop = start + base + (1 if i < rem else 0)
        bounds.append((start, stop))
        start = stop

    def work(i):
        lo, hi = bounds[i]
        if hi > lo:
            fill(lo, hi, np.random.Generator(np.random.Philox(seqs[i])))

    if threads <= 1:
        for i in range(plan.streams):
            work(i)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, range(plan.streams)))


def sample_vector(plan: SimulationPlan, threads: int = 1) -> np.ndarray:
    """Draw the (samples x n) claim matrix; rows are iid, the frailty draw is
    shared across the columns of a row."""
    out = np.empty((plan.samples, plan.n), dtype=float)
    _run_streams(plan, threads, lambda lo, hi, rng: _fill_block(plan.model, out[lo:hi], rng))
    return out


def sample_sums(plan: SimulationPlan, threads: int = 1) -> np.ndarray:
    """The row sums of sample_vector(plan, threads), each stream's block summed as it
    is drawn, so the whole matrix is never held.  The columns are added left to
    right, which is numpy's sum(axis=1) bit for bit below 8 columns (its pairwise
    sum is sequential there); from 8 columns on, where numpy keeps 8 partial sums,
    the two differ by at most n 2^-52 of the sum (both add positive claims)."""
    sums = np.empty(plan.samples, dtype=float)

    def fill(lo, hi, rng):
        block = np.empty((hi - lo, plan.n), dtype=float)
        _fill_block(plan.model, block, rng)
        total = sums[lo:hi]
        total[:] = block[:, 0]
        for column in block.T[1:]:
            total += column

    _run_streams(plan, threads, fill)
    return sums


def empirical_ks(sums: np.ndarray, cdf) -> float:
    """Sup distance between the empirical cdf of `sums` and the callable cdf, which is
    called on blocks of _KS_BLOCK of the sorted sums, so that its temporaries do not
    grow with the sample; a nan from it gives nan."""
    s = np.sort(np.asarray(sums, dtype=float))
    n = s.size
    if not n:
        raise ValueError("empirical_ks needs at least one sum")
    dist = -inf
    for lo in range(0, n, _KS_BLOCK):
        f = np.asarray(cdf(s[lo:lo + _KS_BLOCK]), dtype=float)
        i = np.arange(lo, lo + f.size)
        dist = np.maximum(dist, max(np.max(f - i / n), np.max((i + 1) / n - f)))
    return float(dist)


def quadrature_mixture_pdf(mixing: MixingDistribution, n: float, x: float) -> float:
    """Direct quadrature of the mixture integral
    f(x) = x^{n-1}/Gamma(n) int theta^n e^{-theta x} f_Theta(theta) dtheta,
    n a real total shape; the primary oracle for the derivative route."""
    if x <= 0:
        raise ValueError("x must be positive")
    return exp((n - 1.0) * log(x) - lgamma(n)) * mixing.quadrature_transform(n, x)


def save_samples(path, samples: np.ndarray, seed: int):
    """Binary export: magic, n, samples, seed header then column-major doubles."""
    arr = np.ascontiguousarray(samples, dtype=float)
    if arr.ndim != 2:
        raise ValueError("expected a 2-d sample matrix")
    rows, n = arr.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQq", n, rows, seed))
        fh.write(np.asfortranarray(arr).tobytes(order="F"))


def load_samples(path):
    """Read a binary sample file; returns (matrix, seed)."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MAGIC:
            raise ValueError("not a riskmix sample file")
        n, rows, seed = struct.unpack("<IQq", fh.read(20))
        data = np.frombuffer(fh.read(8 * rows * n), dtype="<f8")
    return data.reshape((rows, n), order="F").copy(), seed
