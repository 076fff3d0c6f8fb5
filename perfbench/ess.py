"""Rank-normalized bulk ESS and split R-hat (Vehtari et al. 2021), in numpy.

Draws are laid out as (chains, draws, ...): every trailing axis is an
independent scalar quantity, so one call handles all template sites or all
transform coordinates at once. Each chain is split in half, the halves are
rank-normalized jointly, and the autocorrelation of every half is computed
by FFT. The ESS sums the multi-chain autocorrelation over Geyer's initial
monotone sequence of paired lags.

A quantity that never moves has no spread to estimate; its ESS is 0 and its
R-hat is 1, never NaN.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _as_chains(draws):
    a = np.asarray(draws, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    if a.shape[1] < 4:
        raise ValueError("need at least 4 draws per chain")
    return a


def split_chains(draws):
    """(chains, draws, ...) -> (2 * chains, draws // 2, ...); drops a middle odd draw."""
    a = _as_chains(draws)
    half = a.shape[1] // 2
    return np.concatenate([a[:, :half], a[:, a.shape[1] - half:]], axis=0)


def rank_normalize(draws):
    """Normal scores of the ranks pooled over chains and draws, ties averaged."""
    a = np.asarray(draws, dtype=float)
    c, n = a.shape[:2]
    flat = a.reshape(c * n, -1)
    ranks = rankdata(flat, axis=0, method="average")
    z = ndtri((ranks - 0.375) / (c * n + 0.25))
    return z.reshape(a.shape)


def _autocovariance(a):
    """Biased autocovariance along axis 1, for every chain and quantity."""
    n = a.shape[1]
    centred = a - a.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centred, n=size, axis=1)
    return np.fft.irfft(spec * np.conj(spec), n=size, axis=1)[:, :n] / n


def _variance_terms(a):
    """Within-chain variance W and the pooled estimate var+ per quantity."""
    c, n = a.shape[:2]
    w = a.var(axis=1, ddof=1).mean(axis=0)
    var_plus = (n - 1) / n * w
    if c > 1:
        var_plus = var_plus + a.mean(axis=1).var(axis=0, ddof=1)
    return w, var_plus


def ess(draws):
    """Effective sample size of (chains, draws, ...) split, un-normalized draws."""
    a = np.asarray(draws, dtype=float)
    c, n = a.shape[:2]
    total = c * n
    acov = _autocovariance(a)
    w, var_plus = _variance_terms(a)
    moving = var_plus > 0
    safe = np.where(moving, var_plus, 1.0)
    rho = 1.0 - (w - acov.mean(axis=0)) / safe              # (n, ...)
    pairs = n // 2
    p = rho[0:2 * pairs:2] + rho[1:2 * pairs:2]              # (pairs, ...)
    # Initial positive sequence: keep pairs up to the first negative one.
    positive = np.cumprod(p > 0, axis=0).astype(bool)
    # Initial monotone sequence: no pair may exceed the one before it.
    p = np.minimum.accumulate(np.where(positive, p, 0.0), axis=0)
    tau = -1.0 + 2.0 * p.sum(axis=0)
    tau = np.maximum(tau, 1.0 / np.log10(total))
    return np.where(moving, total / tau, 0.0)


def bulk_ess(draws):
    """Rank-normalized split-chain bulk ESS; draws (chains, draws, ...) or (draws,)."""
    return ess(rank_normalize(split_chains(draws)))


def split_rhat(draws):
    """Rank-normalized split R-hat: the larger of the bulk and folded values."""
    halves = split_chains(draws)
    folded = np.abs(halves - np.median(halves, axis=(0, 1)))
    out = []
    for a in (rank_normalize(halves), rank_normalize(folded)):
        w, var_plus = _variance_terms(a)
        out.append(np.sqrt(np.where(w > 0, var_plus / np.where(w > 0, w, 1.0), 1.0)))
    return np.maximum(out[0], out[1])
