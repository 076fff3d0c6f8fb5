"""Tests for the benchmark's ESS and split R-hat estimator.

Run from the repository root: python3 -m pytest -q perfbench
"""

import numpy as np

from ess import bulk_ess, split_rhat


def ar1(phi, n, chains, rng):
    x = np.empty((chains, n))
    x[:, 0] = rng.standard_normal(chains) / np.sqrt(1.0 - phi ** 2)
    eps = rng.standard_normal((chains, n))
    for t in range(1, n):
        x[:, t] = phi * x[:, t - 1] + eps[:, t]
    return x


def test_ar1_matches_closed_form():
    rng = np.random.default_rng(1)
    n, chains, phi = 20000, 4, 0.6
    expected = chains * n * (1.0 - phi) / (1.0 + phi)
    got = float(bulk_ess(ar1(phi, n, chains, rng)))
    assert abs(got / expected - 1.0) < 0.1


def test_iid_is_close_to_n():
    rng = np.random.default_rng(2)
    draws = rng.standard_normal((4, 5000))
    assert abs(float(bulk_ess(draws)) / draws.size - 1.0) < 0.1


def test_constant_chain_gives_zero_not_nan():
    draws = np.full((2, 500), 3.25)
    assert float(bulk_ess(draws)) == 0.0
    assert float(split_rhat(draws)) == 1.0


def test_trailing_axes_are_independent_quantities():
    rng = np.random.default_rng(3)
    iid = rng.standard_normal((2000, 3))
    stuck = np.zeros((2000, 1))
    got = bulk_ess(np.concatenate([iid, stuck], axis=1)[None])
    assert got.shape == (4,)
    assert np.all(got[:3] > 1500) and got[3] == 0.0


def test_single_chain_vector_input():
    rng = np.random.default_rng(4)
    draws = rng.standard_normal(4001)
    assert abs(float(bulk_ess(draws)) / 4000 - 1.0) < 0.15


def test_rhat_flags_chains_stuck_apart():
    rng = np.random.default_rng(5)
    mixed = rng.standard_normal((4, 1000))
    apart = mixed + np.arange(4)[:, None] * 3.0
    assert float(split_rhat(mixed)) < 1.01
    assert float(split_rhat(apart)) > 1.5


def test_rhat_flags_a_trend_within_one_chain():
    rng = np.random.default_rng(6)
    trend = np.linspace(0.0, 10.0, 2000) + rng.standard_normal(2000)
    assert float(split_rhat(trend)) > 1.5
