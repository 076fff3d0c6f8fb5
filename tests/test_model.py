import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import gamma as gamma_dist
from scipy.stats import invgamma as invgamma_dist

from groupreg.errors import DegenerateVariance
from groupreg.grids import Lattice, make_lattice_1d
from groupreg.model import (M_MAX, Hyperparams, TransformPrior, WaicAccumulator,
                            build_geometry, invgamma_logpdf, penalty_terms, sigma_s_matrix,
                            waic)
from groupreg.transforms import AffineTransform, affine_inverse, lie_exp

LAT = make_lattice_1d(-2.0, 2.0, 0.5)


def log_prior(prior, t):
    """The prior's log density of one transform, a stack of one."""
    return prior.log_density(t.matrix[None])[0]


def transform_coord_vector(t):
    """vec(M) with M = [A b]^T: per output coordinate k, (A_k1..A_kd, b_k)."""
    return t.matrix[:-1].ravel()


def mvt_logpdf(x, mu, scale, nu):
    """Multivariate t log density with scale matrix `scale` and df `nu` (oracle)."""
    x = np.asarray(x, dtype=float)
    p = x.size
    chol = np.linalg.cholesky(scale)
    half = np.linalg.solve(chol, x - mu)
    quad = float(half @ half)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return float(gammaln((nu + p) / 2.0) - gammaln(nu / 2.0)
                 - 0.5 * p * np.log(nu * np.pi) - 0.5 * logdet
                 - 0.5 * (nu + p) * np.log1p(quad / nu))


class TestSymmetricLoss:
    """The inverse-consistency terms of the symmetric loss (`penalty_terms`)."""

    def test_pure_translation_penalty(self):
        # T = translation(t), T_r = Id: both gaps are ||t||
        t = AffineTransform.translation([0.7])
        got = np.sum(penalty_terms(t.matrix[None], np.eye(2)[None]))
        assert got == pytest.approx(2.0 * 0.7, rel=1e-12)

    def test_penalty_vanishes_iff_exact_inverse(self):
        t = AffineTransform.from_parts([[1.1]], [0.4])
        h = t.matrix[None]
        assert np.sum(penalty_terms(h, affine_inverse(t)[None])) == pytest.approx(
            0.0, abs=1e-10)
        off = AffineTransform.from_parts([[1.0 / 1.1]], [0.0])
        assert np.sum(penalty_terms(h, off.matrix[None])) > 1e-3


# Off-centre lattices: a centred one has a diagonal Sigma_s, whose quad form
# has fewer terms to sum in different orders.
LATTICES = {1: Lattice((21,), np.array([0.37]), np.array([-1.0])),
            2: Lattice((5, 4), np.array([0.5, 0.75]), np.array([-1.0, 0.5]))}
# Lie coordinates of up to 5 transforms and of their reverses, per entry in [-1, 1].
LIE_STACKS = st.lists(st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12),
                      min_size=1, max_size=5)


class TestStackedForms:
    """The prior and the penalties over (n, d + 1, d + 1) stacks: each row is
    the n = 1 result bit for bit, whatever the other rows, and the formulas
    match their definitions."""

    @settings(max_examples=200, deadline=None)
    @given(dim=st.sampled_from([1, 2]), raw=LIE_STACKS)
    def test_rows_equal_the_n1_results(self, dim, raw):
        p = dim * (dim + 1)
        h = np.stack([lie_exp(np.array(r[:p])) for r in raw])
        h_r = np.stack([lie_exp(np.array(r[6:6 + p])) for r in raw])
        sigma_s = sigma_s_matrix(LATTICES[dim].locations())
        prior = TransformPrior(0.7, 1.3, sigma_s)
        log_density, (gap, gap_r) = prior.log_density(h), penalty_terms(h, h_r)
        assert log_density.shape == gap.shape == gap_r.shape == (len(raw),)
        for i in range(len(raw)):
            one, = prior.log_density(h[i:i + 1])
            assert log_density[i] == one
            assert (gap[i], gap_r[i]) == tuple(g[0] for g in penalty_terms(h[i:i + 1],
                                                                         h_r[i:i + 1]))
            dev = h[i, :-1] - np.eye(dim, dim + 1)
            quad = 0.7 / 1.3 * np.einsum("ki,ij,kj->", dev, sigma_s, dev)
            nu = 1.4
            assert one == pytest.approx(prior.log_norm - 0.5 * (nu + p) * np.log1p(quad / nu),
                                        rel=1e-12, abs=1e-12)
            eye = np.eye(dim + 1)
            assert gap[i] == pytest.approx(np.linalg.norm(h[i] @ h_r[i] - eye), rel=1e-12,
                                           abs=1e-15)
            assert gap_r[i] == pytest.approx(np.linalg.norm(h_r[i] @ h[i] - eye), rel=1e-12,
                                             abs=1e-15)

    def test_empty_stacks(self):
        prior = TransformPrior(0.7, 1.3, sigma_s_matrix(LAT.locations()))
        empty = np.empty((0, 2, 2))
        assert prior.log_density(empty).shape == (0,)
        assert all(g.shape == (0,) for g in penalty_terms(empty, empty))


class TestTransformLogPrior:
    def setup_method(self):
        self.sigma_s = sigma_s_matrix(LAT.locations())

    def test_identity_is_mode(self):
        rng = np.random.default_rng(2)
        at_mode = log_prior(TransformPrior(2.0, 1.0, self.sigma_s),
                            AffineTransform.identity(1))
        for _ in range(50):
            t = AffineTransform.from_parts([[1.0 + 0.2 * rng.standard_normal()]],
                                           [0.5 * rng.standard_normal()])
            assert log_prior(TransformPrior(2.0, 1.0, self.sigma_s), t) <= at_mode + 1e-12

    def test_monotone_along_ray(self):
        direction = np.array([0.08, 0.3])
        prev = np.inf
        for step in (0.5, 1.0, 2.0, 4.0):
            t = AffineTransform.from_parts([[1.0 + direction[0] * step]],
                                           [direction[1] * step])
            val = log_prior(TransformPrior(2.0, 1.0, self.sigma_s), t)
            assert val < prev
            prev = val

    def test_marginalization_oracle(self):
        # integrating N(vec(M) | M0, lambda^-1 Sigma_s^-1) Gamma(lambda | a, b)
        # over lambda matches the closed-form t within 1e-6 (density scale)
        a, b = 2.0, 1.5
        ss_inv = np.linalg.inv(self.sigma_s)
        m0 = np.array([1.0, 0.0])

        def numeric_density(t):
            x = transform_coord_vector(t)

            def integrand(lam):
                cov = ss_inv / lam
                chol = np.linalg.cholesky(cov)
                half = np.linalg.solve(chol, x - m0)
                gauss = np.exp(-0.5 * half @ half) / (
                    2.0 * np.pi * np.prod(np.diag(chol)))
                return gauss * gamma_dist.pdf(lam, a, scale=1.0 / b)

            val, _ = quad(integrand, 0.0, np.inf, limit=200)
            return val

        for scale, shift in ((1.0, 0.0), (1.1, 0.3), (0.9, -0.5), (1.3, 1.0)):
            t = AffineTransform.from_parts([[scale]], [shift])
            closed = np.exp(log_prior(TransformPrior(a, b, self.sigma_s), t))
            assert closed == pytest.approx(numeric_density(t), abs=1e-6)

    def test_normal_limit_large_dof(self):
        # a -> inf with b/a fixed at 1: t density -> N(M0, Sigma_s^-1)
        big = 1e7
        ss_inv = np.linalg.inv(self.sigma_s)
        chol = np.linalg.cholesky(ss_inv)
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = AffineTransform.from_parts([[1.0 + 0.05 * rng.standard_normal()]],
                                           [0.2 * rng.standard_normal()])
            x = transform_coord_vector(t) - np.array([1.0, 0.0])
            half = np.linalg.solve(chol, x)
            normal = (-0.5 * half @ half - np.log(2.0 * np.pi)
                      - np.sum(np.log(np.diag(chol))))
            got = log_prior(TransformPrior(big, big, self.sigma_s), t)
            assert got == pytest.approx(normal, abs=1e-4)

    def test_2d_blockwise_matches_kronecker(self):
        lat2_locs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 2.0],
                              [2.0, 1.0]])
        ss = sigma_s_matrix(lat2_locs)
        t = AffineTransform.from_parts([[1.05, 0.1], [-0.08, 0.93]], [0.4, -0.2])
        a, b = 1.5, 0.8
        got = log_prior(TransformPrior(a, b, ss), t)
        # oracle: explicit Kronecker scale matrix and the generic mvt density
        scale = (b / a) * np.kron(np.eye(2), np.linalg.inv(ss))
        x = transform_coord_vector(t)
        m0 = transform_coord_vector(AffineTransform.identity(2))
        want = mvt_logpdf(x, m0, scale, 2.0 * a)
        assert got == pytest.approx(want, rel=1e-10)


class TestLogGammaTerms:
    """The scalar `math.lgamma` terms match their `scipy.special.gammaln` forms."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("a, b", [(2.0, 1.0), (0.75, 3.0), (40.5, 0.2)])
    def test_transform_prior_log_norm(self, d, a, b):
        sigma_s = sigma_s_matrix(LATTICES[d].locations())
        nu, p = 2.0 * a, d * (d + 1)
        logdet_scale = p * np.log(b / a) - d * np.linalg.slogdet(sigma_s)[1]
        want = (gammaln((nu + p) / 2.0) - gammaln(nu / 2.0)
                - 0.5 * p * np.log(nu * np.pi) - 0.5 * logdet_scale)
        assert TransformPrior(a, b, sigma_s).log_norm == pytest.approx(want, rel=1e-14, abs=1e-13)

    @pytest.mark.parametrize("shape, rate", [(2.0, 1.0), (0.3, 0.01), (203.0, 57.5)])
    def test_invgamma_logpdf(self, shape, rate):
        x = np.array([0.05, 0.7, 3.0, 41.0])
        want = float(np.sum(shape * np.log(rate) - gammaln(shape)
                            - (shape + 1.0) * np.log(x) - rate / x))
        assert invgamma_logpdf(x, shape, rate) == pytest.approx(want, rel=1e-14)
        assert invgamma_logpdf(x, shape, rate) == pytest.approx(
            float(np.sum(invgamma_dist.logpdf(x, shape, scale=rate))), rel=1e-12)
        assert invgamma_logpdf(np.array([1.0, 0.0]), shape, rate) == -np.inf


class TestWaic:
    def test_identical_samples_zero_penalty(self):
        ll = np.tile(np.array([-1.2, -0.3, -2.0]), (4, 1))
        assert waic(ll) == pytest.approx(-2.0 * ll[0].sum(), rel=1e-12)

    def test_two_sample_hand_case(self):
        ll = np.array([[0.0, 0.0, 0.0], [-1.0, -1.0, -1.0]])
        lppd = 3.0 * np.log(0.5 * (1.0 + np.exp(-1.0)))
        p_waic = 3.0 * 0.5  # ddof=1 variance of {0, -1} is 0.5
        assert waic(ll) == pytest.approx(-2.0 * (lppd - p_waic), rel=1e-12)

    def test_reordering_invariance(self):
        rng = np.random.default_rng(4)
        ll = rng.normal(size=(20, 7))
        perm = rng.permutation(20)
        assert waic(ll) == pytest.approx(waic(ll[perm]), rel=1e-12)

    def test_needs_two_samples(self):
        with pytest.raises(DegenerateVariance):
            waic(np.zeros((1, 5)))
        acc = WaicAccumulator()
        acc.add(np.zeros(5))
        with pytest.raises(DegenerateVariance):
            acc.waic()

    @pytest.mark.parametrize("offset, spread, trend", [
        (0.0, 1.0, 0.0), (-1e4, 30.0, 0.0), (-1e6, 1.0, 0.0), (5e3, 200.0, 0.0),
        (-300.0, 5.0, 400.0)])
    def test_accumulator_matches_the_two_pass_formulas(self, offset, spread, trend):
        """Fed one row at a time, the accumulator gives the two-pass WAIC (column
        max and log-mean-exp for lppd, ddof-1 variances for p_waic) to rel
        1e-12, at log-likelihoods of large magnitude and with a max that
        rises through the rows, so the exp-sum is rescaled often."""
        rng = np.random.default_rng(11)
        ll = (offset + spread * rng.normal(size=(300, 40))
              + np.linspace(-trend, trend, 300)[:, None] + rng.uniform(-50, 50, size=40))
        col_max = ll.max(axis=0)
        lppd = np.sum(col_max + np.log(np.mean(np.exp(ll - col_max), axis=0)))
        p_waic = np.sum(ll.var(axis=0, ddof=1))
        acc = WaicAccumulator()
        for row in ll:
            acc.add(row)
        assert acc.n == 300
        assert acc.waic() == pytest.approx(-2.0 * (lppd - p_waic), rel=1e-12, abs=0)
        assert waic(ll) == acc.waic()


class TestHyperparams:
    def test_validation(self):
        with pytest.raises(Exception):
            Hyperparams(a_T=-1.0)
        with pytest.raises(Exception):
            Hyperparams(rho_lower=2.0, rho_upper=1.0)
        with pytest.raises(Exception):
            Hyperparams(lambda_r=-0.1)
        Hyperparams()  # defaults are valid
        Hyperparams(rho_lower=0.0, m=M_MAX)  # and so are the bounds

    def test_geometry_build_at_m_max_stays_within_its_stated_memory(self):
        """`M_MAX`'s comment: the glyph lattice's build at margin 9 and m = M_MAX
        peaks at 82 MB under tracemalloc; 100 MB leaves room for allocator
        differences."""
        lattice = Lattice((28, 28), np.ones(2), np.zeros(2))
        tracemalloc.start()
        try:
            build_geometry(lattice, Hyperparams(m=M_MAX), 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6
