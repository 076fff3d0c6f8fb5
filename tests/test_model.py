import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln
from scipy.stats import gamma as gamma_dist

from groupreg.errors import DegenerateVariance
from groupreg.grids import make_lattice_1d
from groupreg.model import Hyperparams, TransformPrior, penalty_terms, sigma_s_matrix, waic
from groupreg.transforms import AffineTransform, affine_inverse

LAT = make_lattice_1d(-2.0, 2.0, 0.5)


def transform_coord_vector(t):
    """vec(M) with M = [A b]^T: per output coordinate k, (A_k1..A_kd, b_k)."""
    return np.column_stack([t.A, t.b]).ravel()


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
        got = sum(penalty_terms(t, AffineTransform.identity(1)))
        assert got == pytest.approx(2.0 * 0.7, rel=1e-12)

    def test_penalty_vanishes_iff_exact_inverse(self):
        t = AffineTransform.from_parts([[1.1]], [0.4])
        assert sum(penalty_terms(t, affine_inverse(t))) == pytest.approx(0.0, abs=1e-10)
        off = AffineTransform.from_parts([[1.0 / 1.1]], [0.0])
        assert sum(penalty_terms(t, off)) > 1e-3


class TestTransformLogPrior:
    def setup_method(self):
        self.sigma_s = sigma_s_matrix(LAT.locations())

    def test_identity_is_mode(self):
        rng = np.random.default_rng(2)
        at_mode = TransformPrior(2.0, 1.0, self.sigma_s).log_density(AffineTransform.identity(1))
        for _ in range(50):
            t = AffineTransform.from_parts([[1.0 + 0.2 * rng.standard_normal()]],
                                           [0.5 * rng.standard_normal()])
            assert TransformPrior(2.0, 1.0, self.sigma_s).log_density(t) <= at_mode + 1e-12

    def test_monotone_along_ray(self):
        direction = np.array([0.08, 0.3])
        prev = np.inf
        for step in (0.5, 1.0, 2.0, 4.0):
            t = AffineTransform.from_parts([[1.0 + direction[0] * step]],
                                           [direction[1] * step])
            val = TransformPrior(2.0, 1.0, self.sigma_s).log_density(t)
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
            closed = np.exp(TransformPrior(a, b, self.sigma_s).log_density(t))
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
            got = TransformPrior(big, big, self.sigma_s).log_density(t)
            assert got == pytest.approx(normal, abs=1e-4)

    def test_2d_blockwise_matches_kronecker(self):
        lat2_locs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 2.0],
                              [2.0, 1.0]])
        ss = sigma_s_matrix(lat2_locs)
        t = AffineTransform.from_parts([[1.05, 0.1], [-0.08, 0.93]], [0.4, -0.2])
        a, b = 1.5, 0.8
        got = TransformPrior(a, b, ss).log_density(t)
        # oracle: explicit Kronecker scale matrix and the generic mvt density
        scale = (b / a) * np.kron(np.eye(2), np.linalg.inv(ss))
        x = transform_coord_vector(t)
        m0 = transform_coord_vector(AffineTransform.identity(2))
        want = mvt_logpdf(x, m0, scale, 2.0 * a)
        assert got == pytest.approx(want, rel=1e-10)


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


class TestHyperparams:
    def test_validation(self):
        with pytest.raises(Exception):
            Hyperparams(a_T=-1.0)
        with pytest.raises(Exception):
            Hyperparams(rho_lower=2.0, rho_upper=1.0)
        with pytest.raises(Exception):
            Hyperparams(lambda_r=-0.1)
        Hyperparams()  # defaults are valid
