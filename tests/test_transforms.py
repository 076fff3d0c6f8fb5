import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from groupreg.errors import NoRealLogarithm, NumericalError, SingularTransform
from groupreg.transforms import (DET_EPS, KARCHER_MAX_ITER, KARCHER_TOL, AffineTransform,
                                 affine_apply, affine_compose, affine_inverse,
                                 composition_identity_gap, has_real_log, karcher_mean,
                                 lie_exp, lie_log, standardize)


def generator_from_vector(delta):
    """Lie coordinates as the (d+1)x(d+1) generator, zero last row (oracle)."""
    delta = np.asarray(delta, dtype=float)
    d = 1 if delta.size == 2 else 2
    g = np.zeros((d + 1, d + 1))
    g[:d, :] = delta.reshape(d, d + 1)
    return g


def vector_from_generator(gen):
    """Top d rows of a generator, flattened row-major: its Lie coordinates."""
    d = gen.shape[0] - 1
    return gen[:d, :].ravel().copy()


def translation(*b):
    return AffineTransform.translation(list(b))


class TestApply:
    def test_identity(self):
        assert np.allclose(affine_apply(AffineTransform.identity(2), [1.0, 2.0]), [1, 2])

    def test_pure_scaling(self):
        t = AffineTransform.from_parts(np.diag([2.0, 2.0]), [0.0, 0.0])
        assert np.allclose(affine_apply(t, [1.0, 1.0]), [2, 2])

    def test_exact_rotation(self):
        t = AffineTransform.rotation(np.pi / 2)
        assert np.allclose(affine_apply(t, [1.0, 0.0]), [0, 1], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            affine_apply(AffineTransform.identity(2), [1.0])

    def test_stack_of_points(self):
        t = AffineTransform.from_parts([[2.0, 0.0], [0.0, 1.0]], [1.0, -1.0])
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert np.allclose(affine_apply(t, pts), [[1, -1], [3, 0]])

    def test_an_image_that_overflows_gives_non_finite_rows_without_a_warning(self):
        t = AffineTransform.from_parts(np.diag([1e308, 1.0]), [0.0, 0.0])
        got = affine_apply(t, np.array([[0.0, 2.0], [3.0, 2.0], [-3.0, 2.0]]))
        assert np.array_equal(got, [[0.0, 2.0], [np.inf, 2.0], [-np.inf, 2.0]])


class TestCompose:
    def test_inverse_pair_gives_identity(self):
        t = AffineTransform.from_parts([[1.2, 0.3], [-0.1, 0.9]], [0.5, -2.0])
        assert np.allclose(affine_compose(t, affine_inverse(t)), np.eye(3),
                           atol=1e-12)

    def test_translations_abelian(self):
        got = affine_compose(translation(1.0, 2.0), translation(-3.0, 0.5))
        assert np.allclose(got[:2, 2], [-2.0, 2.5])
        assert np.allclose(got[:2, :2], np.eye(2))

    def test_noncommutative_vs_raw_matrix_product(self):
        # oracle: plain 3x3 products, computed independently
        s = AffineTransform.from_parts(np.diag([2.0, 1.0]), [0.0, 0.0])
        r = AffineTransform.rotation(np.pi / 2)
        ab = s.matrix @ r.matrix
        ba = r.matrix @ s.matrix
        assert np.allclose(affine_compose(s, r), ab)
        assert np.allclose(affine_compose(r, s), ba)
        assert not np.allclose(ab, ba)

    def test_associativity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            ts = [AffineTransform.from_parts(np.eye(2) + 0.3 * rng.standard_normal((2, 2)),
                                             rng.standard_normal(2)) for _ in range(3)]
            left = affine_compose(affine_compose(ts[0], ts[1]), ts[2])
            right = affine_compose(ts[0], affine_compose(ts[1], ts[2]))
            assert np.max(np.abs(left - right)) < 1e-12


class TestInverse:
    def test_identity(self):
        assert np.allclose(affine_inverse(AffineTransform.identity(2)), np.eye(3))

    def test_closed_form(self):
        t = AffineTransform.from_parts(2.0 * np.eye(2), [1.0, 1.0])
        inv = affine_inverse(t)
        assert np.allclose(inv[:2, :2], 0.5 * np.eye(2))
        assert np.allclose(inv[:2, 2], [-0.5, -0.5])

    def test_random_roundtrip(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            t = AffineTransform.from_parts(np.eye(2) + 0.4 * rng.standard_normal((2, 2)),
                                           rng.standard_normal(2))
            gap, = composition_identity_gap(t.matrix[None], affine_inverse(t)[None])
            assert gap < 1e-10

    def test_singular_rejected(self):
        with pytest.raises(SingularTransform):
            AffineTransform.from_parts([[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0])


class TestLieLogExp:
    def test_log_identity_is_zero(self):
        assert np.allclose(lie_log(AffineTransform.identity(2)), np.zeros(6))
        assert np.allclose(lie_log(AffineTransform.identity(1)), np.zeros(2))

    def test_log_pure_translation_is_nilpotent(self):
        delta = lie_log(translation(1.5, -2.0))
        gen = generator_from_vector(delta)
        assert np.allclose(gen[:2, :2], 0.0, atol=1e-14)
        assert np.allclose(gen[:2, 2], [1.5, -2.0])

    def test_log_rotation_is_skew_generator(self):
        delta = lie_log(AffineTransform.rotation(0.3))
        gen = generator_from_vector(delta)
        assert np.allclose(gen[:2, :2], [[0.0, -0.3], [0.3, 0.0]], atol=1e-14)
        assert np.allclose(gen[:2, 2], 0.0, atol=1e-14)

    def test_exp_zero_is_identity(self):
        assert np.allclose(lie_exp(np.zeros(6)), np.eye(3))

    def test_exp_log_roundtrip_rotation_translation(self):
        t = affine_compose(AffineTransform.rotation(0.3), translation(1.0, 2.0))
        back = lie_exp(lie_log(t))
        assert np.max(np.abs(back - t)) < 1e-10

    def test_exp_group_inverse(self):
        delta = np.array([0.1, -0.2, 0.4, 0.3, -0.1, 0.25])
        gap, = composition_identity_gap(lie_exp(delta)[None], lie_exp(-delta)[None])
        assert gap < 1e-12

    def test_negative_linear_part_has_no_real_log(self):
        t = AffineTransform.from_parts([[-1.5]], [0.0])
        with pytest.raises(NoRealLogarithm):
            lie_log(t)
        t2 = AffineTransform.from_parts(np.diag([-2.0, 3.0]), [0.0, 0.0])
        with pytest.raises(NoRealLogarithm):
            lie_log(t2)

    def test_matches_scipy_logm(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            t = AffineTransform.from_parts(np.eye(2) + 0.5 * rng.standard_normal((2, 2)),
                                           rng.standard_normal(2))
            eig = np.linalg.eigvals(t.matrix)
            if np.any((eig.real <= 0) & (np.abs(eig.imag) < 1e-12)):
                continue
            mine = generator_from_vector(lie_log(t))
            ref = scipy.linalg.logm(t.matrix)
            assert np.max(np.abs(mine - np.real(ref))) < 1e-9

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2),
           st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
           st.floats(0.0, 1.0))
    def test_roundtrip_property(self, dim, raw, scale):
        n = dim * (dim + 1)
        delta = np.asarray(raw[:n])
        norm = np.linalg.norm(delta)
        if norm > 0:
            delta = delta * (scale / norm)
        assert np.max(np.abs(lie_log(lie_exp(delta)) - delta)) < 1e-9


def adjoint_log_volume(delta):
    """log J(delta): the sum over the nonzero eigenvalues lam of ad_delta = [delta, .]
    of log(lam / (1 - e^-lam)), with ad_delta built column by column."""
    g = generator_from_vector(delta)
    n = delta.size
    ad = np.empty((n, n))
    for k in range(n):
        basis = generator_from_vector(np.eye(n)[k])
        ad[:, k] = vector_from_generator(g @ basis - basis @ g)
    lam = np.linalg.eigvals(ad)
    lam = lam[np.abs(lam) > 1e-12]
    return float(np.sum(np.log(lam / -np.expm1(-lam))).real)


class TestHastingsTerm:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_adjoint_log_volume_ratio_is_the_linear_trace(self, dim):
        """log J(delta) - log J(-delta) = tr L, L the linear block of delta: the
        eigen-form Hastings term reduces to the closed form the sampler uses."""
        rng = np.random.default_rng(dim)
        for _ in range(50):
            delta = 0.5 * rng.standard_normal(dim * (dim + 1))
            trace = delta[0] if dim == 1 else delta[0] + delta[4]
            ratio = adjoint_log_volume(delta) - adjoint_log_volume(-delta)
            assert abs(ratio - trace) < 1e-12


class TestKarcherMean:
    def test_single_element(self):
        t = affine_compose(AffineTransform.rotation(0.4), translation(1.0, -0.5))
        assert np.max(np.abs(karcher_mean([t]) - t)) < 1e-10

    def test_symmetric_translation_pair(self):
        t = translation(1.0, 0.0)
        mean = karcher_mean([t, affine_inverse(t)])
        assert np.max(np.abs(mean - np.eye(3))) < 1e-10

    def test_translations_flat_subgroup(self):
        mean = karcher_mean([translation(1.0, 0.0), translation(3.0, 0.0)])
        assert np.allclose(mean[:2, 2], [2.0, 0.0], atol=1e-10)
        assert np.allclose(mean[:2, :2], np.eye(2), atol=1e-10)


class TestStandardize:
    def test_identity_fixed_point(self):
        ts = [AffineTransform.identity(2)] * 3
        for h in standardize(ts)[0]:
            assert np.allclose(h, np.eye(3), atol=1e-12)

    def test_mean_already_identity_unchanged(self):
        ts = [translation(1.0, 0.0), translation(-1.0, 0.0)]
        out, _ = standardize(ts)
        for got, want in zip(out, ts):
            assert np.max(np.abs(got - want.matrix)) < 1e-10

    def test_flat_mean_subtracted(self):
        out, mean = standardize([translation(2.0, 0.0), translation(4.0, 0.0)])
        assert np.allclose(out[0, :2, 2], [-1.0, 0.0], atol=1e-10)
        assert np.allclose(out[1, :2, 2], [1.0, 0.0], atol=1e-10)
        assert np.allclose(mean, translation(3.0, 0.0).matrix, atol=1e-10)

    def test_post_standardize_mean_is_identity(self):
        rng = np.random.default_rng(5)
        ts = [AffineTransform.from_parts(np.eye(2) + 0.1 * rng.standard_normal((2, 2)),
                                         0.5 * rng.standard_normal(2)) for _ in range(5)]
        out, _ = standardize(ts)
        mean = karcher_mean(out)
        assert np.linalg.norm(lie_log(mean)) < 1e-9

    def test_relative_geometry_preserved(self):
        rng = np.random.default_rng(6)
        ts = [AffineTransform.from_parts(np.eye(2) + 0.1 * rng.standard_normal((2, 2)),
                                         0.5 * rng.standard_normal(2)) for _ in range(4)]
        out, _ = standardize(ts)
        for i in range(4):
            for j in range(4):
                before = affine_compose(ts[i], affine_inverse(ts[j]))
                after = affine_compose(out[i], affine_inverse(out[j]))
                assert np.max(np.abs(before - after)) < 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        ts = [AffineTransform.from_parts(np.eye(2) + 0.1 * rng.standard_normal((2, 2)),
                                         rng.standard_normal(2)) for _ in range(4)]
        once, _ = standardize(ts)
        twice, _ = standardize(once)
        assert np.max(np.abs(once - twice)) < 1e-8


def lie_log_raises(h):
    try:
        lie_log(h)
    except NoRealLogarithm:
        return True
    return False


def homogeneous(a, b):
    """The homogeneous matrix of (A, b), unvalidated: A may be singular."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    h = np.eye(len(a) + 1)
    h[:-1, :-1], h[:-1, -1] = a, b
    return h


# Edge cases of the real-log domain: the smaller real eigenvalue of A at,
# below and above 0, repeated eigenvalues (disc = 0), and complex pairs.
DOMAIN_EDGES = {
    "repeated_positive": ([[2.0, 0.0], [0.0, 2.0]], True),
    "repeated_jordan": ([[1.0, 1.0], [0.0, 1.0]], True),
    "repeated_negative": ([[-1.0, 0.0], [0.0, -1.0]], False),
    "repeated_negative_jordan": ([[-1.0, 1.0], [0.0, -1.0]], False),
    "smaller_zero": ([[0.0, 0.0], [0.0, 1.5]], False),
    "smaller_zero_sheared": ([[1.0, 2.0], [0.5, 1.0]], False),
    "smaller_negative": ([[-0.5, 0.0], [0.0, 2.0]], False),
    "smaller_positive": ([[1e-3, 0.0], [0.0, 2.0]], True),
    "complex_negative_real_part": ([[np.cos(2.5), -np.sin(2.5)], [np.sin(2.5), np.cos(2.5)]],
                                   True),
    "complex_positive_real_part": ([[0.9, -0.4], [0.3, 1.1]], True),
    "1d_zero": ([[0.0]], False),
    "1d_negative": ([[-0.2]], False),
    "1d_positive": ([[1e-300]], True),
}


class TestRealLogDomain:
    """`has_real_log`, the sampler's proposal filter, decides what `lie_log`
    raising NoRealLogarithm decides, without a numpy warning."""

    @pytest.mark.parametrize("name", sorted(DOMAIN_EDGES))
    def test_edge_cases(self, name):
        a, inside = DOMAIN_EDGES[name]
        h = homogeneous(a, 0.3 * np.ones(len(a)))
        with np.errstate(all="raise"):
            assert has_real_log(h) is inside
            assert lie_log_raises(h) is not inside

    @pytest.mark.parametrize("dim", [1, 2])
    def test_random_matrices(self, dim):
        rng = np.random.default_rng(40 + dim)
        decisions = []
        with np.errstate(all="raise"):
            for _ in range(2000):
                h = homogeneous(rng.normal(size=(dim, dim)), rng.normal(size=dim))
                decisions.append(has_real_log(h))
                assert decisions[-1] is not lie_log_raises(h)
        assert 0.2 < np.mean(decisions) < 0.9    # both outcomes, many times

    def test_takes_an_affine_transform(self):
        assert has_real_log(AffineTransform.rotation(2.5))
        assert not has_real_log(AffineTransform.from_parts(np.diag([-2.0, 3.0]), [0.0, 0.0]))


def list_karcher_mean(transforms):
    """`karcher_mean` as it was over a list of `AffineTransform`s, one
    product, one object and one log per transform (oracle)."""
    mean = AffineTransform(np.eye(len(transforms[0].matrix)))
    for _ in range(KARCHER_MAX_ITER):
        mean_inv = AffineTransform(affine_inverse(mean))
        logs = np.stack([lie_log(AffineTransform(mean_inv.matrix @ t.matrix))
                         for t in transforms])
        step = logs.mean(axis=0)
        if np.linalg.norm(step) < KARCHER_TOL:
            return mean
        mean = AffineTransform(mean.matrix @ lie_exp(step))
    raise AssertionError("the oracle did not converge")


def list_standardize(transforms):
    """`standardize` as it was over a list of `AffineTransform`s (oracle)."""
    mean_inv = AffineTransform(affine_inverse(list_karcher_mean(transforms)))
    return [AffineTransform(t.matrix @ mean_inv.matrix) for t in transforms]


class TestStackedKarcher:
    """`karcher_mean` and `standardize` over a stack give the bits of the list
    forms they replaced, for contiguous stacks and for strided views such as
    a store's `H_fwd[:, i]`."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 12, 48])
    def test_stack_equals_the_list_form(self, dim, n):
        rng = np.random.default_rng(10 * n + dim)
        draws = np.stack([[lie_exp(0.3 * rng.standard_normal(dim * (dim + 1)))
                           for _ in range(2)] for _ in range(n)])
        for h in (draws[:, 0].copy(), draws[:, 1]):
            ts = [AffineTransform(m) for m in h]
            mean = karcher_mean(h)
            assert np.array_equal(mean, list_karcher_mean(ts).matrix)
            h_std, mean_std = standardize(h)
            assert np.array_equal(mean_std, mean)
            assert np.array_equal(h_std, np.array([t.matrix for t in list_standardize(ts)]))


class TestConstructionChecks:
    """The checks AffineTransform makes on every matrix, pinned one by one."""

    @pytest.mark.parametrize("shape", [(3, 2), (4, 4), (1, 1), (3,), (2, 2, 2)])
    def test_wrong_shape(self, shape):
        with pytest.raises(ValueError):
            AffineTransform(np.ones(shape))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("col,value,ok", [
        (0, 1e-12, True), (0, -1e-12, True),
        (0, np.nextafter(1e-12, 1.0), False), (0, -np.nextafter(1e-12, 1.0), False),
        (-1, 1.0 + 0.999 * (1e-12 + 1e-5), True), (-1, 1.0 - 0.999 * (1e-12 + 1e-5), True),
        (-1, 1.0 + 1.001 * (1e-12 + 1e-5), False), (-1, 1.0 - 1.001 * (1e-12 + 1e-5), False),
    ])
    def test_last_row_tolerance(self, dim, col, value, ok):
        """atol 1e-12 on the zeros, 1e-12 + 1e-5 on the final 1, as np.allclose."""
        h = np.eye(dim + 1)
        h[-1, col] = value
        bottom = np.eye(dim + 1)[-1]
        assert np.allclose(h[-1], bottom, atol=1e-12) == ok
        if ok:
            assert np.array_equal(AffineTransform(h).matrix[-1], bottom)
        else:
            with pytest.raises(ValueError):
                AffineTransform(h)

    @pytest.mark.parametrize("a", [
        [[DET_EPS]], [[-DET_EPS]], [[DET_EPS, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -DET_EPS]],
        [[1.0, 2.0], [0.5, 1.0]]])
    def test_det_at_threshold_is_singular(self, a):
        with pytest.raises(SingularTransform):
            AffineTransform.from_parts(a, np.zeros(len(a)))

    def test_det_just_above_threshold_constructs(self):
        AffineTransform.from_parts([[2.0 * DET_EPS]], [0.0])
        AffineTransform.from_parts([[1.0, 0.0], [0.0, -2.0 * DET_EPS]], [0.0, 0.0])

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["A", "b", "last"])
    def test_non_finite_entry_is_singular(self, dim, bad, where):
        h = np.eye(dim + 1)
        h[{"A": (0, 0), "b": (0, dim), "last": (dim, 0)}[where]] = bad
        with pytest.raises(SingularTransform):
            AffineTransform(h)
        assert issubclass(SingularTransform, NumericalError)

    def test_lie_exp_overflow_is_singular(self):
        for delta in ([800.0, 0.0], [800.0, 0.0, 0.0, 0.0, 800.0, 0.0],
                      [0.0, 1e200, 0.0, -1e200, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0, 0.0, 0.0]):
            with pytest.raises(SingularTransform):
                lie_exp(np.array(delta))
        # det e^L = e^{tr L} below DET_EPS
        with pytest.raises(SingularTransform):
            lie_exp(np.array([-20.0, 0.0, 0.0, 0.0, -20.0, 0.0]))


def _delta(ell, u=(0.3, -0.7)):
    ell = np.asarray(ell, dtype=float)
    return np.array([ell[0, 0], ell[0, 1], u[0], ell[1, 0], ell[1, 1], u[1]])


# Generators for the float 2x2 kernels: complex eigenvalue pairs, repeated
# eigenvalues (pure scaling, and a Jordan block), near-zero generators, and
# norms past 0.8 that take phi1 through its squaring branch.
KERNEL_CASES = {
    "complex_pair": [[0.1, -1.2], [1.1, 0.05]],
    "rotation": [[0.0, -0.5], [0.5, 0.0]],
    "scaling_up": [[0.3, 0.0], [0.0, 0.3]],
    "scaling_down": [[-0.7, 0.0], [0.0, -0.7]],
    "jordan": [[0.2, 0.4], [0.0, 0.2]],
    "near_zero": [[1e-9, -3e-10], [2e-10, -1e-9]],
    "tiny": [[1e-200, 0.0], [0.0, 1e-200]],
    "zero": [[0.0, 0.0], [0.0, 0.0]],
    "real_distinct": [[0.4, 0.3], [0.2, -0.1]],
    "squaring_real": [[1.5, 0.8], [0.3, -1.0]],
    "squaring_complex": [[0.3, -2.5], [2.0, 0.1]],
    "squaring_scaling": [[-2.0, 0.0], [0.0, -2.0]],
    "squaring_jordan": [[1.1, 1.7], [0.0, 1.1]],
}


class TestFloatKernelsMatchScipy:
    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_lie_exp_matches_expm(self, name):
        delta = _delta(KERNEL_CASES[name])
        want = scipy.linalg.expm(generator_from_vector(delta))
        got = lie_exp(delta)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_lie_log_matches_logm(self, name):
        # exp of each generator, whose principal log is the generator itself
        # (every case has eigenvalue imaginary parts inside (-pi, pi)).
        delta = _delta(KERNEL_CASES[name])
        h = scipy.linalg.expm(generator_from_vector(delta))
        got = lie_log(AffineTransform(h))
        want = vector_from_generator(np.real(scipy.linalg.logm(h)))
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - delta)) <= 1e-12 * max(1.0, np.max(np.abs(delta)))

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_affine_inverse_matches_inv(self, name):
        h = scipy.linalg.expm(generator_from_vector(_delta(KERNEL_CASES[name])))
        got = affine_inverse(AffineTransform(h))
        want = np.linalg.inv(h)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("ell,u", [(0.9, -2.0), (-1e-9, 0.5), (0.0, 1.5), (-3.0, 0.1)])
    def test_1d(self, ell, u):
        delta = np.array([ell, u])
        h = scipy.linalg.expm(generator_from_vector(delta))
        assert np.max(np.abs(lie_exp(delta) - h)) <= 1e-13 * np.max(np.abs(h))
        assert np.max(np.abs(lie_log(AffineTransform(h)) - delta)) <= 1e-13 * max(1.0, abs(u))
        assert np.max(np.abs(affine_inverse(AffineTransform(h))
                             - np.linalg.inv(h))) <= 1e-13 * np.max(np.abs(h)) / h[0, 0]
