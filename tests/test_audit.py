import dataclasses

import numpy as np
import pytest

from groupreg import audit, baseline, sampler
from groupreg.audit import (_joint_change, _toy_conventional, _toy_state, conjugacy_audit,
                            detailed_balance_audit, geometry_audit, run_all_audits, target_audit)
from groupreg.baseline import conventional_log_joint
from groupreg.model import gibbs_log_posterior
from groupreg.spatial import nngp_log_density_from_weights


def test_every_audit_check_passes():
    results, passed = run_all_audits()
    failed = [f"{r['name']}: {r['value']:.3e} >= {r['tol']:.3e}"
              for r in results if not r["passed"]]
    assert passed and not failed, failed
    names = {r["name"] for r in results}
    assert len(results) == len(names) == 20
    assert {"oracle.pattern_weights", "detailed_balance.max_gap_1d",
            "detailed_balance.max_gap_2d", "target.forward", "target.reverse",
            "target.conventional", "target.rho", "conjugacy.conventional_w",
            "conjugacy.conventional_sigma2", "geometry.recorded_draws_standardized"} <= names


def test_detailed_balance_audit_fails_with_the_trace_only_hastings_factor(monkeypatch):
    """A factor of 1 on tr L, not d + 1, breaks detailed balance in 1D and 2D."""
    def factor_one(log_old, log_new, delta):
        trace = delta[0] if delta.size == 2 else delta[0] + delta[4]
        return min(0.0, log_new - log_old + float(trace))

    monkeypatch.setattr(audit, "lie_mh_log_acceptance", factor_one)
    assert not any(r["passed"] for r in detailed_balance_audit())


def test_target_audit_fails_on_a_noise_log_target(monkeypatch):
    """The steps' log targets replaced where the steps call them: every target check fails."""
    rng = np.random.default_rng(0)
    for module, name in ((sampler, "forward_log_target"), (sampler, "reverse_log_target"),
                         (baseline, "conventional_log_target")):
        monkeypatch.setattr(module, name, lambda *args: rng.normal(scale=50.0, size=1))
    monkeypatch.setattr(sampler, "rho_log_target", lambda *args: rng.normal(scale=50.0))
    assert not any(r["passed"] for r in target_audit())


def test_target_audit_fails_on_a_rho_target_without_its_template_term(monkeypatch):
    """Only the NNGP table's families 1..N, the subjects' terms: the check on
    rho's target, and no other, fails."""
    def subjects_only(state, f, means):
        return nngp_log_density_from_weights(state.XT, means[1:], f[1:])

    monkeypatch.setattr(sampler, "rho_log_target", subjects_only)
    assert {r["name"] for r in target_audit() if not r["passed"]} == {"target.rho"}


def fails_only_with_the_other_directions_prior(monkeypatch, direction, own, other):
    """Weigh the `direction` target by the other direction's prior and return
    the names of the target checks that fail."""
    target = getattr(sampler, f"{direction}_target")

    def other_prior(state, geom, hp, rows, h):
        return target(state, dataclasses.replace(geom, **{own: getattr(geom, other)}), hp, rows, h)

    monkeypatch.setattr(audit, f"{direction}_target", other_prior)
    return {r["name"] for r in target_audit() if not r["passed"]}


def test_target_audit_fails_on_a_forward_target_with_the_reverse_prior(monkeypatch):
    """The T_i target weighed by the prior of T_i^r: the check on the forward
    target, and no other, fails. The toy state's two priors differ, so it can."""
    failed = fails_only_with_the_other_directions_prior(monkeypatch, "forward",
                                                        "prior_T", "prior_Tr")
    assert failed == {"target.forward"}


def test_target_audit_fails_on_a_reverse_target_with_the_forward_prior(monkeypatch):
    """The T_i^r target weighed by the prior of T_i: the check on the reverse
    target, and no other, fails."""
    failed = fails_only_with_the_other_directions_prior(monkeypatch, "reverse",
                                                        "prior_Tr", "prior_T")
    assert failed == {"target.reverse"}


def w_without_prior(phis, ys, sigma2s, k_inv):
    """The w conditional with its K^-1 term dropped."""
    return baseline.conventional_w_conditional(phis, ys, sigma2s, np.zeros_like(k_inv))


def sigma2_full_shape(y, phi, w, hp):
    """The sigma^2 conditional with V, not V / 2, added to its shape."""
    shape, rate = baseline.conventional_sigma2_conditional(y, phi, w, hp)
    return shape + y.size / 2.0, rate


@pytest.mark.parametrize("name, wrong, check", [
    ("conventional_w_conditional", w_without_prior, "conjugacy.conventional_w"),
    ("conventional_sigma2_conditional", sigma2_full_shape, "conjugacy.conventional_sigma2")])
def test_conjugacy_audit_fails_on_a_wrong_baseline_conditional(monkeypatch, name, wrong, check):
    monkeypatch.setattr(audit, name, wrong)
    assert {r["name"] for r in conjugacy_audit() if not r["passed"]} == {check}


def edited(name, edit):
    """`sampler.<name>` with `edit` applied to the tuple it returns."""
    conditional = getattr(sampler, name)
    return lambda *args: edit(*conditional(*args))


@pytest.mark.parametrize("name, edit, checks", [
    ("alpha_conditional", lambda shape, rate: (shape + 1.0, rate), {"conjugacy.alpha"}),
    ("transformed_template_conditional", lambda mean, var: (mean, 2.0 * var),
     {"conjugacy.XT_element"}),
    ("template_conditional", lambda ab, b: (ab, 0.5 * b), {"conjugacy.X_block"}),
    ("beta_sigma_conditional", lambda shape, rate, mu, lam: (shape, rate, mu + 0.1, lam),
     {"conjugacy.beta", "conjugacy.sigma2", "conjugacy.sigma2_marginal"}),
    ("beta_sigma_conditional", lambda shape, rate, mu, lam: (shape + 1.0, rate, mu, lam),
     {"conjugacy.sigma2", "conjugacy.sigma2_marginal"})],
    ids=["alpha_shape", "XT_variance", "X_linear_term", "beta_sigma_mean", "beta_sigma_shape"])
def test_conjugacy_audit_fails_on_a_wrong_symmetric_conditional(monkeypatch, name, edit, checks):
    """A conditional of the symmetric model off by one term: exactly the
    checks that read that term fail."""
    monkeypatch.setattr(audit, name, edited(name, edit))
    assert {r["name"] for r in conjugacy_audit() if not r["passed"]} == checks


def test_detailed_balance_audit_raises_errors_other_than_out_of_library(monkeypatch):
    """Only an out-of-library pair is skipped; a one-off ValueError is not hidden."""
    target = sampler.forward_log_target
    calls = []

    def fails_once(*args):
        calls.append(args)
        if len(calls) == 1:
            raise ValueError("test: broken log target")
        return target(*args)

    monkeypatch.setattr(sampler, "forward_log_target", fails_once)
    with pytest.raises(ValueError, match="broken log target"):
        detailed_balance_audit()


@pytest.mark.parametrize("name, unchanged", [
    ("standardize_forward_transforms", lambda ts, ts_r: (ts, ts_r)),
    ("standardize_scales", lambda x, betas, alpha: (betas, x, alpha))])
def test_geometry_audit_fails_on_records_left_unstandardized(monkeypatch, name, unchanged):
    """The raw state as the record: the check on the recorded draws, and no other, fails."""
    monkeypatch.setattr(sampler, name, unchanged)
    failed = {r["name"] for r in geometry_audit() if not r["passed"]}
    assert failed == {"geometry.recorded_draws_standardized"}


def test_gibbs_log_posterior_reads_no_cache_of_the_state():
    """`_joint_change` moves one primary field and leaves the caches stale,
    so the symmetric oracle must not read them."""
    state, geom, hp = _toy_state()
    base = gibbs_log_posterior(state, hp, geom)
    for name in ("dist", "B", "F", "Y_bw"):
        setattr(state, name, np.full_like(getattr(state, name), np.nan))
    state.entry, state.nbr = np.zeros_like(state.entry), np.zeros_like(state.nbr)
    state.factor = state.warps = state.band = None
    assert gibbs_log_posterior(state, hp, geom) == base


def test_conventional_log_joint_reads_no_cache_of_the_chain():
    """The baseline's oracle ignores the kernel designs and K^-1 the chain
    keeps, and moves with the transforms they were computed from."""
    state, _, hp = _toy_state()
    chain = _toy_conventional(state, hp, np.random.default_rng(0))
    base = conventional_log_joint(chain)
    chain.phis, chain.k_inv = np.full_like(chain.phis, np.nan), np.full_like(chain.k_inv, np.nan)
    assert conventional_log_joint(chain) == base
    chain.ts = chain.ts.copy()
    chain.ts[0, 0, -1] += 0.1
    assert np.isfinite(conventional_log_joint(chain)) and conventional_log_joint(chain) != base


@pytest.mark.parametrize("field, value, index", [
    ("X", np.arange(4.0), None), ("XT", 5.0, (0, 2))], ids=["whole_field", "one_entry"])
def test_joint_change_leaves_its_object_as_it_found_it(field, value, index):
    """The moved field is what log_joint sees; afterwards, also when
    log_joint raises, the field is its own object again, values unchanged."""
    state, _, _ = _toy_state()
    old = getattr(state, field)
    saved = old.copy()
    expected = saved.copy()
    expected[index if index is not None else ...] = value
    seen = []

    def log_joint():
        seen.append(getattr(state, field).copy())
        return 3.0

    def broken_log_joint():
        raise ValueError("test: broken joint")

    assert _joint_change(state, log_joint, 1.0, field, value, index) == 2.0
    np.testing.assert_array_equal(seen[0], expected)
    assert getattr(state, field) is old
    np.testing.assert_array_equal(old, saved)
    with pytest.raises(ValueError, match="broken joint"):
        _joint_change(state, broken_log_joint, 1.0, field, value, index)
    assert getattr(state, field) is old
    np.testing.assert_array_equal(old, saved)
