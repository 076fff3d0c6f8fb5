import numpy as np
import pytest

from groupreg import audit, baseline, sampler
from groupreg.audit import (conjugacy_audit, detailed_balance_audit, geometry_audit,
                            run_all_audits, target_audit)
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
    rng = np.random.default_rng(0)
    for name in ("forward_log_target", "reverse_log_target", "conventional_log_target"):
        monkeypatch.setattr(audit, name, lambda *args: rng.normal(scale=50.0, size=1))
    monkeypatch.setattr(audit, "rho_log_target", lambda *args: rng.normal(scale=50.0))
    assert not any(r["passed"] for r in target_audit())


def test_target_audit_fails_on_a_rho_target_without_its_template_term(monkeypatch):
    """Only the subjects' NNGP terms: the check on rho's target, and no other, fails."""
    def subjects_only(state, weights, geom):
        return nngp_log_density_from_weights(state.X, state.XT, state.nbr, *weights[1])

    monkeypatch.setattr(audit, "rho_log_target", subjects_only)
    assert {r["name"] for r in target_audit() if not r["passed"]} == {"target.rho"}


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


def test_detailed_balance_audit_raises_errors_other_than_out_of_library(monkeypatch):
    """Only an out-of-library pair is skipped; a one-off ValueError is not hidden."""
    target = audit.forward_log_target
    calls = []

    def fails_once(*args):
        calls.append(args)
        if len(calls) == 1:
            raise ValueError("test: broken log target")
        return target(*args)

    monkeypatch.setattr(audit, "forward_log_target", fails_once)
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
