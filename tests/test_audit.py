import pytest

from groupreg import audit
from groupreg.audit import detailed_balance_audit, run_all_audits


def test_every_audit_check_passes():
    results, passed = run_all_audits()
    failed = [f"{r['name']}: {r['value']:.3e} >= {r['tol']:.3e}"
              for r in results if not r["passed"]]
    assert passed and not failed, failed
    names = {r["name"] for r in results}
    assert len(results) == len(names) == 15
    assert {"oracle.pattern_weights", "detailed_balance.max_gap",
            "detailed_balance.reverse_max_gap"} <= names


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
