from groupreg.audit import run_all_audits


def test_every_audit_check_passes():
    results, passed = run_all_audits()
    failed = [f"{r['name']}: {r['value']:.3e} >= {r['tol']:.3e}"
              for r in results if not r["passed"]]
    assert passed and not failed, failed
    assert "oracle.pattern_weights" in {r["name"] for r in results}
