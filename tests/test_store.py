import csv
import struct

import numpy as np
import pytest

from groupreg.cli import main
from groupreg.errors import ValidationError
from groupreg.store import MAGIC, SampleStore, export_csv, load_store, save_store


def small_store():
    """3 records, 2 subjects on a 2x3 lattice, with tiny, huge and -0.0 values."""
    rng = np.random.default_rng(7)
    s, n, shape = 3, 2, (2, 3)
    v = int(np.prod(shape))
    x = rng.normal(size=(s, v))
    x[0, :3] = (1e-300, -0.0, 1.2345678901234567e300)
    meta = {"model": "symmetric", "seed": 7, "config_hash": "abc", "lambda_r": 1.0, "dim": 2,
            "shape": list(shape), "spacing": [1.0, 1.0], "origin": [0.0, 0.0],
            "n_subjects": n}
    return SampleStore(meta=meta, X=x, H_fwd=rng.normal(size=(s, n, 3, 3)),
                       H_rev=rng.normal(size=(s, n, 3, 3)), beta=rng.uniform(size=(s, n)),
                       sigma2=rng.uniform(size=(s, n)), alpha=rng.uniform(size=s),
                       rho=rng.uniform(size=s))


FIELDS = ("X", "H_fwd", "H_rev", "beta", "sigma2", "alpha", "rho")


def test_rewrite_is_byte_identical(tmp_path):
    store = small_store()
    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    save_store(store, first)
    loaded = load_store(first)
    for name in FIELDS:
        assert np.array_equal(getattr(loaded, name), getattr(store, name)), name
    assert loaded.meta == {**store.meta, "n_records": 3}
    save_store(loaded, second)
    assert first.read_bytes() == second.read_bytes()


def test_csv_values_reparse_exactly(tmp_path):
    store = small_store()
    path = tmp_path / "samples.csv"
    export_csv(store, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == store.n_samples
    for s, row in enumerate(rows):
        want = [*store.X[s]]
        for i in range(store.n_subjects):
            want += [*store.H_fwd[s, i].ravel(), *store.H_rev[s, i].ravel(),
                     store.beta[s, i], store.sigma2[s, i]]
        want += [store.alpha[s], store.rho[s]]
        got = [float(val) for val in row.values()]
        assert np.array_equal(np.array(got), np.array(want))
        assert np.array_equal(np.signbit(got), np.signbit(want))   # -0.0 survives


DAMAGE = ("bad magic", "truncated header length", "truncated header", "header not json",
          "header lacks a field", "truncated length prefix", "truncated payload",
          "wrong length prefix", "trailing bytes", "shape of another dim")


def _damaged(blob):
    """Byte strings derived from a `small_store` file, each damaged in one way."""
    # X, then (H_T, H_Tr, beta, sigma2) per subject, then alpha and rho.
    payload = 8 * (6 + 2 * (2 * 9 + 2) + 2)
    hlen = struct.unpack_from("<Q", blob, len(MAGIC))[0]
    head = len(MAGIC) + 8
    bad_json = blob[:head] + b"{" * hlen + blob[head + hlen:]
    wrong_prefix = bytearray(blob)
    wrong_prefix[head + hlen:head + hlen + 8] = struct.pack("<Q", 8)
    no_field = b'{"dim":2}'
    missing = MAGIC + struct.pack("<Q", len(no_field)) + no_field + blob[head + hlen:]
    # The same 6 sites as one axis: the record length still matches dim 2.
    one_axis = blob[head:head + hlen].replace(b'"shape":[2,3]', b'"shape":[6]')
    flat = MAGIC + struct.pack("<Q", len(one_axis)) + one_axis + blob[head + hlen:]
    return {
        "bad magic": b"X" + blob[1:],
        "truncated header length": blob[:head - 3],
        "truncated header": blob[:head + hlen // 2],
        "header not json": bad_json,
        "header lacks a field": missing,
        "truncated length prefix": blob[:len(blob) - payload - 4],
        "truncated payload": blob[:-5],
        "wrong length prefix": bytes(wrong_prefix),
        "trailing bytes": blob + b"\0",
        "shape of another dim": flat,
    }


@pytest.mark.parametrize("case", DAMAGE)
def test_damaged_store_raises_validation_error(tmp_path, case):
    good = tmp_path / "good.bin"
    save_store(small_store(), good)
    bad = tmp_path / "bad.bin"
    damaged = _damaged(good.read_bytes())
    assert set(damaged) == set(DAMAGE)
    bad.write_bytes(damaged[case])
    with pytest.raises(ValidationError):
        load_store(bad)


def test_summarize_on_truncated_store_exits_2(tmp_path, capsys):
    path = tmp_path / "samples.bin"
    save_store(small_store(), path)
    path.write_bytes(path.read_bytes()[:-5])
    out = tmp_path / "summary"
    assert main(["summarize", str(path), "--out", str(out)]) == 2
    assert "error: config" in capsys.readouterr().err
    assert not out.exists() and not list(tmp_path.glob(".groupreg-staging-*"))


BAD_LATTICE = {
    "no spacing": {"spacing": None},
    "no origin": {"origin": None},
    "spacing not numbers": {"spacing": "abc"},
    "spacing of another length": {"spacing": [1.0]},
    "origin not finite": {"origin": [0.0, float("nan")]},
    "origin of booleans": {"origin": [True, False]},
}


@pytest.mark.parametrize("case", sorted(BAD_LATTICE))
def test_summarize_on_a_store_without_a_valid_lattice_exits_2(tmp_path, capsys, case):
    """A header whose spacing or origin is missing or not `dim` finite numbers
    is a damaged store: exit 2, not a traceback, and nothing written. The
    transforms are identities, so the store is otherwise one `summarize` reads."""
    store = small_store()
    store.H_fwd = store.H_rev = np.broadcast_to(np.eye(3), store.H_fwd.shape)
    for key, value in BAD_LATTICE[case].items():
        if value is None:
            del store.meta[key]
        else:
            store.meta[key] = value
    path = tmp_path / "samples.bin"
    save_store(store, path)
    out = tmp_path / "summary"
    assert main(["summarize", str(path), "--out", str(out)]) == 2
    assert "bad header" in capsys.readouterr().err
    assert not out.exists() and not list(tmp_path.glob(".groupreg-staging-*"))
