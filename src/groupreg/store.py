"""On-disk sample store.

Layout (all integers little-endian uint64, all floats little-endian float64):

    magic   b"GROUPREGSTORE1\\n"
    u64     header length in bytes
    bytes   header: canonical JSON (sorted keys) with model id, seed,
            config hash, lattice geometry, n_subjects, n_records, lambda_r
    then n_records records, each:
    u64     payload length in bytes
    f64[]   X (V values), then per subject: H_T ((d+1)^2, row-major),
            H_Tr ((d+1)^2), beta, sigma2; then alpha, rho

`records` builds the payloads as one (n_records, P) matrix in this order,
and both writers write from it: `save_store` as the records above, and
`export_csv` as one row per record, with named columns in the same order and
values in shortest-roundtrip repr so they re-parse exactly. `load_store`
reads the layout back. The header is written after all records are known,
so rewriting the same samples yields bit-identical files.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

MAGIC = b"GROUPREGSTORE1\n"


@dataclass
class SampleStore:
    meta: dict
    X: np.ndarray          # (S, V)
    H_fwd: np.ndarray      # (S, N, d+1, d+1)
    H_rev: np.ndarray      # (S, N, d+1, d+1)
    beta: np.ndarray       # (S, N)
    sigma2: np.ndarray     # (S, N)
    alpha: np.ndarray      # (S,)
    rho: np.ndarray        # (S,)

    @property
    def n_samples(self):
        return self.X.shape[0]

    @property
    def n_subjects(self):
        return int(self.meta["n_subjects"])


def records(store):
    """(S, P) float64 matrix of the record payloads, in the layout's order."""
    s, n = store.n_samples, store.n_subjects
    hsz = store.H_fwd.shape[-1] ** 2
    subjects = np.concatenate([store.H_fwd.reshape(s, n, hsz), store.H_rev.reshape(s, n, hsz),
                               store.beta[:, :, None], store.sigma2[:, :, None]], axis=2)
    return np.concatenate([store.X, subjects.reshape(s, n * (2 * hsz + 2)),
                           store.alpha[:, None], store.rho[:, None]], axis=1, dtype="<f8")


def save_store(store, path):
    vals = records(store)
    body = np.empty((vals.shape[0], vals.shape[1] + 1), dtype="<u8")
    body[:, 0] = 8 * vals.shape[1]
    body[:, 1:] = vals.view("<u8")
    meta = {**store.meta, "n_records": int(store.n_samples)}
    hdr = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(hdr)))
        fh.write(hdr)
        fh.write(body.data)


def load_store(path):
    """Read a store written by `save_store`.

    Raises ValidationError on a bad magic, a truncated header or header
    length, a header that is not valid JSON or lacks a field, a record
    length prefix that does not match the header, or a body that is shorter
    or longer than the header's n_records records.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(MAGIC):
        raise ValidationError(f"{path}: not a sample store (bad magic)")
    off = len(MAGIC)
    if len(blob) < off + 8:
        raise ValidationError(f"{path}: truncated header length")
    (hlen,) = struct.unpack_from("<Q", blob, off)
    off += 8
    if len(blob) - off < hlen:
        raise ValidationError(f"{path}: truncated header")
    try:
        meta = json.loads(blob[off:off + hlen].decode("utf-8"))
        n_rec = int(meta["n_records"])
        n = int(meta["n_subjects"])
        dim = int(meta["dim"])
        v = int(np.prod(meta["shape"]))
    except (ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"{path}: bad header: {exc}") from exc
    if min(n_rec, n, v) < 0 or dim not in (1, 2):
        raise ValidationError(f"{path}: bad header: n_records={n_rec}, n_subjects={n}, "
                              f"dim={dim}, {v} sites")
    off += hlen
    hsz = (dim + 1) ** 2
    per_subject = 2 * hsz + 2
    expect = v + n * per_subject + 2
    body = len(blob) - off
    if body != 8 * (expect + 1) * n_rec:
        raise ValidationError(f"{path}: {body} bytes of records, expected {n_rec} records "
                              f"of {8 * (expect + 1)} bytes")

    rec = np.frombuffer(blob, dtype="<u8", offset=off).reshape(n_rec, expect + 1)
    bad = np.flatnonzero(rec[:, 0] != 8 * expect)
    if bad.size:
        s = int(bad[0])
        raise ValidationError(f"{path}: record {s} has {int(rec[s, 0])} bytes, "
                              f"expected {8 * expect}")
    vals = rec[:, 1:].view("<f8").astype(float)
    subj = vals[:, v:v + n * per_subject].reshape(n_rec, n, per_subject)
    shape = (n_rec, n, dim + 1, dim + 1)
    return SampleStore(meta=meta, X=vals[:, :v],
                       H_fwd=subj[:, :, :hsz].reshape(shape),
                       H_rev=subj[:, :, hsz:2 * hsz].reshape(shape),
                       beta=subj[:, :, 2 * hsz], sigma2=subj[:, :, 2 * hsz + 1],
                       alpha=vals[:, -2], rho=vals[:, -1])


def export_csv(store, path):
    """One row per thinned sample, shortest-roundtrip float formatting."""
    n = store.n_subjects
    v = store.X.shape[1]
    hsz = store.H_fwd.shape[-1] ** 2
    cols = [f"X_{l}" for l in range(v)]
    for i in range(n):
        cols.extend(f"T{i}_h{j}" for j in range(hsz))
        cols.extend(f"Tr{i}_h{j}" for j in range(hsz))
        cols.extend([f"beta_{i}", f"sigma2_{i}"])
    cols.extend(["alpha", "rho"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in records(store):
            fh.write(",".join(map(repr, row.tolist())) + "\n")
