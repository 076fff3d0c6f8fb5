"""Which public functions the traced run wraps, and the per-layer metrics.

Every metric is normalized by the work that caused it: per sweep for the
sweep phases and the kernels they call, per set-up (one `Chain(...)`) for
geometry and initialization, per kept sample for the log-likelihood rows,
per call for the store writers. Flop and byte counts are computed from
array shapes, not measured.
"""

from __future__ import annotations

import importlib
import os

import numpy as np

PHASES = ("update_transformed_template", "update_template", "update_forward_transform",
          "update_reverse_transform", "standardize_forward_transforms",
          "update_beta_sigma", "standardize_scales", "update_alpha", "update_rho")


def nngp_flop(q, k, d):
    """Computed flops of one batched_nngp_weights call; exp and sqrt not counted.

    Per row: neighbour Gram 2k^2 d, squared distances 5k^2, target offsets
    3kd, LU solve 2k^3/3 + 2k^2, conditional variance 2k.
    """
    return q * (2 * k * k * d + 5 * k * k + 3 * k * d + 2 * k ** 3 / 3 + 2 * k * k + 2 * k)


def _nngp_info(args, kwargs, result):
    targets, neighbor_idx = np.atleast_2d(args[0]), np.atleast_2d(args[1])
    q, k = neighbor_idx.shape
    return {"rows": q, "flop": nngp_flop(q, k, targets.shape[1])}


def _library_info(args, kwargs, result):
    # The build holds an (n_lib, V, d) offset tensor, its (n_lib, V) norms
    # and their (n_lib, V) argsort, all 8-byte.
    v, d = result.template.n_sites, result.template.dim
    return {"bytes": result.enlarged.n_sites * v * (d + 2) * 8}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


TARGETS = (
    ("groupreg.sampler", "Chain.__init__", "sampler.Chain", None),
    ("groupreg.sampler", "Chain.run", "sampler.run", None),
    ("groupreg.sampler", "Chain.sweep", "sampler.sweep", None),
    *(("groupreg.sampler", p, f"sampler.{p}", None) for p in PHASES),
    ("groupreg.sampler", "initialize", "sampler.initialize", None),
    ("groupreg.sampler", "fit_affine", "sampler.fit_affine", None),
    ("groupreg.sampler", "summarize", "sampler.summarize", None),
    ("groupreg.spatial", "batched_nngp_weights", "spatial.batched_nngp_weights", _nngp_info),
    ("groupreg.spatial", "lookup_neighbors", "spatial.lookup_neighbors", None),
    ("groupreg.spatial", "conditional_means", "spatial.conditional_means", None),
    ("groupreg.spatial", "build_neighbor_library", "spatial.build_neighbor_library",
     _library_info),
    ("groupreg.spatial", "build_ordered_neighbor_sets",
     "spatial.build_ordered_neighbor_sets", None),
    ("groupreg.interp", "interpolate", "interp.interpolate", None),
    ("groupreg.transforms", "lie_exp", "transforms.lie_exp", None),
    ("groupreg.transforms", "lie_log", "transforms.lie_log", None),
    ("groupreg.transforms", "karcher_mean", "transforms.karcher_mean", None),
    ("groupreg.model", "pointwise_log_lik", "model.pointwise_log_lik", None),
    ("groupreg.store", "save_store", "store.save_store", _written_bytes),
    ("groupreg.store", "export_csv", "store.export_csv", _written_bytes),
)


def install(tracer):
    for module_name, attr, name, info in TARGETS:
        tracer.install(importlib.import_module(module_name), attr, name, info)


def _diagnostic_ratios(records):
    diags = [r.diagnostics for r in records]
    proposals = sum(d["iterations"] * len(d["beta_last"]) for d in diags)
    mean = lambda key: float(np.mean([a for d in diags for a in d[key]]))
    return {
        "sampler.tfwd.accept_ratio": (mean("forward_acceptance_post_burnin"), "1"),
        "sampler.trev.accept_ratio": (mean("reverse_acceptance_post_burnin"), "1"),
        "sampler.tfwd.rejected_oob_ratio": (
            sum(sum(d["rejected_out_of_library"]) for d in diags) / proposals, "1"),
        "sampler.rejected_nolog_ratio": (
            sum(sum(d["rejected_no_real_log"]) for d in diags) / (2 * proposals), "1"),
        "sampler.rho.accept_ratio": (float(np.mean([d["rho_acceptance"] for d in diags])), "1"),
    }


def metrics(tracer, records, overhead_s):
    """Per-layer metrics from the traced fits that completed."""
    if not records:
        raise SystemExit("perfbench: every traced fit failed; no layer can be measured")
    totals = tracer.totals()
    sweeps = totals[("sweep", "sampler.sweep")]["calls"]
    setups = totals[("setup", "sampler.Chain")]["calls"]
    kept = sum(r.store.n_samples for r in records)
    sweep = lambda name, key="seconds": totals[("sweep", name)][key] / sweeps
    setup = lambda name, key="seconds": totals[("setup", name)][key] / setups
    write = lambda name, key: totals[("write", name)][key] / totals[("write", name)]["calls"]

    out = {f"sampler.{p}.ms_per_sweep": (1e3 * sweep(f"sampler.{p}"), "ms") for p in PHASES}
    sweep_ms = 1e3 * tracer.span_seconds("sampler.sweep")
    # The phases are the sweep's only traced children, so the sweep's self
    # time is the part of it that no phase accounts for.
    sweep_row = totals[("sweep", "sampler.sweep")]
    out.update({
        "sampler.sweep.ms.p50": (float(np.percentile(sweep_ms, 50)), "ms"),
        "sampler.sweep.ms.p90": (float(np.percentile(sweep_ms, 90)), "ms"),
        "sampler.sweep.phase_coverage": (
            1.0 - sweep_row["self_seconds"] / sweep_row["seconds"], "1"),
    })
    out.update(_diagnostic_ratios(records))
    nngp = "spatial.batched_nngp_weights"
    out.update({
        f"{nngp}.calls_per_sweep": (sweep(nngp, "calls"), "count"),
        f"{nngp}.rows_per_sweep": (sweep(nngp, "rows"), "count"),
        f"{nngp}.ms_per_sweep": (1e3 * sweep(nngp), "ms"),
        f"{nngp}.mflop_per_sweep": (sweep(nngp, "flop") / 1e6, "Mflop"),
        "spatial.lookup_neighbors.ms_per_sweep": (1e3 * sweep("spatial.lookup_neighbors"), "ms"),
        "spatial.conditional_means.ms_per_sweep": (
            1e3 * sweep("spatial.conditional_means"), "ms"),
        "spatial.build_neighbor_library.s": (setup("spatial.build_neighbor_library"), "s"),
        "spatial.build_neighbor_library.mbytes": (
            setup("spatial.build_neighbor_library", "bytes") / 1e6, "MB"),
        "spatial.build_ordered_neighbor_sets.s": (
            setup("spatial.build_ordered_neighbor_sets"), "s"),
        "sampler.initialize.s": (setup("sampler.initialize"), "s"),
        "sampler.fit_affine.calls": (setup("sampler.fit_affine", "calls"), "count"),
        "sampler.fit_affine.s": (setup("sampler.fit_affine"), "s"),
        "interp.interpolate.setup_calls": (setup("interp.interpolate", "calls"), "count"),
        "interp.interpolate.ms_per_sweep": (1e3 * sweep("interp.interpolate"), "ms"),
    })
    for fn in ("lie_exp", "lie_log", "karcher_mean"):
        out[f"transforms.{fn}.calls_per_sweep"] = (sweep(f"transforms.{fn}", "calls"), "count")
        out[f"transforms.{fn}.ms_per_sweep"] = (1e3 * sweep(f"transforms.{fn}"), "ms")
    out["model.pointwise_log_lik.ms_per_kept"] = (
        1e3 * totals[("run", "model.pointwise_log_lik")]["seconds"] / kept, "ms")
    for fn in ("save_store", "export_csv"):
        out[f"store.{fn}.s"] = (write(f"store.{fn}", "seconds"), "s")
        out[f"store.{fn}.mbytes"] = (write(f"store.{fn}", "bytes") / 1e6, "MB")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
