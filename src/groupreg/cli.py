"""Command-line surface.

Subcommands: simulate, fit, fit-baseline, waic-scan, summarize, inverse-warp,
audit. `_build_parser` declares each one once: its flags, and its handler
(`set_defaults(handler=...)`), which `main` calls. A flag that overrides a
config key has the key's name as its dest, and `_load_run_config` copies
every key that a flag, or a command's default (fit-baseline's model), set
onto the config, so a new override is one `add_argument`. Only the commands whose outputs a key reaches have its
flag. `fit` runs the chain class that the config's model names
(`sampler.Chain` or `baseline.ConventionalChain`); `fit-baseline` is `fit`
with model=conventional, and `waic-scan` runs one symmetric `Chain` per
lambda_r value from one initialization. Every artifact-producing run writes
a manifest.json (the command, resolved config, config hash, seed, package version);
re-running with the manifest's config reproduces the outputs bit-exactly.
Outputs are staged in a scratch directory (`_staging`) and promoted only on
success, so failed runs leave no partial artifacts; a chain that aborts
(`ChainAborted`) writes its state at the failure to --out as snapshot.json,
and nothing else. After `fit`, `fit-baseline` or `waic-scan` ends, by
success or abort, --out holds that run's files only: what an earlier one of
these runs left there (the files its manifest.json lists, the manifest, a
snapshot.json) is deleted first (`_clear_previous_run`). `inverse-warp`
refuses maps on another lattice than the store's. Exit codes: 0 ok, 2
config error, 3 numerical failure, 4 invariant-audit failure.

The handlers that use `baseline` or `audit` import it themselves, so a
symmetric `fit` loads neither: where no bytecode is cached, a process
compiles every module it imports, and these two took 8-14 ms of the
package's 63-82 ms (`python -X importtime`, 2-core x86-64 machine).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import json
import os
import shutil
import sys
import tempfile

import numpy as np

from . import __version__
from .config import RunConfig, load_config, parse_lambda_r_grid
from .errors import ConfigError, GroupregError, NumericalError, ValidationError
from .grids import ActivationMap, Lattice, common_lattice, read_map_csv, write_map_csv
from .sampler import Chain, ChainAborted, initialize, summarize
from .store import export_csv, load_store, save_store
from .synth import ScenarioSpec, generate


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="groupreg",
        description="Probabilistic symmetric group-wise registration to a latent GP template")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, store=False, seed=True, out=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if store:
            p.add_argument("store", help="path to a samples.bin store")
        p.add_argument("--config", default=None, help="key=value config file")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if out:
            p.add_argument("--out", required=True, help="output directory")
        return p

    command("simulate", _cmd_simulate, "generate a synthetic scenario")
    p = command("fit", _cmd_fit, "fit the model the config names (default symmetric)")
    p.add_argument("--lambda-r", type=float, default=None, dest="lambda_r")
    p = command("fit-baseline", _cmd_fit, "fit the conventional kernel-template model")
    p.set_defaults(model="conventional")
    p = command("waic-scan", _cmd_waic_scan, "fit per lambda_r grid value, emit a WAIC table")
    p.add_argument("--lambda-r-grid", default=None, dest="lambda_r_grid",
                   help="comma-separated lambda_r values")
    p = command("summarize", _cmd_summarize, "posterior summaries of a sample store",
                store=True, seed=False)
    p.add_argument("--level", type=float, default=None, dest="credible_level", metavar="LEVEL",
                   help="credible level")
    command("inverse-warp", _cmd_inverse_warp, "pull subject maps back to template space",
            store=True)
    command("audit", _cmd_audit, "run the invariant audit suite", out=False)
    return parser


def _load_run_config(args):
    """The config file's RunConfig (defaults without one), with every key that
    the command's flags or defaults set: their dests are the keys' names. An
    empty --lambda-r-grid sets nothing."""
    cfg = load_config(args.config) if args.config else RunConfig()
    updates = {f.name: value for f in dataclasses.fields(RunConfig)
               if (value := getattr(args, f.name, None)) not in (None, "")}
    if "lambda_r_grid" in updates:
        updates["lambda_r_grid"] = parse_lambda_r_grid(updates["lambda_r_grid"])
    return dataclasses.replace(cfg, **updates)


def _load_maps(cfg):
    """Subject maps from config paths, or generated from the scenario spec."""
    if cfg.maps:
        return [read_map_csv(p) for p in cfg.maps], None
    if not cfg.scenario:
        raise ValidationError("config needs either maps=... or scenario=...")
    spec = ScenarioSpec(scenario=cfg.scenario, n_subjects=cfg.n_subjects,
                        noise_sd=cfg.noise_sd, seed=cfg.effective_sim_seed())
    maps, truth = generate(spec)
    return maps, truth


def _json_dump(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _json_object(path):
    """The JSON object in `path`, or None if there is none."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError):
        return None
    return obj if isinstance(obj, dict) else None


CHAIN_COMMANDS = ("fit", "fit-baseline", "waic-scan")


def _clear_previous_run(out_dir):
    """Delete from out_dir what an earlier fit, fit-baseline or waic-scan wrote.

    That is the files its manifest.json lists, the manifest, and the
    snapshot.json of an aborted chain. A manifest of another command (the
    maps of `simulate` may be this run's inputs), a listed path that leaves
    out_dir, and a snapshot.json without a chain's fields are left alone.
    """
    root = os.path.abspath(out_dir)
    manifest = os.path.join(root, "manifest.json")
    doc = _json_object(manifest)
    if doc is not None and doc.get("command") in CHAIN_COMMANDS:
        for name in doc.get("artifacts", []):
            path = os.path.abspath(os.path.join(root, str(name)))
            if os.path.commonpath([root, path]) == root and os.path.isfile(path):
                os.remove(path)
                parent = os.path.dirname(path)
                while parent != root and not os.listdir(parent):  # waic-scan's lambda_* dirs
                    os.rmdir(parent)
                    parent = os.path.dirname(parent)
        os.remove(manifest)
    snapshot = os.path.join(root, "snapshot.json")
    doc = _json_object(snapshot)
    if doc is not None and {"iteration", "transforms"} <= doc.keys():
        os.remove(snapshot)


@contextlib.contextmanager
def _staging(out_dir, command, cfg):
    """Write artifacts to a scratch dir; promote on success, drop on failure.

    `with _staging(out, command, cfg) as path:` yields `path(name)`, the
    scratch path of artifact `name`, its directories made. When the block
    exits normally, manifest.json, which lists every file staged, is written
    and the files move to `out`; on any exception the scratch dir is deleted
    instead.
    """
    parent = os.path.dirname(os.path.abspath(out_dir)) or "."
    os.makedirs(parent, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=".groupreg-staging-", dir=parent)

    def path(name):
        full = os.path.join(scratch, name)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        return full

    try:
        yield path
        artifacts = sorted(
            os.path.relpath(os.path.join(root, name), scratch).replace(os.sep, "/")
            for root, _, names in os.walk(scratch) for name in names)
        _json_dump({"command": command, "config": cfg.to_dict(),
                    "config_hash": cfg.config_hash(), "seed": cfg.seed,
                    "version": __version__, "artifacts": artifacts},
                   os.path.join(scratch, "manifest.json"))
        os.makedirs(out_dir, exist_ok=True)
        if command in CHAIN_COMMANDS:
            _clear_previous_run(out_dir)
        for name in sorted(os.listdir(scratch)):
            dst = os.path.join(out_dir, name)
            if os.path.isdir(dst):
                shutil.rmtree(dst)
            elif os.path.exists(dst):
                os.remove(dst)
            shutil.move(os.path.join(scratch, name), dst)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _cmd_simulate(args):
    cfg = _load_run_config(args)
    if not cfg.scenario:
        raise ValidationError("simulate needs scenario=... in the config")
    maps, truth = _load_maps(cfg)
    with _staging(args.out, "simulate", cfg) as path:
        for i, amap in enumerate(maps):
            write_map_csv(amap, path(f"map{i:02d}.csv"))
        write_map_csv(truth.template, path("template.csv"))
        truth_doc = {
            "scenario": cfg.scenario,
            "noise_sd": truth.noise_sd,
            "transforms": [t.matrix.tolist() for t in truth.transforms],
            "angles_deg": list(truth.angles_deg),
            "template": "template.csv",
        }
        _json_dump(truth_doc, path("truth.json"))
    print(f"wrote {len(maps)} maps + truth to {args.out}")
    return 0


def _cmd_fit(args):
    cfg = _load_run_config(args)
    maps, _ = _load_maps(cfg)
    chain_class = Chain
    if cfg.model == "conventional":
        from .baseline import ConventionalChain as chain_class
    store, diagnostics = chain_class(maps, cfg).run()
    with _staging(args.out, args.command, cfg) as path:
        save_store(store, path("samples.bin"))
        export_csv(store, path("samples.csv"))
        _json_dump(diagnostics, path("diagnostics.json"))
    print(f"model={cfg.model} samples={store.n_samples} "
          f"waic={diagnostics.get('waic', float('nan')):.4f} "
          f"ic_error={diagnostics.get('mean_ic_error', float('nan')):.5f} -> {args.out}")
    return 0


def _cmd_waic_scan(args):
    cfg = _load_run_config(args)
    if cfg.model != "symmetric":
        raise ValidationError("waic-scan applies to the symmetric model")
    # The whole grid is checked before the first chain runs: each value, and
    # that each has an output directory of its own.
    grid = list(cfg.lambda_r_grid)
    if min(grid) < 0:
        raise ValidationError(f"lambda_r_grid values must be >= 0, got {grid}")
    tags = [f"lambda_{lam:g}" for lam in grid]
    if len(set(tags)) < len(tags):
        raise ValidationError(f"lambda_r_grid values {grid} share output directories: {tags}")
    maps, _ = _load_maps(cfg)
    # Initialization does not read lambda_r, so it runs once; each chain gets
    # its own copy because a chain mutates its state.
    initial = initialize(maps, cfg)
    with _staging(args.out, "waic-scan", cfg) as path:
        rows = []
        for lam, tag in zip(grid, tags):
            sub_cfg = dataclasses.replace(cfg, lambda_r=lam)
            store, diag = Chain(maps, sub_cfg, initial_state=copy.deepcopy(initial)).run()
            save_store(store, path(os.path.join(tag, "samples.bin")))
            _json_dump(diag, path(os.path.join(tag, "diagnostics.json")))
            rows.append((lam, diag["waic"], diag["mean_ic_error"]))
            print(f"lambda_r={lam:g}: waic={diag['waic']:.4f} "
                  f"ic_error={diag['mean_ic_error']:.5f}")
        with open(path("waic_table.csv"), "w", encoding="utf-8") as fh:
            fh.write("lambda_r,waic,mean_ic_error\n")
            for lam, w, ic in rows:
                fh.write(f"{lam!r},{w!r},{ic!r}\n")
    best = min(rows, key=lambda r: r[1])
    print(f"best lambda_r by WAIC: {best[0]:g} -> {args.out}/waic_table.csv")
    return 0


def _store_lattice(store):
    return Lattice(shape=tuple(store.meta["shape"]),
                   spacing=np.array(store.meta["spacing"]),
                   origin=np.array(store.meta["origin"]))


def _cmd_summarize(args):
    cfg = _load_run_config(args)
    store = load_store(args.store)
    summary = summarize(store, level=cfg.credible_level)
    lattice = _store_lattice(store)
    with _staging(args.out, "summarize", cfg) as path:
        for name in ("mean", "sd", "ratio", "lower", "upper"):
            write_map_csv(ActivationMap(lattice, getattr(summary, name)),
                          path(f"template_{name}.csv"))
        with open(path("transforms_mean.csv"), "w", encoding="utf-8") as fh:
            fh.write("subject,direction,entries\n")
            for direction, ts in (("forward", summary.mean_forward),
                                  ("reverse", summary.mean_reverse)):
                for i, t in enumerate(ts):
                    fh.write(f"{i},{direction}," + ";".join(map(repr, t.matrix.ravel())) + "\n")
    print(f"summaries (level {cfg.credible_level}) -> {args.out}")
    return 0


def _cmd_inverse_warp(args):
    cfg = _load_run_config(args)
    maps, _ = _load_maps(cfg)
    store = load_store(args.store)
    fitted, given = _store_lattice(store), common_lattice(maps)
    if not fitted.matches(given):
        raise ValidationError(f"the store was fitted on {fitted}, the maps lie on {given}")
    summary = summarize(store, level=cfg.credible_level)
    if len(summary.mean_forward) != len(maps):
        raise ValidationError(
            f"store has {len(summary.mean_forward)} subjects, config supplies {len(maps)} maps")
    from .baseline import inverse_warp

    warped, mean_map = inverse_warp(maps, summary.mean_forward)
    with _staging(args.out, "inverse-warp", cfg) as path:
        for i, amap in enumerate(warped):
            write_map_csv(amap, path(f"warped{i:02d}.csv"))
        write_map_csv(mean_map, path("warped_mean.csv"))
    print(f"inverse-warped {len(warped)} maps -> {args.out}")
    return 0


def _cmd_audit(args):
    from .audit import run_all_audits

    cfg = _load_run_config(args)
    results, passed = run_all_audits(seed=cfg.seed)
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"[{status}] {r['name']}: value={r['value']:.3e} tol={r['tol']:.3e}")
    if not passed:
        print("audit: FAILED")
        return 4
    print("audit: all checks passed")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ChainAborted as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        if getattr(args, "out", None):
            os.makedirs(args.out, exist_ok=True)
            _clear_previous_run(args.out)
            _json_dump(exc.snapshot, os.path.join(args.out, "snapshot.json"))
        return 3
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, GroupregError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
