"""Benchmark of `groupreg` fits: set-up, sweep throughput, ESS/s and accuracy.

Usage, from the repository root:

    python3 perfbench/run.py --workload glyph28 --seed 1 --seconds 10 --trace 0

The program is timed from outside, through its public functions, one fit
at a time in one process. With --trace 0 every fit of the workload runs
untraced, and one config is run again by `groupreg fit` in fresh child
processes; the end-to-end metrics are printed. With --trace 1 every fit
runs untraced, then again with spans installed around the package's public
functions, and the per-layer metrics are printed. Times of set-up, sampling
and whole fits are reported at reference speed, against a fixed unit of
work read while they run (gauge.py). README.md in this directory lists the
workloads and metrics.

Outputs are checked before any metric is trusted: `groupreg audit` passes,
every kept sample is finite, a store survives save/load bit-exactly, the
`groupreg fit` artifacts are byte-identical to the in-process fit, and the
traced samples are bit-identical to the untraced ones. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 120.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# One BLAS thread, for this process and its children, so that a run uses
# one core and a neighbour on the other core does not land in its timings.
# It must be set before numpy is first imported.
INHERITED_BLAS = {k: os.environ.get(k) for k in BLAS_VARS}
os.environ.update({k: "1" for k in BLAS_VARS})

sys.path.insert(0, str(SRC))
try:
    import groupreg
except ImportError as exc:
    sys.exit(f"perfbench: cannot import groupreg from {SRC}: {exc}")
if not Path(groupreg.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"perfbench: groupreg was imported from {groupreg.__file__}, not from {SRC}")

import numpy as np
import scipy
from groupreg.errors import GroupregError
from groupreg.sampler import ChainAborted

import layers
from ess import bulk_ess, split_rhat
from gauge import INTERVAL_S, REFERENCE_S, Gauge, warm_up
from tracing import Tracer
from workloads import WORKLOADS

# Failures the CLI maps to exit code 3.
FIT_ERRORS = (GroupregError, np.linalg.LinAlgError, FloatingPointError)
ARTIFACTS = ("samples.bin", "samples.csv")


@dataclass
class FitRecord:
    label: str
    out_dir: Path
    sweeps: int = 0
    setup: Gauge = field(default_factory=Gauge)    # Chain(...), gauge read throughout
    run: Gauge = field(default_factory=Gauge)      # Chain.run, gauge read throughout
    wall_s: float = float("nan")                   # the whole fit, gauge reading left out
    store: object = None
    summary: object = None
    diagnostics: dict = None
    failure: dict = None

    @property
    def ok(self):
        return self.failure is None

    @property
    def setup_s(self):
        return self.setup.seconds

    @property
    def setup_ref_s(self):
        """Seconds of `Chain(...)`, at reference speed."""
        return self.setup.at_reference_speed()

    @property
    def sampling_seconds(self):
        """Seconds of `Chain.run`, gauge reading left out.

        They hold every sweep and, once burn-in is over, the kept-sample
        work `Chain.run` does after each: the sample copies, the
        log-likelihood and inverse-consistency rows. They also hold the
        work before the loop and after it (building the store, WAIC).
        """
        return self.run.seconds

    @property
    def sampling_ref_s(self):
        """`sampling_seconds` at reference speed."""
        return self.run.at_reference_speed()


# ---------------------------------------------------------------------------
# Inputs and fits
# ---------------------------------------------------------------------------

def write_inputs(fit, directory):
    """Map CSVs plus a key=value config; returns the config path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, amap in enumerate(fit.maps):
        path = directory / f"map{i:02d}.csv"
        groupreg.write_map_csv(amap, path)
        paths.append(str(path))
    lines = [f"maps={','.join(paths)}"]
    lines += [f"{key}={value!r}" for key, value in sorted(fit.settings.items())]
    config_path = directory / "fit.cfg"
    config_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return config_path


def fit_in_process(label, config_path, out_dir, gauged=True):
    """Chain(...), then run, summarize and write; set-up and run are timed.

    With `gauged`, the gauge is read throughout set-up and run, so their
    seconds can be given at reference speed.
    """
    cfg = groupreg.load_config(config_path)
    rec = FitRecord(label, out_dir)
    maps = [groupreg.read_map_csv(p) for p in cfg.maps]
    interval = INTERVAL_S if gauged else None
    stage = "setup"
    t_fit = time.perf_counter()
    try:
        with rec.setup.measure(interval):
            chain = groupreg.Chain(maps, cfg)
        stage = "run"
        with rec.run.measure(interval):
            rec.store, rec.diagnostics = chain.run()
        rec.sweeps = cfg.total
        del chain
        stage = "write"
        rec.summary = groupreg.summarize(rec.store, level=cfg.credible_level)
        out_dir.mkdir(parents=True, exist_ok=True)
        groupreg.save_store(rec.store, out_dir / "samples.bin")
        groupreg.export_csv(rec.store, out_dir / "samples.csv")
    except ChainAborted as exc:
        cause = exc.__cause__ or exc
        rec.failure = {"type": type(cause).__name__, "stage": stage,
                       "sweep": exc.snapshot["iteration"], "message": str(exc)}
    except FIT_ERRORS as exc:
        rec.failure = {"type": type(exc).__name__, "stage": stage, "sweep": None,
                       "message": str(exc)}
    rec.wall_s = time.perf_counter() - t_fit - rec.setup.spent - rec.run.spent
    return rec


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args, log_path):
    """Run a Python child to completion; returns (exit code, wall s, peak RSS MB)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                                stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

class Checks:
    def __init__(self):
        self.results = []

    def add(self, name, passed, detail=""):
        self.results.append({"name": name, "passed": bool(passed), "detail": detail})
        if not passed:
            print(f"check failed: {name} {detail}", file=sys.stderr)

    @property
    def passed(self):
        return all(r["passed"] for r in self.results)


STORE_ARRAYS = ("X", "H_fwd", "H_rev", "beta", "sigma2", "alpha", "rho")


def check_fit_outputs(rec, checks):
    store = rec.store
    finite = all(np.all(np.isfinite(getattr(store, k))) for k in STORE_ARRAYS)
    checks.add(f"{rec.label}: kept samples finite", finite)
    path = rec.out_dir / "samples.bin"
    loaded = groupreg.load_store(path)
    same = loaded.meta == {**store.meta, "n_records": store.n_samples} and all(
        np.asarray(getattr(loaded, k)).tobytes() == np.asarray(getattr(store, k)).tobytes()
        for k in STORE_ARRAYS)
    resaved = rec.out_dir / "resaved.bin"
    groupreg.save_store(loaded, resaved)
    same = same and resaved.read_bytes() == path.read_bytes()
    resaved.unlink()
    checks.add(f"{rec.label}: store round trip bit-exact", same)


def diagnostics_text(diag):
    """Diagnostics as canonical JSON, without the wall-clock entry."""
    return json.dumps({k: v for k, v in diag.items() if k != "runtime_seconds"},
                      sort_keys=True)


def same_artifacts(dir_a, dir_b):
    return all((dir_a / n).read_bytes() == (dir_b / n).read_bytes() for n in ARTIFACTS)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def lie_coordinates(store):
    """(samples, subjects * Lie dim) coordinates of the stored forward transforms."""
    h = store.H_fwd
    return np.array([[groupreg.lie_log(groupreg.AffineTransform(m)) for m in row]
                     for row in h]).reshape(h.shape[0], -1)


def fit_statistics(rec, fit):
    """Bulk ESS counts, split R-hat and accuracy against the synthetic truth."""
    store, summary = rec.store, rec.summary
    lie = lie_coordinates(store)
    gaps = [float(np.linalg.norm(est.matrix - true.matrix))
            for est, true in zip(summary.mean_forward, fit.true_transforms)]
    return {
        "ess.template": float(np.median(bulk_ess(store.X[None]))),
        "ess.transform": float(np.min(bulk_ess(lie[None]))),
        "ess.rho": float(bulk_ess(store.rho)),
        "template_rmse": float(np.sqrt(np.mean((summary.mean - fit.true_template) ** 2))),
        "transform_err": float(np.mean(gaps)),
        "rhat.transform_max": float(np.max(split_rhat(lie[None]))),
        "rhat.rho": float(split_rhat(store.rho)),
    }


def completed(records):
    ok = [r for r in records if r.ok]
    if not ok:
        raise SystemExit("perfbench: every fit failed; no metric can be measured")
    return ok


def ess_per_s(records, stats, quantity):
    """Effective samples of all completed fits per second of their sampling."""
    ok = completed(records)
    return (sum(stats[r.label][f"ess.{quantity}"] for r in ok)
            / sum(r.sampling_ref_s for r in ok), "1/s")


def end_to_end(records, stats, twin, cli):
    """Times are at reference speed (gauge.py); the median damps what it misses."""
    ok = completed(records)
    median = lambda key: float(np.median([stats[r.label][key] for r in ok]))
    setups = [r.setup_ref_s for r in ok + [twin] if r.ok]
    return {
        "setup_s": (float(np.median(setups)), "s"),
        "sweeps_per_s": (sum(r.sweeps for r in ok) / sum(r.sampling_ref_s for r in ok),
                         "1/s"),
        "fit_s": (float(np.median(cli["wall_ref_s"])), "s"),
        "peak_rss_mb": (max(cli["peak_rss_mb"]), "MB"),
        "template_rmse": (median("template_rmse"), "1"),
        "completed_fraction": (sum(r.ok for r in records) / len(records), "1"),
    }


def fit_detail(rec):
    """What result.json keeps about one fit."""
    out = {"setup_s": rec.setup_s, "wall_s": rec.wall_s, "sweeps": rec.sweeps,
           "failure": rec.failure}
    if rec.ok:
        out["sampling_s"] = rec.sampling_seconds
        if rec.run.readings:
            out.update(setup_ref_s=rec.setup_ref_s, sampling_ref_s=rec.sampling_ref_s,
                       setup_gauge_mean_s=float(np.mean(rec.setup.readings)),
                       run_gauge_mean_s=float(np.mean(rec.run.readings)))
    if rec.diagnostics:
        for key in ("forward_acceptance_post_burnin", "reverse_acceptance_post_burnin",
                    "rho_acceptance", "rejected_out_of_library", "rejected_no_real_log"):
            out[key] = rec.diagnostics[key]
    return out


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------

def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "groupreg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args, workload, inherited_threads):
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "blas_threads_inherited": INHERITED_BLAS,
        "reference_s": REFERENCE_S,
        "GROUPREG_THREADS": inherited_threads,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "chains": {f.label: f.settings for f in workload.fits + [workload.replay]},
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def run_audit(run_dir, checks):
    code, _, _ = run_child(["-m", "groupreg.cli", "audit"], run_dir / "audit.log")
    checks.add("groupreg audit passes", code == 0, f"exit {code}")


def replay(label, config, k, run_dir):
    """`groupreg fit` on `config` in a fresh process (fit_child.py).

    Returns the exit code, the wall seconds, the gauge the child read
    throughout (its `seconds` are the wall seconds less the reading), the
    peak RSS in MB and the output directory.
    """
    out = run_dir / "cli" / f"{label}-{k}"
    gauge_path = run_dir / f"cli-{k}.gauge.json"
    code, wall, rss = run_child([str(HERE / "fit_child.py"), str(gauge_path), "fit",
                                 "--config", str(config), "--out", str(out)],
                                run_dir / f"cli-{k}.log")
    gauge = Gauge()
    try:
        read = json.loads(gauge_path.read_text(encoding="utf-8"))
        gauge.readings, gauge.seconds = read["readings"], wall - read["spent"]
    except (OSError, ValueError, KeyError):
        pass      # the child died before writing it; a check reports it
    return code, wall, gauge, rss, out


def untraced_run(workload, configs, run_dir, checks):
    """Every fit in process, plus `groupreg fit` replays: end-to-end metrics."""
    fits = {f.label: f for f in workload.fits}
    label = workload.replay.label
    # The replayed config runs in process too, so the driver's artifacts
    # can be compared with the CLI's.
    jobs = [label] + [f.label for f in workload.fits]
    # Replays are spread over the gaps between jobs: a burst of load lasts
    # seconds, so replays far apart in time are less likely to all share it.
    gaps = len(jobs) + 1
    n = workload.replays
    at = [round(k * (gaps - 1) / (n - 1)) for k in range(n)]
    done, replays = {}, []
    for gap in range(gaps):
        for _ in range(at.count(gap)):
            replays.append(replay(label, configs[label], len(replays), run_dir))
        if gap < len(jobs):
            job = jobs[gap]
            done[job] = fit_in_process(job, configs[job], run_dir / "driver" / job)
    records = [done[f.label] for f in workload.fits]
    for rec in records:
        if rec.ok:
            check_fit_outputs(rec, checks)
    stats = {r.label: fit_statistics(r, fits[r.label]) for r in completed(records)}

    twin = done[label]
    cli = {"label": label, "exit": [], "wall_s": [], "wall_ref_s": [], "peak_rss_mb": []}
    for k, (code, wall, gauge, rss, cli_dir) in enumerate(replays):
        name = f"groupreg fit #{k} of {label}"
        checks.add(f"{name}: gauge read throughout", len(gauge.readings) >= 2)
        wall_ref = gauge.at_reference_speed() if gauge.readings else wall
        for key, value in (("exit", code), ("wall_s", wall), ("wall_ref_s", wall_ref),
                           ("peak_rss_mb", rss)):
            cli[key].append(value)
        checks.add(f"{name}: exit code matches the in-process fit",
                   code == (0 if twin.ok else 3), f"exit {code}")
        if twin.ok and code == 0:
            checks.add(f"{name}: artifacts byte-identical to the in-process fit",
                       same_artifacts(twin.out_dir, cli_dir))
            cli_diag = json.loads((cli_dir / "diagnostics.json").read_text(encoding="utf-8"))
            checks.add(f"{name}: diagnostics match the in-process fit",
                       diagnostics_text(cli_diag) == diagnostics_text(twin.diagnostics))
    detail = {"replay": {**cli, "at_gaps": at, "in_process": fit_detail(twin)},
              "fits": {r.label: fit_detail(r) for r in records}, "statistics": stats}
    return records, end_to_end(records, stats, twin, cli), detail


def traced_run(workload, configs, run_dir, checks):
    """Every fit untraced, then traced: per-layer metrics and the tracing overhead."""
    fits = {f.label: f for f in workload.fits}
    tracer = Tracer()
    plain, traced = [], []
    for i, f in enumerate(workload.fits):
        # Alternate which side runs first, so warm-up does not bias the overhead.
        for side in (("untraced", "traced") if i % 2 == 0 else ("traced", "untraced")):
            out_dir = run_dir / side / f.label
            if side == "untraced":
                plain.append(fit_in_process(f.label, configs[f.label], out_dir))
                continue
            with tracer:
                layers.install(tracer)
                traced.append(fit_in_process(f.label, configs[f.label], out_dir,
                                             gauged=False))
    for a, b in zip(plain, traced):
        checks.add(f"{a.label}: traced run fails like the untraced run",
                   (a.failure or {}).get("type") == (b.failure or {}).get("type"))
        if a.ok and b.ok:
            checks.add(f"{a.label}: traced samples bit-identical to untraced",
                       same_artifacts(a.out_dir, b.out_dir))
            check_fit_outputs(b, checks)

    # Mixing is read from the untraced fits, so tracing does not slow ESS/s.
    stats = {r.label: fit_statistics(r, fits[r.label]) for r in completed(plain)}
    overhead = sum(b.wall_s for b in traced) - sum(a.wall_s for a in plain)
    metrics = layers.metrics(tracer, [r for r in traced if r.ok], overhead)
    metrics["ess_per_s.template"] = ess_per_s(plain, stats, "template")
    metrics["ess_per_s.transform"] = ess_per_s(plain, stats, "transform")
    metrics["ess_per_s.rho"] = ess_per_s(plain, stats, "rho")
    metrics["transform_err"] = (float(np.median([s["transform_err"] for s in stats.values()])),
                                "1")
    metrics["failed_fraction"] = (sum(not r.ok for r in plain) / len(plain), "1")
    detail = {"fits": {r.label: fit_detail(r) for r in plain},
              "traced_fits": {r.label: fit_detail(r) for r in traced}, "statistics": stats}
    return plain, metrics, detail


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    inherited_threads = os.environ.get("GROUPREG_THREADS")
    os.environ["GROUPREG_THREADS"] = "1"     # one fit at a time, no thread pool
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = environment(args, workload, inherited_threads)
    print("env " + json.dumps(env, sort_keys=True))

    checks = Checks()
    run_audit(run_dir, checks)
    warm_up()
    inputs = {f.label: f for f in workload.fits + [workload.replay]}
    configs = {label: write_inputs(f, run_dir / "inputs" / label) for label, f in inputs.items()}
    run = traced_run if args.trace else untraced_run
    records, metrics, detail = run(workload, configs, run_dir, checks)

    failures = [{"fit": r.label, **r.failure} for r in records if not r.ok]
    for f in failures:
        print(f"fit failed: {f['fit']} {f['type']} in {f['stage']} (sweep {f['sweep']})")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": checks.passed,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {**result, "env": env, "checks": checks.results, "failures": failures,
              "detail": detail}
    (run_dir / "result.json").write_text(json.dumps(report, indent=2, sort_keys=True,
                                                    default=str) + "\n", encoding="utf-8")
    for sub in ("driver", "cli", "untraced", "traced", "inputs"):
        shutil.rmtree(run_dir / sub, ignore_errors=True)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
