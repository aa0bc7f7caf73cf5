"""gllflow benchmark: one seeded workload, timed end to end, checked against
independent references, with a separate traced run for per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload profiles --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for the job lists and why each was chosen):

* ``profiles``: long sphere-valued ``selfsim`` solves plus
  ``verify selfsim``; the integrator's stepping loop and the sphere rhs.
* ``scalar_batch``: ``realheat figure``, ~20 ``realheat selfsim`` jobs,
  ``realflow.comparison_suite`` and ``verify realheat``/``singular``: many
  short scalar solves with dense-output queries.
* ``evolve_certify``: MOL evolutions, residual certification, frame CSVs,
  the Hasimoto frame and q residuals, ``verify pde``/``hasimoto``/``geom``;
  no integrator work at all.

The workload runs in a fresh interpreter (worker.py) with BLAS and OpenMP
threads pinned to 1, in passes over its job list for ``--seconds``.  With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics; with ``--trace 1`` traced and untraced passes alternate and it
holds the per-layer metrics.  Outputs go to a scratch directory under
``.perfbench/`` that is removed at the end; the job ledger and, for traced
runs, the spans are kept there as JSON.

End-to-end metrics:

* ``wall_s``: median seconds of one pass over the job list.
* ``setup_s``: median over fresh interpreters of the time to import gllflow
  and build the CLI parser.

  Both times are corrected for the machine's speed drift by a calibration
  taken around every job and every import (calibration.py); the raw medians
  are printed on stderr and kept in the ledger.
* ``peak_rss_mb``: peak resident memory of the worker process.
* ``pass_frac``: jobs that passed / jobs attempted.  A job fails if it
  exits non-zero or raises, fails its reference check, or writes output
  whose digest differs between passes (or from an earlier run of the same
  sources, workload and seed).
* ``err_ratio_max``: the largest error against an independent reference
  divided by the job's stated tolerance, over checked jobs (oracles.py).

Exit status is non-zero, with no result line, when the gllflow sources are
not next to this directory or the worker cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11
# Runs in a fresh interpreter: import gllflow and build the CLI parser
# between two speed calibrations that import nothing, and print the timings.
SETUP_SNIPPET = f"""
import sys
sys.path.insert(0, {str(HERE)!r})
from time import perf_counter
import calibration
c0 = calibration.interpreter_seconds()
t0 = perf_counter()
import gllflow.cli
gllflow.cli.build_parser()
t = perf_counter() - t0
print(t, c0, calibration.interpreter_seconds())
"""
RUN_BUDGET_S = 170.0

PINNED_THREADS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                   "NUMEXPR_NUM_THREADS")}


def _child_env():
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup(env):
    """Median over fresh interpreters of the speed-corrected time to import
    gllflow and build the parser (raw median second).  One unmeasured start
    first fills the bytecode cache."""
    cmd = [sys.executable, "-c", SETUP_SNIPPET]
    subprocess.run(cmd, env=env, check=True, timeout=60, cwd=ROOT, stdout=subprocess.DEVNULL)
    raw, corrected = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, env=env, check=True, timeout=60, cwd=ROOT,
                             stdout=subprocess.PIPE, text=True).stdout
        t, c0, c1 = (float(v) for v in out.split())
        raw.append(t)
        corrected.append(calibration.corrected(t, c0, c1, calibration.REFERENCE_INTERPRETER_S))
    return statistics.median(corrected), statistics.median(raw)


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "gllflow").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def output_counts(job_dir):
    """Nodes and frames a job reports in its run manifest, if it wrote one."""
    path = job_dir / "run_manifest.json"
    if not path.is_file():
        return {}
    doc = json.loads(path.read_text())
    counts = {"nodes": doc.get("grid", {}).get("nodes"),
              "frames": doc.get("results", {}).get("frames")}
    return {k: v for k, v in counts.items() if v is not None}


def compare_with_previous(ledger_path, ledger):
    """Digest mismatches against an earlier run of the same sources and seed."""
    if not ledger_path.is_file():
        return {}
    try:
        old = json.loads(ledger_path.read_text())
    except ValueError:
        return {}
    if old.get("source_digest") != ledger["source_digest"]:
        return {}
    before = {j["id"]: j for j in old.get("jobs", [])}
    return {j["id"]: "output digest differs from an earlier run of the same sources and seed"
            for j in ledger["jobs"] if j["id"] in before
            and (before[j["id"]]["argv"], before[j["id"]]["call"]) == (j["argv"], j["call"])
            and before[j["id"]]["digest"] != j["digest"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description="gllflow benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "gllflow" / "cli.py").is_file():
        print(f"error: gllflow sources not found under {SRC}", file=sys.stderr)
        return 2

    env = _child_env()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    result_path = workdir / "result.json"
    workdir.mkdir()
    try:
        setup = measure_setup(env) if not args.trace else None
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir),
               "--result", str(result_path)]
        budget = RUN_BUDGET_S - (time.perf_counter() - started)
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=budget,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            print(f"error: worker exceeded {budget:.0f} s", file=sys.stderr)
            return 3
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return 3
        res = json.loads(result_path.read_text())
        return report(args, res, setup, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, res, setup, workdir, started):
    jobs = res["jobs"]
    failures = dict(res["failures"])
    ratios = []
    ledger_jobs = []
    for job, rec in zip(jobs, res["pass0"]):
        job_dir = workdir / "pass0" / job["id"]
        ok, ratio, detail = oracles.check(job, job_dir)
        if not ok and job["id"] not in failures:
            failures[job["id"]] = f"reference check failed: {detail}"
        if ratio is not None:
            ratios.append((ratio, job["id"]))
        ledger_jobs.append({
            "id": job["id"], "seed": args.seed,
            "argv": ["gllflow"] + job["argv"] if job["kind"] == "cli" else None,
            "call": None if job["kind"] == "cli" else {"name": job["call"], "args": job["args"]},
            "digest": rec["digest"], "files": rec["files"], "bytes": rec["bytes"],
            "seconds_pass0": rec["seconds"], "check": detail, "err_ratio": ratio,
            "counts": dict(output_counts(job_dir),
                           **res.get("job_counts", {}).get(job["id"], {})),
        })
    ledger = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "source_digest": source_digest(), "environment": res["environment"],
              "setup_s": setup and {"corrected": setup[0], "raw": setup[1]},
              "passes": {k: res[k] for k in ("untraced_walls", "untraced_corrected",
                                             "traced_walls", "traced_corrected")},
              "jobs": ledger_jobs}
    ledger_path = OUT / f"ledger-{args.workload}-seed{args.seed}.json"
    for job_id, why in compare_with_previous(ledger_path, ledger).items():
        failures.setdefault(job_id, why)
    ledger["failures"] = failures
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")

    correct = not failures
    if args.trace:
        metrics = res["per_layer"]
        missing = [m for m in tracing.REQUIRED[args.workload] if not metrics.get(m)]
        if missing:
            correct = False
            print(f"tracer coverage: zero on {args.workload}: {missing}", file=sys.stderr)
        if res["missing_hooks"]:
            print(f"tracer hooks with no target: {res['missing_hooks']}", file=sys.stderr)
        spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "job", "self_s"],
            "spans": res["spans"], "layer_self_s": res["layer_self_s"],
            "per_layer": metrics}) + "\n")
        out = {name: {"value": metrics[name], "unit": unit}
               for name, unit in tracing.METRICS}
        shares = ", ".join(f"{k} {v / res['last_traced_wall']:.1%}" for k, v in
                           sorted(res["layer_self_s"].items(), key=lambda kv: -kv[1]) if v)
        print(f"self time by layer, last traced pass: {shares}", file=sys.stderr)
        print(f"tracing overhead: {metrics['trace.overhead_s']:.3f} s per pass "
              f"({metrics['trace.wall_s']:.3f} traced vs "
              f"{metrics['trace.untraced_wall_s']:.3f} untraced)", file=sys.stderr)
    else:
        attempted = len(jobs)
        out = {
            "wall_s": {"value": statistics.median(res["untraced_corrected"]), "unit": "s"},
            "setup_s": {"value": setup[0], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "pass_frac": {"value": (attempted - len(failures)) / attempted, "unit": "ratio"},
            "err_ratio_max": {"value": max(ratios)[0] if ratios else 0.0, "unit": "ratio"},
        }
    for job_id, why in failures.items():
        print(f"FAILED {job_id}: {why}", file=sys.stderr)
    env = res["environment"]
    print(f"{args.workload} seed {args.seed}: {len(res['untraced_walls'])} untraced and "
          f"{len(res['traced_walls'])} traced passes, python {env['python']}, numpy "
          f"{env['numpy']}, nproc {env['nproc']}, load {env['loadavg_at_start']}, "
          f"{time.perf_counter() - started:.1f} s in all", file=sys.stderr)
    if not args.trace:
        print(f"uncorrected: wall_s {statistics.median(res['untraced_walls']):.4f}, "
              f"setup_s {setup[1]:.4f}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(jobs), "failed": len(failures),
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
