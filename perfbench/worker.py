"""Run one workload's job list in passes, in a fresh interpreter.

Started by ``run.py`` with BLAS and OpenMP threads pinned to 1 and
``src`` on the path.  Pass 0 keeps its outputs for the reference checks;
every later pass is compared with it by digest and then deleted.  With
``--trace 1`` traced and untraced passes alternate after pass 0, and the
per-layer metrics are the medians over the traced passes.

Writes one JSON document to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibration  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
PASS_BUDGET_S = 120.0
MANIFEST_NAME = "run_manifest.json"
PAYLOAD_NAME = "call_result.json"


# ---------------------------------------------------------------------------
# library-call jobs
# ---------------------------------------------------------------------------

def call_comparison_suite(args):
    from gllflow import realflow
    rep = realflow.comparison_suite(args["labels"], args["n"], args["r_max"])
    return {"report": json.loads(rep.to_json()), "passed": rep.passed,
            "informational": rep.informational}


def call_qpde_residual(args):
    from gllflow import evolution, hasimoto
    from gllflow.geometry import FlowParams
    params = FlowParams(2, 0.0, 1.0)
    r = evolution.make_grid(workloads.EVOLVE_R_MAX, args["nodes"])
    field = evolution.great_circle_bump(r, args["amplitude"], args["center"], args["width"])
    T = workloads.evolve_T(args["nodes"], args["steps"])
    config = evolution.EvolveConfig(dt_factor=workloads.DT_FACTOR,
                                    store_every=args["store_every"])
    traj = evolution.evolve(field, params, T, config)
    times, l2, linf = hasimoto.qpde_residual(traj, params)
    return {"frames": len(traj.frames), "times": times.tolist(), "l2": l2.tolist(),
            "linf": linf.tolist(),
            "u": np.stack([f.u for f in traj.frames]).tolist()}


CALLS = {"comparison_suite": call_comparison_suite, "qpde_residual": call_qpde_residual}


# ---------------------------------------------------------------------------
# running and fingerprinting jobs
# ---------------------------------------------------------------------------

def run_job(job, out_dir, tracer):
    """Run one job; returns (status dict, seconds spent in the package)."""
    from gllflow import cli
    stdout, stderr = io.StringIO(), io.StringIO()
    status = {"code": 0, "error": None}
    payload = None
    if job["kind"] == "cli":
        argv = list(job["argv"])
        if argv[0] != "verify":
            argv += ["--out-dir", str(out_dir)]
        fn, args, name = cli.main, (argv,), "cli.main"
    else:
        fn, args, name = CALLS[job["call"]], (job["args"],), f"call.{job['call']}"
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if tracer is None:
                result = fn(*args)
            else:
                result = tracer.call(name, fn, args, {})
    except SystemExit as exc:
        status = {"code": exc.code if isinstance(exc.code, int) else 2,
                  "error": f"SystemExit({exc.code!r})"}
        result = None
    except Exception:  # a job that raises is a failed job, not a failed run
        status = {"code": 2, "error": traceback.format_exc(limit=8)}
        result = None
    seconds = time.perf_counter() - t0
    if job["kind"] == "cli":
        if result not in (None, 0):
            status["code"] = int(result)
    elif result is not None:
        payload = result
    if status["code"] != 0 and status["error"] is None:
        status["error"] = stderr.getvalue().strip()[-2000:] or f"exit code {status['code']}"
    out_dir.mkdir(parents=True, exist_ok=True)
    if payload is not None:
        (out_dir / PAYLOAD_NAME).write_text(json.dumps(payload, sort_keys=True))
    if job["kind"] == "cli" and job["argv"][0] == "verify":
        lines = [ln for ln in stdout.getvalue().splitlines()
                 if ln.startswith("[PASS]") or ln.startswith("[FAIL]")]
        (out_dir / "verify_checks.txt").write_text("\n".join(lines) + "\n")
    return status, seconds


def digest_dir(out_dir, code):
    """sha256 over every output file; manifests lose their provenance block,
    the one part that legitimately differs between reruns."""
    h = hashlib.sha256(f"exit={code}\n".encode())
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == MANIFEST_NAME:
            doc = json.loads(data)
            doc.pop("provenance", None)
            data = json.dumps(doc, sort_keys=True).encode()
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


def written(out_dir):
    """(files, bytes) the package wrote; the benchmark's own files excluded."""
    files = [p for p in out_dir.rglob("*") if p.is_file()
             and p.name not in (PAYLOAD_NAME, "verify_checks.txt")]
    return len(files), sum(p.stat().st_size for p in files)


def run_pass(jobs, pass_dir, tracer=None):
    """One pass over the job list.

    Returns (wall seconds, speed-corrected seconds, per-job records); each
    job is corrected by the calibrations taken just before and after it.
    """
    records = []
    wall = corrected = 0.0
    cal_before = calibration.seconds()
    for job in jobs:
        out_dir = pass_dir / job["id"]
        if tracer is not None:
            tracer.job = job["id"]
        status, seconds = run_job(job, out_dir, tracer)
        cal_after = calibration.seconds()
        wall += seconds
        corrected += calibration.corrected(seconds, cal_before, cal_after)
        cal_before = cal_after
        files, nbytes = written(out_dir)
        if tracer is not None:
            tracer.add("cli.files_written", files)
            tracer.add("cli.bytes_written", nbytes)
        records.append({"id": job["id"], "seconds": seconds, "files": files,
                        "bytes": nbytes, "digest": digest_dir(out_dir, status["code"]),
                        **status})
    return wall, corrected, records


def environment():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "loadavg_at_start": list(os.getloadavg()),
            "threads_env": {k: os.environ.get(k) for k in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    env = environment()
    import gllflow.cli  # noqa: F401  (import cost belongs to setup_s, not to a pass)

    workdir = Path(args.workdir)
    jobs = workloads.build(args.workload, args.seed)
    start = time.perf_counter()
    wall0, corrected0, base = run_pass(jobs, workdir / "pass0")
    failures = {r["id"]: r["error"] for r in base if r["code"] != 0}
    untraced, traced, traced_metrics = [(wall0, corrected0)], [], []
    last_tracer = None
    k = 1
    while True:
        elapsed = time.perf_counter() - start
        if not (elapsed < args.seconds or len(untraced) + len(traced) < MIN_PASSES
                or (args.trace and not traced)):
            break
        # a pass that would end past PASS_BUDGET_S is only started when a
        # traced run still lacks its traced pass; slow code must still exit
        # within the run's time limit
        if elapsed + wall0 > PASS_BUDGET_S and (traced or not args.trace):
            break
        pass_dir = workdir / f"pass{k}"
        tracer = None
        if args.trace and k % 2 == 1:
            tracer = tracing.Tracer()
            tracer.install()
        try:
            wall, corrected, records = run_pass(jobs, pass_dir, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        for rec, ref in zip(records, base):
            if rec["code"] != 0:
                failures.setdefault(rec["id"], rec["error"])
            elif rec["digest"] != ref["digest"]:
                failures.setdefault(rec["id"], f"output digest of pass {k} differs from pass 0")
        if tracer is None:
            untraced.append((wall, corrected))
        else:
            traced.append((wall, corrected))
            traced_metrics.append(tracing.derive(tracer, wall))
            last_tracer = tracer
        shutil.rmtree(pass_dir, ignore_errors=True)
        k += 1

    result = {
        "workload": args.workload, "seed": args.seed, "environment": env,
        "jobs": jobs, "pass0": base, "failures": failures,
        "untraced_walls": [w for w, _ in untraced], "traced_walls": [w for w, _ in traced],
        "untraced_corrected": [c for _, c in untraced],
        "traced_corrected": [c for _, c in traced],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        metrics = {name: statistics.median(m[name] for m in traced_metrics)
                   for name in traced_metrics[0]}
        t_wall = statistics.median(c for _, c in traced)
        u_wall = statistics.median(c for _, c in untraced)
        metrics.update({"trace.wall_s": t_wall, "trace.untraced_wall_s": u_wall,
                        "trace.overhead_s": t_wall - u_wall})
        result["per_layer"] = metrics
        result["layer_self_s"] = tracing.layer_self_times(last_tracer)
        result["last_traced_wall"] = traced[-1][0]
        result["missing_hooks"] = last_tracer.missing
        result["job_counts"] = {job: dict(c) for job, c in last_tracer.job_counts.items()}
        result["spans"] = last_tracer.spans
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
