"""Command-line front door: solvers, verification suites, plot-ready data.

Exit codes: 0 = pass, 1 = an asserted property failed, 2 = solver failure
or violated preconditions.  Every run directory receives exactly one
run_manifest.json, which `main` writes with the command's wall time; data
files are CSV and reports JSON, in the formats of `manifest`.  GLLFLOW_OUT
sets the default output root.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import figure_reference as figref
from . import realflow as rf
from ._numerics import require_positive
from .errors import GLLFlowError
from .evolution import (EvolveConfig, RadialField, evolve, field_from_profile,
                        great_circle_bump, make_grid, residual)
from .geometry import FlowParams, TangentVec, harmonic_map_jet
from .hasimoto import compute_q, strichartz_exponents, transport_frame
from .manifest import RunManifest, write_csv
from .selfsim import TAIL_MIN_R_MAX, apriori_identity_residual, solve_profile, tail_limit
from .verify import SUITES

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_SOLVER = 2


def _out_dir(args, default_leaf):
    root = Path(os.environ.get("GLLFLOW_OUT", "."))
    out = Path(args.out_dir) if args.out_dir else root / default_leaf
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_report(out_dir, name, rep):
    """Write rep's JSON report as out_dir/name; returns it as a dict."""
    text = rep.to_json()
    (out_dir / name).write_text(text + "\n")
    return json.loads(text)


def _write_gnuplot(out_dir, csv_name, columns, title):
    lines = ["set datafile separator ','", "set key autotitle columnhead", f"set title '{title}'",
             "plot " + ", ".join(f"'{csv_name}' using 1:{c} with lines" for c in columns)]
    (Path(out_dir) / "plot.gp").write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# selfsim
# ---------------------------------------------------------------------------

def cmd_selfsim(args):
    params = FlowParams(args.n, args.alpha, args.beta)
    out = _out_dir(args, "out-selfsim")
    if args.v1 == 0.0 and args.v2 == 0.0:
        print("warning: trivial data (v = 0); profile is constant at the north pole")
    prof = solve_profile((args.v1, args.v2), params, args.r_max, rel_tol=args.tol)
    prof.to_csv(out / "profile.csv")
    results = {
        "nodes": int(prof.r.size),
        "max_A": float(prof.A.max()),
        "A_bound_4n": 4.0 * args.n,
        "identity_residual": apriori_identity_residual(prof, r_stop=min(20.0, args.r_max)),
        "solver": dict(prof.sol.counters(), r0=float(prof.r[0]),
                       start_remainder=prof.start_remainder),
    }
    # SelfSimProfile refuses a profile whose A(r) exceeds the bound
    print(f"max A(r) = {results['max_A']:.6f} (bound 4n = {results['A_bound_4n']:g}): ok")
    if prof.r_max >= TAIL_MIN_R_MAX:
        results["tail"] = _write_report(out, "tail_report.json", tail_limit(prof))
    if args.gnuplot:
        _write_gnuplot(out, "profile.csv", (2, 3, 4), "self-similar profile")
    print(f"wrote {out}")
    return EXIT_OK, out, RunManifest(
        command="selfsim",
        parameters={"n": args.n, "alpha": args.alpha, "beta": args.beta,
                    "v1": args.v1, "v2": args.v2},
        grid={"r_max": args.r_max, "nodes": int(prof.r.size)},
        tolerances={"rel_tol": args.tol}, results=results)


# ---------------------------------------------------------------------------
# realheat subcommands
# ---------------------------------------------------------------------------

def cmd_realheat_classify(args):
    rep = rf.classify_uniqueness(args.n)
    out = _out_dir(args, "out-realheat-classify")
    print(f"n = {args.n}: {rep.verdict} (eta'(pi) = {rep.eta_prime_at_pi:g}, "
          f"min eta' = {rep.min_eta_prime:g}, threshold = {rep.threshold:g})")
    return EXIT_OK, out, RunManifest(
        "realheat classify", {"n": args.n},
        results=_write_report(out, "classifier_report.json", rep))


# argparse types: a malformed list exits 2 with the flag and the value named
def int_list(text):
    return [int(v) for v in text.split(",")]


def float_list(text):
    return [float(v) for v in text.split(",")]


def cmd_realheat_stationary(args):
    ns = args.n_list
    residuals = [rf.stationary_residual(args.alpha, args.r_list, n) for n in ns]
    worst = max([0.0] + residuals)
    out = _out_dir(args, "out-realheat-stationary")
    write_csv(out / "stationary_residuals.csv", "n,max_residual", ns, residuals)
    print(f"max residual over n in {ns}: {worst:.3e} (dimension-independent family)")
    return (EXIT_OK if worst <= 1e-10 else EXIT_ASSERT), out, RunManifest(
        "realheat stationary", {"alpha": args.alpha, "n_list": ns, "r_list": args.r_list},
        results={"max_residual": worst})


def cmd_realheat_selfsim(args):
    slope = 2.0 * args.beta if args.convention == "label" else args.beta
    prof = rf.solve_selfsim_real(slope, args.n, args.r_max, rel_tol=args.tol)
    out = _out_dir(args, "out-realheat-selfsim")
    prof.to_csv(out / "profile.csv")
    mono = bool(np.all(np.diff(prof.g) >= -rf.ORDERING_TOL))
    below = bool(prof.g.max() < np.pi)
    if args.gnuplot:
        _write_gnuplot(out, "profile.csv", (2,), "scalar self-similar profile")
    print(f"phi(r_max) = {prof.g_inf:.6f}; monotone: {mono}; below pi: {below}")
    return (EXIT_OK if (mono and below) else EXIT_ASSERT), out, RunManifest(
        "realheat selfsim",
        {"beta": args.beta, "slope": slope, "n": args.n, "convention": args.convention},
        grid={"r_max": args.r_max, "nodes": int(prof.r.size)},
        tolerances={"rel_tol": args.tol},
        results={"g_inf": prof.g_inf, "monotone": mono, "below_pi": below,
                 "solver": dict(prof.sol.counters(), r0=float(prof.r[0]),
                                start_remainder=prof.start_remainder)})


def cmd_realheat_witness(args):
    rep = rf.nonuniqueness_witness(args.epsilon, args.delta, quad_nodes=args.quad_nodes)
    out = _out_dir(args, "out-realheat-witness")
    sign = "negative" if rep.energy_gap < 0 else "positive"
    print(f"energy gap E(h) - E(equator) = {rep.energy_gap:.6e} ({sign}); "
          f"Hardy saturation ratio = {rep.hardy_ratio:.6f}")
    if rep.taylor_delta_literal is None:
        print("note: gamma admits no q = 1 quartic Taylor domination; the energy's "
              "potential is 2 gamma, whose classical q = 1 domination (gamma's "
              f"q = 1/2 form) holds for delta <= {rep.taylor_delta_halved}")
    return EXIT_OK, out, RunManifest(
        "realheat witness", {"epsilon": args.epsilon, "delta": args.delta},
        tolerances={"quad_nodes": args.quad_nodes},
        results=_write_report(out, "witness_report.json", rep))


def cmd_realheat_figure(args):
    fit = figref.fit_convention()
    labels = sorted(fit.curves)
    out = _out_dir(args, "out-realheat-figure")
    errs = {}
    for lbl, data in sorted(fit.curves.items()):
        name = f"curve_beta_{str(lbl).replace('.', 'p')}.csv"
        write_csv(out / name, "x_plot,y_reference,y_simulated", data)
        errs[str(lbl)] = float(np.max(np.abs(data[:, 1] - data[:, 2])))
    print(f"fitted convention: n = {fit.n}, origin slope = {fit.slope_factor:g} x label")
    for lbl in labels:
        print(f"  label {lbl:g}: max plot-unit error {errs[str(lbl)]:.2e}")
    return EXIT_OK, out, RunManifest(
        "realheat figure",
        {"labels": labels, "fitted_n": fit.n, "fitted_slope_factor": fit.slope_factor},
        tolerances={"rel_tol": figref.FIT_REL_TOL},
        results={"fit_max_err": fit.max_err, "per_curve_err": errs})


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

# the keys an evolve --config file may set, with their defaults and types
EVOLVE_CONFIG = {"n": (2, int), "alpha": (1.0, float), "beta": (0.0, float),
                 "r_max": (50.0, float), "nodes": (201, int), "T": (0.1, float)}


def _read_config_file(path):
    conf = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in EVOLVE_CONFIG:
            raise GLLFlowError(f"unknown config key {key!r} in {path}; "
                               f"the keys are {', '.join(EVOLVE_CONFIG)}")
        try:
            conf[key] = EVOLVE_CONFIG[key][1](value.strip())
        except ValueError:
            raise GLLFlowError(f"config key {key!r} in {path}: malformed value "
                               f"{value.strip()!r}") from None
    return conf


def _evolve_initial(args, params, r):
    if args.preset == "harmonic":
        u0, _, _ = harmonic_map_jet(TangentVec(args.v1, args.v2, 0.0), r)
        return RadialField(r, u0)
    if args.preset == "bump":
        return great_circle_bump(r, args.amplitude, args.center, args.width)
    require_positive(t0=args.t0)    # the selfsim preset: t0 sizes the profile's r_max
    prof = solve_profile((args.v1, args.v2), params, r[-1] / np.sqrt(args.t0) + 1.0)
    return field_from_profile(prof, r, args.t0)


def cmd_evolve(args):
    conf = _read_config_file(args.config) if args.config else {}
    # precedence: explicit flags > config file > defaults
    n, alpha, beta, r_max, nodes, T = (
        getattr(args, key) if getattr(args, key) is not None
        else conf.get(key, default) for key, (default, _) in EVOLVE_CONFIG.items())
    params = FlowParams(n, alpha, beta)
    r = make_grid(r_max, nodes, grading=args.grading)
    field0 = _evolve_initial(args, params, r)
    config = EvolveConfig(dt_factor=args.dt_factor, outer_boundary=args.outer,
                          store_every=args.store_every)
    traj = evolve(field0, params, T, config)
    rep = residual(traj) if len(traj.frames) >= 3 else None
    out = _out_dir(args, "out-evolve")
    for i, f in enumerate(traj.frames):
        f.to_csv(out / f"frame_{i:04d}.csv")
    results = {"frames": len(traj.frames), "dt": traj.dt, "mol_steps": traj.n_steps,
               "max_norm_drift": traj.max_norm_drift}
    if rep is not None:
        results["residual_l2_max"] = rep.max_l2
        results["residual_linf_max"] = rep.max_linf
    if args.preset == "harmonic":
        drift = max(float(np.max(np.linalg.norm(f.u - traj.frames[0].u, axis=1)))
                    for f in traj.frames)
        results["stationarity_drift"] = drift
        dr = float(np.min(np.diff(r)))
        print(f"harmonic stationarity drift: {drift:.3e} (dr^2 = {dr**2:.3e})")
    print(f"wrote {len(traj.frames)} frames to {out}")
    return EXIT_OK, out, RunManifest(
        "evolve",
        {"preset": args.preset, "n": n, "alpha": alpha, "beta": beta,
         "v1": args.v1, "v2": args.v2, "amplitude": args.amplitude,
         "center": args.center, "width": args.width, "t0": args.t0},
        grid={"r_max": r_max, "nodes": nodes, "grading": args.grading},
        tolerances={"dt_factor": args.dt_factor, "T": T,
                    "outer_boundary": args.outer, "store_every": args.store_every},
        results=results)


# ---------------------------------------------------------------------------
# hasimoto
# ---------------------------------------------------------------------------

def cmd_hasimoto_exponents(args):
    table = strichartz_exponents(args.p)
    out = _out_dir(args, "out-hasimoto")
    print(f"p = {args.p}: r = {table.r} = {float(table.r)}; "
          f"s(1,1) = {table.s[(1, 1)]}; Holder identity exact: {table.holder_identity_holds()}")
    return EXIT_OK, out, RunManifest(
        "hasimoto exponents", {"p": str(args.p)},
        results=_write_report(out, "exponent_table.json", table))


def cmd_hasimoto_run(args):
    params = FlowParams(args.n, args.alpha, args.beta)
    r = np.linspace(0.0, args.r_max, args.nodes)
    u, u_r, _ = harmonic_map_jet(TangentVec(args.v1, args.v2, 0.0), r)
    frame = transport_frame(r, u, np.array([1.0, 0.0, 0.0]))
    qf = compute_q(r, u, frame, params, u_r=u_r)
    out = _out_dir(args, "out-hasimoto")
    qf.to_csv(out / "qfield.csv", u_r_norm=np.linalg.norm(u_r, axis=1))
    print(f"wrote frame coordinates for the stationary profile to {out}")
    return EXIT_OK, out, RunManifest(
        "hasimoto run",
        {"n": args.n, "alpha": args.alpha, "beta": args.beta, "v1": args.v1, "v2": args.v2},
        grid={"r_max": args.r_max, "nodes": args.nodes},
        results={"max_abs_q": float(np.max(np.abs(qf.q))),
                 "max_alpha_g": float(np.max(np.abs(qf.alpha_g)))})


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    t_all = time.perf_counter()
    rows = []
    for name in names:
        t0 = time.perf_counter()
        suite_rows = SUITES[name]()
        for c in suite_rows:
            print(f"[{'PASS' if c.passed else 'FAIL'}] {name}.{c.name}: {c.detail}")
        print(f"suite {name}: {sum(c.passed for c in suite_rows)}/{len(suite_rows)} "
              f"in {time.perf_counter() - t0:.2f} s")
        rows += suite_rows
    passed = sum(c.passed for c in rows)
    print(f"{passed}/{len(rows)} checks passed ({time.perf_counter() - t_all:.1f}s)")
    return (EXIT_OK if passed == len(rows) else EXIT_ASSERT), None, None


# ---------------------------------------------------------------------------

def _flow_flags(p, n=2, alpha=1.0, beta=0.0, r_max=100.0):
    """Add --n --alpha --beta --v1 --v2 --r-max to p, with p's own defaults
    (a shared parents= parser shares its Actions, and so their defaults)."""
    p.add_argument("--n", type=int, default=n)
    p.add_argument("--alpha", type=float, default=alpha)
    p.add_argument("--beta", type=float, default=beta)
    p.add_argument("--v1", type=float, default=1.0)
    p.add_argument("--v2", type=float, default=0.0)
    p.add_argument("--r-max", type=float, default=r_max)


@functools.cache
def build_parser():
    """The gllflow argument parser, built once per process on first call.

    Every caller gets the same parser, so none may change it.  parse_args
    keeps no state between calls: each returns a new namespace and converts
    string defaults (the stationary lists) afresh.
    """
    ap = argparse.ArgumentParser(prog="gllflow", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    # shared by every subcommand that writes an output directory
    writes = argparse.ArgumentParser(add_help=False)
    writes.add_argument("--out-dir", default=None)

    p = sub.add_parser("selfsim", help="solve a self-similar profile", parents=[writes])
    _flow_flags(p)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--gnuplot", action="store_true")
    p.set_defaults(fn=cmd_selfsim)

    rh = sub.add_parser("realheat", help="scalar great-circle flow tools")
    rsub = rh.add_subparsers(dest="subcommand", required=True)

    p = rsub.add_parser("classify", parents=[writes])
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_realheat_classify)

    p = rsub.add_parser("stationary", parents=[writes])
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--n-list", type=int_list, default="2,3,4,5,6,7,8")
    p.add_argument("--r-list", type=float_list, default="0.1,1,10")
    p.set_defaults(fn=cmd_realheat_stationary)

    p = rsub.add_parser("selfsim", parents=[writes])
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--r-max", type=float, default=10.0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--convention", choices=("label", "slope"), default="label",
                   help="'label': origin slope 2*beta (fitted); 'slope': beta itself")
    p.add_argument("--gnuplot", action="store_true")
    p.set_defaults(fn=cmd_realheat_selfsim)

    p = rsub.add_parser("witness", parents=[writes])
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--quad-nodes", type=int, default=4000)
    p.set_defaults(fn=cmd_realheat_witness)

    p = rsub.add_parser("figure", parents=[writes])
    p.set_defaults(fn=cmd_realheat_figure)

    p = sub.add_parser("evolve", help="method-of-lines evolution", parents=[writes])
    p.add_argument("--preset", choices=("harmonic", "bump", "selfsim"), default="bump")
    _flow_flags(p, n=None, alpha=None, beta=None, r_max=None)   # None: the config or EVOLVE_CONFIG
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--grading", type=float, default=1.0)
    p.add_argument("--dt-factor", type=float, default=0.1)
    p.add_argument("--outer", choices=("clamp", "neumann"), default="clamp")
    p.add_argument("--store-every", type=int, default=10)
    p.add_argument("--amplitude", type=float, default=0.5)
    p.add_argument("--center", type=float, default=3.0)
    p.add_argument("--width", type=float, default=1.0)
    p.add_argument("--t0", type=float, default=1.0)
    p.add_argument("--config", default=None, help="key=value file; flags take precedence")
    p.set_defaults(fn=cmd_evolve)

    hs = sub.add_parser("hasimoto", help="frame and gauge tools")
    hsub = hs.add_subparsers(dest="subcommand", required=True)

    p = hsub.add_parser("exponents", parents=[writes])
    p.add_argument("--p", default="2")
    p.set_defaults(fn=cmd_hasimoto_exponents)

    p = hsub.add_parser("run", parents=[writes])
    _flow_flags(p, alpha=0.0, beta=1.0, r_max=10.0)
    p.add_argument("--nodes", type=int, default=2001)
    p.set_defaults(fn=cmd_hasimoto_run)

    p = sub.add_parser("verify", help="run invariant suites; exit 0 iff all pass")
    p.add_argument("suite", nargs="?", default="all",
                   choices=["all"] + sorted(SUITES))
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None):
    """Run one command; write the manifest it returns, with its wall time."""
    args = build_parser().parse_args(argv)
    try:
        t0 = time.perf_counter()
        code, out, mani = args.fn(args)
        if mani is not None:
            mani.write(out, time.perf_counter() - t0)
        return code
    except GLLFlowError as exc:
        diag = {"error": type(exc).__name__, "message": str(exc)}
        extra = getattr(exc, "diagnostics", None)
        if extra:
            diag["diagnostics"] = {k: (v if isinstance(v, (int, float, str)) else str(v))
                                   for k, v in extra.items()}
        print(json.dumps(diag, sort_keys=True), file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
