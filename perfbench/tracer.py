"""Traced runs: wrap gllflow's layer boundaries from outside and derive the
per-layer metrics.

Each name is patched where its consumer looks it up: a name brought in
with ``from .x import y`` lives on in the importing module, so it is
patched there as well as in its home module (``selfsim.integrate_rk``,
``realflow.integrate_rk``, ``evolution.derivative_nonuniform``,
``figure_reference.solve_selfsim_real``, ``cli.apriori_identity_residual``
and so on).  Patches are installed for a traced pass only and removed
afterwards, so untraced passes run the package untouched.

Two kinds of wrapper share one call stack, so that self time (a call's
duration minus the time of the wrapped calls inside it) is exact:

* spans, recorded as (name, start, end, parent, job id, self time) and
  kept in memory until the run writes them out;
* counters for hot per-call boundaries (the integrator's rhs,
  ``fd_weights``, ``gll_rhs_arr``, Hermite evaluation), which only
  accumulate calls and time.

The one private hook is ``singular_ode._error_norm``: the integrator
accepts or rejects a step on its value, and no public name shows that.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("singular_ode", "selfsim", "realflow", "figure_reference", "evolution",
          "geometry", "numerics", "hasimoto", "cli", "verify")

# Per-layer metrics, in the order BENCHMARK.json lists them: (name, unit).
METRICS = (
    ("singular_ode.integrate_rk.calls", "count"),
    ("singular_ode.integrate_rk.s", "s"),
    ("singular_ode.integrate_rk.self_us_per_step", "us"),
    ("singular_ode.steps_accepted", "count"),
    ("singular_ode.steps_rejected", "count"),
    ("singular_ode.accept_ratio", "ratio"),
    ("singular_ode.rhs_evals", "count"),
    ("singular_ode.rhs_evals_per_step", "ratio"),
    ("singular_ode.rhs.us_per_call", "us"),
    ("singular_ode.series_start.s", "s"),
    ("selfsim.solve_profile.s", "s"),
    ("selfsim.identity_residual.s", "s"),
    ("selfsim.tail_limit.s", "s"),
    ("selfsim.eval.points", "count"),
    ("realflow.solve_selfsim_real.calls", "count"),
    ("realflow.solve_selfsim_real.s", "s"),
    ("realflow.comparison_suite.s", "s"),
    ("figure_reference.fit_convention.s", "s"),
    ("figure_reference.solves", "count"),
    ("evolution.evolve.s", "s"),
    ("evolution.mol_steps", "count"),
    ("evolution.us_per_step_node", "us"),
    ("evolution.residual.s", "s"),
    ("evolution.residual.frames", "count"),
    ("evolution.residual.ms_per_frame", "ms"),
    ("evolution.energy_history.s", "s"),
    ("geometry.gll_rhs_arr.calls", "count"),
    ("geometry.gll_rhs_arr.s", "s"),
    ("numerics.derivative_nonuniform.calls", "count"),
    ("numerics.derivative_nonuniform.s", "s"),
    ("numerics.derivative_nonuniform.nodes", "count"),
    ("numerics.fd_weights.calls", "count"),
    ("numerics.hermite_eval.calls", "count"),
    ("numerics.hermite_eval.points", "count"),
    ("numerics.hermite_eval.s", "s"),
    ("numerics.cumquad0.s", "s"),
    ("hasimoto.transport_frame.s", "s"),
    ("hasimoto.transport_frame.nodes", "count"),
    ("hasimoto.compute_q.s", "s"),
    ("hasimoto.qpde_residual.s", "s"),
    ("hasimoto.qpde_residual.frames", "count"),
    ("cli.write.s", "s"),
    ("cli.bytes_written", "count"),
    ("cli.files_written", "count"),
    ("verify.geom.s", "s"),
    ("verify.singular.s", "s"),
    ("verify.selfsim.s", "s"),
    ("verify.realheat.s", "s"),
    ("verify.pde.s", "s"),
    ("verify.hasimoto.s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
) + tuple((f"self_share.{layer}", "ratio") for layer in LAYERS)

_INTEGRATOR_METRICS = (
    "singular_ode.integrate_rk.calls", "singular_ode.integrate_rk.s",
    "singular_ode.integrate_rk.self_us_per_step", "singular_ode.steps_accepted",
    "singular_ode.accept_ratio", "singular_ode.rhs_evals", "singular_ode.rhs_evals_per_step",
    "singular_ode.rhs.us_per_call", "singular_ode.series_start.s",
    "numerics.hermite_eval.calls", "numerics.hermite_eval.points", "numerics.hermite_eval.s",
    "cli.write.s", "cli.bytes_written", "cli.files_written")

# Coverage self-test: metrics that must be non-zero on a workload, because
# the workload runs that layer.  Counts that an optimisation is meant to
# drive to zero (repeated fd_weights, integrate_rk calls once lanes batch
# them) are deliberately absent.
REQUIRED = {
    "profiles": _INTEGRATOR_METRICS + (
        "selfsim.solve_profile.s", "selfsim.identity_residual.s", "selfsim.tail_limit.s",
        "selfsim.eval.points", "numerics.cumquad0.s", "verify.selfsim.s"),
    "scalar_batch": _INTEGRATOR_METRICS + (
        "realflow.solve_selfsim_real.calls", "realflow.solve_selfsim_real.s",
        "realflow.comparison_suite.s", "figure_reference.fit_convention.s",
        "figure_reference.solves", "verify.realheat.s", "verify.singular.s"),
    "evolve_certify": (
        "evolution.evolve.s", "evolution.mol_steps", "evolution.us_per_step_node",
        "evolution.residual.s", "evolution.residual.frames",
        "evolution.residual.ms_per_frame", "evolution.energy_history.s",
        "geometry.gll_rhs_arr.calls", "geometry.gll_rhs_arr.s",
        "numerics.derivative_nonuniform.calls", "numerics.derivative_nonuniform.s",
        "numerics.derivative_nonuniform.nodes", "numerics.cumquad0.s",
        "hasimoto.transport_frame.s", "hasimoto.transport_frame.nodes",
        "hasimoto.compute_q.s", "hasimoto.qpde_residual.s",
        "hasimoto.qpde_residual.frames", "cli.write.s", "cli.bytes_written",
        "cli.files_written", "verify.pde.s", "verify.hasimoto.s", "verify.geom.s"),
}


class Tracer:
    """Spans and counters for one traced pass; see the module docstring."""

    def __init__(self):
        self.spans = []           # [name, start, end, parent span, job, self time]
        self.counts = defaultdict(float)
        self.job_counts = defaultdict(lambda: defaultdict(float))
        self.job = None
        self._stack = []          # frames: [child time, span index or None]
        self._active = defaultdict(int)
        self._patches = []
        self._weights_seen = set()
        self.missing = []         # hooks whose target no longer exists

    # -- recording ---------------------------------------------------------

    def add(self, key, value=1):
        self.counts[key] += value
        self.job_counts[self.job][key] += value

    def _enclosing_span(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return -1

    def call(self, name, fn, args, kwargs, span=True):
        """Run fn under a span (or a counter frame) named `name`."""
        index = None
        if span:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._enclosing_span(), self.job, 0.0])
        frame = [0.0, index]
        outer = self._active[name] == 0
        self._active[name] += 1
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self._active[name] -= 1
            dt = t1 - t0
            if self._stack:
                self._stack[-1][0] += dt
            self_time = dt - frame[0]
            counts = self.counts
            counts[name + ".calls"] += 1
            counts[name + ".self_s"] += self_time
            if outer:
                counts[name + ".s"] += dt
            if index is not None:
                record = self.spans[index]
                record[1], record[2], record[5] = t0, t1, self_time

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def _get(self, owner, attr):
        """owner's own attr, or None (and noted) when a refactor removed it;
        the metrics it feeds then read zero and the coverage self-test fails."""
        space = owner if isinstance(owner, dict) else owner.__dict__
        if attr not in space:
            self.missing.append(f"{getattr(owner, '__name__', 'dict')}.{attr}")
            return None
        return space[attr]

    def wrap(self, owners, attr, name, span=True, after=None, before=None):
        """Patch owner.attr (module, class or dict) for every owner."""
        for owner in owners:
            original = self._get(owner, attr)
            if original is not None:
                self._set(owner, attr, self._wrapper(original, name, span, after, before))

    def _wrapper(self, original, name, span, after, before):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            result = tracer.call(name, original, args, kwargs, span)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def install(self):
        from gllflow import (_numerics, cli, evolution, figure_reference, geometry,
                             hasimoto, manifest, realflow, selfsim, singular_ode, verify)
        add = self.add

        # singular_ode: the integrator, its rhs and its step decisions
        def rhs_counting(args, kwargs):
            def counted(fun):
                return lambda r, y: self.call("singular_ode.rhs", fun, (r, y), {}, False)
            if "fun" in kwargs:
                kwargs = dict(kwargs, fun=counted(kwargs["fun"]))
            else:
                args = (counted(args[0]),) + tuple(args[1:])
            return args, kwargs

        def steps(args, kwargs, result):
            add("singular_ode.steps_accepted", len(result[0]) - 1)

        self.wrap((selfsim, realflow, singular_ode), "integrate_rk",
                  "singular_ode.integrate_rk", before=rhs_counting, after=steps)
        self.wrap((selfsim, realflow, singular_ode), "series_start",
                  "singular_ode.series_start")
        error_norm = self._get(singular_ode, "_error_norm")

        def judged_error_norm(*args, **kwargs):
            value = error_norm(*args, **kwargs)
            add("singular_ode.step_attempts")
            if value > 1.0:
                add("singular_ode.steps_rejected")
            return value
        if error_norm is not None:
            self._set(singular_ode, "_error_norm", judged_error_norm)

        # selfsim
        self.wrap((cli, verify, selfsim), "solve_profile", "selfsim.solve_profile")
        self.wrap((cli, verify, selfsim), "apriori_identity_residual",
                  "selfsim.identity_residual")
        self.wrap((cli, selfsim), "tail_limit", "selfsim.tail_limit")
        self.wrap((selfsim.SelfSimProfile,), "eval", "selfsim.eval", span=False,
                  after=lambda a, k, r: add("selfsim.eval.points", np.size(a[1])))

        # realflow / figure_reference
        self.wrap((realflow,), "solve_selfsim_real", "realflow.solve_selfsim_real")
        self.wrap((figure_reference,), "solve_selfsim_real", "realflow.solve_selfsim_real",
                  after=lambda a, k, r: add("figure_reference.solves"))
        self.wrap((realflow,), "comparison_suite", "realflow.comparison_suite")
        self.wrap((figure_reference,), "fit_convention", "figure_reference.fit_convention")

        # evolution / geometry
        def mol_steps(args, kwargs, traj):
            n_steps = round((traj.frames[-1].t - traj.frames[0].t) / traj.dt)
            add("evolution.mol_steps", n_steps)
            add("evolution.step_nodes", n_steps * traj.frames[0].r.size)
            add("evolution.frames_stored", len(traj.frames))

        self.wrap((cli, verify, evolution), "evolve", "evolution.evolve", after=mol_steps)
        self.wrap((cli, verify, evolution), "residual", "evolution.residual",
                  after=lambda a, k, rep: add("evolution.residual.frames", len(rep.times)))
        self.wrap((verify, evolution), "energy_history", "evolution.energy_history")
        self.wrap((evolution, verify, geometry), "gll_rhs_arr", "geometry.gll_rhs_arr",
                  span=False)

        # _numerics
        self.wrap((evolution, hasimoto, selfsim, _numerics), "derivative_nonuniform",
                  "numerics.derivative_nonuniform",
                  after=lambda a, k, r: add("numerics.derivative_nonuniform.nodes",
                                            np.size(a[0])))
        seen = self._weights_seen

        def repeated_weights(args, kwargs, result):
            x, x0 = np.asarray(args[0], float), float(args[1])
            order = args[2] if len(args) > 2 else kwargs["m"]
            key = (x.tobytes(), x0, order)
            if key in seen:
                add("numerics.fd_weights.repeated")
            seen.add(key)

        self.wrap((_numerics,), "fd_weights", "numerics.fd_weights", span=False,
                  after=repeated_weights)
        self.wrap((selfsim, realflow, singular_ode), "hermite_eval", "numerics.hermite_eval",
                  span=False, after=lambda a, k, r: add("numerics.hermite_eval.points",
                                                        np.size(a[0])))
        self.wrap((selfsim, hasimoto), "cumquad0", "numerics.cumquad0", span=False)

        # hasimoto
        self.wrap((cli, verify, hasimoto), "transport_frame", "hasimoto.transport_frame",
                  after=lambda a, k, r: add("hasimoto.transport_frame.nodes", np.size(a[0])))
        self.wrap((cli, verify, hasimoto), "compute_q", "hasimoto.compute_q")
        self.wrap((hasimoto,), "qpde_residual", "hasimoto.qpde_residual",
                  after=lambda a, k, r: add("hasimoto.qpde_residual.frames",
                                            len(a[0].frames)))

        # cli / manifest: every CSV and manifest write
        for cls in (singular_ode.ProfileGrid, selfsim.SelfSimProfile, realflow.RealProfile,
                    evolution.RadialField, hasimoto.QField):
            self.wrap((cls,), "to_csv", "cli.write")
        self.wrap((manifest.RunManifest,), "write", "cli.write")
        self._set(cli, "np", _SavetxtProxy(np, self))

        # verify: one span per suite
        for suite in list(verify.SUITES):
            self.wrap((verify.SUITES,), suite, f"verify.{suite}")


class _SavetxtProxy:
    """Stands in for numpy inside the cli module so its savetxt is traced."""

    def __init__(self, numpy_module, tracer):
        self._np = numpy_module
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._np, attr)

    def savetxt(self, *args, **kwargs):
        return self._tracer.call("cli.write", self._np.savetxt, args, kwargs)


def derive(tracer, wall_s):
    """Per-layer metrics of one traced pass from its spans and counters."""
    c = tracer.counts
    accepted = c["singular_ode.steps_accepted"]
    attempts = c["singular_ode.step_attempts"]
    rhs_calls = c["singular_ode.rhs.calls"]
    frames = c["evolution.residual.frames"]

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    m = {
        "singular_ode.integrate_rk.calls": c["singular_ode.integrate_rk.calls"],
        "singular_ode.integrate_rk.s": c["singular_ode.integrate_rk.s"],
        "singular_ode.integrate_rk.self_us_per_step":
            ratio(c["singular_ode.integrate_rk.self_s"], accepted, 1e6),
        "singular_ode.steps_accepted": accepted,
        "singular_ode.steps_rejected": c["singular_ode.steps_rejected"],
        "singular_ode.accept_ratio": ratio(accepted, attempts),
        "singular_ode.rhs_evals": rhs_calls,
        "singular_ode.rhs_evals_per_step": ratio(rhs_calls, accepted),
        "singular_ode.rhs.us_per_call": ratio(c["singular_ode.rhs.s"], rhs_calls, 1e6),
        "singular_ode.series_start.s": c["singular_ode.series_start.s"],
        "selfsim.solve_profile.s": c["selfsim.solve_profile.s"],
        "selfsim.identity_residual.s": c["selfsim.identity_residual.s"],
        "selfsim.tail_limit.s": c["selfsim.tail_limit.s"],
        "selfsim.eval.points": c["selfsim.eval.points"],
        "realflow.solve_selfsim_real.calls": c["realflow.solve_selfsim_real.calls"],
        "realflow.solve_selfsim_real.s": c["realflow.solve_selfsim_real.s"],
        "realflow.comparison_suite.s": c["realflow.comparison_suite.s"],
        "figure_reference.fit_convention.s": c["figure_reference.fit_convention.s"],
        "figure_reference.solves": c["figure_reference.solves"],
        "evolution.evolve.s": c["evolution.evolve.s"],
        "evolution.mol_steps": c["evolution.mol_steps"],
        "evolution.us_per_step_node":
            ratio(c["evolution.evolve.s"], c["evolution.step_nodes"], 1e6),
        "evolution.residual.s": c["evolution.residual.s"],
        "evolution.residual.frames": frames,
        "evolution.residual.ms_per_frame": ratio(c["evolution.residual.s"], frames, 1e3),
        "evolution.energy_history.s": c["evolution.energy_history.s"],
        "geometry.gll_rhs_arr.calls": c["geometry.gll_rhs_arr.calls"],
        "geometry.gll_rhs_arr.s": c["geometry.gll_rhs_arr.s"],
        "numerics.derivative_nonuniform.calls": c["numerics.derivative_nonuniform.calls"],
        "numerics.derivative_nonuniform.s": c["numerics.derivative_nonuniform.s"],
        "numerics.derivative_nonuniform.nodes": c["numerics.derivative_nonuniform.nodes"],
        "numerics.fd_weights.calls": c["numerics.fd_weights.repeated"],
        "numerics.hermite_eval.calls": c["numerics.hermite_eval.calls"],
        "numerics.hermite_eval.points": c["numerics.hermite_eval.points"],
        "numerics.hermite_eval.s": c["numerics.hermite_eval.s"],
        "numerics.cumquad0.s": c["numerics.cumquad0.s"],
        "hasimoto.transport_frame.s": c["hasimoto.transport_frame.s"],
        "hasimoto.transport_frame.nodes": c["hasimoto.transport_frame.nodes"],
        "hasimoto.compute_q.s": c["hasimoto.compute_q.s"],
        "hasimoto.qpde_residual.s": c["hasimoto.qpde_residual.s"],
        "hasimoto.qpde_residual.frames": c["hasimoto.qpde_residual.frames"],
        "cli.write.s": c["cli.write.s"],
        "cli.bytes_written": c["cli.bytes_written"],
        "cli.files_written": c["cli.files_written"],
    }
    for suite in ("geom", "singular", "selfsim", "realheat", "pde", "hasimoto"):
        m[f"verify.{suite}.s"] = c[f"verify.{suite}.s"]
    self_s = layer_self_times(tracer)
    for layer in LAYERS:
        m[f"self_share.{layer}"] = ratio(self_s.get(layer, 0.0), wall_s)
    return m


def layer_self_times(tracer):
    """Self seconds per layer, the first part of each span or counter name."""
    out = defaultdict(float)
    for k, v in tracer.counts.items():
        if k.endswith(".self_s"):
            out[k.split(".", 1)[0]] += v
    return dict(out)
