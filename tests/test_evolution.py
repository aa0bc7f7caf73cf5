import numpy as np
import pytest
from conftest import digests_by_openblas_kernel

from gllflow import evolution
from gllflow._numerics import ResidualReport, central_difference3, derivative_nonuniform
from gllflow.errors import DomainError, GridError, InstabilityError
from gllflow.evolution import (RESIDUAL_MARGIN, EvolveConfig, RadialField, energy_history,
                               evolve, field_from_profile, great_circle_bump,
                               great_circle_deviation, make_grid, residual,
                               selfsim_consistency)
from gllflow.geometry import (E3, FlowParams, RadialProfile, TangentVec, _second_order_bracket,
                              energy, gll_rhs_arr, harmonic_map_jet, stereo_lift_arr,
                              tangent_project_arr)
from gllflow.hasimoto import QPDE_MARGIN, QPDE_SEED, compute_q, qpde_residual, transport_frame
from gllflow.selfsim import SelfSimProfile, solve_profile
from gllflow.singular_ode import DEFAULT_R0, DenseSolution

HEAT = FlowParams(2, 1.0, 0.0)
SCHRODINGER = FlowParams(2, 0.0, 1.0)
FLOWS = {"heat": (1.0, 0.0), "schrodinger": (0.0, 1.0), "mixed": (0.8, 0.6)}


def _cross_formula(u, u_r, u_rr, r, params):
    """The flow velocity written with np.cross and tangent_project_arr."""
    return _flow_of_bracket(u, _second_order_bracket(u, u_r, u_rr, r, params.n), params)


def _flow_of_bracket(u, b, params):
    """(alpha P_u + beta u x) b with tangent_project_arr and np.cross."""
    out = 0.0
    if params.alpha != 0.0:
        out = params.alpha * tangent_project_arr(u, b)
    if params.beta != 0.0:
        out = out + params.beta * np.cross(u, b)
    return out


class _RowStencils:
    """3-point nonuniform central stencils for u_r and u_rr of an (N, 3) field,
    and the bracket from their per-node fold."""

    def __init__(self, r, n):
        hm = r[1:-1] - r[:-2]
        hp = r[2:] - r[1:-1]
        self.d1_m = -hp / (hm * (hm + hp))
        self.d1_0 = (hp - hm) / (hm * hp)
        self.d1_p = hm / (hp * (hm + hp))
        self.d2_m = 2.0 / (hm * (hm + hp))
        self.d2_0 = -2.0 / (hm * hp)
        self.d2_p = 2.0 / (hp * (hm + hp))
        # b = u_rr + ((2n-1)/r) u_r + ((2n-2+u3)/r^2) e3 as one weight per
        # window point, node and component: u3/r^2 sits on the center weight
        coef1, r2 = (2 * n - 1) / r[1:-1], r[1:-1] ** 2
        self.b_m, self.b_0, self.b_p = (np.tile((d2 + coef1 * d1)[:, None], 3) for d1, d2 in (
            (self.d1_m, self.d2_m), (self.d1_0, self.d2_0), (self.d1_p, self.d2_p)))
        self.b_0[:, 2] += 1.0 / r2
        self.c2 = (2 * n - 2) / r2

    def derivatives(self, u):
        um, u0, up = u[:-2], u[1:-1], u[2:]
        ur = self.d1_m[:, None] * um + self.d1_0[:, None] * u0 + self.d1_p[:, None] * up
        urr = self.d2_m[:, None] * um + self.d2_0[:, None] * u0 + self.d2_p[:, None] * up
        return ur, urr

    def bracket(self, u):
        b = self.b_m * u[:-2] + self.b_0 * u[1:-1] + self.b_p * u[2:]
        b[:, 2] += self.c2
        return b


def _row_major_evolve(field0, params, T, n_steps, config, folded=True):
    """The MOL loop on the (N, 3) field, one stencil pass and one velocity
    call per RK4 stage: the oracle of evolve.  The bracket comes from the
    folded weight row, as evolve takes it, or with folded=False from u_r
    and u_rr apart (the unfolded arithmetic, equal to it up to rounding).
    Returns (frames, max drift) and raises the same InstabilityError."""
    r = field0.r
    op = _RowStencils(r, params.n)
    dt = T / n_steps
    interior = slice(1, r.size - 1)
    u_outer0 = field0.u[-1].copy()

    def rhs(u):
        out = np.zeros_like(u)
        if folded:
            out[interior] = _flow_of_bracket(u[interior], op.bracket(u), params)
        else:
            out[interior] = _cross_formula(u[interior], *op.derivatives(u), r[interior], params)
        return out

    u = field0.u.copy()
    frames = [field0.u]
    max_drift = 0.0
    for step in range(1, n_steps + 1):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * dt * k1)
        k3 = rhs(u + 0.5 * dt * k2)
        k4 = rhs(u + dt * k3)
        u = u + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if config.outer_boundary == "clamp":
            u[-1] = u_outer0
        else:
            u[-1] = u[-2]
        u[0] = E3
        norms = np.linalg.norm(u, axis=1)
        drift = float(np.max(np.abs(norms - 1.0)))
        max_drift = max(max_drift, drift)
        if drift > 1e-6:
            raise InstabilityError("norm drift", diagnostics={
                "drift": drift, "node": int(np.argmax(np.abs(norms - 1.0)))})
        u = u / norms[:, None]
        u[0] = E3
        if step % config.store_every == 0 or step == n_steps:
            frames.append(u.copy())
    return frames, max_drift


def _harmonic_field(r, v=(1.0, 0.0)):
    u, _, _ = harmonic_map_jet(TangentVec(v[0], v[1], 0.0), r)
    return RadialField(r, u)


def _evolve_stereo(f0, r, params, T, dt_factor=0.1, store_every=10**9):
    """Independent chart-coordinate evolution (dual-chart oracle)."""
    h = r[1] - r[0]
    dt = dt_factor * h**2
    n_steps = max(1, int(np.ceil(T / dt - 1e-12)))
    dt = T / n_steps
    n = params.n
    mult = params.alpha + 1j * params.beta
    f = f0.astype(complex).copy()

    def rhs(f):
        out = np.zeros_like(f)
        fr = (f[2:] - f[:-2]) / (2 * h)
        frr = (f[2:] - 2 * f[1:-1] + f[:-2]) / h**2
        rr = r[1:-1]
        fi = f[1:-1]
        d = 1.0 + np.abs(fi) ** 2
        out[1:-1] = mult * (frr - 2 * np.conj(fi) * fr**2 / d + (2 * n - 1) / rr * fr
                            - (2 * n - 1) / rr**2 * fi + 2 * np.abs(fi) ** 2 * fi / (rr**2 * d))
        return out

    for _ in range(n_steps):
        k1 = rhs(f)
        k2 = rhs(f + dt / 2 * k1)
        k3 = rhs(f + dt / 2 * k2)
        k4 = rhs(f + dt * k3)
        f = f + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        f[0] = 0.0
        f[-1] = f0[-1]
    return f


class TestConfigAndTypes:
    def test_grid(self):
        r = make_grid(10.0, 11)
        assert r[0] == 0.0 and r[-1] == 10.0
        g = make_grid(10.0, 11, grading=2.0)
        assert np.all(np.diff(np.diff(g)) > 0)
        with pytest.raises(GridError):
            make_grid(10.0, 3)
        # each used to fail later as "evolution grid starts at r = 0"
        for r_max, grading, named in ((np.nan, 1.0, "r_max"), (-1.0, 1.0, "r_max"),
                                      (10.0, 0.0, "grading"), (10.0, np.nan, "grading"),
                                      (10.0, -1.0, "grading"), (10.0, np.inf, "grading")):
            with pytest.raises(DomainError, match=f"need 0 < {named} < inf"):
                make_grid(r_max, 11, grading=grading)

    def test_field_checks_its_whole_grid(self):
        # the first two used to be accepted, as the check skipped the node r = 0
        for bad, why in (([0.0, -1.0, 2.0, 3.0], "increasing"), ([0.0, 2.0, 1.0], "increasing"),
                         ([-1.0, 0.0, 1.0], "r = -1.0 < 0"), ([1.0, 2.0, 3.0], "starts at r = 0"),
                         ([0.0, 1.0, np.nan], "increasing"), ([0.0], "two nodes")):
            with pytest.raises(GridError, match=why):
                RadialField(bad, np.tile(E3, (len(bad), 1)))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            EvolveConfig(dt_factor=0.3)
        with pytest.raises(DomainError):
            EvolveConfig(outer_boundary="periodic")
        # width 0 used to give a flat field; the rest "field off the unit sphere"
        r = make_grid(8.0, 41)
        for amplitude, center, width, named in (
                (0.5, 3.0, 0.0, "0 < width"), (0.5, 3.0, np.nan, "0 < width"),
                (np.nan, 3.0, 1.0, "finite amplitude"), (-np.inf, 3.0, 1.0, "finite amplitude"),
                (0.5, np.nan, 1.0, "0 < center"), (0.5, np.inf, 1.0, "0 < center"),
                (0.5, 0.0, 1.0, "0 < center")):
            with pytest.raises(DomainError, match=named):
                great_circle_bump(r, amplitude, center, width)

    def test_field_pins_origin(self):
        r = make_grid(5.0, 21)
        u = np.tile(E3, (21, 1))
        f = RadialField(r, u)
        assert np.array_equal(f.u[0], E3)

    def test_field_rejects_bad_norms(self):
        r = make_grid(5.0, 21)
        u = np.tile(E3 * 1.01, (21, 1))
        with pytest.raises(DomainError):
            RadialField(r, u)


    def test_field_rejects_a_nan_node(self, rng):
        r = make_grid(5.0, 21)
        u = np.tile(E3, (21, 1))
        u[rng.integers(21), rng.integers(3)] = np.nan
        with pytest.raises(DomainError):
            RadialField(r, u)


class TestEvolve:
    def test_constant_north_pole(self):
        r = make_grid(8.0, 41)
        f0 = RadialField(r, np.tile(E3, (41, 1)))
        traj = evolve(f0, SCHRODINGER, 0.05, EvolveConfig(store_every=5))
        for fr in traj.frames:
            assert np.array_equal(fr.u, f0.u)
        rep = residual(traj)
        assert rep.max_l2 == 0.0

    @pytest.mark.parametrize("params", [HEAT, SCHRODINGER])
    def test_harmonic_stationarity_second_order(self, params):
        drifts = []
        for N in (51, 101):
            r = make_grid(15.0, N)
            f0 = _harmonic_field(r)
            traj = evolve(f0, params, 0.2, EvolveConfig(store_every=10**9))
            drifts.append(float(np.max(np.linalg.norm(traj.frames[-1].u - f0.u, axis=1))))
        assert drifts[1] <= drifts[0] / 3.0     # ~ dr^2
        dr2 = (15.0 / 100) ** 2
        assert drifts[1] <= 2.0 * dr2           # modest constant

    def test_origin_pinned_and_drift_bounded(self):
        r = make_grid(10.0, 81)
        traj = evolve(great_circle_bump(r, 0.5, 3.0, 1.0), HEAT, 0.05,
                      EvolveConfig(store_every=20))
        assert all(np.array_equal(fr.u[0], E3) for fr in traj.frames)
        assert traj.max_norm_drift <= 1e-6

    def test_instability_aborts_with_diagnostics(self):
        r = make_grid(6.0, 61)
        f0 = great_circle_bump(r, 1.2, 2.0, 0.6)
        with pytest.raises(InstabilityError) as exc:
            evolve(f0, FlowParams(4, 0.0, 1.0), 1.0,
                   EvolveConfig(dt_factor=0.25, store_every=100))
        assert "drift" in exc.value.diagnostics

    @pytest.mark.parametrize("T", [0.0, -0.1, np.nan, np.inf])
    def test_refuses_a_time_outside_zero_to_inf(self, T):
        f0 = RadialField(make_grid(5.0, 21), np.tile(E3, (21, 1)))
        with pytest.raises(DomainError, match="0 < T < inf"):
            evolve(f0, HEAT, T)

    def test_nan_velocity_aborts_at_the_drift_check(self, rng, monkeypatch):
        # a NaN node fails `drift > tol`, and used to evolve on with
        # max_norm_drift 0.0; the check reads `not (drift <= tol)`
        node, row = int(rng.integers(1, 40)), int(rng.integers(3))
        bind_flow_velocity = evolution._flow_velocity

        def poisoned(u, b, alpha, beta, scratch):
            velocity = bind_flow_velocity(u, b, alpha, beta, scratch)

            def poisoned_velocity(out):
                velocity(out)
                out[row, node] = np.nan
            return poisoned_velocity

        monkeypatch.setattr(evolution, "_flow_velocity", poisoned)
        f0 = great_circle_bump(make_grid(8.0, 41), 0.5, 3.0, 1.0)
        with pytest.raises(InstabilityError) as exc:
            evolve(f0, HEAT, 0.01)
        assert np.isnan(exc.value.diagnostics["drift"])
        assert exc.value.diagnostics["t"] == exc.value.diagnostics["dt"]   # the first step

    def test_outer_boundary_policies_differ(self):
        r = make_grid(6.0, 61)
        f0 = great_circle_bump(r, 0.5, 4.5, 1.0)   # bump near the boundary
        t_clamp = evolve(f0, HEAT, 0.05, EvolveConfig(outer_boundary="clamp",
                                                      store_every=10**9))
        t_neu = evolve(f0, HEAT, 0.05, EvolveConfig(outer_boundary="neumann",
                                                    store_every=10**9))
        diff = np.max(np.linalg.norm(t_clamp.frames[-1].u - t_neu.frames[-1].u, axis=1))
        assert diff > 1e-6   # the policies are genuinely different
        assert np.array_equal(t_clamp.frames[-1].u[-1], f0.u[-1])


class TestComponentMajorLoop:
    """evolve steps a (3, N) copy of the field; the (N, 3) loop is its oracle."""

    @staticmethod
    def _assert_frames_equal_the_row_major_loop(flow, n, outer, grading, v0, N=61):
        params = FlowParams(n, *FLOWS[flow])
        r = make_grid(10.0, N, grading=grading)
        f0 = great_circle_bump(r, 0.6, 3.0, 1.0, v0=v0)
        config = EvolveConfig(outer_boundary=outer, store_every=7)
        T = 40 * 0.1 * float(np.min(np.diff(r))) ** 2
        traj = evolve(f0, params, T, config)
        frames, max_drift = _row_major_evolve(f0, params, T, traj.n_steps, config)
        assert traj.n_steps == 40
        assert len(traj.frames) == len(frames) == 7
        for got, want in zip(traj.frames, frames):
            assert got.u.tobytes() == want.tobytes()     # signed zeros included
        assert traj.max_norm_drift == max_drift > 0.0

    @pytest.mark.parametrize("flow", sorted(FLOWS))
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("outer", ["clamp", "neumann"])
    @pytest.mark.parametrize("grading", [1.0, 1.5])
    def test_frames_equal_the_row_major_loop(self, flow, n, outer, grading):
        # off the great circle, so all three components move
        self._assert_frames_equal_the_row_major_loop(flow, n, outer, grading, (1.0, 0.4, 0.0))

    @pytest.mark.parametrize("flow", sorted(FLOWS))
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("outer", ["clamp", "neumann"])
    @pytest.mark.parametrize("grading", [1.0, 1.5])
    def test_frames_equal_the_row_major_loop_with_a_zero_component(self, flow, n, outer,
                                                                   grading):
        # on the great circle u2 starts exactly zero (and stays so under the
        # heat flow), so signed zeros reach the end columns and the boundary
        self._assert_frames_equal_the_row_major_loop(flow, n, outer, grading, (1.0, 0.0, 0.0))

    @pytest.mark.parametrize("flow", sorted(FLOWS))
    @pytest.mark.parametrize("outer", ["clamp", "neumann"])
    @pytest.mark.parametrize("grading", [1.0, 1.5])
    @pytest.mark.parametrize("v0", [(1.0, 0.4, 0.0), (1.0, 0.0, 0.0)])
    def test_frames_equal_the_row_major_loop_on_401_nodes(self, flow, outer, grading, v0):
        # the benchmark's largest grid, with the most window and seam positions
        self._assert_frames_equal_the_row_major_loop(flow, 2, outer, grading, v0, N=401)

    def test_drift_abort_names_the_same_node(self):
        r = make_grid(6.0, 61)
        f0 = great_circle_bump(r, 1.2, 2.0, 0.6)
        params = FlowParams(4, 0.0, 1.0)
        config = EvolveConfig(dt_factor=0.25, store_every=100)
        with pytest.raises(InstabilityError) as exc:
            evolve(f0, params, 1.0, config)
        n_steps = round(1.0 / exc.value.diagnostics["dt"])
        with pytest.raises(InstabilityError) as ref:
            _row_major_evolve(f0, params, 1.0, n_steps, config)
        assert exc.value.diagnostics["node"] == ref.value.diagnostics["node"]
        assert exc.value.diagnostics["drift"] == ref.value.diagnostics["drift"]

    @pytest.mark.parametrize("flow", sorted(FLOWS))
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("outer", ["clamp", "neumann"])
    @pytest.mark.parametrize("grading", [1.0, 1.5])
    def test_folding_the_bracket_moves_frames_only_by_rounding(self, flow, n, outer, grading):
        # the folded row against the separate u_r, u_rr arithmetic
        params = FlowParams(n, *FLOWS[flow])
        r = make_grid(10.0, 61, grading=grading)
        f0 = great_circle_bump(r, 0.6, 3.0, 1.0, v0=(1.0, 0.4, 0.0))
        config = EvolveConfig(outer_boundary=outer, store_every=7)
        T = 40 * 0.1 * float(np.min(np.diff(r))) ** 2
        traj = evolve(f0, params, T, config)
        frames, _ = _row_major_evolve(f0, params, T, traj.n_steps, config, folded=False)
        assert len(traj.frames) == len(frames) == 7
        assert max(np.max(np.abs(got.u - want)) for got, want in zip(traj.frames, frames)) <= 1e-12

    @pytest.mark.parametrize("flow", sorted(FLOWS))
    def test_gll_rhs_arr_equals_the_cross_formula(self, flow, rng):
        params = FlowParams(2, *FLOWS[flow])
        for shape in ((3,), (50, 3)):
            u = rng.normal(size=shape)
            u /= np.linalg.norm(u, axis=-1, keepdims=True)
            u_r, u_rr = rng.normal(size=(2,) + shape)
            r = rng.uniform(0.1, 5.0, size=shape[:-1])
            got = gll_rhs_arr(u, u_r, u_rr, r, params)
            assert got.shape == shape
            assert np.array_equal(got, _cross_formula(u, u_r, u_rr, r, params))

    @pytest.mark.parametrize("N", [201, 401])
    def test_step_count_is_the_one_asked_for(self, N):
        # T = steps * dt_factor * dr^2 with the nominal dr = r_max/(N-1);
        # T/dt overshoots the integer by rounding, as min(np.diff(r)) differs
        rng = np.random.default_rng(N)
        r = make_grid(12.0, N)
        f0 = RadialField(r, np.tile(E3, (N, 1)))
        dr = 12.0 / (N - 1)
        for steps in rng.integers(1, 400, size=12):
            traj = evolve(f0, HEAT, int(steps) * 0.1 * dr * dr, EvolveConfig(store_every=1))
            assert len(traj.frames) == steps + 1
            assert traj.n_steps == steps


class TestResidual:
    def test_needs_three_frames(self):
        r = make_grid(8.0, 41)
        traj = evolve(RadialField(r, np.tile(E3, (41, 1))), HEAT, 0.01,
                      EvolveConfig(store_every=10**9))
        with pytest.raises(DomainError):
            residual(traj)
        with pytest.raises(DomainError):
            qpde_residual(traj, HEAT)

    def test_both_residuals_return_one_report_type(self):
        r = make_grid(8.0, 41)
        traj = evolve(great_circle_bump(r, 0.5, 3.0, 1.0), HEAT, 0.02,
                      EvolveConfig(store_every=1))
        rep, q_rep = residual(traj), qpde_residual(traj, HEAT)
        assert type(rep) is type(q_rep) is ResidualReport
        times, l2, linf = q_rep       # it still unpacks as the bare tuple did
        assert np.array_equal(times, rep.times)
        assert q_rep.max_l2 == float(np.max(l2)) and q_rep.max_linf == float(np.max(linf))

    def test_uneven_last_frame_interval(self):
        # 115 steps stored every 6: the last frame interval is one step, the
        # others six; a centred u_t over the two would be first order there
        params = FlowParams(2, 0.8, 0.6)
        r = make_grid(12.0, 201)
        dr = 12.0 / 200
        traj = evolve(great_circle_bump(r, 0.5, 3.0, 1.0), params, 115 * 0.1 * dr * dr,
                      EvolveConfig(store_every=6))
        gaps = np.diff(traj.times) / traj.dt
        assert gaps[0] == pytest.approx(6.0) and gaps[-1] == pytest.approx(1.0)
        l2 = residual(traj).l2
        assert l2[-1] <= 1.2 * np.median(l2[:-1])
        _, l2_q, _ = qpde_residual(traj, params)
        assert l2_q[-1] <= 1.2 * np.median(l2_q[:-1])

    def test_second_order_self_convergence(self):
        l2s = []
        for N in (81, 161, 321):
            r = make_grid(10.0, N)
            traj = evolve(great_circle_bump(r, 0.5, 3.0, 1.0), HEAT, 0.02,
                          EvolveConfig(store_every=4))
            l2s.append(residual(traj).max_l2)
        orders = [np.log2(a / b) for a, b in zip(l2s[:-1], l2s[1:])]
        assert min(orders) >= 1.8

    def test_dual_chart_oracle(self):
        # evolve the same data in chart coordinates and compare after lift
        diffs = []
        for N in (81, 161):
            r = make_grid(8.0, N)
            f0 = 0.3 * r * np.exp(-((r - 2.5) / 1.2) ** 2)
            field0 = RadialField(r, stereo_lift_arr(f0.astype(complex)))
            traj = evolve(field0, HEAT, 0.05, EvolveConfig(store_every=10**9))
            f_chart = _evolve_stereo(f0, r, HEAT, 0.05)
            u_chart = stereo_lift_arr(f_chart)
            diffs.append(float(np.max(np.linalg.norm(traj.frames[-1].u - u_chart, axis=1))))
        assert diffs[0] <= 5e-3
        assert diffs[1] <= diffs[0] / 2.5


def _oracle_norms(res, r, n, margin):
    sl = slice(margin, r.size - margin)
    mag2 = np.abs(res[sl]) ** 2
    if mag2.ndim > 1:
        mag2 = np.sum(mag2, axis=1)
    l2 = float(np.sqrt(np.trapezoid(mag2 * r[sl] ** (2 * n - 1), r[sl])))
    return l2, float(np.sqrt(np.max(mag2)))


def _per_frame_residual(traj):
    """residual as its own per-frame loop, with the time difference, the
    margin and the weighted norms written out: the oracle of the shared
    frame_rates / weighted_norms path."""
    frames, r, params = traj.frames, traj.r, traj.params
    rows = []
    for k in range(1, len(frames) - 1):
        u_t = central_difference3(frames[k - 1].u, frames[k].u, frames[k + 1].u,
                                  frames[k].t - frames[k - 1].t, frames[k + 1].t - frames[k].t)
        u = frames[k].u
        ur = derivative_nonuniform(r, u, order=1)
        urr = derivative_nonuniform(r, u, order=2)
        rhs = np.zeros_like(u)
        rhs[1:] = gll_rhs_arr(u[1:], ur[1:], urr[1:], r[1:], params)
        rows.append((frames[k].t,) + _oracle_norms(u_t - rhs, r, params.n, RESIDUAL_MARGIN))
    return tuple(np.array(c) for c in zip(*rows))


def _per_frame_qpde(traj, params):
    """qpde_residual as its own per-frame loop (the oracle, as above)."""
    frames, r = traj.frames, traj.r
    qfields = [compute_q(r, f.u, transport_frame(r, f.u, QPDE_SEED), params) for f in frames]
    rows = []
    for k in range(1, len(frames) - 1):
        q_t = central_difference3(qfields[k - 1].q, qfields[k].q, qfields[k + 1].q,
                                  frames[k].t - frames[k - 1].t, frames[k + 1].t - frames[k].t)
        qf = qfields[k]
        V_r = derivative_nonuniform(r, qf.V, order=1)
        res = q_t - (params.alpha + 1j * params.beta) * V_r + 1j * qf.alpha_g * qf.q
        rows.append((frames[k].t,) + _oracle_norms(res, r, params.n, QPDE_MARGIN))
    return tuple(np.array(c) for c in zip(*rows))


# (MOL steps, store_every, stored frame gaps in steps)
STORE_CASES = {
    "even": (24, 4, [4] * 6),
    "uneven_last": (23, 6, [6, 6, 6, 5]),
    "three_frames": (10, 5, [5, 5]),
    "three_frames_uneven": (7, 5, [5, 2]),
}


class TestPerFrameOracle:
    @pytest.mark.parametrize("store", sorted(STORE_CASES))
    @pytest.mark.parametrize("flow", sorted(FLOWS))
    def test_residuals_equal_the_per_frame_loops(self, flow, store):
        params = FlowParams(2, *FLOWS[flow])
        steps, store_every, gaps = STORE_CASES[store]
        r = make_grid(8.0, 81)
        dr = 8.0 / 80
        f0 = RadialField(r, stereo_lift_arr((0.25 * r * np.exp(-(r**2) / 4.0)).astype(complex)))
        traj = evolve(f0, params, steps * 0.1 * dr * dr, EvolveConfig(store_every=store_every))
        assert np.round(np.diff(traj.times) / traj.dt).tolist() == gaps
        rep = residual(traj)
        times, l2, linf = _per_frame_residual(traj)
        assert len(times) == len(gaps) - 1 and np.all(l2 > 0.0)
        assert np.array_equal(rep.times, times)
        assert np.array_equal(rep.l2, l2)
        assert np.array_equal(rep.linf, linf)
        got = qpde_residual(traj, params)
        want = _per_frame_qpde(traj, params)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class TestGreatCircle:
    def test_trivial(self):
        r = make_grid(8.0, 41)
        traj = evolve(RadialField(r, np.tile(E3, (41, 1))), SCHRODINGER, 0.02,
                      EvolveConfig(store_every=10))
        assert great_circle_deviation(traj, (1.0, 0.0, 0.0)) == 0.0

    def test_heat_flow_preserves_circle(self):
        r = make_grid(10.0, 121)
        traj = evolve(great_circle_bump(r, 0.5, 3.0, 1.0), HEAT, 0.1,
                      EvolveConfig(store_every=50))
        assert great_circle_deviation(traj, (1.0, 0.0, 0.0)) <= 1e-8

    def test_schrodinger_leaves_circle(self):
        r = make_grid(10.0, 121)
        traj = evolve(great_circle_bump(r, 0.5, 3.0, 1.0), SCHRODINGER, 0.1,
                      EvolveConfig(store_every=50))
        assert great_circle_deviation(traj, (1.0, 0.0, 0.0)) >= 1e-3

    def test_rejects_parallel_axis(self):
        r = make_grid(8.0, 41)
        traj = evolve(RadialField(r, np.tile(E3, (41, 1))), HEAT, 0.01,
                      EvolveConfig(store_every=10))
        with pytest.raises(DomainError):
            great_circle_deviation(traj, (0.0, 0.0, 1.0))


class TestEnergyMonotonicity:
    def test_heat_flow_dissipates(self):
        r = make_grid(10.0, 101)
        traj = evolve(great_circle_bump(r, 0.6, 3.0, 1.0), HEAT, 0.1,
                      EvolveConfig(store_every=20))
        E = energy_history(traj)
        assert np.all(np.diff(E) <= 1e-6)

    def test_stacked_frames_give_the_per_frame_energies(self):
        r = make_grid(10.0, 81, grading=1.5)
        traj = evolve(great_circle_bump(r, 0.6, 3.0, 1.0, v0=(1.0, 0.4, 0.0)),
                      FlowParams(3, 0.8, 0.6), 0.05, EvolveConfig(store_every=25))
        want = [energy(RadialProfile(r, f.u, derivative_nonuniform(r, f.u, order=1)), 3)
                for f in traj.frames]
        assert len(want) > 3
        assert energy_history(traj).tobytes() == np.array(want).tobytes()


class TestSelfsimConsistency:
    def test_trivial_profile(self):
        # v = 0 takes the one integrator path: psi = e3 exactly from the
        # series start at DEFAULT_R0, on the steps the radial cap lets grow
        prof = solve_profile((0.0, 0.0), HEAT, 15.0)
        assert prof.r[0] == DEFAULT_R0
        assert np.array_equal(prof.psi, np.tile(E3, (prof.r.size, 1)))
        assert np.max(np.abs(prof.psi_r)) == 0.0
        assert prof.sol.steps_accepted == prof.r.size - 1 > 0
        l2, linf = selfsim_consistency(prof, 1.0, HEAT)
        assert l2 == 0.0 and linf == 0.0

    @pytest.mark.parametrize("t", [0.0, -1.0, np.nan, np.inf])
    def test_refuses_a_time_outside_zero_to_inf(self, t):
        # NaN used to return (nan, nan)
        prof = solve_profile((0.0, 0.0), HEAT, 15.0)
        with pytest.raises(DomainError, match=f"need 0 < t < inf, got {t!r}"):
            selfsim_consistency(prof, t, HEAT)
        with pytest.raises(DomainError, match=f"need 0 < t0 < inf, got {t!r}"):
            field_from_profile(prof, make_grid(5.0, 11), t)

    def test_heat_profile_residual_small(self):
        prof = solve_profile((1.0, 0.0), HEAT, 25.0, max_step=0.05)
        l2, linf = selfsim_consistency(prof, 1.0, HEAT)
        assert l2 <= 1e-6

    def test_residual_reads_only_the_node_values(self):
        # psi_rr comes from the stored psi_r alone: the solver's derivatives
        # and dense rows do not enter it, and nodes moved off the ODE show
        prof = solve_profile((1.0, 0.0), HEAT, 25.0, max_step=0.05)
        sol = prof.sol
        blind = SelfSimProfile(DenseSolution.from_nodes(sol.r, sol.y, np.zeros_like(sol.f)),
                               HEAT)
        assert selfsim_consistency(blind, 1.0, HEAT) == selfsim_consistency(prof, 1.0, HEAT)
        y = sol.y.copy()
        e1 = np.array([1.0, 0.0, 0.0])
        tangent = e1 - (y[:, :3] @ e1)[:, None] * y[:, :3]
        y[:, 3:] += 1e-6 * np.sin(sol.r)[:, None] * tangent
        moved = SelfSimProfile(sol._replace(y=y), HEAT)
        assert selfsim_consistency(moved, 1.0, HEAT)[0] >= 1e-4

    def test_time_rescaling_identity(self):
        prof = solve_profile((1.0, 0.0), HEAT, 15.0, max_step=0.1)
        l2_1, _ = selfsim_consistency(prof, 1.0, HEAT)
        l2_4, _ = selfsim_consistency(prof, 4.0, HEAT)
        assert abs(4.0 * l2_4 - l2_1) <= 1e-12 * max(1.0, l2_1)

    def test_refinement_shrinks_residual(self):
        # tightening the tolerance refines the profile grid and the
        # substitution residual drops at the differentiation order
        l2s = []
        for tol in (1e-6, 1e-8, 1e-10):
            p = solve_profile((1.0, 0.0), HEAT, 15.0, rel_tol=tol)
            l2s.append(selfsim_consistency(p, 1.0, HEAT)[0])
        assert l2s[0] > 5 * l2s[1] > 25 * l2s[2]

    def test_tracking_the_rescaled_profile(self):
        # start the PDE from psi(r/sqrt(1)); at t = 1.5 it must match
        # psi(r/sqrt(1.5)) to second order in the grid spacing
        prof = solve_profile((1.0, 0.0), HEAT, 40.0)
        errs = []
        for N in (101, 201):
            r = make_grid(25.0, N)
            field0 = field_from_profile(prof, r, 1.0)
            traj = evolve(field0, HEAT, 0.5, EvolveConfig(store_every=10**9))
            target = field_from_profile(prof, r, 1.5)
            errs.append(float(np.max(np.linalg.norm(traj.frames[-1].u - target.u, axis=1))))
        assert errs[1] <= errs[0] / 3.0
        assert errs[1] <= 2.0 * (25.0 / 200) ** 2

    @pytest.mark.parametrize("flow, n, T", [("heat", 2, 0.5), ("heat", 3, 0.5), ("mixed", 2, 0.5),
                                            ("mixed", 3, 0.5), ("schrodinger", 2, 0.1)])
    def test_second_order_against_the_exact_solution(self, flow, n, T):
        # u(t, r) = psi(r/sqrt(t)) from t = 1, on r <= 12: away from the
        # outer node, which is not the exact solution's
        params = FlowParams(n, *FLOWS[flow])
        prof = solve_profile((1.0, 0.0), params, 25.0)
        errs = []
        for N in (201, 401):
            r = make_grid(25.0, N)
            traj = evolve(field_from_profile(prof, r, 1.0), params, T,
                          EvolveConfig(dt_factor=0.05, outer_boundary="neumann",
                                       store_every=10**9))
            target = field_from_profile(prof, r, 1.0 + T)
            near = r <= 12.0
            errs.append(float(np.max(np.linalg.norm(traj.frames[-1].u[near] - target.u[near],
                                                    axis=1))))
        assert np.log2(errs[0] / errs[1]) >= 1.8

    def test_nodes_below_the_start_read_its_series(self):
        # the start sits at 1e-2 (|v| = 1); a 1.5-graded 801-node grid puts
        # four nodes below it, where psi(1e-2) in their place stood 1.8e-2
        # off.  They read the lifted chart series, as the profile started
        # at 1e-4 (tol 1e-9) reads them from its nodes
        prof = solve_profile((1.0, 0.0), HEAT, 26.0)
        ref = solve_profile((1.0, 0.0), HEAT, 26.0, rel_tol=1e-9)
        assert prof.r[0] == 1e-2 and ref.r[0] == DEFAULT_R0
        r = make_grid(25.0, 801, grading=1.5)
        assert np.count_nonzero((r > 0.0) & (r < 1e-2)) == 4
        field, want = field_from_profile(prof, r, 1.0), field_from_profile(ref, r, 1.0)
        assert np.max(np.abs(field.u[:6] - want.u[:6])) <= 1e-15
        assert np.max(np.abs(field.u - want.u)) <= 1e-9

    def test_sampling_beyond_the_profile_raises(self):
        prof = solve_profile((1.0, 0.0), HEAT, 10.0)
        r = make_grid(25.0, 101)
        with pytest.raises(DomainError, match=r"60 grid nodes .* rho up to 25\.0 "):
            field_from_profile(prof, r, 1.0)
        # at t0 = 6.25 the grid reaches rho = 10, the profile's last node
        field = field_from_profile(prof, r, 6.25)
        assert np.array_equal(field.u[0], E3)
        assert np.allclose(field.u[-1], prof.psi[-1], atol=1e-12)


# a short evolve of three flows at n = 2 and 3, off the great circle; prints
# the SHA-256 of every frame's bytes
_FRAMES_DIGEST = """
import hashlib
import numpy as np
from gllflow.evolution import EvolveConfig, evolve, great_circle_bump, make_grid
from gllflow.geometry import FlowParams
h = hashlib.sha256()
r = make_grid(10.0, 61)
f0 = great_circle_bump(r, 0.6, 3.0, 1.0, v0=(1.0, 0.4, 0.0))
T = 40 * 0.1 * float(np.min(np.diff(r))) ** 2
for alpha, beta in ((1.0, 0.0), (0.0, 1.0), (0.8, 0.6)):
    for n in (2, 3):
        for f in evolve(f0, FlowParams(n, alpha, beta), T, EvolveConfig(store_every=7)).frames:
            h.update(f.u.tobytes())
print(h.hexdigest())
"""


class TestBlasKernel:
    def test_frames_do_not_depend_on_the_openblas_kernel(self):
        # a BLAS dot (np.linalg.norm of a vector) rounds by the kernel
        # OpenBLAS picks for the CPU; the evolve path must not contain one
        digests = digests_by_openblas_kernel(_FRAMES_DIGEST)
        assert len(set(digests.values())) == 1, digests
