import numpy as np
import pytest
from scipy.integrate import solve_ivp

import gllflow.selfsim as selfsim
from gllflow.errors import DomainError, NonConvergedError, NormDriftError
from gllflow.geometry import E3, REPAIR_TOL, FlowParams, TangentVec, harmonic_map_jet
from gllflow.selfsim import (SelfSimProfile, apriori_identity_residual, decay_exponent,
                             limit_map_continuity, solve_profile,
                             sphere_profile_rhs, stereo_selfsim_ivp, tail_limit)
from gllflow.singular_ode import DenseSolution, series_start
from gllflow.geometry import stereo_lift_arr, stereo_lift_differential
from conftest import solution_content, solve_from_origin

# frozen by cross-validating the package integrator against an independent
# higher-order solver (see test_agrees_with_independent_integrator)
PSI_AT_ONE = {
    (2, 1.0, 0.0): np.array([0.9988464031, 0.0, 0.0480194019]),
    (2, 0.0, 1.0): np.array([0.9987504977, 0.0499431887, 0.0017667283]),
    (3, 1.0, 0.0): np.array([0.9993904618, 0.0, 0.0349099458]),
}
PSI_INF_SCHRODINGER_200 = np.array([0.57915178, 0.48500349, -0.65525173])


def _independent_profile(v, params, r_max, rtol=1e-12):
    """Same chart start, independent DOP853 (order 8) on the sphere system."""
    ivp = stereo_selfsim_ivp(v, params)
    r0 = 1e-4
    F0, Fp0 = series_start(ivp, r0)
    y0 = np.concatenate([stereo_lift_arr(F0), stereo_lift_differential(F0, Fp0)])
    fun = sphere_profile_rhs(params)
    return solve_ivp(lambda rr, yy: fun(rr, yy), (r0, r_max), y0, rtol=rtol,
                     atol=1e-14, dense_output=True, method="DOP853")


def _numpy_scalar_rhs(params):
    """sphere_profile_rhs as it was with numpy-scalar unpacking (reference)."""
    n, al, be = params.n, params.alpha, params.beta
    c_n1 = 2 * n - 1
    c_n2 = 2 * n - 2

    def fun(r, y):
        p1, p2, p3, d1, d2, d3 = y
        dd = d1 * d1 + d2 * d2 + d3 * d3
        c1 = c_n1 / r
        c2 = (c_n2 + p3) / (r * r)
        e1 = -p3 * p1
        e2 = -p3 * p2
        e3c = 1.0 - p3 * p3
        x1 = p2 * d3 - p3 * d2
        x2 = p3 * d1 - p1 * d3
        x3 = p1 * d2 - p2 * d1
        half_r = 0.5 * r
        a1 = -dd * p1 - c1 * d1 - c2 * e1 - half_r * (al * d1 - be * x1)
        a2 = -dd * p2 - c1 * d2 - c2 * e2 - half_r * (al * d2 - be * x2)
        a3 = -dd * p3 - c1 * d3 - c2 * e3c - half_r * (al * d3 - be * x3)
        return np.array([d1, d2, d3, a1, a2, a3])

    return fun


def test_float_unpacked_rhs_is_bit_identical(rng):
    # Python floats and numpy scalars do the same float64 operations in the
    # same order, so unpacking with tolist() changes no bit of the rhs
    for _ in range(200):
        theta = rng.uniform(-np.pi / 2, np.pi / 2)
        params = FlowParams(int(rng.integers(2, 5)), np.cos(theta), np.sin(theta))
        psi = rng.normal(size=3)
        y = np.concatenate([psi / np.linalg.norm(psi), rng.normal(scale=3.0, size=3)])
        r = float(np.exp(rng.uniform(np.log(1e-4), np.log(200.0))))
        got = sphere_profile_rhs(params)(r, y)
        assert np.array_equal(got, _numpy_scalar_rhs(params)(r, y))
        assert np.array_equal(got, _numpy_scalar_rhs(params)(np.float64(r), y))


def _numpy_project_state(r, y):
    """selfsim._project_state as it was on numpy 3-vectors (reference)."""
    psi = y[:3]
    nrm = float(np.sqrt(psi @ psi))
    if abs(nrm - 1.0) > REPAIR_TOL:
        raise NormDriftError(f"profile left the sphere at r={r}")
    psi = psi / nrm
    d = y[3:]
    d = d - (d @ psi) * psi
    return np.concatenate([psi, d])


# (v, params, r_max, rel_tol): heat, Schroedinger at the alpha = 0 default
# tolerance, and a mixed n = 3 flow
THREE_PROFILES = [((1.0, 0.0), FlowParams(2, 1.0, 0.0), 40.0, 1e-10),
                  ((1.0, 0.0), FlowParams(2, 0.0, 1.0), 60.0, 1e-12),
                  ((0.6, 0.8), FlowParams(3, 0.6, 0.8), 40.0, 1e-10)]


class TestProjectState:
    def test_float_projection_matches_numpy(self):
        # the unit vector to 1 ulp; the tangent part to 4 ulp at the scale of
        # the psi_r it is projected from (numpy's 3-vector dot product rounds
        # differently from a + b + c, and the projection cancels up to |psi_r|)
        rng = np.random.default_rng(12)
        eps = np.finfo(float).eps
        for _ in range(10_000):
            psi = rng.normal(size=3)
            psi *= (1.0 + rng.uniform(-1e-9, 1e-9)) / np.linalg.norm(psi)
            y = np.concatenate([psi, rng.normal(scale=3.0, size=3)])
            got, want = selfsim._project_state(1.0, y), _numpy_project_state(1.0, y)
            assert np.max(np.abs(got[:3] - want[:3])) <= eps
            assert np.max(np.abs(got[3:] - want[3:])) <= 4 * eps * np.linalg.norm(y[3:])

    def test_drift_beyond_repair_raises(self):
        y = np.array([0.0, 0.0, 1.0 + 2 * REPAIR_TOL, 0.0, 0.0, 0.0])
        with pytest.raises(NormDriftError):
            selfsim._project_state(3.0, y)

    @pytest.mark.parametrize("case", range(3))
    def test_step_counts_and_limits_match_numpy(self, case, monkeypatch):
        v, params, r_max, tol = THREE_PROFILES[case]
        mine = solve_profile(v, params, r_max, rel_tol=tol)
        monkeypatch.setattr(selfsim, "_project_state", _numpy_project_state)
        ref = solve_profile(v, params, r_max, rel_tol=tol)
        # rounding moves a few steps at tol 1e-12, never the limit
        assert abs(mine.sol.steps_accepted - ref.sol.steps_accepted) <= 0.01 * ref.r.size
        assert np.max(np.abs(mine.psi[-1] - ref.psi[-1])) <= tol


class TestSolveProfile:
    def test_trivial_data(self):
        prof = solve_profile((0.0, 0.0), FlowParams(2, 1.0, 0.0), 10.0)
        assert np.array_equal(prof.psi, np.tile(E3, (prof.r.size, 1)))
        assert np.max(np.abs(prof.psi_r)) == 0.0

    def test_requires_tangent_data(self):
        with pytest.raises(DomainError):
            solve_profile((1.0, 0.0, 0.5), FlowParams(2, 1.0, 0.0), 10.0)
        with pytest.raises(DomainError):
            solve_profile((1.0, 0.0), FlowParams(1, 1.0, 0.0), 10.0)

    def test_heat_flow_bound(self):
        prof = solve_profile((1.0, 0.0), FlowParams(2, 1.0, 0.0), 30.0)
        assert prof.A.max() <= 8.0 + 1e-6

    @pytest.mark.parametrize("key", sorted(PSI_AT_ONE))
    def test_regression_at_unit_radius(self, key):
        n, al, be = key
        prof = solve_profile((1.0, 0.0), FlowParams(n, al, be), 3.0)
        psi1, _ = prof.eval(np.array([1.0]))
        assert np.max(np.abs(psi1[0] - PSI_AT_ONE[key])) <= 2e-9

    def test_agrees_with_independent_integrator(self):
        # two integrators of different order must agree to 1e-8 at r = 1
        params = FlowParams(2, 0.0, 1.0)
        prof = solve_profile((1.0, 0.0), params, 3.0)
        ref = _independent_profile((1.0, 0.0), params, 3.0)
        mine, _ = prof.eval(np.array([1.0]))
        theirs = ref.sol(1.0)[:3]
        assert np.max(np.abs(mine[0] - theirs)) <= 1e-8

    def test_sphere_form_matches_chart_form(self):
        # integrate the profile entirely in the stereographic chart (an
        # algebraically independent formulation of the same ODE) and lift;
        # valid while the profile stays away from the south pole
        params = FlowParams(2, 0.0, 1.0)
        prof = solve_profile((1.0, 0.0), params, 3.0)
        ivp = stereo_selfsim_ivp((1.0, 0.0), params)
        chart = solve_from_origin(ivp, 3.0, 1e-11)
        for rv in (0.5, 1.0, 2.0, 3.0):
            F = chart.eval(np.array([rv]))[:, 0]
            lifted = stereo_lift_arr(F[0])
            mine, _ = prof.eval(np.array([rv]))
            assert np.max(np.abs(mine[0] - lifted)) <= 1e-8, rv

    def test_chart_series_matches_a_sympy_series_solution(self):
        # F and conj(F) as independent series G: the chart ODE is then
        # rational in both, and its r^1 coefficient fixes c3
        import sympy as sp

        r, n = sp.symbols("r n", positive=True)
        al, be = sp.symbols("alpha beta", real=True)
        a, ab, c, cb = sp.symbols("a abar c cbar")
        F, G = a * r + c * r**3, ab * r + cb * r**3
        Fp = sp.diff(F, r)
        res = (sp.diff(F, r, 2) + (2 * n - 1) * (Fp / r - F / r**2) - 2 * G * Fp**2 / (1 + G * F)
               + 2 * G * F**2 / (r**2 * (1 + G * F)) + (al - sp.I * be) * (r / 2) * Fp)
        exact = sp.solve(sp.expand(sp.series(res, r, 0, 2).removeO()).coeff(r, 1), c)[0]
        for nn in (2, 3, 4, 5):
            for theta in (0.0, 0.7, -1.1, np.pi / 2, -np.pi / 2):
                params = FlowParams(nn, np.cos(theta), np.sin(theta))
                for v in ((1.0, 0.0), (0.3, -2.0), (-1.7, 0.4)):
                    got, = stereo_selfsim_ivp(v, params).series
                    want = complex(exact.subs({a: sp.Float(v[0]) + sp.I * sp.Float(v[1]), n: nn,
                                               al: sp.Float(params.alpha),
                                               be: sp.Float(params.beta)}).evalf(30))
                    assert abs(got - want) <= 1e-14 * abs(want), (nn, theta, v)

    def test_unit_norm_everywhere(self):
        prof = solve_profile((0.5, 0.5), FlowParams(2, 0.0, 1.0), 15.0)
        assert np.max(np.abs(np.linalg.norm(prof.psi, axis=1) - 1.0)) <= 1e-10

    @pytest.mark.parametrize("case", range(3))
    def test_limit_against_scipy_dop853(self, case):
        # psi(r_max) within 10 times the tolerance of scipy DOP853 at rtol
        # 1e-13.  The Schroedinger profile runs at 1e-10 here: at r = 60 that
        # oracle itself moves by 2e-10 between rtol 1e-13 and 2.2e-14.
        v, params, r_max, tol = THREE_PROFILES[case]
        tol = max(tol, 1e-10)
        prof = solve_profile(v, params, r_max, rel_tol=tol)
        ref = _independent_profile(v, params, r_max, rtol=1e-13)
        assert np.max(np.abs(prof.psi[-1] - ref.y[:3, -1])) <= 10 * tol

    def test_reruns_are_bit_identical(self):
        a = solve_profile((0.6, 0.8), FlowParams(3, 0.6, 0.8), 20.0)
        b = solve_profile((0.6, 0.8), FlowParams(3, 0.6, 0.8), 20.0)
        for x, y in zip(solution_content(a.sol), solution_content(b.sol)):
            assert np.array_equal(x, y)

    def test_rotation_equivariance(self):
        theta = 0.7
        R = np.array([[np.cos(theta), -np.sin(theta), 0.0],
                      [np.sin(theta), np.cos(theta), 0.0],
                      [0.0, 0.0, 1.0]])
        params = FlowParams(2, 0.0, 1.0)
        p1 = solve_profile((1.0, 0.0), params, 12.0)
        p2 = solve_profile(R[:2, :2] @ np.array([1.0, 0.0]), params, 12.0)
        q = np.array([2.0, 5.0, 11.0])
        a1, _ = p1.eval(q)
        a2, _ = p2.eval(q)
        assert np.max(np.abs(a1 @ R.T - a2)) <= 1e-10


class TestAprioriIdentity:
    def test_vanishes_at_origin(self):
        prof = solve_profile((1.0, 0.0), FlowParams(2, 1.0, 0.0), 5.0)
        rr = np.array([prof.r[0]])
        psi, dpsi = prof.eval(rr)
        A0 = float(rr[0] ** 2 * np.sum(dpsi**2))
        bracket0 = 2 * (2 * 2 - 2) * (1 - psi[0, 2]) + (1 - psi[0, 2] ** 2)
        assert A0 <= 1e-6 and bracket0 <= 1e-6

    def test_residual_small_on_true_solutions(self):
        prof = solve_profile((1.0, 0.0), FlowParams(2, 1.0, 0.0), 21.0)
        assert apriori_identity_residual(prof, r_stop=20.0) <= 1e-6

    def test_bracket_strictly_positive_off_trivial(self):
        prof = solve_profile((1.0, 0.0), FlowParams(2, 1.0, 0.0), 21.0)
        bracket = 2 * (2 * 2 - 2) * (1 - prof.psi[:, 2]) + (1 - prof.psi[:, 2] ** 2)
        assert np.min(bracket) > 0.0
        assert np.min(np.linalg.norm(prof.psi - E3, axis=1)) > 0.0


class TestDecay:
    def test_dissipative_tail_cubic(self):
        prof = solve_profile((1.0, 0.0), FlowParams(2, 1.0, 0.0), 42.0)
        fit = decay_exponent(prof, (10.0, 40.0))
        assert fit.slope <= -2.8

    def test_schrodinger_scaled_derivative_decreases(self):
        prof = solve_profile((1.0, 0.0), FlowParams(2, 0.0, 1.0), 42.0)
        vals = []
        for rv in (10.0, 20.0, 40.0):
            _, d = prof.eval(np.array([rv]))
            vals.append(rv * np.linalg.norm(d[0]))
        assert vals[0] > vals[1] > vals[2]

    def test_harmonic_map_negative_control(self):
        # a stationary profile is not self-similar; its derivative decays
        # like 1/r^2, giving log-log slope -2
        r = np.geomspace(10.0, 40.0, 200)
        _, u_r, _ = harmonic_map_jet(TangentVec(1.0, 0.0, 0.0), r)
        slope = np.polyfit(np.log(r), np.log(np.linalg.norm(u_r, axis=1)), 1)[0]
        assert -2.05 <= slope <= -1.95

    def test_underflow_flag(self):
        prof = solve_profile((0.0, 0.0), FlowParams(2, 1.0, 0.0), 20.0)
        fit = decay_exponent(prof, (10.0, 19.0))
        assert fit.underflow

    def test_narrow_window_rejected(self):
        prof = solve_profile((1.0, 0.0), FlowParams(2, 1.0, 0.0), 20.0)
        with pytest.raises(DomainError):
            decay_exponent(prof, (19.99, 20.0))


class TestTailLimit:
    def test_trivial_limit(self):
        prof = solve_profile((0.0, 0.0), FlowParams(2, 1.0, 0.0), 20.0)
        rep = tail_limit(prof)
        assert np.allclose(rep.psi_inf.array, E3)

    def test_rate_self_check(self):
        prof = solve_profile((1.0, 0.0), FlowParams(2, 1.0, 0.0), 40.0)
        rep = tail_limit(prof)
        assert rep.observed_gap <= rep.rate_bound
        assert rep.rate_bound == 40.0 * 4 / (20.0**2)

    def test_limit_bracket_exceeds_identity_integral(self):
        prof = solve_profile((1.0, 0.0), FlowParams(2, 1.0, 0.0), 40.0)
        _, _, integral = selfsim._identity_terms(prof, np.linspace(prof.r[0], 1.0, 2000))
        delta = float(integral[-1])
        p3 = prof.psi[-1, 2]
        bracket = 2 * (2 * 2 - 2) * (1 - p3) + (1 - p3**2)
        assert delta > 0.0
        assert bracket >= delta

    def test_needs_long_profile(self):
        prof = solve_profile((1.0, 0.0), FlowParams(2, 1.0, 0.0), 5.0)
        with pytest.raises(DomainError):
            tail_limit(prof)

    def test_nonconverged_raises(self):
        # an artificial profile that keeps rotating never satisfies the bound
        r = np.linspace(1e-3, 24.0, 400)
        psi = np.stack([np.sin(r), np.zeros_like(r), np.cos(r)], axis=1)
        dpsi = np.stack([np.cos(r), np.zeros_like(r), -np.sin(r)], axis=1)
        ddpsi = np.stack([-np.sin(r), np.zeros_like(r), -np.cos(r)], axis=1)
        sol = DenseSolution.from_nodes(r, np.hstack([psi, dpsi]), np.hstack([dpsi, ddpsi]))
        prof = SelfSimProfile(sol, FlowParams(1, 1.0, 0.0))
        with pytest.raises(NonConvergedError):
            tail_limit(prof)

    def test_schrodinger_long_run_regression(self):
        # independent-solver value, frozen to four digits
        prof = solve_profile((1.0, 0.0), FlowParams(2, 0.0, 1.0), 200.0, rel_tol=1e-8)
        assert np.max(np.abs(prof.psi[-1] - PSI_INF_SCHRODINGER_200)) <= 1e-4
        rep = tail_limit(prof)
        assert rep.observed_gap <= rep.rate_bound

    def test_schrodinger_step_count_tripwire(self):
        # a deterministic count, not a timing: DOP853 takes about 17,400
        # accepted steps here, a 5th-order pair on the same rhs about 100,000
        prof = solve_profile((1.0, 0.0), FlowParams(2, 0.0, 1.0), 200.0, rel_tol=1e-12)
        assert prof.sol.steps_accepted <= 20_000

    def test_json_round_trip(self):
        import json
        prof = solve_profile((1.0, 0.0), FlowParams(2, 1.0, 0.0), 24.0)
        doc = json.loads(tail_limit(prof).to_json())
        assert doc["schema"] == "gllflow.tail_report/1"
        assert doc["params"]["n"] == 2
        assert len(doc["psi_inf"]) == 3


class TestContinuity:
    def test_limits_shrink_with_data(self):
        params = FlowParams(2, 1.0, 0.0)
        rows, modulus = limit_map_continuity(
            [(s, 0.0) for s in (1.0, 0.5, 0.25, 0.125)], params, 30.0, rel_tol=1e-9)
        gaps = [row["gap_to_e3"] for row in rows]
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3] > 0.0
        assert np.isfinite(modulus)

    def test_trivial_entry_exact(self):
        rows, _ = limit_map_continuity([(0.0, 0.0)], FlowParams(2, 1.0, 0.0), 15.0)
        assert rows[0]["gap_to_e3"] == 0.0

    def test_nearby_data_nearby_limits(self):
        params = FlowParams(2, 1.0, 0.0)
        rows, _ = limit_map_continuity([(1.0, 0.0), (1.001, 0.0)], params, 30.0,
                                       rel_tol=1e-9)
        gap = np.linalg.norm(rows[0]["psi_inf"] - rows[1]["psi_inf"])
        assert gap <= 0.1


class TestSerialization:
    def test_csv_columns(self, tmp_path):
        prof = solve_profile((1.0, 0.0), FlowParams(2, 1.0, 0.0), 5.0)
        path = tmp_path / "profile.csv"
        prof.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "r,psi1,psi2,psi3,psi_r_norm,A"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape[1] == 6
        assert np.allclose(data[:, 5], prof.A)

    def test_invariant_validation(self):
        r = np.linspace(0.1, 5.0, 50)
        psi = np.tile(E3 * 1.001, (50, 1))
        with pytest.raises(NormDriftError):
            y = np.hstack([psi, np.zeros((50, 3))])
            SelfSimProfile(DenseSolution.from_nodes(r, y, np.zeros_like(y)),
                           FlowParams(2, 1.0, 0.0))

    @staticmethod
    def _rotating(k):
        """Nodes of psi = (sin kr, 0, cos kr), on the sphere with A(r) = (kr)^2."""
        r = np.linspace(0.1, 5.0, 50)
        psi = np.stack([np.sin(k * r), np.zeros_like(r), np.cos(k * r)], axis=1)
        dpsi = k * np.stack([np.cos(k * r), np.zeros_like(r), -np.sin(k * r)], axis=1)
        return r, np.hstack([psi, dpsi])

    def test_refuses_A_above_the_bound(self):
        r, y = self._rotating(0.5)    # A reaches 6.25 <= 8: accepted
        SelfSimProfile(DenseSolution.from_nodes(r, y, np.zeros_like(y)), FlowParams(2, 1.0, 0.0))
        r, y = self._rotating(1.0)    # A reaches 25 > derivative_energy_bound(2)
        with pytest.raises(NormDriftError, match="derivative invariant"):
            SelfSimProfile(DenseSolution.from_nodes(r, y, np.zeros_like(y)),
                           FlowParams(2, 1.0, 0.0))

    @pytest.mark.parametrize("columns", [slice(None), slice(3, None)], ids=["row", "psi_r"])
    def test_refuses_a_nan_row(self, columns):
        r, y = self._rotating(0.5)
        y[20, columns] = np.nan
        with pytest.raises(NormDriftError):
            SelfSimProfile(DenseSolution.from_nodes(r, y, np.zeros_like(y)),
                           FlowParams(2, 1.0, 0.0))
