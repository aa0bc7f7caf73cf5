import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import DOP853, quad, solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.integrate._ivp.rk import Dop853DenseOutput

from gllflow import _dop853 as dop
from gllflow import singular_ode
from gllflow._numerics import hermite_eval
from gllflow.errors import DomainError, GridError, NonFiniteError, StiffnessError
from gllflow.realflow import _selfsim_rhs, real_selfsim_ivp
from gllflow.geometry import FlowParams
from gllflow.selfsim import solve_profile, stereo_selfsim_ivp
from gllflow.singular_ode import (DEFAULT_R0, ERROR_FLOOR, RADIAL_STEP, ROUNDING_TOL,
                                  DenseSolution, ProfileGrid, SingularIVP, _error_norm,
                                  _initial_step, hardy_check, hardy_ratio_raw,
                                  integrate_rk, origin_start, series_remainder, series_start)
from conftest import smooth_bump, solution_content, solve_from_origin


def _series_mismatch(ivp, r0):
    """|series at r0 - series at r0/2 carried up to r0 at rel_tol 1e-13|, in
    f and in f': the truncation of the series start at r0."""
    sol = integrate_rk(ivp.rhs(), r0 / 2, np.array(series_start(ivp, r0 / 2)), r0,
                       rel_tol=1e-13)
    f_direct, fp_direct = series_start(ivp, r0)
    return abs(sol.y[-1, 0] - f_direct), abs(sol.y[-1, 1] - fp_direct)


class TestSeriesStart:
    def test_trivial_data(self):
        ivp = real_selfsim_ivp(0.0, 2)
        # alpha0 = 0 admits the zero solution; the series is identically zero
        f, fp = series_start(ivp, 1e-3)
        assert f == 0.0 and fp == 0.0

    def test_linear_term_dominates(self):
        ivp = real_selfsim_ivp(1.0, 2)
        f, fp = series_start(ivp, 1e-3)
        assert abs(f - 1e-3) <= 1e-8
        assert abs(fp - 1.0) <= 1e-5

    def test_matches_reference_integrator(self):
        # start the series ten times closer and carry it up with fine fixed
        # RK4 steps; the direct series value must agree to 1e-10
        ivp = real_selfsim_ivp(1.0, 2)
        r0 = 1e-3
        f_small, fp_small = series_start(ivp, r0 / 10)
        fun = ivp.rhs()
        y = np.array([f_small, fp_small], dtype=complex)
        nsub, r = 2000, r0 / 10
        h = (r0 - r0 / 10) / nsub
        for _ in range(nsub):
            k1 = np.array(fun(r, y))
            k2 = np.array(fun(r + h / 2, y + h / 2 * k1))
            k3 = np.array(fun(r + h / 2, y + h / 2 * k2))
            k4 = np.array(fun(r + h, y + h * k3))
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            r += h
        f_direct, fp_direct = series_start(ivp, r0)
        assert abs(y[0] - f_direct) <= 1e-10
        assert abs(y[1] - fp_direct) <= 1e-8

    def test_error_estimate_small(self):
        est_f, est_fp = _series_mismatch(real_selfsim_ivp(1.5, 3), 1e-3)
        assert est_f <= 1e-10 and est_fp <= 1e-7

    def test_error_estimate_measures_the_truncation(self):
        # the cubic series (c3 alone) has an O(r0^5) remainder: ten times r0
        # is ~1e5 times the estimate, which integrator noise would not show
        ivp = real_selfsim_ivp(1.5, 3)
        ivp = replace(ivp, series=ivp.series[:1])
        est_small, _ = _series_mismatch(ivp, 1e-3)
        est_large, _ = _series_mismatch(ivp, 1e-2)
        assert est_large >= 1e4 * est_small

    @pytest.mark.parametrize("slope,n,r0", [(1.5, 3, 1e-2), (2.0, 3, 5e-3), (40.0, 5, 2.5e-4)])
    def test_remainder_is_the_error_of_a_closed_form_start(self, slope, n, r0):
        # the fifth-order series leaves out 7 c7 r0^6 in f'; the mismatch of
        # the series at r0 against itself carried up from r0/2 is that term
        # (less the 1/64 of it left at r0/2, which the singular mode damps)
        ivp = real_selfsim_ivp(slope, n)
        _, est_fp = _series_mismatch(ivp, r0)
        assert abs(est_fp - series_remainder(ivp, r0)) <= 0.05 * series_remainder(ivp, r0)

    def test_refuses_large_start(self):
        with pytest.raises(DomainError):
            series_start(real_selfsim_ivp(1.0, 2), 0.05)

    @pytest.mark.parametrize("r0", [0.0, -1e-3, math.nan])
    def test_refuses_a_start_outside_zero_to_inf(self, r0):
        # NaN used to pass the r0 <= 0 guard and the 1e-2 cap
        with pytest.raises(DomainError, match=f"need 0 < r0 < inf, got {r0!r}"):
            series_start(real_selfsim_ivp(1.0, 2), r0)

    @pytest.mark.parametrize("k", [0.0, -3.0, math.nan, math.inf])
    def test_ivp_refuses_a_strength_outside_zero_to_inf(self, k):
        # NaN used to pass the k <= 0 guard
        with pytest.raises(DomainError, match=f"need 0 < k < inf, got {k!r}"):
            SingularIVP(k=k, A=lambda z1, z2, r: 0.0 * z1, B=lambda z: z**3, alpha0=1.0,
                        series=(0.0,))

    def test_validate_rejects_bad_A(self):
        ivp = SingularIVP(k=3.0, A=lambda z1, z2, r: z1, B=lambda z: 0.0 * z, alpha0=1.0,
                          series=(0.0,))
        with pytest.raises(DomainError):
            series_start(ivp, 1e-3)

    def test_validate_rejects_quadratic_B(self):
        ivp = SingularIVP(k=3.0, A=lambda z1, z2, r: 0.0 * z1,
                          B=lambda z: z**2, alpha0=1.0, series=(0.0,))
        with pytest.raises(DomainError):
            ivp.validate()


class TestOriginStart:
    @pytest.mark.parametrize("slope,r0", [(0.0, DEFAULT_R0), (0.5, 1e-2), (1.0, 1e-2),
                                          (4.0, 2.5e-3), (2000.0, 5e-6)])
    def test_radius_scales_with_the_slope(self, slope, r0):
        ivp = real_selfsim_ivp(slope, 3)
        start = origin_start(ivp, 1e-10)
        assert start.r0 == r0
        assert tuple(start.y0) == series_start(ivp, r0)
        assert start.remainder == series_remainder(ivp, r0)
        assert start.remainder <= 1e-10 * np.max(np.abs(start.y0))

    def test_default_radius_for_a_cubic_start_or_no_cap(self):
        # a cubic start (the sphere chart, or a quintic one cut to c3), or a
        # tolerance at which no radial cap binds: the start stays at DEFAULT_R0
        ivp = real_selfsim_ivp(4.0, 3)
        chart = stereo_selfsim_ivp((1.0, 0.5), FlowParams(2, 1.0, 0.0))
        for problem, tol in ((replace(ivp, series=ivp.series[:1]), 1e-10), (chart, 1e-10),
                             (ivp, ROUNDING_TOL), (ivp, 1e-6)):
            start = origin_start(problem, tol)
            assert start.r0 == DEFAULT_R0
            assert tuple(start.y0) == series_start(problem, DEFAULT_R0)
        assert origin_start(chart, 1e-10).remainder is None

    def test_refuses_a_remainder_beyond_the_tolerance(self):
        # 7 |c7| r0^6 at slope r0 = 1e-2 is ~1.6e-14 of the slope
        ivp = real_selfsim_ivp(2000.0, 3)
        origin_start(ivp, 1e-13)
        with pytest.raises(DomainError, match=r"series start at r0=5e-06: its next term"):
            origin_start(ivp, 1e-14)
        with pytest.raises(DomainError, match="series start"):
            solve_from_origin(ivp, 1.0, 1e-15)
        # the exactly-zero series of slope 0 has nothing left out
        assert origin_start(real_selfsim_ivp(0.0, 3), 1e-15).remainder == 0.0

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
    def test_refuses_a_tolerance_outside_zero_to_inf(self, tol):
        with pytest.raises(DomainError, match="rel_tol"):
            origin_start(real_selfsim_ivp(1.0, 3), tol)
        with pytest.raises(DomainError, match="rel_tol"):
            integrate_rk(_oscillator, 0.0, np.array([1.0, 0.0]), 1.0, rel_tol=tol)


class TestIntegrateAdaptive:
    """Complex-spec solves from `origin_start`, carried out by `integrate_rk`."""

    def test_stationary_scalar_profile(self):
        # no drift, slope 2: the closed form is 2 arctan(r)
        ivp = real_selfsim_ivp(2.0, 2, drift=False)
        sol = solve_from_origin(ivp, 6.0, 1e-10)
        for rv in (1.0, 2.0, 5.0):
            f = sol.eval(np.array([rv]))[:, 0]
            assert abs(complex(f[0]) - 2 * np.arctan(rv)) <= 1e-8

    def test_trivial_zero_solution(self):
        sol = solve_from_origin(real_selfsim_ivp(0.0, 2), 5.0, 1e-10)
        assert np.max(np.abs(sol.y[:, 0])) == 0.0
        assert np.max(np.abs(sol.y[:, 1])) == 0.0

    def test_halving_tolerance_halves_error(self):
        # error measured against a 10x tighter reference run
        ivp = real_selfsim_ivp(2.0, 2, drift=False)
        probe = np.array([1.0, 2.0, 5.0])

        def err(tol):
            g = solve_from_origin(ivp, 6.0, tol)
            ref = solve_from_origin(ivp, 6.0, tol / 10.0)
            return float(np.max(np.abs(g.eval(probe)[:, 0] - ref.eval(probe)[:, 0])))

        e1, e2 = err(1e-6), err(5e-7)
        assert e2 <= e1 / 2.0

    def test_tolerance_met_after_rejected_steps(self):
        # a drift profile with rejected steps, against scipy DOP853 at rtol
        # 1e-13: every node within the requested relative tolerance
        ivp = real_selfsim_ivp(1.0, 3)
        sol = solve_from_origin(ivp, 10.0, 1e-8)
        f0, fp0 = series_start(ivp, sol.r[0])
        fun = ivp.rhs()
        ref = solve_ivp(lambda r, y: np.array(fun(r, y.astype(complex))).real, (sol.r[0], 10.0),
                        [f0.real, fp0.real], method="DOP853", rtol=1e-13, atol=1e-15,
                        t_eval=sol.r).y[0]
        assert np.max(np.abs(sol.y[:, 0].real - ref) / (1e-14 + 1e-8 * np.abs(ref))) <= 1.0

    def test_deterministic(self):
        ivp = real_selfsim_ivp(1.0, 2)
        g1 = solve_from_origin(ivp, 8.0, 1e-9)
        g2 = solve_from_origin(ivp, 8.0, 1e-9)
        assert np.array_equal(g1.r, g2.r)
        assert np.array_equal(g1.y[:, 0], g2.y[:, 0])
        assert np.array_equal(g1.y[:, 1], g2.y[:, 1])
        # derivatives, dense rows and counts too
        for a, b in zip(solution_content(g1), solution_content(g2)):
            assert np.array_equal(a, b)

    def test_blowup_reports_last_state(self):
        # f'' = 4 f^2 f' + singular pair: derivative grows without bound;
        # A(a, a r, r) = 4 a^3 r^2 has no linear term, so c3 = 0
        ivp = SingularIVP(k=1.0, A=lambda z1, z2, r: 4.0 * z2**2 * z1,
                          B=lambda z: 0.0 * z, alpha0=3.0, series=(0.0,))
        with pytest.raises(StiffnessError) as exc:
            solve_from_origin(ivp, 50.0, 1e-8)
        assert exc.value.r_last is not None
        assert exc.value.partial is not None

    def test_nan_rhs_is_named_non_finite(self, rng):
        # a seeded linear system whose rhs turns NaN past r = 0.5
        A = rng.normal(size=(3, 3))

        def fun(r, y):
            return np.full(3, np.nan) if r > 0.5 else A @ y

        with pytest.raises(NonFiniteError) as exc:
            integrate_rk(fun, 0.1, rng.normal(size=3), 2.0, rel_tol=1e-8)
        assert isinstance(exc.value, StiffnessError)
        assert "non-finite" in str(exc.value) and "stage" in str(exc.value)
        rs, ys, fs = exc.value.partial
        # the last accepted node sits at the NaN edge: a NaN from a rejected
        # attempt does not leak into the stages of the next one
        assert 0.5 - 1e-9 <= exc.value.r_last == rs[-1] <= 0.5
        assert np.all(np.isfinite(ys)) and np.all(np.isfinite(fs))

    @pytest.mark.parametrize("where", ["y0", "rhs"])
    def test_non_finite_start_is_refused(self, rng, deadline, where):
        # a NaN start state, or an rhs that is NaN at r0 itself, made the
        # first step size NaN; every attempt was then rejected, unbounded
        A = rng.normal(size=(3, 3))
        y0 = rng.normal(size=3)
        if where == "y0":
            y0[rng.integers(3)] = np.nan

        def fun(r, y):
            return np.full(3, np.nan) if where == "rhs" else A @ y

        with pytest.raises((DomainError, NonFiniteError), match="non-finite") as exc:
            integrate_rk(fun, 0.1, y0, 2.0, rel_tol=1e-8)
        assert "nan" in str(exc.value)

    @pytest.mark.parametrize("r0,r_max", [(0.1, math.nan), (0.1, math.inf), (math.nan, 2.0),
                                          (-math.inf, 2.0)])
    def test_non_finite_radii_are_refused(self, deadline, r0, r_max):
        # a NaN r_max used to return a one-node solution
        with pytest.raises(DomainError, match="need finite r0 < r_max") as exc:
            integrate_rk(_oscillator, r0, np.array([1.0, 0.0]), r_max, rel_tol=1e-8)
        assert repr(r_max) in str(exc.value) and repr(r0) in str(exc.value)

    @pytest.mark.parametrize("max_step", [math.nan, 0.0, -1.0])
    def test_max_step_nan_or_not_positive_is_refused(self, rng, deadline, max_step):
        # NaN was read as no limit (min(h, nan) is h), -1 ended in step underflow
        y0 = rng.normal(size=2)
        with pytest.raises(DomainError, match="max_step") as exc:
            integrate_rk(_oscillator, 0.0, y0, 2.0, rel_tol=1e-1, max_step=max_step)
        assert repr(max_step) in str(exc.value)
        assert integrate_rk(_oscillator, 0.0, y0, 2.0, rel_tol=1e-1, max_step=math.inf).r[-1] == 2.0

    def test_rejected_attempts_count_against_the_step_budget(self, monkeypatch, deadline):
        # finite at r0, NaN at every stage: no step is ever accepted
        def fun(r, y):
            return y.copy() if r == 0.1 else np.full(2, np.nan)

        monkeypatch.setattr(singular_ode, "MAX_STEPS", 3)
        with pytest.raises(StiffnessError, match="step budget exhausted") as exc:
            integrate_rk(fun, 0.1, np.array([1.0, 2.0]), 2.0, rel_tol=1e-8)
        assert exc.value.r_last == 0.1
        assert "3 attempts, stopped at r=0.1 with h=" in str(exc.value)

    def test_underflow_names_where_it_stopped(self, deadline):
        # y' = 1e3 y^2, y(0) = 1 blows up at r = 1e-3
        with pytest.raises(StiffnessError, match="step size underflow") as exc:
            integrate_rk(lambda r, y: 1e3 * y * y, 0.0, np.array([1.0]), 1.0)
        r_last = exc.value.r_last
        assert abs(r_last - 1e-3) <= 1e-9
        assert f"at r={r_last!r} with h=" in str(exc.value)

    def test_second_derivative_vanishes_at_origin(self):
        for ivp in (real_selfsim_ivp(1.0, 2), real_selfsim_ivp(0.5, 3)):
            fun = ivp.rhs()
            vals = []
            for rr in (1e-2, 1e-3, 1e-4):
                f0, fp0 = series_start(ivp, rr)
                vals.append(abs(fun(rr, np.array([f0, fp0]))[1]))
            assert vals[0] > vals[1] > vals[2]


def _oscillator(r, y):
    return np.array([y[1], -y[0]])


class TestStepper:
    def test_tableau_matches_scipy_dop853(self):
        assert np.array_equal(dop.C, dop853_coefficients.C)
        assert np.array_equal(dop.A, dop853_coefficients.A)
        assert np.array_equal(dop.B, DOP853.B)
        # stage 12 (the derivative at the new node) has no error weight
        assert np.array_equal(dop.E5, DOP853.E5[:12]) and DOP853.E5[12] == 0.0
        assert np.array_equal(dop.E3, DOP853.E3[:12]) and DOP853.E3[12] == 0.0
        assert np.array_equal(dop.D, DOP853.D)
        # the dense stages and rows do not read stages 1-4, which a step does not keep
        assert not dop.A[13:, 1:5].any() and not dop.D[:, 1:5].any()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matrix_form_matches_term_by_term_stages(self, rng, dtype):
        # with h pinned to 1/16 both take the same 16 steps; only the order
        # of the stage sums differs, a few ulps per stage
        M = rng.normal(size=(3, 3)) + (1j * rng.normal(size=(3, 3)) if dtype is complex else 0)
        y0 = rng.normal(size=3).astype(dtype)

        def fun(r, y):
            return M @ y

        def stages(r, y, K, rows):
            for i in rows:
                stage = sum(a * kk for a, kk in zip(dop.A[i, :i], K))
                K.append(fun(r + dop.C[i] * h, y + h * stage))

        h = 1 / 16
        sol = integrate_rk(fun, 0.0, y0, 1.0, rel_tol=1e-1, max_step=h)
        assert np.array_equal(sol.r, np.arange(17) * h)
        rows = sol.rows(np.arange(16))
        y = y0
        for k, r in enumerate(sol.r[:-1]):
            K = [fun(r, y)]
            stages(r, y, K, range(1, 12))
            y_new = y + h * sum(b * kk for b, kk in zip(dop.B, K))
            K.append(fun(sol.r[k + 1], y_new))
            stages(r, y, K, range(13, 16))
            q = [h * sum(d * kk for d, kk in zip(row, K)) for row in dop.D]
            # q cancels terms up to h |D| |K|: rounding is relative to those
            q_terms = h * np.abs(dop.D).sum(axis=1).max() * max(np.max(np.abs(kk)) for kk in K)
            y = y_new
            assert np.max(np.abs(sol.y[k + 1] - y)) <= 1e-13 * np.max(np.abs(y))
            assert np.max(np.abs(sol.f[k + 1] - K[12])) <= 1e-13 * np.max(np.abs(K[12]))
            assert np.max(np.abs(rows[k] - q)) <= 1e-13 * q_terms

    def test_fixed_step_convergence_order(self):
        # rel_tol 1e-1 accepts every step, so max_step pins h; the global
        # error of the propagated 8th-order solution falls like h^8
        def fast(r, y):
            return np.array([4.0 * y[1], -4.0 * y[0]])

        exact = np.cos(8.0) + np.sin(8.0)
        errs = []
        for h in (0.2, 0.1):
            sol = integrate_rk(fast, 0.0, np.array([1.0, 1.0]), 2.0, rel_tol=1e-1, max_step=h)
            assert sol.r.size == round(2.0 / h) + 1
            assert np.allclose(np.diff(sol.r), h, rtol=1e-12, atol=0.0)
            errs.append(abs(sol.y[-1, 0] - exact))
        assert np.log2(errs[0] / errs[1]) >= 7

    def test_final_step_lands_on_r_max(self, rng):
        # accepted steps that sum to a hair below r_max used to leave a
        # sliver the next step could not take, reported as step underflow
        cases = [(0.2, np.array([1.0, 1.0])), (0.025, np.array([1.0, 1.0]))]
        cases += [(2.0 / m, rng.normal(size=2)) for m in rng.integers(3, 200, size=20)]
        for max_step, y0 in cases:
            sol = integrate_rk(_oscillator, 0.0, y0, 2.0, rel_tol=1e-1, max_step=max_step)
            assert sol.r[-1] == 2.0, max_step
            assert np.all(np.diff(sol.r) > 0.0)
            exact = y0[0] * np.cos(2.0) + y0[1] * np.sin(2.0)
            assert abs(sol.y[-1, 0] - exact) <= 1e-3 * np.abs(y0).sum()

    @pytest.mark.parametrize("postprocess,returns", [
        (None, "buffer"), (lambda r, y: y, "buffer"), (None, "tuple")],
        ids=["fsal", "postprocess", "tuple"])
    def test_nodes_independent_of_a_reused_output_buffer(self, postprocess, returns):
        buf = np.empty(2)

        def reused(r, y):
            buf[0], buf[1] = y[1], -y[0]
            return buf

        def as_tuple(r, y):
            y0, y1 = y.tolist()
            return y1, -y0

        fresh = integrate_rk(_oscillator, 0.0, np.array([1.0, 0.5]), 3.0, rel_tol=1e-6,
                             postprocess=postprocess)
        shared = integrate_rk(reused if returns == "buffer" else as_tuple, 0.0,
                              np.array([1.0, 0.5]), 3.0, rel_tol=1e-6, postprocess=postprocess)
        for a, b in zip(solution_content(fresh), solution_content(shared)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_error_norm_is_scipys_dop853_norm(self, rng, dtype):
        # scipy's _estimate_error_norm on the same stages and scale; ours
        # takes the error rows with h already applied
        for _ in range(50):
            K, y_old, y_new = (rng.normal(size=(3, 13, 6)) + 1j * rng.normal(size=(3, 13, 6))
                               if dtype is complex else rng.normal(size=(3, 13, 6)))
            y_old, y_new = y_old[0], y_new[0]
            h = rng.uniform(1e-3, 1.0)
            scale = ERROR_FLOOR + 1e-8 * np.maximum(np.abs(y_old), np.abs(y_new))
            ref = DOP853._estimate_error_norm(DOP853, K, h, scale)
            err = h * np.array([DOP853.E5, DOP853.E3]) @ K
            assert abs(_error_norm(err, y_old, y_new, 1e-8) - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_error_norm_is_the_conjugate_product_formula_to_the_bit(self, rng, dtype):
        def reference(err, y_old, y_new, rel_tol):
            e5 = e3 = 0.0
            for a5, a3, yo, yn in zip(err[0].tolist(), err[1].tolist(), y_old.tolist(),
                                      y_new.tolist()):
                scale = ERROR_FLOOR + rel_tol * max(abs(yo), abs(yn))
                a5, a3 = a5 / scale, a3 / scale
                e5 += (a5 * a5.conjugate()).real
                e3 += (a3 * a3.conjugate()).real
            denom = e5 + 0.01 * e3
            return e5 / math.sqrt(denom * y_old.size) if denom else 0.0

        def sample(*shape):
            x = rng.normal(size=shape) * 10.0 ** rng.integers(-12, 4, size=shape)
            return x + 1j * rng.normal(size=shape) if dtype is complex else x

        cases = [(sample(2, m), sample(m), sample(m), tol)
                 for m in (1, 2, 6) for tol in (1e-6, 1e-10, 1e-13) for _ in range(30)]
        for err, y_old, y_new, tol in cases:
            assert _error_norm(err, y_old, y_new, tol) == reference(err, y_old, y_new, tol)
        zeros = np.zeros((2, 6), dtype=dtype)   # denominator 0
        assert _error_norm(zeros, zeros[0], zeros[0], 1e-10) == 0.0
        assert reference(zeros, zeros[0], zeros[0], 1e-10) == 0.0
        for row, (i, j) in ((0, (0, 2)), (1, (1, 5))):    # a NaN in an error row or a state
            err, y_old = sample(2, 6), sample(6)
            err[row, i] = np.nan
            y_old[j] = np.nan
            for args in ((err, sample(6), sample(6)), (sample(2, 6), y_old, sample(6))):
                assert math.isnan(_error_norm(*args, 1e-10))
                assert math.isnan(reference(*args, 1e-10))

    def test_initial_step_uses_the_order_7_exponent(self):
        # y' = y from y = 1 at rel_tol 1e-6: d0 = d1 = d2 ~ 1e6, so Hairer's
        # rule gives h1 = (0.01 / d1)^(1/8) = 0.1, below 100 h0 = 1; a 5th-order
        # exponent, 1/5, would give 0.025
        y0 = np.array([1.0])
        d1 = 1.0 / (ERROR_FLOOR + 1e-6)
        h = _initial_step(lambda r, y: y.copy(), 0.0, y0, y0.copy(), 1e-6, np.inf)
        assert h == pytest.approx((0.01 / d1) ** (1 / 8), rel=1e-12)

    def test_counters_against_a_counting_rhs(self):
        calls = []
        fun = _selfsim_rhs(3)

        def counted(r, y):
            calls.append(r)
            return fun(r, y)

        f0, fp0 = series_start(real_selfsim_ivp(3.0, 3), 1e-4)
        sol = integrate_rk(counted, 1e-4, np.array([f0.real, fp0.real]), 10.0, rel_tol=1e-8)
        assert sol.steps_rejected > 0
        assert sol.steps_accepted == sol.r.size - 1
        assert sol.rhs_evals == len(calls)
        # the start (f and one probe), 11 stages per attempt, and the node
        # derivative per accepted step
        attempts = sol.steps_accepted + sol.steps_rejected
        assert sol.rhs_evals == 2 + 11 * attempts + sol.steps_accepted
        assert sol.counters() == {"steps_accepted": sol.steps_accepted,
                                  "steps_rejected": sol.steps_rejected,
                                  "rhs_evals": len(calls)}
        # every step's dense rows: three more stages each, outside the counts
        assert sol.rows(np.arange(sol.r.size - 1)).shape[0] == sol.steps_accepted
        assert len(calls) == sol.rhs_evals + 3 * sol.steps_accepted


    def test_steps_from_a_singular_origin_are_at_most_a_tenth_of_r(self):
        # from r0 > 0 below ROUNDING_TOL, h <= 0.1 r; above it the controller
        # alone places the nodes, and its start-up steps are longer than r
        fun = _selfsim_rhs(3)
        f0, fp0 = series_start(real_selfsim_ivp(0.5, 3), 1e-4)
        y0 = np.array([f0.real, fp0.real])
        tight = integrate_rk(fun, 1e-4, y0, 2.0, rel_tol=ROUNDING_TOL / 10)
        assert np.all(np.diff(tight.r) <= RADIAL_STEP * tight.r[:-1] * (1 + 1e-12))
        loose = integrate_rk(fun, 1e-4, y0, 2.0, rel_tol=ROUNDING_TOL)
        assert np.max(np.diff(loose.r) / loose.r[:-1]) > 1.0


class TestDenseOutput:
    @staticmethod
    def _scalar(slope=2.0, n=3, r_max=10.0, tol=1e-10):
        f0, fp0 = series_start(real_selfsim_ivp(slope, n), 1e-4)
        y0 = np.array([f0.real, fp0.real])
        sol = integrate_rk(_selfsim_rhs(n), 1e-4, y0, r_max, rel_tol=tol)
        return sol, y0

    def test_equals_scipys_dop853_dense_output(self):
        # each step's (y, f, q) rebuilt as scipy's F rows: the regrouped
        # polynomial agrees with Dop853DenseOutput to rounding
        sol, _ = self._scalar()
        rows = sol.rows(np.arange(sol.r.size - 1))
        for k in range(0, sol.r.size - 1, 7):
            r0, r1 = sol.r[k], sol.r[k + 1]
            h, dy = r1 - r0, sol.y[k + 1] - sol.y[k]
            F = np.concatenate([[dy, h * sol.f[k] - dy, 2 * dy - h * (sol.f[k + 1] + sol.f[k])],
                                rows[k]])
            rq = r0 + h * np.array([0.1, 0.37, 0.5, 0.81])
            ref = Dop853DenseOutput(r0, r1, sol.y[k], F)(rq).T
            assert np.max(np.abs(sol.eval(rq) - ref)) <= 1e-14 * np.max(np.abs(sol.y[k]))

    @pytest.mark.parametrize("slope,n", [(2.0, 3), (22.113375001669648, 5)])
    def test_within_tolerance_between_nodes(self, slope, n):
        # against scipy DOP853 at rtol 1e-13, at three points inside every
        # step: within rel_tol max|y|, 100 times closer than the cubic
        # Hermite of the same nodes
        fun = _selfsim_rhs(n)
        tol = 1e-10
        sol, y0 = self._scalar(slope, n, tol=tol)
        ref = solve_ivp(lambda r, y: fun(r, y), (1e-4, 10.0), y0, method="DOP853",
                        rtol=1e-13, atol=1e-15, dense_output=True).sol
        bound = tol * np.max(np.abs(sol.y))
        for s in (0.25, 0.5, 0.75):
            rq = sol.r[:-1] + s * np.diff(sol.r)
            err = np.max(np.abs(sol.eval(rq) - ref(rq).T))
            cubic = np.max(np.abs(hermite_eval(rq, sol.r, sol.y, sol.f) - ref(rq).T))
            assert err <= bound, (s, err, bound)
            assert cubic >= 100.0 * err

    def test_nodes_are_returned_exactly(self):
        sol, _ = self._scalar()
        assert np.array_equal(sol.eval(sol.r), sol.y)

    def test_zero_correction_is_cubic_hermite(self, rng):
        r = np.sort(rng.uniform(0.0, 3.0, 30))
        y = rng.normal(size=(30, 4))
        f = rng.normal(size=(30, 4))
        rq = rng.uniform(r[0], r[-1], 200)
        sol = DenseSolution.from_nodes(r, y, f)
        assert np.array_equal(sol.eval(rq), hermite_eval(rq, r, y, f))
        assert not sol.rows(np.arange(29)).any()

    def test_rows_are_built_on_the_first_query_of_a_step(self):
        calls = []
        fun = _selfsim_rhs(3)

        def counted(r, y):
            calls.append(r)
            return fun(r, y)

        f0, fp0 = series_start(real_selfsim_ivp(2.0, 3), 1e-4)
        sol = integrate_rk(counted, 1e-4, np.array([f0.real, fp0.real]), 10.0, rel_tol=1e-10)
        assert len(calls) == sol.rhs_evals
        mid = 0.5 * (sol.r[:-1] + sol.r[1:])
        sol.eval(mid[[3, 3, 10, 40]])
        assert len(calls) == sol.rhs_evals + 9    # three stages for each new step
        sol.eval(mid[[40, 3, 10]])
        sol.rows([10, 3, 3])
        assert len(calls) == sol.rhs_evals + 9    # a built step costs nothing
        sol.eval(np.concatenate([mid[[10, 3]], sol.r[[41]]]))
        assert len(calls) == sol.rhs_evals + 12   # r[41] opens step 41

    @pytest.mark.parametrize("problem", ["scalar", "sphere"])
    def test_rows_do_not_depend_on_the_order_they_are_built_in(self, problem):
        # cell by cell from the last, in one eval call, and all steps at once
        def solve():
            if problem == "scalar":
                return self._scalar()[0]
            return solve_profile((0.6, 0.8), FlowParams(3, 0.6, 0.8), 10.0).sol

        backward, at_once, every = solve(), solve(), solve()
        n = every.r.size - 1
        mid = 0.5 * (every.r[:-1] + every.r[1:])
        for k in range(n - 1, -1, -1):
            backward.rows([k])
        evals = [at_once.eval(mid).tobytes()]
        rows = [sol.rows(np.arange(n)).tobytes() for sol in (backward, at_once, every)]
        evals += [sol.eval(mid).tobytes() for sol in (backward, every)]
        assert rows[0] == rows[1] == rows[2]
        assert evals[0] == evals[1] == evals[2]

    def test_refuses_queries_outside_the_nodes(self):
        sol, _ = self._scalar()
        with pytest.raises(DomainError):
            sol.eval(np.array([5.0, 10.5]))


class TestProfileGrid:
    def test_csv_round_trip(self, tmp_path):
        sol = solve_from_origin(real_selfsim_ivp(1.0, 2), 3.0, 1e-8)
        path = tmp_path / "grid.csv"
        ProfileGrid(sol).to_csv(path)
        assert path.read_text().splitlines()[0] == "r,re_f,im_f,re_fp,im_fp,re_fpp,im_fpp"
        r, f_re, f_im, fp_re, fp_im, fpp_re, fpp_im = np.loadtxt(
            path, delimiter=",", skiprows=1, unpack=True)
        assert np.array_equal(r, sol.r)
        assert np.array_equal(f_re + 1j * f_im, sol.y[:, 0])
        assert np.array_equal(fp_re + 1j * fp_im, sol.y[:, 1])
        assert np.array_equal(fpp_re + 1j * fpp_im, sol.f[:, 1])

    def test_hermite_interpolation_accuracy(self):
        r = np.linspace(0.1, 5.0, 80)
        y = np.stack([np.sin(r), np.cos(r)], axis=1).astype(complex)
        sol = DenseSolution.from_nodes(r, y, np.stack([y[:, 1], -y[:, 0]], axis=1))
        rq = np.linspace(0.2, 4.9, 333)
        f, fp = sol.eval(rq).T
        assert np.max(np.abs(f - np.sin(rq))) <= 1e-6
        assert np.max(np.abs(fp - np.cos(rq))) <= 1e-4

    def test_refuses_a_non_finite_row_or_a_non_increasing_grid(self):
        r = np.linspace(0.1, 1.0, 6)
        y = np.stack([r, np.ones_like(r)], axis=1).astype(complex)
        f = np.stack([y[:, 1], np.zeros_like(r)], axis=1)
        ProfileGrid(DenseSolution.from_nodes(r, y, f))
        bad = y.copy()
        bad[3, 0] = np.nan
        with pytest.raises(GridError, match="non-finite values"):
            ProfileGrid(DenseSolution.from_nodes(r, bad, f))
        with pytest.raises(GridError, match="strictly increasing"):
            ProfileGrid(DenseSolution.from_nodes(r[::-1], y, f))


class TestHardy:
    def test_best_constant_d4(self):
        rep = hardy_check(np.linspace(1e-6, 5, 500),
                          np.exp(-np.linspace(1e-6, 5, 500) ** 2),
                          -2 * np.linspace(1e-6, 5, 500) * np.exp(-np.linspace(1e-6, 5, 500) ** 2),
                          d=4, p=2, k=0)
        assert rep.bound == 1.0

    def test_zero_function_flagged(self):
        r = np.linspace(1e-6, 5, 100)
        rep = hardy_check(r, np.zeros_like(r), np.zeros_like(r), d=4, p=2, k=0)
        assert rep.degenerate and rep.ratio == 0.0

    def test_gaussian_ratio_against_quadrature_oracle(self):
        r = np.linspace(1e-8, 12.0, 20000)
        f = np.exp(-(r**2))
        fr = -2 * r * f
        rep = hardy_check(r, f, fr, d=4, p=2, k=0)
        num = quad(lambda s: (np.exp(-s**2) / s) ** 2 * s**3, 0, 12)[0] ** 0.5
        den = quad(lambda s: (2 * s * np.exp(-s**2)) ** 2 * s**3, 0, 12)[0] ** 0.5
        oracle = num / den
        assert rep.ratio < 1.0
        assert abs(rep.ratio - oracle) <= 1e-6

    def test_exponent_condition_raises(self):
        r = np.linspace(1e-6, 5, 100)
        f = np.exp(-r)
        with pytest.raises(DomainError):
            hardy_check(r, f, -f, d=4, p=2, k=1)   # p = d/(k+1): bound degenerates
        with pytest.raises(DomainError):
            hardy_check(r, f, -f, d=2, p=3, k=0)

    @pytest.mark.parametrize("p,k", [(math.nan, 0.0), (2.0, math.nan)])
    def test_refuses_nan_exponents(self, p, k):
        # p = NaN used to return ratio and bound NaN
        r = np.linspace(1e-6, 5, 100)
        with pytest.raises(DomainError, match="need p >= 1 and k >= 0"):
            hardy_check(r, np.exp(-r), -np.exp(-r), d=4, p=p, k=k)

    def test_random_family_respects_bound(self, rng):
        r = np.linspace(1e-6, 10.0, 4001)
        for d, p, k in ((4, 2, 0), (6, 2, 0), (4, 1.5, 0), (6, 2, 1)):
            for _ in range(15):
                f = smooth_bump(r, 2 + 3 * rng.random(), 0.5 + 1.5 * rng.random())
                fr = np.gradient(f, r[1] - r[0], edge_order=2)
                rep = hardy_check(r, f, fr, d=d, p=p, k=k)
                assert rep.ratio <= rep.bound * (1 + 5e-3)

    def test_raw_ratio_finite_at_degenerate_exponents(self, rng):
        r = np.linspace(1e-6, 10.0, 4001)
        f = smooth_bump(r, 4.0, 1.0)
        fr = np.gradient(f, r[1] - r[0], edge_order=2)
        ratio = hardy_ratio_raw(r, f, fr, d=4, p=2, k=1)
        assert np.isfinite(ratio) and ratio > 0.0
