import numpy as np
import pytest
from scipy.integrate import RK45, quad, solve_ivp

from gllflow.errors import DomainError, NonFiniteError, StiffnessError
from gllflow.realflow import real_selfsim_ivp
from gllflow.singular_ode import (_DP_A, _DP_BE, _DP_C, _DP_E, ERROR_FLOOR, ProfileGrid,
                                  SingularIVP, _error_norm, hardy_check, hardy_ratio_raw,
                                  integrate_adaptive, integrate_rk, series_error_estimate,
                                  series_start)
from conftest import smooth_bump


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
            k1 = fun(r, y)
            k2 = fun(r + h / 2, y + h / 2 * k1)
            k3 = fun(r + h / 2, y + h / 2 * k2)
            k4 = fun(r + h, y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            r += h
        f_direct, fp_direct = series_start(ivp, r0)
        assert abs(y[0] - f_direct) <= 1e-10
        assert abs(y[1] - fp_direct) <= 1e-8

    def test_error_estimate_small(self):
        est_f, est_fp = series_error_estimate(real_selfsim_ivp(1.5, 3), 1e-3)
        assert est_f <= 1e-10 and est_fp <= 1e-7

    def test_refuses_large_start(self):
        with pytest.raises(DomainError):
            series_start(real_selfsim_ivp(1.0, 2), 0.05)

    def test_validate_rejects_bad_A(self):
        ivp = SingularIVP(k=3.0, A=lambda z1, z2, r: z1, B=lambda z: 0.0 * z, alpha0=1.0)
        with pytest.raises(DomainError):
            series_start(ivp, 1e-3)

    def test_validate_rejects_quadratic_B(self):
        ivp = SingularIVP(k=3.0, A=lambda z1, z2, r: 0.0 * z1,
                          B=lambda z: z**2, alpha0=1.0)
        with pytest.raises(DomainError):
            ivp.validate()


class TestIntegrateAdaptive:
    def test_stationary_scalar_profile(self):
        # no drift, slope 2: the closed form is 2 arctan(r)
        ivp = real_selfsim_ivp(2.0, 2, drift=False)
        grid = integrate_adaptive(ivp, 6.0, rel_tol=1e-10)
        for rv in (1.0, 2.0, 5.0):
            f, _ = grid.interpolate(np.array([rv]))
            assert abs(complex(f[0]) - 2 * np.arctan(rv)) <= 1e-8

    def test_trivial_zero_solution(self):
        grid = integrate_adaptive(real_selfsim_ivp(0.0, 2), 5.0)
        assert np.max(np.abs(grid.f)) == 0.0
        assert np.max(np.abs(grid.fp)) == 0.0

    def test_halving_tolerance_halves_error(self):
        # error measured against a 10x tighter reference run
        ivp = real_selfsim_ivp(2.0, 2, drift=False)
        probe = np.array([1.0, 2.0, 5.0])

        def err(tol):
            g = integrate_adaptive(ivp, 6.0, rel_tol=tol)
            ref = integrate_adaptive(ivp, 6.0, rel_tol=tol / 10.0)
            return float(np.max(np.abs(g.interpolate(probe)[0] - ref.interpolate(probe)[0])))

        e1, e2 = err(1e-6), err(5e-7)
        assert e2 <= e1 / 2.0

    def test_tolerance_met_after_rejected_steps(self):
        # a drift profile with rejected steps, against scipy DOP853 at rtol
        # 1e-13: every node within the requested relative tolerance
        ivp = real_selfsim_ivp(1.0, 3)
        grid = integrate_adaptive(ivp, 10.0, rel_tol=1e-8)
        f0, fp0 = series_start(ivp, grid.r[0])
        fun = ivp.rhs()
        ref = solve_ivp(lambda r, y: fun(r, y.astype(complex)).real, (grid.r[0], 10.0),
                        [f0.real, fp0.real], method="DOP853", rtol=1e-13, atol=1e-15,
                        t_eval=grid.r).y[0]
        assert np.max(np.abs(grid.f.real - ref) / (1e-14 + 1e-8 * np.abs(ref))) <= 1.0

    def test_deterministic(self):
        ivp = real_selfsim_ivp(1.0, 2)
        g1 = integrate_adaptive(ivp, 8.0, rel_tol=1e-9)
        g2 = integrate_adaptive(ivp, 8.0, rel_tol=1e-9)
        assert np.array_equal(g1.r, g2.r)
        assert np.array_equal(g1.f, g2.f)
        assert np.array_equal(g1.fp, g2.fp)

    def test_blowup_reports_last_state(self):
        # f'' = 4 f^2 f' + singular pair: derivative grows without bound
        ivp = SingularIVP(k=1.0, A=lambda z1, z2, r: 4.0 * z2**2 * z1,
                          B=lambda z: 0.0 * z, alpha0=3.0)
        with pytest.raises(StiffnessError) as exc:
            integrate_adaptive(ivp, 50.0, rel_tol=1e-8)
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
    def test_tableau_matches_scipy_rk45(self):
        assert np.array_equal(_DP_A[:6, :5], RK45.A)
        assert not np.any(_DP_A[:6, 5:]) and not _DP_A[6, 6]
        assert np.array_equal(_DP_A[6, :6], RK45.B)      # first same as last
        assert np.array_equal(_DP_BE, [_DP_A[6], _DP_E])
        assert np.array_equal(_DP_E, -RK45.E)
        assert np.array_equal(_DP_C[:6], RK45.C) and _DP_C[6] == 1.0

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matrix_form_matches_term_by_term_stages(self, rng, dtype):
        # with h pinned to 1/16 both take the same 16 steps; only the order
        # of the stage sums differs, a few ulps per stage
        M = rng.normal(size=(3, 3)) + (1j * rng.normal(size=(3, 3)) if dtype is complex else 0)
        y0 = rng.normal(size=3).astype(dtype)

        def fun(r, y):
            return M @ y

        h = 1 / 16
        rs, ys, fs = integrate_rk(fun, 0.0, y0, 1.0, rel_tol=1e-1, max_step=h)
        assert np.array_equal(rs, np.arange(17) * h)
        y = y0
        for k, r in enumerate(rs[:-1]):
            K = [fun(r, y)]
            for i in range(1, 7):
                stage = sum(a * kk for a, kk in zip(_DP_A[i, :i], K))
                K.append(fun(r + _DP_C[i] * h, y + h * stage))
            y = y + h * sum(b * kk for b, kk in zip(_DP_A[6, :6], K))
            f = fun(rs[k + 1], y)
            assert np.max(np.abs(ys[k + 1] - y)) <= 1e-13 * np.max(np.abs(y))
            assert np.max(np.abs(fs[k + 1] - f)) <= 1e-13 * np.max(np.abs(f))

    def test_fixed_step_convergence_order(self):
        # rel_tol 1e-1 accepts every step, so max_step pins h; the global
        # error of the propagated 5th-order solution falls like h^5
        exact = np.cos(2.0) + np.sin(2.0)
        errs = []
        for h in (0.1, 0.05):
            rs, ys, _ = integrate_rk(_oscillator, 0.0, np.array([1.0, 1.0]), 2.0,
                                     rel_tol=1e-1, max_step=h)
            assert rs.size == round(2.0 / h) + 1
            assert np.allclose(np.diff(rs), h, rtol=1e-12, atol=0.0)
            errs.append(abs(ys[-1, 0] - exact))
        assert np.log2(errs[0] / errs[1]) >= 4.8

    def test_final_step_lands_on_r_max(self, rng):
        # accepted steps that sum to a hair below r_max used to leave a
        # sliver the next step could not take, reported as step underflow
        cases = [(0.2, np.array([1.0, 1.0])), (0.025, np.array([1.0, 1.0]))]
        cases += [(2.0 / m, rng.normal(size=2)) for m in rng.integers(3, 200, size=20)]
        for max_step, y0 in cases:
            rs, ys, _ = integrate_rk(_oscillator, 0.0, y0, 2.0, rel_tol=1e-1,
                                     max_step=max_step)
            assert rs[-1] == 2.0, max_step
            assert np.all(np.diff(rs) > 0.0)
            exact = y0[0] * np.cos(2.0) + y0[1] * np.sin(2.0)
            assert abs(ys[-1, 0] - exact) <= 1e-3 * np.abs(y0).sum()

    @pytest.mark.parametrize("postprocess", [None, lambda r, y: y], ids=["fsal", "postprocess"])
    def test_nodes_independent_of_a_reused_output_buffer(self, postprocess):
        buf = np.empty(2)

        def reused(r, y):
            buf[0], buf[1] = y[1], -y[0]
            return buf

        fresh = integrate_rk(_oscillator, 0.0, np.array([1.0, 0.5]), 3.0, rel_tol=1e-6,
                             postprocess=postprocess)
        shared = integrate_rk(reused, 0.0, np.array([1.0, 0.5]), 3.0, rel_tol=1e-6,
                              postprocess=postprocess)
        for a, b in zip(fresh, shared):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_error_norm_is_the_rms_of_the_scaled_error(self, rng, dtype):
        # the one-dot norm, taken over (re, im) pairs for a complex state
        for _ in range(50):
            y_old, y_new, err = (rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
                                 if dtype is complex else rng.normal(size=(3, 6)))
            scale = ERROR_FLOOR + 1e-8 * np.maximum(np.abs(y_old), np.abs(y_new))
            ref = np.sqrt(np.mean(np.abs(err / scale) ** 2))
            assert abs(_error_norm(err, y_old, y_new, 1e-8) - ref) <= 1e-15 * ref


class TestProfileGrid:
    def test_csv_round_trip(self, tmp_path):
        grid = integrate_adaptive(real_selfsim_ivp(1.0, 2), 3.0, rel_tol=1e-8)
        path = tmp_path / "grid.csv"
        grid.to_csv(path)
        back = ProfileGrid.read_csv(path)
        assert np.array_equal(back.r, grid.r)
        assert np.array_equal(back.f, grid.f)
        assert np.array_equal(back.fp, grid.fp)

    def test_hermite_interpolation_accuracy(self):
        r = np.linspace(0.1, 5.0, 80)
        grid = ProfileGrid(r, np.sin(r).astype(complex), np.cos(r).astype(complex))
        rq = np.linspace(0.2, 4.9, 333)
        f, fp = grid.interpolate(rq)
        assert np.max(np.abs(f - np.sin(rq))) <= 1e-6
        assert np.max(np.abs(fp - np.cos(rq))) <= 1e-4


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
