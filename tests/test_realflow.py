import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from gllflow import realflow, singular_ode
from gllflow.errors import DomainError
from gllflow.figure_reference import (FIGURE_CURVES, X_SCALE, Y_SCALE, curve_error,
                                      fit_convention)
from gllflow.geometry import energy_density_arr
from gllflow.realflow import (LIMIT_BETA, RealProfile, classify_uniqueness, comparison_suite,
                              eta, eta_double_prime, eta_prime, eta_prime_at_pi,
                              eta_triple_prime, eta_triple_prime_at_pi, f_kink,
                              f_kink_derivative, gamma, hardy_saturation_ratio,
                              min_eta_prime, nonuniqueness_witness, real_selfsim_ivp,
                              search_negative_gap, solve_selfsim_real, stationary_profile,
                              stationary_residual, taylor_domination_delta,
                              witness_energy_gap, _selfsim_rhs)
from gllflow.singular_ode import DEFAULT_R0, DenseSolution, integrate_rk, series_start
from conftest import solution_content, solve_from_origin

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class TestEta:
    def test_zeros(self):
        for n in (2, 3, 5):
            for x in (0.0, np.pi, 2 * np.pi):
                assert abs(eta(x, n)) <= 1e-14
        xs = np.linspace(0.05, np.pi - 0.05, 200)
        assert np.all(eta(xs, 2) > 0)

    def test_derivatives_by_finite_differences(self):
        xs = np.linspace(0.3, 5.9, 41)
        h = 1e-5
        for n in (2, 4):
            fd1 = (eta(xs + h, n) - eta(xs - h, n)) / (2 * h)
            fd2 = (eta_prime(xs + h, n) - eta_prime(xs - h, n)) / (2 * h)
            fd3 = (eta_double_prime(xs + h, n) - eta_double_prime(xs - h, n)) / (2 * h)
            assert np.max(np.abs(fd1 - eta_prime(xs, n))) <= 1e-8
            assert np.max(np.abs(fd2 - eta_double_prime(xs, n))) <= 1e-7
            assert np.max(np.abs(fd3 - eta_triple_prime(xs, n))) <= 1e-7

    def test_gamma_antiderivative(self):
        xs = np.linspace(0.2, 6.0, 37)
        h = 1e-5
        for n in (2, 3):
            fd = (gamma(xs + h, n) - gamma(xs - h, n)) / (2 * h)
            assert np.max(np.abs(fd - eta(xs, n))) <= 1e-8
        assert gamma(np.pi, 2) == 0.0

    def test_exact_values_at_pi(self):
        assert eta_prime_at_pi(2) == -1
        assert eta_prime_at_pi(3) == -3
        # third derivative of the closed form: (2n-2) - 4 = 2n - 6
        assert eta_triple_prime_at_pi(2) == -2
        assert abs(eta_triple_prime(np.pi, 2) - (-2.0)) <= 1e-12
        h = 1e-3
        fd3 = (eta_double_prime(np.pi + h, 2) - eta_double_prime(np.pi - h, 2)) / (2 * h)
        assert abs(fd3 - (-2.0)) <= 1e-5

    def test_pi_local_max_of_eta_prime(self):
        assert eta_prime(np.pi - 0.1, 2) < eta_prime(np.pi, 2)
        assert eta_prime(np.pi + 0.1, 2) < eta_prime(np.pi, 2)
        assert abs(eta_double_prime(np.pi, 2)) <= 1e-14

    def test_min_closed_form_vs_dense_sampling(self):
        xs = np.linspace(0.0, 2 * np.pi, 400001)
        for n in (2, 3, 5, 10):
            sampled = float(np.min(eta_prime(xs, n)))
            assert abs(sampled - min_eta_prime(n)) <= 1e-8


class TestClassifier:
    def test_borderline_at_two(self):
        rep = classify_uniqueness(2)
        assert rep.verdict == "borderline"
        assert rep.eta_prime_at_pi == -1.0
        assert rep.threshold == -1.0
        assert rep.min_eta_prime == -1.5

    def test_unique_at_three(self):
        assert classify_uniqueness(3).verdict == "unique"

    def test_unique_at_ten(self):
        rep = classify_uniqueness(10)
        assert rep.verdict == "unique"
        assert rep.min_eta_prime == -(2 * 10 - 3)

    def test_unique_range(self):
        for n in range(3, 51):
            rep = classify_uniqueness(n)
            assert rep.verdict == "unique"
            assert abs(rep.min_eta_prime - (3 - 2 * n)) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            classify_uniqueness(1)


class TestStationary:
    def test_residual_tiny(self):
        assert stationary_residual(1.0, [1.0], 2) <= 1e-12
        assert stationary_residual(1.0, [1.0], 5) <= 1e-12

    def test_dimension_independent(self):
        for n in range(2, 9):
            for alpha in (0.5, 1.0, 2.0):
                assert stationary_residual(alpha, [0.1, 1.0, 10.0], n) <= 1e-10

    def test_trivial(self):
        assert stationary_residual(0.0, [1.0], 4) == 0.0

    def test_an_alpha_whose_terms_overflow_is_refused(self):
        # alpha**3 overflows above 5.6e102, (alpha r)^4 above alpha r = 1.16e77
        with pytest.raises(DomainError, match="alpha=1e[+]200 overflows"):
            stationary_residual(1e200, [0.1, 1.0], 2)
        with pytest.raises(DomainError, match="alpha=2e[+]77 overflows"):
            stationary_residual(2e77, [0.1, 1.0], 2)
        with pytest.raises(DomainError, match="alpha=6e[+]102 overflows"):
            stationary_residual(6e102, [1e-200], 2)
        assert stationary_residual(1e77, [0.1, 1.0], 2) <= 1e-10

    def test_a_sample_whose_square_is_not_normal_is_refused(self):
        # r^2 underflows below about 1.5e-154, where eta/r^2 divided by zero
        # and the residual read inf; above about 1.3e154 it overflows
        with pytest.raises(DomainError, match=r"sample r=1e-200: r\^2 is not a normal float"):
            stationary_residual(1.0, [0.1, 1e-200], 2)
        with pytest.raises(DomainError, match=r"sample r=1e-155: r\^2 is not a normal float"):
            stationary_residual(1.0, [1e-155], 5)
        with pytest.raises(DomainError, match=r"sample r=1e\+160: r\^2 is not a normal float"):
            stationary_residual(1e-170, [1.0, 1e160], 2)
        assert stationary_residual(1.0, [1.5e-154], 2) <= 1e-14

    def test_exact_family_passes_near_the_origin(self):
        # relative to its largest term: the absolute residual, on terms of
        # size (2n-1)|g'|/r, read 7.45e-9 at r = 1e-6 and 3.05e-5 at 1e-10
        for n in range(2, 9):
            for r in (1e-6, 1e-10, 1e-100):
                assert stationary_residual(1.0, [r], n) <= 1e-14, (n, r)
        assert stationary_residual(0.0, [1e-100], 3) == 0.0

    def test_relative_residual_still_sees_a_defect(self, monkeypatch):
        # a 1% error in the potential reads 0.04% (r = 10, psi near pi) to 1%
        exact = eta
        monkeypatch.setattr(realflow, "eta", lambda x, n: 1.01 * exact(x, n))
        for r in (1e-100, 1e-6, 0.1, 1.0, 10.0):
            assert 3e-4 <= stationary_residual(1.0, [r], 3) <= 1e-2, r


class TestScalarSelfsim:
    def test_trivial_slope(self):
        # slope 0 takes the one integrator path: the exact zero solution
        # from the series start, on the steps the radial cap lets grow
        prof = solve_selfsim_real(0.0, 3, 10.0)
        assert prof.r[0] == DEFAULT_R0
        assert np.max(np.abs(prof.g)) == 0.0
        assert np.max(np.abs(prof.g_r)) == 0.0
        assert prof.sol.steps_accepted == prof.r.size - 1 > 0

    def test_monotone_and_below_pi(self):
        prof = solve_selfsim_real(2.0, 3, 12.0)
        assert np.all(np.diff(prof.g) >= -1e-10)
        assert prof.g.max() < np.pi

    def test_digitized_reference_points(self):
        # first reference curve: plot coordinates with both axes rescaled
        prof = solve_selfsim_real(2.0 * 0.25, 3, 2.6, rel_tol=1e-11)
        for x, y in ((0.24, 0.0636288), (2.4, 0.605552), (6.0, 1.2256)):
            g, _ = prof.eval(np.array([x * X_SCALE]))
            assert abs(g[0] / Y_SCALE - y) <= 2e-3


def _oracle_start(a, n):
    """(r0, g, g_r) of the series g = a r + c3 r^3 + c5 r^5 at r0 = min(1e-4, 1e-3/a),
    where the remainder is below 1e-20 of the data.  Matching powers of r with
    eta(g) = (2n-1) g - (n+1) g^3/3 + (n+7) g^5/60 + O(g^7): the O(r) balance
    6 c3 + 2(2n-1) c3 + a/2 + (n+1) a^3/3 = 0 gives c3, the O(r^3) one c5."""
    c3 = -a * (3.0 + 2.0 * (n + 1) * a * a) / (24.0 * (n + 1))
    c5 = a * (8.0 * (n + 1) * (n + 2) * a**4 + 20.0 * (n + 1) * a * a + 15.0) / (
        640.0 * (n + 1) * (n + 2))
    r0 = min(1e-4, 1e-3 / a)
    return r0, a * r0 + c3 * r0**3 + c5 * r0**5, a + 3.0 * c3 * r0**2 + 5.0 * c5 * r0**4


def _scalar_oracle(slope, n, r_max):
    """scipy DOP853 on g'' = -((2n-1)/r + r/2) g' + eta(g)/r^2 from `_oracle_start`."""
    k, m = 2 * n - 1, 2 * n - 2
    r0, g0, gp0 = _oracle_start(slope, n)

    def fun(r, y):
        g, gp = y
        return [gp, -(k / r + 0.5 * r) * gp + (m * math.sin(g) + 0.5 * math.sin(2 * g)) / r**2]

    sol = solve_ivp(fun, (r0, r_max), [g0, gp0], method="DOP853", rtol=1e-13, atol=1e-15,
                    dense_output=True)
    assert sol.success
    return sol.sol


def _log_radius_oracle(slope, n, r_max):
    """g from scipy DOP853 (rtol 1e-13) in s = log r, where the profile ODE reads
    g_ss = -(2n-2 + r^2/2) g_s + eta(g) with g_s = r g_r: no 1/r terms to
    cancel near the origin.  Started from `_oracle_start`."""
    m = 2 * n - 2
    r0, g0, gp0 = _oracle_start(slope, n)

    def fun(s, y):
        g, gs = y
        return [gs, -(m + 0.5 * math.exp(2 * s)) * gs + m * math.sin(g) + 0.5 * math.sin(2 * g)]

    sol = solve_ivp(fun, (math.log(r0), math.log(r_max)), [g0, r0 * gp0], method="DOP853",
                    rtol=1e-13, atol=1e-300, dense_output=True)
    assert sol.success
    return lambda r: sol.sol(np.log(r))[0]


def _long_reference(slope, n, r_max, monkeypatch, r0=None):
    """The profile in 80-bit arithmetic: the package's DOP853 steps on a
    longdouble state and an rhs written here, at rel_tol 1e-17 with the
    absolute error floor at 1e-22, from the 7th-order series (the
    coefficients TestSeriesCoefficients pins) at slope r0 = 1e-3 by default.
    On 40 profiles of the sweep's ranges it agreed with itself started
    10-100x closer to 3.3e-14.  scipy's float64 DOP853 at rtol 1e-13 cannot
    certify a 1e-12 tolerance: on 90 such profiles it missed this reference
    by up to 4.2e-12 on the log-radius form and 5e-11 on the direct form."""
    long = np.longdouble
    k, m = 2 * n - 1, 2 * n - 2
    a = long(slope)
    c3, c5, c7 = (long(c) for c in real_selfsim_ivp(slope, n).series)
    r0 = 1e-3 / slope if r0 is None else r0
    x = long(r0)
    y0 = np.array([a * x + c3 * x**3 + c5 * x**5 + c7 * x**7,
                   a + 3 * c3 * x**2 + 5 * c5 * x**4 + 7 * c7 * x**6])

    def fun(r, y):
        r = long(r)
        return np.array([y[1], -(k / r + r / 2) * y[1]
                         + (m * np.sin(y[0]) + np.sin(2 * y[0]) / 2) / (r * r)])

    with monkeypatch.context() as mp:
        mp.setattr(singular_ode, "ERROR_FLOOR", 1e-22)
        sol = integrate_rk(fun, r0, y0, r_max, rel_tol=1e-17)
    return lambda r: np.asarray(sol.eval(np.asarray(r, long))[:, 0], float)


def _sweep(count, seed):
    rng = np.random.default_rng(seed)
    return [(float(np.exp(rng.uniform(np.log(0.2), np.log(60.0)))), int(rng.integers(2, 6)),
             float(rng.uniform(2.55, 10.0)), float(rng.choice([1e-10, 1e-11])))
            for _ in range(count)]


def _node_sweep():
    """The twelve (slope, n, r_max, tol) draws of the node sweep."""
    rng = np.random.default_rng(11)
    draws = []
    for _ in range(12):
        slope = float(np.exp(rng.uniform(np.log(0.5), np.log(50.0))))
        n, r_max = int(rng.integers(2, 6)), float(rng.uniform(2.55, 10.0))
        draws.append((slope, n, r_max, float(rng.choice([1e-10, 1e-11, 1e-12]))))
    return draws


class TestRealArithmetic:
    """The scalar profiles run on a float state with a float rhs; the complex
    `real_selfsim_ivp` problem, solved from its `origin_start`, is their spec."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rhs_equals_the_complex_spec(self, n):
        rng = np.random.default_rng(100 * n + 1)
        spec = real_selfsim_ivp(1.0, n).rhs()
        mine = _selfsim_rhs(n)
        k = 2 * n - 1
        for _ in range(200):
            r = float(np.exp(rng.uniform(np.log(1e-4), np.log(15.0))))
            g, gp = rng.uniform(-4.0, 4.0), rng.uniform(-30.0, 30.0)
            want = np.array(spec(r, np.array([g, gp], dtype=complex)))
            got = mine(r, np.array([g, gp]))
            assert np.all(want.imag == 0.0)
            assert got[0] == want[0].real
            terms = (abs(0.5 * r * gp) + k * (abs(gp / r) + abs(g / r**2))
                     + (abs((2 * n - 2) * math.sin(g)) + abs(0.5 * math.sin(2 * g))
                        + abs(k * g)) / r**2)
            assert abs(got[1] - want[1].real) <= 4 * np.spacing(terms)

    def test_rhs_of_an_infinite_state_is_nan(self):
        # math.sin(inf) raises; the stage must read as non-finite instead
        assert math.isnan(_selfsim_rhs(3)(1.0, np.array([np.inf, 0.0]))[1])

    def test_solve_matches_the_complex_path(self):
        for slope, n, r_max, tol in _sweep(24, 7):
            prof = solve_selfsim_real(slope, n, r_max, rel_tol=tol)
            spec = solve_from_origin(real_selfsim_ivp(slope, n), r_max, tol)
            for arr in solution_content(prof.sol)[:4]:
                assert arr.dtype == np.float64
            # the same steps: node counts agree, and the end values to rounding
            # (rounding-level start-up steps shift interior nodes slightly)
            assert prof.r.size == spec.r.size
            assert prof.r[-1] == spec.r[-1] == r_max
            assert abs(prof.g[-1] - spec.y[-1, 0].real) <= 1e-13
            assert abs(prof.g_r[-1] - spec.y[-1, 1].real) <= 1e-13
            assert np.max(np.abs(prof.r - spec.r) / spec.r) <= 1e-4

    @pytest.mark.parametrize("slope,n,r_max,tol", [
        (22.113375001669648, 5, 10.0, 1e-10),   # the benchmark's scalar anchor
        (60.0, 5, 10.0, 1e-10), (2.0, 3, 10.0, 1e-10), (0.5, 3, 2.55, 1e-11)])
    def test_error_against_scipy_no_worse_than_complex(self, slope, n, r_max, tol):
        sol = _scalar_oracle(slope, n, r_max)
        prof = solve_selfsim_real(slope, n, r_max, rel_tol=tol)
        cplx = solve_from_origin(real_selfsim_ivp(slope, n), r_max, tol)
        ref_real, ref_cplx = sol(prof.r), sol(cplx.r)
        for mine, spec, row in ((prof.g, cplx.y[:, 0], 0), (prof.g_r, cplx.y[:, 1], 1)):
            ratio = np.max(np.abs(mine - ref_real[row])) / tol
            ratio_spec = np.max(np.abs(spec.real - ref_cplx[row])) / tol
            assert ratio <= 1.001 * ratio_spec + 1e-3
        assert np.max(np.abs(prof.g - ref_real[0])) / tol <= 10.0

    def test_reruns_are_bit_identical(self):
        a = solve_selfsim_real(22.113375001669648, 5, 10.0)
        b = solve_selfsim_real(22.113375001669648, 5, 10.0)
        for x, y in zip(solution_content(a.sol), solution_content(b.sol)):
            assert np.array_equal(x, y)

    def test_profile_refuses_a_non_finite_row(self):
        r = np.linspace(0.1, 1.0, 6)
        y = np.stack([r, np.ones_like(r)], axis=1)
        f = np.stack([y[:, 1], np.zeros_like(r)], axis=1)
        RealProfile(DenseSolution.from_nodes(r, y, f), 0.0)
        y[3, 1] = np.nan
        with pytest.raises(DomainError, match="non-finite values"):
            RealProfile(DenseSolution.from_nodes(r, y, f), 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            solve_selfsim_real(-1.0, 3, 5.0)
        with pytest.raises(DomainError):
            solve_selfsim_real(1.0, 1, 5.0)


class TestSeriesStart:
    """Scalar solves start from the closed-form 5th-order series at
    r0 = min(1e-2, 1e-2/slope) below ROUNDING_TOL."""

    def test_coefficients_match_a_sympy_series_solution(self):
        import sympy as sp

        r, a, n = sp.symbols("r a n", positive=True)
        cs = sp.symbols("c3 c5 c7")
        for drift in (True, False):
            g = a * r + cs[0] * r**3 + cs[1] * r**5 + cs[2] * r**7
            res = (sp.diff(g, r, 2) + ((2 * n - 1) / r + (r / 2 if drift else 0)) * sp.diff(g, r)
                   - ((2 * n - 2) * sp.sin(g) + sp.sin(2 * g) / 2) / r**2)
            powers = sp.expand(sp.series(res, r, 0, 7).removeO())
            exact = {}
            for p, c in zip((1, 3, 5), cs):
                exact[c] = sp.solve(powers.coeff(r, p).subs(exact), c)[0]
            for slope in (0.5, 2.0, 22.113375001669648, 2.0 * LIMIT_BETA):
                for nn in (2, 3, 4, 5):
                    mine = real_selfsim_ivp(slope, nn, drift=drift).series
                    for c, got in zip(cs, mine):
                        want = float(exact[c].subs({a: sp.Rational(slope), n: nn}))
                        assert abs(got - want) <= 1e-14 * abs(want), (drift, slope, nn, c)

    @pytest.mark.parametrize("drift", [True, False])
    @pytest.mark.parametrize("slope", [1e45, 1e60, 2e100, 2e160])
    def test_refuses_a_slope_whose_series_is_not_finite(self, slope, drift):
        # at n = 3 c7's products overflow to inf from slope 3e43 (1e44 without
        # drift), a2 ** 3 raises OverflowError from 2.4e51, and a2 is inf itself
        # from 1.4e154; each way the slope is named
        with pytest.raises(DomainError, match=re.escape(f"slope {slope!r} is out of range: its")):
            real_selfsim_ivp(slope, 3, drift=drift)
        assert all(map(math.isfinite, real_selfsim_ivp(1e40, 3, drift=drift).series))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="the reference needs an 80-bit long double")
    def test_long_reference_agrees_with_scipy(self, monkeypatch):
        # the 80-bit reference against itself started 100x closer, and against
        # scipy DOP853 on the log-radius form to what its float64 steps reach
        for slope, n, r_max in ((0.5, 2, 6.0), (11.969, 4, 6.34), (49.0, 2, 4.5)):
            r = np.linspace(0.05, r_max, 200)
            ref = _long_reference(slope, n, r_max, monkeypatch)(r)
            closer = _long_reference(slope, n, r_max, monkeypatch, r0=1e-5 / slope)(r)
            assert np.max(np.abs(ref - closer)) <= 1e-13
            assert np.max(np.abs(ref - _log_radius_oracle(slope, n, r_max)(r))) <= 1e-11

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="the reference needs an 80-bit long double")
    def test_sweep_within_tolerance_at_the_nodes(self, monkeypatch):
        for slope, n, r_max, tol in _node_sweep():
            prof = solve_selfsim_real(slope, n, r_max, rel_tol=tol)
            assert prof.r[0] == min(1e-2, 1e-2 / slope)
            ref = _long_reference(slope, n, r_max, monkeypatch)
            ratio = np.max(np.abs(prof.g - ref(prof.r))) / tol
            assert ratio <= 1.0, (slope, n, r_max, tol, ratio)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="the reference needs an 80-bit long double")
    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: DOP853's dense output has no error control between nodes; "
        "these draws read 4.09x and 1.72x tol there, 0.17x and 0.013x at the nodes"))
    @pytest.mark.parametrize("draw", [5, 11], ids=["6th", "12th"])
    def test_sweep_within_tolerance_between_nodes(self, monkeypatch, draw):
        # slope 18.84, n = 2, tol 1e-12 and slope 30.96, n = 3, tol 1e-11
        slope, n, r_max, tol = _node_sweep()[draw]
        prof = solve_selfsim_real(slope, n, r_max, rel_tol=tol)
        ref = _long_reference(slope, n, r_max, monkeypatch)
        r = (prof.r[:-1, None] + np.diff(prof.r)[:, None] * np.array([0.25, 0.5, 0.75])).ravel()
        g, _ = prof.eval(r)
        ratio = np.max(np.abs(g - ref(r))) / tol
        assert ratio <= 1.0, (slope, n, r_max, tol, ratio)

    def test_limit_label_profile(self):
        # slope 2000: slope DEFAULT_R0 = 0.2, where the cubic series started
        # the profile 6.5e-4 off; now r0 = 5e-6 and it is within its tolerance
        slope = 2.0 * LIMIT_BETA
        prof = solve_selfsim_real(slope, 3, 10.0)
        assert prof.r[0] == 5e-6
        assert np.max(np.abs(prof.g - _scalar_oracle(slope, 3, 10.0)(prof.r)[0])) <= 1e-10

    def test_nodes_fall_on_the_benchmark_jobs(self, monkeypatch):
        # against the same series started at DEFAULT_R0, on the scalar_batch
        # workload's seed-3 `realheat selfsim` jobs
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads

        nodes = old = 0
        for job in workloads.scalar_batch(3):
            c = job["check"]
            if c["type"] != "realheat_selfsim":
                continue
            nodes += solve_selfsim_real(c["slope"], c["n"], c["r_max"], rel_tol=c["tol"]).r.size
            f0, fp0 = series_start(real_selfsim_ivp(c["slope"], c["n"]), DEFAULT_R0)
            old += integrate_rk(_selfsim_rhs(c["n"]), DEFAULT_R0, np.array([f0.real, fp0.real]),
                                c["r_max"], rel_tol=c["tol"]).r.size
        assert nodes <= 0.9 * old


class TestComparisonSuite:
    def test_orderings_n3(self):
        rep = comparison_suite([0.25, 0.5, 1.0, 2.0], 3, 10.0)
        assert rep.passed
        assert not rep.informational

    def test_pair_ordering_at_unit_radius(self):
        p1 = solve_selfsim_real(2.0, 3, 5.0)
        p2 = solve_selfsim_real(4.0, 3, 5.0)
        g1, _ = p1.eval(np.array([1.0]))
        g2, _ = p2.eval(np.array([1.0]))
        assert g1[0] < g2[0]

    def test_large_label_approaches_pi(self):
        rep = comparison_suite([1.0], 3, 10.0)
        check = {c.name: c for c in rep.checks}["large_beta_near_pi"]
        assert check.passed

    def test_below_matched_stationary(self):
        prof = solve_selfsim_real(2.0 * 1.5, 3, 8.0)
        rr = np.linspace(0.05, 8.0, 300)
        g, _ = prof.eval(rr)
        assert np.max(g - stationary_profile(1.5, rr)) <= 1e-8

    def test_informational_flag_n2(self):
        rep = comparison_suite([0.5, 1.0], 2, 8.0)
        assert rep.informational

    def test_zero_label_passes_trivially(self):
        rep = comparison_suite([0.0, 0.5], 3, 6.0)
        assert rep.passed

    def test_empty_scans_keep_their_details(self):
        # no label but 0 has a matched stationary profile; one label has no pair
        zeros = {c.name: c.detail for c in comparison_suite([0.0, 0.0], 3, 5.0).checks}
        assert zeros["below_matched_stationary"] == \
            "max(phi - stationary) = -inf at (beta, r) = None"
        single = {c.name: c.detail for c in comparison_suite([1.5], 3, 5.0).checks}
        assert single["increasing_in_beta"] == \
            "max(phi_lo - phi_hi) = -inf at (beta_lo, beta_hi, r) = None"

    def test_each_label_is_evaluated_once(self, monkeypatch):
        calls = []
        original = RealProfile.eval

        def counting(self, r_query):
            calls.append(self)
            return original(self, r_query)

        monkeypatch.setattr(RealProfile, "eval", counting)
        comparison_suite([0.5, 1.0, 2.0], 3, 5.0)
        assert len(calls) == 3


class TestWitness:
    def test_zero_delta_zero_gap(self):
        rep = nonuniqueness_witness(1e-3, 0.0)
        assert rep.energy_gap == 0.0

    def test_gap_against_adaptive_quadrature_oracle(self):
        eps, delta = 1e-3, 0.05

        # 2[E(h) - E(pi)] for E = int (g_r^2/2 + gamma(g)/r^2) r^3 dr
        def integrand(r):
            f = f_kink(r, eps)
            fp = f_kink_derivative(r, eps)
            h = np.pi - delta / 2 * f
            return ((delta / 2 * fp) ** 2 + 2 * (gamma(h, 2) - gamma(np.pi, 2)) / r**2) * r**3

        # the same integrand from the energy density of the lift (sin h, 0, cos h)
        r = np.geomspace(1e-6, 1.0, 301)
        h = np.pi - delta / 2 * f_kink(r, eps)
        h_r = -delta / 2 * f_kink_derivative(r, eps)
        lift = np.stack([np.sin(h), np.zeros_like(h), np.cos(h)], axis=-1)
        lift_r = h_r[:, None] * np.stack([np.cos(h), np.zeros_like(h), -np.sin(h)], axis=-1)
        equator = np.tile([0.0, 0.0, -1.0], (r.size, 1))
        from_density = 2 * (energy_density_arr(lift, lift_r, r, 2)
                            - energy_density_arr(equator, np.zeros_like(equator), r, 2)) * r**3
        # relative to the equator's potential term 8 r, which both forms cancel
        assert np.max(np.abs(integrand(r) - from_density) / (8 * r)) <= 1e-12

        oracle = sum(quad(integrand, a, b, limit=400)[0]
                     for a, b in ((0, eps), (eps, 0.5), (0.5, 1)))
        mine = witness_energy_gap(eps, delta, quad_nodes=20000)
        assert abs(mine - oracle) <= 1e-6 * max(1.0, abs(oracle))

    def test_hardy_saturation_against_closed_form(self):
        # piecewise integrals in closed form:
        # int |f'|^2 r^3 = log(1/(2 eps)) + 15/4
        # int |f/r|^2 r^3 = 1/2 + log(1/(2 eps)) + 5/12
        for eps in (1e-2, 1e-4, 1e-6):
            closed = (np.log(1 / (2 * eps)) + 15 / 4) / (np.log(1 / (2 * eps)) + 11 / 12)
            assert abs(hardy_saturation_ratio(eps, quad_nodes=20000) - closed) <= 2e-3

    def test_hardy_saturation_decreases_to_one(self):
        ratios = [hardy_saturation_ratio(10.0**-k) for k in range(2, 9)]
        assert all(a > b for a, b in zip(ratios[:-1], ratios[1:]))
        assert all(r > 1.0 for r in ratios)
        fitted_B = [(r - 1.0) * abs(np.log(10.0**-k)) for k, r in zip(range(2, 9), ratios)]
        assert max(fitted_B) <= 3.0   # bounded B: ratio <= 1 + B/|log eps|

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            nonuniqueness_witness(0.7, 0.1)
        with pytest.raises(DomainError):
            nonuniqueness_witness(1e-3, 0.9)

    def test_taylor_domination_normalizations(self):
        # the literal quadratic weight admits no radius; the halved weight
        # works exactly when C < 1/12
        assert taylor_domination_delta(0.2, quadratic_coefficient=1.0) is None
        assert taylor_domination_delta(0.05, quadratic_coefficient=1.0) is None
        assert taylor_domination_delta(0.2, quadratic_coefficient=0.5) is None
        assert taylor_domination_delta(0.05, quadratic_coefficient=0.5) == 0.5

    def test_searched_gap_is_positive(self):
        # the kink family does not undercut the equator under the flow's
        # energy: the gap is about (delta/2)^2 times the Hardy deficit 17/6
        best, arg = search_negative_gap([1e-2, 1e-4, 1e-6], 0.05, quad_nodes=4000)
        assert best > 0.0
        assert arg is not None


class TestFigureFit:
    def test_fitted_convention(self):
        fit = fit_convention()
        assert fit.n == 3
        assert fit.slope_factor == 2.0
        assert fit.max_err <= 1e-4

    def test_wrong_conventions_are_worse(self):
        fit = fit_convention()
        right = fit.per_candidate[(3, 2.0)]
        for key, err in fit.per_candidate.items():
            if key != (3, 2.0):
                assert err > 10 * right

    def test_most_curves_reproduce_to_plot_accuracy(self):
        good = 0
        points = 0
        for lbl in (0.25, 0.5, 1.0, 2.0, 4.5, 10.0, 30.0):
            err = curve_error(lbl, 3, 2.0)
            if err <= 2e-3:
                good += 1
                points += FIGURE_CURVES[lbl].shape[0]
        assert good >= 4
        assert points >= 20

    def test_reproduce_curves_output(self):
        fit = fit_convention(rel_tol=1e-10)
        assert fit.n == 3 and fit.slope_factor == 2.0
        data = fit.curves[0.25]
        assert data.shape[1] == 3
        assert np.max(np.abs(data[:, 1] - data[:, 2])) <= 2e-3
