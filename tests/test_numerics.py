import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gllflow
from gllflow._numerics import (central_difference3, check_grid, cumquad0,
                               derivative_nonuniform, fd_weights, frame_rates, hermite_eval,
                               radial_integral, require_dimension, require_positive,
                               stencil_weights, weighted_norms)
from gllflow.errors import DomainError, GridError
from gllflow.geometry import FlowParams
from gllflow.hasimoto import eigenfunction_check
from gllflow.realflow import (classify_uniqueness, comparison_suite, real_selfsim_ivp,
                              solve_selfsim_real, stationary_residual)
from gllflow.selfsim import solve_profile
from gllflow.singular_ode import DenseSolution


def _graded(N, r_max=12.0):
    return r_max * np.linspace(0.0, 1.0, N) ** 1.7


def _per_node_derivative(x, y, order, stencil=5):
    """One scalar Fornberg recursion per node: the reference for the batched
    stencils."""
    n = x.size
    out = np.zeros(y.shape, dtype=np.result_type(y.dtype, float))
    half = stencil // 2
    for i in range(n):
        lo = min(max(i - half, 0), n - stencil)
        w = fd_weights(x[lo:lo + stencil], x[i], order)[order]
        out[i] = np.tensordot(w, y[lo:lo + stencil], axes=(0, 0))
    return out


class TestStencils:
    @pytest.mark.parametrize("order", [1, 2])
    def test_batched_weights_equal_per_node_recursion(self, order):
        x = _graded(401)
        W, lo = stencil_weights(x, order)
        assert W.shape == (401, 5)
        assert lo[0] == 0 and lo[-1] == 401 - 5 and lo[200] == 198
        for i in range(x.size):
            ref = fd_weights(x[lo[i]:lo[i] + 5], x[i], order)[order]
            assert np.array_equal(W[i], ref), i

    @pytest.mark.parametrize("order", [1, 2])
    def test_derivative_matches_per_node_loop(self, order, rng):
        # the two sum the same five products in a different order, so they
        # agree to rounding relative to sum_j |W_ij y_j|, which carries the
        # 1/h^order cancellation near the graded origin
        x = _graded(401)
        W, lo = stencil_weights(x, order)
        window = lo[:, None] + np.arange(5)
        real = np.stack([np.sin(x), np.cos(2 * x), np.exp(-0.3 * x)], axis=1)
        real = real + 1e-3 * rng.normal(size=real.shape)
        cplx = x * np.exp(1j * x) + 1e-3 * (rng.normal(size=x.size)
                                            + 1j * rng.normal(size=x.size))
        for y in (real, cplx):
            got = derivative_nonuniform(x, y, order=order)
            ref = _per_node_derivative(x, y, order)
            assert got.shape == y.shape and got.dtype == ref.dtype
            scale = np.einsum("ij,ij...->i...", np.abs(W), np.abs(y[window]))
            assert np.max(np.abs(got - ref) / scale) <= 1e-14

    @pytest.mark.parametrize("N", [3, 5, 6, 201])
    @pytest.mark.parametrize("points", [3, 5, 9])
    def test_slices_equal_the_gather_form_bytewise(self, N, points, rng):
        # sum_j W[:, j] y[lo + j] with every window gathered: the same
        # products added in the same order as the sliced centred rows
        x = _graded(N)
        shapes = [(N,), (N, 4), (N, 7, 3)]
        ys = [rng.normal(size=s) for s in shapes]
        ys += [y + 1j * rng.normal(size=y.shape) for y in ys]
        for order in range(1, min(points, N)):
            W, lo = stencil_weights(x, order, points)
            for y in ys:
                Wb = W.reshape(W.shape + (1,) * (y.ndim - 1))
                want = Wb[:, 0] * y[lo]
                for j in range(1, W.shape[1]):
                    want += Wb[:, j] * y[lo + j]
                got = derivative_nonuniform(x, y, order=order, points=points)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (order, y.shape, y.dtype)

    @pytest.mark.parametrize("order", [1, 2])
    def test_peak_allocation_stays_within_three_inputs(self, order, rng):
        # a residual's frame stack, (401, 21, 3): the sliced centred rows
        # peak at 2.5x y.nbytes, where gathering every window reads 3.5x
        x, y = _graded(401), rng.normal(size=(401, 21, 3))
        derivative_nonuniform(x, y, order=order)
        tracemalloc.start()
        try:
            derivative_nonuniform(x, y, order=order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * y.nbytes

    @pytest.mark.parametrize("order,expected", [(1, 3.9), (2, 2.9)])
    def test_convergence_order_on_graded_grid(self, order, expected):
        f = lambda x: np.sin(x) * np.exp(-0.1 * x)
        exact = {
            1: lambda x: (np.cos(x) - 0.1 * np.sin(x)) * np.exp(-0.1 * x),
            2: lambda x: (-0.99 * np.sin(x) - 0.2 * np.cos(x)) * np.exp(-0.1 * x),
        }[order]
        errs = []
        for N in (201, 401, 801):
            x = _graded(N)
            errs.append(np.max(np.abs(derivative_nonuniform(x, f(x), order=order) - exact(x))))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= expected), orders

    def test_nine_points_give_an_eighth_order_first_derivative(self):
        f = lambda x: np.sin(x) * np.exp(-0.1 * x)
        exact = lambda x: (np.cos(x) - 0.1 * np.sin(x)) * np.exp(-0.1 * x)
        errs = [np.max(np.abs(derivative_nonuniform(x, f(x), points=9) - exact(x)))
                for x in map(_graded, (101, 201, 401))]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 7.5), orders

    def test_short_grid_and_too_small_stencil(self):
        x = np.array([0.0, 0.5, 1.5])
        # three nodes: the stencil shrinks to the grid and is exact on quadratics
        assert np.allclose(derivative_nonuniform(x, x**2), 2 * x, atol=1e-13)
        with pytest.raises(GridError):
            derivative_nonuniform(x[:2], x[:2], order=2)

    def test_scalar_fd_weights(self):
        w = fd_weights([-1.0, 0.0, 1.0], 0.0, 2)
        assert np.allclose(w, [[0, 1, 0], [-0.5, 0, 0.5], [1, -2, 1]], atol=1e-15)


class TestWeightedNorms:
    def test_matches_the_per_module_formulas(self, rng):
        # the formulas the helper replaced, for real (N, 3) and complex (N,)
        rr = np.sort(rng.uniform(0.1, 5.0, 60))
        res = rng.normal(size=(60, 3))
        mag2 = np.sum(res**2, axis=1)
        expected = (float(np.sqrt(np.trapezoid(mag2 * rr**3, rr))), float(np.sqrt(np.max(mag2))))
        assert weighted_norms(res, rr, 2, 0) == expected
        z = rng.normal(size=60) + 1j * rng.normal(size=60)
        mag2 = np.abs(z) ** 2
        expected = (float(np.sqrt(np.trapezoid(mag2 * rr**5, rr))), float(np.sqrt(np.max(mag2))))
        assert weighted_norms(z, rr, 3, 0) == expected

    def test_margin_drops_end_nodes(self, rng):
        rr = np.sort(rng.uniform(0.1, 5.0, 60))
        res = rng.normal(size=(60, 3))
        res[:4] = res[-4:] = 1e6        # only the dropped nodes are large
        assert weighted_norms(res, rr, 2, 4) == weighted_norms(res[4:-4], rr[4:-4], 2, 0)
        assert weighted_norms(res, rr, 2, 4)[1] < 10.0


class TestRadialMeasure:
    def test_radial_integral_is_the_weighted_trapezoid(self, rng):
        # the expression the written-out integrals used, bit for bit
        r = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 5.0, 59))])
        values = rng.normal(size=60)
        for d in (2, 4, 6):
            assert radial_integral(values, r, d) == np.trapezoid(values * r ** (d - 1), r)

    def test_each_rule_is_defined_once(self):
        # the radial measure, the positivity guard and the residual report
        # live in _numerics, the check row in manifest; every module calls them
        package = Path(gllflow.__file__).parent
        homes = {"np.trapezoid(": "_numerics.py", "def require_positive": "_numerics.py",
                 "class ResidualReport": "_numerics.py", "class CheckResult": "manifest.py"}
        for path in sorted(package.glob("*.py")):
            text = path.read_text()
            for token, home in homes.items():
                assert text.count(token) == (path.name == home), (path.name, token)


class TestGuards:
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_require_positive_names_the_value(self, value):
        require_positive(a=1.0, b=5e-324)
        with pytest.raises(DomainError, match=f"need 0 < b < inf, got {value!r}"):
            require_positive(a=1.0, b=value)

    @pytest.mark.parametrize("x,why", [([0.0], "two nodes"), ([0.0, 2.0, 1.0], "increasing"),
                                       ([0.0, 1.0, np.inf], "non-finite"),
                                       ([-1.0, 0.5, 1.0], "starts at r = -1.0 < 0")])
    def test_check_grid_refuses(self, x, why):
        with pytest.raises(GridError, match=why):
            check_grid(x)

    @pytest.mark.parametrize("n", [np.nan, 2.5, np.inf, 3.0])
    def test_every_dimension_argument_is_an_integer(self, n):
        callers = [lambda: FlowParams(n, 1.0, 0.0), lambda: classify_uniqueness(n),
                   lambda: real_selfsim_ivp(1.0, n), lambda: solve_selfsim_real(1.0, n, 3.0),
                   lambda: comparison_suite([1.0], n, 5.0),
                   lambda: stationary_residual(1.0, [1.0], n),
                   lambda: eigenfunction_check(n, sample_count=1)]
        for call in callers:
            with pytest.raises(DomainError, match=f"need an integer n >= ., got {n!r}"):
                call()

    def test_require_dimension_takes_integers_from_its_least(self):
        for n in (2, np.int64(2), 7):
            require_dimension(n, 2)
        with pytest.raises(DomainError, match="need an integer n >= 2, got 1"):
            require_dimension(1, 2)
        assert FlowParams(np.int64(3), 1.0, 0.0).n == 3
        assert classify_uniqueness(np.int64(3)).verdict == "unique"
        assert stationary_residual(1.0, [1.0], np.int64(3)) <= 1e-12

    def test_check_grid_accepts_the_origin(self):
        assert check_grid([0, 1]).tolist() == [0.0, 1.0]


class TestCentralDifference3:
    def test_exact_on_quadratics_with_unequal_spacing(self, rng):
        for _ in range(20):
            c0, c1, c2 = rng.normal(size=3)
            t0 = rng.uniform(-1.0, 1.0)
            h_m, h_p = rng.uniform(0.01, 1.0, size=2)

            def q(t):
                return c0 + c1 * t + c2 * t**2
            got = central_difference3(q(t0 - h_m), q(t0), q(t0 + h_p), h_m, h_p)
            assert got == pytest.approx(c1 + 2 * c2 * t0, rel=1e-10, abs=1e-10)

    def test_arrays_and_the_centred_limit(self, rng):
        y_m, y_0, y_p = rng.normal(size=(3, 7, 3))
        got = central_difference3(y_m, y_0, y_p, 0.25, 0.25)
        assert got.shape == (7, 3)
        assert np.allclose(got, (y_p - y_m) / 0.5, rtol=1e-14, atol=1e-14)


class TestFrameRates:
    def test_one_central_difference_per_interior_frame(self, rng):
        times = np.cumsum(rng.uniform(0.1, 1.0, 6))
        values = [rng.normal(size=(9, 3)) for _ in times]
        got = list(frame_rates(values, times))
        assert [k for k, _ in got] == [1, 2, 3, 4]
        for k, rate in got:
            want = central_difference3(values[k - 1], values[k], values[k + 1],
                                       times[k] - times[k - 1], times[k + 1] - times[k])
            assert np.array_equal(rate, want)

    def test_fewer_than_three_frames_refused_at_the_call(self):
        with pytest.raises(DomainError):
            frame_rates([np.zeros(4), np.ones(4)], [0.0, 1.0])


class TestNoExtrapolation:
    """Hermite evaluation refuses queries outside the node range instead of
    extrapolating the end cubics; the ends themselves are inside."""

    def _outside(self, rng, lo, hi):
        width = hi - lo
        return np.concatenate([lo - width * rng.uniform(1e-6, 0.5, 3),
                               hi + width * rng.uniform(1e-6, 0.5, 3)])

    def test_hermite_eval(self, rng):
        x = np.sort(rng.uniform(0.0, 3.0, 20))
        y, d = np.sin(x), np.cos(x)
        val = hermite_eval(x[[0, -1]], x, y, d)
        assert np.array_equal(val, y[[0, -1]])
        for xq in np.append(self._outside(rng, x[0], x[-1]), np.nan):
            with pytest.raises(DomainError):
                hermite_eval(np.array([x[5], xq]), x, y, d)

    def test_profile_evaluators(self, rng):
        r = np.linspace(0.1, 5.0, 40)
        y = np.stack([np.sin(r), np.cos(r)], axis=1).astype(complex)
        dense = DenseSolution.from_nodes(r, y, np.stack([y[:, 1], -y[:, 0]], axis=1))
        sphere = solve_profile((1.0, 0.0), FlowParams(2, 1.0, 0.0), 5.0)
        scalar = solve_selfsim_real(2.0, 3, 2.0)
        for name, ev, nodes in (("DenseSolution.eval", dense.eval, dense.r),
                                ("SelfSimProfile.eval", sphere.eval, sphere.r),
                                ("RealProfile.eval", scalar.eval, scalar.r)):
            ev(nodes[[0, -1]])
            for xq in self._outside(rng, nodes[0], nodes[-1]):
                with pytest.raises(DomainError):
                    ev(np.array([xq]))
                    pytest.fail(f"{name} extrapolated to r = {xq!r}")


class TestCumquad0:
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_exact_on_quadratics_on_a_graded_grid(self, kind, rng):
        # parabolic cells integrate quadratics exactly; what is left is
        # rounding, which the cell-local weights keep from cancelling at
        # b - a << b (absolute-coordinate weights F(b) - F(a) lost ~5 digits)
        x = _graded(201, 3.0)
        c = rng.normal(size=(3, 2))
        if kind == "complex":
            c = c + 1j * rng.normal(size=(3, 2))
        X = x[:, None]
        y = c[0] + c[1] * X + c[2] * X**2
        Q = c[0] * X + c[1] * X**2 / 2 + c[2] * X**3 / 3
        out = cumquad0(y, x)
        assert out.shape == (201, 2) and out.dtype == y.dtype
        assert np.all(out[0] == 0.0)
        assert np.max(np.abs(out - Q)) <= 1e-13 * np.max(np.abs(Q))

    def test_convergence_order_on_graded_grid(self):
        # local O(h^4) per cell, summed over O(1/h) cells: third order
        errs = []
        for N in (101, 201, 401, 801):
            x = _graded(N, 3.0)
            exact = 0.5 - 0.5 * np.exp(-x) * (np.sin(x) + np.cos(x))
            errs.append(np.max(np.abs(cumquad0(np.sin(x) * np.exp(-x), x) - exact)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 2.8), orders

    def test_two_nodes_refused(self):
        with pytest.raises(GridError):
            cumquad0(np.array([1.0, 2.0]), np.array([0.0, 1.0]))
