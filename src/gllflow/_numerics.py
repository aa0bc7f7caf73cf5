"""Small numerical kernels shared by the solver and residual modules.

Everything here operates on plain numpy arrays (real or complex) and is
deterministic: no randomness, no iteration-order ambiguity.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DomainError, GridError

STENCIL = 5     # points of every sliding finite-difference stencil (4th order)


def require_positive(**values):
    """DomainError naming the first of the values outside (0, inf)."""
    for name, value in values.items():
        if not 0 < value < np.inf:  # NaN too
            raise DomainError(f"need 0 < {name} < inf, got {value!r}")


def require_dimension(n, least):
    """DomainError naming n unless it is an int (numpy's too) >= least: NaN, 2.5, 3.0 fail."""
    if not (isinstance(n, (int, np.integer)) and n >= least):
        raise DomainError(f"need an integer n >= {least}, got {n!r}")


def check_grid(x):
    """x as a float radial grid: at least two finite, strictly increasing
    nodes from r >= 0 (a grid may start at the origin)."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise GridError("grid needs at least two nodes")
    if not np.all(np.diff(x) > 0):
        raise GridError("grid must be strictly increasing")
    if not np.all(np.isfinite(x)):
        raise GridError("grid contains non-finite nodes")
    if x[0] < 0.0:
        raise GridError(f"radial grid starts at r = {float(x[0])!r} < 0")
    return x


def cumquad0(y, x):
    """Cumulative integral with piecewise-parabolic cells, 0 at the first node.

    Each cell [x_i, x_{i+1}] integrates the Lagrange parabola through three
    neighbouring nodes (local error O(h^4)); needed where a cumulative
    integral gets divided by r^2 near a singular origin, where trapezoid
    accuracy is not enough.  Needs at least 3 nodes.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    n = x.size
    if n < 3:
        raise GridError("cumulative parabolic quadrature needs at least 3 nodes")
    # stencil (j0,j1,j2) for cell i: (i-1,i,i+1), first cell uses (0,1,2)
    i = np.arange(n - 1)
    j0 = np.maximum(i - 1, 0)
    j1 = j0 + 1
    j2 = j0 + 2
    a = x[:-1]
    h = x[1:] - a
    x0, x1, x2 = x[j0], x[j1], x[j2]

    def basis_integral(xk, xp, xq):
        # integral over [a, a+h] of (t-xp)(t-xq) / ((xk-xp)(xk-xq)) in s = t - a;
        # absolute coordinates, F(a+h) - F(a), would cancel where h << a
        dp, dq = a - xp, a - xq
        return (h**3 / 3.0 + (dp + dq) * h**2 / 2.0 + dp * dq * h) / ((xk - xp) * (xk - xq))

    w0 = basis_integral(x0, x1, x2)
    w1 = basis_integral(x1, x0, x2)
    w2 = basis_integral(x2, x0, x1)
    if y.ndim > 1:
        w0 = w0.reshape((-1,) + (1,) * (y.ndim - 1))
        w1 = w1.reshape((-1,) + (1,) * (y.ndim - 1))
        w2 = w2.reshape((-1,) + (1,) * (y.ndim - 1))
    cells = w0 * y[j0] + w1 * y[j1] + w2 * y[j2]
    out = np.zeros(y.shape, dtype=np.result_type(y.dtype, float))
    out[1:] = np.cumsum(cells, axis=0)
    return out


def _fornberg(X, x0, m):
    """Fornberg weights for derivatives 0..m, one stencil per row.

    X: (P, s) stencil nodes, x0: (P,) evaluation points.  Returns c of
    shape (m+1, s, P): c[k, j, p] weights X[p, j] in the k-th derivative
    at x0[p].  The recursion of Fornberg (1988) with every scalar replaced
    by a length-P array: it runs once for all rows, and as every operation
    is elementwise, each row is bit for bit what the scalar recursion
    gives for that stencil alone.
    """
    P, n = X.shape
    c = np.zeros((m + 1, n, P))
    c1 = np.ones(P)
    c4 = X[:, 0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = np.ones(P)
        c5 = c4
        c4 = X[:, i] - x0
        for j in range(i):
            c3 = X[:, i] - X[:, j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[k, i] = c1 * (k * c[k - 1, i - 1] - c5 * c[k, i - 1]) / c2
                c[0, i] = -c1 * c5 * c[0, i - 1] / c2
            for k in range(mn, 0, -1):
                c[k, j] = (c4 * c[k, j] - k * c[k - 1, j]) / c3
            c[0, j] = c4 * c[0, j] / c3
        c1 = c2
    return c


def fd_weights(x, x0, m):
    """Fornberg weights for derivatives 0..m at x0 from nodes x.

    Returns an array of shape (m+1, len(x)); row k gives the k-th
    derivative weights. Standard recursion, exact for polynomials of
    degree len(x)-1.
    """
    x = np.asarray(x, dtype=float)
    return _fornberg(x[None, :], np.array([float(x0)]), m)[:, :, 0]


def stencil_weights(x, order, points=STENCIL):
    """Sliding-stencil weights for the order-th derivative at every node.

    Returns (W, lo): W is (N, s) and row i weights y[lo[i]:lo[i]+s], the
    window of s = points nodes (fewer on a shorter grid) centred on i
    where the grid allows, else pushed inward at the ends.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    stencil = min(points, n)
    if stencil <= order:
        raise GridError("stencil too small for requested derivative order")
    lo = np.clip(np.arange(n) - stencil // 2, 0, n - stencil)
    X = x[lo[:, None] + np.arange(stencil)]
    return _fornberg(X, x, order)[order].T, lo


def derivative_nonuniform(x, y, order=1, points=STENCIL):
    """order-th derivative of samples y(x) at every node, nonuniform grid.

    Uses a sliding Fornberg stencil of `points` nodes (by default STENCIL:
    4th-order accurate for the first derivative on smooth grids). y may be
    complex and have trailing axes: (N, k) columns, (N, F, 3) frames.
    Row i sums W[i, j] y[lo[i] + j] in order of j; the centred rows read
    slices of y, and only the pushed-in end rows gather their windows.
    """
    W, lo = stencil_weights(x, order, points)
    y = np.asarray(y)
    (n, s), W = W.shape, W.reshape(W.shape + (1,) * (y.ndim - 1))
    h, m = s // 2, n - s + 1        # rows h .. h+m-1 have centred windows
    out = np.empty(y.shape, np.result_type(W, y))
    mid, W_mid = out[h:h + m], W[h:h + m]
    ends = np.r_[:h, h + m:n]
    np.multiply(W_mid[:, 0], y[:m], out=mid)
    out[ends] = W[ends, 0] * y[lo[ends]]
    for j in range(1, s):
        mid += W_mid[:, j] * y[j:j + m]
        out[ends] += W[ends, j] * y[lo[ends] + j]
    return out


def central_difference3(y_m, y_0, y_p, h_m, h_p):
    """First derivative at the middle of three samples spaced h_m, h_p apart.

    (h_m^2 (y_p - y_0) + h_p^2 (y_0 - y_m)) / (h_m h_p (h_m + h_p)): the
    derivative of the interpolating parabola, so second-order accurate for
    unequal spacings too (exact for quadratics), where (y_p - y_m) /
    (h_m + h_p) is only first order.
    """
    return (h_m**2 * (y_p - y_0) + h_p**2 * (y_0 - y_m)) / (h_m * h_p * (h_m + h_p))


def frame_rates(values, times):
    """(k, d values/dt at frame k) for each interior stored frame k, one at a time.

    values[k] is sampled at times[k]; each rate is central_difference3 over
    frame k's two neighbours, second order also at an uneven last interval.
    """
    if len(values) < 3:
        raise DomainError("a time rate needs at least 3 stored frames")
    return ((k, central_difference3(values[k - 1], values[k], values[k + 1],
                                    times[k] - times[k - 1], times[k + 1] - times[k]))
            for k in range(1, len(values) - 1))


def radial_integral(values, r, d):
    """int values r^{d-1} dr on the nodes r, by the trapezoid rule: the radial
    part of an integral over R^d (times the sphere measure for the whole)."""
    return np.trapezoid(values * r ** (d - 1), r)


def weighted_norms(res, r, n, margin):
    """(L2, Linf) of a residual on the nodes r, L2 with the r^{2n-1} dr weight.

    res is (N,) or (N, k), real or complex; its pointwise magnitude sums
    |res|^2 over the trailing axes, and the L2 integral is `radial_integral`.
    margin nodes are dropped at each end, where one-sided stencils sit.
    """
    sl = slice(margin, len(r) - margin)
    res, r = res[sl], r[sl]
    mag2 = np.sum(np.abs(res) ** 2, axis=tuple(range(1, np.ndim(res))))
    l2 = float(np.sqrt(radial_integral(mag2, r, 2 * n)))
    return l2, float(np.sqrt(np.max(mag2)))


class ResidualReport(NamedTuple):
    """`weighted_norms` of a residual per certified frame, with the frames' times."""

    times: np.ndarray
    l2: np.ndarray        # weighted L2 (r^{2n-1} dr) over interior nodes
    linf: np.ndarray

    @property
    def max_l2(self):
        return float(np.max(self.l2))

    @property
    def max_linf(self):
        return float(np.max(self.linf))


def locate(xq, x):
    """(idx, s): the cell [x[idx], x[idx+1]] of each query and its position
    s in [0, 1] there.  x: (N,) increasing nodes.  A query outside
    [x[0], x[-1]] (or NaN) raises DomainError: nothing is extrapolated.
    """
    xq = np.atleast_1d(np.asarray(xq, dtype=float))
    if not np.all((xq >= x[0]) & (xq <= x[-1])):
        raise DomainError(f"interpolation query outside the node range [{x[0]}, {x[-1]}]")
    idx = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
    return idx, (xq - x[idx]) / (x[idx + 1] - x[idx])


def hermite_eval(xq, x, y, d, cell=None):
    """Evaluate the piecewise cubic Hermite interpolant of values y and
    derivatives d, shape (N,) or (N, k), on the nodes x (see `locate`).
    cell is `locate(xq, x)` where the caller has it already.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    d = np.asarray(d)
    idx, s = locate(xq, x) if cell is None else cell
    h = x[idx + 1] - x[idx]
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s**2 * (3 - 2 * s)
    h11 = s**2 * (s - 1)
    if y.ndim > 1:
        sh = (-1,) + (1,) * (y.ndim - 1)
        h00, h10, h01, h11, h = (w.reshape(sh) for w in (h00, h10, h01, h11, h))
    return h00 * y[idx] + h10 * h * d[idx] + h01 * y[idx + 1] + h11 * h * d[idx + 1]


def sphere_surface_measure(d):
    """Measure of the unit sphere S^{d-1} in R^d: 2 pi^{d/2} / Gamma(d/2)."""
    from math import gamma, pi

    return 2.0 * pi ** (d / 2.0) / gamma(d / 2.0)
