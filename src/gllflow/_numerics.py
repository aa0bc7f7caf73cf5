"""Small numerical kernels shared by the solver and residual modules.

Everything here operates on plain numpy arrays (real or complex) and is
deterministic: no randomness, no iteration-order ambiguity.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, GridError

STENCIL = 5     # points of every sliding finite-difference stencil (4th order)


def check_grid(x):
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise GridError("grid needs at least two nodes")
    if not np.all(np.diff(x) > 0):
        raise GridError("grid must be strictly increasing")
    if not np.all(np.isfinite(x)):
        raise GridError("grid contains non-finite nodes")
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


def stencil_weights(x, order):
    """Sliding-stencil weights for the order-th derivative at every node.

    Returns (W, lo): W is (N, s) and row i weights y[lo[i]:lo[i]+s], the
    window of s = STENCIL nodes (fewer on a shorter grid) centred on i
    where the grid allows, else pushed inward at the ends.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    stencil = min(STENCIL, n)
    if stencil <= order:
        raise GridError("stencil too small for requested derivative order")
    lo = np.clip(np.arange(n) - stencil // 2, 0, n - stencil)
    X = x[lo[:, None] + np.arange(stencil)]
    return _fornberg(X, x, order)[order].T, lo


def derivative_nonuniform(x, y, order=1):
    """order-th derivative of samples y(x) at every node, nonuniform grid.

    Uses a sliding Fornberg stencil of STENCIL points (4th-order accurate
    for the first derivative on smooth grids). y may be complex or an
    (N, k) array of columns.
    """
    W, lo = stencil_weights(x, order)
    y = np.asarray(y)
    W = W.reshape(W.shape + (1,) * (y.ndim - 1))
    out = W[:, 0] * y[lo]
    for j in range(1, W.shape[1]):
        out = out + W[:, j] * y[lo + j]
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


def weighted_norms(res, r, n, margin):
    """(L2, Linf) of a residual on the nodes r, L2 with the r^{2n-1} dr weight.

    res is (N,) or (N, k), real or complex; its pointwise magnitude sums
    |res|^2 over the trailing axes, and the L2 integral is a trapezoid.
    margin nodes are dropped at each end, where one-sided stencils sit.
    """
    sl = slice(margin, len(r) - margin)
    res, r = res[sl], r[sl]
    mag2 = np.sum(np.abs(res) ** 2, axis=tuple(range(1, np.ndim(res))))
    l2 = float(np.sqrt(np.trapezoid(mag2 * r ** (2 * n - 1), r)))
    return l2, float(np.sqrt(np.max(mag2)))


def hermite_eval(xq, x, y, d):
    """Evaluate the piecewise cubic Hermite interpolant (and derivative).

    x: (N,) increasing nodes; y, d: values and derivatives at the nodes,
    shape (N,) or (N, k). Returns (H(xq), H'(xq)). A query outside
    [x[0], x[-1]] (or NaN) raises DomainError: the end cubics are not
    extrapolated.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    d = np.asarray(d)
    xq = np.atleast_1d(np.asarray(xq, dtype=float))
    if not np.all((xq >= x[0]) & (xq <= x[-1])):
        raise DomainError(f"interpolation query outside the node range [{x[0]}, {x[-1]}]")
    idx = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
    h = x[idx + 1] - x[idx]
    s = (xq - x[idx]) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s**2 * (3 - 2 * s)
    h11 = s**2 * (s - 1)
    g00 = 6 * s * (s - 1) / h
    g10 = (1 - s) * (1 - 3 * s)
    g01 = -6 * s * (s - 1) / h
    g11 = s * (3 * s - 2)
    if y.ndim > 1:
        sh = (-1,) + (1,) * (y.ndim - 1)
        h00, h10, h01, h11 = (w.reshape(sh) for w in (h00, h10, h01, h11))
        g00, g10, g01, g11 = (w.reshape(sh) for w in (g00, g10, g01, g11))
        h = h.reshape(sh)
    val = h00 * y[idx] + h10 * h * d[idx] + h01 * y[idx + 1] + h11 * h * d[idx + 1]
    der = g00 * y[idx] + g10 * d[idx] + g01 * y[idx + 1] + g11 * d[idx + 1]
    return val, der


def sphere_surface_measure(d):
    """Measure of the unit sphere S^{d-1} in R^d: 2 pi^{d/2} / Gamma(d/2)."""
    from math import gamma, pi

    return 2.0 * pi ** (d / 2.0) / gamma(d / 2.0)
