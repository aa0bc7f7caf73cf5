from fractions import Fraction

import numpy as np
import pytest

from gllflow._numerics import derivative_nonuniform
from gllflow.errors import DomainError
from gllflow.evolution import EvolveConfig, RadialField, evolve, make_grid
from gllflow.geometry import E3, FlowParams, TangentVec, harmonic_map_jet, stereo_lift_arr
from gllflow.hasimoto import (Frame, compute_q, eigenfunction_check, fd_laplacian,
                              gauge_rate, ip_residual, pole_projection_coordinates,
                              qpde_residual, spherical_eigenfunction,
                              spherical_laplacian_x1, strichartz_exponents,
                              transport_frame)

SCHRODINGER = FlowParams(2, 0.0, 1.0)
HEAT = FlowParams(2, 1.0, 0.0)
SEED = np.array([1.0, 0.0, 0.0])


def _harmonic_data(r, v=(1.0, 0.0)):
    u, u_r, _ = harmonic_map_jet(TangentVec(v[0], v[1], 0.0), r)
    return u, u_r


def _sequential_transport(u, e_seed):
    """Node-by-node transport, one Rodrigues rotation and projection per
    segment: the reference for the parallel-prefix transport."""
    e = np.empty_like(u)
    e[0] = e_seed
    for i in range(1, u.shape[0]):
        a, b = u[i - 1], u[i]
        axis = np.cross(a, b)
        s = np.linalg.norm(axis)
        c = float(a @ b)
        v = e[i - 1]
        if s < 1e-15:
            w = v
        else:
            k = axis / s
            w = v * c + np.cross(k, v) * s + k * (k @ v) * (1.0 - c)
        w = w - (w @ b) * b
        e[i] = w / np.linalg.norm(w)
    return e


def _schrodinger_trajectory(N, r_max=8.0, steps=40, store_every=10):
    r = make_grid(r_max, N)
    f0 = 0.25 * r * np.exp(-(r**2))
    field0 = RadialField(r, stereo_lift_arr(f0.astype(complex)))
    T = steps * 0.1 * (r[1] - r[0]) ** 2
    return evolve(field0, SCHRODINGER, T, EvolveConfig(store_every=store_every))


class TestTransport:
    def test_constant_curve_keeps_seed(self):
        r = np.linspace(0.0, 5.0, 50)
        u = np.tile(E3, (50, 1))
        fr = transport_frame(r, u, SEED)
        assert np.array_equal(fr.e, np.tile(SEED, (50, 1)))

    def test_matches_sequential_transport_near_south_pole(self):
        # non-planar spiral whose colatitude climbs to within 1e-5 pi of the
        # south pole, so e and the per-segment axes sweep every direction
        for N in (401, 1000):
            r = np.linspace(0.0, 10.0, N)
            theta = np.pi * (1.0 - 1e-5) * (r / 10.0) ** 1.3
            phi = 3.0 * r + 0.2 * np.sin(2.0 * r)
            u = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                          np.cos(theta)], axis=1)
            assert u[-1, 2] < -0.99999
            seed = np.array([np.cos(0.4), np.sin(0.4), 0.0])
            fr = transport_frame(r, u, seed).validate(u)
            assert np.max(np.abs(fr.e - _sequential_transport(u, seed))) <= 1e-13
            assert np.array_equal(fr.je, np.cross(u, fr.e))

    def test_matches_sequential_transport_on_flat_segments(self):
        # constant e3: every segment takes the identity (s < 1e-15) path
        u = np.tile(E3, (333, 1))
        seed = np.array([0.6, -0.8, 0.0])
        fr = transport_frame(np.linspace(0.0, 3.0, 333), u, seed).validate(u)
        assert np.array_equal(fr.e, _sequential_transport(u, seed))

    def test_invariants_on_harmonic_data(self):
        r = np.linspace(0.0, 10.0, 1501)
        u, _ = _harmonic_data(r)
        fr = transport_frame(r, u, SEED).validate(u)
        assert np.max(np.abs(np.linalg.norm(fr.e, axis=1) - 1.0)) <= 1e-10
        assert np.max(np.abs(np.sum(fr.e * u, axis=1))) <= 1e-10
        assert np.max(np.abs(np.sum(fr.e * fr.je, axis=1))) <= 1e-10

    def test_defect_is_what_validate_refuses(self):
        r = np.linspace(0.0, 10.0, 1501)
        u, _ = _harmonic_data(r)
        fr = transport_frame(r, u, SEED)
        assert fr.defect(u) <= 1e-10
        bent = Frame(fr.r, fr.e + 1e-8 * u, fr.je)     # tilted out of T_u by 1e-8
        assert bent.defect(u) == pytest.approx(1e-8, rel=1e-6)
        with pytest.raises(DomainError):
            bent.validate(u)

    def test_seed_validation(self):
        r = np.linspace(0.0, 1.0, 10)
        u = np.tile(E3, (10, 1))
        with pytest.raises(DomainError):
            transport_frame(r, u, np.array([0.0, 0.0, 1.0]))
        with pytest.raises(DomainError):
            transport_frame(r, u, np.array([2.0, 0.0, 0.0]))

    def test_great_circle_stays_in_plane(self):
        # transporting an in-plane seed along a great circle keeps q real
        r = np.linspace(0.0, 10.0, 2001)
        u, u_r = _harmonic_data(r)
        fr = transport_frame(r, u, SEED)
        qf = compute_q(r, u, fr, SCHRODINGER, u_r=u_r)
        assert np.max(np.abs(qf.q.imag)) <= 1e-10


class TestComputeQ:
    def test_trivial_field(self):
        r = np.linspace(0.0, 5.0, 200)
        u = np.tile(E3, (200, 1))
        fr = transport_frame(r, u, SEED)
        qf = compute_q(r, u, fr, SCHRODINGER)
        assert np.max(np.abs(qf.q)) <= 1e-12
        assert np.max(np.abs(qf.alpha_g)) <= 1e-12

    def test_harmonic_magnitude_closed_form(self):
        r = np.linspace(0.0, 10.0, 1201)
        u, u_r = _harmonic_data(r)
        fr = transport_frame(r, u, SEED)
        qf = compute_q(r, u, fr, SCHRODINGER, u_r=u_r)
        assert np.max(np.abs(np.abs(qf.q) - 2.0 / (1 + r**2))) <= 1e-10

    def test_isometry_against_finite_differences(self):
        traj = _schrodinger_trajectory(401)
        f = traj.frames[len(traj.frames) // 2]
        fr = transport_frame(traj.r, f.u, SEED)
        qf = compute_q(traj.r, f.u, fr, SCHRODINGER)
        u_r = derivative_nonuniform(traj.r, f.u, order=1)
        assert np.max(np.abs(np.abs(qf.q) - np.linalg.norm(u_r, axis=1))) <= 1e-10

    def test_gauge_covariance(self):
        r = np.linspace(0.0, 10.0, 801)
        u, u_r = _harmonic_data(r, v=(0.8, 0.3))
        theta = 0.9
        fr1 = transport_frame(r, u, SEED)
        seed2 = np.array([np.cos(theta), np.sin(theta), 0.0])
        fr2 = transport_frame(r, u, seed2)
        q1 = compute_q(r, u, fr1, SCHRODINGER, u_r=u_r)
        q2 = compute_q(r, u, fr2, SCHRODINGER, u_r=u_r)
        assert np.max(np.abs(q2.q - np.exp(-1j * theta) * q1.q)) <= 1e-10
        assert np.max(np.abs(q2.alpha_g - q1.alpha_g)) <= 1e-12

    def test_stationary_tension_coordinates_vanish(self):
        r = np.linspace(0.0, 10.0, 4001)
        u, u_r = _harmonic_data(r)
        fr = transport_frame(r, u, SEED)
        qf = compute_q(r, u, fr, SCHRODINGER, u_r=u_r)
        assert np.max(np.abs(qf.V[3:-3])) <= 1e-6
        assert np.max(np.abs(qf.alpha_g)) <= 1e-6

    def test_pole_projection_integral_identity(self):
        r = np.linspace(0.0, 10.0, 2001)
        u, u_r = _harmonic_data(r)
        fr = transport_frame(r, u, SEED)
        qf = compute_q(r, u, fr, SCHRODINGER, u_r=u_r)
        pe3 = np.stack([-u[:, 2] * u[:, 0], -u[:, 2] * u[:, 1], 1 - u[:, 2] ** 2], axis=1)
        lhs = np.sum(pe3 * fr.e, axis=1) + 1j * np.sum(pe3 * fr.je, axis=1)
        assert np.max(np.abs(lhs - pole_projection_coordinates(qf))) <= 1e-6


class TestIpResidual:
    def test_static_trivial(self):
        r = np.linspace(0.0, 5.0, 200)
        u = np.tile(E3, (200, 1))
        fr = transport_frame(r, u, SEED)
        qf = compute_q(r, u, fr, SCHRODINGER)
        l2, linf = ip_residual(np.zeros_like(u), fr, qf, SCHRODINGER)
        assert l2 == 0.0

    def test_stationary_data_residual_small(self):
        # u_t = 0 for a stationary profile, so the bracket itself must vanish
        r = np.linspace(0.0, 10.0, 4001)
        u, u_r = _harmonic_data(r)
        fr = transport_frame(r, u, SEED)
        qf = compute_q(r, u, fr, HEAT, u_r=u_r)
        l2, _ = ip_residual(np.zeros_like(u), fr, qf, HEAT, margin=4)
        assert l2 <= 1e-6

    @pytest.mark.parametrize("params", [HEAT, SCHRODINGER])
    def test_second_order_on_trajectories(self, params):
        l2s = []
        for N in (201, 401):
            r = make_grid(8.0, N)
            if params.alpha > 0:
                from gllflow.evolution import great_circle_bump
                field0 = great_circle_bump(r, 0.5, 3.0, 1.0)
            else:
                field0 = RadialField(r, stereo_lift_arr((0.25 * r * np.exp(-(r**2))).astype(complex)))
            T = 40 * 0.1 * (r[1] - r[0]) ** 2
            traj = evolve(field0, params, T, EvolveConfig(store_every=10))
            frames = traj.frames
            k = len(frames) // 2
            u_t = (frames[k + 1].u - frames[k - 1].u) / (frames[k + 1].t - frames[k - 1].t)
            fr = transport_frame(r, frames[k].u, SEED)
            qf = compute_q(r, frames[k].u, fr, params)
            l2, _ = ip_residual(u_t, fr, qf, params, margin=4)
            l2s.append(l2)
        assert l2s[1] <= l2s[0] / 3.0


class TestQPdeResidual:
    def test_trivial_trajectory(self):
        r = make_grid(6.0, 61)
        traj = evolve(RadialField(r, np.tile(E3, (61, 1))), SCHRODINGER, 0.01,
                      EvolveConfig(store_every=2))
        _, l2, _ = qpde_residual(traj, SCHRODINGER)
        assert np.max(l2) <= 1e-12

    def test_second_order_schrodinger(self):
        l2s = []
        for N in (201, 401):
            traj = _schrodinger_trajectory(N)
            _, l2, _ = qpde_residual(traj, SCHRODINGER)
            l2s.append(float(np.max(l2)))
        assert l2s[1] <= l2s[0] / 3.0

    def test_second_order_mixed_flow(self):
        # the mixed dissipative-dispersive flow satisfies the same gauge
        # identities; the residual certifies the alpha-part too
        params = FlowParams(2, np.sqrt(0.5), np.sqrt(0.5))
        l2s = []
        for N in (201, 401):
            r = make_grid(8.0, N)
            f0 = RadialField(r, stereo_lift_arr((0.25 * r * np.exp(-(r**2))).astype(complex)))
            T = 40 * 0.1 * (r[1] - r[0]) ** 2
            traj = evolve(f0, params, T, EvolveConfig(store_every=10))
            _, l2, _ = qpde_residual(traj, params)
            l2s.append(float(np.max(l2)))
        assert l2s[1] <= l2s[0] / 3.0

    def test_gauge_rate_matches_integral_derivative(self):
        # differentiate-the-integral: d/dr of the stored alpha_g equals the
        # closed-form rate within quadrature error, shrinking on refinement
        worst = []
        for N in (201, 401):
            traj = _schrodinger_trajectory(N)
            f = traj.frames[len(traj.frames) // 2]
            fr = transport_frame(traj.r, f.u, SEED)
            qf = compute_q(traj.r, f.u, fr, SCHRODINGER)
            rate = gauge_rate(qf, SCHRODINGER)
            fd = derivative_nonuniform(traj.r, qf.alpha_g, order=1)
            mask = (traj.r >= 0.25) & (traj.r <= 7.5)   # fixed-radius window
            worst.append(np.max(np.abs(fd[mask] - rate[mask])) / max(1.0, np.max(np.abs(rate))))
        assert worst[1] <= 1e-4
        assert worst[1] <= worst[0] / 2.0


class TestEigenfunction:
    def test_eigenvalue_n2(self):
        rep = eigenfunction_check(2, sample_count=100)
        assert rep.eigenvalue == -3
        assert rep.max_analytic_residual <= 1e-12
        assert rep.max_fd_residual <= 1e-6
        assert rep.max_radial_reconstruction <= 1e-8

    def test_axis_point_maximum(self):
        x = np.zeros(4)
        x[0] = 1.0
        assert spherical_eigenfunction(x) == 1.0
        assert abs(spherical_laplacian_x1(x) - (-3.0)) <= 1e-14
        assert abs(fd_laplacian(spherical_eigenfunction, x) - (-3.0)) <= 1e-8

    def test_other_dimensions(self):
        for n in (1, 3):
            rep = eigenfunction_check(n, sample_count=25)
            assert rep.eigenvalue == -(2 * n - 1)
            assert rep.max_analytic_residual <= 1e-12


class TestExponents:
    def test_p2_table(self):
        t = strichartz_exponents(2)
        assert t.r == Fraction(12, 5)
        assert float(t.r) == 2.4
        assert t.s[(1, 1)] == t.r
        assert t.holder_identity_holds()

    def test_p1_value(self):
        t = strichartz_exponents(1)
        assert t.s[(3, 1)] == Fraction(2, 1)

    def test_intermediate_p(self):
        t = strichartz_exponents(1.5)
        assert t.s[(1, 1)] == 1 / (Fraction(1, 2) - Fraction(1, 9))

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            strichartz_exponents(3)
        with pytest.raises(DomainError):
            strichartz_exponents(0.5)

    def test_json(self):
        import json
        doc = json.loads(strichartz_exponents(2).to_json())
        assert doc["r"]["float"] == 2.4
        assert doc["holder_identity"] is True
