import numpy as np
import pytest

from gllflow.errors import DomainError, GridError, NormDriftError, PoleSingularityError
from gllflow.geometry import (CPPoint, E3, FlowParams, RadialProfile, SpherePoint,
                              TangentVec, embed_equivariant, energy, energy_density,
                              energy_density_l2, fs_distance, gll_rhs, gll_rhs_arr,
                              harmonic_map, harmonic_map_jet, stereo_lift,
                              stereo_lift_arr, stereo_project, stereo_rhs,
                              tangent_project_arr, tension, unitary_action)
from gllflow.geometry import _second_order_bracket
from gllflow._numerics import sphere_surface_measure


class TestTypes:
    def test_sphere_point_repairs_small_drift(self):
        p = SpherePoint(1.0 + 5e-7, 0.0, 0.0)
        assert abs(np.linalg.norm(p.array) - 1.0) <= 1e-12

    def test_sphere_point_rejects_large_drift(self):
        with pytest.raises(NormDriftError):
            SpherePoint(1.1, 0.0, 0.0)

    def test_tangent_check(self):
        v = TangentVec(0.0, 1.0, 0.0)
        v.check_tangent(SpherePoint(1.0, 0.0, 0.0))
        with pytest.raises(NormDriftError):
            TangentVec(1.0, 0.0, 0.0).check_tangent(SpherePoint(1.0, 0.0, 0.0))

    def test_flow_params(self):
        p = FlowParams(2, 1.0, 0.0)
        assert p.alpha == 1.0 and p.beta == 0.0
        q = FlowParams(3, np.sqrt(0.5), np.sqrt(0.5))
        assert abs(q.alpha**2 + q.beta**2 - 1.0) <= 1e-12
        with pytest.raises(NormDriftError):
            FlowParams(2, 1.0, 1.0)
        with pytest.raises(DomainError):
            FlowParams(0, 1.0, 0.0)
        with pytest.raises(DomainError):
            FlowParams(2, -1.0, 0.0)

    def test_sphere_point_refuses_nan(self, rng):
        # NaN fails every `x > tol` test: the guard reads `not (x <= tol)`
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        x[rng.integers(3)] = np.nan
        with pytest.raises(NormDriftError, match="nan"):
            SpherePoint(*x)

    def test_tangent_check_refuses_nan(self):
        with pytest.raises(NormDriftError, match="nan"):
            TangentVec(np.nan, 0.0, 0.0).check_tangent(SpherePoint(1.0, 0.0, 0.0))

    def test_flow_params_refuse_non_finite_values(self, rng):
        theta = rng.uniform(-np.pi / 2, np.pi / 2)
        alpha, beta = np.cos(theta), np.sin(theta)
        with pytest.raises(DomainError, match="nan"):
            FlowParams(2, np.nan, beta)
        for bad in ((alpha, np.nan), (np.inf, beta), (alpha, -np.inf)):
            with pytest.raises(NormDriftError):
                FlowParams(2, *bad)

    def test_cp_point_normalizes(self):
        p = CPPoint(np.array([3.0, 4.0j]))
        assert abs(np.linalg.norm(p.coords) - 1.0) <= 1e-15

    def test_cp_point_refuses_non_finite_coordinates(self):
        # a NaN norm would pass a zero test, and fs_distance's clamp would
        # read a NaN inner product as distance pi/2
        for bad, norm in (([1.0, np.nan], "nan"), ([np.inf, 1j], "inf"),
                          ([0.0, complex(1.0, -np.inf)], "inf"), ([0.0, 0.0], "0.0")):
            with pytest.raises(DomainError, match=rf"finite norm, got \[.*\] \(norm {norm}\)"):
                CPPoint(np.array(bad))
        with np.errstate(over="ignore"), pytest.raises(DomainError, match=r"\(norm inf\)"):
            CPPoint(np.array([1e300, 1e300]))


    def test_cp_point_coords_are_read_only(self):
        # a write used to bypass the norm guard: fs_distance then read a NaN
        # coordinate as distance pi/2
        p, q = CPPoint(np.array([3.0, 4.0j])), CPPoint(np.array([1.0, 1.0]))
        before = fs_distance(p, q)
        with pytest.raises(ValueError, match="read-only"):
            p.coords[0] = np.nan
        assert fs_distance(p, q) == before
        assert np.isfinite(before) and before != np.pi / 2

class TestStereo:
    def test_north_pole_to_origin(self):
        assert stereo_project(SpherePoint(0.0, 0.0, 1.0)) == 0.0

    def test_unit_value(self):
        u = stereo_lift(1.0 + 0.0j)
        assert np.allclose(u.array, [1.0, 0.0, 0.0], atol=1e-15)

    def test_direct_arithmetic(self):
        f = stereo_project(SpherePoint(0.6, 0.0, 0.8))
        assert abs(f - (0.6 / 1.8)) <= 1e-15

    def test_round_trip(self, rng):
        for _ in range(50):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            if u[2] < -0.9:
                continue
            p = SpherePoint.from_array(u)
            back = stereo_lift(stereo_project(p))
            assert np.max(np.abs(back.array - p.array)) <= 1e-12

    def test_south_pole_raises(self):
        with pytest.raises(PoleSingularityError):
            stereo_project(SpherePoint(0.0, 0.0, -1.0))


class TestFubiniStudy:
    def test_orthogonal_representatives(self):
        p = CPPoint(np.array([1.0, 0.0, 0.0], dtype=complex))
        q = CPPoint(np.array([0.0, 1.0, 0.0], dtype=complex))
        assert abs(fs_distance(p, q) - np.pi / 2) <= 1e-15

    def test_phase_invariance(self):
        p = CPPoint(np.array([1.0, 0.0], dtype=complex))
        q = CPPoint(np.exp(1.3j) * np.array([1.0, 0.0], dtype=complex))
        assert fs_distance(p, q) == 0.0

    def test_unitary_invariance(self, rng):
        worst = 0.0
        for _ in range(100):
            z1 = rng.normal(size=3) + 1j * rng.normal(size=3)
            z2 = rng.normal(size=3) + 1j * rng.normal(size=3)
            p, q = CPPoint(z1), CPPoint(z2)
            M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            Q, _ = np.linalg.qr(M)
            worst = max(worst, abs(fs_distance(unitary_action(Q, p), unitary_action(Q, q))
                                   - fs_distance(p, q)))
        assert worst <= 1e-12

    def test_embedding_halves_sphere_distance(self, rng):
        # the standard identification maps S^2 to a projective line of half
        # the diameter: d_FS = angle / 2, exactly
        z = np.array([1.0 + 0.0j, 0.5j])
        for _ in range(20):
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            b = rng.normal(size=3)
            b /= np.linalg.norm(b)
            if a[2] < -0.9 or b[2] < -0.9:
                continue
            d = fs_distance(embed_equivariant(SpherePoint.from_array(a), z),
                            embed_equivariant(SpherePoint.from_array(b), z))
            angle = np.arccos(np.clip(a @ b, -1.0, 1.0))
            assert abs(d - angle / 2.0) <= 1e-12


class TestEmbedding:
    def test_north_pole(self):
        v = embed_equivariant(SpherePoint(0.0, 0.0, 1.0), np.array([2.0 + 0j, 0.0]))
        assert np.allclose(v.coords, [1.0, 0.0, 0.0], atol=1e-15)

    def test_equator_point(self):
        v = embed_equivariant(SpherePoint(1.0, 0.0, 0.0), np.array([3.0 + 0j]))
        assert np.allclose(v.coords, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)

    def test_south_pole_raises(self):
        with pytest.raises(PoleSingularityError):
            embed_equivariant(SpherePoint(0.0, 0.0, -1.0), np.array([1.0 + 0j]))

    def test_zero_z_raises(self):
        with pytest.raises(DomainError):
            embed_equivariant(SpherePoint(0.0, 0.0, 1.0), np.array([0.0 + 0j]))


def _harmonic_profile(v, r):
    u, u_r, _ = harmonic_map_jet(v, r)
    return RadialProfile(r, u, u_r)


class TestEnergy:
    def test_vacuum_density(self):
        assert energy_density(SpherePoint(0, 0, 1.0), TangentVec(0, 0, 0), 1.0, 2) == 0.0

    def test_density_forms_agree(self, rng):
        for _ in range(100):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            w = rng.normal(size=3)
            w -= (w @ u) * u
            r = 0.1 + 3 * rng.random()
            a = energy_density(SpherePoint.from_array(u), TangentVec.from_array(w), r, 3)
            b = energy_density_l2(SpherePoint.from_array(u), TangentVec.from_array(w), r, 3)
            assert abs(a - b) <= 1e-14 * max(1.0, abs(a))

    def test_harmonic_density_closed_form(self):
        # |v| = 1, n = 1: density is 4/(1+r^2)^2 pointwise
        v = TangentVec(1.0, 0.0, 0.0)
        for r in (0.3, 1.0, 2.5):
            u, u_r, _ = harmonic_map_jet(v, np.array([r]))
            d = energy_density(SpherePoint.from_array(u[0]), TangentVec.from_array(u_r[0]), r, 1)
            assert abs(d - 4.0 / (1 + r**2) ** 2) <= 1e-13

    def test_density_domain_error(self):
        with pytest.raises(DomainError):
            energy_density(SpherePoint(0, 0, 1.0), TangentVec(0, 0, 0), 0.0, 2)

    @pytest.mark.parametrize("density", [energy_density, energy_density_l2])
    @pytest.mark.parametrize("r", [-1.0, np.nan, np.inf])
    def test_density_names_a_radius_outside_zero_to_inf(self, density, r):
        # NaN used to pass the r <= 0 guard and return nan
        with pytest.raises(DomainError, match=f"need 0 < r < inf, got {r!r}"):
            density(SpherePoint(0, 0, 1.0), TangentVec(0, 0, 0), r, 2)

    def test_profile_checks_its_whole_grid(self):
        # r = 0 may open the grid; the first two used to be accepted, as the
        # check skipped the first node and grids of two nodes
        u = np.tile(E3, (3, 1))
        prof = RadialProfile([0.0, 0.5, 1.0], u, np.zeros_like(u))
        assert prof.r.dtype == float and prof.r[0] == 0.0
        for bad, why in (([-1.0, 0.5, 1.0], "r = -1.0 < 0"), ([-1.0, 1.0], "r = -1.0 < 0"),
                         ([0.0, 1.0, 0.5], "increasing"), ([0.5, 1.0, np.inf], "non-finite"),
                         ([], "two nodes")):
            with pytest.raises(GridError, match=why):
                RadialProfile(bad, u[:len(bad)], u[:len(bad)])

    def test_constant_profile_zero(self):
        r = np.linspace(0.1, 10.0, 200)
        u = np.tile(E3, (r.size, 1))
        prof = RadialProfile(r, u, np.zeros_like(u))
        assert energy(prof, 2) == 0.0

    def test_harmonic_energy_4pi(self):
        r = np.geomspace(1e-4, 1e4, 6000)
        prof = _harmonic_profile(TangentVec(1.0, 0.0, 0.0), r)
        E = energy(prof, 1)
        assert abs(E - 4 * np.pi) <= 1e-3 * 4 * np.pi

    def test_truncated_energy_grows_n2(self):
        r = np.geomspace(1e-4, 80.0, 6000)
        prof = _harmonic_profile(TangentVec(1.0, 0.0, 0.0), r)
        vals = [energy(prof, 2, r_max=R) for R in (10.0, 20.0, 40.0, 80.0)]
        assert all(b > a * 1.5 for a, b in zip(vals[:-1], vals[1:]))

    def test_empty_window_raises(self):
        r = np.linspace(0.1, 1.0, 50)
        prof = _harmonic_profile(TangentVec(1.0, 0.0, 0.0), r)
        with pytest.raises(GridError):
            energy(prof, 2, r_min=5.0)

    def test_window_bounds_refuse_nan_naming_it(self):
        r = np.linspace(0.1, 1.0, 50)
        prof = _harmonic_profile(TangentVec(1.0, 0.0, 0.0), r)
        with pytest.raises(DomainError, match="need r_min >= 0, got nan"):
            energy(prof, 2, r_min=np.nan)
        with pytest.raises(DomainError, match="need r_min < r_max, got r_min=0.0, r_max=nan"):
            energy(prof, 2, r_max=np.nan)
        whole = energy(prof, 2)
        assert energy(prof, 2, r_min=-0.0) == energy(prof, 2, r_max=np.inf) == whole


class TestTensionAndFlow:
    def test_harmonic_maps_are_stationary(self, rng):
        worst = 0.0
        for _ in range(20):
            v = TangentVec(rng.normal(), rng.normal(), 0.0)
            for r in (0.5, 1.0, 2.0):
                u, u_r, u_rr = harmonic_map_jet(v, np.array([r]))
                t = tension(SpherePoint.from_array(u[0]), TangentVec.from_array(u_r[0]),
                            u_rr[0], r, 2)
                worst = max(worst, t.norm)
        assert worst <= 1e-10

    def test_north_pole_stationary(self):
        t = tension(SpherePoint(0, 0, 1.0), TangentVec(0, 0, 0), np.zeros(3), 1.0, 2)
        assert t.norm == 0.0

    def test_tension_is_the_projected_bracket_bit_for_bit(self, rng):
        # tension is the heat-flow velocity; the composition it replaced,
        # P_u of the second-order bracket, is the oracle
        for n in (1, 2, 3, 5):
            for _ in range(200):
                u = rng.normal(size=3)
                u /= np.linalg.norm(u)
                u_r, u_rr, r = rng.normal(size=3), rng.normal(size=3), 0.05 + 3 * rng.random()
                got = tension(SpherePoint.from_array(u), TangentVec.from_array(u_r), u_rr, r, n)
                p = SpherePoint.from_array(u).array
                want = tangent_project_arr(p, _second_order_bracket(p, u_r, u_rr, r, n))
                assert got.array.tobytes() == want.tobytes()

    def test_variation_matches_tension(self, rng):
        # central finite difference of the energy under a compact tangent
        # perturbation agrees with -<tension, w> at second order
        from conftest import smooth_bump

        r = np.linspace(1e-3, 8.0, 4001)
        v = TangentVec(0.7, 0.2, 0.0)
        u, u_r, u_rr = harmonic_map_jet(v, r)
        u2, _, _ = harmonic_map_jet(TangentVec(0.1, -0.3, 0.0), r)
        w = np.cross(u, u2)
        w *= smooth_bump(r, 3.0, 1.5)[:, None]
        n = 2
        tau = gll_rhs_arr(u, u_r, u_rr, r, FlowParams(n, 1.0, 0.0))
        sigma = sphere_surface_measure(2 * n)
        inner = -sigma * np.trapezoid(np.sum(tau * w, axis=1) * r ** (2 * n - 1), r)

        def energy_of(eps):
            ue = u + eps * w
            ue /= np.linalg.norm(ue, axis=1)[:, None]
            h = r[1] - r[0]
            ur = np.gradient(ue, h, axis=0, edge_order=2)
            return energy(RadialProfile(r, ue, ur), n)

        errs = []
        for eps in (1e-4, 5e-5):
            dE = (energy_of(eps) - energy_of(-eps)) / (2 * eps)
            errs.append(abs(dE - inner))
        assert errs[0] <= 5e-3 * max(1.0, abs(inner))
        assert errs[1] <= errs[0] * 1.5  # quadratic in eps up to quadrature floor

    def test_gll_rhs_trivial_and_stationary(self, rng):
        z = gll_rhs(SpherePoint(0, 0, 1.0), TangentVec(0, 0, 0), np.zeros(3), 1.0,
                    FlowParams(2, 0.0, 1.0))
        assert z.norm == 0.0
        worst = 0.0
        for _ in range(10):
            v = TangentVec(rng.normal(), rng.normal(), 0.0)
            for r in (0.5, 1.5):
                for (al, be) in ((1, 0), (0, 1), (np.sqrt(0.5), np.sqrt(0.5))):
                    u, u_r, u_rr = harmonic_map_jet(v, np.array([r]))
                    out = gll_rhs(SpherePoint.from_array(u[0]),
                                  TangentVec.from_array(u_r[0]), u_rr[0], r,
                                  FlowParams(3, al, be))
                    worst = max(worst, out.norm)
        assert worst <= 1e-10

    def test_outputs_tangent(self, rng):
        for _ in range(100):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            ur = rng.normal(size=3)
            ur -= (ur @ u) * u
            urr = rng.normal(size=3)
            out = gll_rhs_arr(u, ur, urr, 1.3, FlowParams(2, 0.6, 0.8))
            assert abs(out @ u) <= 1e-12 * max(np.linalg.norm(out), 1.0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            gll_rhs(SpherePoint(0, 0, 1.0), TangentVec(0, 0, 0), np.zeros(3), -1.0,
                    FlowParams(2, 1.0, 0.0))


class TestStereoRHS:
    def test_linear_states_are_stationary(self):
        for c in (1.0 + 0j, 0.3 - 0.7j):
            for r in (0.2, 1.0, 5.0):
                val = stereo_rhs(c * r, c, 0.0, r, FlowParams(2, 0.0, 1.0))
                assert abs(val) <= 1e-14 * max(1.0, abs(c))

    def test_zero(self):
        assert stereo_rhs(0.0, 0.0, 0.0, 1.0, FlowParams(2, 1.0, 0.0)) == 0.0


class TestHarmonicMap:
    def test_trivial(self):
        for r in (0.0, 1.0, 10.0):
            u = harmonic_map(TangentVec(0, 0, 0), r)
            assert np.allclose(u.array, E3, atol=1e-15)

    def test_unit_at_one(self):
        u = harmonic_map(TangentVec(1.0, 0.0, 0.0), 1.0)
        assert np.allclose(u.array, [1.0, 0.0, 0.0], atol=1e-15)

    def test_far_field_south_pole(self):
        u = harmonic_map(TangentVec(1.0, 0.0, 0.0), 1e3)
        assert np.linalg.norm(u.array - (-E3)) <= 2e-3

    def test_jet_consistency(self):
        # analytic first/second derivatives vs 4th-order finite differences
        v = TangentVec(0.8, -0.4, 0.0)
        r0, h = 1.7, 1e-3
        rs = r0 + h * np.arange(-2, 3)
        u, u_r, u_rr = harmonic_map_jet(v, rs)
        fd1 = (-u[4] + 8 * u[3] - 8 * u[1] + u[0]) / (12 * h)
        fd2 = (-u[4] + 16 * u[3] - 30 * u[2] + 16 * u[1] - u[0]) / (12 * h**2)
        assert np.max(np.abs(fd1 - u_r[2])) <= 1e-10
        assert np.max(np.abs(fd2 - u_rr[2])) <= 1e-8
