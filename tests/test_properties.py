"""Randomized and property-based checks of the structural invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riemsvp import catalog
from riemsvp.algebra import inner, ricci
from riemsvp.cli import _SYMMETRY_TOL
from riemsvp.geometry import riemann, verify_tensor_symmetries
from riemsvp.svp import (Quadruple, SolverConfig, closed_form_sigma,
                         lorentz_mixed_sign_check, multistart, orbit,
                         residual, residual_norm, sigma_from_tensor)

RNG = np.random.default_rng(20240817)


def random_admissible_points(entry, count):
    mid = entry.spec.id
    pts = []
    for _ in range(count):
        if mid == "sphere2":
            p = np.array([RNG.uniform(0.3, math.pi - 0.3),
                          RNG.uniform(0.0, 2 * math.pi)])
        elif mid == "schwarzschild":
            m = entry.params["M"]
            p = np.array([RNG.uniform(-1, 1), RNG.uniform(2.5 * m, 12.0 * m),
                          RNG.uniform(0.3, math.pi - 0.3),
                          RNG.uniform(0.0, 2 * math.pi)])
        elif mid == "kerr":
            p = np.array([RNG.uniform(-1, 1), RNG.uniform(2.5, 10.0),
                          RNG.uniform(0.3, math.pi - 0.3),
                          RNG.uniform(0.0, 2 * math.pi)])
        else:
            p = RNG.standard_normal(entry.spec.dimension)
        pts.append(p)
    return pts


ALL_ENTRIES = [catalog.sphere2(), catalog.space_form(2.0, 3),
               catalog.space_form(-0.5, 4), catalog.euclidean(3),
               catalog.minkowski(), catalog.schwarzschild(1.0),
               catalog.kerr(1.0, 0.5)]


class TestSymmetrySuites:
    @pytest.mark.parametrize("entry", ALL_ENTRIES,
                             ids=lambda e: e.spec.id + str(e.params))
    def test_analytic_path(self, entry):
        # mode auto: the table, or the curvature derived from g where the
        # entry has none (Kerr)
        for p in random_admissible_points(entry, 100):
            cd = riemann(entry.spec, p)
            rep = verify_tensor_symmetries(cd)
            assert rep.max_defect < _SYMMETRY_TOL, (entry.spec.id, p, rep)

    @pytest.mark.parametrize("entry", [catalog.sphere2(),
                                       catalog.schwarzschild(1.0),
                                       catalog.kerr(1.0, 0.5)],
                             ids=lambda e: e.spec.id)
    def test_numeric_path(self, entry):
        for p in random_admissible_points(entry, 100):
            cd = riemann(entry.spec, p, mode="numeric")
            rep = verify_tensor_symmetries(cd)
            assert rep.max_defect < _SYMMETRY_TOL, (entry.spec.id, p, rep)


class TestResidualStructure:
    def test_affine_in_sigma(self):
        cd = riemann(catalog.schwarzschild(1.0).spec, [0.0, 4.0, 1.0, 0.0])
        q = Quadruple(*(RNG.standard_normal(4) for _ in range(4)))
        r0 = residual(cd, q, 0.0)
        r1 = residual(cd, q, 1.0)
        for sigma in (-2.0, 0.3, 5.5):
            want = r0 + sigma * (r1 - r0)
            got = residual(cd, q, sigma)
            assert np.abs(got - want).max() < 1e-12

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.sampled_from([(1.0, 3), (-2.0, 3), (0.5, 4)]))
    @settings(max_examples=20, deadline=None)
    def test_sign_flip_parity(self, seed, form):
        # flipping any one vector and sigma together leaves the residual
        # magnitudes unchanged, for arbitrary tuples
        kappa, n = form
        cd = riemann(catalog.space_form(kappa, n).spec, np.zeros(n))
        rng = np.random.default_rng(seed)
        vecs = [rng.standard_normal(n) for _ in range(4)]
        sigma = float(rng.standard_normal())
        base = np.abs(residual(cd, Quadruple(*vecs), sigma))
        for slot in range(4):
            flipped = list(vecs)
            flipped[slot] = -flipped[slot]
            res = np.abs(residual(cd, Quadruple(*flipped), -sigma))
            assert np.abs(np.sort(res) - np.sort(base)).max() < 1e-11

    def test_jacobian_fd_match_random_curvature(self):
        from riemsvp.svp import _system

        for entry in (catalog.sphere2(), catalog.schwarzschild(1.0)):
            cd = riemann(entry.spec, entry.default_point)
            n = cd.n
            q = Quadruple(*(RNG.standard_normal(n) for _ in range(4)))
            sigma = float(RNG.standard_normal())
            u0 = np.concatenate([q.flat(), [sigma]])
            jac = _system(cd).jacobians(u0[None])[0]
            eps = 1e-6
            scale = max(1.0, np.abs(jac).max())
            for col in range(4 * n + 1):
                up, dn = u0.copy(), u0.copy()
                up[col] += eps
                dn[col] -= eps

                def val(u):
                    quad = Quadruple(u[0:n], u[n:2 * n], u[2 * n:3 * n],
                                     u[3 * n:4 * n], q.signs)
                    return residual(cd, quad, float(u[4 * n]))

                fd = (val(up) - val(dn)) / (2 * eps)
                assert np.abs(jac[:, col] - fd).max() / scale < 1e-6


class TestSolutionProperties:
    @pytest.mark.parametrize("entry", [catalog.sphere2(),
                                       catalog.space_form(2.0, 3),
                                       catalog.space_form(-0.5, 4),
                                       catalog.schwarzschild(1.0)],
                             ids=lambda e: e.spec.id + str(e.params))
    def test_prop1_orbit_and_sigma_r(self, entry):
        cd = riemann(entry.spec, entry.default_point)
        cfg = SolverConfig(n_starts=40, rng_seed=101)
        sols = multistart(cd, cfg)
        assert sols
        for sol in sols:
            # nonzero-sigma solutions have orthogonal (W,X) and (Y,Z) pairs
            if abs(sol.sigma) > 1e-8:
                assert abs(inner(cd.g, sol.q.w, sol.q.x)) < 1e-8
                assert abs(inner(cd.g, sol.q.y, sol.q.z)) < 1e-8
            # orbit closure: every member is a solution
            members = orbit(sol, cd)
            assert max(m.residual for m in members) < 1e-9
            # sigma equals the scalar contraction on all-plus patterns
            if sol.q.signs == (1, 1, 1, 1):
                assert abs(sol.sigma - sigma_from_tensor(cd, sol.q)) < 1e-8

    @pytest.mark.parametrize("kappa,n", [(2.0, 3), (1.0, 4), (-0.5, 4)])
    def test_constant_curvature_identities(self, kappa, n):
        cd = riemann(catalog.space_form(kappa, n).spec, np.zeros(n))
        sols = multistart(cd, SolverConfig(n_starts=40, rng_seed=5))
        nonzero = [s for s in sols if abs(s.sigma) > 1e-8]
        assert nonzero
        for s in nonzero:
            w, x, y, z = s.q.vectors
            sg = s.sigma
            g = cd.g
            assert abs(kappa * inner(g, z, x) - sg * inner(g, w, y)) < 1e-8
            assert abs(-kappa * inner(g, y, x) - sg * inner(g, w, z)) < 1e-8
            assert abs(-kappa * inner(g, z, w) - sg * inner(g, x, y)) < 1e-8
            assert abs(kappa * inner(g, y, w) - sg * inner(g, x, z)) < 1e-8
            assert (inner(g, w, y) ** 2 + inner(g, w, z) ** 2
                    == pytest.approx(1.0, abs=1e-8))

    def test_ricci_quadratic_identity_n4(self):
        cd = riemann(catalog.space_form(1.5, 4).spec, np.zeros(4))
        sols = multistart(cd, SolverConfig(n_starts=40, rng_seed=6))
        ric = ricci(cd)
        nonzero = [s for s in sols if abs(s.sigma) > 1e-8]
        assert nonzero
        for s in nonzero:
            w, x, y, z = s.q.vectors
            lhs = float(w @ ric @ w + x @ ric @ x)
            rhs = float(y @ ric @ y + z @ ric @ z)
            assert abs(lhs - rhs) < 1e-8

    def test_wedge_determinant_on_solutions(self):
        from riemsvp.svp import wedge_det_defect

        cd = riemann(catalog.schwarzschild(1.0).spec,
                     [0.0, 3.0, math.pi / 4, 0.0])
        sols = multistart(cd, SolverConfig(n_starts=60, rng_seed=3))
        assert sols
        for s in sols:
            assert wedge_det_defect(s.q.y, s.q.z) < 1e-8

    @pytest.mark.parametrize("entry", [catalog.schwarzschild(1.0),
                                       catalog.minkowski()],
                             ids=lambda e: e.spec.id)
    def test_mixed_sign_vanishing(self, entry):
        cd = riemann(entry.spec, entry.default_point)
        rep = lorentz_mixed_sign_check(
            cd, SolverConfig(n_starts=60, rng_seed=9, sign_pattern="+++-"))
        assert rep.max_abs_sigma < 1e-8


class TestClosedFormProperties:
    @given(st.floats(min_value=-10.0, max_value=10.0,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=50, deadline=None)
    def test_space_form_nonnegative(self, kappa):
        assert closed_form_sigma("space-form", kappa=kappa) == abs(kappa)

    @given(st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5),
           st.floats(min_value=-5, max_value=5), st.integers(min_value=3, max_value=8))
    @settings(max_examples=50, deadline=None)
    def test_ricci_pair_equals_einstein_when_equal(self, lam, scal, _mu, n):
        a = closed_form_sigma("ricci-pair", lam=lam, mu=lam, ricci_scalar=scal,
                              n=n)
        b = closed_form_sigma("einstein", kappa=lam, ricci_scalar=scal, n=n)
        assert a == pytest.approx(b, abs=1e-12)

    @given(st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5),
           st.floats(min_value=-5, max_value=5), st.integers(min_value=3, max_value=8))
    @settings(max_examples=50, deadline=None)
    def test_m_eigen_symmetric_in_quadratics(self, rww, rxx, scal, n):
        a = closed_form_sigma("m-eigen", ricci_ww=rww, ricci_xx=rxx,
                              ricci_scalar=scal, n=n)
        b = closed_form_sigma("m-eigen", ricci_ww=rxx, ricci_xx=rww,
                              ricci_scalar=scal, n=n)
        assert a == pytest.approx(b, abs=1e-12)


class TestInnerProperties:
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_bilinear_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 3))
        g = a + a.T
        u, v, w = (rng.standard_normal(3) for _ in range(3))
        alpha = float(rng.standard_normal())
        assert inner(g, u, v) == pytest.approx(inner(g, v, u), rel=1e-10,
                                               abs=1e-12)
        assert inner(g, alpha * u + w, v) == pytest.approx(
            alpha * inner(g, u, v) + inner(g, w, v), rel=1e-9, abs=1e-9)
