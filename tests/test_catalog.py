import math

import numpy as np
import pytest

from riemsvp import catalog
from riemsvp.algebra import invariant_i, kretschmann, np_scalars
from riemsvp.errors import InvalidInput
from riemsvp.geometry import riemann, verify_tensor_symmetries
from riemsvp.svp import kerr_reduced_solve, schwarzschild_reduced_solve

from oracles import max_defect


class TestSphere2:
    def test_metric_at_equator(self):
        entry = catalog.sphere2()
        g = entry.spec.g(np.array([math.pi / 2, 0.0]))
        assert np.allclose(g, np.eye(2), atol=1e-15)

    def test_component_value(self):
        entry = catalog.sphere2()
        cd = riemann(entry.spec, [math.pi / 6, 0.0])
        assert cd.riemann_lowered[0, 1, 0, 1] == pytest.approx(0.25, abs=1e-15)

    def test_expected_sigmas(self):
        entry = catalog.sphere2()
        values = [s for s, _ in entry.expected_sigma(np.array([1.0, 0.0]))]
        assert values == [0.0, 1.0]


class TestSpaceForm:
    def test_expected_sets(self):
        entry = catalog.space_form(2.0, 3)
        assert [s for s, _ in entry.expected_sigma(np.zeros(3))] == [0.0, 2.0]
        entry = catalog.space_form(-1.5, 4)
        assert [s for s, _ in entry.expected_sigma(np.zeros(4))] == [0.0, 1.5]
        flat = catalog.space_form(0.0, 3)
        assert [s for s, _ in flat.expected_sigma(np.zeros(3))] == [0.0]

    def test_zero_curvature_for_flat(self):
        cd = riemann(catalog.space_form(0.0, 4).spec, np.zeros(4))
        assert np.abs(cd.riemann_lowered).max() == 0.0

    def test_matches_sphere_at_equator(self):
        # kappa = 1, n = 2 must agree with the round sphere where g = I
        sf = riemann(catalog.space_form(1.0, 2).spec, np.zeros(2))
        sp = riemann(catalog.sphere2().spec, [math.pi / 2, 0.0])
        assert np.allclose(sf.riemann_lowered, sp.riemann_lowered, atol=1e-14)
        assert np.allclose(sf.riemann_mixed, sp.riemann_mixed, atol=1e-14)

    def test_dimension_guard(self):
        with pytest.raises(InvalidInput):
            catalog.space_form(1.0, 1)

    @pytest.mark.parametrize("kappa", [math.inf, -math.inf, math.nan])
    def test_non_finite_kappa(self, kappa):
        # a non-finite kappa would give a NaN curvature tensor
        with pytest.raises(InvalidInput, match="finite kappa"):
            catalog.get("space-form", kappa=kappa, n=3)


class TestSchwarzschild:
    def test_table_coefficient_a(self):
        # A = M f / r^3 = (1/3) / 27 at M=1, r=3
        entry = catalog.schwarzschild(1.0)
        cd = riemann(entry.spec, [0.0, 3.0, 1.0, 0.0])
        assert cd.riemann_mixed[2, 0, 2, 0] == pytest.approx(1.0 / 81.0,
                                                             rel=1e-14)

    def test_expected_sigma(self):
        entry = catalog.schwarzschild(1.0)
        expected = entry.expected_sigma(np.array([0.0, 3.0, 1.0, 0.0]))
        assert expected[1][0] == pytest.approx(1.0 / 27.0, abs=1e-15)

    def test_kretschmann_oracle(self):
        entry = catalog.schwarzschild(1.0)
        cd = riemann(entry.spec, [0.0, 3.0, 0.4, 0.0])
        assert kretschmann(cd) == pytest.approx(48.0 / 729.0, rel=1e-12)

    def test_admissibility(self):
        entry = catalog.schwarzschild(1.0)
        assert entry.admissible(np.array([0.0, 3.0, 1.0, 0.0]))
        assert not entry.admissible(np.array([0.0, 1.5, 1.0, 0.0]))
        assert not entry.admissible(np.array([0.0, 3.0, 0.0, 0.0]))

    def test_mass_guard(self):
        for mass in (-1.0, math.nan, math.inf):
            with pytest.raises(InvalidInput):
                catalog.schwarzschild(mass)


class TestKerr:
    def test_tetrad_first_vector(self):
        # l = ((r^2+a^2)/Delta, 1, 0, a/Delta); Delta = 9 - 6 + 0.25 = 3.25
        entry = catalog.kerr(1.0, 0.5)
        tet = entry.tetrad(np.array([0.0, 3.0, math.pi / 2, 0.0]))
        assert tet.l[0] == pytest.approx(9.25 / 3.25, rel=1e-15)
        assert tet.l[1] == 1.0
        assert tet.l[2] == 0.0
        assert tet.l[3] == pytest.approx(0.5 / 3.25, rel=1e-15)

    def test_zero_spin_metric_matches_schwarzschild(self):
        kerr0 = catalog.kerr(1.0, 0.0)
        schw = catalog.schwarzschild(1.0)
        for r, th in ((3.0, 1.0), (5.0, 0.3), (10.0, 2.8)):
            p = np.array([0.0, r, th, 0.0])
            assert np.abs(kerr0.spec.g(p) - schw.spec.g(p)).max() < 1e-12

    def test_small_spin_limits(self):
        # sigma, K1, and psi2 all converge to the static values as a -> 0;
        # psi2 carries a genuine O(a cos(theta)) imaginary part, so the
        # tightest comparison point is the equator
        a = 1e-6
        r, th = 3.0, math.pi / 2
        p = np.array([0.0, r, th, 0.0])

        sol_k = kerr_reduced_solve(1.0, a, r, th)
        sol_s = schwarzschild_reduced_solve(1.0, r, th)
        assert abs(sol_k.sigma - sol_s.sigma) < 1e-8

        cd_k = riemann(catalog.kerr(1.0, a).spec, p)
        cd_s = riemann(catalog.schwarzschild(1.0).spec, p)
        assert abs(kretschmann(cd_k) - kretschmann(cd_s)) < 1e-8

        psi2 = np_scalars(cd_k, catalog.kerr(1.0, a).tetrad(p))[2]
        assert abs(psi2 - 1.0 / 27.0) < 1e-8

    def test_small_spin_limit_off_equator(self):
        # away from the equator the deviation is the analytic first-order
        # term 3 a cos(theta) / r^4, not numerical noise
        a, r, th = 1e-6, 3.0, 1.1
        p = np.array([0.0, r, th, 0.0])
        cd = riemann(catalog.kerr(1.0, a).spec, p)
        psi2 = np_scalars(cd, catalog.kerr(1.0, a).tetrad(p))[2]
        analytic = 1.0 / (r - 1j * a * math.cos(th)) ** 3
        assert abs(psi2 - analytic) < 1e-10
        assert abs(psi2 - 1.0 / 27.0) < 2e-8

    def test_expected_sigma_formula(self):
        entry = catalog.kerr(1.0, 0.5)
        p = np.array([0.0, 3.0, math.pi / 2, 0.0])
        expected = dict((d, s) for s, d in entry.expected_sigma(p))
        assert expected["special family"] == pytest.approx(1.0 / 27.0,
                                                           abs=1e-12)

    def test_spin_guard(self):
        with pytest.raises(InvalidInput):
            catalog.kerr(1.0, 1.0)
        with pytest.raises(InvalidInput):
            catalog.kerr(1.0, -0.2)
        for mass, spin in ((math.inf, 0.5), (math.nan, 0.5), (1.0, math.nan),
                           (math.inf, math.inf)):
            with pytest.raises(InvalidInput):
                catalog.kerr(mass, spin)


def kerr_table_points():
    """``(a, point)`` over the benchmark decks' Kerr range, r from 3 to 50
    and theta from 0.35 to 2.8."""
    rng = np.random.default_rng(5)
    cases = [(a, [0.0, r, th, 0.0]) for a in (0.1, 0.5, 0.9)
             for r in (3.0, 50.0) for th in (0.35, math.pi / 2, 2.8)]
    cases += [(rng.uniform(0.0, 0.95),
               [rng.uniform(-5, 5), math.exp(rng.uniform(math.log(3.0),
                                                         math.log(50.0))),
                rng.uniform(0.35, 2.8), rng.uniform(-5, 5)])
              for _ in range(12)]
    return [(a, np.array(p)) for a, p in cases]


class TestKerrTable:
    """Kerr's closed-form curvature: psi2 times the type-D pattern in the
    Kinnersley tetrad, plus its conjugate."""

    @pytest.mark.parametrize("th", [1e-4, 0.01, 1.0])
    @pytest.mark.parametrize("r", [10.0, 1e3, 1e5])
    def test_zero_spin_is_the_schwarzschild_table(self, r, th):
        p = np.array([0.0, r, th, 0.0])
        got = riemann(catalog.kerr(1.0, 0.0).spec, p)
        want = riemann(catalog.schwarzschild(1.0).spec, p)
        assert got.path == want.path == "analytic"
        scale = np.abs(want.riemann_mixed).max()
        assert (np.abs(got.riemann_mixed - want.riemann_mixed).max()
                <= 1e-15 * scale)

    @pytest.mark.parametrize("a, p", kerr_table_points())
    def test_matches_the_derived_curvature(self, a, p):
        spec = catalog.kerr(1.0, a).spec
        got, want = riemann(spec, p), riemann(spec, p, mode="numeric")
        assert (got.path, want.path) == ("analytic", "numeric")
        scale = np.abs(want.riemann_mixed).max()
        assert (np.abs(got.riemann_mixed - want.riemann_mixed).max()
                <= 1e-12 * scale)

    @pytest.mark.parametrize("a, p", kerr_table_points())
    def test_weyl_scalars_are_type_d(self, a, p):
        # pins the sign: psi2 = M / (r - i a cos(theta))^3, all else zero
        entry = catalog.kerr(1.0, a)
        psis = np_scalars(riemann(entry.spec, p), entry.tetrad(p))
        psi2 = 1.0 / (p[1] - 1j * a * math.cos(p[2])) ** 3
        want = (0.0, 0.0, psi2, 0.0, 0.0)
        assert np.abs(np.subtract(psis, want)).max() <= 1e-14 * abs(psi2)

    @pytest.mark.parametrize("a, p", kerr_table_points()
                             + [(0.9, np.array([0.0, 1e4, 0.01, 0.0]))])
    def test_symmetry_defect_at_rounding(self, a, p):
        cd = riemann(catalog.kerr(1.0, a).spec, p)
        assert max_defect(verify_tensor_symmetries(cd)) <= 1e-15


class TestFlatEntries:
    def test_euclidean(self):
        entry = catalog.euclidean(4)
        assert [s for s, _ in entry.expected_sigma(np.zeros(4))] == [0.0]
        cd = riemann(entry.spec, np.zeros(4))
        assert np.abs(cd.riemann_lowered).max() == 0.0

    def test_minkowski(self):
        entry = catalog.minkowski()
        cd = riemann(entry.spec, np.zeros(4))
        assert np.abs(cd.riemann_lowered).max() == 0.0
        assert cd.is_lorentz
        tet = entry.tetrad(np.zeros(4))
        assert tet.normalization_defect(cd.g) < 1e-15


class TestCatalogRegistry:
    def test_known_ids(self):
        assert set(catalog.CATALOG_IDS) == {
            "sphere2", "space-form", "euclidean", "minkowski",
            "schwarzschild", "kerr"}
        for mid in catalog.CATALOG_IDS:
            params = {}
            if mid == "space-form":
                params = {"kappa": 1.0, "n": 3}
            entry = catalog.get(mid, **params)
            assert entry.spec.id == mid

    def test_unknown_id(self):
        with pytest.raises(InvalidInput):
            catalog.get("torus")

    def test_space_form_requires_params(self):
        with pytest.raises(InvalidInput):
            catalog.get("space-form")

    def test_undeclared_param_rejected(self):
        with pytest.raises(InvalidInput, match="does not take params m "):
            catalog.get("schwarzschild", m=1.0)
        with pytest.raises(InvalidInput):
            catalog.get("sphere2", n=3.0)
        assert catalog.get("kerr", M=2.0).params == {"M": 2.0, "a": 0.5}


class TestAnalyticExactness:
    def test_symmetry_defect_zero(self):
        entries = [catalog.sphere2(), catalog.schwarzschild(1.0),
                   catalog.space_form(2.0, 4), catalog.euclidean(3),
                   catalog.minkowski()]
        for entry in entries:
            cd = riemann(entry.spec, entry.default_point)
            rep = verify_tensor_symmetries(cd)
            assert max_defect(rep) < 1e-12, entry.spec.id

    def test_numeric_reproduces_analytic(self):
        rng = np.random.default_rng(123)
        entry = catalog.schwarzschild(1.0)
        for _ in range(20):
            p = np.array([0.0, rng.uniform(2.5, 12.0),
                          rng.uniform(0.3, math.pi - 0.3),
                          rng.uniform(0, 2 * math.pi)])
            cd_a = riemann(entry.spec, p)
            cd_n = riemann(entry.spec, p, mode="numeric")
            scale = np.abs(cd_a.riemann_mixed).max()
            assert (np.abs(cd_a.riemann_mixed - cd_n.riemann_mixed).max()
                    / scale < 1e-6)
        sphere = catalog.sphere2()
        for _ in range(20):
            p = np.array([rng.uniform(0.3, math.pi - 0.3),
                          rng.uniform(0, 2 * math.pi)])
            cd_a = riemann(sphere.spec, p)
            cd_n = riemann(sphere.spec, p, mode="numeric")
            scale = max(1.0, np.abs(cd_a.riemann_mixed).max())
            assert (np.abs(cd_a.riemann_mixed - cd_n.riemann_mixed).max()
                    / scale < 1e-6)
