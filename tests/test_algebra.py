import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from riemsvp import catalog
from riemsvp.algebra import (NPTetrad, _frame, _raise_all, compute_invariants,
                             curvature_scale, inner, invariant_i, kretschmann,
                             np_scalars, ricci, ricci_scalar, weyl,
                             weyl_self_contraction)
from riemsvp.errors import BadTetrad, DimensionTooSmall, InvalidInput
from riemsvp.geometry import CurvatureData, riemann
from riemsvp.metricfile import load_metric

import oracles


class TestInner:
    def test_identity(self):
        g = np.eye(3)
        e1 = np.array([1.0, 0.0, 0.0])
        assert inner(g, e1, e1) == 1.0

    def test_minkowski_timelike(self):
        g = np.diag([-1.0, 1.0, 1.0, 1.0])
        e0 = np.array([1.0, 0.0, 0.0, 0.0])
        assert inner(g, e0, e0) == -1.0

    def test_sphere_phi_direction(self):
        entry = catalog.sphere2()
        g = entry.spec.g(np.array([math.pi / 3, 0.0]))
        dphi = np.array([0.0, 1.0])
        assert inner(g, dphi, dphi) == pytest.approx(0.75, abs=1e-15)

    def test_symmetric_bilinear(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((4, 4))
        g = a + a.T
        u, v = rng.standard_normal(4), rng.standard_normal(4)
        assert inner(g, u, v) == pytest.approx(inner(g, v, u), rel=1e-14)

    @pytest.mark.parametrize("u, v", [([1.0, 0.0], [1.0, 0.0, 0.0]),
                                      ([1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])])
    def test_wrong_length_is_invalid_input(self, u, v):
        with pytest.raises(InvalidInput, match="vector length"):
            inner(np.eye(3), np.array(u), np.array(v))


class TestRicci:
    def test_unit_sphere_is_einstein(self):
        entry = catalog.sphere2()
        cd = riemann(entry.spec, [1.1, 0.0])
        assert np.allclose(ricci(cd), cd.g, atol=1e-14)

    def test_euclidean_zero(self):
        cd = riemann(catalog.euclidean(3).spec, np.zeros(3))
        assert np.abs(ricci(cd)).max() == 0.0

    def test_schwarzschild_vacuum(self):
        cd = riemann(catalog.schwarzschild(1.0).spec, [0.0, 3.0, 1.0, 0.0])
        assert np.abs(ricci(cd)).max() < 1e-10

    def test_matches_loop_oracle(self):
        cd = riemann(catalog.space_form(1.5, 4).spec, np.zeros(4))
        want = oracles.ricci_loops(cd.g_inv, cd.riemann_lowered)
        assert np.allclose(ricci(cd), want, atol=1e-13)

    def test_symmetric(self):
        cd = riemann(catalog.kerr(1.0, 0.6).spec, [0.0, 4.0, 1.2, 0.0])
        r = ricci(cd)
        assert np.abs(r - r.T).max() < 1e-10


class TestRicciScalar:
    def test_unit_sphere(self):
        cd = riemann(catalog.sphere2().spec, [0.7, 0.0])
        assert ricci_scalar(cd) == pytest.approx(2.0, abs=1e-13)

    def test_euclidean(self):
        cd = riemann(catalog.euclidean(3).spec, np.zeros(3))
        assert ricci_scalar(cd) == 0.0

    def test_space_form_n3(self):
        # R = n (n-1) kappa = 3 * 2 * 2
        cd = riemann(catalog.space_form(2.0, 3).spec, np.zeros(3))
        assert ricci_scalar(cd) == pytest.approx(12.0, abs=1e-12)


class TestCurvatureScale:
    def test_closed_forms(self):
        cases = [
            (catalog.sphere2(), [1.0, 0.0], 1.0),
            (catalog.space_form(-3.0, 4), np.zeros(4), 3.0),
            # the radial tidal component 2M / r^3
            (catalog.schwarzschild(2.0), [0.0, 5.0, 0.7, 0.0], 4.0 / 125.0),
        ]
        for entry, point, rho in cases:
            cd = riemann(entry.spec, point)
            assert curvature_scale(cd) == pytest.approx(rho, rel=1e-12)

    def test_mixed_components_in_an_orthonormal_coframe(self):
        cd = riemann(catalog.kerr(1.0, 0.7).spec, [0.0, 3.0, 1.0, 0.0])
        lam, vec = np.linalg.eigh(cd.g)
        frame = vec / np.sqrt(np.abs(lam))
        hat = np.einsum("ai,ijkl,jb,kc,ld->abcd", np.linalg.inv(frame),
                        cd.riemann_mixed, frame, frame, frame)
        assert curvature_scale(cd) == pytest.approx(np.abs(hat).max(),
                                                    rel=1e-12)

    @pytest.mark.parametrize("metric_id", catalog.CATALOG_IDS)
    def test_frame_gives_the_inline_eigenframe_scale(self, metric_id):
        params = {"kappa": -0.7, "n": 4} if metric_id == "space-form" else {}
        entry = catalog.get(metric_id, **params)
        cd = riemann(entry.spec, entry.default_point)
        # the scale as it was written before the frame had a helper
        lam, vec = np.linalg.eigh(cd.g)
        frame = vec / np.sqrt(np.abs(lam))
        want = float(np.abs(_raise_all(cd.riemann_lowered, frame.T)).max())
        assert curvature_scale(cd) == want
        E, eta = _frame(cd.g)
        assert np.array_equal(E, frame) and np.array_equal(eta, np.sign(lam))
        assert np.allclose(E.T @ cd.g @ E, np.diag(eta), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("c", [1e-3, 0.3, 1e3])
    def test_homothety(self, c):
        # g -> c^2 g keeps the mixed tensor and scales the lowered one by
        # c^2, so the scale goes as 1 / c^2
        cd = riemann(catalog.schwarzschild(1.0).spec, [0.0, 4.0, 0.9, 0.0])
        scaled = CurvatureData(point=cd.point, g=c * c * cd.g,
                               g_inv=cd.g_inv / (c * c),
                               riemann_mixed=cd.riemann_mixed,
                               riemann_lowered=c * c * cd.riemann_lowered,
                               signature=cd.signature)
        assert curvature_scale(scaled) == pytest.approx(
            curvature_scale(cd) / (c * c), rel=1e-12)


METRIC_FILES = Path(__file__).parents[1] / "perfbench" / "metrics"

# (spec, point) for every catalog metric and both benchmark metric files
HOMOTHETY_CASES = {
    "sphere2": lambda: (catalog.sphere2().spec, [1.0, 0.3]),
    "space-form": lambda: (catalog.space_form(-0.7, 4).spec,
                           [0.1, 0.2, 0.3, 0.4]),
    "euclidean": lambda: (catalog.euclidean(3).spec, [0.5, 1.0, 2.0]),
    "minkowski": lambda: (catalog.minkowski().spec, np.zeros(4)),
    "schwarzschild": lambda: (catalog.schwarzschild(1.0).spec,
                              [0.0, 3.0, 0.7854, 0.0]),
    "kerr": lambda: (catalog.kerr(1.0, 0.9).spec, [0.0, 4.0, 1.2, 0.0]),
    "halfplane.metric": lambda: (
        load_metric(METRIC_FILES / "halfplane.metric"), [0.3, 1.7]),
    "schwarzschild-m1.metric": lambda: (
        load_metric(METRIC_FILES / "schwarzschild-m1.metric"),
        [0.0, 10.0, 1.2, 0.0]),
}


class TestExactHomothety:
    """g -> 4^k g is exact in floating point, and so is every input of a
    search: the mixed curvature is unchanged, the lowered curvature and the
    curvature scale go as 4^k and 4^-k, and g's frame as 2^-k."""

    @pytest.mark.parametrize("mode", ["auto", "numeric"])
    @pytest.mark.parametrize("case", sorted(HOMOTHETY_CASES))
    @pytest.mark.parametrize("k", [-8, -3, 3, 8])
    def test_inputs_scale_exactly(self, case, mode, k):
        spec, point = HOMOTHETY_CASES[case]()
        c = 4.0 ** k
        scaled = replace(spec, g=lambda p: c * spec.g(p))
        cd, cd_c = riemann(spec, point, mode), riemann(scaled, point, mode)
        assert np.array_equal(cd_c.riemann_mixed, cd.riemann_mixed)
        assert np.array_equal(cd_c.riemann_lowered, c * cd.riemann_lowered)
        assert curvature_scale(cd_c) == curvature_scale(cd) / c
        (E, eta), (E_c, eta_c) = _frame(cd.g), _frame(cd_c.g)
        assert np.array_equal(E_c, E * 2.0 ** -k)
        assert np.array_equal(eta_c, eta)


class TestKretschmann:
    def test_schwarzschild_closed_form(self):
        cd = riemann(catalog.schwarzschild(1.0).spec, [0.0, 3.0, 0.8, 0.0])
        assert kretschmann(cd) == pytest.approx(48.0 / 729.0, rel=1e-13)

    def test_euclidean(self):
        cd = riemann(catalog.euclidean(4).spec, np.zeros(4))
        assert kretschmann(cd) == 0.0

    def test_unit_sphere_brute_force(self):
        cd = riemann(catalog.sphere2().spec, [0.9, 0.3])
        want = oracles.kretschmann_loops(cd.g_inv, cd.riemann_lowered)
        assert want == pytest.approx(4.0, rel=1e-12)
        assert kretschmann(cd) == pytest.approx(want, rel=1e-12)

    def test_raise_all_matches_five_operand_einsum(self):
        kerr = riemann(catalog.kerr(1.0, 0.7).spec, [0.0, 3.0, 1.0, 0.0])
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 5))
        cases = [(kerr.riemann_lowered, kerr.g_inv), (weyl(kerr), kerr.g_inv),
                 (rng.standard_normal((5,) * 4), a + a.T)]
        for t, g_inv in cases:
            want = np.einsum("ia,jb,kc,ld,abcd->ijkl", g_inv, g_inv, g_inv,
                             g_inv, t)
            terms = np.einsum("ia,jb,kc,ld,abcd->ijkl", *(np.abs(g_inv),) * 4,
                              np.abs(t))
            assert np.all(np.abs(_raise_all(t, g_inv) - want) <= 1e-14 * terms)

    def test_nonnegative_riemannian(self):
        for kappa in (-2.0, 0.5):
            cd = riemann(catalog.space_form(kappa, 4).spec, np.zeros(4))
            assert kretschmann(cd) >= 0.0


class TestWeyl:
    def test_space_form_conformally_flat(self):
        cd = riemann(catalog.space_form(1.3, 4).spec, np.zeros(4))
        assert np.abs(weyl(cd)).max() < 1e-12

    def test_schwarzschild_vacuum_equals_riemann(self):
        cd = riemann(catalog.schwarzschild(1.0).spec, [0.0, 4.0, 1.0, 0.0])
        assert np.allclose(weyl(cd), cd.riemann_lowered, atol=1e-12)

    def test_euclidean_zero(self):
        cd = riemann(catalog.euclidean(4).spec, np.zeros(4))
        assert np.abs(weyl(cd)).max() == 0.0

    def test_trace_free_and_reconstructs(self):
        for entry in (catalog.schwarzschild(1.0), catalog.kerr(1.0, 0.5),
                      catalog.space_form(-0.7, 4)):
            cd = riemann(entry.spec, entry.default_point)
            c = weyl(cd)
            n = cd.n
            trace = np.einsum("ik,ijkl->jl", cd.g_inv, c)
            assert np.abs(trace).max() < 1e-10, entry.spec.id
            ric = ricci(cd)
            scal = ricci_scalar(cd)
            g = cd.g
            rebuilt = (c
                       - (np.einsum("il,jk->ijkl", ric, g)
                          - np.einsum("ik,jl->ijkl", ric, g)
                          + np.einsum("il,jk->ijkl", g, ric)
                          - np.einsum("ik,jl->ijkl", g, ric)) / (n - 2)
                       + (np.einsum("il,jk->ijkl", g, g)
                          - np.einsum("ik,jl->ijkl", g, g))
                       * scal / ((n - 1) * (n - 2)))
            assert np.abs(rebuilt - cd.riemann_lowered).max() < 1e-10

    def test_dimension_too_small(self):
        cd = riemann(catalog.sphere2().spec, [1.0, 0.0])
        with pytest.raises(DimensionTooSmall):
            weyl(cd)

    def test_vacuum_weyl_sq_equals_kretschmann(self):
        cd = riemann(catalog.schwarzschild(2.0).spec, [0.0, 9.0, 1.1, 0.0])
        k1 = kretschmann(cd)
        assert weyl_self_contraction(cd) == pytest.approx(k1, rel=1e-8)


class TestNPScalars:
    def test_kerr_equator(self):
        entry = catalog.kerr(1.0, 0.5)
        p = np.array([0.0, 3.0, math.pi / 2, 0.0])
        cd = riemann(entry.spec, p)
        psis = np_scalars(cd, entry.tetrad(p))
        for k in (0, 1, 3, 4):
            assert abs(psis[k]) < 1e-8
        assert psis[2] == pytest.approx(1.0 / 27.0, abs=1e-8)

    def test_kerr_off_equator(self):
        entry = catalog.kerr(1.0, 0.5)
        p = np.array([0.0, 3.0, math.pi / 3, 0.0])
        cd = riemann(entry.spec, p)
        psis = np_scalars(cd, entry.tetrad(p))
        want = 1.0 / (3.0 - 0.25j) ** 3
        assert abs(psis[2] - want) < 1e-8

    def test_flat_metric_all_zero(self):
        entry = catalog.minkowski()
        p = np.zeros(4)
        cd = riemann(entry.spec, p)
        psis = np_scalars(cd, entry.tetrad(p))
        assert max(abs(p_) for p_ in psis) < 1e-14

    def test_bad_tetrad_rejected(self):
        entry = catalog.kerr(1.0, 0.5)
        p = np.array([0.0, 3.0, 1.0, 0.0])
        cd = riemann(entry.spec, p)
        good = entry.tetrad(p)
        bad = NPTetrad(l=good.l * 1.5, n=good.n, m=good.m)
        with pytest.raises(BadTetrad):
            np_scalars(cd, bad)

    def test_slightly_bent_tetrad_rejected(self):
        # l scaled by 1.001 violates <l, n> = -1 by 1e-3 of its terms
        entry = catalog.kerr(1.0, 0.5)
        p = np.array([0.0, 3.0, 1.0, 0.0])
        good = entry.tetrad(p)
        bad = NPTetrad(l=good.l * 1.001, n=good.n, m=good.m)
        assert bad.normalization_defect(entry.spec.g(p)) > 1e-4
        with pytest.raises(BadTetrad):
            np_scalars(riemann(entry.spec, p), bad)

    def test_nan_tetrad_rejected(self):
        # a NaN defect is not below the window
        entry = catalog.kerr(1.0, 0.5)
        p = np.array([0.0, 3.0, 1.0, 0.0])
        good = entry.tetrad(p)
        bad = NPTetrad(l=good.l * math.nan, n=good.n, m=good.m)
        with pytest.raises(BadTetrad):
            np_scalars(riemann(entry.spec, p), bad)

    @pytest.mark.parametrize("a", [0.0, 0.5, 0.9, 0.99])
    def test_defect_relative_near_horizon(self, a):
        # the Gram entries grow like 1 / (r - r+) near the horizon; relative
        # to the size of their terms the defect stays at rounding level
        entry = catalog.kerr(1.0, a)
        r_plus = 1.0 + math.sqrt(1.0 - a * a)
        for gap in (1e-1, 1e-3, 1e-5, 1e-7):
            p = np.array([0.0, r_plus + gap, 1.0, 0.0])
            assert entry.tetrad(p).normalization_defect(entry.spec.g(p)) < 1e-8

    def test_tetrad_normalization_values(self):
        entry = catalog.kerr(1.0, 0.9)
        p = np.array([0.0, 2.8, 0.7, 0.0])
        g = entry.spec.g(p)
        assert entry.tetrad(p).normalization_defect(g) < 1e-10


class TestFrameKernels:
    """The whole-tensor kernels against the former per-term formulas."""

    @pytest.mark.parametrize("a", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("th", [0.15, math.pi / 2, 2.9])
    def test_psis_match_contractions(self, a, th):
        entry = catalog.kerr(1.0, a)
        p = np.array([0.0, 3.0, th, 0.0])
        cd = riemann(entry.spec, p)
        got = np.array(np_scalars(cd, entry.tetrad(p)))
        want = np.array(oracles.np_scalars_contractions(weyl(cd), entry.tetrad(p)))
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_psis_flat(self):
        entry = catalog.minkowski()
        cd = riemann(entry.spec, np.zeros(4))
        want = oracles.np_scalars_contractions(weyl(cd), entry.tetrad(cd.point))
        assert np_scalars(cd, entry.tetrad(cd.point)) == want == (0j,) * 5

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("negative", [0, 1])
    def test_weyl_matches_einsum_split(self, n, negative):
        rng = np.random.default_rng(10 * n + negative)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = rng.uniform(0.5, 2.0, n) * np.where(np.arange(n) < negative, -1, 1)
        g = (q * lam) @ q.T
        g = 0.5 * (g + g.T)
        # a sum of h_il h_jk - h_ik h_jl over symmetric h has every
        # algebraic symmetry of a curvature tensor
        lowered = np.zeros((n,) * 4)
        for _ in range(3):
            h = rng.standard_normal((n, n))
            h = h + h.T
            lowered += (np.einsum("il,jk->ijkl", h, h)
                        - np.einsum("ik,jl->ijkl", h, h))
        g_inv = np.linalg.inv(g)
        cd = CurvatureData(point=np.zeros(n), g=g, g_inv=g_inv,
                           riemann_mixed=np.einsum("ih,hjkl->ijkl", g_inv, lowered),
                           riemann_lowered=lowered,
                           signature=(-1,) * negative + (1,) * (n - negative))
        want = oracles.weyl_einsum(g, ricci(cd), ricci_scalar(cd), lowered)
        assert np.abs(weyl(cd) - want).max() <= 1e-14 * np.abs(lowered).max()

    @pytest.mark.parametrize("a", [0.0, 0.5, 0.9])
    def test_normalization_defect_matches_products(self, a):
        entry = catalog.kerr(1.0, a)
        p = np.array([0.0, 3.0, 1.0, 0.0])
        g, t = entry.spec.g(p), entry.tetrad(p)
        rng = np.random.default_rng(int(10 * a))
        for _ in range(5):
            bent = NPTetrad(l=t.l * (1 + 1e-6 * rng.standard_normal(4)),
                            n=t.n + 1e-6 * rng.standard_normal(4),
                            m=t.m * (1 + 1e-6 * rng.standard_normal(4)))
            want = oracles.tetrad_defect_products(bent, g)
            assert want > 1e-7
            assert abs(bent.normalization_defect(g) - want) <= 1e-15


class TestInvariantI:
    def test_kerr_equator(self):
        # 3 * psi2^2 with psi2 = 1/27
        entry = catalog.kerr(1.0, 0.5)
        p = np.array([0.0, 3.0, math.pi / 2, 0.0])
        cd = riemann(entry.spec, p)
        val = invariant_i(np_scalars(cd, entry.tetrad(p)))
        assert val == pytest.approx(3.0 / 729.0, abs=1e-8)

    def test_all_zero(self):
        assert invariant_i((0j, 0j, 0j, 0j, 0j)) == 0j

    def test_schwarzschild_limit(self):
        # I = 3 M^2 / r^6 in the non-rotating limit
        entry = catalog.kerr(1.0, 0.0)
        for r in (3.0, 5.0):
            p = np.array([0.0, r, 1.2, 0.0])
            cd = riemann(entry.spec, p)
            val = invariant_i(np_scalars(cd, entry.tetrad(p)))
            assert val.real == pytest.approx(3.0 / r ** 6, rel=1e-7)
            assert abs(val.imag) < 1e-10

    def test_formula_direct(self):
        psis = (1 + 2j, 0.5j, -1.0 + 0j, 2.0 + 0j, 3.0 - 1j)
        want = psis[0] * psis[4] - 4 * psis[1] * psis[3] + 3 * psis[2] ** 2
        assert invariant_i(psis) == want


class TestInvariantReport:
    def test_schwarzschild_report(self):
        entry = catalog.schwarzschild(1.0)
        cd = riemann(entry.spec, [0.0, 3.0, 1.0, 0.0])
        rep = compute_invariants(cd)
        assert rep.ricci_scalar == pytest.approx(0.0, abs=1e-10)
        assert rep.kretschmann == pytest.approx(48.0 / 729.0, rel=1e-12)
        assert rep.weyl_norm == pytest.approx(math.sqrt(48.0 / 729.0), rel=1e-8)
        assert rep.np_scalars is None

    def test_kerr_report_with_tetrad(self):
        entry = catalog.kerr(1.0, 0.3)
        p = entry.default_point
        cd = riemann(entry.spec, p)
        rep = compute_invariants(cd, entry.tetrad(p))
        assert rep.np_scalars is not None
        assert rep.invariant_i == pytest.approx(
            invariant_i(rep.np_scalars), abs=1e-15)

    def test_riemannian_kretschmann_nonnegative(self):
        cd = riemann(catalog.sphere2().spec, [0.9, 0.1])
        rep = compute_invariants(cd)
        assert rep.kretschmann >= 0.0
        assert rep.weyl_sq is not None

    @pytest.mark.parametrize("entry, p, with_tetrad", [
        (catalog.kerr(1.0, 0.7), [0.0, 3.5, 1.0, 0.0], True),
        (catalog.kerr(1.0, 0.7), [0.0, 3.5, 1.0, 0.0], False),
        (catalog.minkowski(), [0.0, 1.0, 2.0, 3.0], True),
        (catalog.schwarzschild(2.0), [0.0, 9.0, 1.2, 0.0], False),
        (catalog.space_form(-0.5, 3), [0.1, 0.2, 0.3], False),
        (catalog.sphere2(), [0.9, 0.1], False),
    ], ids=["kerr-tetrad", "kerr", "minkowski-tetrad", "schwarzschild",
            "space-form-3", "sphere2"])
    def test_fields_equal_the_public_functions(self, entry, p, with_tetrad):
        cd = riemann(entry.spec, p)
        tetrad = entry.tetrad(cd.point) if with_tetrad else None
        rep = compute_invariants(cd, tetrad)
        assert rep.ricci_scalar == ricci_scalar(cd)
        assert rep.kretschmann == kretschmann(cd)
        wsq = weyl_self_contraction(cd) if cd.n >= 3 else 0.0
        assert rep.weyl_sq == wsq
        assert rep.weyl_norm == (float(np.sqrt(wsq)) if wsq >= 0.0 else None)
        if with_tetrad:
            psis = np_scalars(cd, tetrad)
            assert rep.np_scalars == psis
            assert rep.invariant_i == invariant_i(psis)
        else:
            assert rep.np_scalars is None and rep.invariant_i is None
