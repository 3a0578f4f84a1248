import dataclasses
import math

import numpy as np
import pytest

from riemsvp import catalog
from riemsvp.algebra import kretschmann
from riemsvp.errors import (DifferentiationFailure, InvalidInput,
                            SingularMetric, WrongSignature)
from riemsvp.geometry import (Jet, MetricSpec, christoffel, complete_riemann,
                              independent_components, metric_at, riemann,
                              supports_complex_step, verify_tensor_symmetries)
from riemsvp.metricfile import load_metric

import oracles


class TestMetricAt:
    def test_sphere_equator(self):
        entry = catalog.sphere2()
        g, g_inv = metric_at(entry.spec, [math.pi / 2, 0.0])
        assert np.allclose(g, np.eye(2), atol=1e-15)
        assert np.allclose(g @ g_inv, np.eye(2), atol=1e-12)

    def test_euclidean_identity(self):
        entry = catalog.euclidean(3)
        g, _ = metric_at(entry.spec, [0.4, -1.0, 2.0])
        assert np.array_equal(g, np.eye(3))

    def test_schwarzschild_g00(self):
        # substitute r = 3, M = 1 into the line element: g00 = -(1 - 2/3)
        entry = catalog.schwarzschild(1.0)
        g, _ = metric_at(entry.spec, [0.0, 3.0, math.pi / 4, 0.0])
        assert g[0, 0] == pytest.approx(-1.0 / 3.0, abs=1e-15)
        assert g[1, 1] == pytest.approx(3.0, abs=1e-12)

    def test_singular_at_pole(self):
        entry = catalog.sphere2()
        with pytest.raises(SingularMetric):
            metric_at(entry.spec, [0.0, 0.0])

    def test_singular_at_horizon(self):
        entry = catalog.schwarzschild(1.0)
        with pytest.raises(SingularMetric):
            metric_at(entry.spec, [0.0, 2.0, 1.0, 0.0])

    def test_bad_point(self):
        entry = catalog.sphere2()
        with pytest.raises(InvalidInput):
            metric_at(entry.spec, [1.0, 2.0, 3.0])
        with pytest.raises(InvalidInput):
            metric_at(entry.spec, [np.nan, 0.0])


class TestChristoffel:
    def test_sphere_closed_form(self):
        th = math.pi / 3
        entry = catalog.sphere2()
        gam = christoffel(entry.spec, [th, 0.2])
        assert gam[0, 1, 1] == pytest.approx(-math.sqrt(3.0) / 4.0, abs=1e-14)
        assert gam[1, 0, 1] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-14)
        assert gam[1, 1, 0] == gam[1, 0, 1]

    def test_sphere_numeric_matches_loops(self):
        entry = catalog.sphere2()
        p = np.array([1.1, 0.4])
        got = christoffel(entry.spec, p)
        want = oracles.christoffel_loops(entry.spec.g, p)
        assert np.abs(got - want).max() < 1e-8

    def test_euclidean_zero(self):
        entry = catalog.euclidean(3)
        gam = christoffel(entry.spec, np.zeros(3))
        assert np.abs(gam).max() < 1e-12

    def test_schwarzschild_gamma_r_tt(self):
        # gamma^r_tt = f f' / 2 = (1/3) * (2/9) / 2 at M=1, r=3
        entry = catalog.schwarzschild(1.0)
        gam = christoffel(entry.spec, [0.0, 3.0, math.pi / 4, 0.0])
        assert gam[1, 0, 0] == pytest.approx(1.0 / 27.0, abs=1e-12)

    def test_symmetric_lower_indices(self):
        entry = catalog.kerr(1.0, 0.7)
        gam = christoffel(entry.spec, [0.0, 4.0, 1.1, 0.0])
        assert np.abs(gam - np.swapaxes(gam, 1, 2)).max() < 1e-12


class TestRiemann:
    def test_sphere_component(self):
        entry = catalog.sphere2()
        cd = riemann(entry.spec, [math.pi / 3, 0.0])
        assert cd.riemann_lowered[0, 1, 0, 1] == pytest.approx(0.75, abs=1e-14)

    def test_sphere_sign_pin(self):
        # regression: R_{theta phi theta phi} = +sin(theta)^2
        entry = catalog.sphere2()
        for th in (0.4, 1.0, 2.2):
            cd = riemann(entry.spec, [th, 0.0])
            assert cd.riemann_lowered[0, 1, 0, 1] == pytest.approx(
                math.sin(th) ** 2, rel=1e-12)

    def test_euclidean_zero(self):
        entry = catalog.euclidean(4)
        cd = riemann(entry.spec, np.zeros(4), mode="numeric")
        assert np.abs(cd.riemann_lowered).max() < 1e-12

    def test_schwarzschild_2b_entry(self):
        # R^0_{101} = 2B with B = M/(r^3 f) = 1/9 at M=1, r=3
        entry = catalog.schwarzschild(1.0)
        cd = riemann(entry.spec, [0.0, 3.0, 0.9, 0.0])
        assert cd.riemann_mixed[0, 1, 0, 1] == pytest.approx(2.0 / 9.0,
                                                             rel=1e-14)

    def test_numeric_matches_analytic_schwarzschild(self):
        entry = catalog.schwarzschild(1.0)
        p = np.array([0.0, 4.2, 1.2, 0.3])
        cd_a = riemann(entry.spec, p)
        cd_n = riemann(entry.spec, p, mode="numeric")
        scale = np.abs(cd_a.riemann_mixed).max()
        rel = np.abs(cd_a.riemann_mixed - cd_n.riemann_mixed).max() / scale
        assert rel < 1e-6
        assert cd_a.path == "analytic" and cd_n.path == "numeric"

    def test_numeric_matches_loop_oracle_kerr(self):
        entry = catalog.kerr(1.0, 0.5)
        p = np.array([0.0, 3.5, 1.0, 0.0])
        cd = riemann(entry.spec, p, mode="numeric")
        assert cd.path == "numeric"
        gamma_fn = lambda q: oracles.christoffel_loops(entry.spec.g, q, h=1e-6)
        want = oracles.riemann_mixed_loops(gamma_fn, p, h=1e-4)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(cd.riemann_mixed - want).max() / scale < 1e-5

    def test_lowered_consistent_with_loops(self):
        entry = catalog.schwarzschild(2.0)
        p = np.array([0.0, 7.0, 0.8, 1.0])
        cd = riemann(entry.spec, p)
        want = oracles.lower_loops(cd.g, cd.riemann_mixed)
        assert np.abs(cd.riemann_lowered - want).max() < 1e-14


class TestDeclaredSignature:
    @pytest.mark.parametrize("mode", ["auto", "numeric"])
    def test_mismatch_raises(self, mode):
        spec = dataclasses.replace(catalog.schwarzschild(1.0).spec,
                                   signature=(1, 1, 1, 1))
        with pytest.raises(WrongSignature, match="1 negative eigenvalue"):
            riemann(spec, [0.0, 3.0, 1.0, 0.0], mode=mode)


class TestSymmetries:
    def test_analytic_tables_exact(self):
        for entry in (catalog.sphere2(), catalog.schwarzschild(1.0),
                      catalog.space_form(2.0, 4), catalog.minkowski()):
            cd = riemann(entry.spec, entry.default_point)
            rep = verify_tensor_symmetries(cd, tol=1e-12)
            assert rep.passed, (entry.spec.id, rep)
            assert rep.max_defect == 0.0

    def test_kerr_numeric_path(self):
        entry = catalog.kerr(1.0, 0.5)
        cd = riemann(entry.spec, [0.0, 3.0, math.pi / 4, 0.0])
        rep = verify_tensor_symmetries(cd, tol=1e-6)
        assert rep.passed
        assert rep.max_defect < 1e-6
        assert cd.symmetry_defect < 1e-6

    def test_reconstruction_from_20_components(self):
        # the analytic table builds symmetric partners through different
        # float paths, so agreement holds to a few ulps, not bit-exactly
        entry = catalog.schwarzschild(1.0)
        cd = riemann(entry.spec, [0.0, 5.0, 1.0, 0.2])
        comps = independent_components(cd.riemann_lowered)
        assert len(comps) == 21
        rebuilt = complete_riemann(comps, 4)
        scale = np.abs(cd.riemann_lowered).max()
        assert np.abs(rebuilt - cd.riemann_lowered).max() < 1e-15 * max(1, scale)

    def test_reconstruction_drops_dependent_entry(self):
        # corrupting the Bianchi-dependent slot must not matter
        entry = catalog.schwarzschild(1.0)
        cd = riemann(entry.spec, [0.0, 3.5, 1.3, 0.0])
        comps = independent_components(cd.riemann_lowered)
        comps[(0, 2, 1, 3)] = 123.456
        rebuilt = complete_riemann(comps, 4)
        scale = np.abs(cd.riemann_lowered).max()
        assert np.abs(rebuilt - cd.riemann_lowered).max() < 1e-15 * max(1, scale)


def polar_spec():
    """Flat plane in polar coordinates, real coordinates only."""
    def g(p):
        if np.iscomplexobj(p):
            raise TypeError("real coordinates only")
        return np.diag([1.0, float(p[0]) ** 2])

    return MetricSpec(dimension=2, signature=(1, 1), g=g, id="polar")


class TestComplexStep:
    def test_catalog_metrics_support_it(self):
        for entry in (catalog.sphere2(), catalog.schwarzschild(1.0),
                      catalog.kerr(1.0, 0.3)):
            assert supports_complex_step(entry.spec, entry.default_point)

    def test_real_only_supplier_falls_back(self):
        spec = polar_spec()
        p = np.array([2.0, 0.5])
        assert not supports_complex_step(spec, p)
        gam = christoffel(spec, p)
        # flat plane in polar coordinates: gamma^r_pp = -r, gamma^p_rp = 1/r
        assert gam[0, 1, 1] == pytest.approx(-2.0, rel=1e-9)
        assert gam[1, 0, 1] == pytest.approx(0.5, rel=1e-9)
        cd = riemann(spec, p, mode="numeric")
        assert np.abs(cd.riemann_lowered).max() < 1e-6


SCHWARZSCHILD_FILE = """\
# Schwarzschild, M = 1
dimension = 4
coordinates = t, r, theta, phi
signature = -, +, +, +
g[0,0] = -(1 - 2/r)
g[1,1] = 1 / (1 - 2/r)
g[2,2] = r^2
g[3,3] = r^2 * sin(theta)^2
"""


def stencil_cases(tmp_path):
    """``(spec, point, mode)`` for every branch of the numeric path."""
    path = tmp_path / "schwarzschild.metric"
    path.write_text(SCHWARZSCHILD_FILE)
    cases = [(catalog.kerr(1.0, a).spec, [0.0, r, th, 0.3], "numeric")
             for a, r, th in ((0.0, 6.0, math.pi / 2), (0.5, 3.5, 1.0),
                              (0.9, 2.5, 0.3), (0.3, 40.0, 2.8))]
    cases += [
        (catalog.schwarzschild(1.0).spec, [0.0, 3.0, 0.9, 0.0], "numeric"),
        (catalog.schwarzschild(2.0).spec, [1.0, 700.0, 2.0, 0.5], "numeric"),
        (load_metric(path), [0.0, 4.0, 1.2, 0.3], "numeric"),
        (polar_spec(), [2.0, 0.5], "numeric"),
        (catalog.sphere2().spec, [0.7, 0.2], "numeric"),
    ]
    return cases


def failing_spec(plan):
    """A flat 2D metric that fails at chosen values of its first coordinate.

    ``plan`` maps a value to ``"nan"`` (a non-finite metric), ``"singular"``
    (a zero determinant), ``"dnan"`` (a non-finite complex step in the
    second coordinate), ``"both"`` (the last two) or ``"raise"`` (the
    supplier raises).
    """
    def g(p):
        x = p[0]
        kind = next((k for r, k in plan.items() if abs(np.real(x) - r) < 1e-12),
                    None)
        if kind == "raise":
            raise ZeroDivisionError("supplier failed")
        out = np.array([[1.0 + 0.0 * x, 0.0 * x], [0.0 * x, 1.0 + 0.0 * x]])
        if kind == "nan" and not np.iscomplexobj(p):
            out[1, 1] = np.nan
        if kind in ("singular", "both"):
            out[1, 1] = 0.0
        if kind in ("dnan", "both") and np.iscomplexobj(p) and p[1].imag != 0:
            out[1, 1] = complex(1.0, np.inf)
        return out

    return MetricSpec(dimension=2, signature=(1, 1), g=g, id="failing")


class TestOneStencil:
    def test_bit_identical_to_per_point_path(self, tmp_path):
        for spec, p, mode in stencil_cases(tmp_path):
            cd = riemann(spec, p, mode=mode)
            assert cd.path == "numeric"
            g_inv, gamma, mixed, lowered = oracles.riemann_per_point(
                spec, p, mode=mode)
            for got, want in ((cd.g_inv, g_inv), (christoffel(spec, p), gamma),
                              (cd.riemann_mixed, mixed),
                              (cd.riemann_lowered, lowered)):
                assert np.array_equal(got, want), (spec.id, p, mode)

    @pytest.mark.parametrize("spec, p, mode, evals", [
        (catalog.kerr(1.0, 0.7).spec, [0.0, 3.0, 1.0, 0.0], "numeric", 27),
        (dataclasses.replace(catalog.kerr(1.0, 0.7).spec, ignorable=()),
         [0.0, 3.0, 1.0, 0.0], "numeric", 85),
        (catalog.schwarzschild(1.0).spec, [0.0, 3.0, 1.0, 0.0], "numeric", 27),
        (catalog.space_form(2.0, 3).spec, [0.1, 0.2, 0.3], "numeric", 52),
        (catalog.sphere2().spec, [1.0, 0.2], "numeric", 27),
        (dataclasses.replace(catalog.minkowski().spec,
                             ignorable=(0, 1, 2, 3)),
         [0.5, 1.0, 2.0, 3.0], "numeric", 1),
        (catalog.schwarzschild(1.0).spec, [0.0, 3.0, 1.0, 0.0], "auto", 1),
        (catalog.sphere2().spec, [1.0, 0.2], "auto", 1),
        (polar_spec(), [2.0, 0.5], "numeric", 90),
    ], ids=["kerr", "kerr-nothing-ignorable", "schwarzschild",
            "space-form-3", "sphere2", "constant", "schwarzschild-analytic",
            "sphere2-analytic", "real-difference-fallback"])
    def test_metric_evaluations_per_riemann(self, spec, p, mode, evals):
        calls = []

        def g(q):
            calls.append(q)
            return spec.g(q)

        cd = riemann(dataclasses.replace(spec, g=g), p, mode=mode)
        assert len(calls) == evals
        if cd.path == "analytic":
            # the metric at p; the curvature comes from the supplier
            assert evals == 1
        else:
            # (4k + 1) stencil rows for the k coordinates the metric depends
            # on, each one real and k complex-step evaluations; on the
            # real-difference fallback one real, one failed complex step and
            # 4k real ones
            k = spec.dimension - len(spec.ignorable)
            per_row = k + 1 if supports_complex_step(spec, p) else 4 * k + 2
            assert evals == (4 * k + 1) * per_row

    @pytest.mark.parametrize("entry, p, row", [
        (catalog.sphere2(), [1e-3, 0.2], "[0.0, 0.2]"),
        (catalog.schwarzschild(1.0), [0.0, 2.002, 1.0, 0.0], "[0.0, 1.99999"),
    ], ids=["sphere-pole", "schwarzschild-horizon"])
    def test_singular_stencil_row(self, entry, p, row):
        metric_at(entry.spec, p)
        with pytest.raises(SingularMetric) as got:
            riemann(entry.spec, p, mode="numeric")
        assert f"is singular at {row}" in str(got.value)
        with pytest.raises(SingularMetric) as want:
            oracles.riemann_per_point(entry.spec, p, mode="numeric")
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("plan, error, message", [
        ({0.999: "nan"}, SingularMetric, "'failing' is not finite at [0.999, 0.2]"),
        ({1.0005: "singular", 1.001: "dnan"}, DifferentiationFailure,
         "metric derivatives non-finite at [1.001, 0.2]"),
        ({1.001: "singular", 0.999: "dnan"}, SingularMetric,
         "'failing' is singular at [1.001, 0.2]"),
        ({1.001: "singular", 0.999: "raise"}, SingularMetric,
         "'failing' is singular at [1.001, 0.2]"),
        ({0.999: "dnan", 1.0005: "raise"}, DifferentiationFailure,
         "metric derivatives non-finite at [0.999, 0.2]"),
        ({1.0005: "raise"}, ZeroDivisionError, "supplier failed"),
        ({1.001: "both"}, SingularMetric, "'failing' is singular at [1.001, 0.2]"),
    ], ids=["not-finite", "derivative-first", "metric-first",
            "metric-before-raise", "derivative-before-raise", "raise",
            "metric-before-derivative-on-one-row"])
    def test_first_failing_row_wins(self, plan, error, message):
        # stencil rows in order: x = 1, 1.001, 0.999, 1.0005, 0.9995, then
        # the rows of the second coordinate at x = 1
        spec = failing_spec(plan)
        with pytest.raises(error) as got:
            riemann(spec, [1.0, 0.2], mode="numeric")
        assert message in str(got.value)
        with pytest.raises(error) as want:
            oracles.riemann_per_point(spec, [1.0, 0.2], mode="numeric")
        assert str(got.value) == str(want.value)

    def test_one_row_falls_back(self):
        # the complex step raises at the stencil row x = 1.001 only
        calls = []

        def g(p):
            x, y = p
            calls.append((np.iscomplexobj(p), float(np.real(x))))
            if np.iscomplexobj(p) and abs(x.real - 1.001) < 1e-12:
                raise TypeError("no complex step here")
            return np.array([[1.0 + y * y / 10, x * y / 10],
                             [x * y / 10, 1.0 + np.sin(x) ** 2]])

        spec = MetricSpec(dimension=2, signature=(1, 1), g=g, id="one-row")
        p = [1.0, 0.2]
        cd = riemann(spec, p)
        near = [(cplx, abs(x - 1.001) < 1e-4) for cplx, x in calls]
        # that row: its metric, the failed step and 4k = 8 real evaluations;
        # the other 8 rows: their metric and k = 2 complex steps
        assert near.count((False, True)) == 9
        assert near.count((True, True)) == 1
        assert near.count((False, False)) == 8
        assert near.count((True, False)) == 16
        assert len(calls) == 8 * 3 + 10
        g_inv, gamma, mixed, lowered = oracles.riemann_per_point(spec, p)
        for got, want in ((cd.g_inv, g_inv), (christoffel(spec, p), gamma),
                          (cd.riemann_mixed, mixed),
                          (cd.riemann_lowered, lowered)):
            assert np.array_equal(got, want)


def ignorable_cases(tmp_path):
    """``(spec, point, mode)`` of metrics that declare ignorable
    coordinates, at points where those coordinates are not zero."""
    path = tmp_path / "schwarzschild.metric"
    path.write_text(SCHWARZSCHILD_FILE)
    cases = [(catalog.kerr(1.0, a).spec, [1.7, r, th, -2.4], "numeric")
             for a, r, th in ((0.0, 6.0, math.pi / 2), (0.3, 3.5, 1.0),
                              (0.7, 2.5, 0.3), (0.95, 40.0, 2.8))]
    cases += [
        (catalog.schwarzschild(1.0).spec, [-3.0, 3.0, 0.9, 0.4], "numeric"),
        (catalog.schwarzschild(2.0).spec, [1.0, 700.0, 2.0, 5.5], "numeric"),
        (load_metric(path), [12.0, 4.0, 1.2, 0.3], "numeric"),
        # the real-difference fallback for the metric derivatives
        (dataclasses.replace(polar_spec(), ignorable=(1,)), [2.0, 0.5],
         "numeric"),
    ]
    return cases


def assert_bitwise_equal(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestIgnorableCoordinates:
    def test_bit_identical_to_full_stencil(self, tmp_path):
        for spec, p, mode in ignorable_cases(tmp_path):
            assert spec.ignorable
            full = dataclasses.replace(spec, ignorable=())
            got, want = riemann(spec, p, mode=mode), riemann(full, p, mode=mode)
            assert got.path == want.path == "numeric"
            for name in ("g_inv", "riemann_mixed", "riemann_lowered"):
                assert_bitwise_equal(getattr(got, name), getattr(want, name))
            assert_bitwise_equal(christoffel(spec, p), christoffel(full, p))

    @pytest.mark.parametrize("ignorable", [(4,), (-1,), (0, 0), (1, 2, 1)],
                             ids=["above", "negative", "repeated",
                                  "repeated-apart"])
    def test_bad_index_rejected(self, ignorable):
        with pytest.raises(InvalidInput):
            dataclasses.replace(catalog.kerr(1.0, 0.5).spec,
                                ignorable=ignorable)

    def test_complex_step_checked_on_a_varying_coordinate(self):
        # the supplier fails on a complex step in x, which it does not read
        def g(p):
            if np.iscomplexobj(p) and p[0].imag != 0:
                raise TypeError("no complex step in x")
            return np.eye(2) / p[1] ** 2

        spec = MetricSpec(dimension=2, signature=(1, 1), g=g,
                          id="half-plane", ignorable=(0,))
        p = [0.3, 1.5]
        assert supports_complex_step(spec, p)
        assert not supports_complex_step(
            dataclasses.replace(spec, ignorable=()), p)
        calls = []

        def counting(q):
            calls.append(q)
            return g(q)

        cd = riemann(dataclasses.replace(spec, g=counting), p)
        # complex steps: (4k + 1)(k + 1) calls with k = 1, against 25 for
        # the real-difference fallback
        assert len(calls) == 10
        assert cd.riemann_lowered[0, 1, 0, 1] == pytest.approx(
            -1.0 / p[1] ** 4, rel=1e-8)


X0, Y0 = 0.7, 1.3


def operator_cases():
    """``(f, value, gradient, Hessian)``: an operation on the jets ``x`` and
    ``y`` at (``X0``, ``Y0``) and its closed-form derivatives there."""
    x, y, L = X0, Y0, math.log(X0)
    return {
        "add": (lambda x, y: x + y, x + y, [1, 1], [[0, 0], [0, 0]]),
        "add-number": (lambda x, y: 2.5 + x, 2.5 + x, [1, 0], [[0, 0], [0, 0]]),
        "sub": (lambda x, y: x - y, x - y, [1, -1], [[0, 0], [0, 0]]),
        "sub-from-number": (lambda x, y: 2.5 - y, 2.5 - y, [0, -1],
                            [[0, 0], [0, 0]]),
        "neg": (lambda x, y: -x, -x, [-1, 0], [[0, 0], [0, 0]]),
        "mul": (lambda x, y: x * y, x * y, [y, x], [[0, 1], [1, 0]]),
        "mul-number": (lambda x, y: np.float64(3.0) * x, 3 * x, [3, 0],
                       [[0, 0], [0, 0]]),
        "div": (lambda x, y: x / y, x / y, [1 / y, -x / y ** 2],
                [[0, -1 / y ** 2], [-1 / y ** 2, 2 * x / y ** 3]]),
        "div-by-number": (lambda x, y: x / 4.0, x / 4, [0.25, 0],
                          [[0, 0], [0, 0]]),
        "number-div": (lambda x, y: 2.0 / y, 2 / y, [0, -2 / y ** 2],
                       [[0, 0], [0, 4 / y ** 3]]),
        "pow-number": (lambda x, y: x ** 3.0, x ** 3, [3 * x ** 2, 0],
                       [[6 * x, 0], [0, 0]]),
        "pow": (lambda x, y: x ** y, x ** y,
                [y * x ** (y - 1), x ** y * L],
                [[y * (y - 1) * x ** (y - 2), x ** (y - 1) * (1 + y * L)],
                 [x ** (y - 1) * (1 + y * L), x ** y * L * L]]),
        "number-pow": (lambda x, y: 2.0 ** y, 2 ** y,
                       [0, 2 ** y * math.log(2)],
                       [[0, 0], [0, 2 ** y * math.log(2) ** 2]]),
    }


# f(u), f'(u), f''(u) of each function
FUNCTIONS = {
    "sin": (math.sin, math.cos, lambda u: -math.sin(u)),
    "cos": (math.cos, lambda u: -math.sin(u), lambda u: -math.cos(u)),
    "tan": (math.tan, lambda u: 1 / math.cos(u) ** 2,
            lambda u: 2 * math.tan(u) / math.cos(u) ** 2),
    "exp": (math.exp, math.exp, math.exp),
    "log": (math.log, lambda u: 1 / u, lambda u: -1 / u ** 2),
    "sqrt": (math.sqrt, lambda u: 0.5 / math.sqrt(u),
             lambda u: -0.25 * u ** -1.5),
}


def jets():
    return (Jet(X0, (1.0, 0.0), (0.0,) * 4), Jet(Y0, (0.0, 1.0), (0.0,) * 4))


def assert_jet(got, value, gradient, hessian):
    assert got.v == pytest.approx(value, rel=1e-14)
    assert got.d == pytest.approx(tuple(gradient), rel=1e-14, abs=1e-15)
    assert got.h == pytest.approx(tuple(np.ravel(hessian)), rel=1e-14,
                                  abs=1e-15)


class TestExactCurvature:
    @pytest.mark.parametrize("name", list(operator_cases()))
    def test_operator_derivatives(self, name):
        f, value, gradient, hessian = operator_cases()[name]
        assert_jet(f(*jets()), value, gradient, hessian)

    @pytest.mark.parametrize("name", list(FUNCTIONS))
    def test_function_derivatives(self, name):
        # numpy's function of u = x y, so every second derivative is used:
        # d_x = f' y, d_y = f' x, d_xx = f'' y^2, d_xy = f'' x y + f',
        # d_yy = f'' x^2
        f, f1, f2 = FUNCTIONS[name]
        x, y = jets()
        got = getattr(np, name)(x * y)
        u = X0 * Y0
        assert_jet(got, f(u), [f1(u) * Y0, f1(u) * X0],
                   [[f2(u) * Y0 ** 2, f2(u) * u + f1(u)],
                    [f2(u) * u + f1(u), f2(u) * X0 ** 2]])

    @pytest.mark.parametrize("c, value, slope, curvature",
                             [(0, 1.0, 0.0, 0.0), (1, 0.0, 1.0, 0.0),
                              (2, 0.0, 0.0, 2.0)])
    def test_integer_power_at_zero(self, c, value, slope, curvature):
        got = Jet(0.0, (1.0,), (0.0,)) ** c
        assert (got.v, got.d, got.h) == (value, (slope,), (curvature,))

    @pytest.mark.parametrize("r, tol", [(3.0, 1e-13), (5.0, 1e-13),
                                        (800.0, 1e-13), (1e4, 2e-12)])
    def test_schwarzschild_file_matches_table(self, tmp_path, r, tol):
        # the file's g rounds each component; the curvature's terms of
        # order one cancel to order M/r, so the error grows with r/M
        path = tmp_path / "schwarzschild.metric"
        path.write_text(SCHWARZSCHILD_FILE)
        spec, table = load_metric(path), catalog.schwarzschild(1.0).spec
        p = np.array([0.0, r, 1.2, 0.0])
        g = table.g(p)
        want = np.einsum("ih,hjkl->ijkl", g, table.analytic_riemann(p))
        got = np.einsum("ih,hjkl->ijkl", g, spec.analytic_riemann(p))
        assert np.abs(got - want).max() <= tol * np.abs(want).max()
        if r < 1e3:  # beyond, the determinant test calls g singular
            assert riemann(spec, p).path == "analytic"

    @pytest.mark.parametrize("a, r, th", [(0.6, 3.0, 0.15), (0.9, 2.5, 0.3),
                                          (0.5, 3.5, 1.0), (0.3, 40.0, 2.8)])
    def test_kerr_exact(self, a, r, th):
        cd = riemann(catalog.kerr(1.0, a).spec, [0.0, r, th, 0.0])
        assert cd.path == "analytic"
        assert cd.symmetry_defect <= 1e-12
        # K = 48 M^2 (r^6 - 15 r^4 u^2 + 15 r^2 u^4 - u^6) / Sigma^6 with
        # u = a cos(theta) and Sigma = r^2 + u^2
        u = a * math.cos(th)
        want = (48.0 * (r ** 6 - 15 * r ** 4 * u ** 2 + 15 * r ** 2 * u ** 4
                        - u ** 6) / (r ** 2 + u ** 2) ** 6)
        assert kretschmann(cd) == pytest.approx(want, rel=1e-12)
