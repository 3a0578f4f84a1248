import dataclasses
import math
import operator
import re

import numpy as np
import pytest

from riemsvp import catalog
from riemsvp.algebra import kretschmann
from riemsvp.cli import _SYMMETRY_TOL
from riemsvp.errors import (DifferentiationFailure, InvalidInput,
                            SingularMetric, WrongSignature)
from riemsvp.geometry import (Jet, MetricSpec, christoffel, metric_at,
                              riemann, verify_tensor_symmetries)
from riemsvp.metricfile import load_metric

import oracles
from test_metricfile import EVERY_NODE_FILE, HALFPLANE_FILE


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

    @pytest.mark.parametrize("r", [3000.0, 1e7])
    def test_regular_far_from_the_hole(self, r):
        # det g = -r^4 sin^2(theta) is tiny against max|g|^4 = r^8 sin^8(theta),
        # but the equilibrated metric is the identity up to signs
        entry = catalog.schwarzschild(1.0)
        cd = riemann(entry.spec, [0.0, r, math.pi / 4, 0.0])
        assert kretschmann(cd) == pytest.approx(48.0 / r ** 6, rel=1e-10)

    @pytest.mark.parametrize("c", [1e-150, 1.0, 1e150])
    def test_near_the_pole_at_every_scale(self, c):
        # det g / max|g|^2 = sin^2(1e-7) = 1e-14 at any scale c, but only the
        # pole itself is singular
        sphere = catalog.sphere2().spec
        spec = dataclasses.replace(sphere, g=lambda p: c * sphere.g(p))
        g, g_inv = metric_at(spec, [1e-7, 0.2])
        assert np.allclose(g @ g_inv, np.eye(2), atol=1e-12)
        with pytest.raises(SingularMetric, match="is singular at"):
            metric_at(spec, [0.0, 0.2])

    def test_zero_row_is_singular(self):
        spec = MetricSpec(dimension=3, signature=(1, 1, 1),
                          g=lambda p: np.diag([1.0 + p[0], 0.0, 2.0]))
        with pytest.raises(SingularMetric,
                           match=r"is singular at \[0.5, 0.0, 0.0\]"):
            metric_at(spec, [0.5, 0.0, 0.0])

    def test_singular_asymmetric_metric(self):
        # a metric file may set g[0,1] and g[1,0] apart: this g is singular,
        # its equilibrated symmetric part is not
        spec = MetricSpec(dimension=2, signature=(1, 1), id="skew",
                          g=lambda p: np.array([[1.0, 2.0], [0.5, 1.0 + p[0]]]))
        with pytest.raises(SingularMetric, match="is too ill-conditioned at"):
            metric_at(spec, [0.0, 0.0])

    @pytest.mark.parametrize("entries, message", [
        ([[np.inf, 0.0], [0.0, 1.0]], "is not finite at [0.0, 1.0]"),
        ([[1.0, -np.inf], [-np.inf, 1.0]], "is not finite at [0.0, 1.0]"),
        ([[1e300, np.nan], [np.nan, 1.0]], "is not finite at [0.0, 1.0]"),
        ([[-0.0, -0.0], [-0.0, 1.0]], "is singular at [0.0, 1.0] "
         "(equilibrated eigenvalue ratio 0.000e+00)"),
        ([[1.0, 1.7e308], [0.0, 5e-324]], "is singular at [0.0, 1.0] "
         "(equilibrated eigenvalue ratio nan)"),
        ([[1e308, 1e308], [0.0, 5e-324]], "is singular at [0.0, 1.0] "
         "(equilibrated eigenvalue ratio nan)"),
    ], ids=["plus-inf", "minus-inf", "nan-beside-larger", "negative-zero-row",
            "overflowing-equilibration", "overflowing-equilibration-rows"])
    def test_row_maxima_decide(self, entries, message):
        # one pass of row maxima of |g| tests finiteness, zero rows and scale,
        # so max must propagate inf and NaN past a larger finite entry
        spec = MetricSpec(dimension=2, signature=(1, 1), id="m",
                          g=lambda p: np.array(entries))
        with pytest.raises(SingularMetric,
                           match=re.escape(f"metric 'm' {message}") + "$"):
            metric_at(spec, [0.0, 1.0])

    def test_wrongly_shaped_supplier(self):
        # the metric at the point fails before its derivatives are taken
        spec = MetricSpec(dimension=2, signature=(1, 1),
                          g=lambda p: np.eye(3) + 0.0 * p[0])
        for evaluate in (lambda: metric_at(spec, [0.0, 1.0]),
                         lambda: christoffel(spec, [0.0, 1.0]),
                         lambda: riemann(spec, [0.0, 1.0], mode="numeric")):
            with pytest.raises(InvalidInput, match="wrongly shaped"):
                evaluate()


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

    @pytest.mark.parametrize("r", [2.7, 7.0, 40.0])
    def test_numeric_schwarzschild_matches_table(self, r):
        # derived from g exactly: the rounding of g sets the error, which
        # grows like r/M
        entry = catalog.schwarzschild(1.0)
        p = np.array([0.0, r, 1.1, 0.0])
        want = riemann(entry.spec, p).riemann_mixed
        cd = riemann(entry.spec, p, mode="numeric")
        assert cd.path == "numeric"
        assert (np.abs(cd.riemann_mixed - want).max()
                <= 1e-13 * np.abs(want).max())

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
            rep = verify_tensor_symmetries(cd)
            assert rep.max_defect < _SYMMETRY_TOL, (entry.spec.id, rep)
            assert rep.max_defect == 0.0

    def test_kerr_numeric_path(self):
        entry = catalog.kerr(1.0, 0.5)
        cd = riemann(entry.spec, [0.0, 3.0, math.pi / 4, 0.0], mode="numeric")
        assert cd.path == "numeric"
        rep = verify_tensor_symmetries(cd)
        assert rep.max_defect < _SYMMETRY_TOL
        assert rep.max_defect < 1e-10

    @pytest.mark.xfail(strict=True, reason=(
        "the symmetry defect of Kerr's curvature derived from g near the "
        "axis at large r is 3.4e-10 of max(1, max|R|), above the 1e-10 "
        "window: the formula cancels there, and only a window relative to "
        "the curvature scale would tell rounding from a wrong tensor"))
    def test_kerr_far_axis_within_window(self):
        cd = riemann(catalog.kerr(1.0, 0.9).spec, [0.0, 1000.0, 0.01, 0.0],
                     mode="numeric")
        assert verify_tensor_symmetries(cd).max_defect < _SYMMETRY_TOL

    def test_kerr_table_far_axis_within_window(self):
        cd = riemann(catalog.kerr(1.0, 0.9).spec, [0.0, 1000.0, 0.01, 0.0])
        assert cd.path == "analytic"
        assert verify_tensor_symmetries(cd).max_defect < _SYMMETRY_TOL


def polar_spec():
    """Flat plane in polar coordinates."""
    return MetricSpec(dimension=2, signature=(1, 1), id="polar",
                      g=lambda p: np.diag([1.0 + 0.0 * p[0], p[0] ** 2]))


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


def float_converting_spec(style):
    """The round sphere written with a ``math`` function of a coordinate,
    or stored into a float array: neither runs on jets."""
    def g(p):
        if style == "math":
            return np.array([[1.0, 0.0], [0.0, math.sin(p[0]) ** 2]])
        out = np.zeros((2, 2))
        out[0, 0], out[1, 1] = 1.0, np.sin(p[0]) ** 2
        return out

    return MetricSpec(dimension=2, signature=(1, 1), g=g, id=style)


class TestDerivedCurvature:
    def test_polar_plane(self):
        spec, p = polar_spec(), [2.0, 0.5]
        gam = christoffel(spec, p)
        # flat plane in polar coordinates: gamma^r_pp = -r, gamma^p_rp = 1/r
        assert gam[0, 1, 1] == pytest.approx(-2.0, rel=1e-15)
        assert gam[1, 0, 1] == pytest.approx(0.5, rel=1e-15)
        cd = riemann(spec, p)
        assert cd.path == "numeric"
        assert np.abs(cd.riemann_lowered).max() <= 1e-15

    @pytest.mark.parametrize("style", ["math", "float-array"])
    def test_float_converting_supplier_is_invalid_input(self, style, capsys,
                                                        recwarn):
        spec, p = float_converting_spec(style), [1.0, 0.2]
        metric_at(spec, p)  # real input is fine
        for evaluate in (lambda: riemann(spec, p), lambda: christoffel(spec, p),
                         lambda: riemann(spec, p, mode="numeric")):
            with pytest.raises(InvalidInput,
                               match="converted a coordinate to float"):
                evaluate()
        assert [str(w.message) for w in recwarn] == []
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("g, message", [
        (lambda p: np.diag([1.0 + 0.0 * p[0],
                            p[0] ** 2 if p[0] > 0 else -p[0]]),
         "compared a coordinate with '>'"),
        (lambda p: np.diag([1.0 + 0.0 * p[0], 1.0 + np.abs(p[0])]),
         "took abs of a coordinate"),
    ], ids=["branch", "abs"])
    def test_branching_supplier_is_invalid_input(self, g, message, capsys,
                                                 recwarn):
        # jets have no comparison and no abs; the error names the operation
        # instead of a non-finite derivative
        spec, p = MetricSpec(dimension=2, signature=(1, 1), g=g), [1.0, 0.5]
        metric_at(spec, p)  # real input is fine
        for evaluate in (lambda: riemann(spec, p), lambda: christoffel(spec, p)):
            with pytest.raises(InvalidInput, match=message):
                evaluate()
        assert [str(w.message) for w in recwarn] == []
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("compare, op", [
        (operator.lt, "<"), (operator.le, "<="), (operator.gt, ">"),
        (operator.ge, ">=")], ids=["lt", "le", "gt", "ge"])
    def test_jet_comparison_names_the_operator(self, compare, op):
        with pytest.raises(InvalidInput, match=f"with '{op}'"):
            compare(Jet(1.0, (1.0,), (0.0,)), 0.0)


def failing_spec(plan):
    """A flat 2D metric that fails at every point in the ways ``plan``
    names: ``"nan"`` (a non-finite metric), ``"singular"`` (a zero
    determinant) and ``"raise"`` (the supplier raises) on real input,
    ``"dnan"`` (a non-finite derivative) and ``"jets-raise"`` (the supplier
    raises) on jets.
    """
    def g(p):
        jets = p.dtype == object
        if "raise" in plan and not jets:
            raise ZeroDivisionError("supplier failed")
        if "jets-raise" in plan and jets:
            raise ZeroDivisionError("supplier failed on jets")
        x = p[0]
        out = np.array([[1.0 + 0.0 * x, 0.0 * x], [0.0 * x, 1.0 + 0.0 * x]])
        if "nan" in plan and not jets:
            out[1, 1] = np.nan
        if "singular" in plan and not jets:
            out[1, 1] = 0.0
        if "dnan" in plan and jets:
            out[1, 1] = Jet(1.0, (np.nan, 0.0), (0.0,) * 4)
        return out

    return MetricSpec(dimension=2, signature=(1, 1), g=g, id="failing")


class TestOneStencil:
    """Curvature derived from ``g`` reads it at ``p`` only, on a one-point
    stencil of two rows: the metric itself, then ``g`` on jets."""

    @pytest.mark.parametrize("spec, p, mode, evals", [
        (catalog.kerr(1.0, 0.7).spec, [0.0, 3.0, 1.0, 0.0], "numeric", 2),
        (dataclasses.replace(catalog.kerr(1.0, 0.7).spec, ignorable=()),
         [0.0, 3.0, 1.0, 0.0], "numeric", 2),
        (catalog.schwarzschild(1.0).spec, [0.0, 3.0, 1.0, 0.0], "numeric", 2),
        (catalog.space_form(2.0, 3).spec, [0.1, 0.2, 0.3], "numeric", 2),
        (catalog.sphere2().spec, [1.0, 0.2], "numeric", 2),
        (dataclasses.replace(catalog.minkowski().spec,
                             ignorable=(0, 1, 2, 3)),
         [0.5, 1.0, 2.0, 3.0], "numeric", 2),
        (catalog.schwarzschild(1.0).spec, [0.0, 3.0, 1.0, 0.0], "auto", 1),
        (catalog.sphere2().spec, [1.0, 0.2], "auto", 1),
        (dataclasses.replace(catalog.kerr(1.0, 0.7).spec,
                             analytic_riemann=None),
         [0.0, 3.0, 1.0, 0.0], "auto", 2),
        (catalog.kerr(1.0, 0.7).spec, [0.0, 3.0, 1.0, 0.0], "auto", 1),
        (polar_spec(), [2.0, 0.5], "auto", 2),
    ], ids=["kerr", "kerr-nothing-ignorable", "schwarzschild",
            "space-form-3", "sphere2", "constant", "schwarzschild-analytic",
            "sphere2-analytic", "kerr-auto", "kerr-analytic", "no-supplier"])
    def test_metric_evaluations_per_riemann(self, spec, p, mode, evals):
        calls = []

        def g(q):
            calls.append(q)
            return spec.g(q)

        cd = riemann(dataclasses.replace(spec, g=g), p, mode=mode)
        assert len(calls) == evals
        # the metric at p, then the table's curvature or g once on jets
        assert evals == {"analytic": 1, "numeric": 2}[cd.path]

    @pytest.mark.parametrize("entry, p", [
        (catalog.sphere2(), [1e-3, 0.2]),
        (catalog.schwarzschild(1.0), [0.0, 2.002, 1.0, 0.0]),
    ], ids=["sphere-pole", "schwarzschild-horizon"])
    def test_singular_stencil_row(self, entry, p):
        # a finite-difference step of 1e-3 from these points reaches the
        # pole or crosses the horizon; the jets never leave p
        derived = riemann(entry.spec, p, mode="numeric")
        table = riemann(entry.spec, p)
        assert derived.path == "numeric" and table.path == "analytic"
        scale = np.abs(table.riemann_mixed).max()
        assert np.abs(derived.riemann_mixed
                      - table.riemann_mixed).max() <= 1e-9 * scale

    @pytest.mark.parametrize("plan, error, message", [
        ({"nan"}, SingularMetric, "'failing' is not finite at [1.0, 0.2]"),
        ({"dnan"}, DifferentiationFailure,
         "metric derivatives non-finite at [1.0, 0.2]"),
        ({"singular"}, SingularMetric, "'failing' is singular at [1.0, 0.2]"),
        ({"singular", "jets-raise"}, SingularMetric,
         "'failing' is singular at [1.0, 0.2]"),
        ({"raise"}, ZeroDivisionError, "supplier failed"),
        ({"singular", "dnan"}, SingularMetric,
         "'failing' is singular at [1.0, 0.2]"),
    ], ids=["not-finite", "derivative-first", "metric-first",
            "metric-before-raise", "raise",
            "metric-before-derivative-on-one-row"])
    def test_first_failing_row_wins(self, plan, error, message):
        # the metric's checks run before g is evaluated on jets, in
        # riemann and christoffel alike; the supplier's own error on real
        # input propagates
        spec = failing_spec(plan)
        with pytest.raises(error) as got:
            riemann(spec, [1.0, 0.2], mode="numeric")
        assert message in str(got.value)
        with pytest.raises(error) as want:
            christoffel(spec, [1.0, 0.2])
        assert str(got.value) == str(want.value)


def ignorable_cases(tmp_path):
    """``(spec, point)`` of metrics that declare ignorable coordinates, at
    points where those coordinates are not zero."""
    path = tmp_path / "schwarzschild.metric"
    path.write_text(SCHWARZSCHILD_FILE)
    cases = [(catalog.kerr(1.0, a).spec, [1.7, r, th, -2.4])
             for a, r, th in ((0.0, 6.0, math.pi / 2), (0.3, 3.5, 1.0),
                              (0.7, 2.5, 0.3), (0.95, 40.0, 2.8))]
    rng = np.random.default_rng(11)
    cases += [(catalog.kerr(1.0, a).spec,
               [rng.uniform(-5, 5), rng.uniform(2.0, 50.0),
                rng.uniform(0.05, 3.09), rng.uniform(-5, 5)])
              for a in (0.0, 0.5, 0.9) for _ in range(10)]
    cases += [
        (catalog.schwarzschild(1.0).spec, [-3.0, 3.0, 0.9, 0.4]),
        (catalog.schwarzschild(2.0).spec, [1.0, 700.0, 2.0, 5.5]),
        (load_metric(path), [12.0, 4.0, 1.2, 0.3]),
        (dataclasses.replace(polar_spec(), ignorable=(1,)), [2.0, 0.5]),
    ]
    return cases


def assert_bitwise_equal(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestIgnorableCoordinates:
    def test_bit_identical_to_full_stencil(self, tmp_path):
        # jets over the varying coordinates against jets over every one
        for spec, p in ignorable_cases(tmp_path):
            assert spec.ignorable
            full = dataclasses.replace(spec, ignorable=())
            got = riemann(spec, p, mode="numeric")
            want = riemann(full, p, mode="numeric")
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


def former_kernel_cases(tmp_path):
    """``(spec, point)`` families for the former curvature kernels."""
    files = {}
    for name, text in (("schwarzschild", SCHWARZSCHILD_FILE),
                       ("every-node", EVERY_NODE_FILE),
                       ("half-plane", HALFPLANE_FILE)):
        (tmp_path / f"{name}.metric").write_text(text)
        files[name] = load_metric(tmp_path / f"{name}.metric")
    rng = np.random.default_rng(24)
    kerr = {a: catalog.kerr(1.0, a).spec for a in (0.1, 0.5, 0.9)}
    schwarzschild = catalog.schwarzschild(1.0).spec
    return {
        "kerr-near-axis": [(kerr[a], [0.3, r, 0.02, -1.1])
                           for a in kerr for r in (2.5, 40.0)],
        "kerr-random": [(kerr[a], [rng.uniform(-5, 5), rng.uniform(2.0, 50.0),
                                   rng.uniform(0.05, 3.09), rng.uniform(-5, 5)])
                        for a in kerr for _ in range(5)],
        "schwarzschild": [(schwarzschild, [0.0, r, th, 0.4])
                          for r, th in ((2.5, 0.3), (7.0, 1.1), (3000.0, 2.0))],
        "schwarzschild-file": [(files["schwarzschild"], [12.0, 4.0, 1.2, 0.3])],
        "every-node-file": [(files["every-node"], [0.3, 4.0, 1.1, 0.7]),
                            (files["every-node"], [-1.2, 9.0, 2.5, -0.4])],
        "half-plane": [(files["half-plane"], [x, y]) for x, y in
                       ((0.3, 1.2), (-40.0, 1e-3), (7.0, 300.0))],
        "sphere2": [(catalog.sphere2().spec, [th, 0.3])
                    for th in (0.01, 1.1, 3.0)],
        "every-coordinate": [
            (dataclasses.replace(kerr[0.5], ignorable=()), [1.7, 3.5, 1.0, -2.4]),
            (dataclasses.replace(schwarzschild, ignorable=()),
             [-3.0, 3.0, 0.9, 0.4])],
    }


class TestFormerKernels:
    @pytest.mark.parametrize("family", [
        "kerr-near-axis", "kerr-random", "schwarzschild", "schwarzschild-file",
        "every-node-file", "half-plane", "sphere2", "every-coordinate"])
    def test_bit_identical_to_former_kernels(self, tmp_path, family):
        # the (1 + k)-stack pass with two contractions against the former
        # (n + 1)-stack pass with four
        for spec, p in former_kernel_cases(tmp_path)[family]:
            cd = riemann(spec, p, mode="numeric")
            assert cd.path == "numeric"
            assert_bitwise_equal(cd.riemann_mixed, oracles.jet_riemann_reference(
                spec.g, cd.point, spec.varying))
            assert_bitwise_equal(christoffel(spec, p),
                                 oracles.christoffel_reference(spec, p))


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


KERR_EXACT_POINTS = [(0.6, 3.0, 0.15), (0.9, 2.5, 0.3), (0.5, 3.5, 1.0),
                     (0.3, 40.0, 2.8)]


def assert_kerr_exact(cd, a, r, th):
    """Kerr's curvature at ``(r, th)`` is symmetric to rounding and has the
    closed-form Kretschmann scalar."""
    assert verify_tensor_symmetries(cd).max_defect <= 1e-12
    # K = 48 M^2 (r^6 - 15 r^4 u^2 + 15 r^2 u^4 - u^6) / Sigma^6 with
    # u = a cos(theta) and Sigma = r^2 + u^2
    u = a * math.cos(th)
    want = (48.0 * (r ** 6 - 15 * r ** 4 * u ** 2 + 15 * r ** 2 * u ** 4
                    - u ** 6) / (r ** 2 + u ** 2) ** 6)
    assert kretschmann(cd) == pytest.approx(want, rel=1e-12)


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
        derived = riemann(spec, p)
        want = np.einsum("ih,hjkl->ijkl", g, table.analytic_riemann(p))
        got = np.einsum("ih,hjkl->ijkl", g, derived.riemann_mixed)
        assert np.abs(got - want).max() <= tol * np.abs(want).max()
        assert derived.path == "numeric"

    def test_replaced_metric_gives_the_new_curvature(self, tmp_path):
        p = [0.0, 3.0, 1.0, 0.0]
        (tmp_path / "old.metric").write_text(SCHWARZSCHILD_FILE)
        (tmp_path / "new.metric").write_text(
            SCHWARZSCHILD_FILE.replace("M = 1", "M = 1.2")
            .replace("2/r", "2.4/r"))
        old, new = (load_metric(tmp_path / f"{name}.metric")
                    for name in ("old", "new"))
        want = riemann(new, p)
        cd = riemann(dataclasses.replace(old, g=new.g), p)
        assert cd.path == want.path == "numeric"
        for name in ("g", "riemann_mixed", "riemann_lowered"):
            assert_bitwise_equal(getattr(cd, name), getattr(want, name))

    def test_replaced_metric_keeps_the_table(self):
        # a table is the curvature of the g it was written for
        p = [0.0, 3.0, 1.0, 0.0]
        old, new = catalog.kerr(1.0, 0.3).spec, catalog.kerr(1.0, 0.8).spec
        want = riemann(old, p)
        cd = riemann(dataclasses.replace(old, g=new.g), p)
        assert cd.path == want.path == "analytic"
        assert_bitwise_equal(cd.g, riemann(new, p).g)
        assert_bitwise_equal(cd.riemann_mixed, want.riemann_mixed)

    @pytest.mark.parametrize("a, r, th", KERR_EXACT_POINTS)
    def test_kerr_exact(self, a, r, th):
        cd = riemann(catalog.kerr(1.0, a).spec, [0.0, r, th, 0.0],
                     mode="numeric")
        assert cd.path == "numeric"
        assert_kerr_exact(cd, a, r, th)

    @pytest.mark.parametrize("a, r, th", KERR_EXACT_POINTS)
    def test_kerr_table_exact(self, a, r, th):
        cd = riemann(catalog.kerr(1.0, a).spec, [0.0, r, th, 0.0])
        assert cd.path == "analytic"
        assert_kerr_exact(cd, a, r, th)
