import ast
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riemsvp import catalog, metricfile
from riemsvp.geometry import riemann, verify_tensor_symmetries
from riemsvp.metricfile import (ParseError, compile_expression, load_metric,
                                parse_expression, parse_metric_file)

SPHERE_FILE = """\
# round unit sphere
dimension = 2
coordinates = theta, phi
signature = +, +
g[0,0] = 1
g[1,1] = sin(theta)^2
"""


MINKOWSKI_FILE = """\
dimension = 4
coordinates = t, x, y, z
signature = -, +, +, +
g[0,0] = -1
g[1,1] = 1
g[2,2] = 1
g[3,3] = 1
"""


@pytest.fixture
def sphere_path(tmp_path):
    path = tmp_path / "sphere.metric"
    path.write_text(SPHERE_FILE)
    return path


# a binary operator's symbol, its precedence level, and the least levels of
# its left and right operands that need no parentheses; unary minus is
# level 3 and an atom level 5
BINARY = {ast.Add: ("+", 1, 1, 2), ast.Sub: ("-", 1, 1, 2),
          ast.Mult: ("*", 2, 2, 3), ast.Div: ("/", 2, 2, 3),
          ast.Pow: ("^", 4, 5, 3)}


def render(node):
    """File text of an expression tree over coordinates x, y, lambda, p, with
    only the parentheses it needs: ``^`` is right-associative and binds
    tighter than a unary minus on its left.  Returns the text and its
    precedence level."""
    def operand(child, least):
        text, level = render(child)
        return text if level >= least else f"({text})"

    if isinstance(node, ast.Subscript):
        return ("x", "y", "lambda", "p")[node.slice.value], 5
    if isinstance(node, ast.Call):
        return f"{node.func.id}({render(node.args[0])[0]})", 5
    if isinstance(node, ast.UnaryOp):
        return "-" + operand(node.operand, 3), 3
    symbol, level, left, right = BINARY[type(node.op)]
    return (f"{operand(node.left, left)} {symbol} "
            f"{operand(node.right, right)}", level)


class TestExpressionGrammar:
    def evaluate_text(self, text, **env):
        node = parse_expression(text, tuple(env.keys()))
        return compile_expression(node)(np.array(list(env.values())))

    def test_precedence(self):
        assert self.evaluate_text("1 + 2 * 3", x=0.0) == 7.0
        assert self.evaluate_text("(1 + 2) * 3", x=0.0) == 9.0
        assert self.evaluate_text("8 / 2 / 2", x=0.0) == 2.0
        assert self.evaluate_text("2 - 3 - 4", x=0.0) == -5.0

    def test_power_right_associative(self):
        assert self.evaluate_text("2 ^ 3 ^ 2", x=0.0) == 512.0
        assert self.evaluate_text("2 ^ -1", x=0.0) == 0.5

    def test_unary_minus(self):
        assert self.evaluate_text("-x ^ 2", x=3.0) == -9.0
        assert self.evaluate_text("(-x) ^ 2", x=3.0) == 9.0
        assert self.evaluate_text("--x", x=5.0) == 5.0

    def test_functions_and_constants(self):
        assert self.evaluate_text("sin(pi / 2)", x=0.0) == pytest.approx(1.0)
        assert self.evaluate_text("log(e)", x=0.0) == pytest.approx(1.0)
        assert self.evaluate_text("sqrt(x)", x=16.0) == 4.0
        assert self.evaluate_text("exp(0)", x=0.0) == 1.0
        assert self.evaluate_text("tan(0.5)", x=0.0) == pytest.approx(
            math.tan(0.5))
        assert self.evaluate_text("cos(x)^2 + sin(x)^2",
                                  x=0.77) == pytest.approx(1.0)

    def test_scientific_numbers(self):
        assert self.evaluate_text("1.5e-3 + 2E2", x=0.0) == pytest.approx(
            200.0015)

    def test_complex_inputs_supported(self):
        val = self.evaluate_text("sin(t)^2 + 1/t", t=2.0 + 1e-30j)
        assert isinstance(val, complex)
        assert val.real == pytest.approx(math.sin(2.0) ** 2 + 0.5)

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_expression("1 +", ("x",))
        with pytest.raises(ParseError):
            parse_expression("(1 + 2", ("x",))
        with pytest.raises(ParseError):
            parse_expression("foo(1)", ("x",))
        with pytest.raises(ParseError):
            parse_expression("1 @ 2", ("x",))
        with pytest.raises(ParseError):
            parse_expression("y + 1", ("x",))

    @pytest.mark.parametrize("text", [
        "+x", "()", "sin()", "sin(x)(y)", "(x)(y)", "2(x)", "sin(^x)",
        "x * * y",
    ])
    def test_python_only_forms_rejected(self, text):
        # Python's own grammar reads each of these; the file grammar does not
        with pytest.raises(ParseError):
            parse_expression(text, ("x", "y"))

    @given(st.recursive(
        st.integers(0, 3).map(lambda k: ast.Subscript(
            ast.Name("p", ast.Load()), ast.Constant(k), ast.Load())),
        lambda sub: st.one_of(
            sub.map(lambda a: ast.UnaryOp(ast.USub(), a)),
            st.builds(lambda a, op, b: ast.BinOp(a, op(), b), sub,
                      st.sampled_from(list(BINARY)), sub),
            st.builds(lambda f, a: ast.Call(ast.Name(f, ast.Load()), [a], []),
                      st.sampled_from(sorted(metricfile._FUNCTIONS)), sub)),
        max_leaves=12))
    @settings(max_examples=200, deadline=None)
    def test_rendered_tree_parses_to_itself(self, tree):
        # over coordinates only nothing folds, and the text has only the
        # parentheses that the precedence rules need
        text, _ = render(tree)
        node = parse_expression(text, ("x", "y", "lambda", "p"))
        assert ast.dump(node) == ast.dump(tree)


class TestMetricFile:
    def test_matches_catalog_sphere(self, sphere_path):
        spec = load_metric(sphere_path)
        assert spec.dimension == 2
        assert spec.signature == (1, 1)
        ref = catalog.sphere2().spec
        for th in (0.4, 1.2, 2.5):
            p = np.array([th, 0.7])
            assert np.abs(spec.g(p) - ref.g(p)).max() < 1e-15

    def test_numeric_curvature_from_file(self, sphere_path):
        spec = load_metric(sphere_path)
        cd = riemann(spec, [math.pi / 3, 0.0], mode="numeric")
        assert cd.path == "numeric"
        assert cd.riemann_lowered[0, 1, 0, 1] == pytest.approx(0.75, abs=1e-9)

    def test_mirrored_components(self, tmp_path):
        path = tmp_path / "offdiag.metric"
        path.write_text("""\
dimension = 2
coordinates = u, v
g[0,0] = 2
g[0,1] = u
g[1,1] = 1 + v^2
""")
        spec = load_metric(path)
        g = spec.g(np.array([3.0, 1.0]))
        assert g[0, 1] == 3.0
        assert g[1, 0] == 3.0  # mirrored automatically

    def test_deliberate_asymmetry_kept(self, tmp_path):
        path = tmp_path / "broken.metric"
        path.write_text("""\
dimension = 2
coordinates = u, v
g[0,0] = 1
g[1,1] = 1
g[0,1] = u
g[1,0] = 0 - u
""")
        spec = load_metric(path)
        g = spec.g(np.array([2.0, 0.0]))
        assert g[0, 1] == 2.0
        assert g[1, 0] == -2.0

    def test_defaults(self, tmp_path):
        path = tmp_path / "plain.metric"
        path.write_text("dimension = 3\ng[0,0]=1\ng[1,1]=1\ng[2,2]=1\n")
        definition = parse_metric_file(path)
        assert definition.coordinates == ("x0", "x1", "x2")
        assert definition.signature == (1, 1, 1)

    def test_lorentz_signature(self, tmp_path):
        path = tmp_path / "mink.metric"
        path.write_text(MINKOWSKI_FILE)
        spec = load_metric(path)
        assert spec.is_lorentz
        cd = riemann(spec, np.zeros(4))
        assert np.abs(cd.riemann_lowered).max() < 1e-12

    def test_parse_errors(self, tmp_path):
        cases = {
            "nodim.metric": "g[0,0] = 1\n",
            "badline.metric": "dimension = 2\nwhat is this\n",
            "badsig.metric": "dimension = 2\nsignature = 0, 1\ng[0,0]=1\n",
            "outofrange.metric": "dimension = 2\ng[0,5] = 1\n",
            "nocomp.metric": "dimension = 2\n",
            "badcoords.metric": "dimension = 3\ncoordinates = a, b\ng[0,0]=1\n",
            "dimword.metric": "dimension = two\ng[0,0] = 1\n",
            "dimfraction.metric": "dimension = 2.5\ng[0,0] = 1\n",
            # the constant e would shadow the coordinate: a flat metric
            "coordconst.metric": ("dimension = 2\ncoordinates = x, e\n"
                                  "g[0,0] = 1 / e^2\ng[1,1] = 1 / e^2\n"),
            "coordrepeat.metric": ("dimension = 2\ncoordinates = x, x\n"
                                   "g[0,0] = 1\ng[1,1] = 1 / x^2\n"),
            # a name no expression can read would make its coordinate
            # silently ignorable
            "coordempty.metric": ("dimension = 2\ncoordinates = x, \n"
                                  "g[0,0] = 1\ng[1,1] = 1 + x^2\n"),
            "coorddigit.metric": ("dimension = 2\ncoordinates = x, 2y\n"
                                  "g[0,0] = 1\ng[1,1] = 1 + x^2\n"),
            "coordspace.metric": ("dimension = 2\ncoordinates = x, y z\n"
                                  "g[0,0] = 1\ng[1,1] = 1 + x^2\n"),
        }
        for name, text in cases.items():
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(ParseError):
                parse_metric_file(path)

    @pytest.mark.parametrize("text, message", [
        ("dimension = 2\ndimension = 3\ng[0,0] = 1\n",
         "line 2: dimension is already set on line 1"),
        ("dimension = 2\ncoordinates = x, y\ng[0,0] = 1\n"
         "coordinates = u, v\n",
         "line 4: coordinates is already set on line 2"),
        ("dimension = 2\nsignature = +, +\nsignature = -, +\ng[0,0] = 1\n",
         "line 3: signature is already set on line 2"),
        ("dimension = 2\ng[0,0] = 1\n# again\ng[ 0 , 00 ] = 2\n",
         "line 4: g[0,0] is already set on line 2"),
        ("dimension = 2\ng[0,1] = 1\ng[1,0] = 0\ng[0,1] = 2\n",
         "line 4: g[0,1] is already set on line 2"),
    ], ids=["dimension", "coordinates", "signature", "component",
            "component-after-partner"])
    def test_repeated_setting_rejected(self, tmp_path, text, message):
        path = tmp_path / "twice.metric"
        path.write_text(text)
        with pytest.raises(ParseError, match=message.replace("[", r"\[")):
            parse_metric_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_metric_file(tmp_path / "absent.metric")

    def test_id_is_file_stem(self, sphere_path):
        assert load_metric(sphere_path).id == "sphere"

    def test_coordinates_named_lambda_and_p(self, tmp_path):
        path = tmp_path / "keywords.metric"
        path.write_text("dimension = 2\ncoordinates = lambda, p\n"
                        "g[0,0] = 1 + p\ng[1,1] = lambda^2\n")
        spec = load_metric(path)
        assert np.array_equal(spec.g(np.array([3.0, 0.5])),
                              [[1.5, 0.0], [0.0, 9.0]])


EVERY_NODE_FILE = """\
# every node kind: literals, constants, names, unary minus, + - * / ^ and
# each function
dimension = 4
coordinates = t, r, theta, phi
signature = -, +, +, +
g[0,0] = -(1 - 2 / r)
g[1,1] = 1 / (1 - 2 * 1.0 / r)
g[2,2] = r^2 + 1e-3 * tan(t / 7) * exp(-t^2)
g[3,3] = r ^ 2 * sin(theta) ^ 2 + cos(phi) * log(r) / sqrt(pi * e)
g[0,3] = -0.25 * r^-1 * sin(theta)^2
g[1,2] = t - t
"""


def sphere_reference(p):
    """SPHERE_FILE's metric written out in numpy, in file order."""
    theta, phi = p
    g = np.zeros((2, 2), dtype=p.dtype)
    g[0, 0] = 1.0
    g[1, 1] = np.sin(theta) ** 2.0
    return g


def every_node_reference(p):
    """EVERY_NODE_FILE's metric written out in numpy, operation by operation
    in file order; a mirrored entry is the same expression."""
    t, r, theta, phi = p
    g = np.zeros((4, 4), dtype=p.dtype)
    g[0, 0] = -(1.0 - 2.0 / r)
    g[1, 1] = 1.0 / (1.0 - 2.0 * 1.0 / r)
    g[2, 2] = r ** 2.0 + 1e-3 * np.tan(t / 7.0) * np.exp(-t ** 2.0)
    g[3, 3] = (r ** 2.0 * np.sin(theta) ** 2.0
               + np.cos(phi) * np.log(r) / np.sqrt(math.pi * math.e))
    g[0, 3] = g[3, 0] = -0.25 * r ** -1.0 * np.sin(theta) ** 2.0
    g[1, 2] = g[2, 1] = t - t
    return g


class TestCompiledComponents:
    @pytest.mark.parametrize("text, reference", [
        (SPHERE_FILE, sphere_reference),
        (EVERY_NODE_FILE, every_node_reference),
    ], ids=["sphere", "every-node"])
    def test_bitwise_equal_to_hand_written(self, tmp_path, text, reference):
        path = tmp_path / "m.metric"
        path.write_text(text)
        spec = load_metric(path)
        rng = np.random.default_rng(8)
        n = spec.dimension
        for _ in range(200):
            p = rng.uniform(0.2, 3.0, n) + np.r_[0.0, 3.0, 0.0, 0.0][:n]
            assert np.array_equal(spec.g(p), reference(p))
            for k in range(n):
                z = p.astype(complex)
                z[k] += 1j * 1e-100
                got = spec.g(z)
                assert np.iscomplexobj(got)
                assert np.array_equal(got, reference(z))

    @pytest.mark.parametrize("text, p", [
        (SPHERE_FILE, [1.1, 0.4]),
        (EVERY_NODE_FILE, [0.3, 4.0, 1.1, 0.7]),
    ], ids=["sphere", "every-node"])
    def test_exact_curvature_matches_stencil(self, tmp_path, text, p):
        # a file has no curvature table, so both modes derive the curvature
        # from the compiled components on jets, and agree bit for bit
        path = tmp_path / "m.metric"
        path.write_text(text)
        spec = load_metric(path)
        exact, derived = riemann(spec, p), riemann(spec, p, mode="numeric")
        assert exact.path == derived.path == "numeric"
        assert verify_tensor_symmetries(exact).max_defect <= 1e-14
        assert np.array_equal(exact.riemann_mixed, derived.riemann_mixed)
        assert np.array_equal(exact.riemann_lowered, derived.riemann_lowered)

    def test_function_of_a_constant_is_checked_not_folded(self):
        # folding sqrt(2) would turn numpy's float64 into a float operand
        node = parse_expression("sqrt(2) * y", ("y",))
        assert isinstance(node.left, ast.Call)

    def test_constant_operations_checked_once(self, monkeypatch):
        # each operation that reads no coordinate is run once, on the values
        # of its operands, so the work of loading grows with the expression
        # and not with its square
        compiled = []
        compile_ = metricfile.compile_expression

        def counting(node, name="expression"):
            compiled.append(sum(1 for _ in ast.walk(node)))
            return compile_(node, name)

        monkeypatch.setattr(metricfile, "compile_expression", counting)
        node = parse_expression(" + ".join(["sqrt(2)"] * 200) + " + y", ("y",))
        assert len(compiled) == 399  # 200 calls and 199 sums
        assert max(compiled) <= 5
        assert isinstance(node.left, ast.BinOp)

    def test_namespace_holds_only_the_functions(self):
        entry = compile_expression(parse_expression("sqrt(x)", ("x",)))
        assert entry.__globals__ == {"sin": np.sin, "cos": np.cos,
                                     "tan": np.tan, "exp": np.exp,
                                     "log": np.log, "sqrt": np.sqrt,
                                     "__builtins__": {}}


SCHWARZSCHILD_FILE = """\
dimension = 4
coordinates = t, r, theta, phi
signature = -, +, +, +
g[0,0] = -(1 - 2/r)
g[1,1] = 1 / (1 - 2/r)
g[2,2] = r^2
g[3,3] = r^2 * sin(theta)^2
"""

HALFPLANE_FILE = """\
dimension = 2
coordinates = x, y
g[0,0] = 1 / y^2
g[1,1] = 1 / y^2
"""


class TestIgnorableCoordinates:
    @pytest.mark.parametrize("text, ignorable", [
        (SCHWARZSCHILD_FILE, (0, 3)),
        (HALFPLANE_FILE, (0,)),
        (MINKOWSKI_FILE, (0, 1, 2, 3)),
        (EVERY_NODE_FILE, ()),
    ], ids=["schwarzschild", "half-plane", "minkowski", "every-coordinate"])
    def test_derived_from_unreferenced_coordinates(self, tmp_path, text,
                                                   ignorable):
        path = tmp_path / "m.metric"
        path.write_text(text)
        assert load_metric(path).ignorable == ignorable
