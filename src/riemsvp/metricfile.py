"""User metric definition files.

A definition file is line-oriented, with an integer ``dimension``::

    # comments run to end of line
    dimension = 2
    coordinates = theta, phi
    signature = +, +
    g[0,0] = 1
    g[1,1] = sin(theta)^2

Component expressions use a small grammar: ``+ - * / ^`` (with ``^``
right-associative), parentheses, unary minus, the functions ``sin cos tan
exp log sqrt``, the constants ``pi`` and ``e``, numeric literals, and the
declared coordinate names, which are distinct and none of those eight
names.  A key or a component may be set only once.  Unset components
default to zero; a component whose transpose partner is set is mirrored,
while explicitly setting both ``g[i,j]`` and ``g[j,i]`` keeps each as
written (which permits building deliberately broken, asymmetric metrics
for verification testing).

The parser builds ``ast`` nodes, coordinate k read as ``p[k]``, and runs
each operation that reads no coordinate at once, so one without a real
value is a :class:`ParseError`.  Python's compiler turns each component into
``lambda p: <expr>`` once, when the spec is built; it takes numpy scalars,
complex ones and :class:`~riemsvp.geometry.Jet` values, on which the
curvature supplier runs it, so a file's curvature is exact.  A Schwarzschild
file's ``g`` costs about 3.9 µs a call, as the catalog's does (timeit,
shared 2-vCPU VM).  A coordinate that no component names is ignorable.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .errors import InvalidInput
from .geometry import MetricSpec, jet_riemann

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
}

_CONSTANTS = {"pi": np.pi, "e": np.e}

_OPERATORS = {"+": ast.Add, "-": ast.Sub, "*": ast.Mult, "/": ast.Div,
              "^": ast.Pow}

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
""", re.VERBOSE)


class ParseError(InvalidInput):
    """Malformed metric definition file or expression."""


def tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r} in {text!r}")
        pos = m.end()
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group()))
    tokens.append(("end", ""))
    return tokens


class _Parser:
    """Recursive descent over: expr -> term -> factor -> power -> atom."""

    def __init__(self, text: str, variables, name: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.variables = {v: k for k, v in enumerate(variables)}
        self.values = {}  # a kept node that reads no coordinate: its value
        self.name = name

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, text = self.advance()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text!r} in {self.text!r}")

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise ParseError(f"trailing input {self.peek()[1]!r} in {self.text!r}")
        return node

    def fold(self, make, *operands):
        """``make(*operands)``, run once now on the operands' values when none
        reads a coordinate, so it cannot fail in a call.  Only an operation
        on literal constants is folded: a call, and an operation on one,
        keep numpy's result types."""
        node = make(*operands)
        values = [x.value if isinstance(x, ast.Constant) else self.values.get(x)
                  for x in operands]
        if None in values:
            return node
        try:
            with np.errstate(all="ignore"):
                value = float(compile_expression(
                    make(*map(ast.Constant, values)), self.name)(0))
        except (ArithmeticError, TypeError):  # TypeError: a complex power
            value = np.nan
        if not np.isfinite(value):
            raise ParseError(f"{self.name}: constant arithmetic in "
                             f"{self.text!r} has no real value")
        if isinstance(node, ast.Call) or not all(
                isinstance(x, ast.Constant) for x in operands):
            self.values[node] = value
            return node
        return ast.Constant(value)

    def binary(self, left, op, right):
        return self.fold(lambda a, b: ast.BinOp(a, _OPERATORS[op](), b),
                         left, right)

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            node = self.binary(node, self.advance()[1], self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[1] in ("*", "/"):
            node = self.binary(node, self.advance()[1], self.factor())
        return node

    def factor(self):
        if self.peek()[1] == "-":
            self.advance()
            arg = self.factor()
            return self.fold(lambda a: ast.UnaryOp(ast.USub(), a), arg)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[1] == "^":
            # right-associative, binds tighter than unary minus on the left
            return self.binary(base, self.advance()[1], self.factor())
        return base

    def atom(self):
        kind, text = self.advance()
        if kind == "num":
            return ast.Constant(float(text))
        if kind == "name":
            if self.peek()[1] == "(":
                if text not in _FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}")
                self.advance()
                arg = self.expr()
                self.expect(")")
                return self.fold(
                    lambda a: ast.Call(ast.Name(text, ast.Load()), [a], []), arg)
            if text in _CONSTANTS:
                return ast.Constant(float(_CONSTANTS[text]))
            if text not in self.variables:
                raise ParseError(f"unknown name {text!r}; coordinates are "
                                 f"{', '.join(self.variables)}")
            return ast.Subscript(ast.Name("p", ast.Load()),
                                 ast.Constant(self.variables[text]), ast.Load())
        if text == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected token {text!r} in {self.text!r}")


def parse_expression(text: str, variables, name: str = "expression"):
    """The ``ast`` node of an expression, coordinate k read as ``p[k]``."""
    try:
        return _Parser(text, variables, name).parse()
    except RecursionError:
        raise ParseError(f"{name}: the expression nests too deeply") from None


def compile_expression(node: ast.expr, name: str = "expression"):
    """``lambda p: node``, compiled by Python's compiler and run in a
    namespace that holds the six functions and no builtins."""
    args = ast.arguments(posonlyargs=[], args=[ast.arg("p")], kwonlyargs=[],
                         kw_defaults=[], defaults=[])
    tree = ast.Expression(ast.Lambda(args, node))
    try:
        code = compile(ast.fix_missing_locations(tree), name, "eval")
    except RecursionError:
        raise ParseError(f"{name}: the expression nests too deeply") from None
    return eval(code, dict(_FUNCTIONS, __builtins__={}))


@dataclass(frozen=True)
class MetricDefinition:
    """Parsed content of a metric definition file."""

    dimension: int
    coordinates: tuple
    signature: tuple
    components: dict
    id: str

    def to_spec(self) -> MetricSpec:
        n = self.dimension
        entries = {(i, j): compile_expression(node, f"g[{i},{j}]")
                   for (i, j), node in self.components.items()}
        entries = {**{(j, i): f for (i, j), f in entries.items()}, **entries}

        def g(p):
            mat = np.zeros((n, n), dtype=np.result_type(p.dtype, float))
            for ij, entry in entries.items():
                mat[ij] = entry(p)
            return mat

        used = {node.slice.value for expr in self.components.values()
                for node in ast.walk(expr) if isinstance(node, ast.Subscript)}
        return MetricSpec(
            dimension=n, signature=self.signature, g=g, id=self.id,
            analytic_riemann=lambda p: jet_riemann(g, p, sorted(used)),
            ignorable=tuple(k for k in range(n) if k not in used))


_ASSIGN_RE = re.compile(r"^\s*g\s*\[\s*(\d+)\s*,\s*(\d+)\s*\]\s*=\s*(.+)$")
_KEY_RE = re.compile(r"^\s*(dimension|coordinates|signature)\s*=\s*(.+)$")


def parse_metric_file(path: Union[str, Path]) -> MetricDefinition:
    """Parse a metric definition file into a :class:`MetricDefinition`."""
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read metric file {path}: {exc}") from exc

    dimension = None
    coordinates = None
    signature = None
    assignments: list[tuple[int, int, str]] = []
    seen: dict[str, int] = {}  # key or component -> the line that set it
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        m = _KEY_RE.match(line)
        a = None if m else _ASSIGN_RE.match(line)
        if not (m or a):
            raise ParseError(f"line {lineno}: cannot parse {line!r}")
        name = m.group(1) if m else f"g[{int(a.group(1))},{int(a.group(2))}]"
        if name in seen:
            raise ParseError(f"line {lineno}: {name} is already set on line "
                             f"{seen[name]}")
        seen[name] = lineno
        if a:
            assignments.append((int(a.group(1)), int(a.group(2)), a.group(3)))
            continue
        key, value = m.group(1), m.group(2).strip()
        if key == "dimension":
            if not value.isdecimal():
                raise ParseError(f"line {lineno}: dimension must be an "
                                 f"integer, got {value!r}")
            dimension = int(value)
        elif key == "coordinates":
            coordinates = tuple(v.strip() for v in value.split(","))
        else:
            signs = [v.strip() for v in value.split(",")]
            mapping = {"+": 1, "-": -1, "+1": 1, "-1": -1}
            try:
                signature = tuple(mapping[s] for s in signs)
            except KeyError:
                raise ParseError(f"line {lineno}: signature entries must "
                                 "be + or -") from None

    if dimension is None:
        raise ParseError("metric file must set 'dimension'")
    if dimension < 2:
        raise ParseError("dimension must be at least 2")
    if coordinates is None:
        coordinates = tuple(f"x{i}" for i in range(dimension))
    free = set(coordinates) - set(_CONSTANTS) - set(_FUNCTIONS)
    if len(coordinates) != dimension or len(free) != dimension:
        raise ParseError(f"need {dimension} distinct coordinate names, none "
                         "of them pi, e or a function name")
    if signature is None:
        signature = (1,) * dimension
    if len(signature) != dimension:
        raise ParseError("signature length must equal dimension")
    if not assignments:
        raise ParseError("metric file defines no components")

    components = {}
    for i, j, text in assignments:
        if not (0 <= i < dimension and 0 <= j < dimension):
            raise ParseError(f"component index ({i},{j}) out of range")
        components[(i, j)] = parse_expression(text, coordinates, f"g[{i},{j}]")

    return MetricDefinition(dimension=dimension, coordinates=coordinates,
                            signature=signature, components=components,
                            id=path.stem)


def load_metric(path: Union[str, Path]) -> MetricSpec:
    """Parse a definition file and build its metric spec."""
    return parse_metric_file(path).to_spec()
