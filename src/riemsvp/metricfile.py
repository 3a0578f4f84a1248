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

Expressions are evaluated with numpy scalars, so metrics defined here
support complex-step differentiation out of the box.  Each component is
compiled once, when the spec is built, into nested closures that read the
point's coordinates directly; they compute what :func:`evaluate` computes
on the expression tree, operation for operation.  A coordinate that no
component expression names is declared ignorable in the spec, so numeric
curvature does no work along it.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .errors import InvalidInput
from .geometry import MetricSpec

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
}

_CONSTANTS = {"pi": np.pi, "e": np.e}

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

    def __init__(self, text: str, variables: tuple):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.variables = variables

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

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.advance()[1]
            node = (op, node, self.factor())
        return node

    def factor(self):
        if self.peek()[1] == "-":
            self.advance()
            return ("neg", self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[1] == "^":
            self.advance()
            # right-associative, binds tighter than unary minus on the left
            return ("^", base, self.factor())
        return base

    def atom(self):
        kind, text = self.advance()
        if kind == "num":
            return ("num", float(text))
        if kind == "name":
            if self.peek()[1] == "(":
                if text not in _FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}")
                self.advance()
                arg = self.expr()
                self.expect(")")
                return ("call", text, arg)
            if text in _CONSTANTS:
                return ("num", float(_CONSTANTS[text]))
            if text not in self.variables:
                raise ParseError(f"unknown name {text!r}; coordinates are "
                                 f"{', '.join(self.variables)}")
            return ("var", text)
        if text == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected token {text!r} in {self.text!r}")


def parse_expression(text: str, variables) -> tuple:
    """Parse an expression into an AST usable with :func:`evaluate`."""
    return _Parser(text, tuple(variables)).parse()


_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": operator.pow,
}


def evaluate(node, env: dict):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return env[node[1]]
    if kind == "neg":
        return -evaluate(node[1], env)
    if kind == "call":
        return _FUNCTIONS[node[1]](evaluate(node[2], env))
    if kind not in _BINARY:
        raise ParseError(f"corrupt expression node {node!r}")
    return _BINARY[kind](evaluate(node[1], env), evaluate(node[2], env))


def _names(node) -> set:
    """The coordinate names an expression tree references."""
    if node[0] == "var":
        return {node[1]}
    return set().union(*(_names(arg) for arg in node[1:]
                         if isinstance(arg, tuple)))


def _compile(node, variables):
    """A function of the point ``p`` that computes what :func:`evaluate`
    does with ``{name: p[k] for k, name in enumerate(variables)}``."""
    index = {name: k for k, name in enumerate(variables)}

    def build(node):
        kind = node[0]
        if kind == "num":
            value = node[1]
            return lambda p: value
        if kind == "var":
            k = index[node[1]]
            return lambda p: p[k]
        if kind == "neg":
            arg = build(node[1])
            return lambda p: -arg(p)
        if kind == "call":
            fn, arg = _FUNCTIONS[node[1]], build(node[2])
            return lambda p: fn(arg(p))
        if kind not in _BINARY:
            raise ParseError(f"corrupt expression node {node!r}")
        op, a, b = _BINARY[kind], build(node[1]), build(node[2])
        return lambda p: op(a(p), b(p))

    return build(node)


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
        comps = dict(self.components)
        for (i, j), node in list(comps.items()):
            if (j, i) not in comps:
                comps[(j, i)] = node
        entries = [(i, j, _compile(node, self.coordinates))
                   for (i, j), node in comps.items()]

        def g(p):
            mat = np.zeros((n, n), dtype=np.result_type(p.dtype, float))
            for i, j, entry in entries:
                mat[i, j] = entry(p)
            return mat

        used = set().union(*map(_names, comps.values()))
        ignorable = tuple(k for k, name in enumerate(self.coordinates)
                          if name not in used)
        return MetricSpec(dimension=n, signature=self.signature, g=g,
                          id=self.id, ignorable=ignorable)


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
        components[(i, j)] = parse_expression(text, coordinates)

    return MetricDefinition(dimension=dimension, coordinates=coordinates,
                            signature=signature, components=components,
                            id=path.stem)


def load_metric(path: Union[str, Path]) -> MetricSpec:
    """Parse a definition file and build its metric spec."""
    return parse_metric_file(path).to_spec()
