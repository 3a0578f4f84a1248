"""User metric definition files.

A definition file is line-oriented, with an integer ``dimension``::

    # comments run to end of line
    dimension = 2
    coordinates = theta, phi
    signature = +, +
    g[0,0] = 1
    g[1,1] = sin(theta)^2

Component expressions are Python's expression grammar over a few tokens:
``+ - * / ^`` (``^`` for ``**``, right-associative and tighter than a unary
minus on its left), parentheses, unary minus, one-argument calls of ``sin
cos tan exp log sqrt``, the constants ``pi`` and ``e``, finite numeric
literals, and the declared coordinate names, which are distinct ASCII
identifiers and none of those eight names.  A key or a component may be
set only once.  Unset components default to zero; a component whose
transpose partner is set is mirrored, while explicitly setting both
``g[i,j]`` and ``g[j,i]`` keeps each as written (which permits building
deliberately broken, asymmetric metrics for verification testing).

Each component's tokens become Python source for :func:`ast.parse`,
coordinate k read as ``p[k]``; one walk rejects each node outside the
grammar and runs each operation that reads no coordinate at once, so one
without a real value is a :class:`ParseError`.  Python's compiler turns
each component into ``lambda p: <expr>`` once, when the spec is built; it
takes numpy scalars, complex ones and :class:`~riemsvp.geometry.Jet`
values, on which :func:`~riemsvp.geometry.riemann` derives the curvature
from it, so a file's curvature is exact; a file has no curvature table.  A
Schwarzschild file's ``g`` costs about 3.9 µs a call, as the catalog's
does (timeit, shared 2-vCPU VM).  A coordinate that no component names is
ignorable.
"""

from __future__ import annotations

import ast
import re
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

_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

_TOKEN_RE = re.compile(rf"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<name>{_NAME_RE.pattern})
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
""", re.VERBOSE)


class ParseError(InvalidInput):
    """Malformed metric definition file or expression."""


def _source(text: str, variables, name: str) -> str:
    """``text`` as Python source: coordinate k reads ``p[k]``, a constant or
    literal is its float's ``repr``, and ``^`` is ``**``."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"{name}: unexpected character {text[pos]!r} in "
                             f"{text!r}")
        pos = m.end()
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group()))
    tokens.append(("end", ""))
    index = {v: k for k, v in enumerate(variables)}
    words = []
    for (kind, tok), (_, after) in zip(tokens, tokens[1:]):
        if kind == "num":
            value = float(tok)
            if not np.isfinite(value):
                raise ParseError(f"{name}: literal {tok!r} in {text!r} is "
                                 "not finite")
            words.append(repr(value))
        elif kind == "name" and after == "(":
            if tok not in _FUNCTIONS:
                raise ParseError(f"{name}: unknown function {tok!r}")
            words.append(tok)
        elif kind == "name" and tok in _CONSTANTS:
            words.append(repr(float(_CONSTANTS[tok])))
        elif kind == "name":
            if tok not in index:
                raise ParseError(f"{name}: unknown name {tok!r}; coordinates "
                                 f"are {', '.join(index)}")
            words.append(f"p[{index[tok]}]")
        else:
            words.append("**" if tok == "^" else tok)
    return " ".join(words)


def parse_expression(text: str, variables, name: str = "expression"):
    """The ``ast`` node of an expression, coordinate k read as ``p[k]``.

    Only an operation on literal constants is folded: a call, and an
    operation on one, keep numpy's result types."""
    values = {}  # a kept node that reads no coordinate: its value

    def fold(make, *operands):
        node = make(*operands)
        known = [x.value if isinstance(x, ast.Constant) else values.get(x)
                 for x in operands]
        if None in known:
            return node
        try:
            with np.errstate(all="ignore"):
                value = float(compile_expression(
                    make(*map(ast.Constant, known)), name)(0))
        except (ArithmeticError, TypeError):  # TypeError: a complex power
            value = np.nan
        if not np.isfinite(value):
            raise ParseError(f"{name}: constant arithmetic in {text!r} has "
                             "no real value")
        if isinstance(node, ast.Call) or not all(
                isinstance(x, ast.Constant) for x in operands):
            values[node] = value
            return node
        return ast.Constant(value)

    def walk(node):
        if isinstance(node, (ast.Constant, ast.Subscript)):
            return node
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return fold(lambda a: ast.UnaryOp(node.op, a),
                        walk(node.operand))
        if isinstance(node, ast.BinOp) and isinstance(node.op, _OPERATORS):
            return fold(lambda a, b: ast.BinOp(a, node.op, b),
                        walk(node.left), walk(node.right))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and len(node.args) == 1 and not node.keywords):
            return fold(lambda a: ast.Call(node.func, [a], []),
                        walk(node.args[0]))
        raise ParseError(f"{name}: cannot parse {text!r}")

    try:
        return walk(ast.parse(_source(text, variables, name),
                              mode="eval").body)
    except SyntaxError as exc:
        if "too many nested" not in exc.msg:
            raise ParseError(f"{name}: cannot parse {text!r}") from None
    except (RecursionError, MemoryError):
        pass
    raise ParseError(f"{name}: the expression nests too deeply")


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


_ASSIGN_RE = re.compile(r"^\s*g\s*\[\s*(\d+)\s*,\s*(\d+)\s*\]\s*=\s*(.+)$")
_KEY_RE = re.compile(r"^\s*(dimension|coordinates|signature)\s*=\s*(.+)$")


def load_metric(path: Union[str, Path]) -> MetricSpec:
    """Parse a definition file and build its metric spec."""
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
    if coordinates is None:
        coordinates = tuple(f"x{i}" for i in range(dimension))
    free = {v for v in coordinates if _NAME_RE.fullmatch(v)
            and v not in _CONSTANTS and v not in _FUNCTIONS}
    if len(coordinates) != dimension or len(free) != dimension:
        raise ParseError(f"need {dimension} distinct coordinate names, each "
                         "an ASCII identifier and none of them pi, e or a "
                         "function name")
    if signature is None:
        signature = (1,) * dimension
    if not assignments:
        raise ParseError("metric file defines no components")

    components = {}
    for i, j, text in assignments:
        if not (0 <= i < dimension and 0 <= j < dimension):
            raise ParseError(f"component index ({i},{j}) out of range")
        components[(i, j)] = parse_expression(text, coordinates, f"g[{i},{j}]")

    entries = {(i, j): compile_expression(node, f"g[{i},{j}]")
               for (i, j), node in components.items()}
    entries = {**{(j, i): f for (i, j), f in entries.items()}, **entries}

    def g(p):
        mat = np.zeros((dimension, dimension),
                       dtype=np.result_type(p.dtype, float))
        for ij, entry in entries.items():
            mat[ij] = entry(p)
        return mat

    used = {node.slice.value for expr in components.values()
            for node in ast.walk(expr) if isinstance(node, ast.Subscript)}
    return MetricSpec(
        dimension=dimension, signature=signature, g=g, id=path.stem,
        ignorable=tuple(k for k in range(dimension) if k not in used))
