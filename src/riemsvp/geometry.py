"""Metric, Christoffel symbols, and Riemann tensor evaluation at a point.

Index conventions used throughout the package:

* ``gamma[l, i, k]``  is the Christoffel symbol with upper index ``l`` and
  symmetric lower pair ``(i, k)``.
* ``riemann_mixed[l, k, i, j]`` is the curvature component with upper index
  ``l``, the acted-on vector slot ``k``, and the plane pair ``(i, j)``, i.e.
  the coefficient of ``partial_l`` in ``R(partial_i, partial_j) partial_k``.
* ``riemann_lowered[i, j, k, l] = g[i, h] * riemann_mixed[h, j, k, l]``.

With these choices the unit 2-sphere has ``riemann_lowered[0, 1, 0, 1] =
sin(theta)**2`` in ``(theta, phi)`` coordinates; a regression test pins that
sign.

Curvature comes from an exact path or a numeric one, which share the formula
of R in the Christoffel symbols and their derivatives.  The exact path,
:func:`jet_riemann`, runs ``g`` once on :class:`Jet` values; it is the
curvature supplier of every metric file and of catalog Kerr.  The numeric
path (``mode='numeric'``, suppliers without curvature) is one pass over a
stencil of ``4k + 1`` points: ``p``, ``p ± h_j e_j`` and ``p ± h_j/2 e_j``
for each of the ``k`` coordinates ``j`` the spec does not declare
``ignorable``.  Each point takes the metric and ``k`` complex-step
derivatives: ``(4k + 1)(k + 1)`` supplier calls, 85 for a 4D metric that
declares nothing, 27 for Schwarzschild and Kerr.  Skipping an ignorable
coordinate gives the bits that evaluating along it would.  The real part of
a complex evaluation is not the metric: complex arithmetic rounds
differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from operator import add
from typing import Callable, Optional

import numpy as np

from .errors import (DifferentiationFailure, InvalidInput, SingularMetric,
                     WrongSignature)

# Relative step for real central differences of the metric (first derivatives).
FD_REL_STEP = 1e-5
# Relative step for the outer differentiation of the Christoffel symbols.
# Larger than FD_REL_STEP because the inner evaluations carry rounding noise
# that an overly small outer step would amplify.
FD_OUTER_REL_STEP = 1e-3
# Imaginary perturbation for complex-step first derivatives.  No subtractive
# cancellation occurs, so the step can sit far below the rounding threshold.
CS_STEP = 1e-100

MetricFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class MetricSpec:
    """A metric with an optional analytic curvature supplier.

    Parameters
    ----------
    dimension : int
        Manifold dimension ``n >= 2``.
    signature : array of ``+1``/``-1``
        Signs of the diagonalized metric, length ``n``.
    g : callable
        Maps a coordinate array of length ``n`` to the symmetric ``n x n``
        metric matrix.  Implementations that accept complex coordinate
        arrays enable high-accuracy complex-step differentiation.
    analytic_riemann : callable, optional
        Maps a point to the ``(n, n, n, n)`` array ``riemann_mixed``.  It is
        the only analytic supplier: Christoffel symbols are always
        differentiated from ``g``.
    id : str
        Stable label used in reports.
    ignorable : tuple of int
        Coordinates that no metric component depends on (cyclic
        coordinates, such as ``t`` and ``phi`` of a stationary,
        axisymmetric metric).  The declaration promises that ``g`` returns
        the same matrix, bit for bit, whatever the value of these
        coordinates, for real and for complex input, and so does the
        analytic supplier; numeric curvature then skips all work along them.
        ``dataclasses.replace(spec, g=...)`` keeps the declaration, so clear
        it (``ignorable=()``) when the new supplier reads those coordinates.
    """

    dimension: int
    signature: tuple
    g: MetricFn
    analytic_riemann: Optional[Callable[[np.ndarray], np.ndarray]] = None
    id: str = ""
    ignorable: tuple[int, ...] = ()

    def __post_init__(self):
        if self.dimension < 2:
            raise InvalidInput("metric dimension must be at least 2")
        if len(self.signature) != self.dimension:
            raise InvalidInput("signature length must equal dimension")
        if any(s not in (-1, 1) for s in self.signature):
            raise InvalidInput("signature entries must be +1 or -1")
        if (any(j not in range(self.dimension) for j in self.ignorable)
                or len(set(self.ignorable)) != len(self.ignorable)):
            raise InvalidInput(
                f"ignorable coordinates {tuple(self.ignorable)} must be "
                f"distinct indices below {self.dimension}")

    @property
    def varying(self) -> tuple:
        """The coordinates the metric may depend on, in increasing order."""
        return tuple(j for j in range(self.dimension)
                     if j not in self.ignorable)

    @property
    def is_lorentz(self) -> bool:
        return sum(1 for s in self.signature if s < 0) == 1


@dataclass(frozen=True)
class CurvatureData:
    """Metric and curvature tensors evaluated at a single point."""

    point: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    riemann_mixed: np.ndarray
    riemann_lowered: np.ndarray
    signature: tuple
    path: str = "analytic"

    @property
    def n(self) -> int:
        return len(self.point)

    @property
    def symmetry_defect(self) -> float:
        """The largest relative violation of the algebraic symmetries;
        above ``1e-6`` it signals a differentiation problem, a diagnostic
        rather than an exception."""
        return max(_symmetry_defects(self.riemann_lowered)[0])

    @property
    def is_lorentz(self) -> bool:
        return sum(1 for s in self.signature if s < 0) == 1

    @property
    def is_riemannian(self) -> bool:
        return all(s > 0 for s in self.signature)


@dataclass(frozen=True)
class SymmetryReport:
    """Maximum defects of the algebraic curvature symmetries.

    Defects are measured relative to ``max(1, max |R|)`` so that flat
    metrics do not divide by zero.
    """

    antisym_first_pair: float
    antisym_second_pair: float
    pair_symmetry: float
    bianchi_first: float
    scale: float
    tol: float
    passed: bool = field(default=False)

    @property
    def max_defect(self) -> float:
        return max(self.antisym_first_pair, self.antisym_second_pair,
                   self.pair_symmetry, self.bianchi_first)


def as_point(p, n: int) -> np.ndarray:
    """Validate and convert a coordinate array."""
    arr = np.asarray(p, dtype=float)
    if arr.shape != (n,):
        raise InvalidInput(f"point must have length {n}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("point coordinates must be finite")
    return arr


def metric_at(spec: MetricSpec, p) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the metric and its inverse at ``p``.

    Raises
    ------
    SingularMetric
        If ``|det g| <= 1e-14 * max|g|**n``, a test that does not depend on
        the units of the metric (coordinate singularities such as a sphere
        pole or a horizon).
    """
    p = as_point(p, spec.dimension)
    with np.errstate(all="ignore"):
        g = _real_metric(spec, p)
        return g, _checked_inverses(spec, p[None], [g])[0]


def _real_metric(spec: MetricSpec, p: np.ndarray) -> np.ndarray:
    """``spec.g(p)`` as a real matrix of the metric's shape.  Callers ignore
    numpy's floating-point errors: non-finite values fail later checks."""
    g = np.asarray(spec.g(p), dtype=float)
    if g.shape != (spec.dimension, spec.dimension):
        raise InvalidInput("metric supplier returned a wrongly shaped matrix")
    return g


def _first(mask: np.ndarray) -> int:
    """Index of the first true entry of ``mask``, or its length."""
    return int(np.argmax(mask)) if mask.any() else len(mask)


def _checked_inverses(spec: MetricSpec, points: np.ndarray, G,
                      dg=()) -> np.ndarray:
    """Inverses of the metrics ``G`` taken at the leading rows of ``points``.

    Runs :func:`metric_at`'s checks (finite, determinant against the scale
    of the matrix, inversion defect) on every row of ``G``, and the
    finiteness check on as many rows of metric derivatives ``dg`` as given,
    in one stacked pass under the caller's ``np.errstate``.  Raises for the
    first row that fails, a row's metric before its derivatives.
    """
    n = spec.dimension
    G = np.reshape(G, (-1, n, n))
    gmax = np.abs(G).reshape(len(G), -1).max(axis=1)
    det = np.linalg.det(G)
    # false on a row whose entries, det or scale are not finite
    regular = (np.abs(det) > 1e-14 * gmax ** n) & (np.abs(det) < np.inf)
    # an irregular row takes the identity, so inv cannot fail
    G_inv = np.linalg.inv(np.where(regular[:, None, None], G, np.eye(n)))
    defect = np.abs(G @ G_inv - np.eye(n)).reshape(len(G), -1).max(axis=1)
    ok = regular & (defect <= 1e-12 * np.maximum(
        1.0, gmax * np.abs(G_inv).reshape(len(G), -1).max(axis=1)))
    if ok.all() and np.isfinite(dg).all():
        return G_inv
    i = _first(~ok)
    bad_dg = ~np.isfinite(np.reshape(dg, (-1, n, n, n))).all(axis=(1, 2, 3))
    d = _first(bad_dg)
    if d < min(i, len(bad_dg)):
        raise DifferentiationFailure(
            f"metric derivatives non-finite at {points[d].tolist()}")
    at = points[i].tolist()
    raise SingularMetric(f"metric '{spec.id}' " + (
        f"is not finite at {at}" if not np.isfinite(G[i]).all() else
        f"is singular at {at} (det={det[i]:.3e})" if not regular[i] else
        f"is too ill-conditioned at {at} (inversion defect {defect[i]:.3e})"))


def supports_complex_step(spec: MetricSpec, p) -> bool:
    """True when the metric supplier evaluates cleanly on complex points: a
    complex step in the first varying coordinate, or in 0 if none varies."""
    z = as_point(p, spec.dimension).astype(complex)
    z[(spec.varying or (0,))[0]] += 1j * CS_STEP
    with np.errstate(all="ignore"):
        return _clean_complex_step(spec, z) is not None


def _clean_complex_step(spec: MetricSpec, z: np.ndarray) -> Optional[np.ndarray]:
    """``spec.g`` at the complex-shifted point ``z``, or ``None`` when it
    raises or is not a finite complex matrix of the metric's shape."""
    try:
        gz = np.asarray(spec.g(z))
    except Exception:
        return None
    clean = (np.iscomplexobj(gz) and gz.shape == (spec.dimension,) * 2
             and bool(np.isfinite(gz).all()))
    return gz if clean else None


def _stencil(p: np.ndarray, h: np.ndarray, coords) -> np.ndarray:
    """The ``4k + 1`` rows ``p``, then ``p ± h_j e_j`` and ``p ± h_j/2 e_j``
    for each of the ``k`` coordinates ``j`` in ``coords``, in that order."""
    rows = np.tile(p, (4 * len(coords) + 1, 1))
    for a, j in enumerate(coords):
        rows[4 * a + 1:4 * a + 5, j] += (h[j], -h[j], h[j] / 2.0, -(h[j] / 2.0))
    return rows


def _richardson(F: np.ndarray, h: np.ndarray, coords) -> np.ndarray:
    """Central differences with one Richardson level, one per coordinate.

    ``F`` holds values at the rows of :func:`_stencil` with the same
    ``coords``, ``p`` first.  A coordinate not in ``coords`` takes the value
    at ``p`` for its four rows, so its derivative is an exact zero.
    """
    n = len(h)
    rows = np.zeros((n, 4), dtype=int)
    rows[list(coords)] = np.arange(1, 4 * len(coords) + 1).reshape(-1, 4)
    F = F[rows]
    h = h.reshape((n,) + (1,) * (F.ndim - 2))
    coarse = (F[:, 0] - F[:, 1]) / (2.0 * h)
    fine = (F[:, 2] - F[:, 3]) / (2.0 * (h / 2.0))
    return (4.0 * fine - coarse) / 3.0


def _christoffel_rows(spec: MetricSpec, points: np.ndarray):
    """Metric, inverse and Christoffel symbols at every row of ``points``.

    Each row calls ``spec.g`` once for the metric and once per varying
    coordinate for its complex-step derivatives; a row whose first step is
    not clean takes real differences with one Richardson level, four calls
    per varying coordinate.  The error raised is the one that evaluating
    and checking the rows one at a time would raise first.
    """
    n, coords = spec.dimension, spec.varying
    G = np.empty((len(points), n, n))
    dg = np.zeros((len(points), n, n, n))
    # Z[a, b] is row a shifted by 1j * CS_STEP in coordinate coords[b]
    Z = np.repeat(points.astype(complex)[:, None], len(coords), axis=1)
    for b, j in enumerate(coords):
        Z[:, b, j] += 1j * CS_STEP
    evaluated = 0  # rows whose metric is in G
    with np.errstate(all="ignore"):  # non-finite values fail the checks
        try:
            for a, (q, z) in enumerate(zip(points, Z)):
                G[a] = _real_metric(spec, q)
                evaluated = a + 1
                gz = _clean_complex_step(spec, z[0]) if coords else None
                if gz is not None:
                    dg[a, coords[0]] = gz.imag / CS_STEP
                    for j, zj in zip(coords[1:], z[1:]):
                        dg[a, j] = np.asarray(spec.g(zj)).imag / CS_STEP
                elif coords:
                    h = np.maximum(FD_REL_STEP, FD_REL_STEP * np.abs(q))
                    F = [G[a]] + [_real_metric(spec, x)
                                  for x in _stencil(q, h, coords)[1:]]
                    dg[a] = _richardson(np.array(F), h, coords)
        except Exception:
            # a failed check on a row already evaluated comes first
            _checked_inverses(spec, points, G[:evaluated], dg[:a])
            raise
        G_inv = _checked_inverses(spec, points, G, dg)
        return G, G_inv, _christoffel(G_inv, dg)


def _christoffel(G_inv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """``gamma[r, l, i, k] = 1/2 g^lm (d_i g_mk + d_k g_mi - d_m g_ik)``
    for stacked inverses ``G_inv[r]`` and derivatives ``dg[r, j] = d_j g``."""
    term = dg + dg.transpose(0, 3, 2, 1) - dg.transpose(0, 2, 1, 3)
    return 0.5 * np.einsum("rlm,rimk->rlik", G_inv, term)


def _curvature(gamma: np.ndarray, dgamma: np.ndarray, p) -> np.ndarray:
    """``riemann_mixed`` from the Christoffel symbols at ``p`` and their
    derivatives ``dgamma[j, l, i, k] = d gamma^l_ik / d x^j``."""
    if not np.all(np.isfinite(dgamma)):
        raise DifferentiationFailure(
            f"Christoffel derivatives non-finite at {p.tolist()}")
    # R^l_kij = d_i gamma^l_jk - d_j gamma^l_ik
    #           + gamma^h_jk gamma^l_ih - gamma^h_ik gamma^l_jh
    return (np.einsum("iljk->lkij", dgamma) - np.einsum("jlik->lkij", dgamma)
            + np.einsum("hjk,lih->lkij", gamma, gamma)
            - np.einsum("hik,ljh->lkij", gamma, gamma))


class Jet:
    """A value ``v`` with its gradient ``d`` and row-major Hessian ``h``
    (float tuples) over ``k`` coordinates: second-order forward mode
    (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008, ch.
    13).  ``sin cos tan exp log sqrt`` are methods, which numpy's functions
    call; an operation without a derivative raises Python's error."""

    __slots__ = ("v", "d", "h")

    def __init__(self, v, d, h):
        self.v, self.d, self.h = v, d, h

    def _chain(self, f0, f1, f2):
        """``f(self)`` from ``f`` and its first two derivatives at ``v``."""
        d = self.d
        return Jet(f0, tuple([f1 * x for x in d]),
                   tuple([f1 * h + f2 * x * y
                          for h, (x, y) in zip(self.h, product(d, d))]))

    def __add__(self, o):
        if not isinstance(o, Jet):
            return Jet(self.v + o, self.d, self.h)
        return Jet(self.v + o.v, tuple(map(add, self.d, o.d)),
                   tuple(map(add, self.h, o.h)))

    __radd__ = __add__

    def __neg__(self):
        return self._chain(-self.v, -1.0, 0.0)

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if not isinstance(o, Jet):
            return self._chain(self.v * o, o, 0.0)
        a, b, ad, bd = self.v, o.v, self.d, o.d
        return Jet(a * b, tuple([a * y + b * x for x, y in zip(ad, bd)]),
                   tuple([a * hb + b * ha + x * y + u * w
                          for ha, hb, (x, y), (u, w) in zip(
                              self.h, o.h, product(ad, bd), product(bd, ad))]))

    __rmul__ = __mul__

    def __truediv__(self, o):
        return self * (1.0 / o)

    def __rtruediv__(self, o):
        q = o / self.v
        return self._chain(q, -q / self.v, 2.0 * q / self.v ** 2)

    def __pow__(self, o):
        if isinstance(o, Jet):
            return (o * self.log()).exp()
        c, v = float(o), self.v
        return self._chain(v ** c, c * v ** (c - 1) if c else 0.0,
                           c * (c - 1) * v ** (c - 2) if c not in (0, 1) else 0.0)

    def __rpow__(self, o):
        f, ln = o ** self.v, math.log(o)
        return self._chain(f, f * ln, f * ln * ln)

    def sin(self):
        return self._chain(math.sin(self.v), math.cos(self.v), -math.sin(self.v))

    def cos(self):
        return self._chain(math.cos(self.v), -math.sin(self.v), -math.cos(self.v))

    def tan(self):
        return self.sin() / self.cos()

    def exp(self):
        e = math.exp(self.v)
        return self._chain(e, e, e)

    def log(self):
        return self._chain(math.log(self.v), 1.0 / self.v, -1.0 / self.v ** 2)

    def sqrt(self):
        return self ** 0.5


def jet_riemann(g: MetricFn, p: np.ndarray, coords) -> np.ndarray:
    """``riemann_mixed`` at ``p``, exact up to rounding, from ``g`` run once
    on jets over ``coords`` (an object array; ``g`` returns jets and numbers).
    :class:`DifferentiationFailure` where a derivative fails or is not finite."""
    n, k = len(p), len(coords)
    q = np.array(p.tolist(), dtype=object)
    for a, j in enumerate(coords):
        q[j] = Jet(float(p[j]), tuple(float(a == b) for b in range(k)),
                   (0.0,) * (k * k))
    try:
        with np.errstate(all="ignore"):
            C = np.array([(x.v,) + x.d + x.h if isinstance(x, Jet)
                          else (x,) + (0.0,) * (k + k * k)
                          for x in np.asarray(g(q)).flat],
                         dtype=float).reshape(n, n, 1 + k + k * k)
        finite = np.isfinite(C).all()
    except (ArithmeticError, ValueError, TypeError):
        finite = False
    if not finite:
        raise DifferentiationFailure(
            f"metric derivatives non-finite at {p.tolist()}")
    # D[0, j] = d_j g and D[1 + i, j] = d_i d_j g
    c, D = np.array(coords, dtype=int), np.zeros((n + 1, n, n, n))
    D[0, c] = C[..., 1:k + 1].transpose(2, 0, 1)
    D[1 + c[:, None], c] = C[..., k + 1:].reshape(n, n, k, k).transpose(2, 3, 0, 1)
    g_inv = np.linalg.inv(C[..., 0])
    gammas = _christoffel(np.broadcast_to(g_inv, (n + 1, n, n)), D)
    # d_j gamma^l_ik = g^lm (d_j gamma_mik - d_j g_mb gamma^b_ik), with the
    # first-kind symbols gamma_mik
    dg_gamma = g_inv @ (D[0] @ gammas[0].reshape(n, n * n))
    return _curvature(gammas[0], gammas[1:] - dg_gamma.reshape((n,) * 4), p)


def christoffel(spec: MetricSpec, p) -> np.ndarray:
    """Christoffel symbols ``gamma[l, i, k]`` of the Levi-Civita connection,
    from the metric's derivatives at ``p``."""
    return _christoffel_rows(spec, as_point(p, spec.dimension)[None])[2][0]


def riemann(spec: MetricSpec, p, mode: str = "auto") -> CurvatureData:
    """Evaluate the metric, its inverse and the curvature at ``p``.

    With ``mode='auto'`` and an ``analytic_riemann`` supplier (a table, or
    the exact :func:`jet_riemann`) this is one :func:`metric_at` and one
    call of the supplier.  Otherwise (``mode='numeric'``, or no supplier)
    the Christoffel symbols at the stencil's rows (see the module docstring)
    are differentiated by central differences with one Richardson level.
    Either way the symmetric part of the metric at ``p`` must have as many
    negative eigenvalues as the declared signature has minus signs
    (:class:`WrongSignature` otherwise).
    """
    p = as_point(p, spec.dimension)
    if mode not in ("auto", "numeric"):
        raise InvalidInput(f"unknown differentiation mode '{mode}'")
    if mode == "auto" and spec.analytic_riemann is not None:
        g, g_inv = metric_at(spec, p)
        mixed = np.asarray(spec.analytic_riemann(p), dtype=float)
        path = "analytic"
    else:
        h = FD_OUTER_REL_STEP * np.maximum(1.0, np.abs(p))
        coords = spec.varying
        G, G_inv, gammas = _christoffel_rows(spec, _stencil(p, h, coords))
        g, g_inv = G[0], G_inv[0]
        mixed = _curvature(gammas[0], _richardson(gammas, h, coords), p)
        path = "numeric"

    negative = int((np.linalg.eigvalsh(0.5 * (g + g.T)) < 0).sum())
    declared = sum(1 for s in spec.signature if s < 0)
    if negative != declared:
        raise WrongSignature(
            f"metric '{spec.id}' has {negative} negative eigenvalue(s) at "
            f"{p.tolist()}, but its declared signature has {declared}")
    lowered = np.einsum("ih,hjkl->ijkl", g, mixed)
    return CurvatureData(point=p, g=g, g_inv=g_inv, riemann_mixed=mixed,
                         riemann_lowered=lowered,
                         signature=tuple(spec.signature), path=path)


def _symmetry_defects(r: np.ndarray) -> tuple[list[float], float]:
    """Defects of the algebraic symmetries of a lowered curvature tensor.

    Returns the first-pair and second-pair antisymmetry, pair symmetry and
    first Bianchi defects, each relative to ``max(1, max |R|)``, and that
    scale.
    """
    scale = max(1.0, float(np.abs(r).max()))
    terms = (r + np.einsum("jikl->ijkl", r), r + np.einsum("ijlk->ijkl", r),
             r - np.einsum("klij->ijkl", r),
             r + np.einsum("iljk->ijkl", r) + np.einsum("iklj->ijkl", r))
    return [float(np.abs(t).max() / scale) for t in terms], scale


def verify_tensor_symmetries(cd: CurvatureData, tol: float = 1e-10) -> SymmetryReport:
    """Check antisymmetries, pair symmetry, and the first Bianchi identity."""
    (a1, a2, pair, bianchi), scale = _symmetry_defects(cd.riemann_lowered)
    passed = max(a1, a2, pair, bianchi) < tol
    return SymmetryReport(antisym_first_pair=a1, antisym_second_pair=a2,
                          pair_symmetry=pair, bianchi_first=bianchi,
                          scale=scale, tol=tol, passed=passed)


def independent_components(lowered: np.ndarray) -> dict:
    """Extract a spanning set of components for a 4D curvature tensor.

    Returns the 21 components ``R[i, j, k, l]`` with ``i < j``, ``k < l`` and
    ``(i, j) <= (k, l)`` lexicographically; the first Bianchi identity makes
    one of them redundant, leaving 20 independent values.
    """
    n = lowered.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = {}
    for a, ij in enumerate(pairs):
        for kl in pairs[a:]:
            out[ij + kl] = float(lowered[ij + kl])
    return out


def complete_riemann(components: dict, n: int) -> np.ndarray:
    """Rebuild the full tensor from the output of :func:`independent_components`.

    The entry ``(0, 2, 1, 3)`` is recomputed from the first Bianchi identity,
    so only 20 of the 21 stored values are actually used in 4D.
    """
    full = np.zeros((n,) * 4)
    comps = dict(components)
    if n == 4 and (0, 2, 1, 3) in comps:
        # Bianchi with (i,j,k,l)=(0,1,2,3): R_0123 + R_0312 + R_0231 = 0,
        # and R_0231 = -R_0213, so R_0213 = R_0123 + R_0312.
        comps[(0, 2, 1, 3)] = comps[(0, 1, 2, 3)] + comps[(0, 3, 1, 2)]
    for (i, j, k, l), v in comps.items():
        for (ii, jj, s1) in ((i, j, 1.0), (j, i, -1.0)):
            for (kk, ll, s2) in ((k, l, 1.0), (l, k, -1.0)):
                full[ii, jj, kk, ll] = s1 * s2 * v
                full[kk, ll, ii, jj] = s1 * s2 * v
    return full
