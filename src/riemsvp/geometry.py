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

Curvature has two sources: a closed-form table (``analytic_riemann``), or
derivation from ``g`` in the call (``mode='numeric'``, or a spec without a
table).  Every derivative of a metric comes from one place,
:func:`_metric_jets`, which runs ``g`` once on :class:`Jet` values over the
``k`` coordinates the spec does not declare ``ignorable`` (so ``g`` must
compute with numpy operations on its input, see :class:`MetricSpec`).  It
gives g and ``1 + k`` derivative stacks exact up to rounding, the first
derivatives and the second ones along each varying coordinate, so that no
contraction sums the zeros along an ignorable coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import add
from typing import Callable, Optional

import numpy as np

from .errors import (DifferentiationFailure, InvalidInput, SingularMetric,
                     WrongSignature)

MetricFn = Callable[[np.ndarray], np.ndarray]
_TINY = np.finfo(float).tiny


@lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    return np.broadcast_to(np.eye(n), (n, n))  # a read-only view


@dataclass(frozen=True)
class MetricSpec:
    """A metric with an optional closed-form curvature table.

    Parameters
    ----------
    dimension : int
        Manifold dimension ``n >= 2``.
    signature : array of ``+1``/``-1``
        Signs of the diagonalized metric, length ``n``.
    g : callable
        Maps a coordinate array of length ``n`` to the symmetric ``n x n``
        metric matrix.  It must compute with numpy operations (``+ - * /
        **``, ``np.sin`` and the like, ``np.array`` of its entries) on the
        array it is given, which holds :class:`Jet` values when curvature
        is derived from it; a ``math`` function of a coordinate, a
        coordinate stored into a float array, a comparison of a coordinate
        or its ``abs`` raises :class:`InvalidInput`.
    analytic_riemann : callable, optional
        Maps a point to the ``(n, n, n, n)`` array ``riemann_mixed`` from a
        closed form.  It is the only curvature supplier: Christoffel symbols
        always come from ``g``, and without it the curvature is derived from
        ``g`` (:func:`riemann`).
    id : str
        Stable label used in reports.
    ignorable : tuple of int
        Coordinates that no metric component depends on (cyclic
        coordinates, such as ``t`` and ``phi`` of a stationary,
        axisymmetric metric).  The declaration promises that ``g`` does not
        read these coordinates, and that the analytic supplier's result
        does not depend on them either; curvature derived from ``g`` then
        carries no derivatives along them.  ``dataclasses.replace(spec,
        g=...)`` keeps the declaration, so clear it (``ignorable=()``) when
        the new supplier reads those coordinates.
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

    @property
    def max_defect(self) -> float:
        return max(self.antisym_first_pair, self.antisym_second_pair,
                   self.pair_symmetry, self.bianchi_first)


def as_point(p, n: int) -> np.ndarray:
    """Validate and convert a coordinate array."""
    arr = np.asarray(p, dtype=float)
    if arr.shape != (n,):
        raise InvalidInput(f"point must have length {n}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidInput("point coordinates must be finite")
    return arr


def metric_at(spec: MetricSpec, p) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the metric and its inverse at ``p``.

    Raises
    ------
    SingularMetric
        If ``g`` is not finite, if it is singular (coordinate singularities
        such as a sphere pole or a horizon), or if its inverse leaves a
        defect above rounding.  Singular means that, with row and column
        ``i`` of ``g`` scaled by ``1/sqrt(max_j |g_ij|)``, the eigenvalues
        of its symmetric part have ``min|λ| <= 1e-14 max|λ|``: rescaling a
        coordinate or the units of the metric does not change the test.
    """
    return _metric_at(spec, as_point(p, spec.dimension))[:2]


def _metric_at(spec: MetricSpec,
               p: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """:func:`metric_at` at a point :func:`as_point` has validated, and the
    number of negative eigenvalues of the symmetric part of the metric."""
    with np.errstate(all="ignore"):  # non-finite values fail the checks
        g = np.asarray(spec.g(p), dtype=float)
        if g.shape != (spec.dimension, spec.dimension):
            raise InvalidInput(
                "metric supplier returned a wrongly shaped matrix")
        return (g,) + _checked_inverse(spec, p, g)


def _checked_inverse(spec: MetricSpec, p: np.ndarray, g: np.ndarray):
    """The inverse of the metric ``g`` at ``p`` after :func:`metric_at`'s
    checks, and the number of negative eigenvalues of its symmetric part,
    under the caller's ``np.errstate``.

    The eigenvalues are those of the symmetric part of ``S g S`` with ``S =
    diag(1/sqrt(max_j |g_ij|))``, symmetric equilibration (van der Sluis,
    *Numer. Math.* 14, 1969), whose entries lie in ``[-1, 1]`` for a
    symmetric ``g``.  It has the inertia of the symmetric part of ``g``
    (Sylvester's law), so its negative count is the metric's.  A zero row
    leaves ``S`` infinite: singular.  ``max`` propagates NaN and inf, so the
    row maxima also test finiteness.
    """
    rows = np.abs(g).max(axis=1)
    top, s = rows.max(), 1.0 / np.sqrt(rows)
    finite, a = math.isfinite(top), s[:, None] * g * s
    lam = (np.linalg.eigvalsh(0.5 * (a + a.T))
           if finite and rows.min() > 0.0 else np.zeros(1))
    size = np.abs(lam)
    ratio = size.min() / max(size.max(), _TINY)
    if ratio > 1e-14:
        try:
            g_inv = np.linalg.inv(g)
        except np.linalg.LinAlgError:  # asymmetric, regular symmetric part
            g_inv = np.full_like(g, np.nan)
        defect = np.abs(g @ g_inv - _eye(len(g))).max()
        if defect <= 1e-12 * max(1.0, top * np.abs(g_inv).max()):
            return g_inv, int(np.count_nonzero(lam < 0))
    raise SingularMetric(f"metric '{spec.id}' " + (
        f"is not finite at {p.tolist()}" if not finite else
        f"is singular at {p.tolist()} (equilibrated eigenvalue ratio "
        f"{ratio:.3e})" if not ratio > 1e-14 else
        f"is too ill-conditioned at {p.tolist()} (inversion defect "
        f"{defect:.3e})"))


def _christoffel(g_inv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """``gamma[r, l, i, k] = 1/2 g^lm (d_i g_mk + d_k g_mi - d_m g_ik)``
    for stacked derivatives ``dg[r, j] = d_j g``."""
    term = dg + dg.transpose(0, 3, 2, 1) - dg.transpose(0, 2, 1, 3)
    return 0.5 * np.einsum("lm,rimk->rlik", g_inv, term)


class Jet:
    """A value ``v`` with its gradient ``d`` and row-major Hessian ``h``
    (float tuples) over ``k`` coordinates: second-order forward mode
    (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008, ch.
    13).  ``sin cos tan exp log sqrt`` are methods, which numpy's functions
    call; an operation without a derivative raises Python's error, and a
    conversion to float (``math.sin``, a store into a float array), a
    comparison or ``abs`` :class:`InvalidInput` that names it."""

    __slots__ = ("v", "d", "h")

    def __init__(self, v, d, h):
        self.v, self.d, self.h = v, d, h

    def _unsupported(what):
        def method(self, *_):
            raise InvalidInput(
                f"the metric supplier {what}; curvature is derived from g on "
                "jets, so g must use numpy operations on p")
        return method

    __float__ = _unsupported("converted a coordinate to float (a math "
                             "function, or a store into a float array)")
    __lt__, __le__, __gt__, __ge__ = map(_unsupported, [
        f"compared a coordinate with '{op}'" for op in ("<", "<=", ">", ">=")])
    __abs__ = _unsupported("took abs of a coordinate")
    del _unsupported

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


def _metric_jets(g: MetricFn, p: np.ndarray, coords):
    """``g`` at ``p`` and the stacks ``D[0, j] = d_j g`` and ``D[1 + a, j] =
    d_c d_j g`` along the ``k`` coordinates ``c = coords[a]``, exact up to
    rounding and zeros along the others, from ``g`` run once on jets over
    ``coords`` (an object array; ``g`` returns jets and numbers).
    :class:`DifferentiationFailure` where a derivative fails or is not finite."""
    n, k = len(p), len(coords)
    q = np.array(p.tolist(), dtype=object)
    for a, j in enumerate(coords):
        q[j] = Jet(float(p[j]), tuple(float(a == b) for b in range(k)),
                   (0.0,) * (k * k))
    zeros, flat = (0.0,) * (k + k * k), []
    try:
        with np.errstate(all="ignore"):
            for x in np.asarray(g(q)).flat:
                jet = isinstance(x, Jet)
                flat.append(x.v if jet else x)
                flat += x.d + x.h if jet else zeros
            C = np.array(flat, dtype=float).reshape(n, n, 1 + k + k * k)
    except (ArithmeticError, ValueError, TypeError):
        C = None
    if C is None or not np.isfinite(C).all():
        raise DifferentiationFailure(
            f"metric derivatives non-finite at {p.tolist()}")
    D = np.zeros((1 + k, n, n, n))
    D[:, list(coords)] = C[..., 1:].reshape(n, n, 1 + k, k).transpose(2, 3, 0, 1)
    return C[..., 0], D


def jet_riemann(g: MetricFn, p: np.ndarray, coords) -> np.ndarray:
    """``riemann_mixed`` at ``p``, exact up to rounding, from one contraction
    of the metric's jet stacks over ``coords`` (:func:`_metric_jets`).
    :class:`DifferentiationFailure` where a derivative fails or is not finite."""
    n, c = len(p), list(coords)
    G, D = _metric_jets(g, p, coords)
    with np.errstate(all="ignore"):  # non-finite values fail the check below
        g_inv = np.linalg.inv(G)
        gammas = _christoffel(g_inv, D)
        gamma, dgamma = gammas[0], np.zeros((n,) * 4)
        # d_j gamma^l_ik = g^lm (d_j gamma_mik - d_j g_mb gamma^b_ik), with
        # the first-kind symbols gamma_mik
        dg_gamma = g_inv @ (D[0, c] @ gamma.reshape(n, n * n))
        dgamma[c] = gammas[1:] - dg_gamma.reshape(D[1:].shape)
        if not np.isfinite(dgamma).all():
            raise DifferentiationFailure(
                f"Christoffel derivatives non-finite at {p.tolist()}")
        # R^l_kij = d_i gamma^l_jk - d_j gamma^l_ik + gamma^h_jk gamma^l_ih
        #           - gamma^h_ik gamma^l_jh: (i, j) transposes subtracted
        t = dgamma.transpose(1, 3, 0, 2)
        x = np.einsum("hjk,lih->lkij", gamma, gamma)
        return t - t.transpose(0, 1, 3, 2) + x - x.transpose(0, 1, 3, 2)


def christoffel(spec: MetricSpec, p) -> np.ndarray:
    """Christoffel symbols ``gamma[l, i, k]`` of the Levi-Civita connection
    at ``p``: :func:`metric_at`'s inverse with the metric's first
    derivatives from :func:`_metric_jets`."""
    p = as_point(p, spec.dimension)
    g_inv, D = _metric_at(spec, p)[1], _metric_jets(spec.g, p, spec.varying)[1]
    with np.errstate(all="ignore"):
        return _christoffel(g_inv, D[:1])[0]


def riemann(spec: MetricSpec, p, mode: str = "auto") -> CurvatureData:
    """Evaluate the metric, its inverse and the curvature at ``p``.

    The metric and its inverse are :func:`metric_at`'s, and the symmetric
    part of the metric must have as many negative eigenvalues as the
    declared signature has minus signs (:class:`WrongSignature` otherwise).
    With ``mode='auto'`` and an ``analytic_riemann`` table the curvature is
    one call of the table, on path ``'analytic'``.  Otherwise
    (``mode='numeric'``, or no table, as for every metric file) it is
    derived from ``spec.g`` in the call, exactly, by :func:`jet_riemann`
    over the coordinates the spec does not declare ignorable, on path
    ``'numeric'``; ``dataclasses.replace(spec, g=...)`` of such a spec gives
    the new ``g``'s curvature.

    Curvature derived from ``g`` evaluates it twice, for the metric and on
    jets: Kerr's jet values differ from ``spec.g`` in the last bit at about
    1,300 of 3,000 random exterior points, and multistart answers follow
    those bits.
    """
    p = as_point(p, spec.dimension)
    if mode not in ("auto", "numeric"):
        raise InvalidInput(f"unknown differentiation mode '{mode}'")
    g, g_inv, negative = _metric_at(spec, p)
    declared = sum(1 for s in spec.signature if s < 0)
    if negative != declared:
        raise WrongSignature(
            f"metric '{spec.id}' has {negative} negative eigenvalue(s) at "
            f"{p.tolist()}, but its declared signature has {declared}")
    if mode == "auto" and spec.analytic_riemann is not None:
        mixed, path = np.asarray(spec.analytic_riemann(p), dtype=float), "analytic"
    else:
        mixed, path = jet_riemann(spec.g, p, spec.varying), "numeric"
    lowered = np.einsum("ih,hjkl->ijkl", g, mixed)
    return CurvatureData(point=p, g=g, g_inv=g_inv, riemann_mixed=mixed,
                         riemann_lowered=lowered,
                         signature=tuple(spec.signature), path=path)


def verify_tensor_symmetries(cd: CurvatureData) -> SymmetryReport:
    """Measure the antisymmetries, pair symmetry, and the first Bianchi
    identity, each defect relative to ``max(1, max |R|)``."""
    r = cd.riemann_lowered
    scale = max(1.0, float(np.abs(r).max()))
    terms = (r + np.einsum("jikl->ijkl", r), r + np.einsum("ijlk->ijkl", r),
             r - np.einsum("klij->ijkl", r),
             r + np.einsum("iljk->ijkl", r) + np.einsum("iklj->ijkl", r))
    a1, a2, pair, bianchi = (float(np.abs(t).max() / scale) for t in terms)
    return SymmetryReport(antisym_first_pair=a1, antisym_second_pair=a2,
                          pair_symmetry=pair, bianchi_first=bianchi)
