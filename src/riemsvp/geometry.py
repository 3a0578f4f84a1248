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

Numeric curvature is one pass over one stencil of ``4k + 1`` points: ``p``,
then ``p ± h_j e_j`` and ``p ± h_j/2 e_j`` for each of the ``k`` coordinates
``j`` the metric depends on, that is, every coordinate the spec does not
declare ``ignorable``.  Each point evaluates the metric once and takes ``k``
complex-step derivatives, so a numeric ``riemann`` calls the metric supplier
``(4k + 1)(k + 1)`` times: 85 times for a 4D metric that declares nothing,
27 for Schwarzschild and Kerr, which do not depend on ``t`` or ``phi``.
Along an ignorable coordinate the Christoffel symbols are those at ``p``
and the metric derivatives are zero, which is exactly what the skipped
evaluations would give, so the results are the same bit for bit.  The real
part of a complex evaluation is not used as the metric: complex arithmetic
rounds differently in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    g = _real_metric(spec, p)
    return g, _checked_inverses(spec, p[None], [g])[0]


def _real_metric(spec: MetricSpec, p: np.ndarray) -> np.ndarray:
    """``spec.g(p)`` as a real matrix of the metric's shape.  Values that
    overflow or are not numbers fail the finite checks later, so numpy does
    not warn about them."""
    with np.errstate(all="ignore"):
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
    finiteness check on as many rows of metric derivatives ``dg`` as given.
    Raises for the first row that fails, a row's metric before its
    derivatives, as checking one row at a time would.
    """
    n = spec.dimension
    G = np.reshape(G, (-1, n, n))
    nf = _first(~np.isfinite(G).all(axis=(1, 2)))
    gmax = np.abs(G[:nf]).max(axis=(1, 2))
    with np.errstate(over="ignore"):  # an infinite det or scale fails
        det = np.linalg.det(G[:nf])
        scale = gmax ** n
    k = _first(~np.isfinite(det) | (np.abs(det) <= 1e-14 * scale))
    G_inv = np.linalg.inv(G[:k])
    defect = np.abs(G[:k] @ G_inv - np.eye(n)).max(axis=(1, 2))
    i = _first(defect > 1e-12 * np.maximum(
        1.0, gmax[:k] * np.abs(G_inv).max(axis=(1, 2))))
    bad_dg = ~np.isfinite(np.reshape(dg, (-1, n, n, n))).all(axis=(1, 2, 3))
    d = _first(bad_dg)
    if d < min(i, len(bad_dg)):
        raise DifferentiationFailure(
            f"metric derivatives non-finite at {points[d].tolist()}")
    if i < k:
        raise SingularMetric(
            f"metric '{spec.id}' is too ill-conditioned at {points[i].tolist()} "
            f"(inversion defect {defect[i]:.3e})")
    if k < nf:
        raise SingularMetric(
            f"metric '{spec.id}' is singular at {points[k].tolist()} "
            f"(det={det[k]:.3e})")
    if nf < len(G):
        raise SingularMetric(
            f"metric '{spec.id}' is not finite at {points[nf].tolist()}")
    return G_inv


def supports_complex_step(spec: MetricSpec, p) -> bool:
    """True when the metric supplier evaluates cleanly on complex points.

    The check is a complex step in the first coordinate the metric depends
    on, or in coordinate 0 when it depends on none.
    """
    i = (spec.varying or (0,))[0]
    return _clean_complex_step(spec, as_point(p, spec.dimension), i) is not None


def _complex_step(spec: MetricSpec, p: np.ndarray, i: int) -> np.ndarray:
    """``spec.g`` at ``p`` with coordinate ``i`` shifted by ``1j * CS_STEP``."""
    zp = p.astype(complex)
    zp[i] += 1j * CS_STEP
    with np.errstate(all="ignore"):  # a non-finite step fails later
        return np.asarray(spec.g(zp))


def _clean_complex_step(spec: MetricSpec, p: np.ndarray,
                        i: int) -> Optional[np.ndarray]:
    """The complex step in coordinate ``i``, or ``None`` when it is not
    clean."""
    try:
        gz = _complex_step(spec, p, i)
    except Exception:
        return None
    clean = (np.iscomplexobj(gz) and gz.shape == (spec.dimension,) * 2
             and bool(np.all(np.isfinite(gz))))
    return gz if clean else None


def _metric_first_derivatives(spec: MetricSpec, p: np.ndarray,
                              g: np.ndarray) -> np.ndarray:
    """``dg[i, a, b] = d g_ab / d x^i``, given the metric ``g`` at ``p``.

    Complex step when the supplier evaluates cleanly on complex points (the
    step in the first varying coordinate is that check), otherwise central
    differences with one Richardson level.  The rows of ignorable
    coordinates are zero.
    """
    coords = spec.varying
    dg = np.zeros((spec.dimension,) * 3)
    if not coords:
        return dg
    gz = _clean_complex_step(spec, p, coords[0])
    if gz is None:
        h = np.maximum(FD_REL_STEP, FD_REL_STEP * np.abs(p))
        F = [g] + [_real_metric(spec, q) for q in _stencil(p, h, coords)[1:]]
        with np.errstate(all="ignore"):  # non-finite rows fail later
            return _richardson(np.array(F), h, coords)
    dg[coords[0]] = gz.imag / CS_STEP
    for i in coords[1:]:
        dg[i] = _complex_step(spec, p, i).imag / CS_STEP
    return dg


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
    coordinate for its complex-step derivatives (four times per varying
    coordinate on the real fallback).  The error raised is the one that
    evaluating and checking the rows one at a time would raise first.
    """
    G, dg = [], []
    try:
        for q in points:
            G.append(_real_metric(spec, q))
            dg.append(_metric_first_derivatives(spec, q, G[-1]))
    except Exception:
        # a failed check on a row already evaluated comes first
        _checked_inverses(spec, points, G, dg)
        raise
    G_inv = _checked_inverses(spec, points, G, dg)
    G, dg = np.array(G), np.array(dg)
    # gamma^l_ik = 1/2 g^lm (d_i g_mk + d_k g_mi - d_m g_ik)
    term = dg + dg.transpose(0, 3, 2, 1) - dg.transpose(0, 2, 1, 3)
    gamma = np.array([0.5 * np.einsum("lm,imk->lik", gi, t)
                      for gi, t in zip(G_inv, term)])
    return G, G_inv, gamma


def christoffel(spec: MetricSpec, p) -> np.ndarray:
    """Christoffel symbols ``gamma[l, i, k]`` of the Levi-Civita connection,
    from the metric's derivatives at ``p``."""
    return _christoffel_rows(spec, as_point(p, spec.dimension)[None])[2][0]


def riemann(spec: MetricSpec, p, mode: str = "auto") -> CurvatureData:
    """Evaluate the metric, its inverse and the curvature at ``p``.

    With ``mode='auto'`` and an ``analytic_riemann`` supplier this is one
    :func:`metric_at` and one call of the supplier.  Otherwise
    (``mode='numeric'``, or no supplier) the Christoffel symbols are
    evaluated at the ``4k + 1`` rows of one stencil (``p``, ``p ± h_j e_j``
    and ``p ± h_j/2 e_j`` for each of the ``k`` coordinates the metric is
    not declared ignorable in) and differentiated by central differences
    with one Richardson level; their derivatives along an ignorable
    coordinate are zero.  Either way the symmetric part of the metric at
    ``p`` must have as many negative eigenvalues as the declared signature
    has minus signs (:class:`WrongSignature` otherwise).
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
        G, G_inv, gammas = _christoffel_rows(spec, _stencil(p, h, spec.varying))
        g, g_inv, gamma = G[0], G_inv[0], gammas[0]
        # dgamma[j, l, i, k] = d gamma^l_ik / d x^j
        dgamma = _richardson(gammas, h, spec.varying)
        if not np.all(np.isfinite(dgamma)):
            raise DifferentiationFailure(
                f"Christoffel derivatives non-finite at {p.tolist()}")
        # R^l_kij = d_i gamma^l_jk - d_j gamma^l_ik
        #           + gamma^h_jk gamma^l_ih - gamma^h_ik gamma^l_jh
        mixed = (np.einsum("iljk->lkij", dgamma)
                 - np.einsum("jlik->lkij", dgamma)
                 + np.einsum("hjk,lih->lkij", gamma, gamma)
                 - np.einsum("hik,ljh->lkij", gamma, gamma))
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
