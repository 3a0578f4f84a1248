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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DifferentiationFailure, InvalidInput, SingularMetric

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
    """A metric with optional analytic curvature suppliers.

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
    analytic_gamma : callable, optional
        Maps a point to the ``(n, n, n)`` array ``gamma[l, i, k]``.
    analytic_riemann : callable, optional
        Maps a point to the ``(n, n, n, n)`` array ``riemann_mixed``.
    id : str
        Stable label used in reports.
    """

    dimension: int
    signature: tuple
    g: MetricFn
    analytic_gamma: Optional[Callable[[np.ndarray], np.ndarray]] = None
    analytic_riemann: Optional[Callable[[np.ndarray], np.ndarray]] = None
    id: str = ""

    def __post_init__(self):
        if self.dimension < 2:
            raise InvalidInput("metric dimension must be at least 2")
        if len(self.signature) != self.dimension:
            raise InvalidInput("signature length must equal dimension")
        if any(s not in (-1, 1) for s in self.signature):
            raise InvalidInput("signature entries must be +1 or -1")

    @property
    def is_lorentz(self) -> bool:
        return sum(1 for s in self.signature if s < 0) == 1

    @property
    def is_riemannian(self) -> bool:
        return all(s > 0 for s in self.signature)


@dataclass(frozen=True)
class CurvatureData:
    """Metric and curvature tensors evaluated at a single point."""

    point: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    gamma: np.ndarray
    riemann_mixed: np.ndarray
    riemann_lowered: np.ndarray
    signature: tuple
    path: str = "analytic"
    symmetry_defect: float = 0.0

    @property
    def n(self) -> int:
        return len(self.point)

    @property
    def is_lorentz(self) -> bool:
        return sum(1 for s in self.signature if s < 0) == 1


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
        If ``|det g|`` falls below ``1e-14`` times the natural scale of the
        matrix (coordinate singularities such as a sphere pole or a horizon).
    """
    p = as_point(p, spec.dimension)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.asarray(spec.g(p), dtype=float)
    if g.shape != (spec.dimension, spec.dimension):
        raise InvalidInput("metric supplier returned a wrongly shaped matrix")
    if not np.all(np.isfinite(g)):
        raise SingularMetric(
            f"metric '{spec.id}' is not finite at {p.tolist()}")
    scale = max(1.0, float(np.abs(g).max())) ** spec.dimension
    det = np.linalg.det(g)
    if not np.isfinite(det) or abs(det) < 1e-14 * scale:
        raise SingularMetric(
            f"metric '{spec.id}' is singular at {p.tolist()} (det={det:.3e})")
    g_inv = np.linalg.inv(g)
    defect = np.abs(g @ g_inv - np.eye(spec.dimension)).max()
    if defect > 1e-12 * max(1.0, np.abs(g).max() * np.abs(g_inv).max()):
        raise SingularMetric(
            f"metric '{spec.id}' is too ill-conditioned at {p.tolist()} "
            f"(inversion defect {defect:.3e})")
    return g, g_inv


def supports_complex_step(spec: MetricSpec, p) -> bool:
    """True when the metric supplier evaluates cleanly on complex points."""
    p = as_point(p, spec.dimension)
    try:
        zp = p.astype(complex)
        zp[0] += 1j * CS_STEP
        gz = np.asarray(spec.g(zp))
    except Exception:
        return False
    return (np.iscomplexobj(gz) and gz.shape == (spec.dimension,) * 2
            and bool(np.all(np.isfinite(gz))))


def _metric_first_derivatives(spec: MetricSpec, p: np.ndarray,
                              use_complex: bool) -> np.ndarray:
    """``dg[i, a, b] = d g_ab / d x^i`` via complex step or central+Richardson."""
    n = spec.dimension
    dg = np.empty((n, n, n))
    if use_complex:
        zp = p.astype(complex)
        for i in range(n):
            zq = zp.copy()
            zq[i] += 1j * CS_STEP
            dg[i] = np.asarray(spec.g(zq)).imag / CS_STEP
    else:
        for i in range(n):
            h = max(FD_REL_STEP, FD_REL_STEP * abs(p[i]))
            dg[i] = _richardson_central(
                lambda q: np.asarray(spec.g(q), dtype=float), p, i, h)
    if not np.all(np.isfinite(dg)):
        raise DifferentiationFailure(
            f"metric derivatives non-finite at {p.tolist()}")
    return dg


def _richardson_central(f, p: np.ndarray, i: int, h: float) -> np.ndarray:
    """Central difference in coordinate ``i`` with one Richardson level."""
    def central(step):
        up, dn = p.copy(), p.copy()
        up[i] += step
        dn[i] -= step
        return (f(up) - f(dn)) / (2.0 * step)

    coarse = central(h)
    fine = central(h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def christoffel(spec: MetricSpec, p, mode: str = "auto") -> np.ndarray:
    """Christoffel symbols ``gamma[l, i, k]`` of the Levi-Civita connection.

    ``mode='auto'`` prefers ``analytic_gamma``; ``mode='numeric'`` always
    differentiates the metric.
    """
    p = as_point(p, spec.dimension)
    if mode not in ("auto", "numeric"):
        raise InvalidInput(f"unknown differentiation mode '{mode}'")
    if mode == "auto" and spec.analytic_gamma is not None:
        return np.asarray(spec.analytic_gamma(p), dtype=float)
    _, g_inv = metric_at(spec, p)
    dg = _metric_first_derivatives(spec, p, supports_complex_step(spec, p))
    # gamma^l_ik = 1/2 g^lm (d_i g_mk + d_k g_mi - d_m g_ik)
    term = (np.einsum("imk->imk", dg) + np.einsum("kmi->imk", dg)
            - np.einsum("mik->imk", dg))
    return 0.5 * np.einsum("lm,imk->lik", g_inv, term)


def riemann(spec: MetricSpec, p, mode: str = "auto") -> CurvatureData:
    """Evaluate the full curvature data at ``p``.

    Uses ``analytic_riemann`` when supplied (``mode='auto'``); otherwise the
    Christoffel symbols are differentiated numerically.  The returned
    ``symmetry_defect`` is the maximum relative violation of the algebraic
    symmetries; values above ``1e-6`` signal a differentiation problem and
    should be treated as a diagnostic rather than an exception.
    """
    p = as_point(p, spec.dimension)
    g, g_inv = metric_at(spec, p)
    gamma = christoffel(spec, p, mode=mode)

    if mode == "auto" and spec.analytic_riemann is not None:
        mixed = np.asarray(spec.analytic_riemann(p), dtype=float)
        path = "analytic"
    else:
        dgamma = _christoffel_derivatives(spec, p, mode)
        # R^l_kij = d_i gamma^l_jk - d_j gamma^l_ik
        #           + gamma^h_jk gamma^l_ih - gamma^h_ik gamma^l_jh
        mixed = (np.einsum("iljk->lkij", dgamma)
                 - np.einsum("jlik->lkij", dgamma)
                 + np.einsum("hjk,lih->lkij", gamma, gamma)
                 - np.einsum("hik,ljh->lkij", gamma, gamma))
        path = "numeric"

    lowered = np.einsum("ih,hjkl->ijkl", g, mixed)
    defect = max(_symmetry_defects(lowered)[0])
    return CurvatureData(point=p, g=g, g_inv=g_inv, gamma=gamma,
                         riemann_mixed=mixed, riemann_lowered=lowered,
                         signature=tuple(spec.signature), path=path,
                         symmetry_defect=defect)


def _christoffel_derivatives(spec: MetricSpec, p: np.ndarray,
                             mode: str) -> np.ndarray:
    """``dgamma[j, l, i, k] = d gamma^l_ik / d x^j`` by outer differencing."""
    n = spec.dimension

    def gamma_at(q):
        return christoffel(spec, q, mode=mode)

    dgamma = np.empty((n, n, n, n))
    for j in range(n):
        h = FD_OUTER_REL_STEP * max(1.0, abs(p[j]))
        dgamma[j] = _richardson_central(gamma_at, p, j, h)
    if not np.all(np.isfinite(dgamma)):
        raise DifferentiationFailure(
            f"Christoffel derivatives non-finite at {p.tolist()}")
    return dgamma


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
