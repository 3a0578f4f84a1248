"""Built-in metrics with analytic curvature tables and expected results.

Stable catalog ids: ``sphere2``, ``space-form``, ``euclidean``,
``minkowski``, ``schwarzschild``, ``kerr``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .algebra import NPTetrad
from .errors import InvalidInput, OutOfDomain
from .geometry import MetricSpec, jet_riemann

Expected = Callable[[np.ndarray], list]


@dataclass(frozen=True)
class CatalogEntry:
    """A metric together with its domain, tetrad, and expected results."""

    spec: MetricSpec
    admissible: Callable[[np.ndarray], bool]
    default_point: np.ndarray
    tetrad: Optional[Callable[[np.ndarray], NPTetrad]] = None
    expected_sigma: Optional[Expected] = None
    params: dict = field(default_factory=dict)

    def check_point(self, point: np.ndarray) -> None:
        """Raise :class:`OutOfDomain` unless ``point`` is admissible."""
        if not self.admissible(point):
            raise OutOfDomain(f"point {point.tolist()} is outside the "
                              f"admissible domain of '{self.spec.id}'")


def sphere2() -> CatalogEntry:
    """Round unit 2-sphere in ``(theta, phi)`` coordinates.

    ``ds^2 = dtheta^2 + sin(theta)^2 dphi^2``; the only independent lowered
    curvature component is ``R[0, 1, 0, 1] = sin(theta)^2`` and the nonzero
    singular value is 1.
    """

    def g(p):
        th = p[0]
        return np.array([[1.0 + 0.0 * th, 0.0 * th],
                         [0.0 * th, np.sin(th) ** 2]])

    def riem(p):
        s2 = math.sin(p[0]) ** 2
        out = np.zeros((2, 2, 2, 2))
        out[0, 1, 0, 1] = s2
        out[0, 1, 1, 0] = -s2
        out[1, 0, 1, 0] = 1.0
        out[1, 0, 0, 1] = -1.0
        return out

    spec = MetricSpec(dimension=2, signature=(1, 1), g=g,
                      analytic_riemann=riem, id="sphere2")
    return CatalogEntry(
        spec=spec,
        admissible=lambda p: abs(math.sin(p[0])) > 1e-3,
        default_point=np.array([math.pi / 3, 0.0]),
        expected_sigma=lambda p: [(0.0, "trivial"), (1.0, "round sphere")])


def space_form(kappa: float, n: int) -> CatalogEntry:
    """Constant sectional curvature ``kappa``, realized algebraically.

    The curvature is supplied directly in an orthonormal chart at a point
    (``g`` is the identity), so the entry is valid pointwise only: the
    numeric differentiation path sees a constant metric and returns zero
    curvature by construction.
    """
    if not float(n).is_integer() or n < 2:
        raise InvalidInput(f"space form needs an integer n >= 2, got {n}")
    n = int(n)
    kappa = float(kappa)
    eye = np.eye(n)

    def riem(p):
        # R_ijkl = kappa (g_ik g_jl - g_il g_jk); identity chart, so the
        # mixed and lowered forms coincide.
        return kappa * (np.einsum("ik,jl->ijkl", eye, eye)
                        - np.einsum("il,jk->ijkl", eye, eye))

    spec = MetricSpec(dimension=n, signature=(1,) * n,
                      g=lambda p: np.eye(n) + 0.0 * p[0],
                      analytic_riemann=riem, id="space-form")

    def expected(p):
        if kappa == 0.0:
            return [(0.0, "flat")]
        return [(0.0, "trivial"), (abs(kappa), "sectional curvature")]

    return CatalogEntry(spec=spec, admissible=lambda p: True,
                        default_point=np.zeros(n),
                        expected_sigma=expected,
                        params={"kappa": kappa, "n": n})


def euclidean(n: int = 3) -> CatalogEntry:
    """Flat Euclidean space; zero curvature, only the trivial sigma."""
    entry = space_form(0.0, n)
    return replace(entry, spec=replace(entry.spec, id="euclidean"),
                   params={"n": entry.spec.dimension})


def minkowski() -> CatalogEntry:
    """Flat Lorentz metric ``diag(-1, 1, 1, 1)``."""
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])

    def flat_tetrad(p):
        rt = math.sqrt(2.0)
        return NPTetrad(l=np.array([1.0, 1.0, 0.0, 0.0]) / rt,
                        n=np.array([1.0, -1.0, 0.0, 0.0]) / rt,
                        m=np.array([0.0, 0.0, 1.0, 1.0j]) / rt)

    spec = MetricSpec(dimension=4, signature=(-1, 1, 1, 1),
                      g=lambda p: eta + 0.0 * p[0],
                      analytic_riemann=lambda p: np.zeros((4, 4, 4, 4)),
                      id="minkowski")
    return CatalogEntry(spec=spec, admissible=lambda p: True,
                        default_point=np.zeros(4),
                        tetrad=flat_tetrad,
                        expected_sigma=lambda p: [(0.0, "flat")])


def schwarzschild(mass: float = 1.0) -> CatalogEntry:
    """Static black hole in ``(t, r, theta, phi)`` coordinates.

    ``ds^2 = -f dt^2 + f^{-1} dr^2 + r^2 (dtheta^2 + sin^2 theta dphi^2)``
    with ``f = 1 - 2M/r``.  The mixed curvature components come from the
    closed-form table built out of

        A = M f / r^3,  B = M / (r^3 f),  C = M / r,  D = M sin^2(theta) / r,

    and the expected nonzero singular value at radius ``r`` is ``M / r^3``.
    The metric does not depend on ``t`` or ``phi``, which the spec declares
    ignorable.
    """
    if not 0 < mass < math.inf:
        raise InvalidInput("mass must be positive")
    mass = float(mass)

    def g(p):
        r, th = p[1], p[2]
        f = 1.0 - 2.0 * mass / r
        zero = 0.0 * r
        return np.array([
            [-f, zero, zero, zero],
            [zero, 1.0 / f, zero, zero],
            [zero, zero, r ** 2, zero],
            [zero, zero, zero, r ** 2 * np.sin(th) ** 2],
        ])

    def riem(p):
        r, th = p[1], p[2]
        f = 1.0 - 2.0 * mass / r
        a = mass * f / r ** 3
        b = mass / (r ** 3 * f)
        c = mass / r
        d = mass * math.sin(th) ** 2 / r
        out = np.zeros((4, 4, 4, 4))
        table = [
            (0, 1, 0, 1, 2 * b), (0, 2, 2, 0, c), (0, 3, 3, 0, d),
            (1, 0, 0, 1, 2 * a), (1, 2, 2, 1, c), (1, 3, 3, 1, d),
            (2, 0, 2, 0, a), (2, 1, 1, 2, b), (2, 3, 2, 3, 2 * d),
            (3, 0, 3, 0, a), (3, 1, 1, 3, b), (3, 2, 3, 2, 2 * c),
        ]
        for (u, k, i, j, val) in table:
            out[u, k, i, j] = val
            out[u, k, j, i] = -val
        return out

    spec = MetricSpec(dimension=4, signature=(-1, 1, 1, 1), g=g,
                      analytic_riemann=riem, id="schwarzschild",
                      ignorable=(0, 3))

    def admissible(p):
        r, th = p[1], p[2]
        return r > 2.0 * mass and 0.0 < th < math.pi

    def expected(p):
        r = p[1]
        return [(0.0, "trivial"), (mass / r ** 3, "reduced family")]

    return CatalogEntry(spec=spec, admissible=admissible,
                        default_point=np.array([0.0, 3.0 * mass, math.pi / 4, 0.0]),
                        expected_sigma=expected, params={"M": mass})


def kerr(mass: float = 1.0, spin: float = 0.5) -> CatalogEntry:
    """Rotating black hole in Boyer-Lindquist ``(t, r, theta, phi)``.

    The curvature is exact: its supplier runs ``g`` on jets
    (:func:`geometry.jet_riemann`).  The bundled null tetrad produces the
    type-D Weyl scalars, and the expected nonzero sigma is
    ``sqrt((|I| + Re I) / 6)`` built from the quadratic invariant.  The
    metric does not depend on ``t`` or ``phi``, which the spec declares
    ignorable.
    """
    if not (0 < mass < math.inf and 0.0 <= spin < mass):
        raise InvalidInput("need mass > 0 and 0 <= spin < mass")
    mass = float(mass)
    spin = float(spin)

    def g(p):
        r, th = p[1], p[2]
        sin2 = np.sin(th) ** 2
        sigma = r ** 2 + spin ** 2 * np.cos(th) ** 2
        delta = r ** 2 - 2.0 * mass * r + spin ** 2
        zero = 0.0 * r
        g_tphi = -2.0 * mass * spin * r * sin2 / sigma
        return np.array([
            [-(1.0 - 2.0 * mass * r / sigma), zero, zero, g_tphi],
            [zero, sigma / delta, zero, zero],
            [zero, zero, sigma, zero],
            [g_tphi, zero, zero,
             (r ** 2 + spin ** 2 + 2.0 * mass * spin ** 2 * r * sin2 / sigma) * sin2],
        ])

    def tetrad(p):
        r, th = p[1], p[2]
        delta = r ** 2 - 2.0 * mass * r + spin ** 2
        sigma = r ** 2 + spin ** 2 * math.cos(th) ** 2
        lvec = np.array([(r ** 2 + spin ** 2) / delta, 1.0, 0.0, spin / delta])
        nvec = np.array([(r ** 2 + spin ** 2) / (2.0 * sigma),
                         -delta / (2.0 * sigma), 0.0, spin / (2.0 * sigma)])
        mvec = (np.array([1j * spin * math.sin(th), 0.0, 1.0,
                          1j / math.sin(th)])
                / (math.sqrt(2.0) * (r + 1j * spin * math.cos(th))))
        return NPTetrad(l=lvec, n=nvec, m=mvec)

    def psi2(p):
        r, th = p[1], p[2]
        return mass / (r - 1j * spin * math.cos(th)) ** 3

    def expected(p):
        val = psi2(p)
        inv = 3.0 * val * val
        sigma = math.sqrt((abs(inv) + inv.real) / 6.0)
        return [(0.0, "trivial"), (sigma, "special family")]

    spec = MetricSpec(dimension=4, signature=(-1, 1, 1, 1), g=g, id="kerr",
                      analytic_riemann=lambda p: jet_riemann(g, p, (1, 2)),
                      ignorable=(0, 3))

    def admissible(p):
        r, th = p[1], p[2]
        return (r ** 2 - 2.0 * mass * r + spin ** 2 > 0 and r > 0
                and 0.0 < th < math.pi)

    return CatalogEntry(spec=spec, admissible=admissible,
                        default_point=np.array([0.0, 3.0 * mass, math.pi / 2, 0.0]),
                        tetrad=tetrad, expected_sigma=expected,
                        params={"M": mass, "a": spin})


# Catalog id -> (factory, declared parameters with their defaults); a
# parameter whose default is None is required.  The factories run through
# their module-level names, so replacing one of those names takes effect.
REGISTRY: dict[str, tuple[Callable[..., CatalogEntry], dict]] = {
    "sphere2": (lambda: sphere2(), {}),
    "space-form": (lambda kappa, n: space_form(kappa, n),
                   {"kappa": None, "n": None}),
    "euclidean": (lambda n: euclidean(n), {"n": 3}),
    "minkowski": (lambda: minkowski(), {}),
    "schwarzschild": (lambda M: schwarzschild(M), {"M": 1.0}),
    "kerr": (lambda M, a: kerr(M, a), {"M": 1.0, "a": 0.5}),
}

CATALOG_IDS = tuple(REGISTRY)


def get(metric_id: str, **params) -> CatalogEntry:
    """Look up a catalog entry by its stable id.

    Raises :class:`InvalidInput` for an unknown id, an undeclared parameter
    or a missing required one.
    """
    if metric_id not in REGISTRY:
        raise InvalidInput(f"unknown catalog id '{metric_id}'")
    factory, declared = REGISTRY[metric_id]
    undeclared = sorted(set(params) - set(declared))
    if undeclared:
        raise InvalidInput(
            f"{metric_id} does not take params {', '.join(undeclared)} "
            f"(declared: {', '.join(declared) or 'none'})")
    args = {**declared, **params}
    missing = [k for k, v in args.items() if v is None]
    if missing:
        raise InvalidInput(f"{metric_id} needs params {' and '.join(missing)}")
    return factory(**args)
