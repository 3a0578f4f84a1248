"""The sigma oracle: closed-form expected values and cluster checks.

Every test here is relative to the curvature scale of the input, never an
absolute window: a cluster is *non-zero* when sigma exceeds ``ZERO_REL``
times the largest orthonormal-frame curvature component, it is *genuine*
when its tensor-block residual is below ``GENUINE_REL`` times the size of
the terms it balances, and an expected value is *recalled* when a reported
sigma lies within ``MATCH_REL`` of it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

ZERO_REL = 1e-6
GENUINE_REL = 1e-6
MATCH_REL = 1e-3
# Agreement required between an invariant computed by the library and the
# closed form it must reproduce (numeric curvature carries ~1e-10 error).
CROSS_REL = 1e-6


@dataclass
class Tally:
    """Oracle outcome of one query."""

    attempts: int = 0     # multistart starts plus reduced solves
    converged: int = 0    # converged starts plus reduced solutions returned
    expected: int = 0     # expected non-zero sigma values
    recalled: int = 0
    nonzero: int = 0      # non-zero clusters reported
    genuine: int = 0
    violations: list = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        for name in ("attempts", "converged", "expected", "recalled",
                     "nonzero", "genuine"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.violations += other.violations

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.violations.append(message)


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# -- closed forms ------------------------------------------------------------

def schwarzschild_sigma(mass: float, r: float) -> float:
    return mass / r ** 3


def kerr_psi2(mass: float, spin: float, r: float, theta: float) -> complex:
    return mass / (r - 1j * spin * math.cos(theta)) ** 3


def kerr_sigma(mass: float, spin: float, r: float, theta: float) -> float:
    """``sqrt((|I| + Re I) / 6)`` with ``I = 3 psi2**2`` (type D)."""
    inv = 3.0 * kerr_psi2(mass, spin, r, theta) ** 2
    return math.sqrt((abs(inv) + inv.real) / 6.0)


def sigma_from_invariant(inv_i: complex) -> float:
    inv_i = complex(inv_i)
    return math.sqrt(max(abs(inv_i) + inv_i.real, 0.0) / 6.0)


# -- cluster checks ----------------------------------------------------------

def curvature_scale(g: np.ndarray, riemann_mixed: np.ndarray) -> float:
    """Largest curvature component in an orthonormal frame of ``g``."""
    lam, vec = np.linalg.eigh(g)
    frame = vec / np.sqrt(np.abs(lam))
    coframe = np.linalg.inv(frame)
    hat = np.einsum("ai,ijkl,jb,kc,ld->abcd", coframe, riemann_mixed,
                    frame, frame, frame, optimize=True)
    return float(np.abs(hat).max())


def relative_residual(riemann_mixed: np.ndarray, g: np.ndarray, w, x, y, z,
                      signs, sigma: float) -> float:
    """Tensor-block residual over the size of the terms it balances.

    Also includes the unit-constraint defects, which are already O(1).
    """
    r = riemann_mixed
    terms = (np.einsum("ijkl,j,k,l->i", r, x, y, z),
             np.einsum("ijkl,j,k,l->i", r, w, z, y),
             np.einsum("ijkl,j,k,l->i", r, z, w, x),
             np.einsum("ijkl,j,k,l->i", r, y, x, w))
    vecs = (w, x, y, z)
    block = max(float(np.abs(t - sigma * v).max()) for t, v in zip(terms, vecs))
    size = max(max(float(np.abs(t).max()) for t in terms),
               abs(sigma) * max(float(np.abs(v).max()) for v in vecs))
    cons = max(abs(float(v @ g @ v) - s) for v, s in zip(vecs, signs))
    return max(block / size if size > 0 else math.inf, cons)


def assess_clusters(clusters, g, riemann_mixed, expected) -> Tally:
    """Recall of ``expected`` sigmas and genuineness of non-zero clusters.

    ``clusters`` holds ``(sigma, w, x, y, z, signs)`` tuples.  Extra genuine
    clusters (such as ``2M/r**3`` next to ``M/r**3``) do not count against
    recall.
    """
    tally = Tally(expected=len(expected))
    rho = curvature_scale(g, riemann_mixed)
    for sigma, *_ in clusters:
        tally.check(math.isfinite(sigma) and sigma >= 0.0,
                    f"reported sigma {sigma!r} is not a finite non-negative value")
    for want in expected:
        if any(abs(c[0] - want) <= MATCH_REL * want for c in clusters):
            tally.recalled += 1
    for sigma, w, x, y, z, signs in clusters:
        if rho == 0.0 or sigma <= ZERO_REL * rho:
            continue
        tally.nonzero += 1
        rel = relative_residual(riemann_mixed, g, w, x, y, z, signs, sigma)
        if rel <= GENUINE_REL:
            tally.genuine += 1
    return tally


def solution_clusters(solutions):
    """Cluster tuples from library ``SVPSolution`` objects."""
    return [(s.sigma, *s.q.vectors, s.q.signs) for s in solutions]


def report_clusters(records):
    """Cluster tuples from the ``solutions`` records of a CLI report."""
    out = []
    for rec in records:
        q = rec["quadruple"]
        out.append((float(rec["sigma"]),
                    *(np.array(q[k], dtype=float) for k in "wxyz"),
                    tuple(q["signs"])))
    return out


def invariant_i_closed(mass: float, spin: float, r: float, theta: float) -> complex:
    return 3.0 * kerr_psi2(mass, spin, r, theta) ** 2


def complex_close(a: complex, b: complex, rel: float) -> bool:
    return cmath.isfinite(a) and abs(a - b) <= rel * max(abs(a), abs(b))
