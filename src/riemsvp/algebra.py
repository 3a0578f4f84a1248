"""Inner products, curvature contractions, Weyl split, and null-tetrad scalars.

Complex arithmetic is confined to the null tetrad (:class:`NPTetrad`,
:func:`np_scalars`) and :func:`invariant_i`; every other operation stays
real.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BadTetrad, DimensionTooSmall, InvalidInput
from .geometry import CurvatureData


def inner(g: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Symmetric bilinear pairing ``g_ij u^i v^j``."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != (g.shape[0],) or v.shape != (g.shape[0],):
        raise InvalidInput("vector length does not match metric dimension")
    return float(u @ g @ v)


def ricci(cd: CurvatureData) -> np.ndarray:
    """Ricci tensor ``R_ik = g^hj R_hijk``."""
    return np.einsum("hj,hijk->ik", cd.g_inv, cd.riemann_lowered)


def ricci_scalar(cd: CurvatureData) -> float:
    """Scalar curvature ``R = g^ik R_ik``."""
    return _trace(cd, ricci(cd))


def _trace(cd: CurvatureData, ric: np.ndarray) -> float:
    """The scalar curvature from the Ricci tensor ``ric`` of ``cd``."""
    return float(np.einsum("ik,ik->", cd.g_inv, ric))


def kretschmann(cd: CurvatureData) -> float:
    """Full self-contraction ``R_abcd R^abcd``."""
    up = _raise_all(cd.riemann_lowered, cd.g_inv)
    return float(np.einsum("ijkl,ijkl->", cd.riemann_lowered, up))


def _raise_all(t: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """``t^ijkl = g^ia g^jb g^kc g^ld t_abcd`` as four O(n^5) products.

    Any matrix may stand for ``g_inv``: the frame transforms of
    :func:`curvature_scale` and :func:`np_scalars` are the same product.
    """
    n = g_inv.shape[0]
    for _ in range(4):
        # raise the leading index and move it to the back
        t = (t.reshape(n, -1).T @ g_inv.T).reshape(t.shape)
    return t


def _frame(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g's orthonormal eigenframe ``E = Q / sqrt(|lam|)`` and its signs.

    With ``g = Q diag(lam) Q^T`` the columns of E satisfy
    ``E^T g E = diag(eta)``, ``eta = sign(lam)`` in ascending order of lam,
    as far as ``eigh`` is exact.
    """
    lam, vec = np.linalg.eigh(g)
    return vec / np.sqrt(np.abs(lam)), np.sign(lam)


def curvature_scale(cd: CurvatureData) -> float:
    """Largest curvature component ``max |R^a_bcd|`` in an orthonormal frame.

    The frame is :func:`_frame`; the mixed and lowered components there
    differ only in sign, so the lowered tensor is taken into the frame.  The
    scale does not depend on the units of the coordinates, which makes it
    the reference for relative windows.
    """
    frame, _ = _frame(cd.g)
    return float(np.abs(_raise_all(cd.riemann_lowered, frame.T)).max())


def weyl(cd: CurvatureData) -> np.ndarray:
    """Trace-free part ``C_ijkl`` of the curvature tensor.

    Satisfies all curvature symmetries and ``g^ik C_ijkl = 0``; adding back
    the Ricci and scalar trace terms reproduces the input tensor.
    """
    ric = ricci(cd)
    return _weyl(cd, ric, _trace(cd, ric))


def _weyl(cd: CurvatureData, ric: np.ndarray, scal: float) -> np.ndarray:
    """:func:`weyl` from the Ricci tensor and scalar curvature of ``cd``."""
    n = cd.n
    if n < 3:
        raise DimensionTooSmall("Weyl split requires dimension >= 3")
    # C = R + (P o g) with the Schouten tensor P and o the Kulkarni-Nomizu
    # product, built from half = P_il g_jk - P_ik g_jl and its swap of the
    # pairs i, j and k, l
    schouten = (ric - (scal / (2 * (n - 1))) * cd.g) / (n - 2)
    o = np.multiply.outer(schouten, cd.g)
    half = o.transpose(0, 2, 3, 1) - o.transpose(0, 2, 1, 3)
    return cd.riemann_lowered + half + half.transpose(1, 0, 3, 2)


def weyl_self_contraction(cd: CurvatureData, c: Optional[np.ndarray] = None) -> float:
    """Signed contraction ``C_ijkl C^ijkl``.

    Can be negative in Lorentz signature, so the value is returned as-is
    rather than as a norm.
    """
    if c is None:
        c = weyl(cd)
    return float(np.einsum("ijkl,ijkl->", c, _raise_all(c, cd.g_inv)))


# the entries <l,l> <n,n> <l,n> <m,m> <m,mbar> <l,m> <n,m> of a tetrad's
# flattened 4 x 4 Gram matrix
_CONDITIONS = np.array([0, 5, 1, 10, 11, 2, 6])


@dataclass(frozen=True)
class NPTetrad:
    """Newman-Penrose null tetrad ``(l, n, m, conj(m))``.

    ``l`` and ``n`` are real null vectors with ``<l, n> = -1``; ``m`` is
    complex null with ``<m, conj(m)> = 1``; all other pairings vanish.
    """

    l: np.ndarray
    n: np.ndarray
    m: np.ndarray

    def frame(self) -> np.ndarray:
        """The rows ``l, n, m, conj(m)`` as one complex ``4 x n`` array."""
        m = np.asarray(self.m, dtype=complex)
        return np.array([self.l, self.n, m, m.conj()], dtype=complex)

    def normalization_defect(self, g: np.ndarray) -> float:
        """Largest violation of the tetrad inner-product conditions, read
        from the Gram matrix ``E g E^T`` of the frame ``E``, each relative to
        the size of the terms it sums (``|E| |g| |E|^T``, 0 where they all
        vanish), so that it stays at rounding level at every scale and near a
        horizon, where the terms grow without bound."""
        e = self.frame()
        f = e @ g @ e.T
        f[0, 1] += 1.0
        f[2, 3] -= 1.0
        a = np.abs(e)
        off = np.abs(f.take(_CONDITIONS))
        size = (a @ np.abs(g) @ a.T).take(_CONDITIONS)
        return float((off / np.maximum(size, np.finfo(float).tiny)).max())

    def checked_frame(self, g: np.ndarray) -> np.ndarray:
        """:meth:`frame`, once the tetrad passes its normalization check
        against ``g``; raises :class:`BadTetrad` unless the defect is at
        most 1e-8 (a NaN defect fails)."""
        defect = self.normalization_defect(g)
        if not defect <= 1e-8:
            raise BadTetrad(f"tetrad normalization defect {defect:.3e} exceeds 1.0e-08")
        return self.frame()


def np_scalars(cd: CurvatureData,
               tetrad: NPTetrad) -> tuple[complex, complex, complex, complex, complex]:
    """The five complex Weyl curvature scalars for a null tetrad.

    They are components of the Weyl tensor in the frame ``(l, n, m,
    conj(m))`` (Newman & Penrose, J. Math. Phys. 3, 566, 1962).  The overall
    sign convention is pinned by a regression test against the known
    rotating-black-hole values; with it, the Schwarzschild tetrad gives a
    positive real middle scalar ``M / r**3``.
    """
    return _np_scalars(cd, tetrad, None)


def _np_scalars(cd: CurvatureData, tetrad: NPTetrad, c: Optional[np.ndarray]):
    """:func:`np_scalars` with the Weyl tensor ``c`` of ``cd``, or ``None``."""
    # f[a, b, c, d] = -C(e_a, e_b, e_c, e_d); the sign makes the static
    # black hole's psi2 positive and real
    f = -_raise_all(weyl(cd) if c is None else c, tetrad.checked_frame(cd.g))
    return tuple(complex(f[i]) for i in
                 ((0, 2, 0, 2), (0, 1, 0, 2), (0, 2, 3, 1), (0, 1, 3, 1), (3, 1, 3, 1)))


def invariant_i(psis) -> complex:
    """Quadratic curvature invariant ``psi0*psi4 - 4*psi1*psi3 + 3*psi2**2``."""
    p0, p1, p2, p3, p4 = psis
    return p0 * p4 - 4.0 * p1 * p3 + 3.0 * p2 * p2


@dataclass(frozen=True)
class InvariantReport:
    """Scalar invariants of the curvature at a point."""

    ricci_scalar: float
    kretschmann: float
    weyl_sq: float
    weyl_norm: Optional[float]
    np_scalars: Optional[tuple] = None
    invariant_i: Optional[complex] = None


def compute_invariants(cd: CurvatureData,
                       tetrad: Optional[NPTetrad] = None) -> InvariantReport:
    """Assemble the invariant report; tetrad scalars only when one is given.
    The Ricci, scalar and Weyl curvatures are each computed once."""
    ric = ricci(cd)
    scal = _trace(cd, ric)
    # the trace-free part vanishes identically below n = 3
    c = _weyl(cd, ric, scal) if cd.n >= 3 else None
    wsq = 0.0 if c is None else weyl_self_contraction(cd, c)
    wnorm = float(np.sqrt(wsq)) if wsq >= 0.0 else None
    psis = None if tetrad is None else _np_scalars(cd, tetrad, c)
    inv_i = None if psis is None else invariant_i(psis)
    return InvariantReport(ricci_scalar=scal,
                           kretschmann=kretschmann(cd),
                           weyl_sq=wsq, weyl_norm=wnorm,
                           np_scalars=psis, invariant_i=inv_i)
