"""Singular value problem of the Riemann tensor at a point.

The unknowns are four tangent vectors ``(W, X, Y, Z)`` and a scalar
``sigma`` satisfying

    R(Y, Z) X = sigma W        R(Z, Y) W = sigma X
    R(W, X) Z = sigma Y        R(X, W) Y = sigma Z

together with the normalizations ``<V, V> = +-1`` for each vector.  A
search builds its system once (:func:`_system`): the residual (4n tensor
equations plus 4 constraints, or the repeated pair's 2n plus 2) and its
Jacobian, over curvature layouts made once, for a batch of points at a
time.  Every contraction is one stacked matrix-vector product per row
(:func:`_matvec`), so each start ends exactly as it would alone, whatever
the sign pattern of its batch-mates, in the one damped least-squares
Newton core, :func:`_gauss_newton`, that drives a batch to zero together.
A Newton step costs one Jacobian, one least-squares solve and one residual
pass, which tries every step length of every start.  The solve factors each
system by an R-only QR and keeps the SVD for the systems whose R does not
certify full column rank.  The multistart driver and the repeated-pair
reduction :func:`meigen_reduce` share one sign-pattern rule
(:func:`_patterns`) and one search: the starts of every pattern are drawn in
turn from one random stream and are solved as a single batch; the converged
solutions are clustered by ``sigma`` with the residual norms the core ended
on.  A pattern's sampler fills its ``+`` slots, start by start, with the
Gaussian draws of the stream that are not near null or timelike, rescaled
onto ``<v, v> = 1``; its ``-`` slots take direct draws in g's orthonormal
eigenframe from a child stream, which need no rejection and leave the ``+``
draws as they are, each rescaled by its measured ``<v, v>`` like the ``+``
draws.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import catalog as _catalog_mod
from .algebra import _frame, inner
from .errors import BadCase, InvalidInput, NoConvergence, WrongSignature
from .geometry import CurvatureData, as_point, riemann

Signs = tuple[int, int, int, int]

ALL_PLUS: Signs = (1, 1, 1, 1)


@dataclass(frozen=True)
class Quadruple:
    """Four tangent vectors with the signs of their unit constraints."""

    w: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    signs: Signs = ALL_PLUS

    @property
    def vectors(self) -> tuple[np.ndarray, ...]:
        return (self.w, self.x, self.y, self.z)

    def flat(self) -> np.ndarray:
        return np.concatenate([self.w, self.x, self.y, self.z])


@dataclass
class SVPSolution:
    """A solved 5-tuple ``(W, X, Y, Z, sigma)`` plus provenance."""

    q: Quadruple
    sigma: float
    residual: float
    origin: str = "multistart"
    seed: Optional[int] = None
    trivial: Optional[str] = None
    count: int = 1


@dataclass(frozen=True)
class SolverConfig:
    """Newton and multistart parameters."""

    tol: float = 1e-11
    n_starts: int = 200
    sign_pattern: str = "++++"
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise InvalidInput("tol must be positive and finite")
        starts = self.n_starts
        if not isinstance(starts, (int, np.integer)) or starts < 1:
            raise InvalidInput("n_starts must be an integer of at least 1")
        seed = self.rng_seed
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise InvalidInput("rng_seed must be a non-negative integer")
        parse_sign_pattern(self.sign_pattern)


def parse_sign_pattern(pattern) -> Optional[Signs]:
    """Normalize a sign pattern; ``None`` means enumerate all patterns."""
    if pattern is None:
        return None
    if isinstance(pattern, str):
        text = pattern.strip().lower()
        if text in ("all", "enumerate-all"):
            return None
        text = text.replace("\u2212", "-")
        if len(text) == 4 and set(text) <= {"+", "-"}:
            return tuple(1 if ch == "+" else -1 for ch in text)
        raise InvalidInput(f"bad sign pattern '{pattern}'")
    signs = tuple(int(s) for s in pattern)
    if len(signs) != 4 or any(s not in (-1, 1) for s in signs):
        raise InvalidInput(f"bad sign pattern '{pattern}'")
    return signs


def sigma_from_tensor(cd: CurvatureData, q: Quadruple) -> float:
    """The scalar ``R(W, X, Y, Z)``; equals sigma on all-plus solutions."""
    return float(_sigmas(cd, q.flat()[None])[0])


# ---------------------------------------------------------------------------
# Batched residual, Jacobian and the Gauss-Newton core
# ---------------------------------------------------------------------------

# Equation e balances the curvature action on the vectors (V[e^1], V[e^2],
# V[e^3]) in slots (j, k, l) of riemann_mixed[i, j, k, l] against sigma V[e].
_P = np.array([1, 0, 3, 2])
_Q = np.array([2, 3, 0, 1])
_S = np.array([3, 2, 1, 0])
# Equations 0 and 1 of a pair row (y, z), which stands for (y, z, y, z).
_PAIR_VECTORS = tuple(t[:2] % 2 for t in (_P, _Q, _S))

# Outcomes of one start in the Newton core.
CONVERGED, STALLED, CAPPED, SINGULAR = ("converged", "stalled", "capped",
                                        "singular")

# Backtracking ladder: the first step length that lowers the max-norm
# residual is taken; wilder starts would diverge on full steps.
_STEPS = (1.0, 0.5, 0.25, 0.125, 1.0 / 16.0)

# Most starts the core advances together.  Its work arrays take about 15 kB
# per start; larger batches are solved in slices of this size, which bounds
# the memory and changes no result.
_MAX_BATCH = 1024

# Newton steps a start may take; one that has not converged by then is capped.
_MAX_NEWTON_ITERS = 60


def _matvec(a: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``a @ v`` for each vector ``v`` of ``vecs``: one stacked
    ``numpy.matmul`` in which each row is its own matrix-vector product, so
    an entry is computed the same way whatever batch it sits in.  ``a`` is
    one matrix every row shares or one per row, in (..., rows, n) form."""
    return np.matmul(a, vecs[..., None])[..., 0]


def _squares(g: np.ndarray, V: np.ndarray) -> np.ndarray:
    """``<v, v>`` for each vector ``v`` on the last axis of ``V``, as ``g v``
    and then ``v . (g v)``, each a :func:`_matvec`: the products of the
    residual's constraint rows."""
    return _matvec(_matvec(g, V)[..., None, :], V)[..., 0]


def _sigmas(cd: CurvatureData, V: np.ndarray) -> np.ndarray:
    """``R(W, X, Y, Z)`` for each row ``(w, x, y, z)`` of ``V``."""
    n, B = cd.n, len(V)
    w, x, y, z = V.reshape(B, 4, n).transpose(1, 0, 2)
    rz = _matvec(cd.riemann_lowered.reshape(n ** 3, n), z)
    rzy = _matvec(rz.reshape(B, n * n, n), y)
    return _matvec(_matvec(rzy.reshape(B, n, n), x)[:, None], w)[:, 0]


@functools.cache
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs ``i < j`` of a bivector's components."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False  # shared by every caller
    return i, j


_System = collections.namedtuple("_System", "residuals jacobians")


def _system(cd: CurvatureData, pair: bool = False) -> _System:
    """The SVP system at ``cd``, its curvature operators laid out once.

    ``residuals(U, signs, out=None)`` is :func:`residual` at each row
    ``(w, x, y, z, sigma)`` of ``U`` for one sign pattern or one per row,
    into ``out`` if given; ``jacobians(U)`` is its Jacobian at each row.
    With ``pair`` a row ``(y, z, sigma)`` stands for ``(y, z, y, z, sigma)``
    and the system is the first two equations and constraints, with the
    columns of the repeated vectors summed.  Equation ``e`` contracts the
    plane pair with the bivector ``q ^ s`` (``i < j``), then with ``p``; its
    Jacobian rows hold the derivatives in the slots ``_P[e]``, ``_Q[e]``,
    ``_S[e]``, ``-sigma`` on the diagonal of slot ``e`` and ``-V[e]`` in
    the sigma column, and constraint ``e`` holds ``2 g V[e]`` in slot ``e``.
    The Jacobian's layouts are made on its first call."""
    n, k, g, r = cd.n, 2 if pair else 4, cd.g, cd.riemann_mixed
    P, Q, S = _PAIR_VECTORS if pair else (_P, _Q, _S)
    i, j = _pairs(n)
    # a strided view: numpy multiplies it in its own loop, and a C-contiguous
    # copy would go to BLAS, slower at these sizes and rounded differently
    plane_pair = r[:, :, i, j].reshape(n * n, len(i))
    # the entries q^i, q^j, s^i, s^j of each equation's bivector in a row
    qi, qj, si, sj = (t[:, None] * n + c for t in (Q, S) for c in (i, j))

    def residuals(U, signs, out=None):
        B = len(U)
        V, sigma = U[:, :k * n].reshape(B, k, n), U[:, k * n]
        plane = U[:, qi] * U[:, sj] - U[:, qj] * U[:, si]
        maps = _matvec(_matvec(plane_pair, plane).reshape(B, k, n, n), V[:, P])
        out = np.empty((B, k * n + k)) if out is None else out
        np.subtract(maps, sigma[:, None, None] * V,
                    out=out[:, :k * n].reshape(B, k, n))
        np.subtract(_squares(g, V), signs, out=out[:, k * n:])
        return out

    @functools.cache
    def layouts():
        return r.reshape(n ** 3, n), r.swapaxes(1, 3).reshape(n ** 3, n)

    e, rows, slots = np.arange(k), np.arange(k * n), (_P[:k], _Q[:k], _S[:k])

    def jacobians(U):
        B, m = len(U), 4 * n
        V, sigma = U[:, :k * n].reshape(B, k, n), U[:, k * n]
        r_s, r_p = layouts()
        p, q = V[:, P], V[:, Q]
        # derivatives of r_ijkl p^j q^k s^l in p, q and s, per equation
        rs = _matvec(r_s, V[:, S]).reshape(B, k, n, n, n)
        d_p = _matvec(rs.reshape(B, k, n * n, n), q)
        d_q = _matvec(rs.swapaxes(-2, -1).reshape(B, k, n * n, n), p)
        d_s = _matvec(_matvec(r_p, p).reshape(B, k, n * n, n), q)
        jac = np.zeros((B, k * n + k, m + 1))
        # views of jac: blocks[b, e, slot, i, j] is row e n + i, column
        # slot n + j of the full system; cons[b, e, slot, j] is row kn + e
        blocks = jac[:, :k * n, :m].reshape(B, k, n, 4, n).swapaxes(2, 3)
        cons = jac[:, k * n:, :m].reshape(B, k, 4, n)
        for slot, d in zip(slots, (d_p, d_q, d_s)):
            blocks[:, e, slot] = d.reshape(B, k, n, n)
        jac[:, rows, rows] = -sigma[:, None]
        jac[:, :k * n, m] = -V.reshape(B, k * n)
        cons[:, e, e] = 2.0 * _matvec(g, V)
        # the pair's columns: the repeated vectors' columns, summed
        return (np.concatenate([jac[:, :, :2 * n] + jac[:, :, 2 * n:m],
                                jac[:, :, m:]], axis=2) if pair else jac)

    return _System(residuals, jacobians)


def residual(cd: CurvatureData, q: Quadruple, sigma: float) -> np.ndarray:
    """Full residual vector, length ``4n + 4``.

    Blocks: the four tensor equations (n entries each), then the four
    normalization constraints ``<V, V> - sign_V``.
    """
    return _system(cd).residuals(np.append(q.flat(), sigma)[None], q.signs)[0]


def residual_norm(cd: CurvatureData, q: Quadruple, sigma: float) -> float:
    return float(np.abs(residual(cd, q, sigma)).max())


def _svd_solve(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solutions, with one refinement step.

    Singular values at or below ``eps * max(M, N) * s_max`` count as zero,
    the cutoff ``numpy.linalg.lstsq`` uses with ``rcond=None``.  The
    refinement step recovers the accuracy starts need to get below a
    tolerance near the rounding floor.
    """
    u, s, vt = np.linalg.svd(jac, full_matrices=False)
    cutoff = np.finfo(float).eps * max(jac.shape[1:]) * s[:, :1]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > cutoff)
    ut, v = u.transpose(0, 2, 1), vt.transpose(0, 2, 1)

    def apply_pinv(b):
        return _matvec(v, inv * _matvec(ut, b))

    x = apply_pinv(rhs)
    return x + apply_pinv(rhs - _matvec(jac, x))


# A system whose R has min |r_ii| > _QR_RANK_TOL * max |r_ii| has full
# column rank, so its least-squares solution is unique and QR gives the
# minimum-norm step for less than half the SVD's cost.  The test reads one
# system's R only, so a start's step does not depend on its batch.
_QR_RANK_TOL = 1e-8


def _lstsq_steps(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares step per system; NaN rows where it fails.

    Every finite system ``[J | b]`` is factored by one R-only QR: its
    leading k x k block is the R of J and the first k entries of its last
    column are ``c = Q^T b``, so Q is never formed.  A system whose R
    certifies full column rank takes ``x = R^-1 c`` by back-substitution
    (LU makes no row exchange on a triangular matrix); every other goes
    through :func:`_svd_solve`.  A system with a non-finite entry, or whose
    SVD fails on its own, gets a NaN row; the finite systems of a stack that
    holds one are solved as a stack of their own, so every system is solved
    exactly as it would be alone.  An empty stack makes no LAPACK call.
    """
    k = jac.shape[2]
    aug = np.concatenate([jac, rhs[:, :, None]], axis=2)
    finite = np.isfinite(aug).all(axis=(1, 2))
    if not finite.all() or not len(aug):
        steps = np.full((len(jac), k), np.nan)
        if finite.any():
            steps[finite] = _lstsq_steps(jac[finite], rhs[finite])
        return steps
    r = np.linalg.qr(aug, mode="r")
    diag = np.abs(np.diagonal(r[:, :k, :k], axis1=1, axis2=2))
    full = diag.min(axis=1) > _QR_RANK_TOL * diag.max(axis=1)
    if full.all():
        return np.linalg.solve(r[:, :k, :k], r[:, :k, k:])[..., 0]
    steps = np.full((len(jac), k), np.nan)
    if full.any():
        steps[full] = np.linalg.solve(r[full, :k, :k], r[full, :k, k:])[..., 0]
    ok = np.flatnonzero(~full)
    try:
        steps[ok] = _svd_solve(jac[ok], rhs[ok])
    except np.linalg.LinAlgError:
        for i in ok:
            try:
                steps[i] = _svd_solve(jac[i:i + 1], rhs[i:i + 1])[0]
            except np.linalg.LinAlgError:
                pass
    return steps


# A start that overflows gets a non-finite residual or step, which the
# comparisons in the core reject, so the floating-point warnings carry nothing.
@np.errstate(over="ignore", invalid="ignore")
def _gauss_newton(system: _System, U: np.ndarray, signs: np.ndarray,
                  cfg: SolverConfig):
    """Damped least-squares Newton on a batch of starts ``U`` of shape (B, k).

    ``system`` is one search's :func:`_system` and ``signs`` holds each
    start's signs.  Each start iterates on its own: it takes the
    minimum-norm Gauss-Newton step (:func:`_lstsq_steps`), then the first
    length in ``_STEPS`` that lowers the max-norm of its residual.  It ends
    ``CONVERGED`` once that norm is below ``cfg.tol``, ``STALLED`` when no
    step length lowers it, ``SINGULAR`` on a non-finite step and ``CAPPED``
    after ``_MAX_NEWTON_ITERS`` steps, whatever its batch-mates do.  Returns
    the final points, their residual norms and the outcomes.  A pass makes
    one Jacobian call on the live points and one residual call, into one
    array, on every step length of each; the live starts are repacked only
    on a pass where one of them ends.
    """
    if len(U) > _MAX_BATCH:
        slices = [_gauss_newton(system, U[lo:lo + _MAX_BATCH],
                                signs[lo:lo + _MAX_BATCH], cfg)
                  for lo in range(0, len(U), _MAX_BATCH)]
        return tuple(np.concatenate(part) for part in zip(*slices))
    U = np.array(U, dtype=float)
    F = system.residuals(U, signs)
    fnorm = np.abs(F).max(axis=1)
    outcome = np.full(len(U), CAPPED, dtype=object)
    outcome[fnorm < cfg.tol] = CONVERGED
    live = np.flatnonzero(~(fnorm < cfg.tol))
    # the live starts' points, residuals, norms and trial signs
    u, f, fn = U[live], F[live], fnorm[live]
    tried = np.tile(signs[live], (len(_STEPS), 1))
    buf = np.empty((len(tried), F.shape[1]))
    lengths, offsets = np.array(_STEPS)[:, None, None], np.arange(len(live))
    for _ in range(_MAX_NEWTON_ITERS):
        if not live.size:
            break
        step = _lstsq_steps(system.jacobians(u), -f)
        # every step length in one residual pass, length-major; each start
        # takes the first length that lowers its norm, and a non-finite
        # step lowers none
        u_try = (u + lengths * step).reshape(-1, U.shape[1])
        f_try = system.residuals(u_try, tried, out=buf[:len(u_try)])
        fn_try = np.abs(f_try).max(axis=1)
        better = fn_try.reshape(len(_STEPS), len(u)) < fn
        pick = better.argmax(axis=0) * len(u) + offsets
        u_new, f, fn_new = u_try[pick], f_try[pick], fn_try[pick]
        stuck, done = ~better.any(axis=0), fn_new < cfg.tol
        if stuck.any() or done.any():
            # a start no length improves keeps its point
            u_new[stuck], fn_new[stuck] = u[stuck], fn[stuck]
            outcome[live[done]] = CONVERGED
            outcome[live[stuck]] = STALLED
            outcome[live[~np.isfinite(step).all(axis=1)]] = SINGULAR
            keep = ~(done | stuck)
            U[live[~keep]], fnorm[live[~keep]] = u_new[~keep], fn_new[~keep]
            live, u_new, f, fn_new = (a[keep] for a in (live, u_new, f,
                                                        fn_new))
            tried = np.tile(signs[live], (len(_STEPS), 1))
            offsets = np.arange(len(live))
        u, fn = u_new, fn_new
    U[live], fnorm[live] = u, fn
    return U, fnorm, outcome


def _same(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether ``a = +-b`` to 1e-6 in every entry, over the last axis."""
    return ((np.abs(a - b).max(axis=-1) < 1e-6)
            | (np.abs(a + b).max(axis=-1) < 1e-6))


def _trivial_patterns(V: np.ndarray) -> list:
    """:func:`trivial_pattern` for each row of vectors ``V`` (B, 4, n)."""
    wx, yz = _same(V[:, 0], V[:, 1]), _same(V[:, 2], V[:, 3])
    labels = np.full(len(V), None, dtype=object)
    labels[yz] = "y=z"
    labels[wx] = "w=x"
    labels[wx & yz & _same(V[:, 0], V[:, 2])] = "all-equal"
    return labels.tolist()


def trivial_pattern(q: Quadruple) -> Optional[str]:
    """Classify the degenerate repeated-vector families, if any."""
    return _trivial_patterns(np.stack(q.vectors)[None])[0]


# Sigma values closer than this are one cluster.
_CLUSTER_EPS = 1e-7


def _clusters(U: np.ndarray, res: np.ndarray, signs, seeds,
              origin: str) -> list[SVPSolution]:
    """The reported clusters of converged rows ``(w, x, y, z, sigma)``.

    ``res``, ``signs`` and ``seeds`` hold each row's converged residual
    norm, sign pattern and start number; zero rows give no cluster and no work.
    A negative sigma is flipped together with ``W``, which maps solutions to
    solutions and negates residual entries exactly, so the reported sigma is
    >= 0 and the norm holds for the flipped row.  Rows are taken in
    increasing sigma, ties in row order.  A row joins the last cluster when
    its sigma is within ``_CLUSTER_EPS`` of that cluster's representative,
    and opens a new one otherwise.  No earlier cluster can take it: each
    opened at least ``_CLUSTER_EPS`` above every earlier representative, and
    no later row has a smaller sigma.  The representative is the first row
    of least residual; the cluster counts its rows and keeps their first
    trivial label.  Grouping is by sigma only: the solution sets are
    typically continuous manifolds (the zero family always is), which
    grouping by orbit would splinter into singletons.
    """
    if not len(U):
        return []
    n, signs = U.shape[1] // 4, np.asarray(signs)
    U = U.copy()
    flip = U[:, 4 * n] < 0.0
    U[flip, :n] *= -1.0
    U[flip, 4 * n] *= -1.0
    labels = _trivial_patterns(U[:, :4 * n].reshape(-1, 4, n))
    order = np.argsort(U[:, 4 * n], kind="stable").tolist()
    # the merge loop reads Python floats, which round as numpy's float64
    sigma, res = U[:, 4 * n].tolist(), res.tolist()
    groups = []  # [representative row, count, label] per cluster
    for i in order:
        if not groups or abs(sigma[groups[-1][0]] - sigma[i]) >= _CLUSTER_EPS:
            groups.append([i, 0, None])
        last = groups[-1]
        last[0] = i if res[i] < res[last[0]] else last[0]
        last[1], last[2] = last[1] + 1, last[2] or labels[i]
    return [SVPSolution(q=Quadruple(*U[i, :4 * n].reshape(4, n),
                                    tuple(signs[i].tolist())),
                        sigma=sigma[i], residual=res[i], origin=origin,
                        seed=seeds[i], trivial=label, count=count)
            for i, count, label in groups]


def _solve_full(cd: CurvatureData, U: np.ndarray, signs, cfg: SolverConfig,
                pair: bool = False):
    """:func:`_gauss_newton` on the full or, with ``pair``, the repeated-pair
    system; ``signs`` is one sign pattern or one per row."""
    signs = np.asarray(signs, dtype=float)[..., :2 if pair else 4]
    return _gauss_newton(_system(cd, pair), U, np.broadcast_to(
        signs, (len(U), signs.shape[-1])), cfg)


# Largest block of draws the start sampler classifies at once; it bounds the
# sampler's memory whatever the rejection rate.
_BLOCK = 2048

# Draws the start sampler may spend per vector asked for, over the whole call.
_MAX_TRIES = 2000


def _self_products(g: np.ndarray, V: np.ndarray) -> np.ndarray:
    """``<v, v>`` for each row ``v`` of ``V``, stacked, so each row gets the
    products of ``float(v @ g @ v)``; a single (B, n) @ (n, n) product can
    round differently."""
    return np.matmul(np.matmul(V[:, None, :], g), V[:, :, None])[:, 0, 0]


def _spacelike(rng: np.random.Generator, g: np.ndarray,
               count: int) -> np.ndarray:
    """Up to ``count`` vectors with ``<v, v> = 1``, by rejection.

    Gaussian draws ``v`` are taken in stream order.  A draw with
    ``<v, v> >= 1e-6`` is rescaled onto ``<v, v> = 1`` and kept; any other
    draw is dropped.  At most ``_MAX_TRIES`` draws are spent per vector.
    The draws come in growing blocks; the rows do not depend on the block
    size.
    """
    kept = [np.empty((0, len(g)))]
    budget, need, size = _MAX_TRIES * count, count, min(_BLOCK, 2 * count)
    while budget and need:
        V = rng.standard_normal((min(size, budget), len(g)))
        budget -= len(V)
        qv = _self_products(g, V)
        hits = np.flatnonzero(qv >= 1e-6)[:need]
        kept.append(V[hits] / np.sqrt(qv[hits])[:, None])
        need -= len(hits)
        size = min(_BLOCK, 2 * size)
    return np.concatenate(kept)


def _timelike(rng: np.random.Generator, g: np.ndarray,
              count: int) -> Optional[np.ndarray]:
    """``count`` vectors with ``<v, v> = -1``, drawn in g's orthonormal
    eigenframe; ``None`` when g has no negative eigenvalue.

    In the frame ``E`` of :func:`algebra._frame` the metric is
    ``diag(eta)`` on ``u = E^-1 v``.  Each row ``c ~ N(0, I)`` keeps
    its positive block, and its negative block's direction is scaled to
    ``sqrt(1 + |c_pos|^2)``, so ``<E u, E u> = -1`` with no rejection and
    both time orientations occur.  ``eigh`` is only as exact as g is well
    conditioned, so each row ``v = E u`` is then rescaled by its measured
    ``<v, v>``, as the spacelike draws are.  Row k is the stream's k-th
    row, whatever ``count``.
    """
    E, eta = _frame(g)
    neg = eta < 0.0
    if not neg.any():
        return None
    u = rng.standard_normal((count, len(g)))
    c_pos, c_neg = u[:, ~neg], u[:, neg]
    scale = np.sqrt((1.0 + (c_pos * c_pos).sum(axis=1))
                    / (c_neg * c_neg).sum(axis=1))
    u[:, neg] = c_neg * scale[:, None]
    v = _matvec(E, u)
    return v / np.sqrt(-_self_products(g, v))[:, None]


def _sample_starts(rng: np.random.Generator, g: np.ndarray, signs,
                   count: int) -> tuple[np.ndarray, int]:
    """Up to ``count`` starts, one unit vector per sign each.

    The ``+`` slots are filled, start by start, by :func:`_spacelike` on
    ``rng``, at most ``_MAX_TRIES`` draws per ``+`` vector asked for.  The
    ``-`` slots take rows of :func:`_timelike`, in start order, from a child
    stream jumped from ``rng`` at entry, so they leave ``rng`` as it is; a
    pattern without a ``-`` sign makes no child and no frame.  Returns the
    complete starts as rows ``(v_1, ..., v_len(signs))`` and the number
    attempted, which counts one incomplete start when the ``+`` draws ran
    out or g has no timelike vector.  A batch of one is the first row of a
    larger batch.
    """
    n = len(g)
    plus = [i for i, s in enumerate(signs) if s > 0]
    minus = [i for i, s in enumerate(signs) if s < 0]
    out = np.empty((count, len(signs), n))
    starts = count
    if minus:
        child = np.random.Generator(rng.bit_generator.jumped())
        rows = _timelike(child, g, count * len(minus))
        if rows is None:
            starts = 0
        else:
            out[:, minus] = rows.reshape(count, len(minus), n)
    if plus:
        rows = _spacelike(rng, g, count * len(plus))
        starts = min(starts, len(rows) // len(plus))
        out[:starts, plus] = rows[:starts * len(plus)].reshape(
            starts, len(plus), n)
    return (out[:starts].reshape(starts, len(signs) * n),
            starts + (starts < count))


def _search(cd: CurvatureData, cfg: SolverConfig, patterns: list[Signs],
            pair: bool = False) -> list[SVPSolution]:
    """Sample the starts of every sign pattern and solve them as one batch.

    The patterns draw their starts in turn from one stream seeded with
    ``cfg.rng_seed`` (:func:`_sample_starts`; a pattern's ``-`` slots come
    from a child stream jumped from it, so they do not move the ``+`` draws
    of any pattern).  Starts are numbered from 1 in that order, and each
    pattern's numbers follow all the starts attempted before it.  With
    ``pair`` the unknowns are the pair ``(y, z)`` of the repeated-pair
    reduction ``(w, x, y, z) = (y, z, y, z)``, sampled with each pattern's
    first two signs.  Returns the :func:`_clusters` of the converged starts,
    in increasing sigma, each with the residual norm the core converged on:
    an embedded pair row's equations and constraints 2 and 3 repeat its 0
    and 1, so that norm is the full system's too.
    """
    n, k = cd.n, 2 if pair else 4
    rng = np.random.default_rng(cfg.rng_seed)
    blocks, seeds = [], []
    start_index = 0
    for pattern in patterns:
        V, attempted = _sample_starts(rng, cd.g, pattern[:k], cfg.n_starts)
        blocks.append(V)
        seeds.append(np.arange(start_index + 1, start_index + 1 + len(V)))
        start_index += attempted
    V, seeds = np.concatenate(blocks), np.concatenate(seeds)
    signs = np.repeat(np.array(patterns), [len(b) for b in blocks], axis=0)
    # a pair row (y, z, sigma) stands for (y, z, y, z, sigma)
    U, fnorm, outcome = _solve_full(
        cd, np.column_stack([V, _sigmas(cd, np.tile(V, 2) if pair else V)]),
        signs, cfg, pair)
    conv = np.flatnonzero(outcome == CONVERGED)
    U = U[conv]
    if pair:
        U = np.concatenate([U[:, :2 * n], U], axis=1)
    return _clusters(U, fnorm[conv], signs[conv], seeds[conv].tolist(),
                     "meigen" if pair else "multistart")


def feasible_patterns(cd: CurvatureData) -> list[Signs]:
    """Sign patterns compatible with the metric signature."""
    if cd.is_riemannian:
        return [ALL_PLUS]
    return [p for p in itertools.product((1, -1), repeat=4)]


def _patterns(cd: CurvatureData, cfg: SolverConfig) -> list[Signs]:
    """The sign patterns a search with ``cfg`` runs on ``cd``: the one
    ``cfg.sign_pattern`` names, or every feasible one for ``all``.  A
    negative sign on a Riemannian metric raises :class:`WrongSignature`."""
    pattern = parse_sign_pattern(cfg.sign_pattern)
    if pattern is None:
        return feasible_patterns(cd)
    if min(pattern) < 0 and cd.is_riemannian:
        raise WrongSignature("negative unit constraints are infeasible "
                             "for a Riemannian metric")
    return [pattern]


def multistart(cd: CurvatureData, cfg: SolverConfig) -> list[SVPSolution]:
    """Random-start search over the SVP solution set.

    Searches every sign pattern of :func:`_patterns`, so a negative sign on
    a Riemannian metric raises :class:`WrongSignature`.  Deterministic for
    a fixed ``rng_seed``.  Returns one representative per cluster, sorted
    by sigma; trivial zero-sigma families are labeled, never filtered.  An
    empty nonzero set is a legitimate outcome.
    """
    patterns = _patterns(cd, cfg)
    return _ensure_trivial(_search(cd, cfg, patterns), cd, patterns)


def sigma_values(solutions) -> list[float]:
    """Distinct sigma values among solutions, merged as :func:`_clusters`
    merges them: a value is at least ``_CLUSTER_EPS`` above the last."""
    out: list[float] = []
    for s in sorted(sol.sigma for sol in solutions):
        if not out or abs(s - out[-1]) >= _CLUSTER_EPS:
            out.append(s)
    return out


def _ensure_trivial(clusters: list[SVPSolution], cd: CurvatureData,
                    patterns: list[Signs]) -> list[SVPSolution]:
    """``clusters`` with the analytic sigma = 0 row first, unless one of
    them is labelled trivial.

    The row is ``(v, v, u, u)`` for the first of ``patterns`` of the form
    ``(a, a, b, b)`` whose signs g has: ``v`` and ``u`` are columns of g's
    orthonormal frame (:func:`algebra._frame`) of signs ``a`` and ``b``,
    distinct when ``a == b`` and g has two such columns, each rescaled by
    its measured ``<v, v>``.  It draws from no stream, so every seed gives
    the same row.  Each equation's bivector ``q ^ s`` is zero, so the
    residual is the constraint rows, computed as :func:`_system`'s residuals
    compute them; the label follows :func:`_trivial_patterns`' rule.
    """
    if any(s.trivial for s in clusters):
        return clusters
    E, eta = _frame(cd.g)
    for signs in patterns:
        a, b = signs[0], signs[2]
        cols_a, cols_b = E.T[eta == a], E.T[eta == b]
        if signs != (a, a, b, b) or not (len(cols_a) and len(cols_b)):
            continue
        V = np.stack([cols_a[0], cols_b[int(a == b and len(cols_b) > 1)]])
        sign = np.array([a, b], dtype=float)
        V /= np.sqrt(sign * _squares(cd.g, V))[:, None]
        v, u = V
        clusters.insert(0, SVPSolution(
            q=Quadruple(v, v.copy(), u, u.copy(), signs=signs), sigma=0.0,
            residual=float(np.abs(_squares(cd.g, V) - sign).max()),
            origin="analytic", trivial="all-equal" if _same(v, u) else "w=x"))
        break
    return clusters


# ---------------------------------------------------------------------------
# Solution orbit: sign flips, swaps, and plane rotations
# ---------------------------------------------------------------------------

_SWAPS = [
    # (slot permutation applied to (w, x, y, z), sigma sign)
    ((1, 0, 2, 3), -1.0),
    ((0, 1, 3, 2), -1.0),
    ((1, 0, 3, 2), +1.0),
    ((2, 3, 0, 1), +1.0),
    ((3, 2, 0, 1), -1.0),
    ((2, 3, 1, 0), -1.0),
    ((3, 2, 1, 0), +1.0),
]


def orbit(sol: SVPSolution, cd: CurvatureData) -> list[SVPSolution]:
    """All solutions generated from ``sol`` by the structural transforms.

    Emits the 16 per-vector sign patterns (sigma flips with the parity of
    the number of minus signs), the 7 vector swaps, and, when the pairs are
    orthogonal unit pairs of equal constraint sign, the 3 plane rotations
    by ``1/sqrt(2)``.  Sigma values are reported signed, before any
    non-negativity normalization.  Each member carries its own residual,
    which the caller judges (``verify``'s ``orbit-closure`` check).
    """
    q, sigma = sol.q, sol.sigma
    members: list[tuple[Quadruple, float]] = []

    def emit(quad: Quadruple, sig: float):
        members.append((quad, sig))

    for signs4 in itertools.product((1.0, -1.0), repeat=4):
        parity = 1.0 if np.prod(signs4) > 0 else -1.0
        emit(Quadruple(*(s * v for s, v in zip(signs4, q.vectors)),
                       signs=q.signs), parity * sigma)

    for perm, sig in _SWAPS:
        emit(Quadruple(*(q.vectors[i] for i in perm),
                       signs=tuple(q.signs[i] for i in perm)), sig * sigma)

    if _rotations_valid(cd, q):
        w, x, y, z = q.vectors
        rt = 1.0 / math.sqrt(2.0)
        emit(Quadruple(rt * (w - x), rt * (w + x), y, z, q.signs), sigma)
        emit(Quadruple(w, x, rt * (y - z), rt * (y + z), q.signs), sigma)
        emit(Quadruple(rt * (w + x), rt * (w - x), rt * (y + z), rt * (y - z),
                       q.signs), sigma)
    U = np.array([np.append(quad.flat(), sig) for quad, sig in members])
    res = np.abs(_system(cd).residuals(U, [quad.signs for quad, _ in members]))
    return [SVPSolution(q=quad, sigma=sig, residual=float(r), origin="orbit",
                        seed=sol.seed)
            for (quad, sig), r in zip(members, res.max(axis=1))]


def orbit_size(sol: SVPSolution, cd: CurvatureData) -> int:
    """The number of members :func:`orbit` returns for ``sol``."""
    return 16 + len(_SWAPS) + (3 if _rotations_valid(cd, sol.q) else 0)


def _rotations_valid(cd: CurvatureData, q: Quadruple) -> bool:
    """Plane rotations preserve the constraints only for orthogonal pairs."""
    if q.signs[0] != q.signs[1] or q.signs[2] != q.signs[3]:
        return False
    return (abs(inner(cd.g, q.w, q.x)) < 1e-9
            and abs(inner(cd.g, q.y, q.z)) < 1e-9)


# ---------------------------------------------------------------------------
# Reduced problems
# ---------------------------------------------------------------------------


def meigen_reduce(cd: CurvatureData, cfg: SolverConfig) -> list[SVPSolution]:
    """Solve the repeated-pair reduction ``W = Y``, ``X = Z``.

    The reduced system ``R(Y, Z) Z = sigma Y``, ``R(Z, Y) Y = sigma Z`` is
    solved by the same least-squares Newton machinery on ``2n + 1``
    unknowns; every converged pair embeds into a full solution whose full
    residual is the norm the pair converged on.  For each
    sign pattern ``(p0, p1, ...)`` that :func:`multistart` would search, it
    solves ``(p0, p1, p0, p1)`` once, so a negative sign on a Riemannian
    metric raises :class:`WrongSignature` here too.
    """
    patterns = dict.fromkeys(p[:2] * 2 for p in _patterns(cd, cfg))
    return _search(cd, cfg, list(patterns), pair=True)


@dataclass(frozen=True)
class MixedSignReport:
    """What the mixed-constraint-sign search found."""

    n_converged: int
    max_abs_sigma: float


def lorentz_mixed_sign_check(cd: CurvatureData,
                             cfg: SolverConfig) -> MixedSignReport:
    """On a Lorentz metric, mixed constraint signs force ``sigma = 0``.

    Runs the multistart search with a mixed sign pattern (default
    ``(+, +, +, -)``) and reports the number of converged starts (not
    :func:`multistart`'s analytic zero row) and the largest ``|sigma|``
    among them, for the caller to judge (``verify``'s ``remark2-lorentz``).
    """
    if not cd.is_lorentz:
        raise WrongSignature("mixed-sign check needs a Lorentz metric "
                             f"(one negative sign), got {cd.signature}")
    pattern = parse_sign_pattern(cfg.sign_pattern)
    if pattern is None or len(set(pattern)) == 1:
        cfg = replace(cfg, sign_pattern="+++-")
    sols = _search(cd, cfg, _patterns(cd, cfg))
    return MixedSignReport(sum(s.count for s in sols), max(
        (abs(s.sigma) for s in sols), default=0.0))


def wedge_matrix(y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The patterned 4x4 matrix built from the bivector ``y ^ z``.

    With ``S[i, j] = y^i z^j - y^j z^i`` the matrix is::

        [ 0      2 S01   S20    S30 ]
        [ 2 S01  0       S21    S31 ]
        [ S20    S12     0      2 S23 ]
        [ S30    S13     2 S32  0    ]
    """
    s = np.outer(y, z) - np.outer(z, y)
    return np.array([
        [0.0, 2 * s[0, 1], s[2, 0], s[3, 0]],
        [2 * s[0, 1], 0.0, s[2, 1], s[3, 1]],
        [s[2, 0], s[1, 2], 0.0, 2 * s[2, 3]],
        [s[3, 0], s[1, 3], 2 * s[3, 2], 0.0],
    ])


def wedge_det_defect(y: np.ndarray, z: np.ndarray) -> float:
    """Relative defect of the determinant identity for :func:`wedge_matrix`.

    ``det(S) = -(2 S01 * 2 S23 + S20 S13 + S30 S21)**2`` holds for every
    pair ``(y, z)``; the return value is ``|det - rhs|`` over Hadamard's
    bound on ``|det|``, the product of the matrix's row 2-norms, and 0 when
    that product is 0.  The determinant is taken of the matrix with its rows
    scaled to unit length, so the defect does not depend on the scale of
    ``y`` and ``z``.
    """
    s = np.outer(y, z) - np.outer(z, y)
    mat = wedge_matrix(y, z)
    rhs = -(2 * s[0, 1] * 2 * s[2, 3] + s[2, 0] * s[1, 3]
            + s[3, 0] * s[2, 1]) ** 2
    norms = np.linalg.norm(mat, axis=1)
    bound = float(np.prod(norms))
    if not bound:
        return 0.0
    return abs(float(np.linalg.det(mat / norms[:, None])) - rhs / bound)


def schwarzschild_reduced_solve(mass: float, r: float, theta: float) -> SVPSolution:
    """:func:`kerr_reduced_solve` at zero spin, on the static black hole's
    entry: its curvature table and its tetrad, Kerr's Kinnersley tetrad at
    ``spin = 0``.  The reported value is ``sigma = mass / r**3``."""
    return _reduced_solve(_catalog_mod.schwarzschild(mass), r, theta)


def kerr_reduced_solve(mass: float, spin: float, r: float,
                       theta: float) -> SVPSolution:
    """Special solution family of the rotating black-hole SVP.

    In the Kinnersley null tetrad only the middle Weyl scalar ``psi2``
    survives (vacuum type D).  Setting ``Z = X``, ``W = -Y`` with the
    component ansatz collapses the system to two scalar equations whose
    solution has ``sigma = R(W, X, Y, Z) = Re psi2``, of either sign; with
    ``W`` negated where ``Re psi2 < 0`` the reported value is

        sigma = |Re psi2| = sqrt((|I| + Re I) / 6),

    with ``I`` the quadratic Weyl invariant.  ``q`` holds the
    coordinate-basis vectors.  Raises :class:`BadTetrad` where the metric
    and the tetrad disagree beyond rounding: at the horizon, and for the
    static black hole within about ``1e-8 M`` of it.
    """
    return _reduced_solve(_catalog_mod.kerr(mass, spin), r, theta)


def _reduced_solve(entry, r: float, theta: float) -> SVPSolution:
    """:func:`_type_d_reduced` at the point ``(0, r, theta, 0)`` of a black
    hole's catalog ``entry``, once the point passes its domain check."""
    point = as_point([0.0, r, theta, 0.0], 4)
    entry.check_point(point)
    return _type_d_reduced(riemann(entry.spec, point), entry.tetrad(point))


# the rows w, x, y, z = -y, x, y, x in tetrad coefficients (l, n, m, mbar):
# x solves -2 x1 x2 = 2 x3 x4 = 1/2
_TYPE_D_QUADRUPLE = np.array([[-0.5, 0.5, 0.5, 0.5], [0.5, -0.5, 0.5, 0.5],
                              [0.5, -0.5, -0.5, -0.5], [0.5, -0.5, 0.5, 0.5]])


def _type_d_reduced(cd: CurvatureData, tetrad) -> SVPSolution:
    """The reduced solution of a vacuum type-D curvature ``cd`` from a null
    tetrad in which ``psi2`` is its only Weyl scalar: a fixed combination of
    the tetrad vectors that solves the system with ``sigma = R(W, X, Y, Z) =
    Re psi2``, flipped to ``(-W, -sigma)`` where that is negative."""
    coords = _TYPE_D_QUADRUPLE @ tetrad.checked_frame(cd.g)
    if np.abs(coords.imag).max() > 1e-12:
        raise NoConvergence("tetrad combination produced a non-real vector")
    quad = Quadruple(*coords.real)
    sigma = sigma_from_tensor(cd, quad)
    if sigma < 0:
        quad = replace(quad, w=-quad.w)
        sigma = -sigma
    return SVPSolution(q=quad, sigma=sigma,
                       residual=residual_norm(cd, quad, sigma),
                       origin="reduced")


# the terms a, b of each signed case's sigma = (a + b - R / (n - 1)) / (n - 2)
_PAIR_TERMS = {"m-eigen": ("ricci_ww", "ricci_xx"),
               "ricci-pair": ("lam", "mu"), "einstein": ("kappa", "kappa")}


def closed_form_sigma(case: str, **params) -> float:
    """Closed-form sigma for the analytically solvable families.

    Cases
    -----
    ``space-form`` : constant sectional curvature ``kappa``; returns
        ``abs(kappa)`` (non-negativity normalization applied).
    ``m-eigen`` : conformally flat repeated-pair reduction; needs
        ``ricci_ww``, ``ricci_xx``, ``ricci_scalar``, ``n``.
    ``ricci-pair`` : ``w, x`` aligned with Ricci eigenpairs ``lam``, ``mu``;
        needs ``lam``, ``mu``, ``ricci_scalar``, ``n``.
    ``einstein`` : Einstein manifold with ``Ricci = kappa * g``; needs
        ``kappa``, ``ricci_scalar``, ``n``.

    The last three are signed predictions; no sign normalization is applied.
    Raises :class:`BadCase` for an unknown case, a missing parameter or one
    that is not a finite number, and an ``n`` that is not an integer >= 3.
    """
    if case != "space-form" and case not in _PAIR_TERMS:
        raise BadCase(f"unknown closed-form case '{case}'")
    values = []
    for name in (("kappa",) if case == "space-form"
                 else _PAIR_TERMS[case] + ("ricci_scalar", "n")):
        if name not in params:
            raise BadCase(f"missing parameter '{name}' for case '{case}'")
        try:
            values.append(float(params[name]))
        except (TypeError, ValueError, OverflowError):
            values.append(math.nan)
        if not math.isfinite(values[-1]):
            raise BadCase(f"parameter '{name}' of case '{case}' is not a "
                          f"finite number: {params[name]!r}")
    if case == "space-form":
        return abs(values[0])
    a, b, scal, n = values
    if not n.is_integer() or n < 3:
        raise BadCase(f"case '{case}' requires an integer n >= 3, "
                      f"got {params['n']!r}")
    return (a + b - scal / (n - 1)) / (n - 2)
