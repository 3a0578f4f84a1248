"""Singular value problem of the Riemann tensor at a point.

The unknowns are four tangent vectors ``(W, X, Y, Z)`` and a scalar
``sigma`` satisfying

    R(Y, Z) X = sigma W        R(Z, Y) W = sigma X
    R(W, X) Z = sigma Y        R(X, W) Y = sigma Z

together with the normalizations ``<V, V> = +-1`` for each vector.  The
residual of this system (4n tensor equations plus 4 constraints) and its
Jacobian are evaluated for a whole batch of points at once; the residual
contracts the curvature's plane pair with a bivector, which has
n(n - 1)/2 components.  Every contraction is one stacked matrix-vector
product per row (:func:`_matvec`) on an operand its caller lays out as
(..., rows, n).  One damped least-squares Newton core,
:func:`_gauss_newton`, drives a batch of starts to zero together, and each
start ends exactly as it would alone, whatever the sign pattern of its
batch-mates.  A Newton step costs one Jacobian, one least-squares solve
and one residual pass, which tries every step length of every start.  The
solve factors each system by an R-only QR and keeps the SVD for the
systems whose R does not certify full column rank.  The multistart driver and
the repeated-pair reduction :func:`meigen_reduce` share one sign-pattern
rule (:func:`_patterns`) and one search: the starts of every pattern are
drawn in turn from one random stream and are solved as a single batch; the
converged solutions are clustered by ``sigma``.  A pattern's sampler takes
Gaussian draws in stream order, drops the near-null ones, rescales the
others onto ``<v, v> = +-1`` and lets each fill the next open slot of its
sign, start by start.  The single-start :func:`solve_newton` runs through
the same core.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import catalog as _catalog_mod
from .algebra import curvature_scale, inner, np_scalars
from .errors import (BadCase, InvalidInput, NoConvergence, OutOfDomain,
                     SingularJacobian, WrongSignature)
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
    tetrad_components: Optional[np.ndarray] = None


@dataclass(frozen=True)
class SolverConfig:
    """Newton and multistart parameters."""

    tol: float = 1e-11
    max_newton_iters: int = 60
    n_starts: int = 200
    sign_pattern: str = "++++"
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise InvalidInput("tol must be positive and finite")
        if self.n_starts < 1:
            raise InvalidInput("n_starts must be at least 1")
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


def _matvec(a: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``a @ v`` for each vector ``v`` of ``vecs``: one stacked
    ``numpy.matmul`` in which each row is its own matrix-vector product, so
    an entry is computed the same way whatever batch it sits in.  ``a`` is
    one matrix every row shares or one per row, in (..., rows, n) form."""
    return np.matmul(a, vecs[..., None])[..., 0]


def _sigmas(cd: CurvatureData, V: np.ndarray) -> np.ndarray:
    """``R(W, X, Y, Z)`` for each row ``(w, x, y, z)`` of ``V``."""
    n, B = cd.n, len(V)
    w, x, y, z = V.reshape(B, 4, n).transpose(1, 0, 2)
    rz = _matvec(cd.riemann_lowered.reshape(n ** 3, n), z)
    rzy = _matvec(rz.reshape(B, n * n, n), y)
    return _matvec(_matvec(rzy.reshape(B, n, n), x)[:, None], w)[:, 0]


def _split(U: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectors (B, 4, n) and sigmas (B,) of rows ``(w, x, y, z, sigma)``."""
    return U[:, :4 * n].reshape(len(U), 4, n), U[:, 4 * n]


@functools.cache
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs ``i < j`` of a bivector's components."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False  # shared by every caller
    return i, j


def _residuals(cd: CurvatureData, U: np.ndarray, signs) -> np.ndarray:
    """:func:`residual` for each row ``(w, x, y, z, sigma)`` of ``U``.

    ``signs`` is one sign pattern or one per row.  The curvature is
    antisymmetric in its plane pair, so equation ``e`` contracts that pair
    with the bivector ``q ^ s`` of its second and third vectors, components
    ``i < j``, and then the result with its first vector ``p``.
    """
    n, B = cd.n, len(U)
    V, sigma = _split(U, n)
    i, j = _pairs(n)
    q, s = V[:, _Q], V[:, _S]
    plane = q[..., i] * s[..., j] - q[..., j] * s[..., i]
    # a strided view: numpy multiplies it in its own loop, and a C-contiguous
    # copy would go to BLAS, slower at these sizes and rounded differently
    pair = cd.riemann_mixed[:, :, i, j].reshape(n * n, len(i))
    maps = _matvec(_matvec(pair, plane).reshape(B, 4, n, n), V[:, _P])
    tensor = (maps - sigma[:, None, None] * V).reshape(B, 4 * n)
    cons = (_matvec(_matvec(cd.g, V)[..., None, :], V)[..., 0]
            - np.asarray(signs, dtype=float))
    return np.concatenate([tensor, cons], axis=1)


def _jacobians(cd: CurvatureData, U: np.ndarray) -> np.ndarray:
    """:func:`_jacobian` for each row ``(w, x, y, z, sigma)`` of ``U``,
    from the points alone: it makes every curvature contraction itself.

    Tensor row ``e n + i`` holds the derivatives of equation ``e`` in the
    slots ``_P[e]``, ``_Q[e]`` and ``_S[e]``, ``-sigma`` on the diagonal of
    its own slot ``e`` and ``-V[e, i]`` in the sigma column; constraint row
    ``4n + e`` holds ``2 g V[e]`` in slot ``e``.
    """
    n, B = cd.n, len(U)
    V, sigma = _split(U, n)
    r = cd.riemann_mixed
    p, q = V[:, _P], V[:, _Q]
    # derivatives of r_ijkl p^j q^k s^l in p, q and s, per equation
    rs = _matvec(r.reshape(n ** 3, n), V[:, _S]).reshape(B, 4, n, n, n)
    d_p = _matvec(rs.reshape(B, 4, n * n, n), q)
    d_q = _matvec(rs.swapaxes(-2, -1).reshape(B, 4, n * n, n), p)
    rp = _matvec(r.swapaxes(1, 3).reshape(n ** 3, n), p)
    d_s = _matvec(rp.reshape(B, 4, n * n, n), q)
    m, e, rows = 4 * n, np.arange(4), np.arange(4 * n)
    jac = np.zeros((B, m + 4, m + 1))
    # views of jac: blocks[b, e, slot, i, j] is row e n + i, column
    # slot n + j; cons[b, e, slot, j] is row 4n + e, column slot n + j
    blocks = jac[:, :m, :m].reshape(B, 4, n, 4, n).swapaxes(2, 3)
    cons = jac[:, m:, :m].reshape(B, 4, 4, n)
    for slot, d in ((_P, d_p), (_Q, d_q), (_S, d_s)):
        blocks[:, e, slot] = d.reshape(B, 4, n, n)
    jac[:, rows, rows] = -sigma[:, None]
    jac[:, :m, m] = -V.reshape(B, m)
    cons[:, e, e] = 2.0 * _matvec(cd.g, V)
    return jac


def residual(cd: CurvatureData, q: Quadruple, sigma: float) -> np.ndarray:
    """Full residual vector, length ``4n + 4``.

    Blocks: the four tensor equations (n entries each), then the four
    normalization constraints ``<V, V> - sign_V``.
    """
    return _residuals(cd, np.append(q.flat(), sigma)[None], q.signs)[0]


def residual_norm(cd: CurvatureData, q: Quadruple, sigma: float) -> float:
    return float(np.abs(residual(cd, q, sigma)).max())


def _jacobian(cd: CurvatureData, q: Quadruple, sigma: float) -> np.ndarray:
    """Analytic Jacobian of :func:`residual` w.r.t. ``(w, x, y, z, sigma)``."""
    return _jacobians(cd, np.append(q.flat(), sigma)[None])[0]


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
    SVD fails on its own, gets a NaN row; the other systems are solved
    exactly as they would be alone.  An empty stack makes no LAPACK call.
    """
    k = jac.shape[2]
    steps = np.full((len(jac), k), np.nan)
    aug = np.concatenate([jac, rhs[:, :, None]], axis=2)
    ok = np.flatnonzero(np.isfinite(aug).all(axis=(1, 2)))
    if not ok.size:
        return steps
    r = np.linalg.qr(aug[ok], mode="r")
    diag = np.abs(np.diagonal(r[:, :k, :k], axis1=1, axis2=2))
    full = diag.min(axis=1) > _QR_RANK_TOL * diag.max(axis=1)
    if full.any():
        steps[ok[full]] = np.linalg.solve(r[full, :k, :k],
                                          r[full, :k, k:])[..., 0]
    ok = ok[~full]
    if not ok.size:
        return steps
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
def _gauss_newton(res_fn, jac_fn, U: np.ndarray, cfg: SolverConfig):
    """Damped least-squares Newton on a batch of starts ``U`` of shape (B, k).

    ``res_fn(points, idx)`` maps the points of the starts ``idx`` to their
    residuals (B, m) and ``jac_fn(points)`` maps points to Jacobians
    (B, m, k), row by row, so each start may have its own equations.  Each
    start iterates on its own: it takes the minimum-norm Gauss-Newton step
    (:func:`_lstsq_steps`: QR when the Jacobian has full column rank, else
    the SVD), then the first length in ``_STEPS`` that lowers the max-norm
    of its residual.  It ends ``CONVERGED`` once that norm is below
    ``cfg.tol``, ``STALLED`` when no step length lowers it, ``SINGULAR`` on
    a non-finite step and ``CAPPED`` after ``cfg.max_newton_iters`` steps;
    none of this depends on the other starts in the batch.  Returns the
    final points, their residual norms and the outcomes.

    An iteration makes one Jacobian call, on the points alone, and one
    residual call, on every step length of every live start.
    """
    if len(U) > _MAX_BATCH:
        slices = [_gauss_newton(lambda batch, idx, lo=lo: res_fn(batch, lo + idx),
                                jac_fn, U[lo:lo + _MAX_BATCH], cfg)
                  for lo in range(0, len(U), _MAX_BATCH)]
        return tuple(np.concatenate(part) for part in zip(*slices))
    U = np.array(U, dtype=float)
    F = res_fn(U, np.arange(len(U)))
    fnorm = np.abs(F).max(axis=1)
    outcome = np.full(len(U), CAPPED, dtype=object)
    live = np.arange(len(U))
    for _ in range(cfg.max_newton_iters):
        done = fnorm[live] < cfg.tol
        outcome[live[done]] = CONVERGED
        live = live[~done]
        if not live.size:
            break
        step = _lstsq_steps(jac_fn(U[live]), -F[live])
        finite = np.isfinite(step).all(axis=1)
        outcome[live[~finite]] = SINGULAR
        live, step = live[finite], step[finite]
        # every step length in one residual pass, length-major; each start
        # takes the first length that lowers its norm
        u_try = (U[live] + np.multiply.outer(_STEPS, step)).reshape(
            -1, U.shape[1])
        f_try = res_fn(u_try, np.tile(live, len(_STEPS)))
        fn_try = np.abs(f_try).max(axis=1)
        better = fn_try.reshape(len(_STEPS), len(live)) < fnorm[live]
        hit = better.any(axis=0)
        pick = better.argmax(axis=0)[hit] * len(live) + np.flatnonzero(hit)
        outcome[live[~hit]] = STALLED
        live = live[hit]
        U[live], F[live], fnorm[live] = u_try[pick], f_try[pick], fn_try[pick]
        # five trial rows per start: free them before the next Jacobian
        del u_try, f_try
    else:
        outcome[live[fnorm[live] < cfg.tol]] = CONVERGED
    return U, fnorm, outcome


def _unpack(u: np.ndarray, n: int, signs: Signs) -> tuple[Quadruple, float]:
    q = Quadruple(w=u[0:n], x=u[n:2 * n], y=u[2 * n:3 * n], z=u[3 * n:4 * n],
                  signs=signs)
    return q, float(u[4 * n])


def _trivial_patterns(V: np.ndarray) -> list:
    """:func:`trivial_pattern` for each row of vectors ``V`` (B, 4, n)."""
    def same(a, b):
        return ((np.abs(V[:, a] - V[:, b]).max(axis=1) < 1e-6)
                | (np.abs(V[:, a] + V[:, b]).max(axis=1) < 1e-6))

    wx, yz = same(0, 1), same(2, 3)
    labels = np.full(len(V), None, dtype=object)
    labels[yz] = "y=z"
    labels[wx] = "w=x"
    labels[wx & yz & same(0, 2)] = "all-equal"
    return labels.tolist()


def trivial_pattern(q: Quadruple) -> Optional[str]:
    """Classify the degenerate repeated-vector families, if any."""
    return _trivial_patterns(np.stack(q.vectors)[None])[0]


def _finish(cd: CurvatureData, U: np.ndarray, signs: list[Signs], seeds,
            origin: str = "multistart") -> list[SVPSolution]:
    """The reported solutions at converged rows ``(w, x, y, z, sigma)``.

    ``signs`` and ``seeds`` hold each row's sign pattern and start number.
    A negative sigma is flipped together with ``W``, which maps solutions to
    solutions, so the reported sigma is >= 0.
    """
    n = cd.n
    U = U.copy()
    U[np.ix_(U[:, 4 * n] < 0.0, np.r_[0:n, 4 * n])] *= -1.0
    res = np.abs(_residuals(cd, U, np.reshape(np.asarray(signs, dtype=float),
                                              (-1, 4)))).max(axis=1)
    trivial = _trivial_patterns(U[:, :4 * n].reshape(-1, 4, n))
    sols = []
    for u, r, row_signs, seed, label in zip(U, res, signs, seeds, trivial):
        q, sigma = _unpack(u, n, row_signs)
        sols.append(SVPSolution(q=q, sigma=sigma, residual=float(r),
                                origin=origin, seed=seed, trivial=label))
    return sols


def _solve_full(cd: CurvatureData, U: np.ndarray, signs, cfg: SolverConfig):
    """:func:`_gauss_newton` on the full system for a batch of starts.

    ``signs`` is one sign pattern or one per row.
    """
    signs = np.broadcast_to(np.asarray(signs, dtype=float), (len(U), 4))
    return _gauss_newton(
        lambda batch, idx: _residuals(cd, batch, signs[idx]),
        lambda batch: _jacobians(cd, batch), U, cfg)


def solve_newton(cd: CurvatureData, q0: Quadruple, sigma0: float,
                 cfg: SolverConfig) -> SVPSolution:
    """Damped least-squares Newton on the full residual system.

    The system has ``4n + 4`` equations in ``4n + 1`` unknowns but is
    consistent at genuine solutions, so the minimum-norm least-squares step
    converges to exact roots.  This is :func:`_gauss_newton` on a batch of
    one.  Raises :class:`NoConvergence` on a stall or at the iteration cap
    and :class:`SingularJacobian` when the linearization degenerates.
    """
    u = np.concatenate([q0.flat(), [sigma0]])
    if not np.all(np.isfinite(u)):
        raise InvalidInput("non-finite start")
    (u,), (fnorm,), (outcome,) = _solve_full(cd, u[None], q0.signs, cfg)
    if outcome == CONVERGED:
        return _finish(cd, u[None], [q0.signs], [None])[0]
    if outcome == SINGULAR:
        raise SingularJacobian("singular or non-finite Newton step")
    if outcome == STALLED:
        raise NoConvergence(f"stalled at residual {fnorm:.3e}")
    raise NoConvergence(f"no convergence after {cfg.max_newton_iters} iterations"
                        f" (residual {fnorm:.3e})")


# Largest block of draws the start sampler classifies at once; it bounds the
# sampler's memory whatever the rejection rate.
_BLOCK = 2048

# Draws the start sampler may spend per vector asked for, over the whole call.
_MAX_TRIES = 2000


def _sample_starts(rng: np.random.Generator, g: np.ndarray, signs,
                   count: int) -> tuple[np.ndarray, int]:
    """Up to ``count`` starts, one unit vector per sign each.

    Gaussian draws ``v`` are taken in stream order.  A draw that is not near
    null (``|<v, v>| >= 1e-6``) is rescaled onto ``<v, v> = +-1`` and fills
    the next open slot of its sign, start by start; any other draw is
    dropped.  The call spends at most ``_MAX_TRIES`` draws per vector asked
    for.  Returns the complete starts as rows ``(v_1, ..., v_len(signs))``
    and the number attempted, which counts one incomplete start when the
    draws ran out.  The draws come in growing blocks; the rows do not depend
    on the block size.
    """
    n = len(g)
    slots = {s: [i for i, t in enumerate(signs) if t == s] for s in set(signs)}
    need = {s: count * len(idx) for s, idx in slots.items()}
    kept = {s: [np.empty((0, n))] for s in slots}
    budget = _MAX_TRIES * count * len(signs)
    size = min(_BLOCK, 2 * count * len(signs))
    while budget and any(need.values()):
        V = rng.standard_normal((min(size, budget), n))
        budget -= len(V)
        # stacked, so each draw gets the products of ``float(v @ g @ v)``;
        # a single (size, n) @ (n, n) product can round differently
        qv = np.matmul(np.matmul(V[:, None, :], g), V[:, :, None])[:, 0, 0]
        for s in slots:
            hits = np.flatnonzero(s * qv >= 1e-6)[:need[s]]
            kept[s].append(V[hits] / np.sqrt(s * qv[hits])[:, None])
            need[s] -= len(hits)
        size = min(_BLOCK, 2 * size)
    kept = {s: np.concatenate(rows) for s, rows in kept.items()}
    starts = min(len(kept[s]) // len(idx) for s, idx in slots.items())
    out = np.empty((starts, len(signs), n))
    for s, idx in slots.items():
        out[:, idx] = kept[s][:starts * len(idx)].reshape(starts, len(idx), n)
    return out.reshape(starts, len(signs) * n), starts + (starts < count)


def _search(cd: CurvatureData, cfg: SolverConfig, patterns: list[Signs],
            pair: bool = False) -> list[SVPSolution]:
    """Sample the starts of every sign pattern and solve them as one batch.

    The patterns draw their starts in turn from one stream seeded with
    ``cfg.rng_seed``.  Starts are numbered from 1 in that order, and each
    pattern's numbers follow all the starts attempted before it.  With
    ``pair`` the unknowns are the pair ``(y, z)`` of the repeated-pair
    reduction ``(w, x, y, z) = (y, z, y, z)``, sampled with each pattern's
    first two signs.  Returns, in start order, the converged solutions whose
    full residual is below ``cfg.tol``; on the full system that is the norm
    the core converged on, so only reduced solutions can fail it.
    """
    n = cd.n
    rng = np.random.default_rng(cfg.rng_seed)
    blocks, signs, seeds = [], [], []
    start_index = 0
    for pattern in patterns:
        V, attempted = _sample_starts(rng, cd.g, pattern[:2 if pair else 4],
                                      cfg.n_starts)
        blocks.append(V)
        signs += [pattern] * len(V)
        seeds += range(start_index + 1, start_index + 1 + len(V))
        start_index += attempted
    V = np.concatenate(blocks)
    row_signs = np.reshape(np.asarray(signs, dtype=float), (-1, 4))
    if not pair:
        U, _, outcome = _solve_full(cd, np.column_stack([V, _sigmas(cd, V)]),
                                    row_signs, cfg)
    else:
        # the pair (y, z) is the full system at (y, z, y, z): its equations
        # are the first two tensor blocks and the first two constraints, and
        # its Jacobian sums the columns of the repeated vectors
        rows = np.r_[0:2 * n, 4 * n, 4 * n + 1]

        def embed(U):
            return np.concatenate([U[:, :2 * n], U], axis=1)

        def jac_fn(U):
            jac = _jacobians(cd, embed(U))[:, rows]
            return np.concatenate([jac[:, :, :2 * n] + jac[:, :, 2 * n:4 * n],
                                   jac[:, :, 4 * n:]], axis=2)

        U, _, outcome = _gauss_newton(
            lambda U, idx: _residuals(cd, embed(U), row_signs[idx])[:, rows],
            jac_fn, np.column_stack([V, _sigmas(cd, embed(V))]), cfg)
        U = embed(U)
    conv = np.flatnonzero(outcome == CONVERGED)
    sols = _finish(cd, U[conv], [signs[i] for i in conv],
                   [seeds[i] for i in conv],
                   origin="meigen" if pair else "multistart")
    return [sol for sol in sols if sol.residual < cfg.tol]


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
    clusters = _cluster(_search(cd, cfg, patterns))
    clusters = _ensure_trivial(clusters, cd, cfg, patterns)
    clusters.sort(key=lambda s: (s.sigma, s.seed if s.seed is not None else -1))
    return clusters


# Sigma values closer than this are one cluster.
_CLUSTER_EPS = 1e-7


def sigma_values(solutions) -> list[float]:
    """Distinct sigma values among solutions, merged within ``_CLUSTER_EPS``."""
    out: list[float] = []
    for s in sorted(sol.sigma for sol in solutions):
        if not out or abs(s - out[-1]) > _CLUSTER_EPS:
            out.append(s)
    return out


def _cluster(solutions: list[SVPSolution]) -> list[SVPSolution]:
    # Group by sigma value only.  Solution sets of the SVP are typically
    # continuous manifolds (the zero family always is), so grouping by
    # discrete orbit equivalence would splinter them into singletons.
    reps: list[SVPSolution] = []
    for sol in sorted(solutions, key=lambda s: s.sigma):
        merged = False
        for rep in reps:
            if abs(rep.sigma - sol.sigma) >= _CLUSTER_EPS:
                continue
            rep.count += 1
            if sol.residual < rep.residual:
                rep.q, rep.sigma = sol.q, sol.sigma
                rep.residual = sol.residual
                rep.seed = sol.seed
            rep.trivial = rep.trivial or sol.trivial
            merged = True
            break
        if not merged:
            reps.append(sol)
    return reps


def _ensure_trivial(clusters: list[SVPSolution], cd: CurvatureData,
                    cfg: SolverConfig, patterns: list[Signs]) -> list[SVPSolution]:
    if any(s.trivial for s in clusters):
        return clusters
    rng = np.random.default_rng(cfg.rng_seed + 1)
    for signs in patterns:
        if signs[0] != signs[1] or signs[2] != signs[3]:
            continue
        V, _ = _sample_starts(rng, cd.g, (signs[0], signs[2]), 1)
        if not len(V):
            continue
        v, u = V.reshape(2, cd.n)
        q = Quadruple(v, v.copy(), u, u.copy(), signs=signs)
        res = residual_norm(cd, q, 0.0)
        if res < cfg.tol * 10:
            clusters.append(SVPSolution(q=q, sigma=0.0, residual=res,
                                        origin="analytic",
                                        trivial=trivial_pattern(q)))
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


def orbit(sol: SVPSolution, cd: CurvatureData,
          tol: float = 1e-10) -> list[SVPSolution]:
    """All solutions generated from ``sol`` by the structural transforms.

    Emits the 16 per-vector sign patterns (sigma flips with the parity of
    the number of minus signs), the 7 vector swaps, and, when the pairs are
    orthogonal unit pairs of equal constraint sign, the 3 plane rotations
    by ``1/sqrt(2)``.  Sigma values are reported signed, before any
    non-negativity normalization.  Each member's residual stays below
    ``10 * tol``.
    """
    if sol.residual >= tol:
        raise InvalidInput(
            f"orbit requires a converged solution (residual {sol.residual:.3e} "
            f">= {tol:.1e})")
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
    res = np.abs(_residuals(cd, U, [quad.signs for quad, _ in members]))
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


# A sigma is zero at or below _ZERO_REL times the curvature scale at the point
# (algebra.curvature_scale), a window that holds at every scale of the metric.
_ZERO_REL = 1e-6


def check_proposition1(sol: SVPSolution, cd: CurvatureData) -> bool:
    """Nonzero-sigma solutions must have ``<W, X> = <Y, Z> = 0``; sigma is
    zero within ``_ZERO_REL`` of the curvature scale."""
    if abs(sol.sigma) <= _ZERO_REL * curvature_scale(cd):
        return True
    return (abs(inner(cd.g, sol.q.w, sol.q.x)) < 1e-8
            and abs(inner(cd.g, sol.q.y, sol.q.z)) < 1e-8)


# ---------------------------------------------------------------------------
# Reduced problems
# ---------------------------------------------------------------------------


def meigen_reduce(cd: CurvatureData, cfg: SolverConfig) -> list[SVPSolution]:
    """Solve the repeated-pair reduction ``W = Y``, ``X = Z``.

    The reduced system ``R(Y, Z) Z = sigma Y``, ``R(Z, Y) Y = sigma Z`` is
    solved by the same least-squares Newton machinery on ``2n + 1``
    unknowns; every converged pair embeds into a full solution, which is
    verified against the full residual before being returned.  For each
    sign pattern ``(p0, p1, ...)`` that :func:`multistart` would search, it
    solves ``(p0, p1, p0, p1)`` once, so a negative sign on a Riemannian
    metric raises :class:`WrongSignature` here too.
    """
    patterns = dict.fromkeys(p[:2] * 2 for p in _patterns(cd, cfg))
    clusters = _cluster(_search(cd, cfg, list(patterns), pair=True))
    clusters.sort(key=lambda s: (s.sigma, s.seed if s.seed is not None else -1))
    return clusters


@dataclass(frozen=True)
class MixedSignReport:
    """Result of the mixed-constraint-sign vanishing check."""

    pattern: Signs
    n_converged: int
    max_abs_sigma: float
    passed: bool


def lorentz_mixed_sign_check(cd: CurvatureData,
                             cfg: SolverConfig) -> MixedSignReport:
    """On a Lorentz metric, mixed constraint signs force ``sigma = 0``.

    Runs the multistart search with a mixed sign pattern (default
    ``(+, +, +, -)``) and reports the largest ``|sigma|`` among converged
    solutions; it passes below 1e-8.
    """
    if not cd.is_lorentz:
        raise WrongSignature("mixed-sign check needs a Lorentz metric "
                             f"(one negative sign), got {cd.signature}")
    pattern = parse_sign_pattern(cfg.sign_pattern)
    if pattern is None or len(set(pattern)) == 1:
        pattern = (1, 1, 1, -1)
    sub = replace(cfg, sign_pattern="".join("+" if s > 0 else "-"
                                            for s in pattern))
    sols = multistart(cd, sub)
    max_sigma = max((abs(s.sigma) for s in sols), default=0.0)
    return MixedSignReport(pattern=pattern, n_converged=len(sols),
                           max_abs_sigma=max_sigma,
                           passed=max_sigma < 1e-8)


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
    """Closed-form exterior solution of the static black-hole SVP.

    Under the reduction ansatz the system collapses to an eight-equation
    polynomial system in the ``(t, r)``-excluded plane; the branch living in
    the ``(r, theta)`` plane solves it with ``sigma = mass / r**3``:

        x = (0, sqrt(f/2), 1/(sqrt(2) r), 0),  y = x,
        w = (0, sqrt(f/2), -1/(sqrt(2) r), 0), z = w,

    where ``f = 1 - 2*mass/r``.  The returned quadruple satisfies the full
    four-dimensional residual to rounding accuracy, and the wedge-matrix
    determinant identity is verified on ``(y, z)``.
    """
    entry = _catalog_mod.schwarzschild(mass)
    point = as_point([0.0, r, theta, 0.0], 4)
    entry.check_point(point)
    return _schwarzschild_reduced(riemann(entry.spec, point), mass, r)


def _schwarzschild_reduced(cd: CurvatureData, mass: float,
                           r: float) -> SVPSolution:
    """:func:`schwarzschild_reduced_solve` on the curvature ``cd`` at an
    exterior point of radius ``r``."""
    f = 1.0 - 2.0 * mass / r
    p = math.sqrt(f / 2.0)
    qc = 1.0 / (math.sqrt(2.0) * r)
    x = np.array([0.0, p, qc, 0.0])
    w = np.array([0.0, p, -qc, 0.0])
    quad = Quadruple(w=w, x=x, y=x.copy(), z=w.copy(), signs=ALL_PLUS)
    sigma = mass / r ** 3
    res = residual_norm(cd, quad, sigma)
    if res > 1e-10:
        raise NoConvergence(f"reduced solution residual {res:.3e} too large")
    defect = wedge_det_defect(quad.y, quad.z)
    if defect > 1e-8:
        raise NoConvergence(f"wedge determinant identity defect {defect:.3e}")
    return SVPSolution(q=quad, sigma=sigma, residual=res,
                       origin="reduced-schwarzschild")


def kerr_reduced_solve(mass: float, spin: float, r: float,
                       theta: float) -> SVPSolution:
    """Special solution family of the rotating black-hole SVP.

    Works in the null-tetrad frame where only the middle Weyl scalar
    ``psi2`` survives.  Setting ``Z = X``, ``W = -Y`` with the component
    ansatz collapses the system to two scalar equations whose solution has

        sigma = |Re psi2| = sqrt((|I| + Re I) / 6),

    with ``I`` the quadratic Weyl invariant.  The tetrad components of the
    solution are attached; ``q`` holds the coordinate-basis vectors.
    """
    entry = _catalog_mod.kerr(mass, spin)
    point = as_point([0.0, r, theta, 0.0], 4)
    entry.check_point(point)
    return _kerr_reduced(riemann(entry.spec, point), entry.tetrad(point))


def _kerr_reduced(cd: CurvatureData, tetrad) -> SVPSolution:
    """:func:`kerr_reduced_solve` on the curvature ``cd`` and the null
    tetrad at a point of the exterior."""
    psis = np_scalars(cd, tetrad)
    re_psi2 = psis[2].real
    if re_psi2 <= 0:
        raise OutOfDomain("reduction requires Re(psi2) > 0, which holds on "
                          "the exterior domain")
    sigma = re_psi2

    # tetrad coefficients (l, n, m, mbar): x solves -2 x1 x2 = 2 x3 x4 = 1/2
    xc = np.array([0.5, -0.5, 0.5, 0.5])
    yc = np.array([0.5, -0.5, -0.5, -0.5])
    frame = np.stack([-yc, xc, yc, xc])  # rows: w, x, y, z

    basis = np.stack([np.asarray(tetrad.l, dtype=complex),
                      np.asarray(tetrad.n, dtype=complex),
                      np.asarray(tetrad.m, dtype=complex),
                      np.conj(np.asarray(tetrad.m, dtype=complex))])
    coords = frame.astype(complex) @ basis
    if np.abs(coords.imag).max() > 1e-12:
        raise NoConvergence("tetrad combination produced a non-real vector")
    vecs = coords.real
    quad = Quadruple(w=vecs[0], x=vecs[1], y=vecs[2], z=vecs[3],
                     signs=ALL_PLUS)
    res = residual_norm(cd, quad, sigma)
    return SVPSolution(q=quad, sigma=sigma, residual=res,
                       origin="reduced-kerr", tetrad_components=frame)


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
    """
    try:
        if case == "space-form":
            return abs(float(params["kappa"]))
        n = int(params["n"])
        if case in ("m-eigen", "ricci-pair", "einstein") and n < 3:
            raise BadCase(f"case '{case}' requires n >= 3")
        scal = float(params["ricci_scalar"])
        if case == "m-eigen":
            return (float(params["ricci_ww"]) + float(params["ricci_xx"])
                    - scal / (n - 1)) / (n - 2)
        if case == "ricci-pair":
            return (float(params["lam"]) + float(params["mu"])
                    - scal / (n - 1)) / (n - 2)
        if case == "einstein":
            return (2.0 * float(params["kappa"]) - scal / (n - 1)) / (n - 2)
    except KeyError as exc:
        raise BadCase(f"missing parameter {exc} for case '{case}'") from exc
    raise BadCase(f"unknown closed-form case '{case}'")
