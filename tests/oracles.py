"""Independent brute-force oracles used to freeze expected test values.

Everything here is implemented with plain loops and naive finite
differences, deliberately sharing no code with the package under test.
The exceptions are :func:`sample_starts_one_draw`, which takes ``<v, v>``
from the package's stacked product, :func:`timelike_one_row`, which takes
``v`` from it, and the former Newton core (the functions after
:func:`dot_ordered`), which repeat the package's numpy operations, and
make their contractions with :func:`dot`, the package's former contraction
kernel, so that results can be compared bit for bit.
The former invariant kernels (:func:`weyl_einsum` and after) repeat the
package's per-term formulas, against which its whole-tensor kernels are
compared to rounding.  The former curvature kernels
(:func:`jet_riemann_reference` and :func:`christoffel_reference`) repeat the
package's numpy operations on its :class:`~riemsvp.geometry.Jet` values over
an ``(n + 1)``-stack of derivatives with every coordinate's zeros, so that
the varying-coordinate pass can be compared bit for bit.  The former cluster
path (:func:`clusters_reference`) builds and merges one solution per row,
as the package did before it took the rows in one sorted pass.
"""

import dataclasses
import math

import numpy as np

from riemsvp import svp
from riemsvp.errors import DifferentiationFailure
from riemsvp.geometry import Jet, metric_at


def fd_metric_derivatives(g_fn, p, h=1e-6):
    """First derivatives of the metric by plain central differences."""
    n = len(p)
    dg = np.zeros((n, n, n))
    for i in range(n):
        up, dn = p.copy(), p.copy()
        up[i] += h
        dn[i] -= h
        dg[i] = (np.asarray(g_fn(up)) - np.asarray(g_fn(dn))) / (2 * h)
    return dg


def christoffel_loops(g_fn, p, h=1e-6):
    """Levi-Civita connection from the textbook formula, all loops."""
    n = len(p)
    g = np.asarray(g_fn(p), dtype=float)
    g_inv = np.linalg.inv(g)
    dg = fd_metric_derivatives(g_fn, p, h)
    gamma = np.zeros((n, n, n))
    for l in range(n):
        for i in range(n):
            for k in range(n):
                s = 0.0
                for m in range(n):
                    s += g_inv[l, m] * (dg[i, m, k] + dg[k, m, i] - dg[m, i, k])
                gamma[l, i, k] = 0.5 * s
    return gamma


def riemann_mixed_loops(gamma_fn, p, h=1e-5):
    """Mixed curvature from finite differences of a Christoffel supplier.

    Index layout matches the package: ``out[l, k, i, j]`` multiplies
    ``partial_l`` in ``R(partial_i, partial_j) partial_k``.
    """
    n = len(p)
    gamma = gamma_fn(p)
    dgamma = np.zeros((n, n, n, n))
    for j in range(n):
        up, dn = p.copy(), p.copy()
        up[j] += h
        dn[j] -= h
        dgamma[j] = (gamma_fn(up) - gamma_fn(dn)) / (2 * h)
    out = np.zeros((n, n, n, n))
    for l in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    val = dgamma[i, l, j, k] - dgamma[j, l, i, k]
                    for hh in range(n):
                        val += (gamma[hh, j, k] * gamma[l, i, hh]
                                - gamma[hh, i, k] * gamma[l, j, hh])
                    out[l, k, i, j] = val
    return out


def lower_loops(g, mixed):
    n = g.shape[0]
    lowered = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    for m in range(n):
                        lowered[i, j, k, l] += g[i, m] * mixed[m, j, k, l]
    return lowered


def ricci_loops(g_inv, lowered):
    n = g_inv.shape[0]
    ric = np.zeros((n, n))
    for i in range(n):
        for k in range(n):
            for hh in range(n):
                for j in range(n):
                    ric[i, k] += g_inv[hh, j] * lowered[hh, i, j, k]
    return ric


def kretschmann_loops(g_inv, lowered):
    n = g_inv.shape[0]
    total = 0.0
    rng4 = range(n)
    for i in rng4:
        for j in rng4:
            for k in rng4:
                for l in rng4:
                    raised = 0.0
                    for a in rng4:
                        for b in rng4:
                            for c in rng4:
                                for d in rng4:
                                    raised += (g_inv[i, a] * g_inv[j, b]
                                               * g_inv[k, c] * g_inv[l, d]
                                               * lowered[a, b, c, d])
                    total += lowered[i, j, k, l] * raised
    return total


def max_defect(rep):
    """The worst of a symmetry report's four defects, NaN if any is NaN."""
    return float(np.max(dataclasses.astuple(rep)))


def svp_residual_loops(mixed, g, w, x, y, z, signs, sigma):
    """Componentwise residual of the full stationarity system, all loops."""
    n = len(w)

    def action(a, b, c):
        out = np.zeros(n)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        out[i] += mixed[i, j, k, l] * a[j] * b[k] * c[l]
        return out

    parts = [action(x, y, z) - sigma * w,
             action(w, z, y) - sigma * x,
             action(z, w, x) - sigma * y,
             action(y, x, w) - sigma * z]
    cons = [float(v @ g @ v) - s
            for v, s in zip((w, x, y, z), signs)]
    return np.concatenate(parts + [np.array(cons)])


def sample_starts_one_draw(rng, g, signs, count, max_tries=2000):
    """Random starts filled one Gaussian draw at a time.

    Walks the generator's stream in order.  Each draw ``v`` that is not near
    null (``|<v, v>| >= 1e-6``) is rescaled onto ``<v, v> = +-1`` and fills
    the next open slot of its sign, start by start; every other draw is
    dropped.  The walk stops when every slot is filled or after
    ``max_tries`` draws per vector asked for.  Returns the complete starts,
    one row each, and the number attempted: one more than complete when a
    slot stayed open.  The stream is drawn 1000 vectors at a time, and
    ``<v, v>`` is the package's stacked product, which rounds like
    ``float(v @ g @ v)``.
    """
    n, m = len(g), len(signs)
    open_slots = {s: [(k, i) for k in range(count) for i in range(m)
                      if signs[i] == s] for s in set(signs)}
    rows = np.empty((count, m, n))
    left, budget = count * m, max_tries * count * m
    while left and budget:
        V = rng.standard_normal((min(1000, budget), n))
        budget -= len(V)
        qv = np.matmul(np.matmul(V[:, None, :], g), V[:, :, None])[:, 0, 0]
        # a draw whose sign has no open slot left is dropped unread
        live = [s for s, slots in open_slots.items() if slots]
        for k in np.flatnonzero(np.isin(np.sign(qv), live)).tolist():
            q = float(qv[k])
            slots = open_slots[1 if q > 0 else -1]
            if abs(q) >= 1e-6 and slots:
                rows[slots.pop(0)] = V[k] / math.sqrt(abs(q))
                left -= 1
                if not left:
                    break
    starts = min(slots[0][0] if slots else count
                 for slots in open_slots.values())
    return rows[:starts].reshape(starts, m * n), starts + (starts < count)


def timelike_one_row(rng, g, count):
    """``count`` vectors with ``<v, v> = -1``, drawn one row at a time in
    g's orthonormal eigenframe; ``None`` when g has no negative eigenvalue.

    With ``g = Q diag(lam) Q^T``, row k is the generator's k-th draw ``c``
    of n standard normals.  The entries of ``c`` on the negative
    eigenvalues are scaled so that their squares sum to one more than the
    other entries' squares, ``v = Q diag(|lam|^-1/2) c``, and ``v`` is
    rescaled by its measured ``<v, v>``.  The sums run left to right, and
    ``v`` and ``<v, v>`` are the package's stacked products.
    """
    lam, Q = np.linalg.eigh(g)
    n = len(g)
    neg = [i for i in range(n) if lam[i] < 0.0]
    if not neg:
        return None
    frame = Q / np.sqrt(np.abs(lam))
    rows = np.empty((count, n))
    for k in range(count):
        c = rng.standard_normal(n).tolist()
        pos_sq = sum(c[i] * c[i] for i in range(n) if i not in neg)
        neg_sq = sum(c[i] * c[i] for i in neg)
        scale = math.sqrt((1.0 + pos_sq) / neg_sq)
        u = np.array([c[i] * scale if i in neg else c[i] for i in range(n)])
        v = svp._matvec(frame, u[None])[0]
        q = float(np.matmul(np.matmul(v[None, None, :], g),
                            v[None, :, None])[0, 0, 0])
        rows[k] = v / math.sqrt(-q)
    return rows


def sample_starts_frame(rng, g, signs, count):
    """Random starts whose ``+`` slots are :func:`sample_starts_one_draw` on
    the ``+`` signs alone and whose ``-`` slots are :func:`timelike_one_row`
    rows, in start order, from a child generator jumped from ``rng`` before
    any draw.  Returns the complete starts and the number attempted."""
    n = len(g)
    child = np.random.Generator(rng.bit_generator.jumped())
    plus = [i for i, s in enumerate(signs) if s > 0]
    minus = [i for i, s in enumerate(signs) if s < 0]
    rows = np.empty((count, len(signs), n))
    starts = count
    timelike = timelike_one_row(child, g, count * len(minus))
    if timelike is None:
        starts = 0
    else:
        rows[:, minus] = timelike.reshape(count, len(minus), n)
    if plus:
        ref, _ = sample_starts_one_draw(rng, g, [1] * len(plus), count)
        starts = min(starts, len(ref))
        rows[:starts, plus] = ref[:starts].reshape(starts, len(plus), n)
    return (rows[:starts].reshape(starts, len(signs) * n),
            starts + (starts < count))


def dot_ordered(a, vecs, axis=-1):
    """Contract ``axis`` of ``a`` with a batch of vectors, term by term.

    ``axis`` trades places with the last one; the leading axes of ``a`` are
    the batch axes of ``vecs`` or of length one.  The products are summed in
    index order over the broadcast arrays: the accuracy reference for
    ``svp._matvec``.
    """
    a = a.swapaxes(axis, -1)
    v = vecs.reshape(vecs.shape[:-1] + (1,) * (a.ndim - vecs.ndim)
                     + vecs.shape[-1:])
    acc = a[..., 0] * v[..., 0]
    for i in range(1, a.shape[-1]):
        acc += a[..., i] * v[..., i]
    return acc


def dot(a: np.ndarray, vecs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Contract ``axis`` of ``a`` with a batch of vectors ``vecs``.

    The leading axes of ``a`` are the batch axes of ``vecs`` (or length
    one, for a tensor every row shares); ``axis`` trades places with the
    last one.  The contraction is one stacked ``numpy.matmul`` in which each
    row is its own matrix-vector product, so an entry is computed the same
    way whatever batch it sits in.
    """
    a = a.swapaxes(axis, -1)
    batch, n = vecs.shape[:-1], vecs.shape[-1]
    lead, rest = a.shape[:len(batch)], a.shape[len(batch):-1]
    out = np.matmul(a.reshape(lead + (math.prod(rest), n)), vecs[..., None])
    return out.reshape(np.broadcast_shapes(lead, batch) + rest)


def residuals_ordered(cd, U, signs):
    """The SVP residual at the rows of ``U``, contracted by :func:`dot`.

    Equation ``e`` contracts the curvature's plane pair with the bivector
    ``q ^ s`` over the pairs ``i < j`` of ``numpy.triu_indices``, then the
    result with ``p``.
    """
    n = cd.n
    V, sigma = U[:, :4 * n].reshape(len(U), 4, n), U[:, 4 * n]
    i, j = np.triu_indices(n, 1)
    q, s = V[:, svp._Q], V[:, svp._S]
    plane = q[..., i] * s[..., j] - q[..., j] * s[..., i]
    r = cd.riemann_mixed[:, :, i, j][None, None]
    maps = dot(dot(r, plane), V[:, svp._P])
    tensor = (maps - sigma[:, None, None] * V).reshape(len(U), 4 * n)
    cons = (dot(dot(cd.g[None, None], V), V)
            - np.asarray(signs, dtype=float))
    return np.concatenate([tensor, cons], axis=1)


def sigmas_ordered(cd, V):
    """``R(W, X, Y, Z)`` at each row ``(w, x, y, z)`` of ``V``, contracted by
    :func:`dot`."""
    w, x, y, z = V.reshape(len(V), 4, cd.n).transpose(1, 0, 2)
    return dot(dot(dot(dot(
        cd.riemann_lowered[None], z), y), x), w)


def jacobians_loop(cd, U):
    """Jacobians of the SVP residual at the rows of ``U``, block by block.

    Recomputes every contraction with :func:`dot` and fills the matrix with
    one slice assignment per equation and vector slot.
    """
    n = cd.n
    V, sigma = U[:, :4 * n].reshape(len(U), 4, n), U[:, 4 * n]
    r = cd.riemann_mixed[None, None]
    p, q, s = V[:, svp._P], V[:, svp._Q], V[:, svp._S]
    rs = dot(r, s)
    d_p = dot(rs, q)
    d_q = dot(rs, p, axis=-2)
    d_s = dot(dot(r, p, axis=3), q)
    gv = dot(cd.g[None, None], V)
    jac = np.zeros((len(U), 4 * n + 4, 4 * n + 1))
    diag = np.arange(n)
    for e in range(4):
        rows = jac[:, e * n:(e + 1) * n]
        for slot, block in ((svp._P[e], d_p), (svp._Q[e], d_q),
                            (svp._S[e], d_s)):
            rows[:, :, slot * n:(slot + 1) * n] = block[:, e]
        rows[:, diag, e * n + diag] = -sigma[:, None]
        rows[:, :, 4 * n] = -V[:, e]
        jac[:, 4 * n + e, e * n:(e + 1) * n] = 2.0 * gv[:, e]
    return jac


@np.errstate(over="ignore", invalid="ignore")
def gauss_newton_sequential(res_fn, jac_fn, U):
    """Damped least-squares Newton on a batch of starts, one length at a time.

    ``res_fn(points, idx)`` returns residuals only and ``jac_fn(points)``
    recomputes the Jacobians from the points.  Each iteration tries the
    lengths of the ladder in turn, one residual call each, on the starts no
    earlier length improved.  Returns points, residual norms and outcomes.
    """
    U = np.array(U, dtype=float)
    F = res_fn(U, np.arange(len(U)))
    fnorm = np.abs(F).max(axis=1)
    outcome = np.full(len(U), svp.CAPPED, dtype=object)
    live = np.arange(len(U))
    for _ in range(svp._MAX_NEWTON_ITERS):
        done = fnorm[live] < svp._NEWTON_TOL
        outcome[live[done]] = svp.CONVERGED
        live = live[~done]
        if not live.size:
            break
        step = svp._lstsq_steps(jac_fn(U[live]), -F[live])
        finite = np.isfinite(step).all(axis=1)
        outcome[live[~finite]] = svp.SINGULAR
        live, step = live[finite], step[finite]
        todo = np.arange(len(live))
        for t in svp._STEPS:
            if not todo.size:
                break
            idx = live[todo]
            u_try = U[idx] + t * step[todo]
            f_try = res_fn(u_try, idx)
            fn_try = np.abs(f_try).max(axis=1)
            better = fn_try < fnorm[idx]
            took = idx[better]
            U[took], F[took], fnorm[took] = (u_try[better], f_try[better],
                                             fn_try[better])
            todo = todo[~better]
        outcome[live[todo]] = svp.STALLED
        live = np.delete(live, todo)
    else:
        outcome[live[fnorm[live] < svp._NEWTON_TOL]] = svp.CONVERGED
    return U, fnorm, outcome


def solve_full_reference(cd, U, signs):
    """:func:`gauss_newton_sequential` on the full system; ``signs`` is one
    sign pattern or one per row."""
    signs = np.broadcast_to(np.asarray(signs, dtype=float), (len(U), 4))
    return gauss_newton_sequential(
        lambda batch, idx: residuals_ordered(cd, batch, signs[idx]),
        lambda batch: jacobians_loop(cd, batch), U)


def search_reference(cd, cfg, patterns, pair=False):
    """The starts of a multistart or pair search and how the core ends them.

    Samples like the package's search and solves with
    :func:`gauss_newton_sequential`.  Returns the starts, final points,
    residual norms and outcomes.
    """
    n = cd.n
    rng = np.random.default_rng(cfg.rng_seed)
    blocks, signs = [], []
    for pattern in patterns:
        V, _ = svp._sample_starts(rng, cd.g, pattern[:2 if pair else 4],
                                  cfg.n_starts)
        blocks.append(V)
        signs += [pattern] * len(V)
    V = np.concatenate(blocks)
    row_signs = np.reshape(np.asarray(signs, dtype=float), (-1, 4))
    if pair:
        rows = np.r_[0:2 * n, 4 * n, 4 * n + 1]

        def embed(U):
            return np.concatenate([U[:, :2 * n], U], axis=1)

        def jac_fn(U):
            jac = jacobians_loop(cd, embed(U))[:, rows]
            return np.concatenate([jac[:, :, :2 * n] + jac[:, :, 2 * n:4 * n],
                                   jac[:, :, 4 * n:]], axis=2)
    else:
        rows = slice(None)

        def embed(U):
            return U

        def jac_fn(U):
            return jacobians_loop(cd, U)

    U0 = np.column_stack([V, sigmas_ordered(cd, embed(V))])
    return (U0,) + gauss_newton_sequential(
        lambda U, idx: residuals_ordered(cd, embed(U), row_signs[idx])[:, rows],
        jac_fn, U0)


def trivial_pattern_per_row(q, atol=1e-6):
    """The repeated-vector family of one quadruple, by per-pair checks."""
    w, x, y, z = q.vectors

    def same(a, b):
        return bool(np.abs(a - b).max() < atol or np.abs(a + b).max() < atol)

    if same(w, x) and same(y, z) and same(w, y):
        return "all-equal"
    if same(w, x):
        return "w=x"
    if same(y, z):
        return "y=z"
    return None


def weyl_einsum(g, ric, scal, lowered):
    """The Weyl split with one ``einsum`` per outer product of the trace
    terms, the package's former kernel."""
    n = g.shape[0]
    trace_part = (np.einsum("il,jk->ijkl", ric, g)
                  - np.einsum("ik,jl->ijkl", ric, g)
                  + np.einsum("il,jk->ijkl", g, ric)
                  - np.einsum("ik,jl->ijkl", g, ric)) / (n - 2)
    scalar_part = (np.einsum("il,jk->ijkl", g, g)
                   - np.einsum("ik,jl->ijkl", g, g)) * (scal / ((n - 1) * (n - 2)))
    return lowered + trace_part - scalar_part


def tetrad_defect_products(tetrad, g):
    """The seven tetrad inner-product conditions as chained products, each
    over the chained product of the absolute values (the size of the terms
    it sums), and 0 where the condition holds exactly."""
    lv = np.asarray(tetrad.l, dtype=float)
    nv = np.asarray(tetrad.n, dtype=float)
    mv = np.asarray(tetrad.m, dtype=complex)
    mb = np.conj(mv)
    checks = [(lv, lv, 0.0), (nv, nv, 0.0), (lv, nv, -1.0), (mv, mv, 0.0),
              (mv, mb, 1.0), (lv, mv, 0.0), (nv, mv, 0.0)]
    worst = 0.0
    for u, v, want in checks:
        off = abs(complex(u @ g @ v) - want)
        if off:
            worst = max(worst, off / float(np.abs(u) @ np.abs(g) @ np.abs(v)))
    return worst


def np_scalars_contractions(c, tetrad):
    """psi0 ... psi4 as five-operand contractions of the Weyl tensor ``c``
    with tetrad vectors, the package's former kernel."""
    lv = np.asarray(tetrad.l, dtype=complex)
    nv = np.asarray(tetrad.n, dtype=complex)
    mv = np.asarray(tetrad.m, dtype=complex)
    mb = np.conj(mv)
    c = c.astype(complex)

    def contract(a, b, u, v):
        return -complex(np.einsum("ijkl,i,j,k,l->", c, a, b, u, v))

    return (contract(lv, mv, lv, mv), contract(lv, nv, lv, mv),
            contract(lv, mv, mb, nv), contract(lv, nv, mb, nv),
            contract(mb, nv, mb, nv))


def _metric_jets_reference(g, p, coords):
    """``g`` at ``p`` and ``D`` with ``D[0, j] = d_j g`` and ``D[1 + i, j] =
    d_i d_j g`` over every coordinate, zeros off ``coords``: the package's
    former layout."""
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
    c, D = np.array(coords, dtype=int), np.zeros((n + 1, n, n, n))
    D[0, c] = C[..., 1:k + 1].transpose(2, 0, 1)
    D[1 + c[:, None], c] = C[..., k + 1:].reshape(n, n, k, k).transpose(2, 3, 0, 1)
    return C[..., 0], D


def _christoffel_reference(G_inv, dg):
    """Christoffel symbols for stacked inverses ``G_inv[r]`` and derivatives
    ``dg[r]``."""
    term = dg + dg.transpose(0, 3, 2, 1) - dg.transpose(0, 2, 1, 3)
    return 0.5 * np.einsum("rlm,rimk->rlik", G_inv, term)


def jet_riemann_reference(g, p, coords):
    """``riemann_mixed`` from the ``(n + 1)``-stack with four ``einsum``
    terms, the package's former kernel."""
    n = len(p)
    G, D = _metric_jets_reference(g, p, coords)
    with np.errstate(all="ignore"):
        g_inv = np.linalg.inv(G)
        gammas = _christoffel_reference(np.broadcast_to(g_inv, (n + 1, n, n)), D)
        dg_gamma = g_inv @ (D[0] @ gammas[0].reshape(n, n * n))
        gamma, dgamma = gammas[0], gammas[1:] - dg_gamma.reshape((n,) * 4)
        if not np.all(np.isfinite(dgamma)):
            raise DifferentiationFailure(
                f"Christoffel derivatives non-finite at {p.tolist()}")
        return (np.einsum("iljk->lkij", dgamma) - np.einsum("jlik->lkij", dgamma)
                + np.einsum("hjk,lih->lkij", gamma, gamma)
                - np.einsum("hik,ljh->lkij", gamma, gamma))


def christoffel_reference(spec, p):
    """Christoffel symbols from :func:`metric_at`'s inverse and the first
    stack of the former layout, the package's former kernel."""
    p = np.asarray(p, dtype=float)
    g_inv = metric_at(spec, p)[1]
    dg = _metric_jets_reference(spec.g, p, spec.varying)[1][:1]
    with np.errstate(all="ignore"):
        return _christoffel_reference(g_inv[None], dg)[0]


def clusters_reference(cd, U, signs, seeds, origin, tol):
    """The former cluster path: one solution per converged row, the
    residual filter, the first-match merge over every cluster so far, and
    the final sort by ``(sigma, seed)``."""
    n = cd.n
    U = U.copy()
    U[np.ix_(U[:, 4 * n] < 0.0, np.r_[0:n, 4 * n])] *= -1.0
    res = np.abs(svp._system(cd).residuals(
        U, np.reshape(np.asarray(signs, dtype=float), (-1, 4)))).max(axis=1)
    trivial = svp._trivial_patterns(U[:, :4 * n].reshape(-1, 4, n))
    sols = []
    for u, r, row_signs, seed, label in zip(U, res, signs, seeds, trivial):
        q = svp.Quadruple(u[:n], u[n:2 * n], u[2 * n:3 * n], u[3 * n:4 * n],
                          row_signs)
        sols.append(svp.SVPSolution(q=q, sigma=float(u[4 * n]),
                                    residual=float(r), origin=origin,
                                    seed=seed, trivial=label))
    sols = [sol for sol in sols if sol.residual < tol]
    reps = []
    for sol in sorted(sols, key=lambda s: s.sigma):
        merged = False
        for rep in reps:
            if abs(rep.sigma - sol.sigma) >= svp._CLUSTER_EPS:
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
    reps.sort(key=lambda s: (s.sigma, s.seed if s.seed is not None else -1))
    return reps
