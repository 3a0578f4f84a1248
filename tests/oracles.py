"""Independent brute-force oracles used to freeze expected test values.

Everything here is implemented with plain loops and naive finite
differences, deliberately sharing no code with the package under test.
The exceptions are :func:`sample_starts_one_draw`, which takes ``<v, v>``
from the package's stacked product, :func:`riemann_per_point`, the former
per-point numeric curvature path, and the former Newton core (the
functions after :func:`dot_ordered`), which repeat the package's numpy
operations, and make their contractions with :func:`dot`, the package's
former contraction kernel, so that results can be compared bit for bit.
"""

import math

import numpy as np

from riemsvp import svp
from riemsvp.errors import DifferentiationFailure, InvalidInput, SingularMetric


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


def riemann_per_point(spec, p, mode="auto"):
    """Curvature by nested per-point differentiation.

    The outer central differences call the Christoffel routine at each of
    the ``4n`` offset points, and each of those evaluates, checks and
    inverts the metric and probes complex-step support on its own: ``103``
    metric evaluations for a 4D complex-capable metric.  Raises the
    package's error types with its messages.  Returns ``(g_inv, gamma,
    riemann_mixed, riemann_lowered)``.
    """
    p = np.asarray(p, dtype=float)
    n = spec.dimension

    def metric_at(q):
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.asarray(spec.g(q), dtype=float)
        if g.shape != (n, n):
            raise InvalidInput("metric supplier returned a wrongly shaped matrix")
        if not np.all(np.isfinite(g)):
            raise SingularMetric(
                f"metric '{spec.id}' is not finite at {q.tolist()}")
        scale = float(np.abs(g).max()) ** n
        det = np.linalg.det(g)
        if not np.isfinite(det) or abs(det) <= 1e-14 * scale:
            raise SingularMetric(
                f"metric '{spec.id}' is singular at {q.tolist()} (det={det:.3e})")
        g_inv = np.linalg.inv(g)
        defect = np.abs(g @ g_inv - np.eye(n)).max()
        if defect > 1e-12 * max(1.0, np.abs(g).max() * np.abs(g_inv).max()):
            raise SingularMetric(
                f"metric '{spec.id}' is too ill-conditioned at {q.tolist()} "
                f"(inversion defect {defect:.3e})")
        return g, g_inv

    def supports_complex_step(q):
        try:
            zq = q.astype(complex)
            zq[0] += 1j * 1e-100
            gz = np.asarray(spec.g(zq))
        except Exception:
            return False
        return (np.iscomplexobj(gz) and gz.shape == (n, n)
                and bool(np.all(np.isfinite(gz))))

    def richardson_central(f, q, i, h):
        def central(step):
            up, dn = q.copy(), q.copy()
            up[i] += step
            dn[i] -= step
            return (f(up) - f(dn)) / (2.0 * step)

        coarse = central(h)
        fine = central(h / 2.0)
        return (4.0 * fine - coarse) / 3.0

    def metric_derivatives(q):
        dg = np.empty((n, n, n))
        if supports_complex_step(q):
            zp = q.astype(complex)
            for i in range(n):
                zq = zp.copy()
                zq[i] += 1j * 1e-100
                dg[i] = np.asarray(spec.g(zq)).imag / 1e-100
        else:
            for i in range(n):
                h = max(1e-5, 1e-5 * abs(q[i]))
                dg[i] = richardson_central(
                    lambda r: np.asarray(spec.g(r), dtype=float), q, i, h)
        if not np.all(np.isfinite(dg)):
            raise DifferentiationFailure(
                f"metric derivatives non-finite at {q.tolist()}")
        return dg

    def christoffel(q):
        _, g_inv = metric_at(q)
        dg = metric_derivatives(q)
        term = (np.einsum("imk->imk", dg) + np.einsum("kmi->imk", dg)
                - np.einsum("mik->imk", dg))
        return 0.5 * np.einsum("lm,imk->lik", g_inv, term)

    g, g_inv = metric_at(p)
    gamma = christoffel(p)
    if mode == "auto" and spec.analytic_riemann is not None:
        mixed = np.asarray(spec.analytic_riemann(p), dtype=float)
    else:
        dgamma = np.empty((n, n, n, n))
        for j in range(n):
            h = 1e-3 * max(1.0, abs(p[j]))
            dgamma[j] = richardson_central(christoffel, p, j, h)
        if not np.all(np.isfinite(dgamma)):
            raise DifferentiationFailure(
                f"Christoffel derivatives non-finite at {p.tolist()}")
        mixed = (np.einsum("iljk->lkij", dgamma)
                 - np.einsum("jlik->lkij", dgamma)
                 + np.einsum("hjk,lih->lkij", gamma, gamma)
                 - np.einsum("hik,ljh->lkij", gamma, gamma))
    lowered = np.einsum("ih,hjkl->ijkl", g, mixed)
    return g_inv, gamma, mixed, lowered


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
    V, sigma = svp._split(U, n)
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
    V, sigma = svp._split(U, n)
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
def gauss_newton_sequential(res_fn, jac_fn, U, cfg):
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
    for _ in range(cfg.max_newton_iters):
        done = fnorm[live] < cfg.tol
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
        outcome[live[fnorm[live] < cfg.tol]] = svp.CONVERGED
    return U, fnorm, outcome


def solve_full_reference(cd, U, signs, cfg):
    """:func:`gauss_newton_sequential` on the full system; ``signs`` is one
    sign pattern or one per row."""
    signs = np.broadcast_to(np.asarray(signs, dtype=float), (len(U), 4))
    return gauss_newton_sequential(
        lambda batch, idx: residuals_ordered(cd, batch, signs[idx]),
        lambda batch: jacobians_loop(cd, batch), U, cfg)


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
        jac_fn, U0, cfg)


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
