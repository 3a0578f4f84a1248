"""Independent brute-force oracles used to freeze expected test values.

Everything here is implemented with plain loops and naive finite
differences, deliberately sharing no code with the package under test.
The one exception is :func:`riemann_per_point`, the former per-point numeric
curvature path, which repeats the package's numpy operations so that results
can be compared bit for bit.
"""

import math

import numpy as np

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
    """Random starts drawn one Gaussian vector at a time.

    Each vector is the first draw ``v`` that is not near null
    (``|<v, v>| < 1e-6``) and has the requested sign, rescaled onto
    ``<v, v> = sign``; sampling stops at the first vector not found in
    ``max_tries`` draws, whose start still counts.  Returns the rows, one
    start each, and the number of starts attempted.
    """
    rows = []
    attempted = 0
    for _ in range(count):
        attempted += 1
        row = []
        for sign in signs:
            for _ in range(max_tries):
                v = rng.standard_normal(len(g))
                qv = float(v @ g @ v)
                if abs(qv) < 1e-6:
                    continue
                if sign * qv > 0:
                    row.append(v / math.sqrt(abs(qv)))
                    break
            else:
                break
        if len(row) < len(signs):
            break
        rows.append(np.concatenate(row))
    return np.array(rows).reshape(len(rows), len(signs) * len(g)), attempted


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
        scale = max(1.0, float(np.abs(g).max())) ** n
        det = np.linalg.det(g)
        if not np.isfinite(det) or abs(det) < 1e-14 * scale:
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
        if mode == "auto" and spec.analytic_gamma is not None:
            return np.asarray(spec.analytic_gamma(q), dtype=float)
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
