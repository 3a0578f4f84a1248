import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from riemsvp import catalog
from riemsvp.algebra import inner, invariant_i, np_scalars
from riemsvp.errors import (BadCase, InvalidInput, OutOfDomain,
                            WrongSignature)
from riemsvp.geometry import CurvatureData, riemann
from riemsvp.svp import (ALL_PLUS, Quadruple, SolverConfig, SVPSolution,
                         check_proposition1, closed_form_sigma,
                         feasible_patterns, kerr_reduced_solve,
                         lorentz_mixed_sign_check, meigen_reduce, multistart,
                         orbit, orbit_size, parse_sign_pattern, residual,
                         residual_norm, schwarzschild_reduced_solve,
                         sigma_from_tensor, sigma_values, solve_newton,
                         trivial_pattern, wedge_det_defect, wedge_matrix)

import oracles


def sphere_cd(theta=math.pi / 3):
    return riemann(catalog.sphere2().spec, [theta, 0.0])


def sphere_solution(theta=math.pi / 3):
    """The closed-form round-sphere solution with sigma = 1."""
    w = np.array([0.0, 1.0 / math.sin(theta)])
    x = np.array([1.0, 0.0])
    return Quadruple(w=w, x=x, y=w.copy(), z=x.copy())


class TestResidual:
    def test_sphere_solution_is_exact(self):
        cd = sphere_cd()
        res = residual(cd, sphere_solution(), 1.0)
        assert len(res) == 4 * 2 + 4
        assert np.abs(res).max() < 1e-14

    def test_matches_loop_oracle(self):
        cd = riemann(catalog.schwarzschild(1.0).spec, [0.0, 3.0, 1.0, 0.0])
        rng = np.random.default_rng(3)
        q = Quadruple(*(rng.standard_normal(4) for _ in range(4)))
        got = residual(cd, q, 0.37)
        want = oracles.svp_residual_loops(cd.riemann_mixed, cd.g,
                                          q.w, q.x, q.y, q.z, q.signs, 0.37)
        assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("case", ["dense n=2", "dense n=3", "dense n=4",
                                      "kerr numeric"])
    def test_matches_loop_oracle_on_dense_tensors(self, case):
        # every contraction sum has n terms here; the numeric Kerr plane
        # pair is antisymmetric only to rounding.  The scale is the tensor
        # block's, which the constraints would otherwise swamp.
        cd = kerr_cd() if case == "kerr numeric" else dense_cd(int(case[-1]))
        rng = np.random.default_rng(cd.n)
        q = Quadruple(*(rng.standard_normal(cd.n) for _ in range(4)))
        got = residual(cd, q, 0.37)
        want = oracles.svp_residual_loops(cd.riemann_mixed, cd.g,
                                          q.w, q.x, q.y, q.z, q.signs, 0.37)
        scale = np.abs(want[:4 * cd.n]).max()
        assert np.abs(got - want).max() <= 1e-12 * scale

    def test_repeated_vector_zero_families(self):
        # (V, V, V, V, 0) and (V, V, U, U, 0) solve for any curvature
        for entry in (catalog.sphere2(), catalog.schwarzschild(1.0)):
            cd = riemann(entry.spec, entry.default_point)
            rng = np.random.default_rng(1)
            n = cd.n
            v = rng.standard_normal(n)
            v /= math.sqrt(abs(inner(cd.g, v, v)))
            u = rng.standard_normal(n)
            u /= math.sqrt(abs(inner(cd.g, u, u)))
            signs = (1, 1, 1, 1)
            quad = Quadruple(v, v.copy(), v.copy(), v.copy(), signs)
            assert residual_norm(cd, quad, 0.0) < 1e-12
            quad2 = Quadruple(v, v.copy(), u, u.copy(), signs)
            assert residual_norm(cd, quad2, 0.0) < 1e-12

    def test_flat_metric_any_quadruple(self):
        cd = riemann(catalog.euclidean(3).spec, np.zeros(3))
        rng = np.random.default_rng(5)
        vecs = [rng.standard_normal(3) for _ in range(4)]
        vecs = [v / np.linalg.norm(v) for v in vecs]
        assert residual_norm(cd, Quadruple(*vecs), 0.0) < 1e-14

    def test_affine_in_sigma(self):
        # shifting sigma at the equator solution shifts the norm by exactly
        # the unit-vector magnitude
        cd = sphere_cd(math.pi / 2)
        q = sphere_solution(math.pi / 2)
        assert residual_norm(cd, q, 0.9) == pytest.approx(0.1, abs=1e-13)

    def test_jacobian_matches_finite_differences(self):
        from riemsvp.svp import _jacobian

        cd = riemann(catalog.space_form(0.8, 3).spec, np.zeros(3))
        rng = np.random.default_rng(11)
        n = 3
        q = Quadruple(*(rng.standard_normal(n) for _ in range(4)))
        sigma = 0.3
        jac = _jacobian(cd, q, sigma)
        u0 = np.concatenate([q.flat(), [sigma]])
        eps = 1e-7
        for col in range(4 * n + 1):
            up, dn = u0.copy(), u0.copy()
            up[col] += eps
            dn[col] -= eps

            def val(u):
                quad = Quadruple(u[0:n], u[n:2 * n], u[2 * n:3 * n],
                                 u[3 * n:4 * n], q.signs)
                return residual(cd, quad, float(u[4 * n]))

            fd = (val(up) - val(dn)) / (2 * eps)
            assert np.abs(jac[:, col] - fd).max() < 1e-6


class TestSolveNewton:
    def test_converges_from_noisy_start(self):
        cd = sphere_cd()
        q = sphere_solution()
        rng = np.random.default_rng(0)
        noisy = Quadruple(*(v + 1e-3 * rng.standard_normal(2)
                            for v in q.vectors))
        sol = solve_newton(cd, noisy, sigma_from_tensor(cd, noisy),
                           SolverConfig())
        assert abs(sol.sigma - 1.0) < 1e-11
        assert sol.residual < 1e-11

    def test_exact_trivial_start_returns_immediately(self):
        cd = sphere_cd()
        v = np.array([1.0, 0.0])
        quad = Quadruple(v, v.copy(), v.copy(), v.copy())
        sol = solve_newton(cd, quad, 0.0, SolverConfig(max_newton_iters=1))
        assert sol.sigma == 0.0
        assert sol.trivial == "all-equal"

    def test_space_form_sigma_set(self):
        cd = riemann(catalog.space_form(2.0, 3).spec, np.zeros(3))
        cfg = SolverConfig(n_starts=40, rng_seed=9)
        sols = multistart(cd, cfg)
        values = sigma_values(sols)
        assert all(min(abs(v - 0.0), abs(v - 2.0)) < 1e-9 for v in values)
        assert any(abs(v - 2.0) < 1e-9 for v in values)

    def test_sigma_reported_nonnegative(self):
        cd = sphere_cd()
        cfg = SolverConfig(n_starts=30, rng_seed=4)
        for sol in multistart(cd, cfg):
            assert sol.sigma >= 0.0


def core_starts(cd, signs, count, seed=0):
    """Multistart's first batch of starts for one sign pattern."""
    from riemsvp.svp import _sample_starts, _sigmas

    V, _ = _sample_starts(np.random.default_rng(seed), cd.g, signs, count)
    return np.column_stack([V, _sigmas(cd, V)])


CORE_CASES = {
    "sphere2": lambda: sphere_cd(),
    "space-form n=4": lambda: riemann(catalog.space_form(2.0, 4).spec,
                                      np.zeros(4)),
    "schwarzschild r=3": lambda: riemann(catalog.schwarzschild(1.0).spec,
                                         [0.0, 3.0, math.pi / 4, 0.0]),
}


class TestBatchedCore:
    @pytest.mark.parametrize("case", sorted(CORE_CASES))
    def test_outcome_independent_of_batch(self, case):
        from riemsvp.svp import _solve_full

        cd = CORE_CASES[case]()
        U0 = core_starts(cd, ALL_PLUS, 200)
        cfg = SolverConfig()
        U, _, out = _solve_full(cd, U0, ALL_PLUS, cfg)
        halves = [_solve_full(cd, part, ALL_PLUS, cfg)
                  for part in (U0[:73], U0[73:])]
        singles = [_solve_full(cd, U0[i:i + 1], ALL_PLUS, cfg)
                   for i in range(len(U0))]
        for split in (halves, singles):
            assert np.array_equal(np.concatenate([r[0] for r in split]), U)
            assert list(np.concatenate([r[2] for r in split])) == list(out)
        assert "converged" in set(out)

    def test_mixed_patterns_match_each_pattern_alone(self, monkeypatch):
        from riemsvp import svp
        from riemsvp.svp import _solve_full

        cd = CORE_CASES["schwarzschild r=3"]()
        patterns = feasible_patterns(cd)
        assert len(patterns) == 16
        parts = [core_starts(cd, signs, 8, seed=i)
                 for i, signs in enumerate(patterns)]
        assert all(len(part) == 8 for part in parts)
        row_signs = [signs for signs in patterns for _ in range(8)]
        cfg = SolverConfig()
        U, _, out = _solve_full(cd, np.concatenate(parts), row_signs, cfg)
        alone = [_solve_full(cd, part, signs, cfg)
                 for part, signs in zip(parts, patterns)]
        assert np.array_equal(np.concatenate([r[0] for r in alone]), U)
        assert list(np.concatenate([r[2] for r in alone])) == list(out)
        assert "converged" in set(out)
        # a batch over the core's size limit is solved in slices
        monkeypatch.setattr(svp, "_MAX_BATCH", 7)
        U_sliced, _, out_sliced = _solve_full(cd, np.concatenate(parts),
                                              row_signs, cfg)
        assert np.array_equal(U_sliced, U)
        assert list(out_sliced) == list(out)

    def test_anchor_yield(self):
        cd = CORE_CASES["schwarzschild r=3"]()
        sols = multistart(cd, SolverConfig(n_starts=200, rng_seed=0))
        assert sum(s.count for s in sols if s.origin == "multistart") >= 52
        assert sigma_values(sols) == pytest.approx(
            [0.0, 1.0 / 27.0, 2.0 / 27.0], abs=1e-10)

    def test_non_finite_start_is_singular_alone(self):
        from riemsvp.svp import _solve_full

        cd = sphere_cd()
        U0 = core_starts(cd, ALL_PLUS, 30)
        bad = U0.copy()
        bad[5, 2] = np.inf
        cfg = SolverConfig()
        U, _, out = _solve_full(cd, U0, ALL_PLUS, cfg)
        U_bad, _, out_bad = _solve_full(cd, bad, ALL_PLUS, cfg)
        assert out_bad[5] == "singular"
        rest = np.arange(len(U0)) != 5
        assert np.array_equal(U_bad[rest], U[rest])
        assert list(out_bad[rest]) == list(out[rest])
        assert "converged" in set(out_bad[rest])

    def test_svd_failure_falls_back_per_start(self, monkeypatch):
        from riemsvp.svp import _solve_full

        cd = sphere_cd()
        U0 = core_starts(cd, ALL_PLUS, 30)
        cfg = SolverConfig()
        U, _, out = _solve_full(cd, U0, ALL_PLUS, cfg)
        real_svd = np.linalg.svd
        svd_calls = []

        def stacked_fails(a, **kwargs):
            svd_calls.append(len(a))
            if len(a) > 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(a, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", stacked_fails)
        U_fb, _, out_fb = _solve_full(cd, U0, ALL_PLUS, cfg)
        assert np.array_equal(U_fb, U) and list(out_fb) == list(out)
        # the rank-deficient steps near the sphere's solution families
        # reach the SVD, stacked and then one system at a time
        assert any(k > 1 for k in svd_calls) and 1 in svd_calls

        def always_fails(a, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", always_fails)
        _, _, out_all = _solve_full(cd, U0, ALL_PLUS, cfg)
        assert set(out_all) <= {"singular", "converged"}
        assert "singular" in set(out_all)


def converged_systems(cd):
    """Jacobians and right-hand sides at converged multistart solutions."""
    from riemsvp.svp import _jacobian

    sols = multistart(cd, SolverConfig(n_starts=40, rng_seed=0))
    jac = np.array([_jacobian(cd, s.q, s.sigma) for s in sols])
    rhs = np.array([-residual(cd, s.q, s.sigma) for s in sols])
    return jac, rhs


class TestLeastSquaresStep:
    @pytest.mark.parametrize("shape", [(20, 17), (16, 13), (12, 9)])
    def test_full_rank_matches_lstsq(self, shape):
        from riemsvp.svp import _lstsq_steps

        rng = np.random.default_rng(sum(shape))
        jac = rng.standard_normal((50,) + shape)
        rhs = rng.standard_normal((50, shape[0]))
        steps = _lstsq_steps(jac, rhs)
        for a, b, x in zip(jac, rhs, steps):
            want = np.linalg.lstsq(a, b, rcond=None)[0]
            assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("case", ["sphere2", "space-form n=4"])
    def test_rank_deficient_takes_svd_path(self, case):
        from riemsvp.svp import _QR_RANK_TOL, _lstsq_steps, _svd_solve

        jac, rhs = converged_systems(CORE_CASES[case]())
        diag = np.abs(np.diagonal(np.linalg.qr(jac, mode="r"), axis1=1,
                                  axis2=2))
        assert (diag.min(axis=1) <= _QR_RANK_TOL * diag.max(axis=1)).all()
        assert np.array_equal(_lstsq_steps(jac, rhs), _svd_solve(jac, rhs))

    @pytest.mark.parametrize("cond", [1e2, 1e5, 1e7])
    @pytest.mark.parametrize("shape", [(20, 17), (16, 13), (12, 9)])
    def test_consistent_system_accuracy(self, shape, cond):
        from riemsvp.svp import _lstsq_steps

        # J = U diag(s) V^T with orthonormal U, V: its condition number is
        # cond, and b = J x* is consistent, so the step is x*
        m, k = shape
        rng = np.random.default_rng(m * k)
        u = np.linalg.qr(rng.standard_normal((20, m, k)))[0]
        v = np.linalg.qr(rng.standard_normal((20, k, k)))[0]
        jac = u * np.geomspace(1.0, 1.0 / cond, k) @ v.transpose(0, 2, 1)
        want = rng.standard_normal((20, k))
        steps = _lstsq_steps(jac, np.matmul(jac, want[..., None])[..., 0])
        err = np.linalg.norm(steps - want, axis=1) / np.linalg.norm(want,
                                                                    axis=1)
        assert err.max() <= 10 * cond * np.finfo(float).eps

    @pytest.mark.parametrize("deficient", [0, 1, 2])
    def test_no_lapack_call_on_an_empty_stack(self, deficient, monkeypatch):
        from riemsvp.svp import _lstsq_steps

        # rank-deficient systems at sphere2 solutions, then full-rank ones
        jac, rhs = converged_systems(CORE_CASES["sphere2"]())
        rng = np.random.default_rng(deficient)
        full = 3 if deficient < 2 else 0
        jac = np.concatenate([jac[:deficient],
                              rng.standard_normal((full,) + jac.shape[1:])])
        rhs = np.concatenate([rhs[:deficient],
                              rng.standard_normal((full, jac.shape[1]))])
        calls = {"svd": [], "solve": []}
        for name, stacks in calls.items():
            def recording(a, *args, real=getattr(np.linalg, name),
                          stacks=stacks, **kwargs):
                stacks.append(len(a))
                return real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        assert np.isfinite(_lstsq_steps(jac, rhs)).all()
        assert calls["svd"] == ([deficient] if deficient else [])
        assert calls["solve"] == ([full] if full else [])

    def test_mixed_batch_rows_match_each_alone(self):
        from riemsvp.svp import _lstsq_steps

        jac, rhs = converged_systems(CORE_CASES["space-form n=4"]())
        rng = np.random.default_rng(5)
        full = rng.standard_normal((6,) + jac.shape[1:])
        jac = np.concatenate([full[:3], jac, full[3:]])
        rhs = np.concatenate([rng.standard_normal((3, jac.shape[1])), rhs,
                              rng.standard_normal((3, jac.shape[1]))])
        steps = _lstsq_steps(jac, rhs)
        alone = [_lstsq_steps(jac[i:i + 1], rhs[i:i + 1])[0]
                 for i in range(len(jac))]
        assert np.array_equal(np.array(alone), steps)


def recorded_core(monkeypatch):
    """Record the starts and results of every Newton core call."""
    from riemsvp import svp

    calls = []
    real = svp._gauss_newton

    def recording(res_fn, jac_fn, U, cfg):
        start = np.array(U, dtype=float)
        out = real(res_fn, jac_fn, U, cfg)
        calls.append((start,) + tuple(out))
        return out

    monkeypatch.setattr(svp, "_gauss_newton", recording)
    return calls


def kerr_cd():
    return riemann(catalog.kerr(1.0, 0.7).spec, [0.0, 3.0, math.pi / 3, 0.0])


def dense_cd(n=4, seed=3):
    """Curvature data with dense tensors.

    The lowered tensor is the Kulkarni-Nomizu product of two random
    symmetric forms, which has the algebraic curvature symmetries, at a
    random positive definite metric.  The catalog tensors have at most two
    non-zero terms in each contraction sum, so only a dense tensor shows a
    change in the order of the sums.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    g = a @ a.T + n * np.eye(n)
    h, k = (m + m.T for m in rng.standard_normal((2, n, n)))
    low = (np.einsum("ac,bd->abcd", h, k) + np.einsum("bd,ac->abcd", h, k)
           - np.einsum("ad,bc->abcd", h, k) - np.einsum("bc,ad->abcd", h, k))
    g_inv = np.linalg.inv(g)
    return CurvatureData(point=np.zeros(n), g=g, g_inv=g_inv,
                         riemann_mixed=np.einsum("am,mbcd->abcd", g_inv, low),
                         riemann_lowered=low, signature=(1,) * n)


# (curvature, starts per pattern, patterns or None for all, pair search)
SEARCH_CASES = {
    "dense n=4": (dense_cd, 60, [ALL_PLUS], False),
    "sphere2": (sphere_cd, 100, [ALL_PLUS], False),
    "space-form n=4": (CORE_CASES["space-form n=4"], 100, [ALL_PLUS], False),
    "schwarzschild r=3 ++++": (CORE_CASES["schwarzschild r=3"], 200,
                               [ALL_PLUS], False),
    "schwarzschild r=3 16x8": (CORE_CASES["schwarzschild r=3"], 8, None,
                               False),
    "kerr numeric": (kerr_cd, 60, [ALL_PLUS, (1, 1, -1, -1)], False),
    "meigen space-form n=3": (
        lambda: riemann(catalog.space_form(0.8, 3).spec, np.zeros(3)), 100,
        [ALL_PLUS], True),
    "meigen schwarzschild r=3": (
        CORE_CASES["schwarzschild r=3"], 50,
        [p + p for p in itertools.product((1, -1), repeat=2)], True),
}


def assert_same_core_results(got, want):
    for a, b in zip(got[:3], want[:3]):
        assert np.array_equal(a, b)
    assert list(got[3]) == list(want[3])


class TestOneResidualPass:
    """The core against the one-length-at-a-time reference in oracles."""

    @pytest.mark.parametrize("case", sorted(SEARCH_CASES))
    def test_search_matches_sequential_ladder(self, case, monkeypatch):
        from riemsvp.svp import _search

        make_cd, count, patterns, pair = SEARCH_CASES[case]
        cd = make_cd()
        patterns = patterns or feasible_patterns(cd)
        cfg = SolverConfig(n_starts=count, rng_seed=0)
        calls = recorded_core(monkeypatch)
        _search(cd, cfg, patterns, pair=pair)
        want = oracles.search_reference(cd, cfg, patterns, pair=pair)
        assert_same_core_results(calls[-1], want)
        assert "converged" in set(want[3])
        if case == "schwarzschild r=3 ++++":
            assert list(want[3]).count("converged") == 56

    def test_split_batch_matches_sequential_ladder(self, monkeypatch):
        from riemsvp import svp

        cd = CORE_CASES["schwarzschild r=3"]()
        patterns = feasible_patterns(cd)
        U0 = np.concatenate([core_starts(cd, signs, 8, seed=i)
                             for i, signs in enumerate(patterns)])
        row_signs = [signs for signs in patterns for _ in range(8)]
        cfg = SolverConfig()
        want = oracles.solve_full_reference(cd, U0, row_signs, cfg)
        monkeypatch.setattr(svp, "_MAX_BATCH", 7)
        got = svp._solve_full(cd, U0, row_signs, cfg)
        assert_same_core_results((U0,) + tuple(got), (U0,) + want)

    @pytest.mark.parametrize("make_cd", [
        sphere_cd,
        lambda: riemann(catalog.space_form(0.8, 3).spec, np.zeros(3)),
        CORE_CASES["schwarzschild r=3"],
    ], ids=["n=2", "n=3", "n=4"])
    def test_jacobian_from_parts(self, make_cd):
        from riemsvp.svp import _jacobian, _jacobians

        cd = make_cd()
        n = cd.n
        rng = np.random.default_rng(n)
        U = rng.standard_normal((6, 4 * n + 1))
        signs = rng.choice([-1.0, 1.0], (6, 4))
        jac = _jacobians(cd, U)
        assert np.array_equal(jac, oracles.jacobians_loop(cd, U))
        for row, u in enumerate(U):
            q = Quadruple(u[0:n], u[n:2 * n], u[2 * n:3 * n], u[3 * n:4 * n],
                          tuple(int(v) for v in signs[row]))
            assert np.array_equal(_jacobian(cd, q, u[4 * n]), jac[row])

    @pytest.mark.parametrize("rows", [0, 1, 7, 300])
    def test_contractions_match_term_by_term_sums(self, rows):
        from riemsvp.svp import _matvec

        # dense tensors, in both layouts: one tensor for every row, and one
        # per row, with contiguous and swapped contraction axes; each case
        # is the (a, vecs, axis) contraction of dot_ordered and the operand
        # that lays it out for _matvec
        rng = np.random.default_rng(rows)
        V = rng.standard_normal((rows, 4, 4))
        r = rng.standard_normal((1, 1, 4, 4, 4, 4))
        g = rng.standard_normal((1, 1, 4, 4))
        rs = rng.standard_normal((rows, 4, 4, 4, 4))
        cases = [
            (r, V, -1, r[0, 0].reshape(64, 4), False),
            (r, V, 3, r[0, 0].swapaxes(1, 3).reshape(64, 4), False),
            (g, V, -1, g[0, 0], False),
            (rs, V, -1, rs.reshape(rows, 4, 16, 4), True),
            (rs, V, -2, rs.swapaxes(-2, -1).reshape(rows, 4, 16, 4), True),
            (r[0], V[:, 0], -1, r[0, 0].reshape(64, 4), False)]
        eps = np.finfo(float).eps
        for a, vecs, axis, op, per_row in cases:
            want = oracles.dot_ordered(a, vecs, axis)
            got = _matvec(op, vecs)
            assert got.shape == want.shape[:vecs.ndim - 1] + (op.shape[-2],)
            got = got.reshape(want.shape)
            # within the rounding of an n-term sum of the same products
            scale = oracles.dot_ordered(np.abs(a), np.abs(vecs), axis)
            assert np.all(np.abs(got - want) <= 2 * vecs.shape[-1] * eps * scale)
            # each row alone gives its entries in the batch, bit for bit
            for i in range(rows):
                alone = op[i:i + 1] if per_row else op
                row = _matvec(alone, vecs[i:i + 1])
                assert np.array_equal(row.reshape(got[i:i + 1].shape),
                                      got[i:i + 1])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_kernels_on_an_empty_batch(self, n):
        from riemsvp.svp import _jacobians, _lstsq_steps, _residuals, _sigmas

        cd = riemann(catalog.space_form(0.8, n).spec, np.zeros(n))
        U = np.zeros((0, 4 * n + 1))
        assert _residuals(cd, U, np.zeros((0, 4))).shape == (0, 4 * n + 4)
        jac = _jacobians(cd, U)
        assert jac.shape == (0, 4 * n + 4, 4 * n + 1)
        assert _sigmas(cd, U[:, :4 * n]).shape == (0,)
        steps = _lstsq_steps(jac, np.zeros((0, 4 * n + 4)))
        assert steps.shape == (0, 4 * n + 1)

    def test_pair_operand_stays_strided(self, monkeypatch):
        from riemsvp import svp

        # the plane-pair operand is a strided view, which numpy multiplies
        # in its own loop; a C-contiguous copy goes to BLAS and rounds
        # differently, so a copy would move every residual's last bits
        seen, matvec = [], svp._matvec

        def recording(a, vecs):
            seen.append(a)
            return matvec(a, vecs)

        monkeypatch.setattr(svp, "_matvec", recording)
        cd = CORE_CASES["schwarzschild r=3"]()
        svp._residuals(cd, np.ones((3, 17)), ALL_PLUS)
        pair = seen[0]
        assert pair.shape == (16, 6)
        assert not pair.flags.c_contiguous

    def test_batched_trivial_labels_match_per_row(self):
        from riemsvp.svp import _trivial_patterns

        v, u = np.array([1.0, 0.0]), np.array([0.6, 0.8])
        choices = [v, -v, u, -u, v + 5e-7, v + 2e-6, -u - 9e-7,
                   np.array([np.nan, 0.0])]
        V = np.array(list(itertools.product(choices, repeat=4)))
        labels = _trivial_patterns(V)
        quads = [Quadruple(*row) for row in V]
        assert labels == [oracles.trivial_pattern_per_row(q) for q in quads]
        assert labels == [trivial_pattern(q) for q in quads]
        assert set(labels) == {"all-equal", "w=x", "y=z", None}


SAMPLER_CASES = {
    "schwarzschild r=3": CORE_CASES["schwarzschild r=3"],
    "schwarzschild r=1000": lambda: riemann(
        catalog.schwarzschild(1.0).spec, [0.0, 1000.0, math.pi / 4, 0.0]),
    "kerr": lambda: riemann(catalog.kerr(1.0, 0.7).spec,
                            [0.0, 3.0, math.pi / 3, 0.0]),
    "sphere2": sphere_cd,
}
SAMPLER_PARAMS = [
    (case, signs) for case in SAMPLER_CASES
    for signs in ([ALL_PLUS] if case == "sphere2"
                  else list(itertools.product((1, -1), repeat=4)))]


def pattern_id(signs):
    return "".join("+" if s > 0 else "-" for s in signs)


class TestStartSampler:
    """The block sampler against the one-draw-at-a-time fill loop."""

    @pytest.mark.parametrize(
        "case, signs", SAMPLER_PARAMS,
        ids=[f"{case} {pattern_id(signs)}" for case, signs in SAMPLER_PARAMS])
    def test_matches_one_draw_loop(self, case, signs):
        from riemsvp.svp import _sample_starts

        cd = SAMPLER_CASES[case]()
        assert signs in feasible_patterns(cd)
        for seed in (0, 5):
            for count in (1, 4, 200):
                V, attempted = _sample_starts(np.random.default_rng(seed),
                                              cd.g, signs, count)
                ref, ref_attempted = oracles.sample_starts_one_draw(
                    np.random.default_rng(seed), cd.g, signs, count)
                assert attempted == ref_attempted
                assert np.array_equal(V, ref)

    def test_exhausted_draws_stop_sampling(self):
        from riemsvp.svp import _sample_starts

        g = np.diag([-1.0, 1e6, 1e6, 1e6])
        for signs in ((-1,), (1, -1, 1, 1)):
            V, attempted = _sample_starts(np.random.default_rng(0), g, signs,
                                          3)
            ref, ref_attempted = oracles.sample_starts_one_draw(
                np.random.default_rng(0), g, signs, 3)
            assert attempted == ref_attempted == 1
            assert V.shape == ref.shape == (0, 4 * len(signs))

    def test_near_null_draws_are_dropped(self):
        from riemsvp.svp import _sample_starts

        # with g = 1e-7 I about 99% of the draws have <v, v> < 1e-6
        g = 1e-7 * np.eye(2)
        V, attempted = _sample_starts(np.random.default_rng(1), g, (1, 1), 20)
        ref, ref_attempted = oracles.sample_starts_one_draw(
            np.random.default_rng(1), g, (1, 1), 20)
        assert attempted == ref_attempted == 20
        assert np.array_equal(V, ref)

    @pytest.mark.parametrize("block", [3, 7])
    def test_rows_do_not_depend_on_block_size(self, monkeypatch, block):
        from riemsvp import svp

        cd = SAMPLER_CASES["kerr"]()
        g = np.diag([-1.0, 1e6, 1e6, 1e6])
        calls = [(cd.g, signs, count) for signs in ((1, 1, -1, -1), ALL_PLUS)
                 for count in (1, 5, 40)] + [(g, (1, -1, 1, 1), 2)]
        def sample(c):
            return svp._sample_starts(np.random.default_rng(2), *c)

        want = [sample(c) for c in calls]
        monkeypatch.setattr(svp, "_BLOCK", block)
        for c, (V, attempted) in zip(calls, want):
            got, got_attempted = sample(c)
            assert got_attempted == attempted
            assert np.array_equal(got, V)

    def test_batch_of_one_is_first_row(self):
        from riemsvp.svp import _sample_starts

        cd = SAMPLER_CASES["kerr"]()
        for signs in feasible_patterns(cd):
            V, attempted = _sample_starts(np.random.default_rng(9), cd.g,
                                          signs, 200)
            one, one_attempted = _sample_starts(np.random.default_rng(9), cd.g,
                                                signs, 1)
            assert (attempted, one_attempted) == (200, 1)
            assert np.array_equal(one, V[:1])

    def test_trivial_row_skips_a_pattern_without_vectors(self):
        from riemsvp.svp import _ensure_trivial

        n = 4
        cd = CurvatureData(point=np.zeros(n), g=np.diag([-1.0, 1e6, 1e6, 1e6]),
                           g_inv=np.diag([-1.0, 1e-6, 1e-6, 1e-6]),
                           riemann_mixed=np.zeros((n,) * 4),
                           riemann_lowered=np.zeros((n,) * 4),
                           signature=(-1, 1, 1, 1))
        cfg = SolverConfig(n_starts=5, rng_seed=0)
        assert _ensure_trivial([], cd, cfg, [(-1, -1, -1, -1)]) == []
        (sol,) = _ensure_trivial([], cd, cfg, [(-1, -1, -1, -1), ALL_PLUS])
        assert sol.q.signs == ALL_PLUS and sol.trivial == "w=x"
        assert sol.origin == "analytic" and sol.sigma == 0.0


class TestMultistart:
    def test_sphere_clusters(self):
        cd = sphere_cd()
        sols = multistart(cd, SolverConfig(n_starts=60, rng_seed=7))
        values = sigma_values(sols)
        assert len(values) == 2
        assert abs(values[0]) < 1e-10
        assert abs(values[1] - 1.0) < 1e-10
        zero = [s for s in sols if abs(s.sigma) < 1e-10][0]
        assert zero.trivial is not None

    def test_euclidean_only_zero(self):
        cd = riemann(catalog.euclidean(4).spec, np.zeros(4))
        sols = multistart(cd, SolverConfig(n_starts=25, rng_seed=2))
        assert sigma_values(sols) == [pytest.approx(0.0, abs=1e-12)]

    def test_schwarzschild_contains_reduced_value(self):
        cd = riemann(catalog.schwarzschild(1.0).spec,
                     [0.0, 3.0, math.pi / 4, 0.0])
        sols = multistart(cd, SolverConfig(n_starts=150, rng_seed=11,
                                           sign_pattern="all"))
        assert any(abs(s.sigma - 1.0 / 27.0) < 1e-8 for s in sols)

    def test_deterministic_given_seed(self):
        cd = sphere_cd()
        cfg = SolverConfig(n_starts=25, rng_seed=13)
        a = multistart(cd, cfg)
        b = multistart(cd, cfg)
        assert [s.sigma for s in a] == [s.sigma for s in b]
        assert [s.seed for s in a] == [s.seed for s in b]
        assert all(np.array_equal(x.q.flat(), y.q.flat())
                   for x, y in zip(a, b))

    def test_riemannian_rejects_negative_pattern(self):
        cd = sphere_cd()
        with pytest.raises(WrongSignature):
            multistart(cd, SolverConfig(n_starts=5, sign_pattern="+++-"))
        # the repeated-pair reduction runs the same patterns: it neither
        # crashes on --++ nor quietly solves ++++ for ++--
        for pattern in ("--++", "++--"):
            with pytest.raises(WrongSignature):
                meigen_reduce(cd, SolverConfig(n_starts=5,
                                               sign_pattern=pattern))

    def test_pattern_parsing(self):
        assert parse_sign_pattern("++++") == (1, 1, 1, 1)
        assert parse_sign_pattern("+-+-") == (1, -1, 1, -1)
        assert parse_sign_pattern("all") is None
        assert parse_sign_pattern("enumerate-all") is None
        with pytest.raises(InvalidInput):
            parse_sign_pattern("+++")

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(InvalidInput, match="rng_seed"):
            SolverConfig(rng_seed=seed)
        assert SolverConfig(rng_seed=np.int64(3)).rng_seed == 3


class TestOrbit:
    def test_sign_flip_carries_negative_sigma(self):
        cd = sphere_cd()
        sol = SVPSolution(q=sphere_solution(), sigma=1.0,
                          residual=residual_norm(cd, sphere_solution(), 1.0))
        members = orbit(sol, cd)
        flipped = [m for m in members
                   if np.allclose(m.q.w, -sol.q.w)
                   and np.allclose(m.q.x, sol.q.x)
                   and np.allclose(m.q.y, sol.q.y)
                   and np.allclose(m.q.z, sol.q.z)]
        assert flipped and flipped[0].sigma == -1.0

    def test_pair_swap_keeps_sigma(self):
        cd = sphere_cd()
        q = sphere_solution()
        sol = SVPSolution(q=q, sigma=1.0, residual=residual_norm(cd, q, 1.0))
        members = orbit(sol, cd)
        swapped = [m for m in members
                   if np.allclose(m.q.w, q.y) and np.allclose(m.q.x, q.z)
                   and np.allclose(m.q.y, q.w) and np.allclose(m.q.z, q.x)
                   and m.sigma == 1.0]
        assert swapped

    def test_rotation_members_are_solutions(self):
        cd = sphere_cd()
        q = sphere_solution()
        sol = SVPSolution(q=q, sigma=1.0, residual=residual_norm(cd, q, 1.0))
        members = orbit(sol, cd)
        assert len(members) == 16 + 7 + 3
        assert max(m.residual for m in members) < 1e-10
        rt = 1.0 / math.sqrt(2.0)
        rotated = [m for m in members if np.allclose(m.q.w, rt * (q.w - q.x))]
        assert rotated and rotated[0].sigma == 1.0

    def test_all_members_near_solutions(self):
        cd = riemann(catalog.schwarzschild(1.0).spec, [0.0, 3.0, 1.0, 0.0])
        sol = schwarzschild_reduced_solve(1.0, 3.0, 1.0)
        members = orbit(sol, cd, tol=1e-10)
        assert max(m.residual for m in members) < 1e-9

    def test_requires_converged_input(self):
        cd = sphere_cd()
        bad = SVPSolution(q=sphere_solution(), sigma=0.5, residual=0.5)
        with pytest.raises(InvalidInput):
            orbit(bad, cd)

    def test_size_without_building_the_orbit(self):
        sizes = set()
        for entry in (catalog.sphere2(), catalog.schwarzschild(1.0)):
            cd = riemann(entry.spec, entry.default_point)
            cfg = SolverConfig(n_starts=30, rng_seed=0)
            for sol in multistart(cd, cfg):
                members = orbit(sol, cd, tol=max(10.0 * sol.residual, 1e-9))
                assert orbit_size(sol, cd) == len(members)
                sizes.add(len(members))
        assert sizes == {23, 26}


class TestPairOrthogonality:
    def test_sphere_solution_orthogonal(self):
        cd = sphere_cd()
        sol = SVPSolution(q=sphere_solution(), sigma=1.0, residual=0.0)
        assert check_proposition1(sol, cd)

    def test_trivial_passes_via_zero_sigma(self):
        cd = sphere_cd()
        v = np.array([1.0, 0.0])
        quad = Quadruple(v, v.copy(), v.copy(), v.copy())
        assert check_proposition1(SVPSolution(q=quad, sigma=0.0, residual=0.0),
                                  cd)

    def test_violating_tuple_fails(self):
        cd = sphere_cd(math.pi / 2)
        w = np.array([1.0, 0.0])
        x = np.array([0.5, math.sqrt(3.0) / 2.0])  # <w, x> = 0.5
        quad = Quadruple(w, x, w.copy(), x.copy())
        sol = SVPSolution(q=quad, sigma=1.0, residual=0.0)
        assert not check_proposition1(sol, cd)
        assert residual_norm(cd, quad, 1.0) > 1e-3

    def test_small_sigma_is_checked(self):
        # sigma = M / r^3 = 1e-9 at r = 1000 is not zero at that curvature
        point = [0.0, 1000.0, 1.2, 0.0]
        cd = riemann(catalog.schwarzschild(1.0).spec, point)
        sol = schwarzschild_reduced_solve(1.0, 1000.0, 1.2)
        assert sol.sigma == pytest.approx(1e-9, rel=1e-12)
        assert check_proposition1(sol, cd)
        q = sol.q
        bad = replace(sol, q=Quadruple(q.w, q.w.copy(), q.y, q.z, q.signs))
        assert inner(cd.g, bad.q.w, bad.q.x) == pytest.approx(1.0)
        assert not check_proposition1(bad, cd)


class TestMeigen:
    def test_sphere(self):
        cd = sphere_cd()
        sols = meigen_reduce(cd, SolverConfig(n_starts=30, rng_seed=5))
        values = sigma_values(sols)
        assert any(abs(v - 1.0) < 1e-10 for v in values)
        one = [s for s in sols if abs(s.sigma - 1.0) < 1e-10][0]
        # repeated-pair structure: W = Y and X = Z
        assert np.array_equal(one.q.w, one.q.y)
        assert np.array_equal(one.q.x, one.q.z)
        assert one.residual < 1e-11

    def test_euclidean_zero_only(self):
        cd = riemann(catalog.euclidean(3).spec, np.zeros(3))
        sols = meigen_reduce(cd, SolverConfig(n_starts=15, rng_seed=1))
        assert sigma_values(sols) == [pytest.approx(0.0, abs=1e-12)]

    def test_space_form_half(self):
        cd = riemann(catalog.space_form(0.5, 4).spec, np.zeros(4))
        sols = meigen_reduce(cd, SolverConfig(n_starts=30, rng_seed=3))
        assert any(abs(s.sigma - 0.5) < 1e-10 for s in sols)


class TestLorentzMixedSign:
    def test_schwarzschild_default_pattern(self):
        cd = riemann(catalog.schwarzschild(1.0).spec,
                     [0.0, 3.0, math.pi / 4, 0.0])
        rep = lorentz_mixed_sign_check(
            cd, SolverConfig(n_starts=100, rng_seed=21, sign_pattern="+++-"))
        assert rep.n_converged > 0
        assert rep.max_abs_sigma < 1e-8
        assert rep.passed

    def test_two_negative_pattern(self):
        cd = riemann(catalog.schwarzschild(1.0).spec,
                     [0.0, 3.0, math.pi / 4, 0.0])
        rep = lorentz_mixed_sign_check(
            cd, SolverConfig(n_starts=100, rng_seed=8, sign_pattern="++--"))
        assert rep.n_converged > 0
        assert rep.max_abs_sigma < 1e-8

    def test_riemannian_raises(self):
        cd = sphere_cd()
        with pytest.raises(WrongSignature):
            lorentz_mixed_sign_check(cd, SolverConfig(n_starts=5))


class TestSchwarzschildReduced:
    def test_sigma_m_over_r_cubed(self):
        sol = schwarzschild_reduced_solve(1.0, 3.0, math.pi / 4)
        assert abs(sol.sigma - 1.0 / 27.0) < 1e-12
        assert sol.residual < 1e-10
        assert sol.origin == "reduced-schwarzschild"

    def test_far_field(self):
        sol = schwarzschild_reduced_solve(1.0, 10.0, 1.0)
        assert abs(sol.sigma - 1e-3) < 1e-12

    def test_mass_two(self):
        # r = 2M sits on the horizon, so the smallest admissible spec point
        # for M = 2 is r > 4; use r = 8 and cross-check sigma = sqrt(K1/48)
        sol = schwarzschild_reduced_solve(2.0, 8.0, 1.2)
        assert abs(sol.sigma - 2.0 / 512.0) < 1e-12
        from riemsvp.algebra import kretschmann

        cd = riemann(catalog.schwarzschild(2.0).spec, [0.0, 8.0, 1.2, 0.0])
        assert sol.sigma == pytest.approx(math.sqrt(kretschmann(cd) / 48.0),
                                          rel=1e-12)

    def test_constraints_all_plus(self):
        sol = schwarzschild_reduced_solve(1.0, 5.0, 0.7)
        cd = riemann(catalog.schwarzschild(1.0).spec, [0.0, 5.0, 0.7, 0.0])
        for v in sol.q.vectors:
            assert inner(cd.g, v, v) == pytest.approx(1.0, abs=1e-12)

    def test_wedge_identity_on_solution(self):
        sol = schwarzschild_reduced_solve(1.0, 3.0, 1.0)
        assert wedge_det_defect(sol.q.y, sol.q.z) < 1e-8

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            schwarzschild_reduced_solve(1.0, 1.9, 1.0)
        with pytest.raises(OutOfDomain):
            schwarzschild_reduced_solve(1.0, 3.0, 0.0)

    def test_non_finite_point_is_invalid_input(self):
        # a non-finite theta is bad input, as a non-finite r is, for both
        # reduced solvers
        for r, theta in ((math.nan, 1.0), (3.0, math.nan)):
            with pytest.raises(InvalidInput):
                schwarzschild_reduced_solve(1.0, r, theta)
            with pytest.raises(InvalidInput):
                kerr_reduced_solve(1.0, 0.5, r, theta)
        # and so is a non-finite mass
        with pytest.raises(InvalidInput):
            schwarzschild_reduced_solve(math.nan, 3.0, 1.0)


class TestKerrReduced:
    def test_equator_matches_static_value(self):
        sol = kerr_reduced_solve(1.0, 0.5, 3.0, math.pi / 2)
        assert abs(sol.sigma - 1.0 / 27.0) < 1e-8
        assert sol.origin == "reduced-kerr"
        assert sol.tetrad_components is not None

    def test_zero_spin_matches_schwarzschild(self):
        a = kerr_reduced_solve(1.0, 0.0, 3.0, math.pi / 4)
        b = schwarzschild_reduced_solve(1.0, 3.0, math.pi / 4)
        assert abs(a.sigma - b.sigma) < 1e-10

    def test_sigma_matches_invariant(self):
        entry = catalog.kerr(1.0, 0.9)
        p = np.array([0.0, 4.0, math.pi / 3, 0.0])
        cd = riemann(entry.spec, p)
        inv = invariant_i(np_scalars(cd, entry.tetrad(p)))
        want = math.sqrt((abs(inv) + inv.real) / 6.0)
        sol = kerr_reduced_solve(1.0, 0.9, 4.0, math.pi / 3)
        assert abs(sol.sigma - want) < 1e-8

    def test_full_residual_small(self):
        sol = kerr_reduced_solve(1.0, 0.5, 3.0, 1.0)
        assert sol.residual < 1e-9

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            kerr_reduced_solve(1.0, 0.5, 0.5, 1.0)
        with pytest.raises(InvalidInput):
            kerr_reduced_solve(1.0, 1.5, 5.0, 1.0)


class TestClosedFormSigma:
    def test_space_form_absolute_value(self):
        assert closed_form_sigma("space-form", kappa=-2.0) == 2.0
        assert closed_form_sigma("space-form", kappa=0.5) == 0.5

    def test_einstein_unit_sphere4(self):
        # unit S^4: Ricci = 3 g, R = 12
        val = closed_form_sigma("einstein", kappa=3.0, ricci_scalar=12.0, n=4)
        assert val == pytest.approx(1.0, abs=1e-15)

    def test_ricci_pair_zero(self):
        # lam = mu = R / (2 (n-1)) makes the bracket vanish
        n, scal = 5, 3.7
        lam = scal / (2 * (n - 1))
        val = closed_form_sigma("ricci-pair", lam=lam, mu=lam,
                                ricci_scalar=scal, n=n)
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_ricci_pair_reduces_to_einstein(self):
        for n in (3, 4, 6):
            kappa = n - 1.0
            scal = n * kappa
            a = closed_form_sigma("ricci-pair", lam=kappa, mu=kappa,
                                  ricci_scalar=scal, n=n)
            b = closed_form_sigma("einstein", kappa=kappa, ricci_scalar=scal,
                                  n=n)
            assert a == pytest.approx(b, abs=1e-14)

    def test_m_eigen_form(self):
        val = closed_form_sigma("m-eigen", ricci_ww=2.0, ricci_xx=3.0,
                                ricci_scalar=6.0, n=4)
        assert val == pytest.approx((2.0 + 3.0 - 2.0) / 2.0, abs=1e-15)

    def test_bad_case(self):
        with pytest.raises(BadCase):
            closed_form_sigma("unknown-case", kappa=1.0)
        with pytest.raises(BadCase):
            closed_form_sigma("einstein", kappa=1.0, n=4)  # missing scalar
        with pytest.raises(BadCase):
            closed_form_sigma("einstein", kappa=1.0, ricci_scalar=1.0, n=2)


class TestTrivialPattern:
    def test_patterns(self):
        v = np.array([1.0, 0.0])
        u = np.array([0.0, 1.0])
        assert trivial_pattern(Quadruple(v, v, u, -u)) == "w=x"
        assert trivial_pattern(Quadruple(v, u, u, u)) == "y=z"
        assert trivial_pattern(Quadruple(v, -v, v, v)) == "all-equal"
        assert trivial_pattern(Quadruple(v, u, v, u)) is None


class TestWedgeMatrix:
    def test_identity_random_vectors(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            y, z = rng.standard_normal(4), rng.standard_normal(4)
            assert wedge_det_defect(y, z) < 1e-10

    def test_defect_does_not_depend_on_scale(self):
        # scaling by a power of two is exact, so the defect relative to the
        # size of the determinant's terms is the same bit for bit
        rng = np.random.default_rng(5)
        for _ in range(5):
            y, z = rng.standard_normal(4), rng.standard_normal(4)
            for k in (-20, -10, 10, 20):
                assert (wedge_det_defect(2.0 ** k * y, z)
                        == wedge_det_defect(y, z))
        assert wedge_det_defect(np.zeros(4), z) == 0.0

    def test_matrix_layout(self):
        y = np.array([1.0, 0.0, 0.0, 0.0])
        z = np.array([0.0, 1.0, 0.0, 0.0])
        m = wedge_matrix(y, z)
        assert m[0, 1] == 2.0  # 2 * S^01 with S^01 = 1
        assert m[1, 0] == 2.0
        assert m[2, 3] == 0.0
