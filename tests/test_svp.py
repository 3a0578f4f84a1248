import collections
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riemsvp import catalog
from riemsvp.algebra import inner, invariant_i, np_scalars
from riemsvp.errors import (BadCase, InvalidInput, OutOfDomain,
                            WrongSignature)
from riemsvp.geometry import CurvatureData, riemann
from riemsvp.metricfile import load_metric
from riemsvp.svp import (ALL_PLUS, Quadruple, SolverConfig, SVPSolution,
                         closed_form_sigma, feasible_patterns,
                         kerr_reduced_solve, lorentz_mixed_sign_check,
                         meigen_reduce, multistart, orbit, orbit_size,
                         parse_sign_pattern, residual, residual_norm,
                         schwarzschild_reduced_solve, sigma_from_tensor,
                         sigma_values, trivial_pattern, wedge_det_defect,
                         wedge_matrix)

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
        from riemsvp.svp import _system

        cd = riemann(catalog.space_form(0.8, 3).spec, np.zeros(3))
        rng = np.random.default_rng(11)
        n = 3
        q = Quadruple(*(rng.standard_normal(n) for _ in range(4)))
        sigma = 0.3
        u0 = np.concatenate([q.flat(), [sigma]])
        jac = _system(cd).jacobians(u0[None])[0]
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


def noisy_sphere_start():
    """The closed-form sphere solution with 1e-3 noise on each vector."""
    cd = sphere_cd()
    rng = np.random.default_rng(0)
    noisy = Quadruple(*(v + 1e-3 * rng.standard_normal(2)
                        for v in sphere_solution().vectors))
    return cd, np.append(noisy.flat(), sigma_from_tensor(cd, noisy))[None]


class TestSolveNewton:
    def test_converges_from_noisy_start(self):
        from riemsvp.svp import _solve_full

        cd, U0 = noisy_sphere_start()
        (u,), (fnorm,), (outcome,) = _solve_full(cd, U0, ALL_PLUS,
                                                 SolverConfig())
        assert outcome == "converged"
        assert abs(abs(u[-1]) - 1.0) < 1e-11
        assert fnorm < 1e-11

    def test_exact_trivial_start_returns_immediately(self):
        from riemsvp.svp import _solve_full

        cd = sphere_cd()
        U0 = np.array([[1.0, 0.0] * 4 + [0.0]])
        U, _, (outcome,) = _solve_full(cd, U0, ALL_PLUS, SolverConfig())
        assert outcome == "converged"
        assert np.array_equal(U, U0)
        q = Quadruple(*U[0, :8].reshape(4, 2))
        assert trivial_pattern(q) == "all-equal"

    def test_iteration_cap_ends_capped(self, monkeypatch):
        from riemsvp import svp

        cd, U0 = noisy_sphere_start()
        monkeypatch.setattr(svp, "_MAX_NEWTON_ITERS", 1)
        got = svp._solve_full(cd, U0, ALL_PLUS, SolverConfig())
        assert list(got[2]) == ["capped"]
        want = oracles.solve_full_reference(cd, U0, ALL_PLUS, SolverConfig())
        assert_same_core_results((U0,) + tuple(got), (U0,) + want)

    def test_space_form_sigma_set(self):
        cd = riemann(catalog.space_form(2.0, 3).spec, np.zeros(3))
        cfg = SolverConfig(n_starts=40, rng_seed=9)
        sols = multistart(cd, cfg)
        values = sigma_values(sols)
        assert all(min(abs(v - 0.0), abs(v - 2.0)) < 1e-9 for v in values)
        assert any(abs(v - 2.0) < 1e-9 for v in values)

    @pytest.mark.xfail(strict=True, reason="no start converges on a space "
                       "form with |kappa| <= 1e-3: every one stalls")
    def test_small_curvature_space_form_sigma(self):
        cd = riemann(catalog.space_form(-1e-3, 4).spec, np.zeros(4))
        sols = multistart(cd, SolverConfig(n_starts=40, rng_seed=0))
        assert any(v == pytest.approx(1e-3, rel=1e-6)
                   for v in sigma_values(sols))

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
    from riemsvp.svp import _system

    sols = multistart(cd, SolverConfig(n_starts=40, rng_seed=0))
    jacobians = _system(cd).jacobians
    jac = np.array([jacobians(np.append(s.q.flat(), s.sigma)[None])[0]
                    for s in sols])
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

    def recording(system, U, signs, cfg):
        start = np.array(U, dtype=float)
        out = real(system, U, signs, cfg)
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
        from riemsvp.svp import _system

        cd = make_cd()
        n = cd.n
        rng = np.random.default_rng(n)
        U = rng.standard_normal((6, 4 * n + 1))
        jacobians = _system(cd).jacobians
        jac = jacobians(U)
        assert np.array_equal(jac, oracles.jacobians_loop(cd, U))
        for row, u in enumerate(U):
            assert np.array_equal(jacobians(u[None])[0], jac[row])

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
        from riemsvp.svp import _lstsq_steps, _sigmas, _system

        cd = riemann(catalog.space_form(0.8, n).spec, np.zeros(n))
        U = np.zeros((0, 4 * n + 1))
        system = _system(cd)
        assert system.residuals(U, np.zeros((0, 4))).shape == (0, 4 * n + 4)
        jac = system.jacobians(U)
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
        svp._system(cd).residuals(np.ones((3, 17)), ALL_PLUS)
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


# sigma gaps, in units of the cluster window, around and at the window
CLUSTER_GAPS = (0.0, 0.25, 0.5, 0.9, 0.999, 1.0, 1.001, 1.5, 3.0)


@st.composite
def cluster_rows(draw, n=4):
    """Rows ``(w, x, y, z, sigma)`` with their signs and seeds.

    Sigma runs in chains of window-sized gaps from a start that may be zero
    or negative, and each row may be negated (which turns a zero sigma into
    -0.0); rows may repeat, which ties their residuals, and may have
    ``w = +-x`` or ``y = +-z``."""
    from riemsvp.svp import _CLUSTER_EPS

    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sigma = [draw(st.sampled_from([0.0, -2.5 * _CLUSTER_EPS, 0.7, -3.0]))]
    for gap in draw(st.lists(st.sampled_from(CLUSTER_GAPS), max_size=14)):
        sigma.append(sigma[-1] + gap * _CLUSTER_EPS)
    rows = []
    for s in sigma:
        v = rng.standard_normal((4, n))
        for a, b in ((0, 1), (2, 3)):
            tie = draw(st.sampled_from([0.0, 1.0, -1.0]))
            v[b] = tie * v[a] if tie else v[b]
        rows.append(np.append(v, draw(st.sampled_from([1.0, -1.0])) * s))
    rows = [rows[i] for i in draw(st.lists(
        st.integers(0, len(rows) - 1), min_size=1, max_size=24))]
    signs = [draw(st.sampled_from(list(itertools.product((1, -1), repeat=4))))
             for _ in rows]
    seeds = draw(st.lists(st.one_of(st.none(), st.integers(1, 99)),
                          min_size=len(rows), max_size=len(rows)))
    return np.array(rows), signs, seeds


class TestClusters:
    """The one-pass cluster rule against the former all-pairs merge."""

    @settings(max_examples=300, deadline=None)
    @given(cluster_rows())
    def test_matches_former_merge_and_sort(self, case):
        from riemsvp.svp import _clusters, _system

        cd = dense_cd()
        U, signs, seeds = case
        # flipping a negative sigma with W only changes residual signs, so
        # the rows' own norms are the flipped rows' the reference computes
        res = np.abs(_system(cd).residuals(U, np.array(signs, float)))
        got = _clusters(U, res.max(axis=1), signs, seeds, "multistart")
        want = oracles.clusters_reference(cd, U, signs, seeds, "multistart",
                                          math.inf)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (repr(a.sigma), repr(a.residual), a.origin, a.seed,
                    a.trivial, a.count, a.q.signs) == (
                repr(b.sigma), repr(b.residual), b.origin, b.seed,
                b.trivial, b.count, b.q.signs)
            for u, v in zip(a.q.vectors, b.q.vectors):
                assert np.array_equal(u, v)
                assert np.array_equal(np.signbit(u), np.signbit(v))

    def test_sigma_values_split_where_clusters_do(self):
        # sigmas _CLUSTER_EPS apart are two clusters, so two values
        from riemsvp.svp import _CLUSTER_EPS, _clusters

        sigmas = [0.0, _CLUSTER_EPS]
        U = np.array([np.append(sphere_solution().flat(), s) for s in sigmas])
        got = _clusters(U, np.zeros(2), [ALL_PLUS] * 2, [1, 2], "multistart")
        assert [c.sigma for c in got] == sigmas
        assert sigma_values(got) == sigmas


class TestSearchBookkeeping:
    def test_no_converged_start_makes_no_call_after_the_core(self,
                                                             monkeypatch):
        from riemsvp import svp

        # Schwarzschild r = 30: every one of these 50 starts stalls
        cd = riemann(catalog.schwarzschild(1.0).spec, [0.0, 30.0, 1.2, 0.0])
        calls = []
        real_core, real_system = svp._gauss_newton, svp._system
        real_labels = svp._trivial_patterns

        def core(*args):
            out = real_core(*args)
            assert "converged" not in set(out[2])
            calls.append("core")
            return out

        def system(*args, **kwargs):
            built = real_system(*args, **kwargs)
            calls.append("system")

            def residuals(*a, **k):
                calls.append("residuals")
                return built.residuals(*a, **k)

            return built._replace(residuals=residuals)

        def labels(V):
            calls.append("labels")
            return real_labels(V)

        monkeypatch.setattr(svp, "_gauss_newton", core)
        monkeypatch.setattr(svp, "_system", system)
        monkeypatch.setattr(svp, "_trivial_patterns", labels)
        got = svp._search(cd, SolverConfig(n_starts=50, rng_seed=0),
                          [ALL_PLUS])
        assert got == []
        assert calls.count("core") == 1 and calls[-1] == "core"

    def test_converging_nothing_draws_one_stream_and_builds_one_system(
            self, monkeypatch):
        from riemsvp import svp

        # Schwarzschild r = 30: every one of these 50 starts stalls, so
        # multistart adds the analytic row, which reads g's frame only
        cd = riemann(catalog.schwarzschild(1.0).spec, [0.0, 30.0, 1.2, 0.0])
        calls, inside = [], []
        real = {name: getattr(svp, name) for name in
                ("_search", "_system", "_sample_starts", "_frame")}
        real_rng = np.random.default_rng

        def counted(name):
            def call(*args, **kwargs):
                calls.append(name if name != "_sample_starts" or any(inside)
                             else "_sample_starts outside the search")
                inside.append(name == "_search")
                try:
                    return real[name](*args, **kwargs)
                finally:
                    inside.pop()
            return call

        def rng(*args, **kwargs):
            calls.append("default_rng")
            return real_rng(*args, **kwargs)

        for name in real:
            monkeypatch.setattr(svp, name, counted(name))
        monkeypatch.setattr(np.random, "default_rng", rng)
        (sol,) = svp.multistart(cd, SolverConfig(n_starts=50, rng_seed=0))
        assert sol.origin == "analytic"
        assert collections.Counter(calls) == {
            "_search": 1, "default_rng": 1, "_system": 1,
            "_sample_starts": 1, "_frame": 1}

    @pytest.mark.parametrize("search", ["_search", "meigen_reduce"])
    def test_one_system_and_no_residual_after_the_core(self, search,
                                                       monkeypatch):
        from riemsvp import svp

        # the clusters take the norms the core converged on
        cd = CORE_CASES["schwarzschild r=3"]()
        calls = []
        real_core, real_system = svp._gauss_newton, svp._system

        def core(*args):
            out = real_core(*args)
            calls.append("core")
            return out

        def system(*args, **kwargs):
            built = real_system(*args, **kwargs)
            calls.append("system")

            def residuals(*a, **k):
                calls.append("residuals")
                return built.residuals(*a, **k)

            return built._replace(residuals=residuals)

        monkeypatch.setattr(svp, "_gauss_newton", core)
        monkeypatch.setattr(svp, "_system", system)
        cfg = SolverConfig(n_starts=50, rng_seed=0)
        got = (svp._search(cd, cfg, [ALL_PLUS]) if search == "_search"
               else meigen_reduce(cd, cfg))
        assert sum(c.count for c in got) > 0
        assert calls.count("system") == 1 and calls.count("core") == 1
        assert "residuals" not in calls[calls.index("core"):]


SCHWARZSCHILD_FILE = """\
dimension = 4
coordinates = t, r, theta, phi
signature = -, +, +, +
g[0,0] = -(1 - 2 / r)
g[1,1] = 1 / (1 - 2 / r)
g[2,2] = r^2
g[3,3] = r^2 * sin(theta)^2
"""


def schwarzschild_file_cd(tmp_path):
    path = tmp_path / "schwarzschild.metric"
    path.write_text(SCHWARZSCHILD_FILE)
    return riemann(load_metric(path), [0.0, 5.0, 1.1, 0.0])


# (curvature from a scratch directory, search config); the "all" search at
# r = 3 runs 16 x 65 = 1,040 starts, so the core solves it in two slices
NORM_CASES = {
    "schwarzschild r=3 ++++": (
        lambda _: CORE_CASES["schwarzschild r=3"](), SolverConfig()),
    "schwarzschild r=3 all": (
        lambda _: CORE_CASES["schwarzschild r=3"](),
        SolverConfig(n_starts=65, sign_pattern="all")),
    "kerr all": (lambda _: kerr_cd(),
                 SolverConfig(n_starts=10, sign_pattern="all")),
    "kerr numeric": (
        lambda _: riemann(catalog.kerr(1.0, 0.7).spec,
                          [0.0, 3.0, math.pi / 3, 0.0], mode="numeric"),
        SolverConfig(n_starts=60)),
    "space-form kappa=-3 n=3": (
        lambda _: riemann(catalog.space_form(-3.0, 3).spec, np.zeros(3)),
        SolverConfig(n_starts=60)),
    "metric file all": (schwarzschild_file_cd,
                        SolverConfig(n_starts=40, sign_pattern="all")),
}


class TestClusterResiduals:
    """A converged start's core norm is the full residual of the row its
    cluster reports, so the clusters compute no residual."""

    @pytest.mark.parametrize("search", [multistart, meigen_reduce],
                             ids=["multistart", "meigen_reduce"])
    @pytest.mark.parametrize("case", sorted(NORM_CASES))
    def test_core_norm_is_full_residual(self, case, search, tmp_path,
                                        monkeypatch):
        from riemsvp import svp

        make_cd, cfg = NORM_CASES[case]
        cd = make_cd(tmp_path)
        n = cd.n
        seen = []
        real = svp._clusters

        def clusters(U, res, signs, seeds, origin):
            seen.append((U.copy(), np.array(res), np.array(signs, float)))
            return real(U, res, signs, seeds, origin)

        monkeypatch.setattr(svp, "_clusters", clusters)
        search(cd, cfg)
        (U, res, signs), = seen
        assert len(U) > 0
        # the rows as converged (a pair row embedded as (y, z, y, z, sigma))
        # and with a negative sigma flipped together with W, as reported
        flipped = U.copy()
        flip = flipped[:, 4 * n] < 0.0
        flipped[flip, :n] *= -1.0
        flipped[flip, 4 * n] *= -1.0
        assert flip.any() and not flip.all()
        full = svp._system(cd).residuals
        for rows in (U, flipped):
            norms = np.abs(full(rows, signs)).max(axis=1)
            assert norms.tobytes() == res.tobytes()


PAIR_CASES = {
    "dense n=2": lambda: dense_cd(2),
    "dense n=3": lambda: dense_cd(3),
    "dense n=4": lambda: dense_cd(4),
    "space-form n=3": lambda: riemann(catalog.space_form(0.8, 3).spec,
                                      np.zeros(3)),
    "schwarzschild r=3": CORE_CASES["schwarzschild r=3"],
}


class TestPairSystem:
    """The repeated-pair system against the full system it stands for."""

    @pytest.mark.parametrize("rows", [0, 9])
    @pytest.mark.parametrize("case", sorted(PAIR_CASES))
    def test_matches_embedded_full_system(self, case, rows):
        from riemsvp.svp import _system

        # a pair row (y, z, sigma) is the full system at (y, z, y, z,
        # sigma): its first two equations and constraints, with the
        # columns of the repeated vectors summed
        cd = PAIR_CASES[case]()
        n = cd.n
        rng = np.random.default_rng(n + rows)
        U = rng.standard_normal((rows, 2 * n + 1))
        signs = rng.choice([-1.0, 1.0], size=(rows, 2))
        full = _system(cd)
        embedded = np.concatenate([U[:, :2 * n], U], axis=1)
        sel = np.r_[0:2 * n, 4 * n, 4 * n + 1]
        want_res = full.residuals(embedded, np.tile(signs, 2))[:, sel]
        jac = full.jacobians(embedded)[:, sel]
        want_jac = np.concatenate([jac[:, :, :2 * n] + jac[:, :, 2 * n:4 * n],
                                   jac[:, :, 4 * n:]], axis=2)
        pair = _system(cd, pair=True)
        got_res, got_jac = pair.residuals(U, signs), pair.jacobians(U)
        assert got_res.shape == (rows, 2 * n + 2)
        assert got_jac.shape == (rows, 2 * n + 2, 2 * n + 1)
        # bit for bit, signed zeros included
        assert got_res.tobytes() == want_res.tobytes()
        assert got_jac.tobytes() == want_jac.tobytes()

    def test_split_batch_matches_sequential_ladder(self, monkeypatch):
        from riemsvp import svp

        cd = CORE_CASES["schwarzschild r=3"]()
        patterns = [p + p for p in itertools.product((1, -1), repeat=2)]
        cfg = SolverConfig(n_starts=12, rng_seed=0)
        want = oracles.search_reference(cd, cfg, patterns, pair=True)
        calls = recorded_core(monkeypatch)
        monkeypatch.setattr(svp, "_MAX_BATCH", 7)
        svp._search(cd, cfg, patterns, pair=True)
        # one call per slice of at most seven starts, then the whole batch
        assert len(calls) == 1 + -(-len(want[0]) // 7)
        assert_same_core_results(calls[-1], want)
        assert "converged" in set(want[3])


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
    """The block sampler against the one-draw-at-a-time fill loop, and its
    timelike slots against the one-row-at-a-time frame draw."""

    @pytest.mark.parametrize(
        "case, signs", SAMPLER_PARAMS,
        ids=[f"{case} {pattern_id(signs)}" for case, signs in SAMPLER_PARAMS])
    def test_matches_one_draw_loop(self, case, signs):
        from riemsvp.svp import _sample_starts

        cd = SAMPLER_CASES[case]()
        assert signs in feasible_patterns(cd)
        oracle = (oracles.sample_starts_one_draw if min(signs) > 0
                  else oracles.sample_starts_frame)
        for seed in (0, 5):
            for count in (1, 4, 200):
                V, attempted = _sample_starts(np.random.default_rng(seed),
                                              cd.g, signs, count)
                ref, ref_attempted = oracle(
                    np.random.default_rng(seed), cd.g, signs, count)
                assert attempted == ref_attempted
                assert np.array_equal(V, ref)

    def test_exhausted_draws_stop_sampling(self):
        from riemsvp.svp import _sample_starts

        # spacelike draws are about 4e-10 of the stream
        g = np.diag([-1e6, -1e6, -1e6, 1.0])
        for signs in ((1,), ALL_PLUS):
            V, attempted = _sample_starts(np.random.default_rng(0), g, signs,
                                          3)
            ref, ref_attempted = oracles.sample_starts_one_draw(
                np.random.default_rng(0), g, signs, 3)
            assert attempted == ref_attempted == 1
            assert V.shape == ref.shape == (0, 4 * len(signs))

    def test_timelike_slots_need_no_rejection(self):
        from riemsvp.svp import _sample_starts

        # at r = 1000 about 2.5e-7 of the Gaussian draws are timelike
        cd = riemann(catalog.schwarzschild(1.0).spec,
                     [0.0, 1000.0, 1.2, 0.0])
        V, attempted = _sample_starts(np.random.default_rng(0), cd.g,
                                      (1, 1, 1, -1), 200)
        assert attempted == 200 and V.shape == (200, 16)
        t = V[:, 12:]
        norms = np.einsum("bi,ij,bj->b", t, cd.g, t)
        assert np.abs(norms + 1.0).max() <= 1e-12
        # both time orientations
        assert (t[:, 0] > 0).any() and (t[:, 0] < 0).any()

    @pytest.mark.parametrize("spin, r, theta", [(0.9, 1000.0, 0.01),
                                                (0.5, 1.8661, 1.0)])
    def test_timelike_slots_are_exact_to_rounding(self, spin, r, theta):
        from riemsvp.svp import _timelike

        # g is ill-conditioned near the axis far out and near the horizon,
        # which eigh's frame alone leaves in <v, v> well above rounding
        g = riemann(catalog.kerr(1.0, spin).spec, [0.0, r, theta, 0.0]).g
        t = _timelike(np.random.default_rng(0), g, 2000)
        norms = np.einsum("bi,ij,bj->b", t, g, t)
        terms = np.einsum("bi,ij,bj->b", np.abs(t), np.abs(g), np.abs(t))
        eps = np.finfo(float).eps
        assert (np.abs(norms + 1.0) <= 4 * eps * terms).all()

    def test_stream_is_left_as_the_plus_slots_leave_it(self):
        from riemsvp.svp import _sample_starts

        cd = SAMPLER_CASES["kerr"]()
        for signs in feasible_patterns(cd):
            plus = tuple(s for s in signs if s > 0)
            rng, ref = np.random.default_rng(3), np.random.default_rng(3)
            _sample_starts(rng, cd.g, signs, 50)
            if plus:
                _sample_starts(ref, cd.g, plus, 50)
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_no_timelike_vector_gives_no_rows(self):
        from riemsvp.svp import _sample_starts

        g = np.diag([1.0, 2.0, 3.0])
        for signs in ((-1,), (1, -1), (-1, -1, 1, 1)):
            V, attempted = _sample_starts(np.random.default_rng(0), g, signs,
                                          3)
            assert attempted == 1
            assert V.shape == (0, 3 * len(signs))

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

        def flat(diag):
            return CurvatureData(point=np.zeros(n), g=np.diag(diag),
                                 g_inv=np.diag(1.0 / np.array(diag)),
                                 riemann_mixed=np.zeros((n,) * 4),
                                 riemann_lowered=np.zeros((n,) * 4),
                                 signature=tuple(np.sign(diag).astype(int)))

        # spacelike draws are about 4e-10 of the stream, but the frame has
        # one spacelike column, which serves both pairs
        cd = flat([-1e6, -1e6, -1e6, 1.0])
        (sol,) = _ensure_trivial([], cd, [ALL_PLUS])
        assert sol.q.signs == ALL_PLUS and sol.trivial == "all-equal"
        # a Riemannian g has no timelike column
        cd = flat([1.0, 2.0, 3.0, 4.0])
        minus = (-1, -1, -1, -1)
        assert _ensure_trivial([], cd, [minus, (1, 1, -1, -1)]) == []
        (sol,) = _ensure_trivial([], cd, [minus, (-1, -1, 1, 1), ALL_PLUS])
        assert sol.q.signs == ALL_PLUS and sol.trivial == "w=x"
        assert sol.origin == "analytic" and sol.sigma == 0.0


# (curvature from a scratch directory, patterns of the form (a, a, b, b)
# that g has); Schwarzschild converges no start there at 20 starts
ROW_CASES = {
    "schwarzschild r=100": (
        lambda _: riemann(catalog.schwarzschild(1.0).spec,
                          [0.0, 100.0, 1.2, 0.0]),
        [ALL_PLUS, (1, 1, -1, -1), (-1, -1, 1, 1), (-1, -1, -1, -1)]),
    "kerr": (lambda _: kerr_cd(),
             [ALL_PLUS, (1, 1, -1, -1), (-1, -1, 1, 1), (-1, -1, -1, -1)]),
    "sphere2": (lambda _: sphere_cd(), [ALL_PLUS]),
    "metric file": (schwarzschild_file_cd, [ALL_PLUS, (-1, -1, -1, -1)]),
}


class TestAnalyticRow:
    """The analytic sigma = 0 row comes from g's orthonormal frame."""

    def test_same_row_for_every_seed_and_no_stream(self, monkeypatch):
        cd = ROW_CASES["schwarzschild r=100"][0](None)
        rows = []
        for seed in (0, 1, 7):
            (sol,) = multistart(cd, SolverConfig(n_starts=20,
                                                 rng_seed=seed))
            assert sol.origin == "analytic" and sol.sigma == 0.0
            rows.append(sol.q.flat().tobytes())
        assert rows[0] == rows[1] == rows[2]

        from riemsvp.svp import _ensure_trivial

        def no_stream(*args, **kwargs):
            raise AssertionError("the analytic row drew from a stream")

        monkeypatch.setattr(np.random, "default_rng", no_stream)
        monkeypatch.setattr(np.random, "Generator", no_stream)
        (sol,) = _ensure_trivial([], cd, [ALL_PLUS])
        assert sol.q.flat().tobytes() == rows[0]

    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    def test_residual_is_residual_norm(self, case, tmp_path):
        from riemsvp.svp import _ensure_trivial

        make_cd, patterns = ROW_CASES[case]
        cd = make_cd(tmp_path)
        for signs in patterns:
            (sol,) = _ensure_trivial([], cd, [signs])
            assert sol.q.signs == signs
            # each equation's bivector q ^ s is zero, so the constraint rows
            # are the residual, bit for bit
            assert sol.residual == residual_norm(cd, sol.q, 0.0)
            w, x, y, z = sol.q.vectors
            assert np.array_equal(w, x) and np.array_equal(y, z)
            assert sol.residual <= 1e-14

    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    def test_label_follows_the_frame_columns(self, case, tmp_path):
        from riemsvp.svp import _ensure_trivial

        make_cd, patterns = ROW_CASES[case]
        cd = make_cd(tmp_path)
        lam = np.linalg.eigvalsh(cd.g)
        for signs in patterns:
            (sol,) = _ensure_trivial([], cd, [signs])
            columns = int(((lam > 0) == (signs[2] > 0)).sum())
            distinct = signs[0] != signs[2] or columns > 1
            assert sol.trivial == ("w=x" if distinct else "all-equal")
            assert sol.trivial == trivial_pattern(sol.q)
            v, u = sol.q.w, sol.q.y
            if distinct:
                assert abs(inner(cd.g, v, u)) <= 1e-12
            else:
                assert np.array_equal(v, u)


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

    @pytest.mark.parametrize("starts", [0, -2, 2.5, 3.0, "3", None])
    def test_starts_must_be_a_positive_integer(self, starts):
        with pytest.raises(InvalidInput, match="n_starts"):
            SolverConfig(n_starts=starts)
        assert SolverConfig(n_starts=np.int64(3)).n_starts == 3

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
        members = orbit(sol, cd)
        assert max(m.residual for m in members) < 1e-9

    def test_size_without_building_the_orbit(self):
        sizes = set()
        for entry in (catalog.sphere2(), catalog.schwarzschild(1.0)):
            cd = riemann(entry.spec, entry.default_point)
            cfg = SolverConfig(n_starts=30, rng_seed=0)
            for sol in multistart(cd, cfg):
                members = orbit(sol, cd)
                assert orbit_size(sol, cd) == len(members)
                sizes.add(len(members))
        assert sizes == {23, 26}


class TestPairOrthogonality:
    """Proposition 1, <W, X> = <Y, Z> = 0 where sigma != 0, as verify's
    prop1 check judges it on solutions put in place of the search's."""

    def prop1(self, capsys, monkeypatch, sols, metric, point):
        import json

        from riemsvp import cli

        monkeypatch.setattr(cli, "multistart", lambda cd, cfg: sols)
        cli.main(["verify", "--metric", metric, "--point",
                  ",".join(repr(v) for v in point), "--starts", "20",
                  "--deterministic"])
        checks = json.loads(capsys.readouterr().out)["checks"]
        return {c["name"]: c for c in checks}["prop1"]

    def test_sphere_solution_orthogonal(self, capsys, monkeypatch):
        sol = SVPSolution(q=sphere_solution(), sigma=1.0, residual=0.0)
        check = self.prop1(capsys, monkeypatch, [sol], "sphere2",
                           [math.pi / 3, 0.0])
        assert (check["pass"], check["skipped"]) == (True, False)
        assert check["max_defect"] == 0.0

    def test_trivial_passes_via_zero_sigma(self, capsys, monkeypatch):
        # skipped, not failed: there is no non-zero sigma to judge
        v = np.array([1.0, 0.0])
        quad = Quadruple(v, v.copy(), v.copy(), v.copy())
        check = self.prop1(capsys, monkeypatch,
                           [SVPSolution(q=quad, sigma=0.0, residual=0.0)],
                           "sphere2", [math.pi / 3, 0.0])
        assert (check["pass"], check["skipped"]) == (True, True)
        assert check["note"] == "no non-zero sigma converged"

    def test_violating_tuple_fails(self, capsys, monkeypatch):
        cd = sphere_cd(math.pi / 2)
        w = np.array([1.0, 0.0])
        x = np.array([0.5, math.sqrt(3.0) / 2.0])  # <w, x> = 0.5
        quad = Quadruple(w, x, w.copy(), x.copy())
        sol = SVPSolution(q=quad, sigma=1.0, residual=0.0)
        check = self.prop1(capsys, monkeypatch, [sol], "sphere2",
                           [math.pi / 2, 0.0])
        assert (check["pass"], check["skipped"]) == (False, False)
        assert check["max_defect"] == pytest.approx(0.5, abs=1e-15)
        assert residual_norm(cd, quad, 1.0) > 1e-3

    @pytest.mark.parametrize("slot", [1, 3], ids=["x", "z"])
    def test_non_finite_product_fails(self, capsys, monkeypatch, slot):
        vecs = list(sphere_solution().vectors)
        vecs[slot] = np.array([math.nan, 0.0])
        sol = SVPSolution(q=Quadruple(*vecs), sigma=1.0, residual=0.0)
        check = self.prop1(capsys, monkeypatch, [sol], "sphere2",
                           [math.pi / 3, 0.0])
        assert check["pass"] is False
        assert check["max_defect"] is None

    def test_small_sigma_is_checked(self, capsys, monkeypatch):
        # sigma = M / r^3 = 1e-9 at r = 1000 is not zero at that curvature
        point = [0.0, 1000.0, 1.2, 0.0]
        cd = riemann(catalog.schwarzschild(1.0).spec, point)
        sol = schwarzschild_reduced_solve(1.0, 1000.0, 1.2)
        assert sol.sigma == pytest.approx(1e-9, rel=1e-12)
        check = self.prop1(capsys, monkeypatch, [sol], "schwarzschild", point)
        assert (check["pass"], check["skipped"]) == (True, False)
        q = sol.q
        bad = replace(sol, q=Quadruple(q.w, q.w.copy(), q.y, q.z, q.signs))
        assert inner(cd.g, bad.q.w, bad.q.x) == pytest.approx(1.0)
        check = self.prop1(capsys, monkeypatch, [bad], "schwarzschild", point)
        assert (check["pass"], check["skipped"]) == (False, False)


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

    def test_two_negative_pattern(self):
        cd = riemann(catalog.schwarzschild(1.0).spec,
                     [0.0, 3.0, math.pi / 4, 0.0])
        rep = lorentz_mixed_sign_check(
            cd, SolverConfig(n_starts=100, rng_seed=8, sign_pattern="++--"))
        assert rep.n_converged > 0
        assert rep.max_abs_sigma < 1e-8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("signs", ["++--", "--++"])
    def test_counts_converged_starts_only(self, signs, seed):
        # no start of these patterns converges at r = 20, and multistart's
        # analytic sigma = 0 row is not one of the search's starts
        cd = riemann(catalog.schwarzschild(1.0).spec,
                     [0.0, 20.0, 1.2, 0.0])
        rep = lorentz_mixed_sign_check(
            cd, SolverConfig(rng_seed=seed, sign_pattern=signs))
        assert rep.n_converged == 0
        assert rep.max_abs_sigma == 0.0

    def test_riemannian_raises(self):
        cd = sphere_cd()
        with pytest.raises(WrongSignature):
            lorentz_mixed_sign_check(cd, SolverConfig(n_starts=5))


class TestSchwarzschildReduced:
    def test_sigma_m_over_r_cubed(self):
        sol = schwarzschild_reduced_solve(1.0, 3.0, math.pi / 4)
        assert abs(sol.sigma - 1.0 / 27.0) < 1e-12
        assert sol.residual < 1e-10
        assert sol.origin == "reduced"

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


class TestReducedScale:
    """sigma(c^2 g) = sigma(g) / c^2: with every length in units of M the
    reduced sigma times M^2 does not depend on M."""

    @pytest.mark.parametrize("mass", [1e-3, 1.0, 1e3])
    def test_schwarzschild(self, mass):
        sol = schwarzschild_reduced_solve(mass, 3.0 * mass, 1.0)
        assert sol.sigma * mass ** 2 == pytest.approx(1.0 / 27.0, rel=1e-12)

    @pytest.mark.parametrize("mass", [1e-3, 1e3])
    def test_kerr(self, mass):
        want = kerr_reduced_solve(1.0, 0.5, 3.0, 1.0).sigma
        sol = kerr_reduced_solve(mass, 0.5 * mass, 3.0 * mass, 1.0)
        assert sol.sigma * mass ** 2 == pytest.approx(want, rel=1e-12)


class TestKerrReduced:
    def test_equator_matches_static_value(self):
        sol = kerr_reduced_solve(1.0, 0.5, 3.0, math.pi / 2)
        assert abs(sol.sigma - 1.0 / 27.0) < 1e-8
        assert sol.origin == "reduced"

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

    @pytest.mark.parametrize("spin, r, theta", [(0.9, 1.5, 0.1),
                                                (0.99, 1.2, 0.05)])
    def test_negative_re_psi2(self, spin, r, theta):
        # near the axis at high spin Re psi2 < 0 outside the horizon; the
        # reported sigma is |Re psi2|, the special family's value
        entry = catalog.kerr(1.0, spin)
        p = np.array([0.0, r, theta, 0.0])
        assert np_scalars(riemann(entry.spec, p), entry.tetrad(p))[2].real < 0
        want = entry.expected_sigma(p)[1][0]
        sol = kerr_reduced_solve(1.0, spin, r, theta)
        assert sol.sigma == pytest.approx(want, rel=1e-12)
        assert sol.residual < 1e-10

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

    EINSTEIN = {"kappa": 1.0, "ricci_scalar": 3.0, "n": 4}

    @pytest.mark.parametrize("bad", [
        {"n": 3.7}, {"n": math.nan}, {"n": "4x"}, {"n": math.inf},
        {"ricci_scalar": "x"}, {"kappa": math.nan}],
        ids=["fractional-n", "nan-n", "text-n", "inf-n", "text-scalar",
             "nan-kappa"])
    def test_bad_value_is_bad_case(self, bad):
        # n = 3.7 used to be truncated to 3 without a word
        with pytest.raises(BadCase):
            closed_form_sigma("einstein", **(self.EINSTEIN | bad))

    def test_space_form_needs_finite_kappa(self):
        with pytest.raises(BadCase):
            closed_form_sigma("space-form", kappa=math.inf)


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
