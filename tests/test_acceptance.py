"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from riemsvp import catalog
from riemsvp.algebra import (inner, invariant_i, kretschmann, np_scalars,
                             ricci)
from riemsvp.cli import _SYMMETRY_TOL, main
from riemsvp.geometry import riemann, verify_tensor_symmetries
from riemsvp.svp import (SolverConfig, closed_form_sigma, kerr_reduced_solve,
                         lorentz_mixed_sign_check, multistart, orbit,
                         schwarzschild_reduced_solve, sigma_from_tensor,
                         sigma_values, wedge_det_defect)


def criterion(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status}" + (f"  ({detail})" if detail else ""))
    assert ok, f"acceptance criterion {num} [{name}] failed: {detail}"


def test_acceptance_1_sphere():
    t0 = time.monotonic()
    cd = riemann(catalog.sphere2().spec, [math.pi / 3, 0.0])
    sols = multistart(cd, SolverConfig(n_starts=60, rng_seed=7))
    elapsed = time.monotonic() - t0

    ones = [s for s in sols if abs(s.sigma - 1.0) < 1e-8]
    zeros = [s for s in sols if abs(s.sigma) < 1e-8 and s.trivial]
    ok = (bool(ones) and ones[0].residual < 1e-10 and bool(zeros)
          and elapsed < 5.0)
    criterion(1, "sphere", ok,
              f"sigma={ones[0].sigma if ones else None}, "
              f"residual={ones[0].residual if ones else None:.2e}, "
              f"trivial={bool(zeros)}, {elapsed:.2f}s")


def test_acceptance_2_space_forms():
    failures = []
    for kappa in (-2.0, -0.5, 0.5, 1.0, 2.0):
        for n in (3, 4):
            cd = riemann(catalog.space_form(kappa, n).spec, np.zeros(n))
            sols = multistart(cd, SolverConfig(n_starts=60, rng_seed=17))
            values = sigma_values(sols)
            nonzero = [v for v in values if v > 1e-8]
            if not any(abs(v - abs(kappa)) < 1e-8 for v in nonzero):
                failures.append((kappa, n, values))
            if any(abs(v - abs(kappa)) > 1e-8 for v in nonzero):
                failures.append(("extra", kappa, n, values))
    for n in (3, 4):
        cd = riemann(catalog.space_form(0.0, n).spec, np.zeros(n))
        sols = multistart(cd, SolverConfig(n_starts=30, rng_seed=23))
        if [v for v in sigma_values(sols) if v > 1e-8]:
            failures.append((0.0, n, sigma_values(sols)))
    criterion(2, "space-forms", not failures, str(failures))


def test_acceptance_3_schwarzschild():
    worst_sigma = 0.0
    worst_k1 = 0.0
    worst_ident = 0.0
    for mass in (1.0, 2.0):
        for mult in (3.0, 5.0, 10.0):
            r = mult * mass
            sol = schwarzschild_reduced_solve(mass, r, math.pi / 4)
            worst_sigma = max(worst_sigma, abs(sol.sigma - mass / r ** 3))
            cd = riemann(catalog.schwarzschild(mass).spec,
                         [0.0, r, math.pi / 4, 0.0])
            k1 = kretschmann(cd)
            k1_exact = 48.0 * mass ** 2 / r ** 6
            worst_k1 = max(worst_k1, abs(k1 - k1_exact) / k1_exact)
            worst_ident = max(worst_ident,
                              abs(sol.sigma - math.sqrt(k1 / 48.0)))
    ok = worst_sigma < 1e-10 and worst_k1 < 1e-10 and worst_ident < 1e-10
    criterion(3, "schwarzschild", ok,
              f"sigma defect {worst_sigma:.2e}, K1 rel {worst_k1:.2e}, "
              f"identity {worst_ident:.2e}")


def test_acceptance_4_kerr():
    rng = np.random.default_rng(41)
    worst_small = 0.0
    worst_psi2 = 0.0
    worst_sigma = 0.0
    for a in (0.3, 0.5, 0.9):
        entry = catalog.kerr(1.0, a)
        for _ in range(10):
            r = rng.uniform(2.5, 9.0)
            th = rng.uniform(0.4, math.pi - 0.4)
            p = np.array([0.0, r, th, 0.0])
            cd = riemann(entry.spec, p)
            psis = np_scalars(cd, entry.tetrad(p))
            worst_small = max(worst_small,
                              *(abs(psis[k]) for k in (0, 1, 3, 4)))
            analytic = 1.0 / (r - 1j * a * math.cos(th)) ** 3
            worst_psi2 = max(worst_psi2, abs(psis[2] - analytic))
            inv = invariant_i(psis)
            want = math.sqrt((abs(inv) + inv.real) / 6.0)
            sol = kerr_reduced_solve(1.0, a, r, th)
            worst_sigma = max(worst_sigma, abs(sol.sigma - want))
    # zero-spin limit against the static solver
    sol_a0 = kerr_reduced_solve(1.0, 1e-9, 3.0, math.pi / 2)
    sol_s = schwarzschild_reduced_solve(1.0, 3.0, math.pi / 2)
    limit_defect = abs(sol_a0.sigma - sol_s.sigma)
    ok = (worst_small < 1e-8 and worst_psi2 < 1e-8 and worst_sigma < 1e-8
          and limit_defect < 1e-8)
    criterion(4, "kerr", ok,
              f"|psi others| {worst_small:.2e}, psi2 defect {worst_psi2:.2e}, "
              f"sigma defect {worst_sigma:.2e}, a->0 {limit_defect:.2e}")


def test_acceptance_5_closed_forms():
    worst_unit = 0.0
    worst_match = 0.0
    for n in (3, 4, 5):
        kappa_einstein = n - 1.0
        scal = n * (n - 1.0)
        val = closed_form_sigma("einstein", kappa=kappa_einstein,
                                ricci_scalar=scal, n=n)
        worst_unit = max(worst_unit, abs(val - 1.0))
        if n in (3, 4):
            cd = riemann(catalog.space_form(1.0, n).spec, np.zeros(n))
            sols = multistart(cd, SolverConfig(n_starts=50, rng_seed=29))
            best = min((abs(s.sigma - val) for s in sols
                        if abs(s.sigma) > 1e-8), default=math.inf)
            worst_match = max(worst_match, best)
        reduced = closed_form_sigma("ricci-pair", lam=kappa_einstein,
                                    mu=kappa_einstein, ricci_scalar=scal, n=n)
        worst_unit = max(worst_unit, abs(reduced - val))
    ok = worst_unit < 1e-12 and worst_match < 1e-8
    criterion(5, "closed-forms", ok,
              f"unit-sphere defect {worst_unit:.2e}, "
              f"multistart match {worst_match:.2e}")


def test_acceptance_6_property_suites():
    t0 = time.monotonic()
    rng = np.random.default_rng(61)
    issues = []

    def points_for(entry, count=20):
        mid = entry.spec.id
        out = []
        for _ in range(count):
            if mid == "sphere2":
                out.append(np.array([rng.uniform(0.3, math.pi - 0.3),
                                     rng.uniform(0, 2 * math.pi)]))
            elif mid in ("schwarzschild", "kerr"):
                m = entry.params.get("M", 1.0)
                out.append(np.array([rng.uniform(-1, 1),
                                     rng.uniform(2.5 * m, 12.0 * m),
                                     rng.uniform(0.3, math.pi - 0.3),
                                     rng.uniform(0, 2 * math.pi)]))
            else:
                out.append(rng.standard_normal(entry.spec.dimension))
        return out

    entries = [catalog.sphere2(), catalog.space_form(2.0, 3),
               catalog.space_form(1.5, 4), catalog.euclidean(3),
               catalog.minkowski(), catalog.schwarzschild(1.0),
               catalog.kerr(1.0, 0.5)]

    # symmetry and Bianchi defects at 20 random admissible points
    for entry in entries:
        for p in points_for(entry):
            cd = riemann(entry.spec, p)
            rep = verify_tensor_symmetries(cd)
            if not rep.max_defect < _SYMMETRY_TOL:
                issues.append(("symmetry", entry.spec.id, rep.max_defect))

    # solver-based checks per metric at its default point
    for entry in entries:
        cd = riemann(entry.spec, entry.default_point)
        sols = multistart(cd, SolverConfig(n_starts=40, rng_seed=67))
        for sol in sols:
            if abs(sol.sigma) > 1e-8:
                d = max(abs(inner(cd.g, sol.q.w, sol.q.x)),
                        abs(inner(cd.g, sol.q.y, sol.q.z)))
                if d >= 1e-8:
                    issues.append(("prop1", entry.spec.id, d))
            members = orbit(sol, cd)
            worst = max(m.residual for m in members)
            if worst >= 1e-9:
                issues.append(("orbit", entry.spec.id, worst))
            if sol.q.signs == (1, 1, 1, 1):
                d = abs(sol.sigma - sigma_from_tensor(cd, sol.q))
                if d >= 1e-8:
                    issues.append(("sigma-R", entry.spec.id, d))

    # mixed-sign vanishing on the Lorentz metrics
    for entry in (catalog.minkowski(), catalog.schwarzschild(1.0),
                  catalog.kerr(1.0, 0.5)):
        cd = riemann(entry.spec, entry.default_point)
        rep = lorentz_mixed_sign_check(
            cd, SolverConfig(n_starts=50, rng_seed=71, sign_pattern="+++-"))
        if rep.max_abs_sigma >= 1e-8:
            issues.append(("mixed-sign", entry.spec.id, rep.max_abs_sigma))

    # constant-curvature identities
    for kappa, n in ((2.0, 3), (1.5, 4)):
        cd = riemann(catalog.space_form(kappa, n).spec, np.zeros(n))
        sols = multistart(cd, SolverConfig(n_starts=40, rng_seed=73))
        ric = ricci(cd)
        for s in sols:
            if abs(s.sigma) <= 1e-8:
                continue
            w, x, y, z = s.q.vectors
            g = cd.g
            defects = [
                abs(kappa * inner(g, z, x) - s.sigma * inner(g, w, y)),
                abs(-kappa * inner(g, y, x) - s.sigma * inner(g, w, z)),
                abs(-kappa * inner(g, z, w) - s.sigma * inner(g, x, y)),
                abs(kappa * inner(g, y, w) - s.sigma * inner(g, x, z)),
                abs(inner(g, w, y) ** 2 + inner(g, w, z) ** 2 - 1.0),
            ]
            if max(defects) >= 1e-8:
                issues.append(("example2", (kappa, n), max(defects)))
            if n == 4:
                lhs = float(w @ ric @ w + x @ ric @ x)
                rhs = float(y @ ric @ y + z @ ric @ z)
                if abs(lhs - rhs) >= 1e-8:
                    issues.append(("example3", (kappa, n), abs(lhs - rhs)))

    # wedge determinant identity on static black-hole solutions
    cd = riemann(catalog.schwarzschild(1.0).spec,
                 [0.0, 3.0, math.pi / 4, 0.0])
    sols = multistart(cd, SolverConfig(n_starts=60, rng_seed=79))
    for s in sols:
        d = wedge_det_defect(s.q.y, s.q.z)
        if d >= 1e-8:
            issues.append(("wedge-det", "schwarzschild", d))

    elapsed = time.monotonic() - t0
    ok = not issues and elapsed < 120.0
    criterion(6, "property-suites", ok,
              f"{len(issues)} issues, {elapsed:.1f}s: {issues[:4]}")


def test_acceptance_7_numeric_vs_analytic():
    rng = np.random.default_rng(71)
    entry = catalog.schwarzschild(1.0)
    worst = 0.0
    for _ in range(20):
        p = np.array([rng.uniform(-1, 1), rng.uniform(2.5, 12.0),
                      rng.uniform(0.3, math.pi - 0.3),
                      rng.uniform(0, 2 * math.pi)])
        cd_a = riemann(entry.spec, p)
        cd_n = riemann(entry.spec, p, mode="numeric")
        scale = np.abs(cd_a.riemann_mixed).max()
        worst = max(worst, float(
            np.abs(cd_a.riemann_mixed - cd_n.riemann_mixed).max() / scale))
    criterion(7, "numeric-vs-analytic", worst < 1e-6,
              f"worst relative defect {worst:.2e}")


def test_acceptance_8_cli_determinism(capsys, tmp_path):
    argv = ["svp", "--metric", "sphere2", "--seed", "7", "--deterministic",
            "--output", "json", "--point", "1.0472,0", "--starts", "40"]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    identical = (code1 == code2 == 0) and out1.encode() == out2.encode()

    bad = tmp_path / "corrupt.metric"
    bad.write_text("dimension = 2\ncoordinates = u, v\n"
                   "g[0,0] = 1\ng[1,1] = 1 + u^2\n"
                   "g[0,1] = u\ng[1,0] = 0 - u\n")
    code3 = main(["verify", "--metric", str(bad), "--point", "0.4,0.1",
                  "--starts", "5", "--deterministic"])
    capsys.readouterr()
    with capsys.disabled():
        criterion(8, "cli-determinism",
                  identical and code3 == 5,
                  f"identical={identical}, corrupt-exit={code3}")
