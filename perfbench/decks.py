"""The four workloads, each a deck of queries with its oracle.

A deck is the fixed unit of work of one run: the benchmark answers it once
(one *pass*) and then again while time is left.  Every query is independent
and deterministic, so each pass repeats the first one exactly.

Each workload is one design of strata (a range of radii, a decade of
curvature, an angle band) built twice:

* the *reference* half takes each stratum's midpoint and start seed 0, and
  so is the same for every ``--seed``.  The quality ratios (yield, recall,
  genuine clusters) are measured on it: they then repeat exactly at a given
  commit, and a change in them is the program's, not the seed's.  Solver
  outcomes at the baseline's defect inputs are a handful of discrete events,
  too few to average over seeds.
* the *seeded* half draws every parameter and start seed inside the same
  strata from ``--seed``.  Timings and rates are measured over both halves.

The baseline's defect inputs (Schwarzschild r = 100 and r = 1000, the
radius-10 and radius-1e-3 spheres, |kappa| from 1e-4 to 1e4) are in both.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracle
from oracle import CROSS_REL, Tally, close

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
METRIC_FILES = BENCH / "metrics"
HALFPLANE = METRIC_FILES / "halfplane.metric"
SCHWARZSCHILD_FILE = METRIC_FILES / "schwarzschild-m1.metric"
MASS = 1.0
CATALOG_IDS = ["euclidean", "kerr", "minkowski", "schwarzschild", "space-form",
               "sphere2"]


@dataclass
class Query:
    label: str
    execute: Callable[[], Any]       # the timed call into the system
    assess: Callable[[Any], Tally]   # the oracle, run untimed
    digest: Callable[[Any], Any]     # must repeat exactly on every pass
    starts: int = 0                  # solver attempts the query asks for
    reference: bool = False


@dataclass
class Deck:
    queries: list
    tail_pct: int                    # fixed per workload so commits compare

    def size(self) -> dict:
        ref = [q for q in self.queries if q.reference]
        return {"queries": len(self.queries), "reference_queries": len(ref),
                "solver_attempts": sum(q.starts for q in self.queries)}


class Reference:
    """Stratum midpoints and start seed 0: the same inputs for every seed."""

    reference = True

    def uniform(self, lo, hi) -> float:
        return 0.5 * (lo + hi)

    def log_uniform(self, lo, hi) -> float:
        return math.sqrt(lo * hi)

    def start_seed(self) -> int:
        return 0


class Seeded:
    """Parameters and start seeds drawn from the run's seed."""

    reference = False

    def __init__(self, seed: int, stream: int):
        self._rng = np.random.default_rng([seed, stream])

    def uniform(self, lo, hi) -> float:
        return float(self._rng.uniform(lo, hi))

    def log_uniform(self, lo, hi) -> float:
        return float(math.exp(self._rng.uniform(math.log(lo), math.log(hi))))

    def start_seed(self) -> int:
        return int(self._rng.integers(2 ** 31))


def _theta(draw) -> float:
    return draw.uniform(0.4, math.pi - 0.4)


def _both_halves(build, seed, stream, *args, tail_pct):
    queries = []
    for draw in (Reference(), Seeded(seed, stream)):
        for q in build(draw, *args):
            q.reference = draw.reference
            queries.append(q)
    return Deck(queries, tail_pct)


# -- in-process multistart ---------------------------------------------------

def _multistart_query(rs, label, spec, point, cfg, expected, meigen=False,
                      cross=None) -> Query:
    point = np.asarray(point, dtype=float)
    patterns = 16 if cfg.sign_pattern == "all" else 1

    def execute():
        cd = rs.riemann(spec, point)
        sols = rs.multistart(cd, cfg)
        reduced = rs.meigen_reduce(cd, cfg) if meigen else []
        return cd, sols, reduced

    def assess(res):
        cd, sols, reduced = res
        tally = oracle.assess_clusters(oracle.solution_clusters(sols), cd.g,
                                       cd.riemann_mixed, expected)
        tally.attempts = cfg.n_starts * patterns
        tally.converged = sum(s.count for s in sols if s.origin == "multistart")
        if meigen:
            tally.add(oracle.assess_clusters(oracle.solution_clusters(reduced),
                                             cd.g, cd.riemann_mixed, expected))
        if cross is not None:
            cross(cd, tally)
        return tally

    def digest(res):
        _, sols, reduced = res
        return [(s.sigma, s.count, s.origin) for s in sols + reduced]

    return Query(label, execute, assess, digest, starts=cfg.n_starts * patterns)


def _riemannian_half(draw, rs):
    sphere = rs.catalog.get("sphere2")
    unit_g = sphere.spec.g

    def cfg(starts):
        return rs.SolverConfig(n_starts=starts, rng_seed=draw.start_seed())

    for lo, hi in ((0.4, math.pi / 2), (math.pi / 2, math.pi - 0.4)):
        yield _multistart_query(rs, "sphere2", sphere.spec,
                                [draw.uniform(lo, hi), 0.0], cfg(100), [1.0])
    # A homothety keeps the Christoffels and the mixed curvature, so the
    # analytic tables stay valid while sigma scales as 1 / a**2.
    radii = [10.0, 1e-3] + [draw.log_uniform(10.0 ** e, 10.0 ** (e + 0.5))
                            for e in np.arange(-2.0, 2.0, 0.5)]
    for a in radii:
        spec = replace(sphere.spec, g=lambda p, a=a: a * a * unit_g(p),
                       id="sphere2-scaled")
        yield _multistart_query(rs, f"sphere radius {a:.3g}", spec,
                                [_theta(draw), 0.0], cfg(40), [1.0 / a ** 2])
    for e in range(-4, 4):
        for sign in (1.0, -1.0):
            n = 3 + (e + (sign < 0)) % 2
            kappa = sign * draw.log_uniform(10.0 ** e, 10.0 ** (e + 1))
            entry = rs.catalog.get("space-form", kappa=kappa, n=n)
            yield _multistart_query(
                rs, f"space-form kappa={kappa:.3g} n={n}", entry.spec,
                np.zeros(n), cfg(40), [abs(kappa)], meigen=True)
    for n in (3, 4):
        yield _multistart_query(rs, f"euclidean n={n}",
                                rs.catalog.get("euclidean", n=n).spec,
                                np.zeros(n), cfg(100), [])


def ms_riemannian(seed, rs, runner=None) -> Deck:
    """Spheres of several radii, space forms, flat space: analytic curvature."""
    return _both_halves(_riemannian_half, seed, 1, rs, tail_pct=80)


def _schwarzschild_cross(rs, r):
    def cross(cd, tally):
        k = rs.compute_invariants(cd).kretschmann
        tally.check(close(math.sqrt(k / 48.0), oracle.schwarzschild_sigma(MASS, r),
                          CROSS_REL),
                    f"sqrt(K/48) = {math.sqrt(k / 48.0)!r} is not M/r^3 at r={r}")
    return cross


def _kerr_cross(rs, entry, point, spin):
    def cross(cd, tally):
        inv = rs.compute_invariants(cd, entry.tetrad(point)).invariant_i
        want = oracle.kerr_sigma(MASS, spin, point[1], point[2])
        tally.check(close(oracle.sigma_from_invariant(inv), want, CROSS_REL),
                    f"Kerr sigma from I = {inv!r} is not {want!r}")
    return cross


def _lorentz_half(draw, rs):
    schw = rs.catalog.get("schwarzschild", M=MASS)

    def schw_query(label, r, theta, starts, rng_seed, signs="++++"):
        cfg = rs.SolverConfig(n_starts=starts, rng_seed=rng_seed,
                              sign_pattern=signs)
        return _multistart_query(rs, label, schw.spec, [0.0, r, theta, 0.0],
                                 cfg, [oracle.schwarzschild_sigma(MASS, r)],
                                 cross=_schwarzschild_cross(rs, r))

    if draw.reference:
        # The baseline's anchor: 52 of its 200 starts converged when this
        # benchmark was added.
        yield schw_query("schwarzschild r=3 anchor", 3.0, math.pi / 4, 200, 0)
    for r in (100.0, 1000.0):
        yield schw_query(f"schwarzschild r={r:g}", r, _theta(draw), 200,
                         draw.start_seed())
    edges = np.geomspace(3.0, 1000.0, 25)
    for lo, hi in zip(edges[:-1], edges[1:]):
        r = draw.log_uniform(lo, hi)
        yield schw_query(f"schwarzschild r={r:.4g}", r, _theta(draw), 50,
                         draw.start_seed())
    edges = np.linspace(0.35, 1.95, 5)
    for lo, hi in zip(edges[:-1], edges[1:]):
        spin = draw.uniform(0.2, 0.9)
        entry = rs.catalog.get("kerr", M=MASS, a=spin)
        point = np.array([0.0, draw.uniform(3.5, 8.0), draw.uniform(lo, hi), 0.0])
        cfg = rs.SolverConfig(n_starts=50, rng_seed=draw.start_seed())
        yield _multistart_query(
            rs, f"kerr a={spin:.3g} r={point[1]:.3g} theta={point[2]:.3g}",
            entry.spec, point, cfg,
            [oracle.kerr_sigma(MASS, spin, point[1], point[2])],
            cross=_kerr_cross(rs, entry, point, spin))
    for lo, hi in ((3.0, 5.0), (5.0, 10.0), (10.0, 30.0)):
        r = draw.log_uniform(lo, hi)
        yield schw_query(f"schwarzschild r={r:.4g} all patterns", r,
                         _theta(draw), 4, draw.start_seed(), signs="all")


def ms_lorentz(seed, rs, runner=None) -> Deck:
    """Schwarzschild over r in [3M, 1000M] and Kerr: indefinite sampling."""
    return _both_halves(_lorentz_half, seed, 2, rs, tail_pct=80)


# -- curvature sweep ---------------------------------------------------------

def _sweep_half(draw, rs, points):
    halfplane = rs.metricfile.load_metric(HALFPLANE)
    schw_file = rs.metricfile.load_metric(SCHWARZSCHILD_FILE)
    schw = rs.catalog.get("schwarzschild", M=MASS)
    r_edges = np.geomspace(2.5, 50.0, points + 1)
    for i in range(points):
        spin = draw.uniform(0.1, 0.9)
        kerr = rs.catalog.get("kerr", M=MASS, a=spin)
        pk = np.array([0.0, draw.log_uniform(3.0, 30.0), _theta(draw), 0.0])
        ps = np.array([0.0, draw.log_uniform(r_edges[i], r_edges[i + 1]),
                       _theta(draw), 0.0])
        ph = np.array([draw.uniform(-2.0, 2.0), draw.log_uniform(0.2, 5.0)])
        yield _sweep_query(rs, i, kerr, spin, pk, schw, schw_file, ps,
                           halfplane, ph)


def curvature_sweep(seed, rs, runner=None) -> Deck:
    """Numeric curvature, invariants and reduced solves; no multistart."""
    return _both_halves(_sweep_half, seed, 3, rs, 32, tail_pct=90)


def _sweep_query(rs, i, kerr, spin, pk, schw, schw_file, ps, halfplane, ph):
    def execute():
        cd_k = rs.riemann(kerr.spec, pk)
        inv_k = rs.compute_invariants(cd_k, kerr.tetrad(pk))
        sol_k = rs.kerr_reduced_solve(MASS, spin, pk[1], pk[2])
        cd_s = rs.riemann(schw.spec, ps, mode="numeric")
        inv_s = rs.compute_invariants(cd_s)
        sol_s = rs.schwarzschild_reduced_solve(MASS, ps[1], ps[2])
        cd_f = rs.riemann(schw_file, ps)
        inv_f = rs.compute_invariants(cd_f)
        cd_h = rs.riemann(halfplane, ph)
        inv_h = rs.compute_invariants(cd_h)
        return cd_k, inv_k, sol_k, cd_s, inv_s, sol_s, cd_f, inv_f, inv_h

    def assess(res):
        cd_k, inv_k, sol_k, cd_s, inv_s, sol_s, cd_f, inv_f, inv_h = res
        r = ps[1]
        kretschmann = 48.0 * MASS ** 2 / r ** 6
        sigma_k = oracle.kerr_sigma(MASS, spin, pk[1], pk[2])
        tally = oracle.assess_clusters(oracle.solution_clusters([sol_k]),
                                       cd_k.g, cd_k.riemann_mixed, [sigma_k])
        tally.add(oracle.assess_clusters(
            oracle.solution_clusters([sol_s]), cd_s.g, cd_s.riemann_mixed,
            [oracle.schwarzschild_sigma(MASS, r)]))
        tally.attempts = tally.converged = 2
        tally.check(close(oracle.sigma_from_invariant(inv_k.invariant_i),
                          sigma_k, CROSS_REL),
                    f"Kerr invariant I = {inv_k.invariant_i!r} disagrees")
        tally.check(close(inv_s.kretschmann, kretschmann, CROSS_REL),
                    f"Schwarzschild K = {inv_s.kretschmann!r} at r={r!r}")
        tally.check(close(inv_f.kretschmann, kretschmann, CROSS_REL),
                    f"metric-file Schwarzschild K = {inv_f.kretschmann!r}")
        scale = np.abs(cd_s.riemann_lowered).max()
        gap = np.abs(cd_f.riemann_lowered - cd_s.riemann_lowered).max()
        tally.check(gap <= CROSS_REL * scale,
                    f"metric-file and catalog curvature differ by {gap!r}")
        tally.check(close(inv_h.ricci_scalar, -2.0, CROSS_REL),
                    f"half-plane scalar curvature {inv_h.ricci_scalar!r}")
        return tally

    def digest(res):
        _, inv_k, sol_k, _, inv_s, sol_s, _, inv_f, inv_h = res
        return (sol_k.sigma, sol_s.sigma, inv_k.kretschmann, inv_s.kretschmann,
                inv_f.kretschmann, inv_h.ricci_scalar)

    return Query(f"sweep point {i}", execute, assess, digest, starts=2)


# -- CLI reports -------------------------------------------------------------

def _point(values) -> str:
    # One token, so argparse cannot take a leading minus for an option.
    return "--point=" + ",".join(repr(float(v)) for v in values)


def _cli_half(draw, rs, runner):
    halfplane = str(HALFPLANE.relative_to(ROOT))

    def query(label, args, check=None, code=0, starts=0):
        return _cli_query(label, args, check, code, starts, runner)

    def seed_args(starts):
        return ["--starts", str(starts), "--seed", str(draw.start_seed())]

    r, th = draw.log_uniform(3.0, 30.0), _theta(draw)
    yield query("invariants schwarzschild",
                ["invariants", "--metric", "schwarzschild", "--params", "M=1",
                 _point([0, r, th, 0]), "--deterministic"], _check_kretschmann(r))
    spin, rk, thk = draw.uniform(0.1, 0.9), draw.log_uniform(3.0, 30.0), _theta(draw)
    yield query("invariants kerr",
                ["invariants", "--metric", "kerr", "--params", f"M=1,a={spin!r}",
                 _point([0, rk, thk, 0]), "--deterministic"],
                _check_invariant_i(spin, rk, thk))
    yield query("invariants half-plane file",
                ["invariants", "--metric", halfplane,
                 _point([draw.uniform(-2, 2), draw.log_uniform(0.2, 5.0)]),
                 "--deterministic"], _check_ricci_scalar(-2.0))
    yield query("svp schwarzschild reduced",
                ["svp", "--metric", "schwarzschild", "--params", "M=1",
                 _point([0, r, th, 0]), "--method", "reduced", "--deterministic"],
                _check_solutions(rs, "schwarzschild", {"M": 1.0}, [0, r, th, 0],
                                 [oracle.schwarzschild_sigma(MASS, r)], True),
                starts=1)
    kappa = draw.log_uniform(0.1, 10.0) * (1.0 if draw.reference else -1.0)
    far = 1000.0
    solves = [
        ("svp sphere2", "sphere2", {}, [_theta(draw), 0.0], [1.0]),
        ("svp space-form", "space-form", {"kappa": kappa, "n": 3}, [0, 0, 0],
         [abs(kappa)]),
        ("svp schwarzschild", "schwarzschild", {"M": 1.0}, [0, r, th, 0],
         [oracle.schwarzschild_sigma(MASS, r)]),
        ("svp schwarzschild far field", "schwarzschild", {"M": 1.0},
         [0, far, th, 0], [oracle.schwarzschild_sigma(MASS, far)]),
        ("svp half-plane file", halfplane, None,
         [draw.uniform(-2, 2), draw.log_uniform(0.2, 5.0)], [1.0]),
    ]
    for label, metric, params, point, expected in solves:
        args = ["svp", "--metric", metric, _point(point), "--method",
                "multistart", *seed_args(50), "--deterministic"]
        if params:
            args[3:3] = ["--params",
                         ",".join(f"{k}={v!r}" for k, v in params.items())]
        yield query(label, args,
                    _check_solutions(rs, metric, params, point, expected),
                    starts=50)
    th = _theta(draw)
    yield query("orbit sphere2",
                ["orbit", "--metric", "sphere2", _point([th, 0]), *seed_args(50),
                 "--deterministic"], _check_orbit(rs, [th, 0.0]))
    kappa = draw.log_uniform(0.1, 10.0) * (-1.0 if draw.reference else 1.0)
    yield query("verify space-form",
                ["verify", "--metric", "space-form", "--params",
                 f"kappa={kappa!r},n=4", *seed_args(30), "--deterministic"],
                _check_verify)
    yield query("verify sphere2",
                ["verify", "--metric", "sphere2", _point([_theta(draw), 0]),
                 *seed_args(30), "--deterministic"], _check_verify)
    yield query("catalog list", ["catalog", "list", "--output", "json"],
                _check_catalog)
    yield query("invariants inside the horizon",
                ["invariants", "--metric", "schwarzschild", "--params", "M=1",
                 _point([0, draw.uniform(0.5, 1.9), _theta(draw), 0]),
                 "--deterministic"], code=3)


def cli_reports(seed, rs, runner) -> Deck:
    """``python -m riemsvp`` subprocesses, one at a time."""
    return _both_halves(_cli_half, seed, 4, rs, runner, tail_pct=75)


def _cli_query(label, args, check, code, starts, runner) -> Query:
    def assess(proc):
        tally = Tally()
        tally.check(proc.returncode == code,
                    f"exit {proc.returncode}, expected {code}; "
                    f"stderr: {proc.stderr[-300:]!r}")
        if check is not None and proc.returncode == code:
            check(json.loads(proc.stdout), tally)
        return tally

    def digest(proc):
        return proc.returncode, hashlib.sha256(proc.stdout.encode()).hexdigest()

    return Query(label, lambda: runner(args), assess, digest, starts=starts)


def _check_kretschmann(r):
    def check(report, tally):
        k = report["invariants"]["kretschmann"]
        tally.check(close(k, 48.0 * MASS ** 2 / r ** 6, CROSS_REL),
                    f"CLI Kretschmann {k!r} at r={r!r}")
    return check


def _check_invariant_i(spin, r, theta):
    def check(report, tally):
        got = report["invariants"]["invariant_I"]
        got = complex(got["re"], got["im"])
        want = oracle.invariant_i_closed(MASS, spin, r, theta)
        tally.check(oracle.complex_close(got, want, CROSS_REL),
                    f"CLI invariant I {got!r}, expected {want!r}")
    return check


def _check_ricci_scalar(want):
    def check(report, tally):
        got = report["invariants"]["ricci_scalar"]
        tally.check(close(got, want, CROSS_REL), f"CLI scalar curvature {got!r}")
    return check


def _oracle_curvature(rs, metric, params, point):
    if params is None:
        spec = rs.metricfile.load_metric(ROOT / metric)
    else:
        spec = rs.catalog.get(metric, **params).spec
    return rs.riemann(spec, np.asarray(point, dtype=float))


def _check_solutions(rs, metric, params, point, expected, reduced=False):
    def check(report, tally):
        cd = _oracle_curvature(rs, metric, params, point)
        records = report["solutions"]
        tally.add(oracle.assess_clusters(oracle.report_clusters(records), cd.g,
                                         cd.riemann_mixed, expected))
        if reduced:
            tally.attempts, tally.converged = 1, len(records)
        else:
            tally.attempts = report["config"]["starts"]
            tally.converged = sum(rec["count"] for rec in records
                                  if rec["origin"] == "multistart")
    return check


def _check_orbit(rs, point):
    def check(report, tally):
        base = report["base"]
        cd = _oracle_curvature(rs, "sphere2", {}, point)
        tally.add(oracle.assess_clusters(oracle.report_clusters([base]), cd.g,
                                         cd.riemann_mixed, [1.0]))
        members = report["members"]
        # 16 sign patterns and 7 swaps, plus 3 rotations for orthogonal pairs.
        tally.check(len(members) >= 23, f"orbit has {len(members)} members")
        for m in members:
            tally.check(close(abs(m["sigma"]), base["sigma"], 1e-9),
                        f"orbit member sigma {m['sigma']!r} != {base['sigma']!r}")
    return check


def _check_verify(report, tally):
    failed = [c["name"] for c in report["checks"]
              if not c["skipped"] and not c["pass"]]
    tally.check(report["all_passed"] and not failed, f"verify failed: {failed}")


def _check_catalog(report, tally):
    ids = sorted(m["id"] for m in report["metrics"])
    tally.check(ids == CATALOG_IDS, f"catalog lists {ids}")


WORKLOADS = {
    "ms-riemannian": ms_riemannian,
    "ms-lorentz": ms_lorentz,
    "curvature-sweep": curvature_sweep,
    "cli-reports": cli_reports,
}
