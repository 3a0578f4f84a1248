"""riemsvp benchmark: one closed-loop client, one query at a time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ms-lorentz --seed 0 --seconds 20 --trace 0

Workloads: ms-riemannian, ms-lorentz, curvature-sweep, cli-reports (see
perfbench/README.md).  With ``--trace 0`` the last line of standard output is
the JSON result with every end-to-end metric; with ``--trace 1`` it carries
the per-layer metrics of a traced run instead, plus the tracing overhead.
The line before it is a JSON context record: machine, versions, input size,
tail percentile and sample count, and the deterministic outcome counts.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads; CLI children inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 7
CLI_TIMEOUT_S = 120
# The machine this runs on shares its cores: its speed drifts by tens of
# percent over seconds and minutes.  Timings are therefore normalised by a
# calibration kernel, timed between queries, to seconds at a fixed speed.
CALIBRATE_EVERY_S = 0.25
CALIBRATION_REF_S = 0.0125


class Clock:
    """Wall time normalised to the speed the machine had when it was spent.

    A fixed kernel of small numpy calls and interpreter work, independent of
    riemsvp, is timed at least every ``CALIBRATE_EVERY_S``.  A span of wall
    time is scaled by ``CALIBRATION_REF_S`` over the kernel's time, taken by
    linear interpolation at the span's midpoint.  The unit stays seconds: it
    is seconds on a machine that runs the kernel in ``CALIBRATION_REF_S``.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._np = np
        self._lstsq = np.linalg.lstsq  # bound before any tracer wraps it
        self._tensor = rng.standard_normal((4, 4, 4, 4))
        self._matrix = rng.standard_normal((20, 17))
        self._vector = np.ones(4)
        self._rhs = np.ones(20)
        self.at: list[float] = []
        self.kernel_s: list[float] = []
        self.calibrate()

    def calibrate(self) -> None:
        np, v = self._np, self._vector
        t0 = time.perf_counter()
        for _ in range(150):
            np.einsum("ijkl,j,k,l->i", self._tensor, v, v, v)
            self._lstsq(self._matrix, self._rhs, rcond=None)
            sum(x * x for x in range(30))
        t1 = time.perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.kernel_s.append(t1 - t0)

    def maybe_calibrate(self) -> None:
        if time.perf_counter() - self.at[-1] >= CALIBRATE_EVERY_S:
            self.calibrate()

    def normalise(self, spans) -> list[float]:
        """Normalised durations of ``(start, end)`` wall-clock spans."""
        np = self._np
        start, end = np.array(spans, dtype=float).reshape(-1, 2).T
        kernel = np.interp(0.5 * (start + end), self.at, self.kernel_s)
        return ((end - start) * CALIBRATION_REF_S / kernel).tolist()


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_library():
    """Import riemsvp from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import riemsvp
    import riemsvp.metricfile  # noqa: F401  (not re-exported by the package)
    if Path(riemsvp.__file__).resolve().parent != (SRC / "riemsvp").resolve():
        raise ImportError(f"riemsvp imported from {riemsvp.__file__}, "
                          f"not from {SRC}")
    return riemsvp


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _cli_runner(tracer):
    """Run one CLI command; under a tracer, through the tracing trampoline."""
    env = _child_env()

    def run(args):
        if tracer is None:
            return subprocess.run([sys.executable, "-m", "riemsvp", *args],
                                  cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
        dump = OUT / f"cli-{os.getpid()}.npz"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "cli_child.py"), str(dump), *args],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CLI_TIMEOUT_S)
        if dump.exists():
            tracer.merge(dump)
            dump.unlink()
        return proc
    return run


def build_deck(workload, seed, rs, tracer=None):
    import decks
    return decks.WORKLOADS[workload](seed, rs, _cli_runner(tracer))


def setup_probe(workload, seed) -> int:
    """Fresh-interpreter set-up: imports, catalog entries, files, the deck."""
    rs = _import_library()
    build_deck(workload, seed, rs)
    print("ready", flush=True)
    return 0


def measure_setup(workload, seed, clock) -> list[float]:
    """Time from process start until its deck is ready, several times."""
    spans = []
    for _ in range(SETUP_PROBES):
        clock.calibrate()
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(BENCH / "run.py"), "--setup-probe",
                 "--workload", workload, "--seed", str(seed)],
                cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
        spans.append((t0, t0 + elapsed))
    clock.calibrate()
    return clock.normalise(spans)


class Pass:
    """Timings and oracle outcome of one pass over the deck."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[tuple[float, float]] = []  # wall clock
        self.times: list[float] = []                # normalised, at the end
        self.digests: list = []
        self.failed = 0


def run_pass(deck, clock, traced, tracer, reference, tallies, errors) -> Pass:
    """Answer every query once.  The first pass is checked by the oracle;
    later passes must reproduce its digests exactly."""
    out = Pass(traced)
    for qid, query in enumerate(deck.queries):
        clock.maybe_calibrate()
        if tracer is not None:
            tracer.qid = qid
            tracer.on = traced
        t0 = time.perf_counter()
        try:
            result = query.execute()
        except Exception as exc:  # an unexpected exception is a failed query
            result, exc_text = None, f"{query.label}: {type(exc).__name__}: {exc}"
        else:
            exc_text = None
        out.spans.append((t0, time.perf_counter()))
        if tracer is not None:
            tracer.on = False
        if exc_text is not None:
            out.failed += 1
            errors.append(exc_text)
            out.digests.append(None)
            if reference is None:
                tallies.append(None)
            continue
        digest = query.digest(result)
        out.digests.append(digest)
        if reference is None:
            try:
                tally = query.assess(result)
            except Exception as exc:
                out.failed += 1
                errors.append(f"{query.label}: oracle: {type(exc).__name__}: {exc}")
                tallies.append(None)
                continue
            tallies.append(tally)
            if tally.violations:
                out.failed += 1
                errors.extend(f"{query.label}: {v}" for v in tally.violations)
        elif digest != reference[qid]:
            out.failed += 1
            errors.append(f"{query.label}: answer differs from the first pass")
    return out


def run_passes(deck, clock, seconds, tracer=None, traced_deck=None):
    """Repeat whole passes while the next one fits in ``seconds``.

    With a tracer, traced and untraced passes alternate (at least one each)
    so the overhead compares the same work.
    """
    tallies, errors, passes = [], [], []
    reference = None
    busy = 0.0
    while True:
        traced = tracer is not None and len(passes) % 2 == 0
        if traced:
            tracer.install()
        p = run_pass(traced_deck if traced else deck, clock, traced, tracer,
                     reference, tallies, errors)
        if traced:
            tracer.uninstall()
        if reference is None:
            reference = p.digests
        passes.append(p)
        last = sum(end - start for start, end in p.spans)
        busy += last
        enough = tracer is None or len(passes) >= 2
        if enough and busy + last > seconds:
            clock.calibrate()
            for p in passes:
                p.times = clock.normalise(p.spans)
            return passes, tallies, errors


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A weighted mean of all order statistics, with weights from the
    Beta((n+1)q, (n+1)(1-q)) distribution.  A deck holds a few dozen distinct
    queries, so the plain sample quantile jumps between neighbouring query
    kinds when noise reorders them; this estimate moves smoothly.
    """
    import numpy as np
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    logpdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    pdf = np.exp(logpdf - logpdf.max())
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


def _sum_tallies(tallies):
    import oracle
    total = oracle.Tally()
    for t in tallies:
        if t is not None:
            total.add(t)
    return total


def end_to_end(deck, passes, tallies, setup_times):
    """The user-facing metrics.

    Rates cover every query of every pass.  Latency percentiles and quality
    ratios cover the reference half, whose inputs do not depend on the seed:
    a percentile of a few dozen seeded queries moves with the draw.
    """
    times = [t for p in passes for t in p.times]
    busy = sum(times)
    ref_times = [t for p in passes for q, t in zip(deck.queries, p.times)
                 if q.reference]
    total = _sum_tallies(tallies)
    ref = _sum_tallies(t for q, t in zip(deck.queries, tallies) if q.reference)
    tail = quantile(ref_times, deck.tail_pct / 100.0)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "query_p50_s": (quantile(ref_times, 0.5), "s"),
        "query_tail_s": (tail, "s"),
        "queries_per_s": (len(times) / busy, "1/s"),
        "converged_per_s": (total.converged * len(passes) / busy, "1/s"),
        "yield_frac": (ref.converged / max(ref.attempts, 1), "ratio"),
        "sigma_recall": (ref.recalled / max(ref.expected, 1), "ratio"),
        "genuine_frac": (ref.genuine / max(ref.nonzero, 1), "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    tail_info = {"percentile": deck.tail_pct, "n": len(ref_times),
                 "beyond": sum(t > tail for t in ref_times)}
    return metrics, tail_info, {"reference": ref, "all": total}


def per_layer(tracer, passes, setup_counters):
    """Cost of one set-up plus one pass over the deck, layer by layer."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    n = len(traced)
    setup = tracer.totals(in_setup=True)
    run = tracer.totals(in_setup=False)
    counters = tracer.counters
    run_counters = {k: counters[k] - setup_counters.get(k, 0) for k in counters}

    def span(name, field="s"):
        return (setup.get(name, {}).get(field, 0.0)
                + run.get(name, {}).get(field, 0.0) / n)

    def count(key):
        return setup_counters.get(key, 0) + run_counters.get(key, 0) / n

    def ratio(num, den):
        return run_counters.get(num, 0) / den if den else 0.0

    solves = run_counters.get("newton.converged", 0) + sum(
        run_counters.get(f"newton.{k}", 0)
        for k in ("stalled", "capped", "singular", "other"))
    traced_s = statistics.mean(sum(p.times) for p in traced)
    plain_s = statistics.mean(sum(p.times) for p in plain)
    m = {
        "geometry.riemann.numeric_s": (span("geometry.riemann.numeric"), "s"),
        "geometry.riemann.analytic_s": (span("geometry.riemann.analytic"), "s"),
        "geometry.riemann.calls": (count("riemann.calls"), "count"),
        "geometry.christoffel.s": (span("geometry.christoffel"), "s"),
        "geometry.christoffel.calls": (span("geometry.christoffel", "calls"), "count"),
        "geometry.metric_at.s": (span("geometry.metric_at"), "s"),
        "geometry.metric_at.calls": (span("geometry.metric_at", "calls"), "count"),
        "geometry.metric_evals_per_riemann": (
            ratio("riemann.evals", run_counters.get("riemann.calls", 0)), "count"),
        "geometry.metric_evals_per_riemann.kerr": (
            ratio("riemann.evals.kerr", run_counters.get("riemann.calls.kerr", 0)),
            "count"),
        "metricfile.load_metric.s": (span("metricfile.load_metric"), "s"),
        "metricfile.g.s": (span("metricfile.g"), "s"),
        "metricfile.g.calls": (span("metricfile.g", "calls"), "count"),
        "algebra.compute_invariants.s": (span("algebra.compute_invariants"), "s"),
        "algebra.compute_invariants.calls": (
            span("algebra.compute_invariants", "calls"), "count"),
        "algebra.np_scalars.s": (span("algebra.np_scalars"), "s"),
        "catalog.get.s": (span("catalog.get"), "s"),
        "catalog.get.calls": (span("catalog.get", "calls"), "count"),
        "svp.multistart.s": (span("svp.multistart"), "s"),
        "svp.multistart.self_s": (span("svp.multistart", "self_s"), "s"),
        "svp.solve_newton.s": (span("svp.solve_newton"), "s"),
        "svp.solve_newton.calls": (span("svp.solve_newton", "calls"), "count"),
        "svp.newton.converged": (count("newton.converged"), "count"),
        "svp.newton.stalled": (count("newton.stalled"), "count"),
        "svp.newton.capped": (count("newton.capped"), "count"),
        "svp.newton.singular": (count("newton.singular"), "count"),
        "svp.newton.yield": (ratio("newton.converged", solves), "ratio"),
        "svp.newton.iters": (ratio("newton.iters", solves), "count"),
        "svp.residual.s": (span("svp.residual"), "s"),
        "svp.residual.calls": (span("svp.residual", "calls"), "count"),
        "svp.lstsq.s": (span("svp.lstsq"), "s"),
        "svp.sigma_from_tensor.s": (span("svp.sigma_from_tensor"), "s"),
        "svp.meigen_reduce.s": (span("svp.meigen_reduce"), "s"),
        "svp.sample_unit_vector.s": (span("svp.sample_unit_vector"), "s"),
        "svp.sample_unit_vector.calls": (
            span("svp.sample_unit_vector", "calls"), "count"),
        "svp.sampler.fail": (count("sampler.draws") - count("sampler.vectors"),
                             "count"),
        "svp.orbit.s": (span("svp.orbit"), "s"),
        "svp.orbit.calls": (span("svp.orbit", "calls"), "count"),
        "svp.reduced.s": (span("svp.reduced"), "s"),
        "cli.import_s": (span("cli.import"), "s"),
        "cli.render_report.s": (span("cli.render_report"), "s"),
        "trace.overhead": (traced_s / plain_s - 1.0, "ratio"),
    }
    for sub in ("invariants", "svp", "verify", "orbit", "catalog"):
        m[f"cli.main.{sub}_s"] = (span(f"cli.main.{sub}"), "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(BENCH))
    import decks
    if args.workload not in decks.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(decks.WORKLOADS)}")
    if not (SRC / "riemsvp" / "__init__.py").is_file():
        return _fail(f"no riemsvp sources under {SRC}; run from a checkout")
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    OUT.mkdir(exist_ok=True)
    clock = Clock()
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed,
                                                      clock)
    rs = _import_library()
    import numpy as np
    from tracer import Tracer

    deck = build_deck(args.workload, args.seed, rs)
    tracer = traced_deck = None
    setup_counters = {}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.on = True
        traced_deck = build_deck(args.workload, args.seed, rs, tracer)
        tracer.on = False
        tracer.uninstall()
        setup_counters = dict(tracer.counters)
    deck.queries[0].execute()  # warm-up: lazy imports and first-call costs

    passes, tallies, errors = run_passes(deck, clock, args.seconds, tracer,
                                         traced_deck)
    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)

    if args.trace:
        metrics = per_layer(tracer, passes, setup_counters)
        tracer.dump(OUT / f"spans-{args.workload}.npz")
        _, tail_info, totals = end_to_end(deck, passes, tallies, [0.0])
    else:
        metrics, tail_info, totals = end_to_end(deck, passes, tallies, setup_times)

    anchors = {q.label: {"attempted": t.attempts, "converged": t.converged}
               for q, t in zip(deck.queries, tallies)
               if t is not None and "anchor" in q.label}
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__,
                    "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]},
        "input_size": deck.size(),
        "passes": len(passes),
        "tail": tail_info,
        "setup_probes_s": setup_times,
        "wall_clock": {
            "query_p50_s": statistics.median(
                end - start for p in passes for start, end in p.spans),
            "calibrations": len(clock.kernel_s),
            "kernel_median_s": statistics.median(clock.kernel_s),
            "reference_kernel_s": CALIBRATION_REF_S,
        },
        "deterministic": {
            **{f"{half}.{k}": getattr(t, k) for half, t in totals.items()
               for k in ("attempts", "converged", "expected", "recalled",
                         "nonzero", "genuine")},
            "answers_sha256": hashlib.sha256(
                repr(passes[0].digests).encode()).hexdigest(),
            "anchors": anchors,
        },
        "errors": errors[:20],
    }
    if args.trace:
        c = tracer.counters
        spec_ids = sorted(k[len("riemann.calls."):] for k in c
                          if k.startswith("riemann.calls."))
        context["deterministic"]["metric_evals_per_riemann_by_spec"] = {
            i: c[f"riemann.evals.{i}"] / c[f"riemann.calls.{i}"] for i in spec_ids}
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
