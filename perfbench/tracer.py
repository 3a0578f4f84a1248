"""Span tracer that instruments riemsvp from the outside.

The tracer replaces a fixed list of the library's public functions (the layer
boundaries) with wrappers, in the module that defines each one and in every
``riemsvp`` module that imported it by name.  No source file of the library
is touched.  Spans (name, start, end, parent, query id) live in compact
arrays in memory and are written out with :meth:`Tracer.dump` at the end.

Besides spans the wrappers keep a few counters where the work happens:

* metric evaluations, through a counting ``spec.g`` put in place with
  ``dataclasses.replace`` on every catalog entry and loaded metric file;
* Newton outcomes, classified at the ``solve_newton`` boundary, with the
  iteration count taken as the ``numpy.linalg.lstsq`` calls under its span;
* sampler draws, counted through a proxy generator handed to
  ``sample_unit_vector``.
"""

from __future__ import annotations

import array
import collections
import dataclasses
import sys
import time

import numpy as np

# Layer boundaries: (module, function, span name).  ``riemann`` gets its name
# from the curvature path it took; ``cli.main`` from its subcommand.
SPANS = (
    ("geometry", "riemann", None),
    ("geometry", "christoffel", "geometry.christoffel"),
    ("geometry", "metric_at", "geometry.metric_at"),
    ("metricfile", "load_metric", "metricfile.load_metric"),
    ("algebra", "compute_invariants", "algebra.compute_invariants"),
    ("algebra", "np_scalars", "algebra.np_scalars"),
    ("catalog", "get", "catalog.get"),
    ("svp", "multistart", "svp.multistart"),
    ("svp", "solve_newton", "svp.solve_newton"),
    ("svp", "residual", "svp.residual"),
    ("svp", "sigma_from_tensor", "svp.sigma_from_tensor"),
    ("svp", "meigen_reduce", "svp.meigen_reduce"),
    ("svp", "sample_unit_vector", "svp.sample_unit_vector"),
    ("svp", "orbit", "svp.orbit"),
    ("svp", "schwarzschild_reduced_solve", "svp.reduced"),
    ("svp", "kerr_reduced_solve", "svp.reduced"),
    ("cli", "main", None),
    ("cli", "render_report", "cli.render_report"),
)

# Catalog factories whose entries get a counting metric supplier.
FACTORIES = ("sphere2", "space_form", "euclidean", "minkowski",
             "schwarzschild", "kerr")


class _CountingRng:
    """Delegates to a numpy Generator and counts ``standard_normal`` draws."""

    def __init__(self, rng, tracer):
        self._rng = rng
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        self._tracer.counters["sampler.draws"] += 1
        return self._rng.standard_normal(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    """Collects spans and counters while :attr:`on` is true."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.query = array.array("i")
        self._stack: list[int] = []
        self.qid = -1
        self.on = False
        self.counters: collections.Counter = collections.Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- span store ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.query.append(self.qid)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, name: str | None = None) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if name is not None:
            self.name_id[idx] = self._intern(name)

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span measured by the caller."""
        idx = self.open(name)
        self.start[idx] = start
        self.close(idx)
        self.end[idx] = end

    def dump(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=np.array(self.name_id, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent, dtype=np.int32),
                 query=np.array(self.query, dtype=np.int32),
                 counter_keys=np.array(list(self.counters), dtype=str),
                 counter_values=np.array(list(self.counters.values()),
                                         dtype=float))

    def merge(self, path) -> None:
        """Append the spans and counters of a child process's dump.

        The child's root spans hang under the currently open span.
        """
        with np.load(path) as data:
            ids = np.array([self._intern(str(n)) for n in data["names"]],
                           dtype=np.int32)
            parent = data["parent"]
            root = self._stack[-1] if self._stack else -1
            self.parent.extend(np.where(parent < 0, root,
                                        parent + len(self.start)).tolist())
            self.name_id.extend(ids[data["name_id"]].tolist())
            self.start.extend(data["start"].tolist())
            self.end.extend(data["end"].tolist())
            self.query.extend([self.qid] * len(parent))
            for key, value in zip(data["counter_keys"], data["counter_values"]):
                self.counters[str(key)] += float(value)

    # -- aggregation --------------------------------------------------------

    def totals(self, in_setup: bool) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds and calls.

        ``in_setup`` selects the spans recorded outside any query (query id
        -1) or those recorded inside queries.
        """
        n = len(self.start)
        if n == 0:
            return {}
        names = np.array(self.name_id, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=np.int32)
        phase = (np.array(self.query, dtype=np.int32) < 0) == in_setup
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        out = {}
        for nid, name in enumerate(self.names):
            sel = (names == nid) & phase
            out[name] = {"s": float(dur[sel].sum()),
                         "self_s": float((dur[sel] - child[sel]).sum()),
                         "calls": float(sel.sum())}
        return out

    # -- instrumentation ----------------------------------------------------

    def install(self) -> None:
        """Wrap the layer boundaries of every riemsvp module now imported."""
        mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("riemsvp.") and mod is not None}
        owners = [sys.modules["riemsvp"], *mods.values()]
        for mod_name, fn_name, span in SPANS:
            mod = mods.get(mod_name)
            original = getattr(mod, fn_name, None) if mod else None
            if original is None:
                continue
            self._replace(owners, original, self._wrapper(fn_name, span, original))
        catalog = mods.get("catalog")
        for fn_name in FACTORIES:
            original = getattr(catalog, fn_name, None) if catalog else None
            if original is not None:
                self._replace(owners, original, self._factory(original))
        self._patch(np.linalg, "lstsq", self._simple("svp.lstsq", np.linalg.lstsq,
                                                     counter="lstsq"))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def _patch(self, obj, attr, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _replace(self, owners, original, wrapped) -> None:
        for mod in owners:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapped)

    def _wrapper(self, fn_name, span, fn):
        if fn_name == "riemann":
            return self._riemann(fn)
        if fn_name == "solve_newton":
            return self._solve_newton(fn)
        if fn_name == "sample_unit_vector":
            return self._sampler(fn)
        if fn_name == "load_metric":
            return self._load_metric(fn)
        if fn_name == "main":
            return self._cli_main(fn)
        return self._simple(span, fn)

    def _simple(self, span, fn, counter=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if counter:
                tracer.counters[counter] += 1
            idx = tracer.open(span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        return wrapper

    def _riemann(self, fn):
        tracer = self

        def wrapper(spec, p, mode="auto"):
            if not tracer.on:
                return fn(spec, p, mode)
            evals0 = tracer.counters["metric_evals"]
            idx = tracer.open("geometry.riemann.error")
            name = None
            try:
                cd = fn(spec, p, mode)
                name = f"geometry.riemann.{cd.path}"
                return cd
            finally:
                tracer.close(idx, name)
                c = tracer.counters
                c["riemann.calls"] += 1
                c["riemann.evals"] += c["metric_evals"] - evals0
                c[f"riemann.calls.{spec.id}"] += 1
                c[f"riemann.evals.{spec.id}"] += c["metric_evals"] - evals0
        return wrapper

    def _solve_newton(self, fn):
        tracer = self

        def wrapper(cd, q0, sigma0, cfg):
            if not tracer.on:
                return fn(cd, q0, sigma0, cfg)
            c = tracer.counters
            lstsq0 = c["lstsq"]
            outcome = "other"
            idx = tracer.open("svp.solve_newton")
            try:
                sol = fn(cd, q0, sigma0, cfg)
                outcome = "converged"
                return sol
            except Exception as exc:
                kind = type(exc).__name__
                if kind == "NoConvergence":
                    capped = c["lstsq"] - lstsq0 >= cfg.max_newton_iters
                    outcome = "capped" if capped else "stalled"
                elif kind == "SingularJacobian":
                    outcome = "singular"
                raise
            finally:
                tracer.close(idx)
                c[f"newton.{outcome}"] += 1
                c["newton.iters"] += c["lstsq"] - lstsq0
        return wrapper

    def _sampler(self, fn):
        tracer = self

        def wrapper(rng, g, sign, *args, **kwargs):
            if not tracer.on:
                return fn(rng, g, sign, *args, **kwargs)
            idx = tracer.open("svp.sample_unit_vector")
            try:
                v = fn(_CountingRng(rng, tracer), g, sign, *args, **kwargs)
                tracer.counters["sampler.vectors"] += 1
                return v
            finally:
                tracer.close(idx)
        return wrapper

    def _counting_spec(self, spec, span=None):
        """The spec with a metric supplier that counts (and maybe spans) calls."""
        if getattr(spec.g, "_perfbench_counting", False):
            return spec
        tracer = self
        g = spec.g

        def counting_g(p):
            if not tracer.on:
                return g(p)
            tracer.counters["metric_evals"] += 1
            if span is None:
                return g(p)
            idx = tracer.open(span)
            try:
                return g(p)
            finally:
                tracer.close(idx)
        counting_g._perfbench_counting = True
        return dataclasses.replace(spec, g=counting_g)

    def _factory(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            entry = fn(*args, **kwargs)
            return dataclasses.replace(entry, spec=tracer._counting_spec(entry.spec))
        return wrapper

    def _load_metric(self, fn):
        tracer = self
        inner = self._simple("metricfile.load_metric", fn)

        def wrapper(path):
            return tracer._counting_spec(inner(path), span="metricfile.g")
        return wrapper

    def _cli_main(self, fn):
        tracer = self

        def wrapper(argv=None):
            if not tracer.on:
                return fn(argv)
            argv = sys.argv[1:] if argv is None else argv
            idx = tracer.open("cli.main." + (argv[0] if argv else "none"))
            try:
                return fn(argv)
            finally:
                tracer.close(idx)
        return wrapper
