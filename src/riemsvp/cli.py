"""Command-line front end.

Subcommands::

    riemsvp invariants --metric schwarzschild --params M=1 --point 0,3,0.7854,0
    riemsvp svp        --metric sphere2 --point 1.0472,0
    riemsvp verify     --metric schwarzschild --params M=1 --point 0,3,0.7854,0
    riemsvp orbit      --metric sphere2 --point 1.0472,0
    riemsvp catalog list

Exit codes: 0 ok, 2 configuration error, 3 domain error, 4 no start
converged, 5 verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, catalog
from .algebra import compute_invariants, curvature_scale, inner, ricci
from .errors import (BadCase, BadTetrad, DifferentiationFailure,
                     InvalidInput, NoConvergence, OutOfDomain,
                     SingularMetric, WrongSignature)
from .geometry import CurvatureData, riemann, verify_tensor_symmetries
from .metricfile import load_metric
from .svp import (SolverConfig, _patterns, _type_d_reduced,
                  lorentz_mixed_sign_check, multistart, orbit, orbit_size,
                  sigma_from_tensor, wedge_det_defect)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_NO_CONVERGENCE = 4
EXIT_VERIFY_FAILED = 5

# Report windows relative to the curvature scale rho at the point
# (algebra.curvature_scale), so they hold at every scale of the metric: a
# sigma is non-zero above _ZERO_REL * rho, and matches an expected non-zero
# value within _MATCH_REL of it.
_ZERO_REL = 1e-6
_MATCH_REL = 1e-3
# verify's windows that do not scale with rho: the symmetry defects (relative
# to max(1, max |R|)) are below _SYMMETRY_TOL, Proposition 1's inner products
# below _PROP1_TOL and Remark 2's mixed-sign |sigma| below _MIXED_TOL.
_SYMMETRY_TOL = 1e-10
_PROP1_TOL = _MIXED_TOL = 1e-8


# ---------------------------------------------------------------------------
# report serialization: floats at 17 significant digits, stable field order
# ---------------------------------------------------------------------------


def _fmt_float(v: Optional[float]) -> str:
    if v is None or v != v or v in (float("inf"), float("-inf")):
        return "null"
    return format(float(v), ".17g")


def _fmt_complex(z: complex) -> str:
    """``a + bj``, or ``a - bj`` when the imaginary part is negative."""
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    return f"{_fmt_float(z.real)} {sign} {_fmt_float(abs(z.imag))}j"


# the escapes of json.dumps(s, ensure_ascii=False)
_JSON_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)} | {
    c: "\\" + e for c, e in zip(b'"\\\b\f\n\r\t', '"\\bfnrt')}


def render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner_pad = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return '"' + obj.translate(_JSON_ESCAPES) + '"'
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, complex):
        return render_json({"re": obj.real, "im": obj.imag}, indent)
    if isinstance(obj, np.ndarray):
        return render_json(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [render_json(v, indent + 1) for v in obj]
        if all("\n" not in it and len(it) < 20 for it in items):
            return "[" + ", ".join(items) + "]"
        return ("[\n" + ",\n".join(inner_pad + it for it in items)
                + "\n" + pad + "]")
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [inner_pad + render_json(str(k)) + ": "
                 + render_json(v, indent + 1) for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _parse_number(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InvalidInput(f"bad numeric value in {what}: '{text}'") from None
    if not math.isfinite(value):
        raise InvalidInput(f"non-finite value in {what}: '{text}'")
    return value


def _parse_params(text: Optional[str]) -> dict:
    if not text:
        return {}
    out = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise InvalidInput(f"bad --params entry '{item}' (expected k=v)")
        key, value = (v.strip() for v in item.split("=", 1))
        if key in out:
            raise InvalidInput(f"--params sets '{key}' twice")
        out[key] = _parse_number(value, "--params")
    return out


def _parse_point(text: Optional[str]) -> Optional[np.ndarray]:
    if text is None:
        return None
    return np.array([_parse_number(v, "--point") for v in text.split(",")])


def resolve_metric(args) -> catalog.CatalogEntry:
    """Catalog id or user definition file path.

    A metric file takes no ``--params``: its components are fixed numbers.
    """
    if args.metric in catalog.CATALOG_IDS:
        return catalog.get(args.metric, **args.params)
    path = Path(args.metric)
    if path.exists():
        if args.params:
            raise InvalidInput(
                f"metric file '{args.metric}' does not take params "
                f"{', '.join(sorted(args.params))}")
        spec = load_metric(path)
        return catalog.CatalogEntry(
            spec=spec, admissible=lambda p: True,
            default_point=np.zeros(spec.dimension))
    raise InvalidInput(f"unknown metric '{args.metric}' (not a catalog id or file)")


# the options a report's config echoes, in order, where the command has them
_CONFIG_KEYS = ("metric", "params", "point", "signs", "tol", "starts", "seed",
                "method")


def _base_report(args, command: str) -> dict:
    report = {
        "schema": "riemsvp-report/1",
        "command": command,
        "config": {key: getattr(args, key) for key in _CONFIG_KEYS
                   if key in args},
        "versions": {"riemsvp": __version__, "numpy": np.__version__},
    }
    if "seed" in args:
        report["rng_seed"] = args.seed
    if not args.deterministic:
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    return report


def _solver_config(args) -> SolverConfig:
    """The solver settings of a search command; the commands build them
    before :func:`_prepare`, so a bad solver flag is reported first."""
    return SolverConfig(tol=args.tol, n_starts=args.starts,
                        sign_pattern=args.signs, rng_seed=args.seed)


def _prepare(args) -> tuple[catalog.CatalogEntry, np.ndarray, CurvatureData]:
    """The metric, the point and the curvature there, for one command.

    Raises :class:`OutOfDomain` for a point outside the metric's domain.
    """
    entry = resolve_metric(args)
    point = entry.default_point if args.point is None else args.point
    if len(point) != entry.spec.dimension:
        raise InvalidInput(
            f"--point has length {len(point)}, metric dimension is "
            f"{entry.spec.dimension}")
    entry.check_point(point)
    return entry, point, riemann(entry.spec, point)


def _nonzero(sols, rho: float) -> list:
    """The solutions whose sigma is not zero at the curvature scale ``rho``."""
    return [s for s in sols if abs(s.sigma) > _ZERO_REL * rho]


def _matched(sols, sigma: float, rho: float) -> bool:
    """Whether a solution has the expected ``sigma``; zero within the
    non-zero window, any other value within ``_MATCH_REL`` of it."""
    window = _MATCH_REL * abs(sigma) if sigma else _ZERO_REL * rho
    return any(abs(s.sigma - sigma) <= window for s in sols)


def _quadruple_record(q) -> dict:
    return {"w": q.w, "x": q.x, "y": q.y, "z": q.z, "signs": list(q.signs)}


def _solution_record(sol, cd) -> dict:
    return {
        "sigma": sol.sigma,
        "residual": sol.residual,
        "origin": sol.origin,
        "count": sol.count,
        "trivial": sol.trivial,
        "seed": sol.seed,
        "orbit_size": orbit_size(sol, cd),
        "quadruple": _quadruple_record(sol.q),
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_invariants(args) -> tuple[dict, int]:
    entry, point, cd = _prepare(args)
    tetrad = entry.tetrad(point) if entry.tetrad is not None else None
    inv = compute_invariants(cd, tetrad)
    report = _base_report(args, "invariants")
    report["point"] = point
    report["curvature_path"] = cd.path
    report["invariants"] = {
        "ricci_scalar": inv.ricci_scalar,
        "kretschmann": inv.kretschmann,
        "weyl_sq": inv.weyl_sq,
        "weyl_norm": inv.weyl_norm,
        "np_scalars": (None if inv.np_scalars is None
                       else [complex(p) for p in inv.np_scalars]),
        "invariant_I": (None if inv.invariant_i is None
                        else complex(inv.invariant_i)),
    }
    return report, EXIT_OK


def _run_solver(args, entry: catalog.CatalogEntry, point: np.ndarray,
                cd: CurvatureData, cfg: SolverConfig):
    # a metric file named after a catalog id is not that catalog metric, so
    # the reduced solve goes by the --metric value
    black_hole = args.metric in ("schwarzschild", "kerr")
    method = args.method
    if method == "auto":
        method = "reduced" if black_hole else "multistart"
    if method == "reduced":
        if not black_hole:
            raise InvalidInput(
                f"--method reduced is not available for '{args.metric}'")
        return [_type_d_reduced(cd, entry.tetrad(point))], method
    sols = multistart(cd, cfg)
    if not sols:
        raise NoConvergence("no start converged")
    if all(s.origin != "multistart" for s in sols):
        starts = cfg.n_starts * len(_patterns(cd, cfg))
        print(f"warning: none of the {starts} starts converged; only the "
              "analytic trivial solution is reported", file=sys.stderr)
    return sols, method


def cmd_svp(args) -> tuple[dict, int]:
    cfg = _solver_config(args)
    entry, point, cd = _prepare(args)
    sols, method = _run_solver(args, entry, point, cd, cfg)
    report = _base_report(args, "svp")
    report["point"] = point
    report["method"] = method
    report["search_exhaustive"] = False
    report["solutions"] = [_solution_record(s, cd) for s in sols]
    if entry.expected_sigma is not None:
        rho = curvature_scale(cd)
        report["expected"] = [
            {"sigma": sig, "description": desc,
             "matched": _matched(sols, sig, rho)}
            for sig, desc in entry.expected_sigma(point)]
    return report, EXIT_OK


def cmd_orbit(args) -> tuple[dict, int]:
    cfg = _solver_config(args)
    entry, point, cd = _prepare(args)
    sols, _ = _run_solver(args, entry, point, cd, cfg)
    base = (_nonzero(sols, curvature_scale(cd)) or sols)[0]
    members = orbit(base, cd)
    report = _base_report(args, "orbit")
    report["point"] = point
    report["base"] = _solution_record(base, cd)
    report["members"] = [
        {"sigma": m.sigma, "residual": m.residual,
         "quadruple": _quadruple_record(m.q)}
        for m in members]
    return report, EXIT_OK


def cmd_catalog(args) -> tuple[dict, int]:
    report = {
        "schema": "riemsvp-report/1",
        "command": "catalog",
        "metrics": [{"id": mid, "params": list(declared)}
                    for mid, (_, declared) in catalog.REGISTRY.items()],
    }
    return report, EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


# The checks on the solutions of a search, in report order.
_SOLUTION_CHECKS = ("prop1", "orbit-closure", "remark2-lorentz", "det-S",
                    "example2-identities", "example3-byproduct",
                    "sigma-equals-R")


def _check(name, defect=0.0, window=math.inf, skip=None) -> dict:
    """One verify check, passed when ``defect < window``; a check with a
    ``skip`` note is reported skipped."""
    return {"name": name, "pass": bool(defect < window),
            "max_defect": float(defect), "skipped": skip is not None,
            "note": skip}


def _worst(defects) -> float:
    """The largest of ``defects``, NaN when any is NaN (Python's ``max``
    keeps a NaN only when it comes first), and 0 when there is none."""
    return float(np.max(np.fromiter(defects, float), initial=0.0))


def _example2_defect(s, cd: CurvatureData, kappa: float, unit: float) -> float:
    """The worst of Example 2's identities at ``s`` on a space form of
    curvature ``kappa``, relative to ``unit`` where curvature-valued."""
    g, (w, x, y, z), sg = cd.g, s.q.vectors, s.sigma
    wy, wz = inner(g, w, y), inner(g, w, z)
    return _worst((abs(kappa * inner(g, z, x) - sg * wy) / unit,
                   abs(-kappa * inner(g, y, x) - sg * wz) / unit,
                   abs(-kappa * inner(g, z, w) - sg * inner(g, x, y)) / unit,
                   abs(kappa * inner(g, y, w) - sg * inner(g, x, z)) / unit,
                   abs(wy ** 2 + wz ** 2 - 1.0)))


def _solution_checks(metric: str, entry, cd: CurvatureData,
                     scfg: SolverConfig) -> list[dict]:
    """The :func:`_check` arguments of each of ``_SOLUTION_CHECKS``, in
    order, from a search at ``cd`` on the ``--metric`` ``metric``."""
    sols = multistart(cd, scfg)
    rho = curvature_scale(cd)
    nonzero = _nonzero(sols, rho)
    # curvature-valued defects are relative to rho, absolute where the
    # metric is flat; the checks on the non-zero sigmas are skipped, not
    # passed, when there is none
    unit = rho or 1.0
    empty = None if nonzero else "no non-zero sigma converged"
    checks = [
        {"defect": _worst(abs(inner(cd.g, u, v)) for s in nonzero
                          for u, v in ((s.q.w, s.q.x), (s.q.y, s.q.z))),
         "window": _PROP1_TOL, "skip": empty},
        {"defect": _worst(m.residual for s in sols for m in orbit(s, cd)),
         "window": 1e-9}]
    if cd.is_lorentz:
        rep = lorentz_mixed_sign_check(cd, scfg)
        # a search that converged nothing is no evidence either way
        checks.append({"defect": rep.max_abs_sigma, "window": _MIXED_TOL,
                       "skip": None if rep.n_converged
                       else "no mixed-sign start converged"})
    else:
        checks.append({"skip": "not a Lorentz metric"})
    checks.append(
        {"defect": _worst(wedge_det_defect(s.q.y, s.q.z) for s in sols),
         "window": 1e-8}
        if metric == "schwarzschild" else
        {"skip": "static black hole only"})
    if metric != "space-form":
        checks += [{"skip": "space forms only"}] * 2
    else:
        kappa = entry.params["kappa"]
        checks.append({"defect": _worst(_example2_defect(s, cd, kappa, unit)
                                        for s in nonzero),
                       "window": 1e-8, "skip": empty})
        if entry.params["n"] == 4:
            ric = ricci(cd)
            checks.append({"defect": _worst(
                abs(float(w @ ric @ w + x @ ric @ x)
                    - float(y @ ric @ y + z @ ric @ z)) / unit
                for w, x, y, z in (s.q.vectors for s in nonzero)),
                "window": 1e-8, "skip": empty})
        else:
            checks.append({"skip": "needs n = 4"})
    checks.append({"defect": _worst(
        abs(s.sigma - sigma_from_tensor(cd, s.q)) / unit
        for s in sols if s.q.signs == (1, 1, 1, 1)),
        "window": 1e-8})
    return checks


def cmd_verify(args) -> tuple[dict, int]:
    scfg = _solver_config(args)
    entry, point, cd = _prepare(args)
    g_defect = float(np.abs(cd.g - cd.g.T).max() / max(1.0, np.abs(cd.g).max()))
    sym = verify_tensor_symmetries(cd)
    sym_defect = _worst((g_defect, sym.antisym_first_pair,
                         sym.antisym_second_pair, sym.pair_symmetry))
    checks = [_check("symmetries", sym_defect, _SYMMETRY_TOL),
              _check("bianchi", sym.bianchi_first, _SYMMETRY_TOL)]
    solution = (_solution_checks(args.metric, entry, cd, scfg)
                if checks[0]["pass"] and checks[1]["pass"] else
                [{"skip": "geometry invalid"}] * len(_SOLUTION_CHECKS))
    checks += [_check(name, **kw) for name, kw in zip(_SOLUTION_CHECKS,
                                                       solution)]
    failed = [c for c in checks if not c["pass"]]
    report = _base_report(args, "verify")
    report["point"] = point
    report["curvature_path"] = cd.path
    report["checks"] = checks
    report["all_passed"] = not failed
    return report, (EXIT_VERIFY_FAILED if failed else EXIT_OK)


# ---------------------------------------------------------------------------
# output rendering
# ---------------------------------------------------------------------------


def _render_csv(report: dict) -> str:
    lines = []
    if "solutions" in report:
        lines.append("sigma,residual,origin,count,trivial,orbit_size")
        for s in report["solutions"]:
            lines.append(",".join([
                _fmt_float(s["sigma"]), _fmt_float(s["residual"]),
                s["origin"], str(s["count"]), str(s["trivial"] or ""),
                str(s["orbit_size"])]))
    elif "checks" in report:
        lines.append("name,pass,skipped,max_defect")
        for c in report["checks"]:
            lines.append(",".join([c["name"], str(c["pass"]).lower(),
                                   str(c["skipped"]).lower(),
                                   _fmt_float(c["max_defect"])]))
    elif "invariants" in report:
        lines.append("name,value")
        inv = report["invariants"]
        lines.append("ricci_scalar," + _fmt_float(inv["ricci_scalar"]))
        lines.append("kretschmann," + _fmt_float(inv["kretschmann"]))
        lines.append("weyl_sq," + _fmt_float(inv["weyl_sq"]))
        lines.append("weyl_norm," + _fmt_float(inv["weyl_norm"]))
        if inv["np_scalars"] is not None:
            for k, p in enumerate(inv["np_scalars"]):
                lines.append(f"psi{k}_re," + _fmt_float(p.real))
                lines.append(f"psi{k}_im," + _fmt_float(p.imag))
            i_val = inv["invariant_I"]
            lines.append("invariant_I_re," + _fmt_float(i_val.real))
            lines.append("invariant_I_im," + _fmt_float(i_val.imag))
    elif "metrics" in report:
        lines.append("id,params")
        for m in report["metrics"]:
            lines.append(m["id"] + "," + " ".join(m["params"]))
    return "\n".join(lines) + "\n"


def _render_text(report: dict) -> str:
    lines = [f"riemsvp {report['command']}"]
    if "point" in report:
        pt = ", ".join(_fmt_float(v) for v in np.asarray(report["point"]))
        lines.append(f"point: [{pt}]")
    if "invariants" in report:
        inv = report["invariants"]
        lines.append(f"ricci scalar   : {_fmt_float(inv['ricci_scalar'])}")
        lines.append(f"kretschmann    : {_fmt_float(inv['kretschmann'])}")
        lines.append(f"weyl C.C       : {_fmt_float(inv['weyl_sq'])}")
        if inv["np_scalars"] is not None:
            for k, p in enumerate(inv["np_scalars"]):
                lines.append(f"psi{k}           : {_fmt_complex(p)}")
            lines.append("invariant I    : "
                         + _fmt_complex(inv["invariant_I"]))
    if "solutions" in report:
        lines.append(f"{'sigma':>22} {'residual':>10} {'count':>6} "
                     f"{'origin':>22} trivial")
        for s in report["solutions"]:
            lines.append(f"{s['sigma']:22.16f} {s['residual']:10.2e} "
                         f"{s['count']:6d} {s['origin']:>22} "
                         f"{s['trivial'] or '-'}")
    if "expected" in report:
        for e in report["expected"]:
            status = "matched" if e["matched"] else "NOT FOUND"
            lines.append(f"expected sigma {_fmt_float(e['sigma'])} "
                         f"({e['description']}): {status}")
    if "checks" in report:
        for c in report["checks"]:
            status = ("skip" if c["skipped"]
                      else ("pass" if c["pass"] else "FAIL"))
            lines.append(f"{c['name']:>22}: {status}  "
                         f"(max defect {_fmt_float(c['max_defect'])})")
    if "members" in report:
        lines.append(f"orbit members: {len(report['members'])}")
        for m in report["members"]:
            lines.append(f"  sigma={_fmt_float(m['sigma'])} "
                         f"residual={_fmt_float(m['residual'])}")
    if "metrics" in report:
        for m in report["metrics"]:
            params = ", ".join(m["params"]) if m["params"] else "-"
            lines.append(f"{m['id']:>14}  params: {params}")
    return "\n".join(lines) + "\n"


def render_report(report: dict, output: str) -> str:
    if output == "json":
        return render_json(report) + "\n"
    if output == "csv":
        return _render_csv(report)
    if output == "text":
        return _render_text(report)
    raise InvalidInput(f"unknown output format '{output}'")


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riemsvp",
        description="Curvature invariants and the Riemann tensor singular "
                    "value problem")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = SolverConfig()

    for name in ("invariants", "svp", "verify", "orbit"):
        p = sub.add_parser(name)
        p.add_argument("--metric", required=True,
                       help="catalog id or metric definition file")
        p.add_argument("--params", default=None,
                       help="comma-separated k=v metric parameters")
        p.add_argument("--point", default=None,
                       help="comma-separated coordinates")
        if name != "invariants":
            p.add_argument("--signs", default=defaults.sign_pattern,
                           help="constraint sign pattern: ++++, +++-, ... "
                           "or all; write one that starts with - as "
                           "--signs=-+++")
            p.add_argument("--tol", type=float, default=defaults.tol)
            p.add_argument("--starts", type=int, default=defaults.n_starts)
            p.add_argument("--seed", type=int, default=defaults.rng_seed)
        if name in ("svp", "orbit"):
            p.add_argument("--method", default="auto",
                           choices=["auto", "multistart", "reduced"])
        p.add_argument("--output", default="json",
                       choices=["json", "csv", "text"])
        p.add_argument("--deterministic", action="store_true",
                       help="suppress the timestamp field")
        p.add_argument("--out", default=None, help="write the report here")

    cat = sub.add_parser("catalog")
    cat.add_argument("action", choices=["list"])
    cat.add_argument("--output", default="text",
                     choices=["json", "csv", "text"])
    cat.add_argument("--out", default=None)
    return parser


_COMMANDS = {
    "invariants": cmd_invariants,
    "svp": cmd_svp,
    "verify": cmd_verify,
    "orbit": cmd_orbit,
    "catalog": cmd_catalog,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command != "catalog":
            args.params = _parse_params(args.params)
            args.point = _parse_point(args.point)
        report, code = _COMMANDS[args.command](args)
        text = render_report(report, args.output)
        if args.out:
            try:
                Path(args.out).write_text(text)
            except OSError as exc:
                raise InvalidInput(f"cannot write --out '{args.out}': "
                                   f"{exc.strerror or exc}") from None
        else:
            sys.stdout.write(text)
        return code
    except (InvalidInput, BadCase) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OutOfDomain, SingularMetric, WrongSignature,
            DifferentiationFailure, BadTetrad) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NoConvergence as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
