import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from riemsvp import catalog
from riemsvp.cli import main, render_json
from riemsvp.geometry import riemann

CORRUPTED_METRIC = """\
dimension = 2
coordinates = u, v
g[0,0] = 1
g[1,1] = 1 + u^2
g[0,1] = u
g[1,0] = 0 - u
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def exit_code(argv):
    """``main``'s exit code, also where argparse exits on a usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestDeterminism:
    def test_byte_identical_json(self, capsys):
        argv = ["svp", "--metric", "sphere2", "--point", "1.0472,0",
                "--seed", "7", "--starts", "40", "--deterministic",
                "--output", "json"]
        code1, out1 = run(capsys, *argv)
        code2, out2 = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.encode() == out2.encode()

    def test_timestamp_suppressed(self, capsys):
        argv = ["svp", "--metric", "sphere2", "--point", "1.0,0",
                "--starts", "10", "--deterministic"]
        _, out = run(capsys, *argv)
        assert "timestamp" not in out
        _, out2 = run(capsys, "svp", "--metric", "sphere2", "--point",
                      "1.0,0", "--starts", "10")
        assert "timestamp" in out2


class TestInvariantsCommand:
    def test_schwarzschild_kretschmann(self, capsys):
        code, out = run(capsys, "invariants", "--metric", "schwarzschild",
                        "--params", "M=1", "--point", "0,3,0.7854,0",
                        "--deterministic")
        assert code == 0
        report = json.loads(out)
        assert report["invariants"]["kretschmann"] == pytest.approx(
            48.0 / 729.0, rel=1e-10)
        # the static black hole's tetrad is Kerr's at zero spin: only
        # psi2 = M / r^3 survives
        psis = [complex(p["re"], p["im"])
                for p in report["invariants"]["np_scalars"]]
        assert psis[2] == pytest.approx(1.0 / 27.0, rel=1e-12)
        for k in (0, 1, 3, 4):
            assert abs(psis[k]) <= 1e-14 * abs(psis[2])

    def test_far_schwarzschild_point_is_regular(self, capsys):
        # |det g| falls below 1e-14 max|g|^4 from r ~ 2,660, but the
        # equilibrated metric is as regular as at r = 3
        code, out = run(capsys, "invariants", "--metric", "schwarzschild",
                        "--params", "M=1", "--point", "0,3000,0.7854,0",
                        "--deterministic")
        assert code == 0
        assert json.loads(out)["invariants"]["kretschmann"] == pytest.approx(
            48.0 / 3000.0 ** 6, rel=1e-10)

    @pytest.mark.parametrize("command", ["invariants", "svp"])
    def test_kerr_near_horizon(self, capsys, command):
        # r - r+ = 5e-5: the tetrad check is relative to the size of the
        # Gram entries' terms, which grow like 1 / (r - r+)
        code = main([command, "--metric", "kerr", "--params", "M=1,a=0.5",
                     "--point", "0,1.8661,1,0", "--deterministic"])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_euclidean_zeros(self, capsys):
        code, out = run(capsys, "invariants", "--metric", "euclidean",
                        "--params", "n=4", "--point", "0,0,0,0",
                        "--deterministic")
        assert code == 0
        report = json.loads(out)
        inv = report["invariants"]
        assert inv["ricci_scalar"] == 0.0
        assert inv["kretschmann"] == 0.0
        assert inv["weyl_sq"] == 0.0

    def test_kerr_psi2(self, capsys):
        code, out = run(capsys, "invariants", "--metric", "kerr",
                        "--params", "M=1,a=0.5",
                        "--point", f"0,3,{math.pi / 2},0",
                        "--deterministic")
        assert code == 0
        report = json.loads(out)
        psi2 = report["invariants"]["np_scalars"][2]
        assert psi2["re"] == pytest.approx(1.0 / 27.0, abs=1e-8)
        assert abs(psi2["im"]) < 1e-8

    def test_control_character_in_metric_path(self, capsys, tmp_path):
        path = tmp_path / "half\tplane.metric"
        path.write_text("dimension = 2\ncoordinates = x, y\n"
                        "g[0,0] = 1 / y^2\ng[1,1] = 1 / y^2\n")
        code, out = run(capsys, "invariants", "--metric", str(path),
                        "--point=0.1,1.0", "--deterministic")
        assert code == 0
        assert json.loads(out)["config"]["metric"] == str(path)

    KERR = ("invariants", "--metric", "kerr", "--params", "M=1,a=0.6",
            "--point", "0,4,1.1,0", "--deterministic")

    def test_csv_carries_every_json_invariant(self, capsys):
        _, out = run(capsys, *self.KERR)
        inv = json.loads(out)["invariants"]
        want = {name: inv[name] for name in ("ricci_scalar", "kretschmann",
                                             "weyl_sq", "weyl_norm")}
        for k, p in enumerate(inv["np_scalars"]):
            want[f"psi{k}_re"], want[f"psi{k}_im"] = p["re"], p["im"]
        want["invariant_I_re"] = inv["invariant_I"]["re"]
        want["invariant_I_im"] = inv["invariant_I"]["im"]
        code, out = run(capsys, *self.KERR, "--output", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "name,value"
        rows = [line.split(",") for line in lines[1:]]
        assert [name for name, _ in rows] == list(want)
        assert {name: float(value) for name, value in rows} == want

    def test_csv_weyl_norm_null_where_weyl_square_is_negative(self, capsys):
        argv = ["invariants", "--metric", "kerr", "--params", "M=1,a=0.9",
                "--point", "0,1.5,0.1,0", "--deterministic"]
        _, out = run(capsys, *argv)
        inv = json.loads(out)["invariants"]
        assert inv["weyl_sq"] < 0 and inv["weyl_norm"] is None
        code, out = run(capsys, *argv, "--output", "csv")
        assert code == 0
        assert "weyl_norm,null" in out.splitlines()

    def test_text_writes_complex_values_as_a_minus_bj(self, capsys):
        _, out = run(capsys, *self.KERR)
        inv = json.loads(out)["invariants"]
        want = {f"psi{k}": p for k, p in enumerate(inv["np_scalars"])}
        want["invariant I"] = inv["invariant_I"]
        assert min(p["im"] for p in want.values()) < 0
        code, out = run(capsys, *self.KERR, "--output", "text")
        assert code == 0
        got = dict(line.split(" : ") for line in out.splitlines()
                   if " : " in line)
        for name, p in want.items():
            sign = "-" if p["im"] < 0 else "+"
            text = got[name.ljust(14)]
            assert text == f"{p['re']:.17g} {sign} {abs(p['im']):.17g}j"
            assert complex(text.replace(" ", "")) == complex(p["re"], p["im"])


# Kerr points outside the horizon where Re psi2 < 0: (spin, --point)
KERR_NEGATIVE_PSI2 = [(0.9, "0,1.5,0.1,0"), (0.99, "0,1.2,0.05,0")]


class TestSvpCommand:
    def test_sphere_clusters(self, capsys):
        code, out = run(capsys, "svp", "--metric", "sphere2", "--point",
                        "1.0472,0", "--starts", "40", "--deterministic")
        assert code == 0
        report = json.loads(out)
        sigmas = sorted(s["sigma"] for s in report["solutions"])
        assert abs(sigmas[0]) < 1e-10
        assert abs(sigmas[-1] - 1.0) < 1e-10
        assert all(e["matched"] for e in report["expected"])

    def test_space_form_clusters(self, capsys):
        code, out = run(capsys, "svp", "--metric", "space-form", "--params",
                        "kappa=2,n=3", "--starts", "40", "--deterministic")
        assert code == 0
        report = json.loads(out)
        sigmas = [s["sigma"] for s in report["solutions"]]
        assert any(abs(v - 2.0) < 1e-9 for v in sigmas)
        assert all(e["matched"] for e in report["expected"])

    @pytest.mark.parametrize("spin, point", KERR_NEGATIVE_PSI2)
    def test_kerr_negative_re_psi2_matched(self, capsys, spin, point):
        code, out = run(capsys, "svp", "--metric", "kerr", "--params",
                        f"M=1,a={spin}", "--point", point, "--deterministic")
        assert code == 0
        report = json.loads(out)
        (sol,) = report["solutions"]
        assert sol["origin"] == "reduced"
        assert sol["residual"] < 1e-10
        special = report["expected"][1]
        assert special["matched"] is True
        assert sol["sigma"] == pytest.approx(special["sigma"], rel=1e-12)

    def test_far_field_spurious_sigma_not_matched(self, capsys):
        # at r = 1000 the starts find only 0 and a spurious 3.5e-11, which
        # an absolute window of 1e-8 took for M / r^3 = 1e-9
        code, out = run(capsys, "svp", "--metric", "schwarzschild",
                        "--params", "M=1",
                        "--point=0,1000,1.5707963267948966,0", "--method",
                        "multistart", "--starts", "200", "--seed", "0",
                        "--deterministic")
        assert code == 0
        matched = {e["sigma"]: e["matched"]
                   for e in json.loads(out)["expected"]}
        assert matched[1e-9] is False

    def test_zero_yield_warns(self, capsys):
        argv = ["svp", "--metric", "schwarzschild", "--params", "M=1",
                "--point=0,100,1.5707963267948966,0", "--method",
                "multistart", "--starts", "200", "--seed", "0",
                "--deterministic"]
        outs = []
        for _ in range(2):
            assert main(argv) == 0
            captured = capsys.readouterr()
            assert captured.err == (
                "warning: none of the 200 starts converged; only the "
                "analytic trivial solution is reported\n")
            outs.append(captured.out)
        assert outs[0].encode() == outs[1].encode()
        assert [s["origin"] for s in json.loads(outs[0])["solutions"]] == [
            "analytic"]

    def test_small_mass_reduced_matched(self, capsys):
        # r = 3M at M = 1e-3: sigma = 1 / (27 M^2) at every scale
        code, out = run(capsys, "svp", "--metric", "schwarzschild",
                        "--params", "M=0.001", "--point", "0,0.003,1,0",
                        "--deterministic")
        assert code == 0
        report = json.loads(out)
        assert report["expected"][1]["matched"] is True
        assert report["solutions"][0]["sigma"] == pytest.approx(
            1e6 / 27.0, rel=1e-12)

    def test_schwarzschild_reduced_method(self, capsys):
        code, out = run(capsys, "svp", "--metric", "schwarzschild",
                        "--params", "M=1", "--point", "0,3,0.7854,0",
                        "--method", "reduced", "--deterministic")
        assert code == 0
        report = json.loads(out)
        assert report["method"] == "reduced"
        assert report["solutions"][0]["sigma"] == pytest.approx(
            0.037037037037037035, abs=1e-12)

    def test_auto_uses_reduced_for_black_holes(self, capsys):
        code, out = run(capsys, "svp", "--metric", "kerr", "--params",
                        "M=1,a=0.5", "--point", f"0,3,{math.pi / 2},0",
                        "--deterministic")
        assert code == 0
        report = json.loads(out)
        assert report["method"] == "reduced"
        assert report["solutions"][0]["origin"] == "reduced"

    def test_csv_one_row_per_cluster(self, capsys):
        code, out = run(capsys, "svp", "--metric", "sphere2", "--point",
                        "1.0472,0", "--starts", "40", "--deterministic",
                        "--output", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "sigma,residual,origin,count,trivial,orbit_size"
        assert len(lines) == 3  # header + sigma=0 cluster + sigma=1 cluster

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out = run(capsys, "svp", "--metric", "sphere2", "--point",
                        "1.0,0", "--starts", "10", "--deterministic",
                        "--out", str(out_path))
        assert code == 0
        assert out == ""
        report = json.loads(out_path.read_text())
        assert report["command"] == "svp"

    def test_unwritable_out_is_config_error(self, capsys, tmp_path):
        code = main(["svp", "--metric", "sphere2", "--starts", "5",
                     "--out", str(tmp_path / "absent" / "report.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot write --out")
        assert "Traceback" not in err


class TestVerifyCommand:
    def test_schwarzschild_all_pass(self, capsys):
        code, out = run(capsys, "verify", "--metric", "schwarzschild",
                        "--params", "M=1", "--point", "0,3,0.7854,0",
                        "--starts", "40", "--deterministic")
        assert code == 0
        report = json.loads(out)
        assert report["all_passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert {"symmetries", "bianchi", "prop1", "orbit-closure",
                "remark2-lorentz", "det-S", "sigma-equals-R"} <= names
        det_s = [c for c in report["checks"] if c["name"] == "det-S"][0]
        assert det_s["skipped"] is False

    def test_sphere_skips_lorentz_check(self, capsys):
        code, out = run(capsys, "verify", "--metric", "sphere2", "--point",
                        "1.0472,0", "--starts", "30", "--deterministic")
        assert code == 0
        report = json.loads(out)
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["remark2-lorentz"]["skipped"] is True
        assert by_name["symmetries"]["pass"] is True

    def test_mixed_sign_check_without_evidence_is_skipped(self, capsys):
        # far from the hole +++- starts are rare (56 of 200 at seed 0) and
        # none converges, so the mixed-sign search has nothing to show and
        # the check must not pass on it
        code, out = run(capsys, "verify", "--metric", "schwarzschild",
                        "--params", "M=1", "--point", "0,100,1.5708,0",
                        "--seed", "0", "--deterministic")
        assert code == 0
        by_name = {c["name"]: c for c in json.loads(out)["checks"]}
        assert by_name["remark2-lorentz"]["skipped"] is True
        assert by_name["remark2-lorentz"]["note"] == (
            "no mixed-sign start converged")

    @pytest.mark.parametrize("signs", ["++--", "--++"])
    def test_paired_signs_without_evidence_are_skipped(self, capsys, signs):
        # no start of these patterns converges at r = 20; the analytic
        # sigma = 0 row multistart adds is no evidence of Remark 2
        code, out = run(capsys, "verify", "--metric", "schwarzschild",
                        "--params", "M=1", "--point", "0,20,1.2,0",
                        f"--signs={signs}", "--deterministic")
        assert code == 0
        by_name = {c["name"]: c for c in json.loads(out)["checks"]}
        assert by_name["remark2-lorentz"]["skipped"] is True
        assert by_name["remark2-lorentz"]["note"] == (
            "no mixed-sign start converged")

    def test_space_form_identities_run(self, capsys):
        code, out = run(capsys, "verify", "--metric", "space-form",
                        "--params", "kappa=1,n=4", "--starts", "40",
                        "--deterministic")
        assert code == 0
        report = json.loads(out)
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["example2-identities"]["skipped"] is False
        assert by_name["example2-identities"]["pass"] is True
        assert by_name["example3-byproduct"]["skipped"] is False

    def test_wrong_sigma_at_small_curvature_exits_5(self, capsys,
                                                    monkeypatch):
        # the unit-curvature solutions with sigma scaled to 1.5 kappa at
        # kappa = 1e-9: defects near 5e-10, under an absolute 1e-8 window
        from riemsvp import cli
        from riemsvp.svp import SolverConfig, multistart

        kappa = 1e-9
        cd = riemann(catalog.space_form(1.0, 4).spec, np.zeros(4))
        sols = multistart(cd, SolverConfig(n_starts=40))
        assert any(s.sigma > 0.5 for s in sols)
        wrong = [dataclasses.replace(s, sigma=1.5 * kappa * s.sigma)
                 for s in sols]
        monkeypatch.setattr(cli, "multistart", lambda cd, cfg: wrong)
        code, out = run(capsys, "verify", "--metric", "space-form",
                        "--params", f"kappa={kappa!r},n=4", "--deterministic")
        assert code == 5
        by_name = {c["name"]: c for c in json.loads(out)["checks"]}
        for name in ("sigma-equals-R", "example2-identities"):
            assert by_name[name]["pass"] is False
            assert by_name[name]["max_defect"] > 0.4
        assert by_name["prop1"]["pass"] is True

    @pytest.mark.parametrize("nan_first", [False, True],
                             ids=["good-then-nan", "nan-then-good"])
    def test_nan_defect_fails_in_either_order(self, capsys, monkeypatch,
                                              nan_first):
        # a solution whose vectors are NaN has NaN defects, which must fail
        # their checks wherever the solution falls in the list
        from riemsvp import cli
        from riemsvp.svp import SolverConfig, multistart

        cd = riemann(catalog.sphere2().spec, [1.0472, 0.0])
        good = max(multistart(cd, SolverConfig(n_starts=30)),
                   key=lambda s: s.sigma)
        bad = dataclasses.replace(good, q=dataclasses.replace(
            good.q, w=np.full(2, np.nan), x=np.full(2, np.nan)))
        sols = [bad, good] if nan_first else [good, bad]
        monkeypatch.setattr(cli, "multistart", lambda cd, cfg: sols)
        code, out = run(capsys, "verify", "--metric", "sphere2", "--point",
                        "1.0472,0", "--deterministic")
        assert code == 5
        by_name = {c["name"]: c for c in json.loads(out)["checks"]}
        for name in ("prop1", "sigma-equals-R"):
            assert by_name[name]["pass"] is False
            assert by_name[name]["max_defect"] is None

    def test_orbit_closure_judges_every_solution(self, capsys, monkeypatch):
        # a solution that is not one (W doubled, residual not finite) has
        # an orbit of non-solutions, which orbit-closure must fail
        from riemsvp import cli
        from riemsvp.svp import SolverConfig, multistart

        cd = riemann(catalog.sphere2().spec, [1.0472, 0.0])
        good = max(multistart(cd, SolverConfig(n_starts=30)),
                   key=lambda s: s.sigma)
        bad = dataclasses.replace(
            good, residual=math.inf,
            q=dataclasses.replace(good.q, w=2.0 * good.q.w))
        monkeypatch.setattr(cli, "multistart", lambda cd, cfg: [good, bad])
        code, out = run(capsys, "verify", "--metric", "sphere2", "--point",
                        "1.0472,0", "--deterministic")
        assert code == 5
        by_name = {c["name"]: c for c in json.loads(out)["checks"]}
        check = by_name["orbit-closure"]
        assert check["pass"] is False
        assert check["max_defect"] > 1.0

    @pytest.mark.parametrize("metric", [
        ["--metric", "space-form", "--params", "kappa=1e6,n=4"],
        ["--metric", "euclidean"],
    ], ids=["kappa=1e6", "euclidean"])
    def test_checks_without_nonzero_sigma_are_skipped(self, capsys, metric):
        code, out = run(capsys, "verify", *metric, "--starts", "40",
                        "--deterministic")
        assert code == 0
        by_name = {c["name"]: c for c in json.loads(out)["checks"]}
        names = ["prop1"]
        if metric[1] == "space-form":
            names += ["example2-identities", "example3-byproduct"]
        for name in names:
            assert by_name[name]["skipped"] is True
            assert by_name[name]["note"] == "no non-zero sigma converged"
        assert by_name["sigma-equals-R"]["skipped"] is False
        assert by_name["sigma-equals-R"]["pass"] is True

    KERR_FAR_AXIS = ("verify", "--metric", "kerr", "--params", "M=1,a=0.9",
                     "--point", "0,1000,0.01,0", "--deterministic")

    def test_kerr_far_axis_geometry_passes(self, capsys):
        # Kerr's table is symmetric to rounding near the axis at large r,
        # so the geometry checks pass and the solution checks run
        code, out = run(capsys, *self.KERR_FAR_AXIS)
        report = json.loads(out)
        assert report["curvature_path"] == "analytic"
        by_name = {c["name"]: c for c in report["checks"]}
        for name in ("symmetries", "bianchi"):
            assert by_name[name]["pass"] is True
            assert by_name[name]["max_defect"] <= 1e-15
        assert by_name["prop1"]["skipped"] is False

    @pytest.mark.xfail(strict=True, reason=(
        "the search converges a spurious sigma = 1.2e-14 there (106 of 200 "
        "starts, residual 9.6e-13 under the absolute tol 1e-11, against a "
        "curvature scale of 2e-9) with <W, X> = 1, which prop1 rejects; a "
        "tolerance relative to the curvature scale would drop it"))
    def test_kerr_far_axis_passes(self, capsys):
        assert run(capsys, *self.KERR_FAR_AXIS)[0] == 0

    def test_corrupted_metric_exits_5(self, capsys, tmp_path):
        path = tmp_path / "broken.metric"
        path.write_text(CORRUPTED_METRIC)
        code, out = run(capsys, "verify", "--metric", str(path),
                        "--point", "0.5,0.5", "--starts", "5",
                        "--deterministic")
        assert code == 5
        report = json.loads(out)
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["symmetries"]["pass"] is False
        assert report["all_passed"] is False


class TestOrbitCommand:
    def test_sphere_orbit(self, capsys):
        code, out = run(capsys, "orbit", "--metric", "sphere2", "--point",
                        "1.0472,0", "--starts", "30", "--deterministic")
        assert code == 0
        report = json.loads(out)
        assert len(report["members"]) == 26
        assert max(abs(m["sigma"]) for m in report["members"]) == \
            pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("spin, point", KERR_NEGATIVE_PSI2)
    def test_kerr_negative_re_psi2(self, capsys, spin, point):
        code, out = run(capsys, "orbit", "--metric", "kerr", "--params",
                        f"M=1,a={spin}", "--point", point, "--deterministic")
        assert code == 0
        report = json.loads(out)
        p = np.array(point.split(","), dtype=float)
        want = catalog.kerr(1.0, spin).expected_sigma(p)[1][0]
        assert report["base"]["sigma"] == pytest.approx(want, rel=1e-12)
        assert len(report["members"]) == report["base"]["orbit_size"]
        assert max(m["residual"] for m in report["members"]) < 1e-9


class TestCatalogCommand:
    def test_list(self, capsys):
        code, out = run(capsys, "catalog", "list")
        assert code == 0
        for mid in ("sphere2", "space-form", "euclidean", "minkowski",
                    "schwarzschild", "kerr"):
            assert mid in out

    def test_params_follow_registry(self, capsys):
        code, out = run(capsys, "catalog", "list", "--output", "json")
        assert code == 0
        listed = {m["id"]: m["params"] for m in json.loads(out)["metrics"]}
        assert listed == {"sphere2": [], "space-form": ["kappa", "n"],
                          "euclidean": ["n"], "minkowski": [],
                          "schwarzschild": ["M"], "kerr": ["M", "a"]}


class TestExitCodes:
    def test_unknown_metric_is_config_error(self, capsys):
        code = main(["svp", "--metric", "torus", "--point", "0,0"])
        assert code == 2

    def test_bad_params_is_config_error(self, capsys):
        code = main(["svp", "--metric", "schwarzschild", "--params",
                     "M=abc", "--point", "0,3,1,0"])
        assert code == 2

    def test_repeated_param_is_config_error(self, capsys):
        code = main(["svp", "--metric", "schwarzschild", "--params",
                     "M=1, M=2", "--starts", "5"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--params sets 'M' twice" in captured.err

    def test_undeclared_param_is_config_error(self, capsys):
        code = main(["svp", "--metric", "schwarzschild", "--params", "m=1",
                     "--point", "0,3,0.7854,0"])
        assert code == 2
        assert "does not take params m " in capsys.readouterr().err

    def test_wrong_point_length_is_config_error(self, capsys):
        code = main(["invariants", "--metric", "sphere2", "--point",
                     "1,2,3"])
        assert code == 2

    def test_inside_horizon_is_domain_error(self, capsys):
        code = main(["invariants", "--metric", "schwarzschild", "--params",
                     "M=1", "--point", "0,1.5,1.0,0"])
        assert code == 3

    def test_tetrad_at_horizon_is_domain_error(self, capsys):
        # r - r+ = 2.1e-10: g and the tetrad disagree by 1.0e-7 of the
        # terms of their Gram entries, beyond rounding
        code = main(["invariants", "--metric", "kerr", "--params",
                     "M=1,a=2.581792128904692e-05", "--point",
                     "0,1.9999999998747175,0.03756337277125536,0"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("domain error: tetrad normalization")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("mass", ["0.001", "1000"])
    @pytest.mark.parametrize("command", ["invariants", "svp"])
    def test_schwarzschild_horizon_band(self, capsys, mass, command):
        # the tetrad check fails within about 1e-8 M of the horizon and
        # passes from 1e-7 M out, at every mass
        m = float(mass)
        for gap, want in ((1e-10, 3), (1e-9, 3), (1e-7, 0), (1e-6, 0)):
            code = main([command, "--metric", "schwarzschild", "--params",
                         f"M={mass}", "--point", f"0,{2 * m + gap * m!r},1,0",
                         "--deterministic"])
            assert code == want, gap
            err = capsys.readouterr().err
            assert err.startswith("domain error: tetrad") if want else not err

    def test_pole_is_domain_error(self, capsys):
        code = main(["invariants", "--metric", "sphere2", "--point", "0,0"])
        assert code == 3

    @pytest.mark.parametrize("radius", [1.0, 1e-3])
    def test_near_pole_does_not_depend_on_units(self, capsys, tmp_path,
                                                radius):
        # det g = radius^4 sin^2(th): the singular test compares it with
        # max|g|^2 = radius^4, so a small sphere is no closer to singular
        path = tmp_path / "sphere.metric"
        path.write_text(f"dimension = 2\ncoordinates = th, ph\n"
                        f"g[0,0] = {radius ** 2!r}\n"
                        f"g[1,1] = {radius ** 2!r}*sin(th)^2\n")
        code, out = run(capsys, "invariants", "--metric", str(path),
                        "--point", "0.05,0", "--deterministic")
        assert code == 0
        scalar = json.loads(out)["invariants"]["ricci_scalar"]
        assert scalar * radius ** 2 == pytest.approx(2.0, rel=1e-4)

    @pytest.mark.parametrize("command", ["orbit", "verify"])
    @pytest.mark.parametrize("metric, point", [
        (["--metric", "schwarzschild", "--params", "M=1"], "0,1.5,1.0,0"),
        (["--metric", "sphere2"], "5e-4,0"),
    ], ids=["inside-horizon", "near-pole"])
    def test_outside_domain_is_domain_error(self, capsys, command, metric,
                                            point):
        method = ["--method", "multistart"] if command == "orbit" else []
        code = main([command, *metric, "--point", point, *method,
                     "--starts", "5"])
        assert code == 3
        assert "outside the admissible domain" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["svp", "--metric", "sphere2", "--point=nan,0"],
        ["svp", "--metric", "sphere2", "--point", "inf,0"],
        ["svp", "--metric", "schwarzschild", "--params", "M=nan"],
        ["invariants", "--metric", "space-form", "--params", "kappa=nan,n=3"],
        ["invariants", "--metric", "space-form", "--params", "kappa=1,n=2.5"],
        ["invariants", "--metric", "euclidean", "--params", "n=2.5"],
        ["svp", "--metric", "sphere2", "--tol", "nan", "--starts", "5"],
        ["svp", "--metric", "sphere2", "--tol", "inf", "--starts", "5"],
        ["invariants", "--metric", "sphere2", "--tol", "nan", "--starts", "-4",
         "--deterministic"],
    ], ids=["point-nan", "point-inf", "params-nan", "kappa-nan",
            "space-form-n-fraction", "euclidean-n-fraction", "tol-nan",
            "tol-inf", "invariants-solver-flags"])
    def test_malformed_number_is_config_error(self, capsys, argv):
        # invariants takes no solver flags: argparse rejects them
        code = exit_code(argv)
        assert code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["svp", "verify", "invariants"])
    def test_negative_seed_is_config_error(self, capsys, command):
        code = exit_code([command, "--metric", "sphere2", "--seed", "-1",
                          "--starts", "5", "--deterministic"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        if command == "invariants":
            # invariants takes no solver flags: argparse rejects them
            assert ("error: unrecognized arguments: --seed -1 --starts 5"
                    in captured.err)
        else:
            assert captured.err.startswith("configuration error: rng_seed")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command, keys", [
        ("invariants", ["metric", "params", "point"]),
        ("verify", ["metric", "params", "point", "signs", "tol", "starts",
                    "seed"]),
        ("svp", ["metric", "params", "point", "signs", "tol", "starts",
                 "seed", "method"]),
    ], ids=["invariants", "verify", "svp"])
    def test_config_echoes_only_the_options_a_command_takes(self, capsys,
                                                            command, keys):
        argv = [command, "--metric", "sphere2", "--point", "1,0"]
        starts = [] if command == "invariants" else ["--starts", "5"]
        code, out = run(capsys, *argv, *starts, "--deterministic")
        assert code == 0
        report = json.loads(out)
        assert list(report["config"]) == keys
        assert ("rng_seed" in report) == ("seed" in keys)
        if "method" not in keys:
            assert exit_code(argv + ["--method", "multistart"]) == 2
            assert ("unrecognized arguments: --method multistart"
                    in capsys.readouterr().err)

    def test_metric_file_named_like_catalog_id(self, capsys, tmp_path):
        path = tmp_path / "schwarzschild.metric"
        path.write_text("dimension = 2\ncoordinates = u, v\n"
                        "g[0,0] = 1\ng[1,1] = 1\n")
        code = main(["svp", "--metric", str(path), "--point", "0,0",
                     "--starts", "5", "--deterministic"])
        assert code == 0

    def test_metric_file_rejects_params(self, capsys, tmp_path):
        path = tmp_path / "halfplane.metric"
        path.write_text("dimension = 2\ncoordinates = x, y\n"
                        "g[0,0] = 1 / y^2\ng[1,1] = 1 / y^2\n")
        code = main(["svp", "--metric", str(path), "--params", "M=3",
                     "--point=0,1", "--deterministic"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "does not take params M" in captured.err

    def test_infeasible_signs_is_domain_error(self, capsys):
        code = main(["svp", "--metric", "sphere2", "--point", "1.0,0",
                     "--signs", "+++-", "--starts", "5"])
        assert code == 3

    def test_metric_file_non_integer_dimension_is_config_error(self, capsys,
                                                              tmp_path):
        path = tmp_path / "half.metric"
        path.write_text("dimension = 2.5\ng[0,0] = 1\n")
        code = main(["svp", "--metric", str(path), "--point", "0,1",
                     "--deterministic"])
        assert code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("component, message", [
        ("1/0 + y^2", "constant arithmetic in '1/0 + y^2' has no real value"),
        ("10^400 + y", "constant arithmetic"),
        ("(0-8)^(1/3) + y^2", "constant arithmetic"),
        ("(" * 300 + "y" + ")" * 300, "the expression nests too deeply"),
        (" + ".join(["y"] * 3000), "the expression nests too deeply"),
        ("1e200*1e200 + y", "constant arithmetic"),
        ("sqrt(0-1) + y^2", "constant arithmetic"),
        ("log(0) + y", "constant arithmetic"),
        ("log(log(0.5)) + y", "constant arithmetic"),
        ("1e400", "literal '1e400' in '1e400' is not finite"),
        ("1e400 + y", "literal '1e400' in '1e400 + y' is not finite"),
        (" ^ ".join(["y"] * 3000), "the expression nests too deeply"),
        ("1 + z", "unknown name 'z'; coordinates are x, y"),
        ("foo(y) + 1", "unknown function 'foo'"),
        ("1 + y @ 2", "unexpected character '@' in '1 + y @ 2'"),
    ], ids=["division-by-zero", "overflow", "complex-power",
            "nested-parentheses", "long-sum", "infinite-product",
            "sqrt-of-negative", "log-of-zero", "log-of-a-negative-log",
            "overflowing-literal", "overflowing-literal-sum",
            "long-power-chain", "unknown-name", "unknown-function",
            "unexpected-character"])
    def test_metric_file_component_is_config_error(self, capsys, tmp_path,
                                                   component, message):
        path = tmp_path / "bad.metric"
        path.write_text("dimension = 2\ncoordinates = x, y\n"
                        f"g[0,0] = {component}\ng[1,1] = 1\n")
        code = main(["invariants", "--metric", str(path), "--point", "0,1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"configuration error: g[0,0]: {message}")
        assert "Traceback" not in captured.err

    def test_metric_without_second_derivatives_is_domain_error(
            self, capsys, tmp_path):
        # sqrt(x^2) has no derivative at x = 0
        path = tmp_path / "kink.metric"
        path.write_text("dimension = 2\ncoordinates = x, y\n"
                        "g[0,0] = sqrt(x^2) + 1\ng[1,1] = 1\n")
        code = main(["invariants", "--metric", str(path), "--point", "0,1"])
        assert code == 3
        assert capsys.readouterr().err == (
            "domain error: metric derivatives non-finite at [0.0, 1.0]\n")

    def test_overflowing_equilibration_is_domain_error(self, capsys,
                                                       tmp_path):
        # the equilibrated symmetric part overflows, so its eigenvalue ratio
        # is NaN: singular, not a crash
        path = tmp_path / "overflow.metric"
        path.write_text("dimension = 2\ncoordinates = x, y\n"
                        "g[0,0] = 1 + 0*y\ng[0,1] = 1.7e308\n"
                        "g[1,0] = 0\ng[1,1] = 5e-324\n")
        code = main(["invariants", "--metric", str(path), "--point", "0,1"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "domain error: metric 'overflow' is singular at [0.0, 1.0] "
            "(equilibrated eigenvalue ratio nan)\n")

    def test_declared_signature_mismatch_is_domain_error(self, capsys,
                                                         tmp_path):
        # at y = -1 the metric is negative definite, not the declared ++
        path = tmp_path / "halfplane.metric"
        path.write_text("dimension = 2\ncoordinates = x, y\n"
                        "signature = +, +\ng[0,0] = 1 / y\ng[1,1] = 1 / y\n")
        code = main(["svp", "--metric", str(path), "--point", "0,-1",
                     "--starts", "5", "--deterministic"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "has 2 negative eigenvalue(s)" in captured.err

    def test_overflowing_metric_is_domain_error_without_warnings(
            self, capsys, tmp_path, recwarn):
        path = tmp_path / "halfplane.metric"
        path.write_text("dimension = 2\ncoordinates = x, y\n"
                        "g[0,0] = 1 / y\ng[1,1] = 1 / y\n")
        # g = 1e300 times the identity is regular, but its derivatives
        # (-1/y^2 = -1e600) overflow
        code = main(["verify", "--metric", str(path), "--point", "0,1e-300",
                     "--starts", "5", "--deterministic"])
        assert code == 3
        assert capsys.readouterr().err == (
            "domain error: metric derivatives non-finite at [0.0, 1e-300]\n")
        assert [str(w.message) for w in recwarn] == []

    def test_metric_overflowing_next_to_the_point_warns_nothing(
            self, capsys, tmp_path, recwarn):
        # exp(709.5) is finite and the metric regular, but the sums of its
        # derivatives in the Christoffel symbols overflow
        path = tmp_path / "growing.metric"
        path.write_text("dimension = 2\ncoordinates = x, y\n"
                        "g[0,0] = exp(x)\ng[1,1] = exp(x)\n")
        code = main(["invariants", "--metric", str(path),
                     "--point", "709.5,0"])
        assert code == 3
        assert capsys.readouterr().err == (
            "domain error: Christoffel derivatives non-finite at "
            "[709.5, 0.0]\n")
        assert [str(w.message) for w in recwarn] == []

    def test_empty_start_batch_is_exit_4(self, capsys):
        # at r = 1000 the sampler finds one +++- start in 200, and it does
        # not converge
        code = main(["svp", "--metric", "schwarzschild", "--params", "M=1",
                     "--point", "0,1000,1.5708,0", "--signs=+++-",
                     "--method", "multistart", "--seed", "0",
                     "--deterministic"])
        assert code == 4
        assert "no start converged" in capsys.readouterr().err

    def test_no_convergence_is_exit_4(self, capsys):
        # no residual gets below a tolerance of 1e-300, and no
        # repeated-pair zero solution is feasible for this pattern
        code = main(["svp", "--metric", "schwarzschild", "--params", "M=1",
                     "--point", "0,3,0.7854,0", "--signs", "+++-",
                     "--starts", "1", "--seed", "0", "--tol", "1e-300",
                     "--method", "multistart"])
        assert code == 4


class TestCurvatureOnce:
    """The curvature at the point is computed once per command and shared
    by the reduced solver."""

    @staticmethod
    def run_counting(capsys, monkeypatch, command, count):
        """Run ``command`` on catalog Kerr rebuilt by ``count(spec, calls)``
        and return the calls it recorded."""
        calls = []
        make = catalog.kerr

        def counting_kerr(mass, spin):
            entry = make(mass, spin)
            return dataclasses.replace(entry, spec=count(entry.spec, calls))

        monkeypatch.setattr(catalog, "kerr", counting_kerr)
        code = main([command, "--metric", "kerr", "--deterministic"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["command"] == command
        return calls

    @pytest.mark.parametrize("command", ["svp", "orbit"])
    def test_kerr_metric_evaluations(self, capsys, monkeypatch, command):
        # without its table, Kerr's curvature is derived from g on jets
        def count(spec, calls):
            def g(p):
                if p.dtype == object:
                    calls.append(p)
                return spec.g(p)

            return dataclasses.replace(spec, g=g, analytic_riemann=None)

        assert len(self.run_counting(capsys, monkeypatch, command, count)) == 1

    @pytest.mark.parametrize("command", ["svp", "orbit"])
    def test_kerr_table_calls(self, capsys, monkeypatch, command):
        def count(spec, calls):
            def table(p):
                calls.append(p)
                return spec.analytic_riemann(p)

            return dataclasses.replace(spec, analytic_riemann=table)

        assert len(self.run_counting(capsys, monkeypatch, command, count)) == 1


def third_party_modules(code):
    """Top-level modules outside the standard library that a fresh
    interpreter has loaded after running ``code``."""
    src = str(Path(catalog.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    report = ("import sys\n"
              "names = {m.partition('.')[0] for m in sys.modules}\n"
              "print(*sorted(names - set(sys.stdlib_module_names)))")
    out = subprocess.run([sys.executable, "-c", code + "\n" + report],
                         env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.splitlines()[-1].split())


def test_numpy_is_the_only_runtime_dependency():
    # numpy.random loads cython_runtime and _cython_* modules, and site
    # start-up may load others, so the baseline is a process that imports
    # numpy and the two numpy submodules the package uses
    baseline = third_party_modules(
        "import numpy, numpy.linalg, numpy.random")
    got = third_party_modules(
        "import contextlib, io\n"
        "from riemsvp import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['svp', '--metric', 'sphere2', '--point', '1,0',"
        " '--deterministic'])")
    assert got == baseline | {"riemsvp"}


class TestJsonRenderer:
    def test_seventeen_digit_floats(self):
        text = render_json({"v": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_round_trip(self):
        obj = {"a": [1.0, 2.5e-17, -3.0], "b": {"c": True, "d": None},
               "e": "x\"y", "n": 42}
        parsed = json.loads(render_json(obj))
        assert parsed["a"] == [1.0, 2.5e-17, -3.0]
        assert parsed["b"] == {"c": True, "d": None}
        assert parsed["e"] == 'x"y'
        assert parsed["n"] == 42

    def test_complex_rendering(self):
        parsed = json.loads(render_json({"psi": 1.5 - 0.25j}))
        assert parsed["psi"] == {"re": 1.5, "im": -0.25}

    def test_arrays(self):
        parsed = json.loads(render_json(np.array([1.0, 0.5])))
        assert parsed == [1.0, 0.5]

    def test_strings_escaped_as_json_dumps(self):
        text = "".join(map(chr, range(0x110000)))
        text = text[:0xD800] + text[0xE000:]  # no lone surrogates
        assert render_json(text) == json.dumps(text, ensure_ascii=False)
        obj = {"key\t\x1f\"": ["\b\f\n\r\\", "\u00e9\u2028\x7f"]}
        assert json.loads(render_json(obj)) == obj
