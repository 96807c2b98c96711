import ast
import dataclasses
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from geolab.cli import main
from geolab.config import RunConfig, load_config
from geolab.descent import DescentResult, SweepoutFamily, SweepoutResult
from geolab.errors import ConfigError
from geolab.loops import iterate, make_loop, one_sided_velocities

from conftest import ZOO, great_circle_loop, save_loop_json, waist_loop

REPO = Path(__file__).resolve().parents[1]


def write_yaml(path, text):
    path.write_text(text)
    return str(path)


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


def test_config_round_trip(tmp_path):
    cfg = RunConfig(chart="funnel", n_nodes=96, seed=5, alpha=2, ell=7.5)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg.to_dict()))
    assert load_config(path) == cfg


def test_config_reads_json_written_floats(tmp_path):
    # json.dumps writes 1e-08, which YAML 1.1 resolvers read as a string
    path = write_yaml(tmp_path / "cfg.json", json.dumps({"chart": "plane", "grad_tol": 1e-8}))
    cfg = load_config(path)
    assert cfg.grad_tol == 1e-8 and isinstance(cfg.grad_tol, float)


def test_config_unknown_field(tmp_path):
    path = write_yaml(tmp_path / "bad.yaml", "chart: plane\nwarp_factor: 9\n")
    with pytest.raises(ConfigError, match="warp_factor"):
        load_config(path)


def test_config_unknown_chart(tmp_path):
    path = write_yaml(tmp_path / "bad.yaml", "chart: moebius\n")
    with pytest.raises(ConfigError, match="moebius"):
        load_config(path)


def test_config_yaml_error_reports_line(tmp_path):
    path = write_yaml(tmp_path / "bad.yaml", "chart: plane\n  bad_indent: {\n")
    with pytest.raises(ConfigError, match="line"):
        load_config(path)


def test_config_field_range(tmp_path):
    for text, field in [("chart: plane\nn_nodes: 4\n", "n_nodes"),
                        ("chart: funnel\nchart_params: {radius: 2.0}\n", "chart_params"),
                        ("chart: plane\nstart_band: 3.0\n", "start_band"),
                        ("chart: plane\nn_nodes: 32.5\n", "n_nodes"),
                        ("chart: plane\nn_nodes: 1e2\n", "n_nodes"),
                        ("chart: plane\nstart_band: [3.0, 0.0]\n", "start_band"),
                        ("chart: plane\nloop_path: 5\n", "loop_path"),
                        ("chart: plane\nmax_iter: 0\n", "max_iter"),
                        ("chart: plane\nmax_rounds: 0\n", "max_rounds"),
                        ("chart: plane\nfamily_members: 0\n", "family_members"),
                        ("chart: plane\nargmax_grad_tol: 0.0\n", "argmax_grad_tol"),
                        ("chart: plane\nfamily_r_max: 0.0\n", "family_r_max"),
                        ("chart: plane\nfamily_z_halfwidth: -0.5\n", "family_z_halfwidth")]:
        path = write_yaml(tmp_path / "bad.yaml", text)
        with pytest.raises(ConfigError, match=field):
            load_config(path)


def test_cli_config_error_exit_code(tmp_path, capsys):
    for subcommand, text, named in [
            ("find", "chart: moebius\n", "moebius"),
            # the profile 1 - 2 (1 - z^2)^4 vanishes inside the bump
            ("find", "chart: bumped_cylinder\nchart_params: {amplitude: -2.0}\n"
                     "n_nodes: 16\nn_starts: 1\n", "amplitude"),
            # a sweepout family needs at least 3 members
            ("sweep", "chart: plane\nn_nodes: 16\nfamily: concentric\nfamily_members: 1\n",
             "at least 3 members")]:
        path = write_yaml(tmp_path / "bad.yaml", text)
        assert main([subcommand, "--config", path, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and named in err


def test_cli_numerical_failure_exit_code(tmp_path):
    # a coordinate circle on the plane is no geodesic: its orbit will not close
    from geolab.charts import make_chart
    plane = make_chart("plane")
    ts = 2 * np.pi * np.arange(16) / 16
    loop_path = tmp_path / "circle.json"
    save_loop_json(plane, make_loop(plane, 0.4 * np.stack([np.cos(ts), np.sin(ts)], axis=1)),
                   loop_path)
    cfg = write_yaml(tmp_path / "cfg.yaml", f"chart: plane\nloop_path: {loop_path}\n")
    out = str(tmp_path / "report.json")
    assert main(["analyze", "--config", cfg, "--quiet", "--out", out]) == 3
    report = read_report(out)
    assert report["failure"]["type"] == "NotAGeodesicError"
    assert "results" not in report


def test_cli_cross_check_failure_exit_code(tmp_path, monkeypatch):
    from geolab import cli
    from geolab.errors import CrossCheckError

    def disagree(*args, **kwargs):
        raise CrossCheckError("the two routes disagree")

    monkeypatch.setattr(cli, "close_conjugate_points_check", disagree)
    cfg = write_yaml(tmp_path / "cfg.yaml", "chart: funnel\n")
    out = str(tmp_path / "report.json")
    assert main(["verify", "conjpoints", "--config", cfg, "--quiet", "--out", out]) == 4
    assert read_report(out)["failure"] == {"type": "CrossCheckError",
                                           "message": "the two routes disagree"}


@pytest.mark.parametrize("chart_name, kind", [("sphere", "latitudes"),
                                              ("funnel", "winding_band"),
                                              ("plane", "concentric")])
def test_cli_auto_family_is_the_charts_kind(chart_name, kind):
    # family: auto, the default, picks the latitudes on the sphere, the
    # winding band on a chart with a periodic angle, else concentric circles
    from geolab import cli
    from geolab.charts import make_chart
    chart = make_chart(chart_name)
    auto = RunConfig(chart=chart_name, n_nodes=16, family_members=5)
    assert auto.family == "auto"
    got = cli._build_family(auto, chart)
    want = cli._build_family(dataclasses.replace(auto, family=kind), chart)
    assert got.size == want.size == 5
    for a, b in zip(got.members, want.members):
        assert np.array_equal(a.nodes, b.nodes) and a.frame == b.frame


def test_cli_find_plane(tmp_path):
    cfg = write_yaml(tmp_path / "cfg.yaml",
                     "chart: plane\nn_nodes: 32\nn_starts: 4\nseed: 9\n"
                     "winding_mix: contractible\ngrad_tol: 1.0e-6\n")
    out = str(tmp_path / "report.json")
    assert main(["find", "--config", cfg, "--quiet", "--out", out]) == 0
    report = read_report(out)
    assert report["schema"] == 1
    assert report["config"]["chart"] == "plane"
    results = report["results"]
    assert results["n_critical_points"] >= 1
    assert results["lemma_violations"] == 0
    for entry in results["critical_points"]:
        assert entry["energy"] < 1e-10
        assert entry["case"] == "genuine"


def test_cli_records_classification_audit(tmp_path):
    cfg = write_yaml(tmp_path / "cfg.yaml",
                     "chart: plane\nn_nodes: 32\nn_starts: 2\nseed: 3\n"
                     "winding_mix: contractible\ngrad_tol: 1.0e-6\n")
    out = str(tmp_path / "report.json")
    assert main(["find", "--config", cfg, "--quiet", "--out", out]) == 0
    for entry in read_report(out)["results"]["critical_points"]:
        assert abs(entry["basepoint_excess"] - (entry["basepoint_r"] - 2.0)) < 1e-12
        assert entry["acceptance_level"] >= 1e-6
        genuine = entry["ramp_gradient_norm"] <= entry["acceptance_level"]
        assert (entry["case"] == "genuine") == genuine
    # a stored loop is judged at the configured tolerance
    from geolab.charts import make_chart
    plane = make_chart("plane")
    loop_path = tmp_path / "point.json"
    save_loop_json(plane, make_loop(plane, np.tile([0.3, 0.1], (16, 1))), loop_path)
    cfg = write_yaml(tmp_path / "cfg2.yaml",
                     f"chart: plane\nloop_path: {loop_path}\ngrad_tol: 1.0e-7\n")
    assert main(["analyze", "--config", cfg, "--quiet", "--out", out]) == 0
    analysis = read_report(out)["results"]["analysis"]
    assert analysis["acceptance_level"] == 1e-7
    assert analysis["case"] == "genuine" and analysis["basepoint_excess"] < 0


def test_cli_reports_deterministic(tmp_path):
    from geolab.charts import make_chart
    find_cfg = write_yaml(tmp_path / "find.yaml",
                          "chart: cylinder\nn_nodes: 48\nn_starts: 3\nseed: 4\n"
                          "grad_tol: 1.0e-6\nstart_band: [0.0, 1.0]\n")
    # the exact discrete great circle: the shared outgoing orbit and the Bott table
    sph = make_chart("sphere")
    loop_path = tmp_path / "great_circle.json"
    save_loop_json(sph, great_circle_loop(sph, 128), loop_path)
    analyze_cfg = write_yaml(tmp_path / "analyze.yaml",
                             f"chart: sphere\nloop_path: {loop_path}\nm_max: 2\n")
    for sub, cfg in (("find", find_cfg), ("analyze", analyze_cfg)):
        outs = []
        for name in ("a.json", "b.json"):
            out = str(tmp_path / f"{sub}.{name}")
            assert main([sub, "--config", cfg, "--quiet", "--out", out]) == 0
            report = read_report(out)
            report.pop("timestamp")
            outs.append(json.dumps(report, sort_keys=True))
        assert outs[0] == outs[1]
    assert "bott" in report["results"]["analysis"]


def test_cli_seed_override_changes_results(tmp_path):
    cfg = write_yaml(tmp_path / "cfg.yaml",
                     "chart: plane\nn_nodes: 32\nn_starts: 2\nseed: 1\n"
                     "winding_mix: contractible\ngrad_tol: 1.0e-6\n")
    reports = []
    for seed in ("1", "2"):
        out = str(tmp_path / f"s{seed}.json")
        assert main(["find", "--config", cfg, "--quiet", "--seed", seed,
                     "--out", out]) == 0
        reports.append(read_report(out))
    assert reports[0]["config"]["seed"] == 1
    assert reports[1]["config"]["seed"] == 2
    a = reports[0]["results"]["critical_points"][0]["basepoint"]
    b = reports[1]["results"]["critical_points"][0]["basepoint"]
    assert not np.allclose(a, b)


def count_calls(monkeypatch, modules, names):
    """Wrap each named function in every module namespace that binds it."""
    calls = {name: [] for name in names}
    for name in names:
        original = next(getattr(m, name) for m in modules if hasattr(m, name))

        def counted(*args, _name=name, _fn=original, **kwargs):
            out = _fn(*args, **kwargs)
            calls[_name].append(out)
            return out

        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return calls


def test_cli_find_analyses_each_critical_point_once(tmp_path, monkeypatch):
    from geolab import cli
    calls = count_calls(monkeypatch, (cli,), ("analyze_critical_loop",))
    cfg = write_yaml(tmp_path / "cfg.yaml",
                     "chart: funnel\nn_nodes: 128\nn_starts: 4\nwinding_mix: mixed\n"
                     "start_band: [0.0, 3.0]\npenalty_r0: 2.0\ngrad_tol: 1.0e-8\n"
                     "seed: 1826701614\n")
    out = str(tmp_path / "report.json")
    assert main(["find", "--config", cfg, "--quiet", "--out", out]) == 0
    entries = read_report(out)["results"]["critical_points"]
    # the two constant loops lie at different basepoints off the penalty
    # support: one critical manifold, one entry, one analysis
    assert len(calls["analyze_critical_loop"]) == 2
    assert sorted(e["starts"] for e in entries) == [[0, 2], [1, 3]]
    assert all(e["start_index"] == e["starts"][0] for e in entries)
    waist = next(e for e in entries if e["starts"] == [1, 3])
    assert waist["energy"] == pytest.approx(4 * np.pi ** 2, rel=1e-6)
    assert waist["index"] == 0


def test_cli_find_steps_all_starts_as_one_stack(tmp_path, monkeypatch):
    # the starts descend together: one stacked step per iteration of the
    # longest descent, not one per iteration of each start; its Armijo part
    # is one stacked call, skipped once every member is in its Newton tail
    from geolab import cli, descent
    calls = count_calls(monkeypatch, (cli, descent),
                        ("descend_starts", "_descent_step", "_armijo_step"))
    cfg = write_yaml(tmp_path / "cfg.yaml",
                     "chart: funnel\nn_nodes: 128\nn_starts: 4\nwinding_mix: mixed\n"
                     "start_band: [0.0, 3.0]\npenalty_r0: 2.0\ngrad_tol: 1.0e-8\n"
                     "seed: 1826701614\n")
    assert main(["find", "--config", cfg, "--quiet", "--out", str(tmp_path / "r.json")]) == 0
    (results,) = calls["descend_starts"]
    iterations = [res.iterations for res in results]
    assert sum(iterations) > max(iterations) > 1
    assert len(calls["_descent_step"]) == max(iterations)
    assert len(calls["_armijo_step"]) < max(iterations)


def test_cli_find_survives_a_start_collapsing_to_a_constant_loop(tmp_path):
    # start 0 collapses onto the flat end's constant loops, where c falls
    # fourfold per accepted step until mu = c |g|_M is about 1e-12 and
    # H + mu M is singular to rounding (smallest eigenvalue 3.9e-13 against
    # a largest of 512), though a dense Cholesky factorization succeeds and
    # an LU solve raises LinAlgError; the block solve refuses such a pivot
    # at its rounding floor, a refused trial
    cfg = write_yaml(tmp_path / "cfg.yaml",
                     "chart: bumped_cylinder\nn_nodes: 64\nn_starts: 4\nwinding_mix: mixed\n"
                     "start_band: [0.0, 2.0]\npenalty_r0: 2.0\ngrad_tol: 1.0e-8\nseed: 100\n")
    out = str(tmp_path / "r.json")
    assert main(["find", "--config", cfg, "--quiet", "--out", out]) == 0
    results = read_report(out)["results"]
    assert results["non_converged"] == 0
    assert sorted(round(e["energy"], 6) for e in results["critical_points"]) == [
        0.0, 0.0, 39.478418, 39.478418]


def test_cli_analyze_stored_loop(tmp_path, monkeypatch):
    from geolab import cli, jacobi, morse
    from geolab.charts import make_chart
    calls = count_calls(monkeypatch, (cli, jacobi, morse),
                        ("refine_closed_orbit", "conjugate_points",
                         "assemble_second_variation"))
    starts = []
    real_integrate = jacobi.jacobi_propagate

    def spy_integrate(chart, start, *args, **kwargs):
        starts.append(start)
        return real_integrate(chart, start, *args, **kwargs)

    monkeypatch.setattr(jacobi, "jacobi_propagate", spy_integrate)
    solved = []
    real_solve = np.linalg.eigvalsh

    def spy_solve(h, *args, **kwargs):
        solved.append((h.shape[0], np.iscomplexobj(h)))
        return real_solve(h, *args, **kwargs)

    monkeypatch.setattr(morse.np.linalg, "eigvalsh", spy_solve)
    cyl = make_chart("cylinder")
    n = 128
    ts = 2 * np.pi * np.arange(n) / n
    waist = make_loop(cyl, np.stack([np.zeros(n), ts], axis=1))
    loop_path = tmp_path / "waist.json"
    save_loop_json(cyl, waist, loop_path)
    cfg = write_yaml(tmp_path / "cfg.yaml",
                     f"chart: cylinder\nloop_path: {loop_path}\nm_max: 2\n")
    out = str(tmp_path / "report.json")
    assert main(["analyze", "--config", cfg, "--quiet", "--out", out]) == 0
    analysis = read_report(out)["results"]["analysis"]
    assert (analysis["index"], analysis["nullity"]) == (0, 2)
    assert analysis["nullity_monodromy"] == 2
    assert analysis["cp1"] == 0
    assert analysis["lemma_verdict"] == "pass"
    assert analysis["bott"]["bounds_ok"]
    assert analysis["based_cross_check"]["dirichlet_index"] == 0
    # each artefact once: one integration, the outgoing orbit's first shot,
    # one batch of 16 segments from the polygon's nodes k N / 16 with their
    # outgoing velocities, segment 0 from (basepoint, v_+); its junctions
    # close at once, so the stitched shot is the outgoing orbit, read by the
    # conjugate scan and taken by the one shooting (it closes, so there is
    # no re-shoot), the loop's exact and quadrature Hessians, and one
    # unpenalized N-node Hessian for Bott
    assert len(starts) == 1
    idx = np.arange(16) * (n // 16)
    assert np.array_equal(starts[0].base, waist.nodes[idx])
    assert np.array_equal(starts[0].v, one_sided_velocities(cyl, waist, idx)[1])
    assert np.array_equal(starts[0].base[0], waist.basepoint)
    assert np.array_equal(starts[0].v[0], one_sided_velocities(cyl, waist)[1])
    assert len(calls["refine_closed_orbit"]) == 1
    assert len(calls["conjugate_points"]) == 0
    assemblies = sorted((sv.method, sv.n_nodes, sv.alpha is None)
                        for sv in calls["assemble_second_variation"])
    assert assemblies == [("continuum_quadrature", n, False), ("exact_discrete", n, False),
                          ("exact_discrete", n, True)]
    # solves: the exact and quadrature spectra, the pinned (Dirichlet) block,
    # and one N-node solve per Bott omega: the real roots 1 and -1 and the
    # complex twisted copy for i inside the one mean-index arc (0, pi)
    d = cyl.dim
    assert sorted(solved) == [((n - 1) * d, False)] + [(n * d, False)] * 4 \
        + [(n * d, True)]


def test_cli_analyze_great_circle_integrations(tmp_path, monkeypatch):
    # every integration is a batch of B = gcd(N, 16) segments over 1 / B:
    # one first shot on its own steps, from the polygon's nodes, shared by
    # the outgoing orbit and the closing shooting, and re-shoots of both
    # that replay its grid; no single start runs on a critical loop
    from geolab import jacobi
    from geolab.charts import make_chart
    runs, grids = [], []
    real_integrate = jacobi.jacobi_propagate

    def spy_integrate(chart, start, t, grid=None):
        runs.append((np.shape(start.base), t, grid is None))
        out = real_integrate(chart, start, t, grid)
        grids.append((out[0] if isinstance(out, tuple) else out).grid)
        return out

    monkeypatch.setattr(jacobi, "jacobi_propagate", spy_integrate)
    sph = make_chart("sphere")
    loop_path = tmp_path / "great_circle.json"
    save_loop_json(sph, great_circle_loop(sph, 128), loop_path)
    cfg = write_yaml(tmp_path / "cfg.yaml", f"chart: sphere\nloop_path: {loop_path}\nm_max: 2\n")
    out = str(tmp_path / "report.json")
    assert main(["analyze", "--config", cfg, "--quiet", "--out", out]) == 0
    assert read_report(out)["results"]["analysis"]["nullity_monodromy"] == 3
    b = 16
    assert runs[0] == ((b, 2), 1.0 / b, True)
    # at least one re-shoot for each shooting, at most SHOOT_MAX_ITER each
    assert 3 <= len(runs) <= 1 + 2 * jacobi.SHOOT_MAX_ITER
    assert all(run == ((b, 2), 1.0 / b, False) for run in runs[1:])
    assert all(np.array_equal(grid, grids[0]) for grid in grids[1:])


def test_cli_analyze_two_fold_funnel_waist(tmp_path):
    # the 2-fold waist is hyperbolic: its return map's multiplier is 1.8e6,
    # and the one fixed direction (the flow) must still count as the kernel
    from geolab.charts import make_chart
    fun = make_chart("funnel")
    loop_path = tmp_path / "waist2.json"
    save_loop_json(fun, iterate(waist_loop(fun, 128), 2), loop_path)
    cfg = write_yaml(tmp_path / "cfg.yaml", f"chart: funnel\nloop_path: {loop_path}\nm_max: 1\n")
    out = str(tmp_path / "report.json")
    assert main(["analyze", "--config", cfg, "--quiet", "--out", out]) == 0
    analysis = read_report(out)["results"]["analysis"]
    assert (analysis["index"], analysis["nullity"]) == (0, 1)
    assert analysis["nullity_monodromy"] == 1
    assert [(r["index"], r["nullity"]) for r in analysis["bott"]["rows"]] == [(0, 1)]


def test_cli_analyze_requires_loop_path(tmp_path):
    cfg = write_yaml(tmp_path / "cfg.yaml", "chart: cylinder\n")
    assert main(["analyze", "--config", cfg, "--quiet"]) == 2


def test_cli_export_csv(tmp_path, capsys):
    from geolab.charts import make_chart
    plane = make_chart("plane")
    ts = 2 * np.pi * np.arange(16) / 16
    loop = make_loop(plane, 0.4 * np.stack([np.cos(ts), np.sin(ts)], axis=1))
    loop_path = tmp_path / "loop.json"
    save_loop_json(plane, loop, loop_path)
    cfg = write_yaml(tmp_path / "cfg.yaml", f"chart: plane\nloop_path: {loop_path}\n")
    out = str(tmp_path / "loop.csv")
    assert main(["export", "--config", cfg, "--quiet", "--out", out]) == 0
    with open(out) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "node_index,c0,c1"
    assert len(lines) == 17
    # the CSV goes to --out and the report to stdout
    report = json.loads(capsys.readouterr().out)
    assert report["results"] == {"written": out, "n_nodes": 16}


def test_cli_verify_chart(tmp_path):
    cfg = write_yaml(tmp_path / "cfg.yaml",
                     "chart: funnel\nn_samples: 20\nseed: 2\nell: 4.0\nk_radius: 0.5\n")
    out = str(tmp_path / "report.json")
    assert main(["verify", "chart", "--config", cfg, "--quiet", "--out", out]) == 0
    checks = read_report(out)["results"]["chart_self_tests"]
    assert checks["pass"]


@pytest.mark.parametrize("name", ZOO)
def test_cli_verify_chart_links_hold_on_the_zoo(name):
    # each link of the curvature chain within its derived bound, at seeds 0-7
    from geolab import cli
    from geolab.charts import make_chart
    chart = make_chart(name)
    for seed in range(8):
        checks = cli._chart_self_tests(chart, RunConfig(chart=name, n_samples=50),
                                       np.random.default_rng(seed))
        assert checks["pass"], (seed, checks)


def test_cli_verify_difference_link_holds_across_the_bump_junction():
    # the bump's profile is C^3 at |z| = 1, so d g_thth jumps in its third
    # derivative there; on stencils across it the two-step estimate alone
    # undercounts the second derivative's error by up to 1.29
    from geolab import cli
    from geolab.charts import FD_STEP, make_chart
    chart = make_chart("bumped_cylinder")
    z = np.concatenate([side * (1.0 + FD_STEP * np.linspace(-3.0, 3.0, 601)) for side in (1, -1)])
    x = np.stack([z, np.full(z.shape, 0.7)], axis=-1)
    for f, df in ((chart.metric, chart.metric_deriv),
                  (chart.metric_deriv, chart.metric_second_deriv)):
        err, bound = cli._difference_link(f, df, x)
        assert np.all(err <= bound)
    # there the second derivative's error exceeds half its bound, and with it
    # the two-step estimate |D(2h) - D(h)| / 3 alone
    assert np.any(err > bound / 2)


def _bump_without_the_rho_prime_square():
    from geolab.charts import BumpedCylinder

    class Chart(BumpedCylinder):
        # d2 g_thth = 2 (rho'^2 + rho rho''), with its 2 rho'^2 dropped
        def metric_second_deriv(self, x):
            d2g = super().metric_second_deriv(x)
            d1 = self.profile_jet(np.asarray(x, dtype=float)[..., 0])[1]
            d2g[..., 0, 0, 1, 1] -= 2 * d1 * d1
            return d2g

    return Chart()


def _funnel_with_scaled_curvature():
    from geolab.charts import Funnel

    class Chart(Funnel):
        # the closed-form K alone is off, by one part in a million; the spray
        # reads the profile, not gauss_curvature
        def gauss_curvature(self, x):
            return (1 + 1e-6) * super().gauss_curvature(x)

    return Chart()


def _bump_with_scaled_acceleration():
    from geolab.charts import BumpedCylinder

    class Chart(BumpedCylinder):
        # the geodesic acceleration alone is off, by two parts in 1e5: the
        # speed drifts 5.7e-7 to 3.4e-6 over the starts of seeds 0-7, under a
        # fixed 4e-6 but over the bound the flow tolerance gives
        def spray(self, x, v):
            acc, k_vv = super().spray(x, v)
            return (1 + 2e-5) * acc, k_vv

    return Chart()


@pytest.mark.parametrize("make, failing", [
    # Brioschi reads the second derivative too, so the curvature link fails with it
    (_bump_without_the_rho_prime_square, {"metric_second_deriv_fd", "brioschi_curvature"}),
    (_funnel_with_scaled_curvature, {"brioschi_curvature"}),
    (_bump_with_scaled_acceleration, {"flow_speed_conservation"}),
], ids=["bump_without_rho_prime_square", "funnel_with_scaled_curvature",
        "bump_with_scaled_acceleration"])
def test_cli_verify_chart_negative_controls_fail_at_their_link(make, failing):
    from geolab import cli
    chart = make()
    for seed in range(8):
        checks = cli._chart_self_tests(chart, RunConfig(chart=chart.name, n_samples=25),
                                       np.random.default_rng(seed))
        assert {k for k, c in checks.items() if isinstance(c, dict) and not c["pass"]} == failing
        assert checks["pass"] is False


def test_cli_verify_chart_integrates_each_start_once(monkeypatch):
    # the speed drift and the symplectic defect read one batch integration on
    # the steps its error estimate chooses: every stage calls charts.spray
    # once, whichever module's name it uses, and the whole batch takes at
    # most an eighth of the 4 x 2048 calls of fixed-step RK4 at h = 1/512
    import geolab
    from geolab import cli
    from geolab.charts import make_chart, metric_speed, spray
    from geolab.jacobi import symplectic_defect
    calls, runs = [], []

    def counted(*args, **kwargs):
        calls.append(1)
        return spray(*args, **kwargs)

    for mod in vars(geolab).values():
        if getattr(mod, "spray", None) is spray:
            monkeypatch.setattr(mod, "spray", counted)
    real_integrate = cli.jacobi_propagate

    def spy_integrate(chart, start, t, grid=None):
        runs.append((np.shape(start.base), t, grid))
        out = real_integrate(chart, start, t, grid)
        orbits.append(out)
        return out

    orbits = []
    monkeypatch.setattr(cli, "jacobi_propagate", spy_integrate)
    cfg = RunConfig(chart="bumped_cylinder", n_samples=5)
    chart = make_chart(cfg.chart)
    checks = cli._chart_self_tests(chart, cfg, np.random.default_rng(0))
    assert checks["pass"]
    assert runs == [((8, 2), 4.0, None)]
    assert len(calls) <= 1024
    # the report holds the worst start, not the best (starts that stay off
    # the bump, where the flow is exact, read 0)
    (orbit, exit_time), = orbits
    ok = np.isinf(exit_time)
    drifts = [abs(metric_speed(chart, x[-1], v[-1]) - 1.0) for x, v in zip(orbit.x[ok], orbit.v[ok])]
    defects = [symplectic_defect(p) for p in orbit.matrix[ok]]
    assert checks["flow_speed_conservation"]["drift"] == max(drifts) > 0.0
    assert checks["symplectic_defect"]["defect"] == max(defects) > min(defects)


def test_cli_verify_reads_sectional_curvature_as_the_oracle_only(tmp_path, monkeypatch):
    # the closed-form K is the curvature both parts read; sectional_curvature
    # runs only as the self-test's Brioschi oracle, in one call over all its
    # samples, whichever module's name it goes through
    import geolab
    from geolab.charts import sectional_curvature
    calls = []

    def counted(chart, x):
        calls.append(np.shape(x))
        return sectional_curvature(chart, x)

    for mod in vars(geolab).values():
        if getattr(mod, "sectional_curvature", None) is sectional_curvature:
            monkeypatch.setattr(mod, "sectional_curvature", counted)
    cfg = write_yaml(tmp_path / "cfg.yaml", "chart: bumped_cylinder\nell: 3.0\nk_radius: 1.0\n"
                                            "n_samples: 25\nseed: 5\n")
    out = str(tmp_path / "report.json")
    assert main(["verify", "all", "--config", cfg, "--quiet", "--out", out]) == 0
    assert read_report(out)["results"]["pass"] is True
    assert calls == [(min(25, 50), 2)]


def test_cli_verify_conjpoints_compact_skips(tmp_path):
    cfg = write_yaml(tmp_path / "cfg.yaml", "chart: sphere\nn_samples: 10\n")
    out = str(tmp_path / "report.json")
    assert main(["verify", "conjpoints", "--config", cfg, "--quiet", "--out", out]) == 0
    assert "skipped" in read_report(out)["results"]["conjpoints"]


LOADED_MODULES = """\
import json, sys
import geolab.cli
if len(sys.argv) > 1:
    assert geolab.cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("geolab"))))
"""


def geolab_modules_loaded(*cli_args):
    """The geolab modules a fresh interpreter holds after importing the CLI
    and, given arguments, running it; in this process the other tests have
    already imported every module."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run([sys.executable, "-c", LOADED_MODULES, *cli_args], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return {m.removeprefix("geolab.") for m in json.loads(done.stdout.splitlines()[-1])}


def test_cli_subcommands_import_only_the_layers_they_run(tmp_path):
    # importing the CLI, or verifying, loads neither the descent nor the
    # index layers; analyze loads the index layers, not the descent ones
    from geolab.charts import make_chart
    base = {"geolab", "charts", "cli", "config", "errors", "flow", "jacobi", "loops"}
    assert geolab_modules_loaded() == base
    cfg = write_yaml(tmp_path / "verify.yaml", "chart: bumped_cylinder\nell: 3.0\n"
                                               "k_radius: 1.0\nn_samples: 5\n")
    out = str(tmp_path / "report.json")
    assert geolab_modules_loaded("verify", "all", "--config", cfg, "--quiet",
                                 "--out", out) == base
    assert read_report(out)["results"]["pass"] is True
    cyl = make_chart("cylinder")
    n = 32
    ts = 2 * np.pi * np.arange(n) / n
    loop_path = tmp_path / "waist.json"
    save_loop_json(cyl, make_loop(cyl, np.stack([np.zeros(n), ts], axis=1)), loop_path)
    cfg = write_yaml(tmp_path / "analyze.yaml",
                     f"chart: cylinder\nloop_path: {loop_path}\nm_max: 2\n")
    assert geolab_modules_loaded("analyze", "--config", cfg, "--quiet",
                                 "--out", out) == base | {"morse", "penalty"}
    assert read_report(out)["results"]["analysis"]["nullity_monodromy"] == 2


def test_cli_sweep_plane_contractible(tmp_path):
    cfg = write_yaml(tmp_path / "cfg.yaml",
                     "chart: plane\nn_nodes: 48\nfamily: concentric\n"
                     "family_members: 9\nfamily_r_max: 1.0\nseed: 0\n")
    out = str(tmp_path / "report.json")
    assert main(["sweep", "--config", cfg, "--quiet", "--out", out]) == 0
    results = read_report(out)["results"]
    assert results["mode"] == "minimax"
    assert results["value"] < 1e-8


def test_cli_continuation_sweep_funnel(tmp_path):
    # alpha_max selects the penalty continuation; the winding band slides
    # to the waist, a genuine closed geodesic of energy 4 pi^2
    cfg = write_yaml(tmp_path / "cfg.yaml",
                     "chart: funnel\nn_nodes: 64\nfamily: winding_band\nfamily_members: 5\n"
                     "family_z_center: 3.0\nfamily_z_halfwidth: 0.5\nalpha: 0\nalpha_max: 1\n")
    out = str(tmp_path / "report.json")
    assert main(["sweep", "--config", cfg, "--quiet", "--out", out]) == 0
    results = read_report(out)["results"]
    assert results["mode"] == "continuation"
    assert results["alphas"] == [0, 1]
    assert results["monotonicity_violations"] == []
    assert results["terminal"]["stable"] is True
    analysis = results["terminal"]["analysis"]
    assert analysis["case"] == "genuine"
    assert (analysis["index"], analysis["nullity"], analysis["nullity_monodromy"]) == (0, 1, 1)
    assert abs(analysis["energy"] - 4 * np.pi**2) <= 1e-6 * 4 * np.pi**2


@pytest.mark.parametrize("n", [48, 64])
def test_cli_latitude_sweep_based_cross_check(tmp_path, n):
    # the based cross-check scans the shot closed orbit, whose second
    # conjugate time is 1; the outgoing orbit's drifts O(1/N^2) below 1 and
    # would enter the open-interval count
    cfg = write_yaml(tmp_path / "cfg.yaml",
                     f"chart: sphere\nfamily: latitudes\nfamily_members: 9\n"
                     f"n_nodes: {n}\nmax_rounds: 50\n")
    out = str(tmp_path / "report.json")
    assert main(["sweep", "--config", cfg, "--quiet", "--out", out]) == 0
    analysis = read_report(out)["results"]["analysis"]
    based = analysis["based_cross_check"]
    assert based["dirichlet_index"] == based["cp_open"] == 1
    assert np.allclose(based["conjugate_times"], [0.5, 1.0], atol=1e-5)
    # cp_1 stays the outgoing orbit's count
    assert analysis["cp1"] == 2


def test_cli_report_booleans_are_json_booleans(tmp_path):
    cfg = write_yaml(tmp_path / "cfg.yaml",
                     "chart: plane\nn_nodes: 48\nfamily: concentric\n"
                     "family_members: 9\nfamily_r_max: 1.0\nseed: 0\n")
    out = str(tmp_path / "report.json")
    assert main(["sweep", "--config", cfg, "--quiet", "--out", out]) == 0
    results = read_report(out)["results"]
    assert results["stable"] is True
    assert isinstance(results["analysis"]["ambiguous_band"], bool)
    cfg = write_yaml(tmp_path / "cfg2.yaml", "chart: sphere\nn_samples: 10\n")
    assert main(["verify", "conjpoints", "--config", cfg, "--quiet", "--out", out]) == 0
    assert read_report(out)["results"]["pass"] is True


def _benchmark_tracer():
    path = REPO / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_probes_resolve():
    # the traced benchmark rebinds these names; a deleted or renamed one
    # would fail every traced run
    tracer = _benchmark_tracer()
    missing = [f"{mod}.{fn}" for mod, fns in tracer.TRACED.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"geolab.{mod}"), fn, None))]
    cli = importlib.import_module("geolab.cli")
    missing += [f"cli.{fn}" for fn in tracer.ROOTS if not callable(getattr(cli, fn, None))]
    assert missing == []
    # the fields the tracer's result hooks read
    fields = {f.name for f in dataclasses.fields(SweepoutResult)}
    assert {"rounds", "insertions", "family"} <= fields
    assert isinstance(SweepoutFamily.size, property)
    assert "iterations" in {f.name for f in dataclasses.fields(DescentResult)}


def test_every_module_level_name_is_referenced():
    # a module-level function, class or assigned name that nothing in the
    # package references is dead code; names only the tests call belong in
    # the tests
    tracer = _benchmark_tracer()
    exempt = {fn for fns in tracer.TRACED.values() for fn in fns} | set(tracer.ROOTS)
    exempt |= {"main",
               # the discrete circle action and the m-fold iterate are the
               # oracles of the invariance and Bott iteration tests
               "circle_shift", "iterate"}
    statements = [(p.stem, stmt) for p in sorted((REPO / "src" / "geolab").glob("*.py"))
                  for stmt in ast.parse(p.read_text()).body]
    refs = [{n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
             if isinstance(n, (ast.Name, ast.Attribute))} for _, stmt in statements]
    unreferenced = []
    for k, (module, stmt) in enumerate(statements):
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        unreferenced += [f"{module}.{name}" for name in names
                         if name not in exempt and not name.startswith("__")
                         and not any(name in r for j, r in enumerate(refs) if j != k)]
    assert unreferenced == []


def test_every_docstring_reference_names_something():
    # each part of the leading dotted identifier of a ``reference`` in the
    # package's docstrings and comments must name something the package
    # still has: a function, class, attribute, argument, keyword, module or
    # string constant; a deleted name left in prose fails
    names, quoted = set(), []
    for path in sorted((REPO / "src" / "geolab").glob("*.py")):
        text = path.read_text()
        names.add(path.stem)
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
                names.add(node.arg)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        quoted += [(path.stem, ref.rstrip(".")) for ref in re.findall(r"``([A-Za-z_][\w.]*)", text)]
    assert quoted
    assert [f"{module}: ``{ref}``" for module, ref in quoted
            if not all(part in names for part in ref.split("."))] == []
