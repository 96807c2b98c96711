import dataclasses
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from geolab.cli import main
from geolab.config import RunConfig, dump_config, load_config
from geolab.descent import DescentResult, SweepoutFamily, SweepoutResult
from geolab.errors import ConfigError
from geolab.loops import iterate, make_loop, one_sided_velocities, save_loop_json

from conftest import great_circle_loop, waist_loop


def write_yaml(path, text):
    path.write_text(text)
    return str(path)


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


def test_config_round_trip(tmp_path):
    cfg = RunConfig(chart="funnel", n_nodes=96, seed=5, alpha=2, ell=7.5)
    path = tmp_path / "cfg.yaml"
    dump_config(cfg, path)
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
            # valid fields, but the family builder needs 3 members
            ("sweep", "chart: plane\nn_nodes: 16\nfamily: concentric\nfamily_members: 1\n",
             "at least 3 members")]:
        path = write_yaml(tmp_path / "bad.yaml", text)
        assert main([subcommand, "--config", path, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and named in err


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
    real_solve = morse.index_and_nullity

    def spy_solve(sv, *args, **kwargs):
        solved.append((sv.matrix.shape[0], np.iscomplexobj(sv.matrix)))
        return real_solve(sv, *args, **kwargs)

    for mod in (cli, morse):
        monkeypatch.setattr(mod, "index_and_nullity", spy_solve)
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
    # each artefact once: one integration of the outgoing orbit from
    # (basepoint, v_+), read by the conjugate scan and taken by the one
    # shooting as its first shot (the waist closes on it, so there is no
    # second), the loop's exact and quadrature Hessians, and one
    # unpenalized N-node Hessian for Bott
    assert len(starts) == 1
    assert np.array_equal(starts[0].base, waist.basepoint)
    assert np.array_equal(starts[0].v, one_sided_velocities(cyl, waist)[1])
    assert len(calls["refine_closed_orbit"]) == 1
    assert len(calls["conjugate_points"]) == 0
    assemblies = sorted((sv.method, sv.n_nodes, sv.alpha is None)
                        for sv in calls["assemble_second_variation"])
    assert assemblies == [("continuum_quadrature", n, False), ("exact_discrete", n, False),
                          ("exact_discrete", n, True)]
    # solves: the exact and quadrature spectra, the pinned (Dirichlet) block,
    # and one N-node solve per Bott omega: the real root 1 and the twisted
    # copies for -1 and for i inside the one mean-index arc (0, pi)
    d = cyl.dim
    assert sorted(solved) == [((n - 1) * d, False)] + [(n * d, False)] * 3 \
        + [(n * d, True)] * 2


def test_cli_analyze_great_circle_integrations(tmp_path, monkeypatch):
    # one single-start integration, the outgoing orbit; the closed orbit is
    # shot as batches of B = gcd(N, 16) segments of ORBIT_STEPS / B steps
    from geolab import jacobi
    from geolab.charts import make_chart
    runs = []
    real_integrate = jacobi.jacobi_propagate

    def spy_integrate(chart, start, t, steps):
        runs.append((np.shape(start.base), t, steps))
        return real_integrate(chart, start, t, steps)

    monkeypatch.setattr(jacobi, "jacobi_propagate", spy_integrate)
    sph = make_chart("sphere")
    loop_path = tmp_path / "great_circle.json"
    save_loop_json(sph, great_circle_loop(sph, 128), loop_path)
    cfg = write_yaml(tmp_path / "cfg.yaml", f"chart: sphere\nloop_path: {loop_path}\nm_max: 2\n")
    out = str(tmp_path / "report.json")
    assert main(["analyze", "--config", cfg, "--quiet", "--out", out]) == 0
    assert read_report(out)["results"]["analysis"]["nullity_monodromy"] == 3
    assert runs[0] == ((2,), 1.0, jacobi.ORBIT_STEPS)
    b = 16
    batches = runs[1:]
    assert 1 <= len(batches) <= jacobi.SHOOT_MAX_ITER
    assert all(run == ((b, 2), 1.0 / b, jacobi.ORBIT_STEPS // b) for run in batches)


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


def test_cli_export_csv(tmp_path):
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


def test_cli_verify_chart(tmp_path):
    cfg = write_yaml(tmp_path / "cfg.yaml",
                     "chart: funnel\nn_samples: 20\nseed: 2\nell: 4.0\nk_radius: 0.5\n")
    out = str(tmp_path / "report.json")
    assert main(["verify", "chart", "--config", cfg, "--quiet", "--out", out]) == 0
    checks = read_report(out)["results"]["chart_self_tests"]
    assert checks["pass"]


def test_cli_verify_chart_nearly_parallel_plane(tmp_path):
    # sample 6 of this seed draws v, w nearly parallel on the bump; the
    # curvature of their plane must still match the finite-difference oracle
    cfg = write_yaml(tmp_path / "cfg.yaml",
                     "chart: bumped_cylinder\nn_samples: 25\nseed: 787255413\n")
    out = str(tmp_path / "report.json")
    assert main(["verify", "chart", "--config", cfg, "--quiet", "--out", out]) == 0
    checks = read_report(out)["results"]["chart_self_tests"]
    assert checks["curvature_fd_agreement"]["pass"], checks["curvature_fd_agreement"]
    assert checks["pass"]


def test_cli_verify_conjpoints_compact_skips(tmp_path):
    cfg = write_yaml(tmp_path / "cfg.yaml", "chart: sphere\nn_samples: 10\n")
    out = str(tmp_path / "report.json")
    assert main(["verify", "conjpoints", "--config", cfg, "--quiet", "--out", out]) == 0
    assert "skipped" in read_report(out)["results"]["conjpoints"]


def test_cli_sweep_plane_contractible(tmp_path):
    cfg = write_yaml(tmp_path / "cfg.yaml",
                     "chart: plane\nn_nodes: 48\nfamily: concentric\n"
                     "family_members: 9\nfamily_r_max: 1.0\nseed: 0\n")
    out = str(tmp_path / "report.json")
    assert main(["sweep", "--config", cfg, "--quiet", "--out", out]) == 0
    results = read_report(out)["results"]
    assert results["mode"] == "minimax"
    assert results["value"] < 1e-8


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


def test_benchmark_probes_resolve():
    # the traced benchmark rebinds these names; a deleted or renamed one
    # would fail every traced run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
