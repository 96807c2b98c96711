"""Batch front door: seeded experiment orchestration and JSON reports.

Subcommands:

* ``find``     - multistart census keyed by (penalized energy, basepoint r);
                 the constant loops off the penalty support share one key
* ``sweep``    - sweepout minimax, or penalty continuation when the config
                 carries an alpha range
* ``analyze``  - full spectral report for a stored loop (cross-checks,
                 index bound verdict, iteration table)
* ``verify``   - conjugate-points-at-infinity check and chart self-tests
* ``export``   - stored loop to CSV

One JSON report goes to stdout or ``--out``; progress lines go to stderr.
Exit codes: 0 success, 2 config error, 3 numerical failure, 4 cross-check
failure.  Two runs with the same seed and config produce identical reports
up to the timestamp field.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys

import numpy as np

from . import __version__
from .charts import Chart, flow_trajectory, make_chart, metric_speed, sample_unit_starts, sectional_curvature
from .config import RunConfig, load_config
from .descent import (
    DescentOptions,
    SweepOptions,
    descend,
    minimax_sweepout,
    penalty_continuation,
)
from .errors import ConfigError, CrossCheckError, GeolabError
from .families import (
    birkhoff_latitudes,
    concentric_circles,
    random_loop,
    winding_band,
)
from .jacobi import (
    close_conjugate_points_check,
    eigenspace_dimension,
    is_moving,
    jacobi_propagate,
    shoot_closed_orbit,
    symplectic_defect,
)
from .loops import (
    DiscreteLoop,
    energy,
    load_loop_json,
    loop_from_csv,
    loop_to_csv,
    winding_numbers,
)
from .morse import (
    assemble_second_variation,
    based_index_verdict,
    index_and_nullity,
    iteration_table,
    lemma_verdict,
    outgoing_conjugate_report,
)
from .penalty import (
    PenaltySchedule,
    classify_critical_point,
    corner_residual,
    penalized_energy,
)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    # bool before int: bool is a subclass of int
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _schedule(cfg: RunConfig) -> PenaltySchedule:
    return PenaltySchedule(cfg.penalty_r0, cfg.penalty_dr, cfg.penalty_stiffness)


def _descent_options(cfg: RunConfig) -> DescentOptions:
    return DescentOptions(max_iter=cfg.max_iter, grad_tol=cfg.grad_tol)


def _progress(quiet: bool, msg: str) -> None:
    if not quiet:
        print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# per-critical-point analysis shared by find / sweep / analyze
# ---------------------------------------------------------------------------


def analyze_critical_loop(chart: Chart, schedule: PenaltySchedule, alpha: int,
                          loop: DiscreteLoop, cfg: RunConfig, acceptance_level: float,
                          with_bott: bool = False) -> dict:
    """JSON-ready spectral record for one converged critical point.

    ``acceptance_level`` is the preconditioned gradient level at which the
    caller accepted the loop as critical.  The loop's basepoint counts as
    off the penalty support ("case": "genuine") when the ramp gradient there
    is unresolved at that level; the record carries the basepoint excess
    r - R_alpha, the level and the ramp's gradient share next to "case".

    Each analysis artefact is computed once per loop: the exact penalized
    Hessian and its spectrum (index, nullity, lemma bound, and through its
    pinned block the Dirichlet index), and, for a moving loop, one
    integration of its ``outgoing_orbit``, an ``Orbit`` record whose
    conjugate report gives cp_1.  A genuine loop's orbit is shot closed once
    (``shoot_closed_orbit``): the outgoing orbit when it already closes, else
    one batch of segments from the polygon's nodes per Gauss-Newton step.
    The stitched ``Orbit``'s ``return_map()`` gives ``nullity_monodromy`` and
    the Bott omega-nullities, its ``conjugate_report()`` the based
    cross-check, next to the quadrature Hessian.  The Bott table
    (``with_bott``) solves one omega-twisted copy of the unpenalized N-node
    Hessian per root of unity and per arc of the mean-index average; no
    iterate is assembled.  ``find`` calls this once per census key (see
    ``run_find``), so ``index`` is not part of the key.
    """
    import warnings

    e_loop = energy(chart, loop)
    e_pen = penalized_energy(chart, schedule, alpha, loop)
    cls = classify_critical_point(chart, schedule, alpha, loop, cfg.ell,
                                  cfg.k_radius if cfg.k_radius > 0 else None,
                                  acceptance_level)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        residual = corner_residual(chart, schedule, alpha, loop)
    sv = assemble_second_variation(chart, loop, schedule, alpha)
    spec = index_and_nullity(sv)
    conj, orbit = outgoing_conjugate_report(chart, loop)
    lemma = lemma_verdict(conj, spec, chart.dim)
    record = {
        "energy": e_loop,
        "penalized_energy": e_pen,
        "case": cls.case,
        "basepoint_excess": cls.basepoint_excess,
        "acceptance_level": cls.acceptance_level,
        "ramp_gradient_norm": cls.ramp_gradient_norm,
        "containment_ok": cls.containment_ok,
        "corner_residual_norm": float(np.linalg.norm(residual)),
        "index": spec.index,
        "nullity": spec.nullity,
        "zero_band": spec.zero_band,
        "ambiguous_band": spec.ambiguous,
        "cp1": lemma["cp1"],
        "lemma_verdict": lemma["verdict"],
        "winding": {str(k): v for k, v in winding_numbers(chart, loop).items()},
        "basepoint": loop.basepoint.tolist(),
        "basepoint_r": (float(chart.exhaustion(loop.basepoint))
                        if not chart.compact else None),
        "gradient_norm": sv.gradient_norm,
    }
    if cls.case == "genuine" and orbit is not None:
        closed = shoot_closed_orbit(chart, loop, orbit)
        return_map = closed.return_map()
        record["nullity_monodromy"] = eigenspace_dimension(return_map, 1.0)
        record["based_cross_check"] = based_index_verdict(closed.conjugate_report(), sv)
        sv_q = assemble_second_variation(chart, loop, schedule, alpha,
                                         method="continuum_quadrature")
        spec_q = index_and_nullity(sv_q)
        record["index_quadrature"] = spec_q.index
        record["nullity_quadrature"] = spec_q.nullity
        if with_bott:
            record["bott"] = iteration_table(chart, loop, return_map, cfg.m_max)
    return record


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def run_find(cfg: RunConfig, quiet: bool) -> dict:
    """Descend every start; analyse each census key once, on its first start.

    A key comes from the descended loop alone: penalized energy (to 1e-6)
    and basepoint r (0 on compact charts).  The constant loops off the
    penalty support (r <= R_alpha) are one critical manifold with one key;
    one on the support keeps its own, as its classification is its entry.
    ``starts`` lists every start that landed on an entry.
    """
    chart = make_chart(cfg.chart, **cfg.chart_params)
    schedule = _schedule(cfg)
    opts = _descent_options(cfg)
    rng = np.random.default_rng(cfg.seed)
    can_wind = chart.periods is not None and np.any(np.isfinite(np.asarray(chart.periods)))

    census: dict[tuple, dict] = {}
    failures = 0
    for i in range(cfg.n_starts):
        # "mixed" alternates contractible and winding starts
        winding = {"winding": 1, "contractible": 0}.get(cfg.winding_mix, i % 2) if can_wind else 0
        loop = random_loop(chart, rng, cfg.n_nodes, winding=winding,
                           r_band=tuple(cfg.start_band))
        res = descend(chart, loop, schedule, cfg.alpha, opts)
        if not res.converged:
            failures += 1
            _progress(quiet, f"start {i}: no convergence in {res.iterations} iterations")
            continue
        r_base = 0.0 if chart.compact else float(chart.exhaustion(res.loop.basepoint))
        key = (round(res.energy, 6), round(r_base, 4))
        if r_base <= schedule.radius(cfg.alpha) and not is_moving(chart, res.loop):
            key = (0.0, -np.inf)     # the constant-loop manifold, sorted first
        if key not in census:
            # a stalled descent is accepted at its own, larger gradient norm
            census[key] = analyze_critical_loop(chart, schedule, cfg.alpha, res.loop, cfg,
                                                max(cfg.grad_tol, res.grad_norm))
            census[key].update(start_index=i, starts=[], iterations=res.iterations,
                               nodes=res.loop.nodes.tolist(), frame=res.loop.frame)
        entry = census[key]
        entry["starts"].append(i)
        _progress(quiet, f"start {i}: E={entry['energy']:.6g} case={entry['case']} "
                         f"index={entry['index']} (entry of start {entry['start_index']})")

    entries = [census[k] for k in sorted(census)]
    return {
        "n_starts": cfg.n_starts,
        "non_converged": failures,
        "n_critical_points": len(entries),
        "lemma_violations": sum(e["lemma_verdict"] == "fail" for e in entries),
        "critical_points": entries,
    }


def _build_family(cfg: RunConfig, chart: Chart):
    kind = cfg.family
    if kind == "auto":
        if chart.name == "sphere":
            kind = "latitudes"
        elif chart.periods is not None and np.any(np.isfinite(np.asarray(chart.periods))):
            kind = "winding_band"
        else:
            kind = "concentric"
    if kind == "latitudes":
        return birkhoff_latitudes(chart, cfg.family_members, cfg.n_nodes)
    if kind == "winding_band":
        return winding_band(chart, cfg.family_members, cfg.n_nodes,
                            cfg.family_z_center, cfg.family_z_halfwidth)
    if kind == "concentric":
        return concentric_circles(chart, cfg.family_members, cfg.n_nodes,
                                  cfg.family_r_max)
    raise ConfigError(f"field 'family': unknown family kind {kind!r}")


def run_sweep(cfg: RunConfig, quiet: bool) -> dict:
    chart = make_chart(cfg.chart, **cfg.chart_params)
    schedule = _schedule(cfg)
    opts = _descent_options(cfg)
    sweep_opts = SweepOptions(max_rounds=cfg.max_rounds,
                              argmax_grad_tol=cfg.argmax_grad_tol)
    family = _build_family(cfg, chart)
    _progress(quiet, f"sweepout family: {family.size} members on {chart.name}")

    if cfg.alpha_max is not None:
        alphas = list(range(cfg.alpha, cfg.alpha_max + 1))
        cont = penalty_continuation(chart, schedule, alphas, family, opts, sweep_opts)
        terminal = cont["results"][-1]
        record = analyze_critical_loop(chart, schedule, alphas[-1], terminal.argmax, cfg,
                                       max(cfg.grad_tol, terminal.argmax_grad_norm))
        for alpha, value in zip(cont["alphas"], cont["values"]):
            _progress(quiet, f"alpha={alpha}: value={value:.6f}")
        return {
            "mode": "continuation",
            "alphas": cont["alphas"],
            "values": cont["values"],
            "monotonicity_violations": cont["violations"],
            "terminal": {
                "rounds": terminal.rounds,
                "stable": terminal.stable,
                "argmax_grad_norm": terminal.argmax_grad_norm,
                "analysis": record,
                "argmax_nodes": terminal.argmax.nodes.tolist(),
                "argmax_frame": terminal.argmax.frame,
            },
        }

    res = minimax_sweepout(chart, family, schedule, cfg.alpha, opts, sweep_opts)
    _progress(quiet, f"value={res.value:.6f} argmax_grad={res.argmax_grad_norm:.2e} "
                     f"rounds={res.rounds}")
    record = analyze_critical_loop(chart, schedule, cfg.alpha, res.argmax, cfg,
                                   max(cfg.grad_tol, res.argmax_grad_norm))
    return {
        "mode": "minimax",
        "alpha": cfg.alpha,
        "value": res.value,
        "rounds": res.rounds,
        "stable": res.stable,
        "argmax_grad_norm": res.argmax_grad_norm,
        "insertions": res.insertions,
        "family_size": res.family.size,
        "analysis": record,
        "argmax_nodes": res.argmax.nodes.tolist(),
        "argmax_frame": res.argmax.frame,
    }


def _load_loop(cfg: RunConfig) -> DiscreteLoop:
    if cfg.loop_path is None:
        raise ConfigError("field 'loop_path': required for this subcommand")
    if str(cfg.loop_path).endswith(".csv"):
        with open(cfg.loop_path) as fh:
            return loop_from_csv(fh.read())
    return load_loop_json(cfg.loop_path)


def run_analyze(cfg: RunConfig, quiet: bool) -> dict:
    chart = make_chart(cfg.chart, **cfg.chart_params)
    schedule = _schedule(cfg)
    loop = _load_loop(cfg)
    _progress(quiet, f"analyzing loop with {loop.n_nodes} nodes on {chart.name}")
    record = analyze_critical_loop(chart, schedule, cfg.alpha, loop, cfg, cfg.grad_tol,
                                   with_bott=True)
    return {"loop_path": str(cfg.loop_path), "analysis": record}


def _chart_self_tests(chart: Chart, cfg: RunConfig, rng) -> dict:
    checks = {}
    # metric positive definite + curvature agreement on random samples
    kappa_err = 0.0
    for _ in range(min(cfg.n_samples, 50)):
        if chart.compact:
            x = chart.sample_point(rng, 0.0, 2.0)
        else:
            x = chart.sample_point(rng, 0.1, 3.0)
        v, w = rng.standard_normal(2), rng.standard_normal(2)
        try:
            # a g-orthogonal basis of the same plane: nearly parallel v, w
            # would amplify the oracle's error by |v|^2 |w|^2 / Gram
            g = chart.metric(x)
            w = w - (v @ g @ w) / (v @ g @ v) * v
            k_generic = sectional_curvature(chart, x, v, w)
            k_fd = sectional_curvature(chart, x, v, w, finite_difference=True)
        except GeolabError:
            continue
        scale = max(abs(k_generic), 1.0)
        kappa_err = max(kappa_err, abs(k_generic - k_fd) / scale)
        try:
            k_analytic = float(chart.gauss_curvature(x))
            kappa_err = max(kappa_err, abs(k_generic - k_analytic) / scale)
        except NotImplementedError:
            pass
    checks["curvature_fd_agreement"] = {"max_rel_err": kappa_err, "pass": kappa_err < 1e-5}

    # flow speed conservation and symplecticity.  Several seeded starts,
    # stepped as one batch per flow: a broken integrator fails all of them,
    # while a single unlucky orbit (chart escape, near-singular passage)
    # only spoils one.  A start counts when both of its runs stay inside.
    start = sample_unit_starts(chart, rng, 8, *((0.0, 1.5) if chart.compact else (0.3, 2.0)))
    xs, vs, flow_exit = flow_trajectory(chart, start, 4.0, 2048)
    orbit, jacobi_exit = jacobi_propagate(chart, start, 2.0, 512)
    ok = np.isinf(flow_exit) & np.isinf(jacobi_exit)
    drift = min((abs(metric_speed(chart, x[-1], v[-1]) - 1.0)
                 for x, v in zip(xs[ok], vs[ok])), default=float("nan"))
    defect = min((symplectic_defect(p) for p in orbit.matrix[ok]), default=float("nan"))
    checks["flow_speed_conservation"] = {"drift": drift, "pass": bool(drift < 4e-6)}
    checks["symplectic_defect"] = {"defect": defect, "pass": bool(defect < 1e-6)}
    checks["pass"] = all(c["pass"] for c in checks.values() if isinstance(c, dict))
    return checks


def run_verify(cfg: RunConfig, quiet: bool, what: str = "all") -> dict:
    chart = make_chart(cfg.chart, **cfg.chart_params)
    rng = np.random.default_rng(cfg.seed)
    out: dict = {}
    if what in ("all", "chart"):
        _progress(quiet, f"chart self-tests on {chart.name}")
        out["chart_self_tests"] = _chart_self_tests(chart, cfg, rng)
    if what in ("all", "conjpoints"):
        if chart.compact:
            out["conjpoints"] = {"skipped": "compact chart has no exhaustion"}
        else:
            _progress(quiet, f"conjugate-point check: ell={cfg.ell} K_radius={cfg.k_radius}")
            out["conjpoints"] = close_conjugate_points_check(
                chart, cfg.ell, cfg.k_radius, cfg.n_samples, cfg.seed)
    passes = [v.get("pass") for v in out.values() if isinstance(v, dict) and "pass" in v]
    out["pass"] = all(passes) if passes else True
    return out


def run_export(cfg: RunConfig, quiet: bool, out_path: str | None) -> dict:
    loop = _load_loop(cfg)
    csv_text = loop_to_csv(loop)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(csv_text)
        _progress(quiet, f"wrote {loop.n_nodes} nodes to {out_path}")
        return {"written": out_path, "n_nodes": loop.n_nodes}
    return {"csv": csv_text, "n_nodes": loop.n_nodes}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geolab",
        description="closed-geodesic laboratory: penalized-energy search and index analysis",
    )
    parser.add_argument("--version", action="version", version=f"geolab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("find", "sweep", "analyze", "export"):
        p = sub.add_parser(name)
        _common_args(p)
    p = sub.add_parser("verify")
    p.add_argument("what", nargs="?", default="all", choices=["all", "chart", "conjpoints"])
    _common_args(p)
    return parser


def _common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="YAML run configuration")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="write the JSON report here (default stdout)")
    p.add_argument("--quiet", action="store_true", help="suppress progress lines")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
            cfg.validate()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    report = {
        "schema": 1,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "geolab_version": __version__,
        "subcommand": args.subcommand,
        "config": cfg.to_dict(),
    }
    try:
        if args.subcommand == "find":
            report["results"] = run_find(cfg, args.quiet)
        elif args.subcommand == "sweep":
            report["results"] = run_sweep(cfg, args.quiet)
        elif args.subcommand == "analyze":
            report["results"] = run_analyze(cfg, args.quiet)
        elif args.subcommand == "verify":
            report["results"] = run_verify(cfg, args.quiet, args.what)
        elif args.subcommand == "export":
            report["results"] = run_export(cfg, args.quiet, args.out)
        code = 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CrossCheckError as exc:
        report["failure"] = {"type": type(exc).__name__, "message": str(exc)}
        code = 4
    except GeolabError as exc:
        report["failure"] = {"type": type(exc).__name__, "message": str(exc)}
        code = 3

    text = json.dumps(_jsonable(report), indent=1, sort_keys=True)
    if args.out and args.subcommand != "export":
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    elif not args.out:
        print(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
