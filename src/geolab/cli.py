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

Each subcommand imports the layers it runs: the module level holds only
what every analysing subcommand reads (charts, config, errors, the Jacobi
flow and loops), and the functions that call ``descent``, ``families``,
``morse`` and ``penalty`` import them in their bodies.  ``verify`` so
loads neither the descent nor the index layers; a new subcommand follows
the same pattern.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys

import numpy as np

from . import __version__
from .charts import (FD_STEP, Chart, central_difference, make_chart, metric_speed,
                     sample_unit_starts, sectional_curvature)
from .config import RunConfig, load_config
from .errors import ConfigError, CrossCheckError, GeolabError
from .jacobi import (
    FLOW_TOL,
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


def _schedule(cfg: RunConfig) -> PenaltySchedule:
    from .penalty import PenaltySchedule
    return PenaltySchedule(cfg.penalty_r0, cfg.penalty_dr, cfg.penalty_stiffness)


def _descent_options(cfg: RunConfig) -> DescentOptions:
    from .descent import DescentOptions
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
    pinned block the Dirichlet index), and, for a moving loop, its shot
    ``outgoing_orbit``, an ``Orbit`` record whose conjugate report gives
    cp_1.  A genuine loop's orbit is shot closed once (``shoot_closed_orbit``):
    the outgoing orbit when it already closes, else from the same first shot
    of segments from the polygon's nodes, one batch per Gauss-Newton step.
    The stitched ``Orbit``'s ``return_map()`` gives ``nullity_monodromy`` and
    the Bott omega-nullities, its ``conjugate_report()`` the based
    cross-check, next to the quadrature Hessian.  The Bott table
    (``with_bott``) solves one omega-twisted copy of the unpenalized N-node
    Hessian per root of unity and per arc of the mean-index average; no
    iterate is assembled.  ``find`` calls this once per census key (see
    ``run_find``), so ``index`` is not part of the key.
    """
    from .morse import (assemble_second_variation, based_index_verdict, index_and_nullity,
                        iteration_table, lemma_verdict, outgoing_conjugate_report)
    from .penalty import (classify_critical_point, corner_residual, penalized_energy,
                          penalized_gradient)

    e_loop = energy(chart, loop)
    e_pen = penalized_energy(chart, schedule, alpha, loop)
    cls = classify_critical_point(chart, schedule, alpha, loop, cfg.ell,
                                  cfg.k_radius if cfg.k_radius > 0 else None,
                                  acceptance_level)
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
        "gradient_norm": float(np.linalg.norm(penalized_gradient(chart, schedule, alpha, loop))),
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
    """Descend all starts as one stack; analyse each census key once, on its first start.

    Each start descends to ``grad_tol``, by Levenberg-Marquardt steps where
    the damping cap admits them (``newton_steps`` of its ``iterations``); one
    stopped by the stall route, the fallback, is analysed at its own, larger
    gradient norm.  A key comes from the descended loop alone: penalized
    energy (to 1e-6) and basepoint r (0 on compact charts).  The constant
    loops off the penalty support (r <= R_alpha) are one critical manifold
    with one key; one on the support keeps its own, as its classification
    is its entry.  ``starts`` lists every start that landed on an entry.
    """
    from .descent import descend_starts
    from .families import random_loop

    chart = make_chart(cfg.chart, **cfg.chart_params)
    schedule = _schedule(cfg)
    opts = _descent_options(cfg)
    rng = np.random.default_rng(cfg.seed)
    # "mixed" alternates contractible and winding starts
    windings = [{"winding": 1, "contractible": 0}.get(cfg.winding_mix, i % 2)
                if chart.periods is not None else 0 for i in range(cfg.n_starts)]
    starts = [random_loop(chart, rng, cfg.n_nodes, winding=w, r_band=tuple(cfg.start_band))
              for w in windings]
    descended = descend_starts(chart, starts, schedule, cfg.alpha, opts)

    census: dict[tuple, dict] = {}
    failures = 0
    for i, res in enumerate(descended):
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
                               newton_steps=res.newton_steps,
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
    from .families import birkhoff_latitudes, concentric_circles, winding_band

    kind = cfg.family
    if kind == "auto":
        if chart.name == "sphere":
            kind = "latitudes"
        elif chart.periods is not None:
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
    from .descent import SweepOptions, minimax_sweepout, penalty_continuation

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


def _difference_link(f, df, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per point, the largest error of the analytic derivative ``df`` against
    the central difference D(h) of ``f`` at h = ``FD_STEP``, and its bound
    2 |D(2h) - D(h)| / 3 + 3 eps (|f| + |x| |D(h)|) / h.  The first term is
    twice the two-step truncation estimate, which undercounts by up to 1.29 on
    a stencil across a jump in f's third derivative (the bumped cylinder's
    C^3 junction); in the rounding floor each value of f is off by two units
    of eps of |f| and of |x| |df|, and D(h) and the estimate by 1.5 times that.
    """
    d1, d2 = central_difference(f, x), central_difference(f, x, 2 * FD_STEP)
    err, est, f_size, x_size, d_size = (np.abs(a).reshape(len(x), -1).max(-1)
                                        for a in (df(x) - d1, (d2 - d1) / 3, f(x), x, d1))
    return err, 2 * est + 3 * np.finfo(float).eps * (f_size + x_size * d_size) / FD_STEP


def _chart_self_tests(chart: Chart, cfg: RunConfig, rng) -> dict:
    # the curvature chain, each link within its derived bound: dg and d2g
    # against central differences of g and dg, and the closed-form K against
    # Brioschi's K; a link reports its point of least relative margin
    x = np.array([chart.sample_point(rng, *((0.0, 2.0) if chart.compact else (0.1, 3.0)))
                  for _ in range(min(cfg.n_samples, 50))])
    k, rounding = sectional_curvature(chart, x)
    checks = {}
    for name, (err, bound) in {
        "metric_deriv_fd": _difference_link(chart.metric, chart.metric_deriv, x),
        "metric_second_deriv_fd": _difference_link(chart.metric_deriv,
                                                   chart.metric_second_deriv, x),
        "brioschi_curvature": (np.abs(chart.gauss_curvature(x) - k), rounding),
    }.items():
        i = int(np.argmax(np.where(err <= bound, err / np.maximum(bound, 1e-300), np.inf)))
        checks[name] = {"error": float(err[i]), "bound": float(bound[i]),
                        "pass": bool(np.all(err <= bound))}

    # flow speed conservation and symplecticity.  Several seeded starts,
    # integrated once as one batch on steps the integrator's error estimate
    # chooses, so every start that stays inside is held to it: a broken
    # integrator or spray fails the worst of them.  A start counts when its
    # orbit stays inside.  Each step holds its error estimate within FLOW_TOL
    # (relative to max(1, |state|)), and the speed may drift twice that per
    # step; Phi^T J Phi - J, quadratic in Phi, carries the same error times
    # the square of Phi's largest entry (at least 1)
    start = sample_unit_starts(chart, rng, 8, *((0.0, 1.5) if chart.compact else (0.3, 2.0)))
    orbit, exit_time = jacobi_propagate(chart, start, 4.0)
    ok = np.isinf(exit_time)
    drift = max((abs(metric_speed(chart, x[-1], v[-1]) - 1.0)
                 for x, v in zip(orbit.x[ok], orbit.v[ok])), default=float("nan"))
    phi = orbit.matrix[ok]
    defect = max((symplectic_defect(p) for p in phi), default=float("nan"))
    bound = 2 * len(orbit.grid) * FLOW_TOL
    defect_bound = bound * float(np.max(np.abs(phi), initial=1.0)) ** 2
    checks["flow_speed_conservation"] = {"drift": drift, "bound": bound,
                                         "pass": bool(drift < bound)}
    checks["symplectic_defect"] = {"defect": defect, "bound": defect_bound,
                                   "pass": bool(defect < defect_bound)}
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

    # np.float64 is a float; arrays and the other numpy scalars go through .tolist()
    text = json.dumps(report, indent=1, sort_keys=True, default=lambda o: o.tolist())
    # export writes its CSV to --out, so its report goes to stdout
    if args.out and args.subcommand != "export":
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
