"""In-process layer timings of the descent kernels, for one checkout.

    OPENBLAS_NUM_THREADS=1 python3 tools/time_layers.py [--src SRC] [--repeat R]

Prints one JSON object: the median and the minimum wall time in
microseconds (one median cannot tell a change under about 1.5x on a
shared machine, whose runs land in a fast or a slow state) of
``energy``, ``energy_gradient``, ``validate_loop``, ``precondition`` (of
the stack's gradient) and ``maybe_recenter`` on two stacks, of one relax
round of the benchmark sweep (``_armijo_step`` of every member, then
``_resample``, on a quarter of the repeats) and of one whole
``minimax_sweepout`` of that sweep (``sweepout``, on a twentieth).  The
relax round is timed on the family's last size, so it overstates what a
kernel gain does to the whole sweep, whose family grows from 9 members.
On the sphere stack's segment midpoints it also times the metric jet
(``metric_jet``): the diagonal jets ``metric_diag``, ``metric_diag_deriv``
and ``metric_diag_second_deriv``, where the checkout has them, and the
dense ``metric``, ``metric_deriv`` and ``metric_second_deriv``.  On the
funnel waist at N = 128 it also times the penalized Hessian assembly, the
dense rebuild from its blocks (``dense``; a checkout that assembles the
dense matrix directly has none), one real ``eigvalsh`` of the waist's
Hessian and one complex ``eigvalsh`` of its copy twisted by omega = i
(``dense(1j)``, or ``twisted_hessian`` in a checkout without blocks), and
the layers of one Levenberg-Marquardt trial of ``find``'s
descent (the in-place mu M, and the solve of H + mu M: the block solve
``positive_solve`` against the dense ``cholesky`` plus ``solve`` it
replaced) and one whole ``_newton_step`` of a waist perturbed into the
Newton tail; a checkout without the Newton tail reports the assembly and
the eigensolves alone, one without ``positive_solve`` the dense solve
alone.  ``waist_1024`` times the two solves again at N = 1024, on a tenth
of the repeats.  ``flow`` times, on a tenth of the repeats, the flow's
layers: ``outgoing_orbit`` and ``shoot_closed_orbit`` (from that orbit) on
the great circle and the funnel waist at N = 128, and one Dormand-Prince
step (``dopri_step``, with its first slope) of the great circle's
basepoint (B1) and of its 16 segment starts (B16).  ``startup`` times, on
a tenth of the repeats, whole fresh ``python -c "import geolab.cli"``
processes with ``--src`` on ``PYTHONPATH`` (``import_cli``) and lists the
geolab modules that import loads; with ``PYTHONDONTWRITEBYTECODE`` set, as
it is recorded, every process compiles each module it loads.

* ``sphere``: the family of ``birkhoff_latitudes(sphere, 9, 128)`` after
  the 50 relax rounds of the ``sweep-birkhoff`` workload, 44 members with
  one gauge each; the relax round timed is one more round on it, and the
  sweepout timed is ``minimax_sweepout`` with ``max_rounds`` 50 from the
  9 latitudes;
* ``funnel``: four winding loops of 128 nodes with theta wrapped.

``--src`` is the ``src`` directory whose ``geolab`` is timed (default: this
checkout's), so that one script times two checkouts.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROUNDS = 50


def time_us(f, repeat: int) -> dict:
    """Median and minimum wall time of ``f()`` in microseconds over ``repeat`` calls."""
    f()                                     # warm-up
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        f()
        times.append(time.perf_counter() - t0)
    return {"median": round(1e6 * statistics.median(times), 1), "min": round(1e6 * min(times), 1)}


def waist_layers(fun, repeat: int) -> dict:
    """Microseconds of the Hessian and Newton-tail layers on the funnel waist, N = 128."""
    from dataclasses import replace

    from geolab import descent, morse
    from geolab.loops import make_loop
    from geolab.penalty import PenaltySchedule

    n, sched = 128, PenaltySchedule()
    ts = 2 * np.pi * np.arange(n) / n
    waist = make_loop(fun, np.stack([np.zeros(n), ts], axis=1))
    sv = morse.assemble_second_variation(fun, waist, sched, 0)
    out = {"assembly": time_us(lambda: morse.assemble_second_variation(fun, waist, sched, 0),
                               repeat)}
    blocks = hasattr(sv, "dense")
    if blocks:
        out["dense"] = time_us(sv.dense, repeat)
        h, twisted = sv.dense(), sv.dense(1j)
    else:
        h, twisted = sv.matrix, morse.twisted_hessian(sv, 1j).matrix
    out.update(eigvalsh=time_us(lambda: np.linalg.eigvalsh(h), repeat),
               eigvalsh_twisted=time_us(lambda: np.linalg.eigvalsh(twisted), repeat))
    if not hasattr(descent, "_newton_step"):
        return out
    if blocks:
        work = replace(sv, diag=sv.diag.copy(), off=sv.off.copy())
        out["add_metric"] = time_us(lambda: descent._add_metric(work, 1e-3), repeat)
    else:
        damped, copied = (time_us(lambda: descent._add_metric(h.copy(), n, 2, 1e-3), repeat),
                          time_us(h.copy, repeat))
        out["add_metric"] = {k: round(damped[k] - copied[k], 1) for k in damped}
    out.update(solve_layers(fun, sched, n, repeat))
    # a waist with a small z ripple: |g|_M about 1e-3, in the Newton tail
    rippled = make_loop(fun, np.stack([1e-3 * np.cos(3 * ts), ts], axis=1))
    stacks = [descent._LoopStack.of(fun, sched, 0, [rippled]) for _ in range(repeat + 1)]
    out["newton_step"] = time_us(lambda: descent._newton_step(stacks.pop(), 0, 1e-8), repeat)
    return out


def solve_layers(fun, sched, n: int, repeat: int) -> dict:
    """Microseconds of solving H + mu M on the funnel waist of ``n`` nodes
    (mu = 1e-3): dense ``cholesky`` and ``solve``, and ``positive_solve`` on its blocks."""
    from dataclasses import replace

    from geolab import descent, morse
    from geolab.loops import make_loop
    from geolab.penalty import penalized_gradient

    ts = 2 * np.pi * np.arange(n) / n
    waist = make_loop(fun, np.stack([np.zeros(n), ts], axis=1))
    sv = morse.assemble_second_variation(fun, waist, sched, 0)
    g = penalized_gradient(fun, sched, 0, waist)
    if hasattr(sv, "dense"):
        damped = replace(sv, diag=sv.diag.copy(), off=sv.off.copy())
        descent._add_metric(damped, 1e-3)
        h = damped.dense()
    else:
        h = sv.matrix.copy()
        descent._add_metric(h, n, 2, 1e-3)
    out = {"cholesky": time_us(lambda: np.linalg.cholesky(h), repeat),
           "solve": time_us(lambda: np.linalg.solve(h, -g.reshape(-1)), repeat)}
    if hasattr(morse, "positive_solve"):
        out["positive_solve"] = time_us(lambda: morse.positive_solve(damped, -g), repeat)
    return out


def flow_layers(repeat: int) -> dict:
    """Microseconds of the outgoing orbit and of the closed-orbit shooting from
    it on the great circle and the funnel waist (N = 128), and of one
    Dormand-Prince step from the great circle's segment starts, B = 1 and 16."""
    from geolab import jacobi
    from geolab.charts import make_chart
    from geolab.flow import dopri_batch
    from geolab.loops import make_loop, one_sided_velocities

    n = 128
    ts = 2 * np.pi * np.arange(n) / n
    sph, fun = make_chart("sphere"), make_chart("funnel")
    circle = np.stack([np.cos(ts), np.sin(ts)], axis=1) / np.cos(np.pi / n)
    loops = {"great_circle": (sph, make_loop(sph, circle)),
             "funnel_waist": (fun, make_loop(fun, np.stack([np.zeros(n), ts], axis=1)))}
    out = {}
    for name, (chart, loop) in loops.items():
        orbit = jacobi.outgoing_orbit(chart, loop)
        out[name] = {
            "outgoing_orbit": time_us(lambda: jacobi.outgoing_orbit(chart, loop), repeat),
            "shoot_closed_orbit": time_us(lambda: jacobi.shoot_closed_orbit(chart, loop, orbit),
                                          repeat)}
    loop = loops["great_circle"][1]
    idx = np.arange(16) * (n // 16)
    rows = np.concatenate([loop.nodes[idx], one_sided_velocities(sph, loop, idx)[1],
                           np.tile(np.eye(2).ravel(), (16, 1))], axis=1)
    # t = 2e-4 is below the first step the flow chooses (4e-4): one step and its first slope
    out["dopri_step"] = {f"B{len(y)}": time_us(
        lambda y=y: dopri_batch(sph, y, 2e-4, None, jacobi.FLOW_TOL, jacobi.TIME_TOL), repeat)
        for y in (rows[:1], rows)}
    return out


def startup(src: str, repeat: int) -> dict:
    """Microseconds of a fresh process that imports the CLI from ``src``,
    and the geolab modules it loads."""
    env = {**os.environ, "PYTHONPATH": src}

    def run(code: str) -> str:
        return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True).stdout

    listed = run("import sys, geolab.cli; print(*sorted(m for m in sys.modules "
                 "if m.startswith('geolab')))")
    return {"import_cli": time_us(lambda: run("import geolab.cli"), repeat),
            "modules": listed.split(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    parser.add_argument("--repeat", type=int, default=200)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from geolab import descent
    from geolab.charts import make_chart
    from geolab.descent import (RESOLUTION_FACTOR, VALUE_FLOOR, SweepOptions, _armijo_step,
                                _LoopStack, _resample, minimax_sweepout)
    from geolab.families import birkhoff_latitudes
    from geolab.loops import (DiscreteLoop, energy, energy_gradient, make_loop, maybe_recenter,
                              precondition, validate_loop)
    from geolab.penalty import PenaltySchedule

    sph, fun = make_chart("sphere"), make_chart("funnel")
    resolution = sph.segment_cap * RESOLUTION_FACTOR

    def relax_round(stack):
        _armijo_step(stack, np.arange(stack.size), 1e-8, max_move=0.5 * resolution)
        floor = max(VALUE_FLOOR, 1e-9 * float(np.max(np.abs(stack.energy))))
        _resample(stack, resolution, floor)

    stack = _LoopStack.of(sph, None, None, birkhoff_latitudes(sph, 9, 128).members)
    for _ in range(ROUNDS):
        relax_round(stack)
    ts = 2 * np.pi * np.arange(128) / 128
    funnel = [make_loop(fun, np.stack([z0 + 0.3 * np.sin(k * ts + ph), ts + ph], axis=1))
              for z0, k, ph in [(0.0, 1, 0.0), (-0.4, 2, 1.3), (0.7, 3, 5.9), (-1.2, 1, 3.1)]]
    stacks = {"sphere": (sph, stack.loop(slice(None))),
              "funnel": (fun, DiscreteLoop(np.stack([lp.nodes for lp in funnel]),
                                           np.zeros(len(funnel), dtype=int)))}

    out = {"repeat": args.repeat}
    for name, (chart, loop) in stacks.items():
        grad = energy_gradient(chart, loop)
        out[name] = {"shape": list(loop.nodes.shape), **{
            f.__name__: time_us(lambda f=f: f(chart, loop), args.repeat)
            for f in (energy, energy_gradient, validate_loop, maybe_recenter)},
            "precondition": time_us(lambda: precondition(grad), args.repeat)}

    sph_loop = stacks["sphere"][1]
    mids = sph_loop.nodes + 0.5 * validate_loop(sph, sph_loop)
    jets = ["metric", "metric_deriv", "metric_second_deriv"]
    if hasattr(sph, "metric_diag"):
        jets += ["metric_diag", "metric_diag_deriv", "metric_diag_second_deriv"]
    out["metric_jet"] = {"shape": list(mids.shape), **{
        name: time_us(lambda f=getattr(sph, name): f(mids), args.repeat) for name in jets}}

    quarter = max(1, args.repeat // 4)
    copies = [copy.deepcopy(stack) for _ in range(quarter + 1)]
    out["relax_round"] = time_us(lambda: relax_round(copies.pop()), quarter)
    out["sweepout"] = time_us(
        lambda: minimax_sweepout(sph, birkhoff_latitudes(sph, 9, 128),
                                 sweep=SweepOptions(max_rounds=ROUNDS)),
        max(1, args.repeat // 20))
    out["funnel_waist"] = waist_layers(fun, args.repeat)
    if hasattr(descent, "_newton_step"):
        out["waist_1024"] = solve_layers(fun, PenaltySchedule(), 1024, max(args.repeat // 10, 3))
    out["flow"] = flow_layers(max(args.repeat // 10, 3))
    out["startup"] = startup(args.src, max(args.repeat // 10, 3))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
