"""Run the geolab CLI with its public functions wrapped by timing probes.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracer.py TRACE_JSON -- <geolab cli arguments>

The CLI runs exactly as ``python -m geolab.cli <arguments>`` would and
writes the same report.  On exit the trace goes to TRACE_JSON: per-function
call counts with inclusive and self time, the spans of the coarse functions
(name, start, end, parent), the sizes of the symmetric eigensolves
(``numpy.linalg.eigvalsh``/``eigh``), and solver counts read from return
values.  Nothing under ``src/`` is modified: the probes are
installed by rebinding names in the geolab module namespaces.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

#: module -> public functions probed.  Every geolab module namespace that
#: binds one of these function objects (``from .jacobi import
#: conjugate_points`` copies the binding into ``cli`` and ``morse``) gets
#: the same probe, so a call is counted whichever name it goes through.
TRACED = {
    "charts": ("christoffels", "curvature_operator", "sectional_curvature", "geodesic_flow"),
    "loops": ("energy", "energy_gradient", "validate_loop", "loop_distance", "midpoint_loop"),
    "penalty": ("penalized_energy", "penalized_gradient", "classify_critical_point"),
    "families": ("birkhoff_latitudes", "random_loop"),
    "descent": ("descend", "minimax_sweepout"),
    "jacobi": ("jacobi_propagate", "conjugate_points", "refine_closed_orbit",
               "nullity_via_monodromy", "close_conjugate_points_check"),
    "morse": ("assemble_second_variation", "index_and_nullity", "dirichlet_index", "bott_table"),
    "cli": ("analyze_critical_loop",),
    "config": ("load_config",),
}

#: the subcommand bodies; each run has exactly one, recorded as ``cli.run``
ROOTS = ("run_find", "run_sweep", "run_analyze", "run_verify", "run_export")

#: hot leaves: aggregated into counters only, no span per call
HOT = frozenset({
    "charts.christoffels", "charts.curvature_operator", "charts.sectional_curvature",
    "loops.energy", "loops.energy_gradient", "loops.validate_loop",
    "loops.loop_distance", "loops.midpoint_loop",
    "penalty.penalized_energy", "penalty.penalized_gradient",
})


def probe_names() -> list[str]:
    """Every name the trace reports a ``calls``/``s``/``self_s`` triple for."""
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns] + ["cli.run"]


class Tracer:
    """Call stack, per-name aggregates and spans of one traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.t0 = clock()
        self.stack: list[list] = []          # [name, start, child_time, parent span of callees]
        self.active: dict[str, int] = {}     # name -> open activations
        self.stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in probe_names()}
        self.spans: list[tuple] = []         # (name, start, end, parent_span_id)
        self.eig_dims: list[int] = []
        self.counts = {"descent.iterations": 0, "descent.rounds": 0,
                       "descent.insertions": 0, "descent.family_size": 0}

    def wrap(self, name: str, fn, on_result=None):
        record_span = name not in HOT

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            parent = self.stack[-1][3] if self.stack else None
            span_id = None
            if record_span:
                span_id = len(self.spans)
                self.spans.append(None)     # slot, filled on exit
            frame = [name, self.clock(), 0.0, span_id if record_span else parent]
            self.stack.append(frame)
            self.active[name] = self.active.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self.stack.pop()
                self.active[name] -= 1
                dur = end - frame[1]
                st = self.stats[name]
                st["calls"] += 1
                st["self_s"] += dur - frame[2]
                if self.active[name] == 0:      # inclusive time of the outermost call only
                    st["s"] += dur
                if self.stack:
                    self.stack[-1][2] += dur
                if record_span:
                    self.spans[span_id] = (name, frame[1] - self.t0, end - self.t0, parent)
            if on_result is not None:
                on_result(result)
            return result

        return probe

    def _descend_result(self, res) -> None:
        self.counts["descent.iterations"] += int(res.iterations)

    def _sweep_result(self, res) -> None:
        self.counts["descent.rounds"] += int(res.rounds)
        self.counts["descent.insertions"] += int(res.insertions)
        self.counts["descent.family_size"] += int(res.family.size)

    def install(self) -> None:
        """Rebind every traced function in every geolab module that holds it."""
        import numpy as np

        mods = {name: importlib.import_module(f"geolab.{name}")
                for name in ("charts", "loops", "penalty", "families", "descent",
                             "jacobi", "morse", "config", "cli")}
        hooks = {"descent.descend": self._descend_result,
                 "descent.minimax_sweepout": self._sweep_result}
        targets = [(f"{mod}.{fn}", getattr(mods[mod], fn)) for mod, fns in TRACED.items()
                   for fn in fns]
        targets += [("cli.run", getattr(mods["cli"], fn)) for fn in ROOTS]
        for name, original in targets:
            probe = self.wrap(name, original, hooks.get(name))
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, probe)

        # the Hessian eigensolves: sizes only, one entry per matrix of a batch
        for solver in ("eigvalsh", "eigh"):
            setattr(np.linalg, solver, self._count_eig(getattr(np.linalg, solver)))

    def _count_eig(self, solver):
        import numpy as np

        @functools.wraps(solver)
        def counted(a, *args, **kwargs):
            shape = np.shape(a)
            self.eig_dims += [int(shape[-1])] * int(np.prod(shape[:-2], dtype=int))
            return solver(a, *args, **kwargs)

        return counted

    def dump(self) -> dict:
        return {
            "functions": self.stats,
            "counts": self.counts,
            "eig_dims": self.eig_dims,
            "spans": [list(s) for s in self.spans if s is not None],
        }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py TRACE_JSON -- <geolab cli arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    from geolab import cli

    try:
        code = cli.main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
