"""The four pinned workloads: inputs made from a seed, and output checks.

Each workload drives one computing CLI subcommand.  Process ``i`` of a run
with seed ``s`` gets its own inputs, drawn from ``default_rng([s, i])``, so
a run's median averages over several inputs while the same seed always
gives the same inputs.  The checks accept only results the maths
guarantees; they never look at fields a pending fix is meant to change
(the ``find`` census size and the ``case`` labels).

Why these four (which layer each one stresses):

* ``find-funnel``: multistart single-loop descent to grad_tol 1e-8 on the
  funnel, then a full analysis (Jacobi shooting, Hessians) of every
  converged start.  Start centres are drawn out to r = 3, beyond the
  penalty radius 2, so some starts creep along the penalty ramp.
* ``sweep-birkhoff``: sweepout minimax of the sphere's latitude family;
  the only workload dominated by family descent (energy, gradient,
  validate_loop, loop_distance).  N = 128: at N = 48-96 this sweep exits 4
  on a known index cross-check defect, which must show as a failed run.
* ``analyze-bott``: spectral analysis with the Bott iteration table of the
  exact discrete great circle; repeated orbit shooting per iterate and the
  largest eigensolves, no descent.
* ``verify-bumped``: chart self-tests (long geodesic flows) and the
  conjugate-points-at-infinity probe (many short Jacobi segments) on the
  bumped cylinder; no descent and no eigensolve.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

FOUR_PI_SQ = 4.0 * math.pi ** 2


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


def _cli_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 31 - 1))


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _find_config(rng, workdir: Path) -> dict:
    return {"chart": "funnel", "n_nodes": 128, "n_starts": 4, "winding_mix": "mixed",
            "start_band": [0.0, 3.0], "penalty_r0": 2.0, "grad_tol": 1e-8,
            "seed": _cli_seed(rng)}


def _sweep_config(rng, workdir: Path) -> dict:
    # the latitude family is fixed by the chart; the seed field is carried
    # into the report but draws nothing
    return {"chart": "sphere", "family": "latitudes", "family_members": 9,
            "n_nodes": 128, "max_rounds": 50, "seed": _cli_seed(rng)}


def great_circle_nodes(n: int, phase: float) -> np.ndarray:
    """Exact discrete critical polygon of the stereographic equator.

    Chart radius 1/cos(pi/N) puts the segment midpoints on the unit circle;
    a rotation by ``phase`` is an isometry of the chart, so every phase
    gives the same geodesic problem with different numbers.
    """
    ts = 2.0 * np.pi * np.arange(n) / n + phase
    return np.stack([np.cos(ts), np.sin(ts)], axis=1) / np.cos(np.pi / n)


def _analyze_config(rng, workdir: Path) -> dict:
    n = 128
    loop_path = workdir / "great_circle.json"
    nodes = great_circle_nodes(n, float(rng.uniform(0.0, 2.0 * np.pi)))
    loop_path.write_text(json.dumps({"chart": "sphere", "frame": 0, "nodes": nodes.tolist()}))
    return {"chart": "sphere", "n_nodes": n, "loop_path": str(loop_path), "m_max": 2,
            "seed": _cli_seed(rng)}


def _verify_config(rng, workdir: Path) -> dict:
    return {"chart": "bumped_cylinder", "ell": 3.0, "k_radius": 1.0, "n_samples": 25,
            "seed": _cli_seed(rng)}


# ---------------------------------------------------------------------------
# output checks: each returns the list of problems found (empty = correct)
# ---------------------------------------------------------------------------


def _check_find(results: dict, cfg: dict) -> list[str]:
    problems = []
    if results["non_converged"] != 0:
        problems.append(f"non_converged = {results['non_converged']}")
    if results["lemma_violations"] != 0:
        problems.append(f"lemma_violations = {results['lemma_violations']}")
    entries = results["critical_points"]
    for e in entries:
        if not (abs(e["energy"]) <= 1e-6 or _rel_close(e["energy"], FOUR_PI_SQ, 1e-4)):
            problems.append(f"start {e['start_index']}: energy {e['energy']} is neither 0 nor 4pi^2")
    if not any(_rel_close(e["energy"], FOUR_PI_SQ, 1e-4) and e["index"] == 0 for e in entries):
        problems.append("no waist entry with energy 4pi^2 and index 0")
    return problems


def _check_sweep(results: dict, cfg: dict) -> list[str]:
    problems = []
    a = results["analysis"]
    if not results["stable"]:
        problems.append("sweepout not stable")
    if not results["argmax_grad_norm"] < cfg.get("argmax_grad_tol", 1e-3):
        problems.append(f"argmax gradient {results['argmax_grad_norm']}")
    if not _rel_close(results["value"], FOUR_PI_SQ, 1e-3):
        problems.append(f"minimax value {results['value']} != 4pi^2")
    got = (a["index"], a["nullity"], a.get("nullity_monodromy"))
    if got != (1, 3, 3):
        problems.append(f"(index, nullity, nullity_monodromy) = {got}, want (1, 3, 3)")
    return problems


def _check_analyze(results: dict, cfg: dict) -> list[str]:
    problems = []
    bott = results["analysis"].get("bott")
    if bott is None:
        return ["no Bott table in the report"]
    rows = [(r["m"], r["index"], r["nullity"]) for r in bott["rows"]]
    want = [(m, 2 * m - 1, 3) for m in range(1, cfg["m_max"] + 1)]
    if rows != want:
        problems.append(f"Bott rows {rows}, want {want}")
    if not bott["bounds_ok"]:
        problems.append("Bott bounds violated")
    return problems


def _check_verify(results: dict, cfg: dict) -> list[str]:
    problems = []
    if not results["pass"]:
        problems.append("verify did not pass")
    checked = results["conjpoints"]["segments"]["checked"]
    if checked != cfg["n_samples"]:
        problems.append(f"checked {checked} segments, want {cfg['n_samples']}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: tuple[str, ...]
    make_config: Callable[[np.random.Generator, Path], dict]
    check_results: Callable[[dict, dict], list[str]]
    #: CLI processes per untraced run, whatever ``--seconds`` says
    min_procs: int = 3

    def config(self, seed: int, index: int, workdir: Path) -> dict:
        """Config of process ``index`` in a run with ``seed``; writes any input files."""
        workdir.mkdir(parents=True, exist_ok=True)
        return self.make_config(np.random.default_rng([seed, index]), workdir)

    def check(self, report: dict, cfg: dict) -> list[str]:
        if "failure" in report:
            return [f"{report['failure']['type']}: {report['failure']['message']}"]
        if report.get("subcommand") != self.subcommand[0]:
            return [f"report is for subcommand {report.get('subcommand')!r}"]
        return self.check_results(report["results"], cfg)


WORKLOADS = {w.name: w for w in (
    Workload("find-funnel", ("find",), _find_config, _check_find),
    Workload("sweep-birkhoff", ("sweep",), _sweep_config, _check_sweep),
    Workload("analyze-bott", ("analyze",), _analyze_config, _check_analyze),
    # ~11 s processes, which the reference tracks least well: a fourth
    # process brings the run-to-run spread down to that of the others
    Workload("verify-bumped", ("verify", "all"), _verify_config, _check_verify, min_procs=4),
)}
