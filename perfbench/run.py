"""geolab benchmark: the four computing CLI subcommands on pinned workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload find-funnel --seed 0 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 22

Each CLI run is a fresh process (``python -m geolab.cli``) with
``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1``, run one at a time
(closed loop, one client).  Process ``i`` gets the inputs of
``workloads.Workload.config(seed, i)``.  Every report is checked; a
non-zero exit, a timeout or a failed check makes the run a failure.

``--trace 0`` reports the end-to-end metrics: ``wall_ref`` (each CLI
process's wall time, start to exit, divided by the mean time of the fixed
reference work run just before and after it; median over the run), ``setup_s`` (start of a process that imports the CLI, loads the
config and builds the chart, to its exit; median of several), and
``peak_rss_mb`` (the process's own peak resident memory from ``os.wait4``,
median).  On a shared 2-core x86 VM the same process took up to 1.7x
longer from one minute to the next; the reference cancels most of that
drift, which the raw ``wall_s`` (printed too) cannot.  ``--trace 1``
alternates untraced and traced runs of process 0's inputs and reports the
per-layer metrics (see ``tracer.py``).  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
from tracer import probe_names  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 7       # timed set-up processes per untraced run
PROC_TIMEOUT = 90.0    # one CLI process; a timeout is a failed run
HARD_LIMIT = 160.0     # no process is given time beyond this point of a run

#: fixed reference work that does not touch geolab: a pure-Python loop and
#: small eigensolves, about 0.4 s, run as its own process between CLI runs.
#: It times itself after its imports, so file-system stalls do not count:
#: timing the whole process, numpy import included, once doubled the
#: run-to-run spread of ``wall_ref`` while the reference alone slowed down.
REFERENCE_CODE = """\
import time
import numpy as np
t0 = time.perf_counter()
s = 0
for i in range(1_500_000):
    s += i * i
a = np.arange(4096.0).reshape(64, 64) % 7.0
for _ in range(250):
    np.linalg.eigvalsh(a + a.T)
print(time.perf_counter() - t0)
"""

SETUP_CODE = """\
import sys
import geolab.cli
from geolab.charts import make_chart
from geolab.config import load_config
cfg = load_config(sys.argv[1])
make_chart(cfg.chart, **cfg.chart_params)
"""


@dataclass
class Proc:
    wall_s: float
    rss_mb: float
    exit_code: int | None        # None: killed on timeout


@dataclass
class Outcome:
    """One CLI run: the process, its report and what the check found."""

    proc: Proc
    report: dict | None
    report_bytes: int
    problems: list[str]
    trace: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class Measurement:
    workload: str
    seed: int
    outcomes: list[Outcome] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)   # beyond single runs
    metrics: dict = field(default_factory=dict)          # name -> (value, unit)
    info: dict = field(default_factory=dict)             # printed, not declared

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.problems

    def result(self) -> dict:
        return {"correct": self.correct, "attempted": self.attempted, "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()}}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def spawn(argv: list[str], log_path: Path, timeout: float) -> Proc:
    """Run one process to its end; wall time and peak RSS are its own."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        deadline = t0 + timeout
        timed_out = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                timed_out = True
                break
            time.sleep(0.001)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_maxrss / 1024.0, None if timed_out else proc.returncode)


def write_config(cfg: dict, path: Path) -> Path:
    path.write_text(yaml.safe_dump(cfg, sort_keys=True))
    return path


def run_cli(wl: Workload, cfg: dict, cfg_path: Path, tag: str, workdir: Path,
            timeout: float, traced: bool = False) -> Outcome:
    report_path = workdir / f"{tag}.report.json"
    args = [*wl.subcommand, "--config", str(cfg_path), "--quiet", "--out", str(report_path)]
    if traced:
        trace_path = workdir / f"{tag}.trace.json"
        argv = [sys.executable, str(HERE / "tracer.py"), str(trace_path), "--", *args]
    else:
        argv = [sys.executable, "-m", "geolab.cli", *args]
    proc = spawn(argv, workdir / f"{tag}.log", timeout)

    report, size, problems = None, 0, []
    if proc.exit_code is None:
        problems.append(f"timed out after {timeout:.0f} s")
    elif proc.exit_code != 0:
        problems.append(f"exit code {proc.exit_code}")
    try:
        text = report_path.read_text()
        size = len(text.encode())
        report = json.loads(text)
    except (OSError, ValueError) as exc:
        problems.append(f"no readable report: {exc}")
    if report is not None:
        try:
            problems += wl.check(report, cfg)
        except (KeyError, TypeError, IndexError) as exc:
            problems.append(f"report lacks an expected field: {exc!r}")
    trace = None
    if traced and proc.exit_code is not None:
        try:
            trace = json.loads((workdir / f"{tag}.trace.json").read_text())
        except (OSError, ValueError) as exc:
            problems.append(f"no readable trace: {exc}")
    if problems:
        log = (workdir / f"{tag}.log").read_text(errors="replace").strip().splitlines()
        problems += [f"log: {line}" for line in log[-3:]]
    return Outcome(proc, report, size, problems, trace)


def timed_probe(code: str, *args: str, workdir: Path) -> float:
    """Wall time of one helper process; a failing helper aborts the run."""
    log = workdir / "probe.log"
    proc = spawn([sys.executable, "-c", code, *args], log, PROC_TIMEOUT)
    if proc.exit_code != 0:
        raise RuntimeError(f"probe failed (exit {proc.exit_code}):\n"
                           + log.read_text(errors="replace"))
    return proc.wall_s


def reference_s(workdir: Path) -> float:
    """One sample of the machine's speed: the reference's own timing of its work."""
    timed_probe(REFERENCE_CODE, workdir=workdir)
    return float((workdir / "probe.log").read_text())


def _progress(wl: Workload, tag: str, cfg: dict, out: Outcome, ref: float | None = None) -> None:
    status = "ok" if out.ok else "FAILED: " + "; ".join(out.problems)
    ref_text = f" ref={ref:.3f}s" if ref else ""
    print(f"[{wl.name}] {tag} cli-seed={cfg.get('seed')} wall={out.proc.wall_s:.3f}s{ref_text} "
          f"rss={out.proc.rss_mb:.1f}MB {status}", file=sys.stderr, flush=True)


def measure(wl: Workload, seed: int, seconds: float, overrides: dict | None = None,
            min_procs: int | None = None, probes: int = SETUP_PROBES) -> Measurement:
    """Untraced run: set-up probes, then CLI processes until ``seconds`` is spent."""
    m = Measurement(wl.name, seed)
    min_procs = wl.min_procs if min_procs is None else min_procs
    t0 = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        cfg0 = {**wl.config(seed, 0, workdir / "in0"), **(overrides or {})}
        cfg0_path = write_config(cfg0, workdir / "in0" / "config.yaml")
        timed_probe(SETUP_CODE, str(cfg0_path), workdir=workdir)   # untimed: fills bytecode caches
        setups = [timed_probe(SETUP_CODE, str(cfg0_path), workdir=workdir) for _ in range(probes)]
        walls: list[float] = []
        rels: list[float] = []
        refs: list[float] = []
        i = 0
        while True:
            elapsed = time.perf_counter() - t0
            if i >= min_procs and elapsed + statistics.median(walls or [0.0]) + refs[-1] > seconds:
                break
            timeout = min(PROC_TIMEOUT, HARD_LIMIT - elapsed)
            if timeout <= 0:
                m.problems.append(f"stopped after {i} processes: run time limit reached")
                break
            inputs = workdir / f"in{i}"
            cfg = cfg0 if i == 0 else {**wl.config(seed, i, inputs), **(overrides or {})}
            cfg_path = write_config(cfg, inputs / "config.yaml")
            if not refs:
                refs.append(reference_s(workdir))
            out = run_cli(wl, cfg, cfg_path, f"p{i}", workdir, timeout)
            refs.append(reference_s(workdir))
            ref = (refs[-2] + refs[-1]) / 2
            _progress(wl, f"p{i}", cfg, out, ref)
            m.outcomes.append(out)
            if out.ok:
                walls.append(out.proc.wall_s)
                rels.append(out.proc.wall_s / ref)
            i += 1
        good = [o.proc for o in m.outcomes if o.ok]
        if good:
            m.metrics["wall_ref"] = (statistics.median(rels), "ratio")
            m.metrics["setup_s"] = (statistics.median(setups), "s")
            m.metrics["peak_rss_mb"] = (statistics.median(p.rss_mb for p in good), "MB")
            m.info["wall_s"] = (statistics.median(walls), "s")
            m.info["reference_s"] = (statistics.median(refs), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, report: dict, report_bytes: int) -> dict:
    """Per-layer metrics of one traced run (times are replaced by medians later)."""
    out = {}
    fns = trace["functions"]
    for name in probe_names():
        st = fns[name]
        out[f"{name}.calls"] = (st["calls"], "count")
        out[f"{name}.s"] = (st["s"], "s")
        out[f"{name}.self_s"] = (st["self_s"], "s")
    for name, value in trace["counts"].items():
        out[name] = (value, "count")
    calls = {name: fns[name]["calls"] for name in fns}
    out["descent.trials_per_step"] = (
        _ratio(calls["penalty.penalized_energy"], calls["penalty.penalized_gradient"]), "ratio")
    out["jacobi.shoots_per_orbit"] = (
        _ratio(calls["jacobi.jacobi_propagate"], calls["jacobi.nullity_via_monodromy"]), "ratio")
    results = report["results"]
    segments = results.get("conjpoints", {}).get("segments", {})
    out["jacobi.segments_discarded_frac"] = (
        _ratio(segments.get("discarded", 0),
               segments.get("checked", 0) + segments.get("discarded", 0)), "ratio")
    dims = trace["eig_dims"]
    out["morse.eig_dim_max"] = (max(dims, default=0), "rows")
    out["morse.eig_flops_computed"] = (sum(n ** 3 for n in dims), "n3")
    out["morse.assemblies_per_point"] = (
        _ratio(calls["morse.assemble_second_variation"], calls["cli.analyze_critical_loop"]),
        "ratio")
    entries = (results["n_critical_points"] if "n_critical_points" in results
               else int("analysis" in results))
    out["cli.analyses_per_entry"] = (_ratio(calls["cli.analyze_critical_loop"], entries), "ratio")
    out["cli.report_bytes"] = (report_bytes, "bytes")
    return out


def _strip_timestamp(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timestamp"}


def measure_traced(wl: Workload, seed: int, seconds: float,
                   overrides: dict | None = None) -> Measurement:
    """Traced run: pairs of untraced and traced runs of process 0's inputs.

    The order within a pair alternates, so neither side always runs first.
    Counts come from the first pair and must repeat exactly in every later
    pair; times are medians over the pairs.  ``trace_overhead`` compares
    the traced and untraced wall times of the same inputs.
    """
    m = Measurement(wl.name, seed)
    t0 = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-trace-", dir=WORK))
    try:
        cfg = {**wl.config(seed, 0, workdir / "in0"), **(overrides or {})}
        cfg_path = write_config(cfg, workdir / "in0" / "config.yaml")
        layers, walls_plain, walls_traced = [], [], []
        rep = 0
        while True:
            elapsed = time.perf_counter() - t0
            timeout = min(PROC_TIMEOUT, HARD_LIMIT - elapsed)
            if rep and (elapsed + walls_plain[-1] + walls_traced[-1] > seconds or timeout <= 0):
                break
            pair = {}
            for is_traced in ((False, True) if rep % 2 == 0 else (True, False)):
                tag = f"{'t' if is_traced else 'u'}{rep}"
                left = HARD_LIMIT - (time.perf_counter() - t0)
                pair[is_traced] = run_cli(wl, cfg, cfg_path, tag, workdir,
                                          min(PROC_TIMEOUT, left), traced=is_traced)
                _progress(wl, tag, cfg, pair[is_traced])
            plain, traced = pair[False], pair[True]
            m.outcomes += [plain, traced]
            if not (plain.ok and traced.ok):
                break
            if _strip_timestamp(plain.report) != _strip_timestamp(traced.report):
                m.problems.append(f"pair {rep}: traced report differs from the untraced one")
            layers.append(layer_metrics(traced.trace, plain.report, plain.report_bytes))
            walls_plain.append(plain.proc.wall_s)
            walls_traced.append(traced.proc.wall_s)
            rep += 1
        if layers:
            first = layers[0]
            for name, (value, unit) in first.items():
                values = [lm[name][0] for lm in layers]
                if unit == "s":
                    first[name] = (statistics.median(values), unit)
                elif any(v != value for v in values):
                    m.problems.append(f"{name} does not repeat: {values}")
            first["trace_overhead"] = (
                statistics.median(walls_traced) / statistics.median(walls_plain) - 1.0, "ratio")
            m.metrics = first
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return m


def provenance(workload: str, seed: int, trace: bool) -> dict:
    import numpy as np

    def git(*args):
        try:
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None

    is_repo = (ROOT / ".git").exists()
    status = git("status", "--porcelain", "--untracked-files=no") if is_repo else None
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "git_sha": git("rev-parse", "HEAD") if is_repo else None,
        "git_dirty": (bool(status) if status is not None else None),
        **THREAD_PINS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def _high_percentile(n: int) -> int | None:
    """Highest of p90/p75 with at least ten samples beyond it at ``n`` samples."""
    for p in (90, 75):
        if n * (100 - p) / 100 >= 10:
            return p
    return None


def summary(m: Measurement) -> list[str]:
    ok_walls = [o.proc.wall_s for o in m.outcomes if o.ok]
    lines = [f"workload {m.workload}  seed {m.seed}  runs {m.attempted}  failed {m.failed}"]
    for name, (value, unit) in {**m.metrics, **m.info}.items():
        lines.append(f"  {name:40s} {value:>14.6g} {unit}")
    if "wall_s" in m.info:
        p = _high_percentile(len(ok_walls))
        if p is None:
            lines.append(f"  (wall_s: median of {len(ok_walls)} runs; too few for a percentile "
                         "above the median with ten samples beyond it)")
        else:
            q = statistics.quantiles(ok_walls, n=100)[p - 1]
            lines.append(f"  wall_s.p{p:<34d} {q:>14.6g} s  (of {len(ok_walls)} runs)")
    lines.append(f"  {'fail_frac':40s} {m.failed / max(m.attempted, 1):>14.6g} ratio")
    for o in m.outcomes:
        if not o.ok:
            lines.append("  failure: " + "; ".join(o.problems))
    lines += [f"  problem: {p}" for p in m.problems]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "geolab" / "cli.py").is_file():
        print(f"geolab sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    seed = args.seed % (2 ** 63)
    results = []
    for name in names:
        wl = WORKLOADS[name]
        m = (measure_traced(wl, seed, args.seconds) if args.trace
             else measure(wl, seed, args.seconds))
        print("\n".join(summary(m)))
        print("provenance " + json.dumps(provenance(name, seed, bool(args.trace)), sort_keys=True))
        results.append(m)
    if len(results) == 1:
        final = results[0].result()
    else:
        final = {"correct": all(m.correct for m in results),
                 "attempted": sum(m.attempted for m in results),
                 "failed": sum(m.failed for m in results),
                 "metrics": {}}
        for m in results:
            info = {**m.metrics, **m.info, "fail_frac": (m.failed / max(m.attempted, 1), "ratio")}
            final["metrics"].update({f"{m.workload}.{k}": {"value": v, "unit": u}
                                     for k, (v, u) in info.items()})
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
