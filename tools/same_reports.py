"""Compare the CLI reports of two checkouts on the benchmark's workload inputs.

    python3 tools/same_reports.py PARENT_SRC CHANGE_SRC

Runs the CLI of each of the four workloads of ``perfbench/workloads.py``
on the inputs of seed 0, processes 0-7 (``WORKLOADS[name].config``), once
with each ``src`` directory's ``geolab``, two processes at a time with
``OPENBLAS_NUM_THREADS=1``.  Both runs of one process read the same config
and input files, in a temporary directory.  It prints each report field
that differs, with the exit code as one more field, once ``timestamp`` and
every ``*_path`` field are dropped, and exits 1 on any difference (0 when
every report agrees).  A refactor that claims to keep every result bit for
bit must pass it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

REPO = Path(__file__).resolve().parents[1]
SEED = 0
PROCESSES = range(8)
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def fields(value, prefix: str = "") -> dict:
    """Leaf values of a report by dotted path, without ``timestamp`` and ``*_path``."""
    if isinstance(value, dict) and value:
        items = {f"{prefix}.{k}" if prefix else k: v for k, v in value.items()
                 if k != "timestamp" and not k.endswith("_path")}
    elif isinstance(value, list) and value:
        items = {f"{prefix}[{i}]": v for i, v in enumerate(value)}
    else:
        return {prefix: value}
    out = {}
    for key, v in items.items():
        out.update(fields(v, key))
    return out


def start(src: str, argv: list[str], workdir: Path, out: Path) -> subprocess.Popen:
    env = dict(os.environ, **THREAD_PINS, PYTHONPATH=str(Path(src).resolve()))
    return subprocess.Popen([sys.executable, "-m", "geolab.cli", *argv, "--out", str(out)],
                            cwd=workdir, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def report(proc: subprocess.Popen, out: Path) -> dict:
    code = proc.wait()
    try:
        got = fields(json.loads(out.read_text()))
    except (OSError, ValueError):
        got = {"report": None}
    return {**got, "exit_code": code}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True          # leave perfbench/ as it is
    sys.path.insert(0, str(REPO))
    from perfbench.workloads import WORKLOADS

    differences = 0
    with tempfile.TemporaryDirectory(prefix="same_reports_") as tmp:
        for name, wl in WORKLOADS.items():
            for i in PROCESSES:
                workdir = Path(tmp) / f"{name}-p{i}"
                cfg_path = workdir / "config.yaml"
                cfg_path.parent.mkdir(parents=True)
                cfg_path.write_text(yaml.safe_dump(wl.config(SEED, i, workdir), sort_keys=True))
                cli_args = [*wl.subcommand, "--config", str(cfg_path), "--quiet"]
                outs = [workdir / f"report{k}.json" for k in range(2)]
                procs = [start(src, cli_args, workdir, out) for src, out in zip(args, outs)]
                parent, change = (report(p, out) for p, out in zip(procs, outs))
                diff = sorted(k for k in parent.keys() | change.keys()
                              if parent.get(k, "<absent>") != change.get(k, "<absent>"))
                for key in diff:
                    print(f"{name} p{i} {key}: {parent.get(key, '<absent>')!r} "
                          f"!= {change.get(key, '<absent>')!r}")
                print(f"{name} p{i}: exit {parent['exit_code']}/{change['exit_code']}, "
                      f"{len(parent)} fields, {len(diff)} differ", flush=True)
                differences += len(diff)
    print(f"{differences} differing fields")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
