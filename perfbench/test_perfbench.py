"""Self-tests of the benchmark: ``python3 -m pytest -q perfbench`` from the root.

The smoke runs use tiny inputs so the whole file takes about a minute;
verify-bumped dominates because its chart self-tests have a fixed size.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import FOUR_PI_SQ, WORKLOADS  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "find-funnel": {"n_nodes": 64, "n_starts": 2},
    "sweep-birkhoff": {"max_rounds": 5},
    "analyze-bott": {},                       # m_max 2 is already the smallest valid table
    "verify-bumped": {"n_samples": 3},
}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tracer_self_time_and_spans():
    clock = FakeClock()
    tr = Tracer(clock)

    def leaf():
        clock.now += 1.0

    def outer(depth):
        clock.now += 2.0
        probed_leaf()
        if depth:
            probed_outer(depth - 1)

    probed_leaf = tr.wrap("charts.christoffels", leaf)       # hot: counter only
    probed_outer = tr.wrap("descent.descend", outer)
    probed_outer(1)

    st = tr.stats
    assert st["charts.christoffels"] == {"calls": 2, "s": 2.0, "self_s": 2.0}
    # recursion: inclusive time counts the outermost call once
    assert st["descent.descend"] == {"calls": 2, "s": 6.0, "self_s": 4.0}
    spans = tr.dump()["spans"]
    assert [(s[0], s[1], s[2], s[3]) for s in spans] == [
        ("descent.descend", 0.0, 6.0, None), ("descent.descend", 3.0, 6.0, 0)]


def _find(energies_indices, **extra):
    entries = [{"start_index": i, "energy": e, "index": k}
               for i, (e, k) in enumerate(energies_indices)]
    return {"non_converged": 0, "lemma_violations": 0, "critical_points": entries, **extra}


def test_checks_accept_guaranteed_results_and_reject_others():
    find, sweep = WORKLOADS["find-funnel"], WORKLOADS["sweep-birkhoff"]
    good = _find([(0.0, 0), (FOUR_PI_SQ * (1 + 1e-7), 0)])
    assert find.check_results(good, {}) == []
    assert find.check_results(_find([(0.0, 0)]), {})               # no waist
    assert find.check_results(_find([(0.0, 0), (FOUR_PI_SQ, 0), (20.0, 1)]), {})
    assert find.check_results({**good, "non_converged": 1}, {})

    analysis = {"index": 1, "nullity": 3, "nullity_monodromy": 3}
    res = {"stable": 1, "argmax_grad_norm": 2e-4, "value": 39.4943, "analysis": analysis}
    assert sweep.check_results(res, {}) == []                     # 1/0 booleans
    assert sweep.check_results({**res, "stable": 0}, {})
    assert sweep.check_results({**res, "value": 40.0}, {})

    rows = [{"m": m, "index": 2 * m - 1, "nullity": 3} for m in (1, 2)]
    bott = {"analysis": {"bott": {"rows": rows, "bounds_ok": 1}}}
    assert WORKLOADS["analyze-bott"].check_results(bott, {"m_max": 2}) == []
    assert WORKLOADS["analyze-bott"].check_results(bott, {"m_max": 3})

    ver = {"pass": 1, "conjpoints": {"segments": {"checked": 5}}}
    assert WORKLOADS["verify-bumped"].check_results(ver, {"n_samples": 5}) == []
    assert WORKLOADS["verify-bumped"].check_results({**ver, "pass": 0}, {"n_samples": 5})


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


def test_inputs_repeat_for_a_seed(tmp_path):
    wl = WORKLOADS["analyze-bott"]
    a = wl.config(7, 2, tmp_path / "a")
    b = wl.config(7, 2, tmp_path / "b")
    assert (tmp_path / "a" / "great_circle.json").read_text() == \
        (tmp_path / "b" / "great_circle.json").read_text()
    assert a["seed"] == b["seed"] != wl.config(8, 2, tmp_path / "c")["seed"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_each_workload(name):
    m = run.measure(WORKLOADS[name], seed=3, seconds=0, overrides=TINY[name],
                    min_procs=1, probes=1)
    assert m.correct, m.outcomes[0].problems + m.problems
    out = m.result()
    assert (out["attempted"], out["failed"]) == (1, 0)
    assert set(out["metrics"]) == {e["name"] for e in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_failed_exit_counts_as_failed_run():
    # a five-member latitude family is too coarse: the CLI exits 3
    m = run.measure(WORKLOADS["sweep-birkhoff"], seed=0, seconds=0,
                    overrides={"family_members": 5}, min_procs=1, probes=1)
    assert (m.attempted, m.failed, m.correct) == (1, 1, False)
    assert any("exit code 3" in p for p in m.outcomes[0].problems)


@pytest.fixture(scope="module")
def traced_pair():
    wl, tiny = WORKLOADS["find-funnel"], TINY["find-funnel"]
    return [run.measure_traced(wl, seed=5, seconds=0, overrides=tiny) for _ in range(2)]


def test_traced_report_equals_untraced(traced_pair):
    # measure_traced compares each pair's reports apart from the timestamp
    for m in traced_pair:
        assert m.correct, m.problems + [p for o in m.outcomes for p in o.problems]


def test_traced_counts_repeat_and_self_times_nonnegative(traced_pair):
    first, second = (m.result()["metrics"] for m in traced_pair)
    assert set(first) == {p["name"] for p in BENCH["per_layer"]}
    counts = {k: v["value"] for k, v in first.items() if v["unit"] != "s"
              and k != "trace_overhead"}
    assert counts == {k: second[k]["value"] for k in counts}
    assert counts["descent.descend.calls"] == 2
    assert counts["cli.run.calls"] == 1
    for m in traced_pair:
        trace = m.outcomes[1].trace
        assert all(st["self_s"] >= 0 for st in trace["functions"].values())
        assert all(end >= start for _, start, end, _ in trace["spans"])


def test_refuses_to_run_without_program_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "find-funnel", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
