"""Tests of the benchmark itself: python3 -m pytest -q perfbench/tests"""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Every metric name the benchmark promises, spelled out rather than derived.
END_TO_END_NAMES = {"throughput_rps", "latency_ms.p50", "latency_ms.p90", "setup_s", "peak_rss_mb"}
PER_LAYER_NAMES = {
    "quadfield.elliptic_trace_candidates.calls", "quadfield.elliptic_trace_candidates.busy_ms",
    "quadfield.allowed_orders.calls", "quadfield.allowed_orders.busy_ms",
    "quadfield.census_per_field", "quadfield.self_share",
    "cyclicreps.rep_counts.calls", "cyclicreps.rep_counts.busy_ms",
    "cyclicreps.kp_count.calls", "cyclicreps.kp_count.busy_ms",
    "cyclicreps.rp_count.calls", "cyclicreps.rp_count.busy_ms",
    "cyclicreps.orbit_elements", "cyclicreps.ns_per_orbit_element", "cyclicreps.self_share",
    "finitek.rank_K_cyclic.calls", "finitek.rank_K_cyclic.busy_ms",
    "finitek.wh_cyclic.calls", "finitek.wh_cyclic.busy_ms", "finitek.self_share",
    "assembler.GroupData.calls", "assembler.GroupData.busy_ms",
    "assembler.rank_diff.calls", "assembler.rank_diff.busy_ms",
    "assembler.rank_diff_from_case_table.calls", "assembler.rank_diff_from_case_table.busy_ms",
    "assembler.whitehead.calls", "assembler.whitehead.busy_ms", "assembler.self_share",
    "pchain.enumerate_pchains.calls", "pchain.enumerate_pchains.busy_ms",
    "pchain.subsets_tested", "pchain.chains_emitted", "pchain.chain_yield",
    "pchain.build_E1.busy_ms", "pchain.rank_E1_column.busy_ms", "pchain.self_share",
    "classnumbers.reduced_forms.calls", "classnumbers.reduced_forms.busy_ms",
    "classnumbers.enumerations_per_request", "classnumbers.candidates_tested",
    "classnumbers.form_yield", "classnumbers.self_share",
    "cli.main.self_ms", "cli.build_parser.busy_ms", "cli.canonical_json.busy_ms",
    "cli.stdout_bytes", "cli.self_share",
    "startup.interpreter_ms", "startup.import_ms", "startup.child_cpu_ms",
    "trace.overhead_ratio",
}


@pytest.fixture(scope="module")
def cli():
    import hilbertmod.cli
    return hilbertmod.cli


def run_cli(argv):
    ok, out = run.InProcess().run("cli", argv)
    assert ok, out
    return out


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(workload):
    first = workloads.take(workload, 7, 80)
    assert first == workloads.take(workload, 7, 80)
    assert first != workloads.take(workload, 8, 80)


def test_census_sweep_fields_are_distinct_and_cover_both_classes():
    ds = [int(argv[1]) for _, _, argv in workloads.take("census_sweep", 3, 3000)[::3]]
    assert ds[:3] == [2, 3, 5]
    assert len(set(ds)) == len(ds)
    assert {d % 4 for d in ds} >= {1, 2, 3}
    assert max(ds) > 10**5


def test_allowed_orders_closed_form_matches_the_census(cli):
    from hilbertmod.quadfield import FieldSpec, allowed_orders
    for d in range(2, 400):
        if workloads.is_square_free(d):
            assert workloads.allowed_orders(d) == list(allowed_orders(FieldSpec(d)))


def test_degree_lists_start_negative_and_pass_as_one_argument():
    for _, kind, payload in workloads.degree_table_list(random.Random(1)):
        if kind == "cli" and payload[0] == "ranks":
            q = next(a for a in payload if a.startswith("--q"))
            assert q.startswith("--q=-")
            assert len(q.split(",")) == workloads.DEGREES_PER_REQUEST


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_generated_request_succeeds_and_checks(workload, cli):
    runner = run.InProcess()
    for key, kind, payload in workloads.take(workload, 11, 60):  # a whole heavy_inputs pass
        ok, out = runner.run(kind, payload)
        assert ok, (payload, out)
        checks.check(kind, payload, out)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

CORRUPTIONS = [
    (["field", "5", "--json"], "5\n    ]", "6\n    ]"),
    (["ranks", "5", "--q=-1,5,7", "--json"], '"value": 8', '"value": 9'),
    (["whitehead", "5", "--mode", "sl", "--q", "1"], "Z/2", "Z/3"),
    (["reps", "360", "--json"], '"k_p": 39', '"k_p": 38'),
    (["classnum", "-23"], "h(-23) = 3", "h(-23) = 2"),
    (["chains", "--poset", "sl", "--m", "6", "--p", "1", "--json"], '"count": 13', '"count": 12'),
]


@pytest.mark.parametrize("argv,old,new", CORRUPTIONS, ids=lambda x: x[0] if isinstance(x, list) else "")
def test_corrupted_output_is_rejected(argv, old, new, cli):
    out = run_cli(argv)
    checks.check("cli", argv, out)
    assert old in out
    with pytest.raises(checks.CheckError):
        checks.check("cli", argv, out.replace(old, new, 1))


def test_corrupted_output_counts_as_failed_request(cli):
    class Corrupting(run.InProcess):
        def run(self, kind, payload):  # bump the last digit of every answer
            ok, out = super().run(kind, payload)
            i = max(i for i, ch in enumerate(out) if ch.isdigit())
            return ok, out[:i] + str((int(out[i]) + 1) % 10) + out[i + 1:]

    phase = run.Phase().run(Corrupting(), workloads.passes("degree_table", 1), 0.2, {})
    assert phase.attempted > 0 and phase.failed == phase.attempted


def test_nonzero_exit_counts_as_failed_request(cli):
    bad = [(None, "cli", ["field", "12", "--json"]), (None, "cli", ["ranks", "--q", "-1,2"])]
    phase = run.Phase().run(run.InProcess(), iter([bad] * 50), 0.05, {})
    assert phase.failed == phase.attempted > 0


def test_dirichlet_formula_matches_reduction():
    sys.path.append(str(ROOT / "tests"))
    from oracles import class_number_by_reduction
    for D in range(-3, -400, -1):
        if checks.is_fundamental(D):
            h = checks.dirichlet_class_number(D)
            assert abs(h - class_number_by_reduction(D)[0]) < 0.01, D


def test_kronecker_symbol_small_table():
    assert [checks.kronecker(-23, n) for n in range(1, 9)] == [1, 1, 1, 1, -1, 1, -1, 1]
    assert checks.kronecker(-4, 2) == 0 and checks.kronecker(-3, 2) == -1


# ---------------------------------------------------------------------------
# Tracing and metrics
# ---------------------------------------------------------------------------

def test_tracer_wraps_every_import_site_and_restores(cli):
    assembler = sys.modules["hilbertmod.assembler"]
    pchain = sys.modules["hilbertmod.pchain"]
    originals = (cli.allowed_orders, assembler.allowed_orders, pchain.rank_E1_column.__defaults__)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.allowed_orders is not originals[0]
        assert assembler.allowed_orders is not originals[1]
        assert pchain.rank_E1_column.__defaults__ != originals[2]
        tracer.begin()
        run.InProcess().run("cli", ["whitehead", "5", "--mode", "sl", "--q", "0", "--json"])
        tracer.end(10**9)
    finally:
        tracer.uninstall()
    assert (cli.allowed_orders, assembler.allowed_orders, pchain.rank_E1_column.__defaults__) == originals
    calls = tracer.totals.calls
    # whitehead_sl re-validates through dataclasses.replace: two censuses
    assert calls["quadfield.allowed_orders"] == calls["assembler.GroupData"] == 2
    assert calls["assembler.whitehead"] == 2 and calls["cli.main"] == 1


@pytest.mark.parametrize("trace,names", [(False, END_TO_END_NAMES), (True, PER_LAYER_NAMES)])
def test_every_metric_is_emitted(trace, names):
    result = run.run("degree_table", 1, 0.4, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == names
    assert all(isinstance(m["value"], float | int) and m["unit"] for m in result["metrics"].values())


def test_benchmark_json_matches_the_definitions():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == run.benchmark_json()
    assert {m["name"] for m in committed["end_to_end"]} == END_TO_END_NAMES
    assert {m["name"] for m in committed["per_layer"]} == PER_LAYER_NAMES
