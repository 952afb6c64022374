"""hilbertmod benchmark: one closed-loop client driving the real CLI.

    python3 perfbench/run.py --workload census_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  In-process workloads call
``hilbertmod.cli.main(argv)`` (and two library-only rank routes); ``cli_cold``
starts one ``python -S -m hilbertmod.cli`` process per request.  One
request is in flight at a time, from one process.  Every output is checked
by an independent route (see ``checks.py``); a request fails on a nonzero
exit, an exception or an output that fails its check.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` spends half the time untraced and half traced, and reports
the per-layer metrics plus the tracing overhead.  A readable report goes to
stderr; the last stdout line is the JSON result.  ``--write-benchmark-json``
regenerates ``BENCHMARK.json`` from the definitions below.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks
import workloads
from cold_child import TRACE_PREFIX
from tracer import LayerTotals, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_SECONDS = 25
SETUP_REPEATS = 7
REFERENCE_MS = 1.0      # reference-loop time that defines the reference speed
SEGMENT_S = 0.1         # measured time between speed calibrations
STARTUP_SAMPLES = 10

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("throughput_rps", "1/s", "higher", 0.24),
    ("latency_ms.p50", "ms", "lower", 0.24),
    ("latency_ms.p90", "ms", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]
_TRACED_CALLS = ["quadfield.elliptic_trace_candidates", "quadfield.allowed_orders",
                 "cyclicreps.rep_counts", "cyclicreps.kp_count", "cyclicreps.rp_count",
                 "finitek.rank_K_cyclic", "finitek.wh_cyclic", "assembler.GroupData",
                 "assembler.rank_diff", "assembler.rank_diff_from_case_table",
                 "assembler.whitehead", "pchain.enumerate_pchains",
                 "classnumbers.reduced_forms"]
PER_LAYER = (
    [(k + suffix, unit) for k in _TRACED_CALLS
     for suffix, unit in ((".calls", "calls/req"), (".busy_ms", "ms/req"))]
    + [("quadfield.census_per_field", "calls/field"),
       ("cyclicreps.orbit_elements", "count/req"),
       ("cyclicreps.ns_per_orbit_element", "ns"),
       ("pchain.subsets_tested", "count/req"),
       ("pchain.chains_emitted", "count/req"),
       ("pchain.chain_yield", "ratio"),
       ("pchain.build_E1.busy_ms", "ms/req"),
       ("pchain.rank_E1_column.busy_ms", "ms/req"),
       ("classnumbers.enumerations_per_request", "calls/req"),
       ("classnumbers.candidates_tested", "count/req"),
       ("classnumbers.form_yield", "ratio"),
       ("cli.main.self_ms", "ms/req"),
       ("cli.build_parser.busy_ms", "ms/req"),
       ("cli.canonical_json.busy_ms", "ms/req"),
       ("cli.stdout_bytes", "bytes/req")]
    + [(layer + ".self_share", "ratio") for layer in
       ("quadfield", "cyclicreps", "finitek", "assembler", "pchain", "classnumbers", "cli")]
    + [("startup.interpreter_ms", "ms"), ("startup.import_ms", "ms"),
       ("startup.child_cpu_ms", "ms/req"), ("trace.overhead_ratio", "ratio")]
)
HIGHER_IS_BETTER = ("pchain.chain_yield", "classnumbers.form_yield", "trace.overhead_ratio")
# Counts that follow from call arguments, not from the program's own counters.
COMPUTED = ("pchain.subsets_tested", "classnumbers.candidates_tested", "cyclicreps.orbit_elements")


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in workloads.WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "higher" if n in HIGHER_IS_BETTER else "lower"}
                      for n, u in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# Running requests
# ---------------------------------------------------------------------------

class InProcess:
    """Calls hilbertmod.cli.main and the library rank routes in this process."""

    def __init__(self):
        self.cli = sys.modules["hilbertmod.cli"]

    def run(self, kind, payload):
        """(ok, stdout) of one request; ok is False on a nonzero exit or an exception."""
        try:
            if kind == "cli":
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = self.cli.main(list(payload))
                return code == 0, out.getvalue()
            return True, json.dumps(self._route(kind, *payload))
        except (Exception, SystemExit) as exc:  # argparse exits; any error is a failed request
            return False, repr(exc)

    @staticmethod
    def _route(kind, d, classes, qs):
        assembler = sys.modules["hilbertmod.assembler"]
        pchain = sys.modules["hilbertmod.pchain"]
        source = sys.modules["hilbertmod.quadfield"].FieldSpec(d) if d is not None else "generic"
        counts = (assembler.ClassCounts.parse(classes) if classes is not None
                  else assembler.class_counts_for_field(source))
        g = assembler.GroupData(source=source, class_counts=counts, mode=assembler.Mode.PSL)
        if kind == "case_table":
            return [assembler.rank_diff_from_case_table(g, q) for q in qs]
        page = pchain.build_E1(pchain.psl_poset(counts), relative_to_trivial=False,
                               class_counts=counts)
        return [pchain.rank_E1_column(page, 0, q) - pchain.rank_E1_column(page, 1, q) for q in qs]


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


class Cold:
    """One fresh interpreter per request (``-S``: the program needs no site-packages)."""

    def __init__(self, traced=False):
        self.traced = traced
        self.totals = LayerTotals()
        self.env = child_env()

    def run(self, kind, argv):
        if self.traced:
            cmd = [sys.executable, "-S", str(Path(__file__).with_name("cold_child.py")), *argv]
        else:
            cmd = [sys.executable, "-S", "-m", "hilbertmod.cli", *argv]
        t0 = time.perf_counter_ns()
        with subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                return False, "timed out"
            proc.wait()  # output is closed, so this returns at exit (no polling)
        wall = time.perf_counter_ns() - t0
        if self.traced:
            lines = stderr.rstrip("\n").split("\n")
            if lines[-1].startswith(TRACE_PREFIX):
                child = LayerTotals.from_dict(json.loads(lines[-1][len(TRACE_PREFIX):]))
                child.wall_ns = wall
                self.totals.merge(child)
        return proc.returncode == 0, stdout


def timed_call(cmd) -> float:
    """Wall time of a short command.  No timeout: with one, the wait polls
    with sleeps of up to 50 ms and the time comes out quantized."""
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def reference_ms() -> float:
    """Best of three timings of a fixed pure-Python loop, in ms: the speed the
    host gives this process right now."""
    best = None
    for _ in range(3):
        t0 = time.perf_counter_ns()
        acc, table, items = 0, {}, []
        for i in range(2000):
            acc = (acc * 31 + i) % 1000003
            table[i & 127] = (acc, i)
            items.append(acc ^ i)
        items.sort()
        total = Fraction(0)
        for i in range(1, 60):
            total += Fraction(1, i)
        elapsed = (time.perf_counter_ns() - t0) / 1e6
        best = elapsed if best is None else min(best, elapsed)
    return best


class Speed:
    """Scales times to the reference speed (REFERENCE_MS per reference loop).

    The loop is timed before and after each stretch of measured work, and
    the work's times are multiplied by REFERENCE_MS over the mean of the two.
    """

    def __init__(self):
        self.last = reference_ms()

    def factor(self) -> float:
        now = reference_ms()
        factor = REFERENCE_MS / ((self.last + now) / 2)
        self.last = now
        return factor


class Phase:
    """A closed-loop timed phase: requests back to back until ``seconds`` of
    measured time have passed, then to the end of the current pass.  Checking
    and speed calibration are excluded from it; calibration runs after every
    SEGMENT_S of measured time."""

    def __init__(self):
        self.latencies_ns = []      # scaled to the reference speed
        self.failed = 0
        self.measured_ns = 0        # as measured
        self.scaled_ns = 0          # scaled to the reference speed
        self.stdout_bytes = 0
        self.classnum_requests = 0
        self.errors = []

    def run(self, runner, passes, seconds: float, verified: dict, tracer=None) -> "Phase":
        budget = int(seconds * 1e9)
        wall_limit = time.perf_counter_ns() + int((3 * seconds + 30) * 1e9)
        speed = Speed()
        segment, segment_ns = [], 0
        while self.measured_ns + segment_ns < budget and time.perf_counter_ns() < wall_limit:
            for key, kind, payload in next(passes):
                if segment_ns >= SEGMENT_S * 1e9:
                    self._scale(segment, segment_ns, speed.factor())
                    segment, segment_ns = [], 0
                latency, measured, ok, output = self._request(runner, kind, payload, tracer)
                segment.append(latency)
                segment_ns += measured
                self._check(key, kind, payload, ok, output, verified)
        self._scale(segment, segment_ns, speed.factor())
        return self

    def _request(self, runner, kind, payload, tracer):
        """Run one request: (latency, measured time incl. tracing, ok, stdout)."""
        clock = time.perf_counter_ns
        start = clock()
        if tracer:
            tracer.begin()
        t0 = clock()
        ok, output = runner.run(kind, payload)
        t1 = clock()
        if tracer:
            tracer.end(t1 - t0)
        self.stdout_bytes += len(output.encode()) if ok and kind == "cli" else 0
        self.classnum_requests += kind == "cli" and payload[0] == "classnum"
        return t1 - t0, clock() - start, ok, output

    def _check(self, key, kind, payload, ok, output, verified):
        if not ok:
            self._fail(payload, output)
        elif key is not None and key in verified:
            if verified[key] != output:
                self._fail(payload, "output differs from the verified first answer")
        else:
            try:
                checks.check(kind, payload, output)
            except checks.CheckError as exc:
                self._fail(payload, str(exc))
            else:
                if key is not None:
                    verified[key] = output

    def _scale(self, segment, segment_ns, factor):
        self.latencies_ns += [x * factor for x in segment]
        self.measured_ns += segment_ns
        self.scaled_ns += segment_ns * factor

    def _fail(self, payload, reason):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{payload}: {reason}")

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    def throughput(self) -> float:
        return (self.attempted - self.failed) / (self.scaled_ns / 1e9)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def setup(workload: str, seed: int):
    """Import the program afresh, generate the inputs and warm up."""
    if workload == "cli_cold":
        timed_call([sys.executable, "-S", "-c", "import hilbertmod.cli"])
        return Cold(), workloads.passes(workload, seed)
    for name in [m for m in sys.modules if m == "hilbertmod" or m.startswith("hilbertmod.")]:
        del sys.modules[name]
    importlib.import_module("hilbertmod.cli")
    runner = InProcess()
    passes = workloads.passes(workload, seed)
    for argv in workloads.README_EXAMPLES:
        ok, out = runner.run("cli", argv)
        if not ok:
            raise SystemExit(f"warm-up request {argv} failed: {out}")
    return runner, passes


def median_setup(workload: str, seed: int):
    times, speed = [], Speed()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        runner, passes = setup(workload, seed)
        times.append((time.perf_counter() - t0) * speed.factor())
    return statistics.median(times), runner, passes


# ---------------------------------------------------------------------------
# Metrics and report
# ---------------------------------------------------------------------------

def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.exists():
                return path.read_text().strip()
            packed = (ROOT / ".git" / "packed-refs").read_text().split("\n")
            return next(line.split()[0] for line in packed if line.endswith(" " + ref[5:]))
        return ref
    except (OSError, StopIteration):
        return "unknown"


def startup_metrics(child_cpu_ms: float) -> dict:
    bare = [timed_call([sys.executable, "-S", "-c", "pass"]) for _ in range(STARTUP_SAMPLES)]
    imp = [timed_call([sys.executable, "-S", "-c", "import hilbertmod.cli"])
           for _ in range(STARTUP_SAMPLES)]
    interpreter = statistics.median(bare) * 1e3
    return {"startup.interpreter_ms": interpreter,
            "startup.import_ms": statistics.median(imp) * 1e3 - interpreter,
            "startup.child_cpu_ms": child_cpu_ms}


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that the speed
    calibration measures the CPU the requests run on (best effort)."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run(workload: str, seed: int, seconds: float, trace: bool):
    checks.local_counts(2, 2)  # import the oracles before set-up is timed
    setup_s, runner, passes = median_setup(workload, seed)
    verified = {}
    cold = workload == "cli_cold"
    cpu0 = children_cpu_s()
    plain = Phase().run(runner, passes, seconds / 2 if trace else seconds, verified)
    child_cpu_ms = (children_cpu_s() - cpu0) * 1e3 / plain.attempted
    phases = [plain]
    if trace:
        if cold:
            traced_runner, tracer = Cold(traced=True), None
        else:
            traced_runner, tracer = runner, Tracer()
            tracer.install()
        try:
            traced = Phase().run(traced_runner, passes, seconds / 2, verified, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        phases.append(traced)
        totals = traced_runner.totals if cold else tracer.totals
        metrics = layer_metrics(totals, traced.classnum_requests, traced.stdout_bytes,
                                traced.scaled_ns / traced.measured_ns)
        metrics.update(startup_metrics(child_cpu_ms) if cold else
                       {"startup.interpreter_ms": 0.0, "startup.import_ms": 0.0,
                        "startup.child_cpu_ms": 0.0})
        metrics["trace.overhead_ratio"] = traced.throughput() / plain.throughput()
        units = dict(PER_LAYER)
    else:
        lat_ms = [x / 1e6 for x in plain.latencies_ns]
        metrics = {"throughput_rps": plain.throughput(),
                   "latency_ms.p50": statistics.median(lat_ms),
                   "latency_ms.p90": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
                   "setup_s": setup_s,
                   "peak_rss_mb": peak_rss_mb(workload)}
        units = {n: u for n, u, _, _ in END_TO_END}
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    report(workload, seed, seconds, trace, metrics, units, phases, setup_s, attempted, failed)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}


def report(workload, seed, seconds, trace, metrics, units, phases, setup_s, attempted, failed):
    err = sys.stderr
    print(f"perfbench {workload} seed={seed} seconds={seconds} trace={int(trace)}", file=err)
    print(f"  python {sys.version.split()[0]}, commit {git_commit()}, nproc {os.cpu_count()}, "
          f"closed loop, 1 client", file=err)
    print(f"  attempted {attempted}, failed {failed}, failed_ratio {failed / attempted:.4g}, "
          f"latency samples {phases[0].attempted}, setup_s {setup_s:.4f}", file=err)
    for phase in phases:
        print(f"  phase: {phase.measured_ns / 1e9:.2f} s measured, host speed factor "
              f"{phase.scaled_ns / phase.measured_ns:.4f}, unscaled throughput "
              f"{phase.attempted / (phase.measured_ns / 1e9):.4g}/s", file=err)
    for name, value in metrics.items():
        note = "  (computed from arguments)" if name in COMPUTED else ""
        print(f"  {name:<45} {value:>14.6g} {units[name]}{note}", file=err)
    for phase in phases:
        for line in phase.errors:
            print(f"  FAILED {line}", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    missing = [p for p in (SRC / "hilbertmod" / "cli.py", ROOT / "tests" / "oracles.py")
               if not p.is_file()]
    if missing:
        print(f"error: run from a hilbertmod checkout; missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
