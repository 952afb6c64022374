"""In-memory span tracing of hilbertmod's layers, installed from outside.

The program is not edited: :class:`Tracer` wraps each traced public
function and rebinds the wrapper at every import site, i.e. every
``hilbertmod`` module attribute and every function default argument that
holds the original (``cli`` and ``assembler`` import ``allowed_orders`` by
name, ``pchain.rank_E1_column`` binds ``rank_K_cyclic`` as a default).
``GroupData`` is a class, so its ``__init__`` is wrapped instead.

Spans live in memory per request: (request id, key, parent index, start
ns, end ns).
When a request ends they are folded into :class:`LayerTotals` (calls,
outermost busy time per key, self time per layer) and dropped, so memory
stays bounded however long the run is.  Counts that follow from a call's
arguments (subsets tested, form candidates, orbit elements) are recorded
by the wrapper and labelled as computed in the report.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from math import comb, isqrt

# span key -> (module, attribute); the layer is the key's first component.
TRACED = {
    "quadfield.elliptic_trace_candidates": ("hilbertmod.quadfield", "elliptic_trace_candidates"),
    "quadfield.allowed_orders": ("hilbertmod.quadfield", "allowed_orders"),
    "cyclicreps.rep_counts": ("hilbertmod.cyclicreps", "rep_counts"),
    "cyclicreps.kp_count": ("hilbertmod.cyclicreps", "kp_count"),
    "cyclicreps.rp_count": ("hilbertmod.cyclicreps", "rp_count"),
    "finitek.rank_K_cyclic": ("hilbertmod.finitek", "rank_K_cyclic"),
    "finitek.wh_cyclic": ("hilbertmod.finitek", "wh_cyclic"),
    "assembler.rank_diff": ("hilbertmod.assembler", "rank_diff"),
    "assembler.rank_diff_from_case_table": ("hilbertmod.assembler", "rank_diff_from_case_table"),
    "assembler.whitehead": ("hilbertmod.assembler", "whitehead_psl"),
    "assembler.whitehead.sl": ("hilbertmod.assembler", "whitehead_sl"),
    "pchain.enumerate_pchains": ("hilbertmod.pchain", "enumerate_pchains"),
    "pchain.build_E1": ("hilbertmod.pchain", "build_E1"),
    "pchain.rank_E1_column": ("hilbertmod.pchain", "rank_E1_column"),
    "classnumbers.reduced_forms": ("hilbertmod.classnumbers", "reduced_forms"),
    "cli.main": ("hilbertmod.cli", "main"),
    "cli.build_parser": ("hilbertmod.cli", "build_parser"),
    "cli.canonical_json": ("hilbertmod.cli", "canonical_json"),
}
# whitehead_sl calls whitehead_psl; both count as one metric.
METRIC_KEY = {"assembler.whitehead.sl": "assembler.whitehead"}
LAYERS = ("quadfield", "cyclicreps", "finitek", "assembler", "pchain", "classnumbers", "cli")


def _p_regular(n: int, p: int) -> int:
    while n % p == 0:
        n //= p
    return n


COUNTED = frozenset({"quadfield.elliptic_trace_candidates", "cyclicreps.kp_count",
                     "cyclicreps.rp_count", "pchain.enumerate_pchains",
                     "classnumbers.reduced_forms"})


def _count_args(key: str, args, kwargs, result, totals: "LayerTotals") -> None:
    """Counts derived from a call's arguments and result."""
    counts = totals.counts
    if key == "quadfield.elliptic_trace_candidates":
        totals.fields.add(args[0].d)
    elif key == "cyclicreps.kp_count":
        counts["orbit_elements"] += args[0]
    elif key == "cyclicreps.rp_count":
        counts["orbit_elements"] += _p_regular(args[0], args[1])
    elif key == "pchain.enumerate_pchains":
        poset = args[0]
        p = args[1] if len(args) > 1 else kwargs["p"]
        counts["subsets_tested"] += comb(len(poset), p + 1)
        counts["chains_emitted"] += len(result)
    elif key == "classnumbers.reduced_forms":
        a_bound = isqrt(-args[0] // 3)
        counts["candidates_tested"] += a_bound * (a_bound + 2)  # sum of 2a+1
        counts["forms_emitted"] += len(result)


class LayerTotals:
    """Per-layer sums over the requests of a traced phase (mergeable)."""

    def __init__(self):
        self.calls = Counter()      # metric key -> calls
        self.busy_ns = Counter()    # metric key -> outermost span time
        self.self_ns = Counter()    # metric key -> self time
        self.counts = Counter()     # derived counts (see _count_args)
        self.fields = set()         # distinct d given to the census
        self.requests = 0
        self.wall_ns = 0

    def fold(self, spans, wall_ns: int) -> None:
        """Add one request's spans; self time = duration - child durations."""
        child_ns = [0] * len(spans)
        for _, key, parent, t0, t1 in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        for i, (_, key, parent, t0, t1) in enumerate(spans):
            metric = METRIC_KEY.get(key, key)
            self.calls[metric] += 1
            self.self_ns[metric] += t1 - t0 - child_ns[i]
            ancestor = parent
            while ancestor >= 0 and METRIC_KEY.get(spans[ancestor][1], spans[ancestor][1]) != metric:
                ancestor = spans[ancestor][2]
            if ancestor < 0:
                self.busy_ns[metric] += t1 - t0
        self.requests += 1
        self.wall_ns += wall_ns

    def merge(self, other: "LayerTotals") -> None:
        for name in ("calls", "busy_ns", "self_ns", "counts"):
            getattr(self, name).update(getattr(other, name))
        self.fields |= other.fields
        self.requests += other.requests
        self.wall_ns += other.wall_ns

    def to_dict(self) -> dict:
        return {name: dict(getattr(self, name)) for name in ("calls", "busy_ns", "self_ns", "counts")} | {
            "fields": sorted(self.fields), "requests": self.requests, "wall_ns": self.wall_ns}

    @classmethod
    def from_dict(cls, data: dict) -> "LayerTotals":
        totals = cls()
        for name in ("calls", "busy_ns", "self_ns", "counts"):
            getattr(totals, name).update(data[name])
        totals.fields = set(data["fields"])
        totals.requests = data["requests"]
        totals.wall_ns = data["wall_ns"]
        return totals


class Tracer:
    """Wraps the traced functions while installed; records spans per request."""

    def __init__(self):
        self.totals = LayerTotals()
        self._spans = None          # list while a request is open
        self._stack = []
        self._request_id = 0
        self._undo = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "hilbertmod" or name.startswith("hilbertmod.")]
        replacement = {}  # id(original) -> (original, wrapper); values may be unhashable
        for key, (module_name, attr) in TRACED.items():
            original = getattr(sys.modules[module_name], attr)
            replacement[id(original)] = (original, self._wrap(key, original))

        def swap(value):
            hit = replacement.get(id(value))
            return hit[1] if hit and hit[0] is value else value

        for module in modules:
            for name, value in list(vars(module).items()):
                if swap(value) is not value:
                    self._set(module, name, swap(value))
                defaults = getattr(value, "__defaults__", None)
                if defaults and str(getattr(value, "__module__", "")).startswith("hilbertmod"):
                    new = tuple(map(swap, defaults))
                    if new != defaults:
                        self._set(value, "__defaults__", new)
        group_data = sys.modules["hilbertmod.assembler"].GroupData
        self._set(group_data, "__init__", self._wrap("assembler.GroupData", group_data.__init__))

    def uninstall(self) -> None:
        for target, name, old in reversed(self._undo):
            setattr(target, name, old)
        self._undo.clear()

    def _set(self, target, name, value) -> None:
        self._undo.append((target, name, getattr(target, name)))
        setattr(target, name, value)

    def _wrap(self, key, fn):
        counted = key in COUNTED
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self._spans
            if spans is None:
                return fn(*args, **kwargs)
            stack = self._stack
            record = [self._request_id, key, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if counted:
                _count_args(key, args, kwargs, result, self.totals)
            return result

        return wrapper

    # -- requests -------------------------------------------------------------

    def begin(self) -> None:
        self._request_id += 1
        self._spans = []
        self._stack = []

    def end(self, wall_ns: int) -> None:
        spans, self._spans = self._spans, None
        self.totals.fold(spans, wall_ns)


def layer_metrics(totals: LayerTotals, classnum_requests: int, stdout_bytes: int,
                  speed: float = 1.0) -> dict:
    """The per-layer metrics, per request where they are counts or times.
    Times are multiplied by ``speed``, the phase's factor to the reference speed."""
    req = max(totals.requests, 1)
    wall = max(totals.wall_ns, 1)
    calls, busy, self_ns, counts = totals.calls, totals.busy_ns, totals.self_ns, totals.counts

    def per_req(x):
        return x / req

    def ms_per_req(ns):
        return ns * speed / req / 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    layer_self = Counter()
    for key, ns in self_ns.items():
        layer_self[key.split(".")[0]] += ns
    out = {}
    for key in ("quadfield.elliptic_trace_candidates", "quadfield.allowed_orders",
                "cyclicreps.rep_counts", "cyclicreps.kp_count", "cyclicreps.rp_count",
                "finitek.rank_K_cyclic", "finitek.wh_cyclic",
                "assembler.GroupData", "assembler.rank_diff",
                "assembler.rank_diff_from_case_table", "assembler.whitehead",
                "pchain.enumerate_pchains", "classnumbers.reduced_forms"):
        out[key + ".calls"] = per_req(calls[key])
        out[key + ".busy_ms"] = ms_per_req(busy[key])
    orbit_ns = busy["cyclicreps.kp_count"] + busy["cyclicreps.rp_count"]
    out.update({
        "quadfield.census_per_field": ratio(calls["quadfield.elliptic_trace_candidates"],
                                             len(totals.fields)),
        "cyclicreps.orbit_elements": per_req(counts["orbit_elements"]),
        "cyclicreps.ns_per_orbit_element": ratio(orbit_ns * speed, counts["orbit_elements"]),
        "pchain.subsets_tested": per_req(counts["subsets_tested"]),
        "pchain.chains_emitted": per_req(counts["chains_emitted"]),
        "pchain.chain_yield": ratio(counts["chains_emitted"], counts["subsets_tested"]),
        "pchain.build_E1.busy_ms": ms_per_req(busy["pchain.build_E1"]),
        "pchain.rank_E1_column.busy_ms": ms_per_req(busy["pchain.rank_E1_column"]),
        "classnumbers.enumerations_per_request": ratio(calls["classnumbers.reduced_forms"],
                                                       classnum_requests),
        "classnumbers.candidates_tested": per_req(counts["candidates_tested"]),
        "classnumbers.form_yield": ratio(counts["forms_emitted"], counts["candidates_tested"]),
        "cli.main.self_ms": ms_per_req(self_ns["cli.main"]),
        "cli.build_parser.busy_ms": ms_per_req(busy["cli.build_parser"]),
        "cli.canonical_json.busy_ms": ms_per_req(busy["cli.canonical_json"]),
        "cli.stdout_bytes": stdout_bytes / req,
    })
    for layer in LAYERS:
        out[layer + ".self_share"] = layer_self[layer] / wall
    return out
