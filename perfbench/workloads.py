"""Seeded request generators for the four benchmark workloads.

A request is ``(key, kind, payload)``:

* ``kind == "cli"``: ``payload`` is an argv list for ``hilbertmod.cli.main``
  (in-process) or ``python -m hilbertmod.cli`` (``cli_cold``);
* ``kind in ("case_table", "e1")``: a library-only rank route over
  ``payload = (d, classes, qs)``; ``d`` is None for generic class data and
  ``classes`` is None for the built-in d = 5 table.

Requests come in passes (see :func:`passes`); a timed phase ends only at
the end of a pass, so every request of a list is measured equally often.
``key`` identifies a request that repeats: the checker verifies its first
output and compares later ones byte for byte.  ``census_sweep`` never
repeats a field, so its key is None and every output is checked.

Only valid inputs are generated: class orders are drawn from the allowed
orders {2, 3} + {4 if d = 2} + {5 if d = 5} + {6 if d = 3}, and degree lists
are passed as ``--q=...`` because argparse reads ``--q -1,2`` as an option.
"""

from __future__ import annotations

import itertools
import math
import random

WORKLOADS = {
    "census_sweep": "distinct square-free d per request triple, so only a cheaper trace census helps",
    "degree_table": "a few recurring fields asking hundreds of degrees; rank tables and shared census dominate",
    "heavy_inputs": "reps, classnum, chains and large-order ranks; orbit walk, subset and form scans dominate",
    "cli_cold": "the ten README CLI examples as fresh processes; interpreter start and import count",
}

# The ten README examples, verbatim.
README_EXAMPLES = [
    ["field", "5"],
    ["field", "5", "--approx"],
    ["ranks", "5", "--q", "5,7,1,0,-1"],
    ["ranks", "--classes", "2:2,3:2,5:2", "--q", "7"],
    ["whitehead", "5", "--mode", "psl", "--q", "1"],
    ["whitehead", "5", "--mode", "sl", "--q", "1"],
    ["whitehead", "--classes", "2:1,3:1", "--mode", "sl", "--q", "1", "--ab", "Z/6"],
    ["reps", "5"],
    ["classnum", "-23"],
    ["chains", "--poset", "sl", "--m", "6", "--p", "2"],
]


def is_square_free(n: int) -> bool:
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 1
    return True


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def allowed_orders(d: int) -> list[int]:
    """Finite orders in PSL2 of the integers of Q(sqrt(d)), by closed form."""
    return sorted({2, 3} | ({4} if d == 2 else set()) | ({5} if d == 5 else set())
                  | ({6} if d == 3 else set()))


def q_arg(qs) -> str:
    return "--q=" + ",".join(str(q) for q in qs)


def _classes(rng: random.Random, orders, max_count: int) -> str:
    chosen = sorted(rng.sample(orders, rng.randint(1, len(orders))))
    return ",".join(f"{n}:{rng.randint(1, max_count)}" for n in chosen)


def _log_point(rng: random.Random, lo: float, hi: float, i: int, k: int, jitter: float) -> float:
    """A point in stratum i of k equal log-width strata of [lo, hi]."""
    pos = (i + 0.5 + jitter * (rng.random() - 0.5)) / k
    return math.exp(math.log(lo) + pos * (math.log(hi) - math.log(lo)))


def _cycle(rng: random.Random, requests):
    """Endless passes over a fixed request list, reshuffled every pass."""
    order = list(requests)
    while True:
        rng.shuffle(order)
        yield list(order)


# ---------------------------------------------------------------------------
# census_sweep
# ---------------------------------------------------------------------------

def _field_stream(rng: random.Random):
    """Distinct square-free d, log-uniform on [2, 10^6], starting 2, 3, 5."""
    seen = set()
    first = [2, 3, 5]
    while True:
        if first:
            d = first.pop(0)
        else:
            d = round(math.exp(rng.uniform(math.log(2), math.log(10**6))))
            if d in seen or not is_square_free(d):
                continue
        seen.add(d)
        yield d


def census_sweep(rng: random.Random):
    for d in _field_stream(rng):
        orders = allowed_orders(d)
        qs = rng.sample(range(-3, 41), 4)
        ranks = ["ranks", str(d), "--classes", _classes(rng, orders, 3), q_arg(qs), "--json"]
        mode = rng.choice(["psl", "sl"])
        q = rng.choice([-1, 0, 1])
        whitehead = ["whitehead", str(d), "--classes", _classes(rng, orders, 3),
                     "--mode", mode, "--q", str(q), "--json"]
        if mode == "sl" and q == 1:
            whitehead += ["--ab", rng.choice(["0", "Z/2", "Z/6", "Z + Z/3"])]
        yield [(None, "cli", ["field", str(d), "--json"]), (None, "cli", ranks),
               (None, "cli", whitehead)]


# ---------------------------------------------------------------------------
# degree_table
# ---------------------------------------------------------------------------

DEGREES_PER_REQUEST = 240


def degree_table_list(rng: random.Random) -> list:
    sources = [(5, None), (2, _classes(rng, allowed_orders(2), 4)),
               (3, _classes(rng, allowed_orders(3), 4)),
               (13, _classes(rng, allowed_orders(13), 4)), (None, "2:1,3:1")]
    requests = []
    for d, classes in sources:
        first = rng.randint(-12, -1)
        qs = [first] + rng.sample([q for q in range(-12, 2000) if q != first],
                                  DEGREES_PER_REQUEST - 1)
        argv = ["ranks"] + ([str(d)] if d is not None else [])
        argv += (["--classes", classes] if classes is not None else []) + [q_arg(qs), "--json"]
        requests.append(("cli", argv))
        requests.append(("case_table", (d, classes, qs)))
        requests.append(("e1", (d, classes, qs)))
    for mode, qs in (("psl", (-2, -1, 0, 1)), ("sl", (-1, 0, 1))):
        for q in qs:
            requests.append(("cli", ["whitehead", "5", "--mode", mode, "--q", str(q), "--json"]))
    return [(i, kind, payload) for i, (kind, payload) in enumerate(requests)]


def degree_table(rng: random.Random):
    return _cycle(rng, degree_table_list(rng))


# ---------------------------------------------------------------------------
# heavy_inputs
# ---------------------------------------------------------------------------

def _next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def _fundamental_discriminant_below(n: int) -> int:
    """The first fundamental discriminant D <= -n (D = 1 mod 4 square-free
    or D = 4m, m = 2, 3 mod 4 square-free)."""
    D = -n
    while True:
        k = -D
        if D % 4 == 1 and is_square_free(k):
            return D
        if D % 4 == 0 and (k // 4) % 4 in (1, 2) and is_square_free(k // 4):
            return D
        D -= 1


def _smooth(lo: int, hi: int, primes=(2, 3, 5, 7)) -> list[int]:
    """Numbers in [lo, hi] made of at least two of the given primes."""
    out = [1]
    for p in primes:
        out = [x * p**k for x in out for k in range(30) if x * p**k <= hi]
    return sorted(x for x in out if lo <= x and sum(x % p == 0 for p in primes) >= 2)


def _rungs(pool, k: int, size=lambda x: x) -> list:
    """k members of a pool sorted by size, at evenly spaced log-size positions."""
    logs = [math.log(size(x)) for x in pool]
    targets = [logs[0] + (logs[-1] - logs[0]) * (i + 0.5) / k for i in range(k)]
    return [pool[min(range(len(pool)), key=lambda j: abs(logs[j] - t))] for t in targets]


PRIME_POWERS = sorted(p**k for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
                      for k in range(2, 17) if 1000 <= p**k <= 50000)
SMOOTH = _smooth(1000, 50000)
CHAIN_CASES = sorted(((math.comb(m + (2 if poset == "sl" else 1), p + 1), poset, m, p)
                      for poset in ("psl", "sl") for m in range(6, 19)
                      for p in range(0, m // 2 + 1)))


HEAVY_RUNGS = 16


def heavy_inputs_list(rng: random.Random) -> list:
    """Sizes sit on fixed rungs, so every seed gets the same spread of costs;
    the seed picks the primes and discriminants near each rung, the class
    counts, the degree order and the request order.  Many rungs keep the
    costs dense, so no percentile sits in a wide gap between two requests."""
    k = HEAVY_RUNGS
    primes = [_next_prime(round(_log_point(rng, 1000, 50000, i, k, 0.1))) for i in range(k)]
    powers = _rungs(PRIME_POWERS, k)
    smooth = _rungs(SMOOTH, k)
    argvs = [["reps", str(n)] for n in primes + powers + smooth]
    for i in range(k):
        D = _fundamental_discriminant_below(round(_log_point(rng, 10**5, 10**7, i, k, 0.05)))
        argvs.append(["classnum", str(D)])
    for poset in ("psl", "sl"):
        for _, _, m, p in _rungs([c for c in CHAIN_CASES if c[1] == poset], k, lambda c: c[0]):
            argvs.append(["chains", "--poset", poset, "--m", str(m), "--p", str(p)])
    for group in zip(primes, powers, reversed(smooth)):
        classes = ",".join(f"{n}:{rng.randint(1, 3)}" for n in sorted(set(group)))
        argvs.append(["ranks", "--classes", classes, q_arg(rng.choice([(-1, 1), (1, -1)]))])
    return [(i, "cli", argv + ["--json"]) for i, argv in enumerate(argvs)]


def heavy_inputs(rng: random.Random):
    return _cycle(rng, heavy_inputs_list(rng))


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

def cli_cold(rng: random.Random):
    return _cycle(rng, [(i, "cli", argv) for i, argv in enumerate(README_EXAMPLES)])


GENERATORS = {
    "census_sweep": census_sweep,
    "degree_table": degree_table,
    "heavy_inputs": heavy_inputs,
    "cli_cold": cli_cold,
}


def passes(workload: str, seed: int):
    """The endless, deterministic stream of request passes of a workload: a
    shuffled round of its request list, or one field's three requests."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def take(workload: str, seed: int, n: int) -> list:
    """The first n requests."""
    return list(itertools.islice(itertools.chain.from_iterable(passes(workload, seed)), n))
