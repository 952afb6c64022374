"""Output checks by routes independent of the code that produced the output.

* ``field``: allowed orders must be {2, 3} + {4 if d = 2} + {5 if d = 5}
  + {6 if d = 3}, and the candidates' orders must be exactly that set.
* ``ranks`` and the library routes: the direct formula, the case table and
  the E1 column subtraction must agree (each output is checked against the
  two routes that did not produce it).
* ``whitehead``: the expression rebuilt from the representation counts
  (closed forms and the divisor-sum oracles in ``tests/oracles.py``) and
  the documented torsion facts (SK1 vanishes for n <= 6, Wh0 for n <= 4).
* ``reps``: closed forms for r, c, q and the divisor-sum oracles
  ``kp_formula`` / ``rp_formula`` for the local counts.
* ``chains``: closed forms (psl: m+1, m, then 0; sl: m+2, 2m+1, m, then 0).
* ``classnum``: every form reduced, primitive, distinct, of discriminant D;
  h(D) equal to Dirichlet's class number formula for fundamental D.

In-process requests use ``--json``; ``cli_cold`` runs the README examples
as written, so their human output is parsed into the same shape first.
Every check raises :class:`CheckError` with the reason.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

from workloads import allowed_orders

ROOT = Path(__file__).resolve().parent.parent


class CheckError(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _oracles():
    if str(ROOT / "tests") not in sys.path:
        sys.path.append(str(ROOT / "tests"))
    import oracles
    return oracles


# ---------------------------------------------------------------------------
# Arithmetic helpers (independent of hilbertmod)
# ---------------------------------------------------------------------------

def factorize(n: int) -> Counter:
    out, f = Counter(), 2
    while f * f <= n:
        while n % f == 0:
            out[f] += 1
            n //= f
        f += 1
    if n > 1:
        out[n] += 1
    return out


def divisor_count(n: int) -> int:
    return math.prod(e + 1 for e in factorize(n).values())


@lru_cache(maxsize=4096)
def local_counts(n: int, p: int) -> tuple[int, int]:
    oracles = _oracles()
    return oracles.kp_formula(n, p), oracles.rp_formula(n, p)


def rank_k_minus1(n: int) -> int:
    """rank K_{-1}(Z[Z_n]) = 1 - q(n) + sum_p (k_p - r_p)."""
    return 1 - divisor_count(n) + sum(kp - rp for kp, rp in
                                      (local_counts(n, p) for p in factorize(n)))


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for n >= 1."""
    result = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_fundamental(D: int) -> bool:
    if D % 4 == 1:
        return all(e == 1 for e in factorize(-D).values())
    if D % 16 in (8, 12):
        return all(e == 1 for e in factorize(-D // 4).values())
    return False


def dirichlet_class_number(D: int) -> float:
    """h(D) for fundamental D < 0 by Dirichlet's formula h = w sqrt|D| L(1, chi)
    / (2 pi), with L(1, chi) summed in its exponentially convergent form:
    h = (w/2) sum_n chi(n) [erfc(n sqrt(pi/|D|)) + sqrt|D|/(pi n) exp(-pi n^2/|D|)].
    """
    N = -D
    w = {3: 6, 4: 4}.get(N, 2)
    total = 0.0
    for n in range(1, 6 * math.isqrt(N) + 10):
        chi = kronecker(D, n)
        if chi:
            x = math.pi * n * n / N
            total += chi * (math.erfc(math.sqrt(x)) + math.sqrt(N) / (math.pi * n) * math.exp(-x))
    return w / 2 * total


# ---------------------------------------------------------------------------
# Rank routes (the program's own three, compared against each other)
# ---------------------------------------------------------------------------

BUILTIN_D5 = "2:2,3:2,5:2"


def _counts(classes):
    from hilbertmod.assembler import ClassCounts
    return ClassCounts.parse(classes or BUILTIN_D5)


def rank_routes(classes, qs, route: str) -> list[int]:
    """Rank differences by one route: "direct", "case_table" or "e1"."""
    from hilbertmod.assembler import GroupData, Mode, rank_diff, rank_diff_from_case_table
    from hilbertmod.pchain import build_E1, psl_poset, rank_E1_column
    counts = _counts(classes)
    if route == "e1":
        page = build_E1(psl_poset(counts), relative_to_trivial=False, class_counts=counts)
        return [rank_E1_column(page, 0, q) - rank_E1_column(page, 1, q) for q in qs]
    g = GroupData(source="check", class_counts=counts, mode=Mode.PSL)
    fn = rank_diff if route == "direct" else rank_diff_from_case_table
    return [fn(g, q) for q in qs]


def check_rank_values(classes, qs, values, produced_by: str) -> None:
    expect(len(values) == len(qs), f"{len(values)} values for {len(qs)} degrees")
    for route in ("direct", "case_table", "e1"):
        if route != produced_by:
            other = rank_routes(classes, qs, route)
            bad = [q for q, a, b in zip(qs, values, other) if a != b]
            expect(not bad, f"{produced_by} disagrees with {route} at q={bad[:5]}")


def _case(q: int) -> str:
    if q > 2 and q % 2:
        return "q>2, q=1 mod 4" if q % 4 == 1 else "q>2, q=3 mod 4"
    return {1: "q=1", 0: "q=0", -1: "q=-1"}.get(q, "otherwise")


# ---------------------------------------------------------------------------
# Whitehead expressions rebuilt from representation counts
# ---------------------------------------------------------------------------

def _wh_cyclic(n: int, q: int):
    """(free rank, symbolic tokens) of Wh_q(Z_n) for q <= 1."""
    if q == 1:
        r = (n + math.gcd(n, 2)) // 2
        return r - divisor_count(n), Counter({f"SK1(Z_{n})": 1} if n > 6 else {})
    if q == 0:
        return 0, Counter({f"Wh0(Z_{n})": 1} if n > 4 else {})
    if q == -1:
        return rank_k_minus1(n), Counter({f"K-1tors(Z_{n})": 1})
    return 0, Counter()


def parse_ab(text: str):
    """(free rank, torsion) of an input such as "Z + Z/3" or "0"."""
    free, torsion = 0, []
    if text.strip() != "0":
        for term in text.split("+"):
            term = term.strip()
            mult, _, term = term.rpartition("*")
            mult = int(mult) if mult else 1
            if term == "Z":
                free += mult
            elif term.startswith("Z^"):
                free += mult * int(term[2:])
            else:
                torsion += [int(term[2:])] * mult
    return free, torsion


def render(free: int, torsion, symbolic: Counter) -> str:
    parts = [] if free == 0 else ["Z" if free == 1 else f"Z^{free}"]
    for order, mult in sorted(Counter(torsion).items()):
        parts.append(f"Z/{order}" if mult == 1 else f"{mult}*Z/{order}")
    for token, mult in sorted(symbolic.items()):
        parts.append(token if mult == 1 else f"{mult}*{token}")
    return " + ".join(parts) or "0"


def expected_whitehead(classes: str, mode: str, q: int, ab: str | None):
    free, torsion, symbolic = 0, [], Counter()
    for n, count in _counts(classes).entries:
        f, s = _wh_cyclic(n, q)
        free += count * f
        for token, mult in s.items():
            symbolic[token] += count * mult
    if mode == "sl" and q == 1:
        ab_free, ab_torsion = parse_ab(ab)
        free += ab_free
        torsion += ab_torsion + [2]
    elif mode == "sl" and q == 0:
        free += 1
    return free, sorted(torsion), symbolic


# ---------------------------------------------------------------------------
# Request checks
# ---------------------------------------------------------------------------

def _opt(argv, name):
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg.split("=", 1)[1]
    return None


def _positional(argv):
    return argv[1] if len(argv) > 1 and not argv[1].startswith("--") else None


def check_field(argv, res):
    d = int(argv[1])
    want = allowed_orders(d)
    expect(res["d"] == d, f"field echoes d={res['d']}, asked {d}")
    expect(res["allowed_orders"] == want, f"d={d}: orders {res['allowed_orders']} != {want}")
    expect(sorted(set(res["candidate_orders"])) == want,
           f"d={d}: candidate orders {sorted(set(res['candidate_orders']))} != {want}")


def check_ranks(argv, res):
    classes = _opt(argv, "--classes")
    qs = [int(x) for x in _opt(argv, "--q").split(",") if x.strip()]
    counts = _counts(classes)
    expect(res["class_counts"] == dict(counts.entries), f"class counts {res['class_counts']}")
    expect([row[0] for row in res["rows"]] == qs, "rows do not follow the requested degrees")
    expect(all(row[2] == _case(row[0]) for row in res["rows"]), "wrong rank-table case label")
    check_rank_values(classes, qs, [row[1] for row in res["rows"]], "direct")


def check_whitehead(argv, res):
    classes = _opt(argv, "--classes")
    if classes is None and _positional(argv) != "5":
        raise CheckError("no class data to check against")
    mode, q = _opt(argv, "--mode") or "psl", int(_opt(argv, "--q"))
    ab = _opt(argv, "--ab") or "0"  # d = 5 is perfect (built-in fact)
    free, torsion, symbolic = expected_whitehead(classes, mode, q, ab)
    want = render(free, torsion, symbolic)
    expect(res["render"] == want, f"whitehead {res['render']!r} != {want!r}")
    if "free_rank" in res:
        got_sym = Counter({s["token"]: s["multiplicity"] for s in res["symbolic"]})
        expect((res["free_rank"], res["torsion"], got_sym) == (free, torsion, symbolic),
               "whitehead structure disagrees with its rendering")


def check_reps(argv, res):
    n = int(argv[1])
    expect(res["n"] == n, "reps echoes another n")
    g = math.gcd(n, 2)
    expect((res["r"], res["c"], res["q"]) == ((n + g) // 2, (n - g) // 2, divisor_count(n)),
           f"reps {n}: r, c, q = {res['r']}, {res['c']}, {res['q']}")
    want = {p: local_counts(n, p) for p in sorted(factorize(n))}
    expect(res["local"] == want, f"reps {n}: local {res['local']} != {want}")


def check_chains(argv, res):
    poset, m, p = _opt(argv, "--poset"), int(_opt(argv, "--m")), int(_opt(argv, "--p"))
    table = [m + 1, m] if poset == "psl" else [m + 2, 2 * m + 1, m]
    want = table[p] if p < len(table) else 0
    expect(res["count"] == want == len(res["chains"]), f"{poset} m={m} p={p}: {res['count']} != {want}")
    expect(all(len(c) == p + 1 for c in res["chains"]), "chain of the wrong length")
    expect(len({tuple(c) for c in res["chains"]}) == want, "repeated chain")


def check_classnum(argv, res):
    D = int(argv[1])
    forms = [tuple(f) for f in res["forms"]]
    expect(res["D"] == D and res["h"] == len(forms), "class number is not the form count")
    expect(len(set(forms)) == len(forms), "repeated form")
    for a, b, c in forms:
        expect(b * b - 4 * a * c == D, f"({a}, {b}, {c}) has discriminant {b * b - 4 * a * c}")
        expect(abs(b) <= a <= c and not (b < 0 and (abs(b) == a or a == c)),
               f"({a}, {b}, {c}) is not reduced")
        expect(math.gcd(math.gcd(a, b), c) == 1, f"({a}, {b}, {c}) is not primitive")
    if is_fundamental(D):
        h = dirichlet_class_number(D)
        expect(abs(h - len(forms)) < 0.01, f"h({D}) = {len(forms)}, Dirichlet gives {h:.3f}")


CHECKS = {"field": check_field, "ranks": check_ranks, "whitehead": check_whitehead,
          "reps": check_reps, "chains": check_chains, "classnum": check_classnum}


# ---------------------------------------------------------------------------
# Output normalization
# ---------------------------------------------------------------------------

def from_json(command: str, text: str) -> dict:
    envelope = json.loads(text)
    expect(json.dumps(envelope, sort_keys=True, indent=2, ensure_ascii=True) + "\n" == text,
           "JSON output is not canonical")
    expect(envelope["schema_version"] == "1" and envelope["command"] == command,
           "bad JSON envelope")
    r = envelope["result"]
    if command == "field":
        return {"d": r["d"], "allowed_orders": r["allowed_orders"],
                "candidate_orders": [c["psl_order"] for c in r["trace_candidates"]]}
    if command == "ranks":
        return {"class_counts": {int(n): c for n, c in r["class_counts"].items()},
                "rows": [(row["q"], row["value"], row["case"]) for row in r["rows"]]}
    if command == "whitehead":
        return r["whitehead"]
    if command == "reps":
        return {"n": r["n"], "r": r["r"], "c": r["c"], "q": r["q"],
                "local": {int(p): (v["k_p"], v["r_p"]) for p, v in r["local"].items()}}
    if command == "classnum":
        return {"D": r["D"], "h": r["class_number"], "forms": r["reduced_forms"]}
    return {"count": r["count"], "chains": r["chains"]}


def from_human(command: str, text: str) -> dict:
    lines = text.rstrip("\n").split("\n")
    if command == "field":
        return {"d": int(re.fullmatch(r"field Q\(sqrt\((\d+)\)\)", lines[0]).group(1)),
                "allowed_orders": [int(x) for x in lines[-1].split(": ")[1].split(", ")],
                "candidate_orders": [int(m.group(1)) for line in lines[3:-1]
                                     for m in [re.search(r" order (\d+)", line)]]}
    if command == "ranks":
        classes = re.search(r"conjugacy classes \((.*)\)$", lines[0]).group(1)
        rows = []
        for line in lines[1:]:
            m = re.fullmatch(r"q=(-?\d+)\s+(-?\d+)\s+\((.*)\)", line)
            rows.append((int(m.group(1)), int(m.group(2)), m.group(3)))
        counts = dict(tuple(int(x) for x in e.split(":")) for e in classes.split(", "))
        return {"class_counts": counts, "rows": rows}
    if command == "whitehead":
        return {"render": lines[0].split(": ", 1)[1]}
    if command == "reps":
        n, r, c, q = map(int, re.fullmatch(r"Z_(\d+): r=(\d+) c=(\d+) q=(\d+)", lines[0]).groups())
        local = {}
        for line in lines[1:]:
            p, kp, rp = map(int, re.fullmatch(r"\s+p=(\d+): k_p=(\d+) r_p=(\d+)", line).groups())
            local[p] = (kp, rp)
        return {"n": n, "r": r, "c": c, "q": q, "local": local}
    if command == "classnum":
        D, h = map(int, re.fullmatch(r"h\((-?\d+)\) = (\d+)", lines[0]).groups())
        forms = [tuple(map(int, f)) for f in
                 re.findall(r"\((-?\d+), (-?\d+), (-?\d+)\)", lines[1])]
        return {"D": D, "h": h, "forms": forms}
    count = int(re.search(r": (\d+) chains at p=", lines[0]).group(1))
    return {"count": count, "chains": [line.strip().split(" < ") for line in lines[1:]]}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def check(kind: str, payload, output: str) -> None:
    """Raise CheckError unless ``output`` is a correct answer to the request."""
    if kind in ("case_table", "e1"):
        _, classes, qs = payload
        check_rank_values(classes, qs, json.loads(output), kind)
        return
    command = payload[0]
    try:
        res = from_json(command, output) if "--json" in payload else from_human(command, output)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"unreadable {command} output: {exc!r}") from exc
    CHECKS[command](payload, res)
