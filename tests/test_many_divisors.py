"""The F_p coset counts against Burnside's lemma, and on orders with many
divisors.

The orders are the 10^4 orders n <= 10^7 whose prime factors are all at
most 31 that have the most divisors in the prime-to-p parts of n, summed
over the primes p | n.  Their ``--classes`` spec is 99,082 bytes, one
argument that a shell can pass; to print it:

    PYTHONPATH=src:tests python -c 'import test_many_divisors as t; print(t.many_divisor_spec())'

The ledger of tests/test_caps.py runs ``ranks --classes`` on this spec at
10^4 degrees as a cold process, within 5 s, and checks its q = -1 value;
``test_ranks_q_minus_1_on_many_divisors_in_bounded_time`` runs the q = -1
row alone through ``main`` in process.
"""

import json
import random
import time
from functools import cache
from math import prod

from hilbertmod.cli import EXIT_OK, main
from hilbertmod.cyclicreps import rep_counts

from oracles import rp_burnside

SMOOTH_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@cache
def many_divisor_orders() -> tuple[int, ...]:
    """The 10^4 orders n <= 10^7 with every prime factor at most 31 with the
    largest sum over p | n of d(n / p^a), ties to the smaller n, ascending."""
    factored = [(1, {})]  # (n, {p: a}) for every such n <= 10^7
    for p in SMOOTH_PRIMES:
        grown = []
        for n, factors in factored:
            a = 0
            while n * p**a <= 10**7:
                grown.append((n * p**a, {**factors, p: a} if a else factors))
                a += 1
        factored = grown

    def most_divisors_first(item):
        n, factors = item
        return -sum(prod(b + 1 for q, b in factors.items() if q != p) for p in factors), n

    return tuple(sorted(n for n, _ in sorted(factored, key=most_divisors_first)[:10**4]))


def many_divisor_spec() -> str:
    return ",".join(f"{n}:1" for n in many_divisor_orders())


def test_the_spec_is_one_shell_argument():
    spec = many_divisor_spec()
    orders = many_divisor_orders()
    assert (len(orders), orders[0], orders[-1]) == (10**4, 60060, 9999360)
    assert len(spec) == 99082 < 128 * 1024  # Linux caps each argv string at 128 KiB


def test_ranks_q_minus_1_on_many_divisors_in_bounded_time(capsys):
    spec = many_divisor_spec()
    start = time.monotonic()
    code = main(["ranks", "--classes", spec, "--q=-1", "--json"])
    elapsed = time.monotonic() - start
    captured = capsys.readouterr()
    assert code == EXIT_OK, captured.err
    assert elapsed < 5.0, elapsed
    assert [row["value"] for row in json.loads(captured.out)["result"]["rows"]] == [169532890]


def test_local_counts_against_burnside():
    # Burnside's fixed-point mean shares no divisor list, phi or order
    # descent with the coset kernel that all three rank routes read.
    sample = random.Random(21).sample(many_divisor_orders(), 100)
    for n in [*range(1, 501), *sample]:
        for p, k_p, r_p in rep_counts(n).local:
            a = next(a for a in range(1, n + 1) if n % p**a) - 1  # p^a exactly divides n
            cosets = rp_burnside(n, p)
            assert (k_p, r_p) == ((a + 1) * cosets, cosets), (n, p)
