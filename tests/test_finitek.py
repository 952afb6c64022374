"""Rank tables for K_q(Z[Z_n]), homology ranks, and Whitehead data."""

import pytest

from hilbertmod.abgroups import AbGroupExpr
from hilbertmod.assembler import ClassCounts, GroupData, rank_diff, rank_diff_from_case_table
from hilbertmod.cyclicreps import q_count
from hilbertmod.finitek import (
    RankCase,
    rank_H_BM,
    rank_K_cyclic,
    rank_case,
    wh_cyclic,
)

from oracles import (
    complex_type_orbits,
    kp_formula,
    prime_divisors,
    rank_K_by_signatures,
    rational_irred_orbits,
    real_irred_orbits,
    rp_formula,
)


def test_case_labels():
    assert rank_case(5) is RankCase.Q1_MOD4
    assert rank_case(7) is RankCase.Q3_MOD4
    assert rank_case(1) is RankCase.Q_IS_1
    assert rank_case(0) is RankCase.Q_IS_0
    assert rank_case(-1) is RankCase.Q_IS_MINUS_1
    for q in (2, 4, 6, -2, -5):
        assert rank_case(q) is RankCase.ZERO


def test_rank_K_at_minus_one_matches_orbit_oracle():
    # 1 - q(n) + sum_p (k_p - r_p), recomputed through the divisor formulas.
    for n in range(1, 101):
        expected = 1 - q_count(n) + sum(
            kp_formula(n, p) - rp_formula(n, p) for p in prime_divisors(n)
        )
        assert rank_K_cyclic(n, -1) == expected, n
    # spot values: all orders occurring in real quadratic fields
    values = {n: rank_K_cyclic(n, -1) for n in (2, 3, 4, 5, 6)}
    assert values == {2: 0, 3: 0, 4: 0, 5: 0, 6: 1}


# Degrees on each row of the module docstring's table, large ones included.
DEGREES_BY_ROW = {
    RankCase.Q1_MOD4: (5, 9, 1997, 10**30 + 1),
    RankCase.Q3_MOD4: (3, 7, 1999, 10**30 + 3),
    RankCase.Q_IS_1: (1,),
    RankCase.Q_IS_0: (0,),
    RankCase.Q_IS_MINUS_1: (-1,),
    RankCase.ZERO: (2, 4, 6, 2000, 10**30, -2, -12, -(10**30)),
}


def _table_rows(r, c, q, local_sum):
    """rank K_q(Z[M]) per row of the docstring table, from the counts of M."""
    return {
        RankCase.Q1_MOD4: r,
        RankCase.Q3_MOD4: c,
        RankCase.Q_IS_1: r - q,
        RankCase.Q_IS_0: 1,
        RankCase.Q_IS_MINUS_1: 1 - q + local_sum,
        RankCase.ZERO: 0,
    }


def _oracle_rows(n):
    local_sum = sum(kp_formula(n, p) - rp_formula(n, p) for p in prime_divisors(n))
    return _table_rows(real_irred_orbits(n), complex_type_orbits(n),
                       rational_irred_orbits(n), local_sum)


# 9999991 is prime: r = (n + 1)/2, c = (n - 1)/2, two divisors, and
# Q_p(zeta_p) is one ramified orbit above the trivial one, so k_p - r_p = 2 - 1.
ROWS_BY_ORDER = {n: _oracle_rows(n) for n in range(2, 13)}
ROWS_BY_ORDER[9999991] = _table_rows(4999996, 4999995, 2, 1)


def test_rank_tables_match_the_docstring_table_row_by_row():
    assert set(DEGREES_BY_ROW) == set(RankCase)
    for n, rows in ROWS_BY_ORDER.items():
        for case, degrees in DEGREES_BY_ROW.items():
            h_rank = 1 if case in (RankCase.Q_IS_0, RankCase.Q1_MOD4) else 0
            for q in degrees:
                assert rank_case(q) is case, q
                assert rank_K_cyclic(n, q) == rows[case], (n, q)
                assert rank_H_BM(n, q) == h_rank, (n, q)


def test_every_route_matches_the_ranks_derived_from_signatures():
    # the rank table is transcribed; this derives it (Borel, Dirichlet, Swan,
    # Carter) from the signatures of the Wedderburn components, H at n = 1.
    # q = -1 needs the local counts, which the orbit oracles check.  The
    # sweep also carries the spot values: Wh(Z_5) of rank 1, K_5(Z) of
    # rank 1, r(Z_5) and c(Z_5), the trivial group's row, the zero rows
    # down to q = -12, the q = 0 row of ones, period 4 above q = 2 and the
    # homology ranks.
    degrees = [q for q in range(-12, 42) if q != -1]
    homology = {q: rank_K_by_signatures(1, q) for q in degrees}
    for n in range(1, 2001):
        for q in degrees:
            k = rank_K_by_signatures(n, q)
            assert (rank_K_cyclic(n, q), rank_H_BM(n, q)) == (k, homology[q]), (n, q)
        if n == 1:
            continue  # a class of maximal finite subgroups has order 2 or more
        g = GroupData(source="generic", class_counts=ClassCounts(((n, 1),)))
        for q in degrees:
            expected = rank_K_by_signatures(n, q) - homology[q]
            assert rank_diff(g, q) == rank_diff_from_case_table(g, q) == expected, (n, q)


@pytest.mark.parametrize("n", [0, 10**7 + 1])
def test_every_rank_row_checks_the_one_order_domain(n):
    # cyclicreps.require_order is the only order check: no row answers
    # outside [1, 10^7], not even those that need no count of Z_n.
    for q in range(-3, 10):
        for function in (rank_K_cyclic, rank_H_BM, wh_cyclic):
            with pytest.raises(ValueError, match=r"group order must be in \[1, 10\^7\]"):
                function(n, q)


def test_wh_cyclic_classical_values():
    assert wh_cyclic(5, 1) == AbGroupExpr.free(1)      # Wh(Z_5) = Z
    assert wh_cyclic(2, 1).is_zero()
    assert wh_cyclic(3, 1).is_zero()
    assert wh_cyclic(4, 1).is_zero()
    assert wh_cyclic(6, 1).is_zero()
    for q in range(-5, 6):
        assert wh_cyclic(1, q).is_zero()


def test_wh_cyclic_symbolic_parts():
    w7 = wh_cyclic(7, 1)
    assert w7.free_rank == 2  # r(7) - q(7) = 4 - 2
    assert w7.symbolic == (("SK1(Z_7)", 1),)
    assert wh_cyclic(5, 0) == AbGroupExpr.token("Wh0(Z_5)")
    assert wh_cyclic(4, 0).is_zero()
    w6m1 = wh_cyclic(6, -1)
    assert w6m1.free_rank == 1
    assert w6m1.symbolic == (("K-1tors(Z_6)", 1),)
    assert wh_cyclic(6, -3).is_zero()
    assert wh_cyclic(2, 5) == AbGroupExpr.token("Wh5(Z_2)")
