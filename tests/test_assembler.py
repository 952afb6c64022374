"""Whitehead-group assembly and rank differences for (P)SL2 group data."""

import random

import pytest

from hilbertmod.abgroups import AbGroupExpr
from hilbertmod.assembler import (
    ClassCounts,
    GroupData,
    MissingAbelianizationError,
    MissingClassDataError,
    Mode,
    class_counts_for_field,
    group_data_for_field,
    rank_diff,
    rank_diff_from_case_table,
    whitehead_psl,
    whitehead_sl,
)
from hilbertmod.cyclicreps import q_count, r_count
from hilbertmod.finitek import rank_case
from hilbertmod.quadfield import FieldSpec

from oracles import (
    kp_formula,
    prime_powers_by_trial_division,
    rational_irred_orbits,
    real_irred_orbits,
    rp_formula,
)


def _d5_psl():
    return group_data_for_field(FieldSpec(5), Mode.PSL)


def _d5_sl():
    return group_data_for_field(FieldSpec(5), Mode.SL)


# ---------------------------------------------------------------------------
# Class counts
# ---------------------------------------------------------------------------

def test_class_counts_parse_and_m():
    counts = ClassCounts.parse("2:2,3:2,5:2")
    assert counts.m == 6
    assert counts.entries == ((2, 2), (3, 2), (5, 2))
    with pytest.raises(ValueError):
        ClassCounts.parse("3:1,2:1")  # not ascending
    with pytest.raises(ValueError):
        ClassCounts.parse("2:1,2:1")  # duplicate
    with pytest.raises(ValueError):
        ClassCounts.parse("1:1")      # order too small
    with pytest.raises(ValueError):
        ClassCounts.parse("2:0")      # count too small
    with pytest.raises(ValueError):
        ClassCounts.parse("2")        # missing count


def test_builtin_table():
    counts = class_counts_for_field(FieldSpec(5))
    assert counts.entries == ((2, 2), (3, 2), (5, 2))
    assert counts.m == 6
    with pytest.raises(MissingClassDataError):
        class_counts_for_field(FieldSpec(7))


def test_field_data_validates_orders():
    # order 5 cannot occur over Q(sqrt(2))
    with pytest.raises(ValueError):
        GroupData(source=FieldSpec(2), class_counts=ClassCounts.parse("2:1,5:1"))
    # order 4 is fine there
    GroupData(source=FieldSpec(2), class_counts=ClassCounts.parse("2:1,4:1"))


# ---------------------------------------------------------------------------
# Whitehead groups
# ---------------------------------------------------------------------------

def test_whitehead_psl_empty_counts():
    g = GroupData(source="empty", class_counts=ClassCounts(()))
    for q in (-2, -1, 0, 1, 5):
        assert whitehead_psl(g, q).is_zero()


def test_whitehead_psl_general_q_is_symbolic():
    expr = whitehead_psl(_d5_psl(), 9)
    assert expr == AbGroupExpr(
        0, (), (("Wh9(Z_2)", 2), ("Wh9(Z_3)", 2), ("Wh9(Z_5)", 2))
    )


def test_whitehead_sl_lower_degrees():
    sl = _d5_sl()
    assert whitehead_sl(sl, 0) == AbGroupExpr(1, (), (("Wh0(Z_5)", 2),))
    expr = whitehead_sl(sl, -1)
    assert expr.free_rank == 0
    assert expr.symbolic == (
        ("K-1tors(Z_2)", 2), ("K-1tors(Z_3)", 2), ("K-1tors(Z_5)", 2)
    )
    assert whitehead_sl(sl, -2).is_zero()


def test_whitehead_sl_guards():
    with pytest.raises(ValueError):
        whitehead_sl(_d5_sl(), 2)
    with pytest.raises(ValueError):
        whitehead_sl(_d5_psl(), 1)  # wrong mode
    with pytest.raises(ValueError):
        whitehead_psl(_d5_sl(), 1)
    no_ab = GroupData(source="g", class_counts=ClassCounts.parse("2:1"), mode=Mode.SL)
    with pytest.raises(MissingAbelianizationError):
        whitehead_sl(no_ab, 1)
    # q = 0 and q = -1 do not need the abelianization
    whitehead_sl(no_ab, 0)
    whitehead_sl(no_ab, -1)


def test_whitehead_sl_free_rank_and_torsion_bookkeeping():
    rng = random.Random(2718)
    for _ in range(50):
        counts = ClassCounts(
            tuple((n, rng.randint(1, 5)) for n in sorted(rng.sample([2, 3, 4, 5, 6], rng.randint(1, 5))))
        )
        ab = AbGroupExpr(rng.randint(0, 3), tuple(rng.choice([2, 3, 4, 6]) for _ in range(rng.randint(0, 2))))
        psl = GroupData(source="g", class_counts=counts, mode=Mode.PSL)
        sl = GroupData(source="g", class_counts=counts, mode=Mode.SL, abelianization=ab)
        wh_psl = whitehead_psl(psl, 1)
        wh_sl = whitehead_sl(sl, 1)
        assert wh_psl.free_rank == sum(
            c * (r_count(n) - q_count(n)) for n, c in counts.entries
        )
        assert wh_sl.free_rank == wh_psl.free_rank + ab.free_rank
        # exactly one extra Z/2 beyond the PSL torsion plus the abelianization
        assert sorted(wh_sl.torsion) == sorted(wh_psl.torsion + ab.torsion + (2,))


# ---------------------------------------------------------------------------
# Rank differences
# ---------------------------------------------------------------------------

def test_rank_diff_requires_psl_mode():
    with pytest.raises(ValueError):
        rank_diff(_d5_sl(), 1)


def test_rank_diff_periodicity_above_two():
    g = _d5_psl()
    for q in range(3, 20):
        assert rank_diff(g, q) == rank_diff(g, q + 4)
    # More generally rank_diff depends on q only through its rank_case row,
    # which is what lets `ranks` evaluate each row once per request.
    for spec in ("2:2,3:2,5:2", "2:1,3:1", "4:3,6:1", "7:2,12:1,360:5", "9999926:2,9999991:1"):
        g = GroupData(source="generic", class_counts=ClassCounts.parse(spec))
        first = {}
        for q in range(-12, 81):
            value = rank_diff(g, q)
            assert first.setdefault(rank_case(q), value) == value, (spec, q)


def test_generic_path_equals_field_path():
    by_field = _d5_psl()
    generic = GroupData(source="generic", class_counts=ClassCounts.parse("2:2,3:2,5:2"))
    for q in range(-3, 12):
        assert rank_diff(by_field, q) == rank_diff(generic, q)


def test_class_counts_reject_a_duplicate_order():
    with pytest.raises(ValueError, match="duplicate subgroup order"):
        ClassCounts(((2, 1), (2, 3)))


def test_case_table_refuses_sl_mode_data():
    g = GroupData("generic", ClassCounts.parse("2:1,3:1"), Mode.SL)
    with pytest.raises(ValueError, match="applies to the projective group"):
        rank_diff_from_case_table(g, 1)


def test_case_table_rows_match_the_orbit_oracles():
    # the case table and rank_K_cyclic both read cyclicreps' q(n) and local
    # triples at q = -1, so check the table's rows against character orbits instead
    for n in range(2, 501):
        g = GroupData(source="generic", class_counts=ClassCounts(((n, 1),)))
        q_n = rational_irred_orbits(n)
        local = sum(kp_formula(n, p) - rp_formula(n, p)
                    for p, _ in prime_powers_by_trial_division(n))
        assert rank_diff_from_case_table(g, -1) == 1 - q_n + local, n
        assert rank_diff_from_case_table(g, 1) == real_irred_orbits(n) - q_n, n
