"""Chain enumeration and the symbolic first page over orbit posets."""

import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from hilbertmod.assembler import (
    ClassCounts,
    GroupData,
    Mode,
    class_counts_for_field,
    rank_diff,
    rank_diff_from_case_table,
)
from hilbertmod.pchain import (
    CoeffToken,
    NodeKind,
    NodeTag,
    OrbitPoset,
    PropertyMViolationError,
    TokenKind,
    build_E1,
    enumerate_pchains,
    psl_poset,
    rank_E1_column,
    sl_poset,
)

from hilbertmod.quadfield import FieldSpec

from oracles import closure_pairs, naive_pchains, permutation_pchains, reference_page

D5_COUNTS = ClassCounts.parse("2:2,3:2,5:2")


# ---------------------------------------------------------------------------
# Poset construction
# ---------------------------------------------------------------------------

def test_transitive_closure_and_validation():
    poset = OrbitPoset("abc", [("a", "b"), ("b", "c")])
    assert poset.lt("a", "c")
    with pytest.raises(ValueError):
        OrbitPoset("ab", [("a", "a")])
    with pytest.raises(ValueError):
        OrbitPoset("ab", [("a", "b"), ("b", "a")])
    with pytest.raises(ValueError):
        OrbitPoset("aa", [])
    with pytest.raises(ValueError, match="outside the poset"):
        OrbitPoset("ab", [("a", "c")])
    with pytest.raises(ValueError, match="outside the poset"):
        OrbitPoset("ab", [("z", "b")])


def test_up_sets_against_dense_closure_on_random_relations():
    rng = random.Random(31337)
    seen = Counter()
    for _ in range(400):
        n = rng.randint(0, 8)
        nodes = [f"v{i}" for i in range(n)]
        # mostly forward edges, and now and then a back edge that may close a cycle
        less = [(nodes[i], nodes[j]) for i in range(n) for j in range(n)
                if i != j and rng.random() < (0.35 if i < j else 0.06)]
        rng.shuffle(less)
        try:
            want = closure_pairs(nodes, less)
        except ValueError:
            with pytest.raises(ValueError, match="cycle"):
                OrbitPoset(nodes, less)
            seen["cyclic"] += 1
            continue
        poset = OrbitPoset(nodes, less)
        assert {(a, b) for a in nodes for b in nodes if poset.lt(a, b)} == want, less
        seen["acyclic"] += 1
    assert seen["cyclic"] >= 50 and seen["acyclic"] >= 50, seen


# ---------------------------------------------------------------------------
# Chain censuses
# ---------------------------------------------------------------------------

def test_psl_census():
    for m in (0, 1, 3, 6):
        poset = psl_poset(m)
        counts = [len(enumerate_pchains(poset, p)) for p in range(4)]
        assert counts == [m + 1, m, 0, 0], m


def test_sl_census():
    for m in (0, 1, 3, 6):
        poset = sl_poset(m)
        counts = [len(enumerate_pchains(poset, p)) for p in range(5)]
        assert counts == [m + 2, 2 * m + 1, m, 0, 0], m


def test_empty_poset():
    empty = OrbitPoset((), [])
    assert enumerate_pchains(empty, 0) == []
    with pytest.raises(ValueError):
        enumerate_pchains(empty, -1)


def test_deterministic_lexicographic_order():
    poset = psl_poset(3)
    once = enumerate_pchains(poset, 0)
    again = enumerate_pchains(poset, 0)
    assert once == again == [("G/1",), ("G/M1",), ("G/M2",), ("G/M3",)]
    assert enumerate_pchains(poset, 1) == [
        ("G/1", "G/M1"), ("G/1", "G/M2"), ("G/1", "G/M3")
    ]


def test_chains_are_increasing():
    poset = sl_poset(4)
    for p in range(3):
        for chain in enumerate_pchains(poset, p):
            for a, b in zip(chain, chain[1:]):
                assert poset.lt(a, b)


def _random_poset(rng):
    n = rng.randint(0, 8)
    nodes = [f"v{i}" for i in range(n)]
    # edges only from lower to higher index keeps the relation acyclic
    less = [
        (nodes[i], nodes[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.4
    ]
    return OrbitPoset(nodes, less)


def test_against_naive_enumeration_on_random_posets():
    rng = random.Random(90210)
    for _ in range(500):
        poset = _random_poset(rng)
        for p in range(len(poset) + 1):
            got = sorted(enumerate_pchains(poset, p))
            assert got == naive_pchains(poset, p), poset.nodes


def test_against_permutation_enumeration_on_small_posets():
    rng = random.Random(60601)
    for _ in range(40):
        poset = _random_poset(rng)
        if len(poset) > 6:
            continue
        for p in range(len(poset)):
            got = sorted(enumerate_pchains(poset, p))
            assert got == permutation_pchains(poset, p)


# ---------------------------------------------------------------------------
# First pages
# ---------------------------------------------------------------------------

def _token_counts(page, p):
    return {(t.kind, t.order): mult for t, mult in page.get(p, Counter()).items()}


def test_absolute_psl_page():
    page = build_E1(psl_poset(D5_COUNTS), relative_to_trivial=False,
                    class_counts=D5_COUNTS)
    assert _token_counts(page, 0) == {
        (TokenKind.H_BG, None): 1,
        (TokenKind.K_GROUP_RING, 2): 2,
        (TokenKind.K_GROUP_RING, 3): 2,
        (TokenKind.K_GROUP_RING, 5): 2,
    }
    assert _token_counts(page, 1) == {
        (TokenKind.H_BM, 2): 2,
        (TokenKind.H_BM, 3): 2,
        (TokenKind.H_BM, 5): 2,
    }
    assert page.get(2, Counter()) == Counter()
    assert max(page) == 1


def test_relative_psl_page_collapses_to_one_column():
    page = build_E1(psl_poset(D5_COUNTS), relative_to_trivial=True,
                    class_counts=D5_COUNTS)
    assert _token_counts(page, 0) == {
        (TokenKind.WHITEHEAD, 2): 2,
        (TokenKind.WHITEHEAD, 3): 2,
        (TokenKind.WHITEHEAD, 5): 2,
    }
    assert max(page) == 0


def test_relative_sl_page_equals_absolute_psl_page():
    rel = build_E1(sl_poset(D5_COUNTS), relative_to_trivial=True,
                   class_counts=D5_COUNTS)
    absolute = build_E1(psl_poset(D5_COUNTS), relative_to_trivial=False,
                        class_counts=D5_COUNTS)
    assert rel == absolute
    # in particular no 2-chain contributions remain
    assert rel.get(2, Counter()) == Counter()


def test_build_E1_guards():
    tagged = psl_poset(D5_COUNTS)
    with pytest.raises(ValueError):
        build_E1(tagged, False, class_counts=ClassCounts.parse("2:1"))
    untagged = OrbitPoset(["a", "b"], [("a", "b")])
    with pytest.raises(ValueError):
        build_E1(untagged, False)
    with pytest.raises(ValueError):
        build_E1(sl_poset(D5_COUNTS), relative_to_trivial=False,
                 class_counts=D5_COUNTS)


def _tagged(kinds, less):
    tags = {v: NodeTag(kind, 2 if kind is NodeKind.MAXIMAL else None)
            for v, kind in kinds.items()}
    return OrbitPoset(list(kinds), less, tags)


def test_build_E1_shape_check():
    T, C, M = NodeKind.TRIVIAL, NodeKind.CENTRAL, NodeKind.MAXIMAL
    no_trivial = _tagged({"G/{+-I}": C, "G/M1": M}, [("G/{+-I}", "G/M1")])
    two_trivial = _tagged({"G/1": T, "G/1'": T, "G/M1": M},
                          [("G/1", "G/M1"), ("G/1'", "G/M1")])
    two_central = _tagged({"G/1": T, "C1": C, "C2": C, "G/M1": M},
                          [("G/1", "C1"), ("G/1", "C2"), ("C1", "G/M1"), ("C2", "G/M1")])
    trivial_above_central = _tagged({"G/{+-I}": C, "G/1": T, "G/M1": M},
                                    [("G/{+-I}", "G/1"), ("G/1", "G/M1")])
    for poset in (no_trivial, two_trivial, two_central, trivial_above_central):
        for relative in (False, True):
            with pytest.raises(ValueError, match="exactly one trivial node"):
                build_E1(poset, relative_to_trivial=relative)


def test_property_m_violation():
    # a maximal node strictly below another maximal node
    nodes = ["G/1", "G/M1", "G/M2"]
    less = [("G/1", "G/M1"), ("G/M1", "G/M2")]
    tags = {
        "G/1": NodeTag(NodeKind.TRIVIAL),
        "G/M1": NodeTag(NodeKind.MAXIMAL, 2),
        "G/M2": NodeTag(NodeKind.MAXIMAL, 3),
    }
    with pytest.raises(PropertyMViolationError):
        build_E1(OrbitPoset(nodes, less, tags), relative_to_trivial=False)


def test_pages_match_the_chains_of_the_subset_scan():
    rng = random.Random(271828)
    for _ in range(60):
        orders = sorted(rng.sample(range(2, 13), rng.randint(0, 4)))
        counts = ClassCounts(tuple((n, rng.randint(1, 2)) for n in orders))
        # the absolute page over the SL poset is refused (test_build_E1_guards)
        for factory, relative in ((psl_poset, False), (psl_poset, True), (sl_poset, True)):
            poset = factory(counts)
            page = build_E1(poset, relative, class_counts=counts)
            assert page == reference_page(poset, relative), (counts, relative)


def test_page_repr_does_not_depend_on_the_hash_seed():
    code = ("from hilbertmod.assembler import ClassCounts\n"
            "from hilbertmod.pchain import build_E1, psl_poset, sl_poset\n"
            "counts = ClassCounts.parse('2:3,3:1,4:2,5:1,6:4,12:2')\n"
            "for factory, relative in ((psl_poset, False), (psl_poset, True), (sl_poset, True)):\n"
            "    page = build_E1(factory(counts), relative, counts)\n"
            "    print(repr(page), [[t.order for t in c] for c in page.values()])\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                              check=True).stdout
               for seed in ("0", "1")]
    assert outputs[0] == outputs[1]
    # tokens enter each column in chain order, by ascending node positions
    assert outputs[0].count("[[None, 2, 3, 4, 5, 6, 12], [2, 3, 4, 5, 6, 12]]") == 2


# ---------------------------------------------------------------------------
# Column ranks
# ---------------------------------------------------------------------------

def test_column_ranks_d5():
    page = build_E1(psl_poset(D5_COUNTS), relative_to_trivial=False)
    # q = 5: the K-tokens contribute 2r(2)+2r(3)+2r(5) = 4+4+6 = 14 and the
    # homology column carries six rank-one classes.
    assert rank_E1_column(page, 0, 5) == 14
    assert rank_E1_column(page, 1, 5) == 6
    assert rank_E1_column(page, 0, 5) - rank_E1_column(page, 1, 5) == 8
    assert rank_E1_column(page, 1, 0) == 6
    for q in (2, -1, 4):
        assert rank_E1_column(page, 0, q) == 0
        assert rank_E1_column(page, 1, q) == 0
    # empty columns have rank zero
    assert rank_E1_column(page, 3, 5) == 0


def test_column_subtraction_reproduces_rank_diff():
    rng = random.Random(5551212)
    for _ in range(60):
        orders = sorted(rng.sample([2, 3, 4, 5, 6], rng.randint(1, 5)))
        counts = ClassCounts(tuple((n, rng.randint(1, 4)) for n in orders))
        g = GroupData(source="random", class_counts=counts, mode=Mode.PSL)
        page = build_E1(psl_poset(counts), relative_to_trivial=False,
                        class_counts=counts)
        for q in range(-3, 22):
            delta = rank_E1_column(page, 0, q) - rank_E1_column(page, 1, q)
            assert delta == rank_diff(g, q), (counts, q)


def test_three_rank_routes_agree_on_the_degree_table_sources():
    # the sources and degree range of perfbench's degree_table workload:
    # d = 5 with its built-in counts, d = 2, 3, 13 over their allowed
    # orders, and a generic group
    sources = [
        (FieldSpec(5), class_counts_for_field(FieldSpec(5))),
        (FieldSpec(2), ClassCounts.parse("2:3,3:1,4:2")),
        (FieldSpec(3), ClassCounts.parse("2:1,3:4,6:2")),
        (FieldSpec(13), ClassCounts.parse("2:2,3:3")),
        ("generic", ClassCounts.parse("2:1,3:1")),
    ]
    for source, counts in sources:
        g = GroupData(source=source, class_counts=counts, mode=Mode.PSL)
        page = build_E1(psl_poset(counts), relative_to_trivial=False, class_counts=counts)
        for q in range(-12, 2000):
            e1 = rank_E1_column(page, 0, q) - rank_E1_column(page, 1, q)
            assert e1 == rank_diff(g, q) == rank_diff_from_case_table(g, q), (counts, q)


def test_relative_page_ranks_match_whitehead_free_rank():
    from hilbertmod.assembler import whitehead_psl

    g = GroupData(source="generic", class_counts=D5_COUNTS, mode=Mode.PSL)
    page = build_E1(psl_poset(D5_COUNTS), relative_to_trivial=True)
    assert rank_E1_column(page, 0, 1) == whitehead_psl(g, 1).free_rank == 2


def test_rank_column_requires_orders():
    page = {0: Counter([CoeffToken(TokenKind.K_GROUP_RING, None)])}
    with pytest.raises(ValueError):
        rank_E1_column(page, 0, 1)
