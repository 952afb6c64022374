"""Value semantics of the seven record classes: equality, hash, immutability,
repr and construction-time validation."""

import copy
import pickle
from collections import Counter

import pytest

from hilbertmod.abgroups import AbGroupExpr
from hilbertmod.assembler import ClassCounts, GroupData, Mode
from hilbertmod.cyclicreps import RepCounts
from hilbertmod._record import Record
from hilbertmod.pchain import CoeffToken, TokenKind
from hilbertmod.quadfield import FieldSpec, TraceCandidate

F5 = FieldSpec(5)
COUNTS = ClassCounts(((2, 2), (3, 2), (5, 2)))

# (first instance, an equal instance built afresh, an unequal instance, repr)
FROZEN = [
    (F5, FieldSpec(5), FieldSpec(2), "FieldSpec(d=5)"),
    (TraceCandidate(0, 0, F5, 2), TraceCandidate(x=0, y=0, field=FieldSpec(5), psl_order=2),
     TraceCandidate(2, 0, F5, 3),
     "TraceCandidate(x=0, y=0, field=FieldSpec(d=5), psl_order=2)"),
    (AbGroupExpr(2, (3, 2), (("x", 1), ("x", 1))), AbGroupExpr(2, (2, 3), (("x", 2),)),
     AbGroupExpr(2, (2, 3)),
     "AbGroupExpr(free_rank=2, torsion=(2, 3), symbolic=(('x', 2),))"),
    (COUNTS, ClassCounts(((5, 2), (2, 2), (3, 2))), ClassCounts(((2, 2),)),
     "ClassCounts(entries=((2, 2), (3, 2), (5, 2)))"),
    (GroupData(F5, COUNTS), GroupData(source=FieldSpec(5), class_counts=COUNTS, mode=Mode.PSL),
     GroupData(F5, COUNTS, Mode.SL),
     "GroupData(source=FieldSpec(d=5), class_counts=ClassCounts(entries=((2, 2), (3, 2), "
     "(5, 2))), mode=<Mode.PSL: 'psl'>, abelianization=None)"),
    (RepCounts(5, 3, 2, 2, ((5, 2, 1),)), RepCounts(n=5, r=3, c=2, q=2, local=((5, 2, 1),)),
     RepCounts(5, 3, 2, 2, ()),
     "RepCounts(n=5, r=3, c=2, q=2, local=((5, 2, 1),))"),
    (CoeffToken(TokenKind.H_BG), CoeffToken(TokenKind.H_BG, None),
     CoeffToken(TokenKind.H_BM, 2),
     "CoeffToken(kind=<TokenKind.H_BG: 'Hq(BG)'>, order=None)"),
]


@pytest.mark.parametrize("first, same, other, text", FROZEN,
                         ids=[type(row[0]).__name__ for row in FROZEN])
def test_frozen_records(first, same, other, text):
    assert first == same and not first != same and first is not same
    assert first != other and not first == other
    assert hash(first) == hash(same)
    assert repr(first) == text == repr(same)
    assert first != text and first != None  # noqa: E711
    field = text.split("(", 1)[1].split("=", 1)[0]  # the first field
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(first, field, getattr(same, field))
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(first, field)
    assert first == same and repr(first) == text
    assert pickle.loads(pickle.dumps(first)) == first == copy.deepcopy(first)


def test_equal_fields_of_different_classes_are_unequal():
    class Twin(Record):  # CoeffToken's fields under another class
        __slots__ = ("kind", "order")

        def __init__(self, kind, order=None):
            object.__setattr__(self, "kind", kind)
            object.__setattr__(self, "order", order)

    assert Twin(TokenKind.H_BM, 3) != CoeffToken(TokenKind.H_BM, 3)
    assert CoeffToken(TokenKind.H_BM, 3) != Twin(TokenKind.H_BM, 3)


def test_records_work_as_keys():
    tally = Counter([CoeffToken(TokenKind.H_BM, 2), CoeffToken(TokenKind.H_BM, 2), F5])
    assert tally == {CoeffToken(TokenKind.H_BM, 2): 2, FieldSpec(5): 1}


@pytest.mark.parametrize("build, message", [
    (lambda: FieldSpec(4), "d must be a square-free integer in [2, 10^12], got 4"),
    (lambda: ClassCounts(((1, 1),)), "maximal finite subgroup orders must be >= 2"),
    (lambda: AbGroupExpr(-1), "free rank must be nonnegative"),
    (lambda: GroupData(F5, ClassCounts(((4, 1),))),
     "orders [4] cannot occur in PSL2 of Q(sqrt(5)); allowed: [2, 3, 5]"),
    (lambda: TraceCandidate(4, 0, F5, 2),
     "trace candidate must have both embeddings in (-2, 2)"),
    (lambda: TraceCandidate(0, 0, F5, 1), "PSL2 order of an elliptic element is at least 2"),
])
def test_validation_errors_are_unchanged(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
