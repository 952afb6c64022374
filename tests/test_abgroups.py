"""Canonicalization, algebra and rendering of abelian group expressions."""

import pytest

from hilbertmod.abgroups import AbGroupExpr


def test_canonical_ordering():
    a = AbGroupExpr(1, (6, 2, 2), (("B", 1), ("A", 2)))
    b = AbGroupExpr(1, (2, 6, 2), (("A", 1), ("B", 1), ("A", 1)))
    assert a == b
    assert a.torsion == (2, 2, 6)
    assert a.symbolic == (("A", 2), ("B", 1))


def test_validation():
    with pytest.raises(ValueError):
        AbGroupExpr(free_rank=-1)
    with pytest.raises(ValueError):
        AbGroupExpr(torsion=(1,))
    with pytest.raises(ValueError):
        AbGroupExpr(symbolic=(("T", -1),))


def test_zero_and_constructors():
    assert AbGroupExpr.zero().is_zero()
    assert AbGroupExpr.free(0) == AbGroupExpr.zero()
    assert AbGroupExpr.token("T", 0) == AbGroupExpr.zero()
    assert AbGroupExpr.cyclic(4).torsion == (4,)


def test_direct_sum_and_scaling():
    z2 = AbGroupExpr.cyclic(2)
    z = AbGroupExpr.free(1)
    combo = z + z + z2 + AbGroupExpr.token("T")
    assert combo == AbGroupExpr(2, (2,), (("T", 1),))
    assert combo.scaled(3) == AbGroupExpr(6, (2, 2, 2), (("T", 3),))
    assert combo.scaled(0).is_zero()


def test_scaling_past_sys_maxsize_caps_only_torsion():
    k = 10**19  # above sys.maxsize: a tuple cannot be repeated k times
    assert AbGroupExpr.free(2).scaled(k) == AbGroupExpr.free(2 * k)
    assert AbGroupExpr.token("T", 3).scaled(k) == AbGroupExpr.token("T", 3 * k)
    assert AbGroupExpr.zero().scaled(k).is_zero()
    assert AbGroupExpr(0, (2, 3)).scaled(5000).torsion == (2,) * 5000 + (3,) * 5000
    for expr, copies in ((AbGroupExpr(0, (2, 3)), 5001), (AbGroupExpr.cyclic(2), k)):
        with pytest.raises(ValueError, match=r"at most 10\^4 torsion summands"):
            expr.scaled(copies)


def test_render():
    assert AbGroupExpr.zero().render() == "0"
    assert AbGroupExpr.free(1).render() == "Z"
    assert AbGroupExpr.free(2).render() == "Z^2"
    assert AbGroupExpr(2, (2,), ()).render() == "Z^2 + Z/2"
    assert AbGroupExpr(0, (2, 2, 6), (("Wh0(Z_5)", 2),)).render() == "2*Z/2 + Z/6 + 2*Wh0(Z_5)"


def test_parse_round_trip():
    for text in ["0", "Z", "Z^2", "Z/6", "Z^2 + Z/2", "2*Z/2 + Z/6"]:
        expr = AbGroupExpr.parse(text)
        assert AbGroupExpr.parse(expr.render()) == expr
    assert AbGroupExpr.parse("Z/6 + Z/2") == AbGroupExpr(0, (2, 6), ())
    assert AbGroupExpr.parse("3*Z") == AbGroupExpr.free(3)


def test_parse_rejects_garbage():
    for text in ["", "Q", "Z/", "Z^", "1 + Z", "0*Z/2"]:
        with pytest.raises(ValueError):
            AbGroupExpr.parse(text)


def test_scaled_rejects_a_negative_multiplicity():
    # without the check, -1 copies of these would come back as the zero group
    for expr in (AbGroupExpr.zero(), AbGroupExpr.cyclic(2)):
        with pytest.raises(ValueError, match="multiplicity must be nonnegative"):
            expr.scaled(-1)
