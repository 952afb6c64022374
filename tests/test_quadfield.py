"""Real quadratic field layer: integrality, embeddings, the trace census.

The census holds each trace t as the integer pair (x, y) of
t = (x + y*sqrt(d))/2; the oracles rebuild t as the exact element
a + b*sqrt(d) = ``Quad(x/2, y/2, d)`` and decide integrality, ellipticity
and order on it by other routes.
"""

import math
import random
from fractions import Fraction

import pytest

from hilbertmod import quadfield
from hilbertmod.quadfield import (
    FieldSpec,
    TraceCandidate,
    allowed_orders,
    elliptic_trace_candidates,
    is_square_free,
)

from oracles import (
    Quad,
    cos_angle_minpoly,
    cyclotomic,
    elliptic_by_sign,
    in_integral_basis,
    order_by_minpoly,
    trace_minpoly,
)

SQUARE_FREE_D = [d for d in range(2, 60) if is_square_free(d)]
CROSS_CHECK_D = [d for d in range(2, 200) if is_square_free(d)] + [10007, 999983, 999999999989]


def _quad(c: TraceCandidate) -> Quad:
    """The candidate's trace as the oracles' exact element."""
    return Quad(Fraction(c.x, 2), Fraction(c.y, 2), c.field.d)


def _xy(t: Quad) -> tuple[int, int]:
    """The integer pair (x, y) = (2a, 2b) of t, on which quadfield decides."""
    x, y = 2 * t.a, 2 * t.b
    assert x.denominator == y.denominator == 1, t
    return int(x), int(y)


def _census(d):
    return elliptic_trace_candidates(FieldSpec(d))


def _orders(d):
    return {(c.x, c.y): c.psl_order for c in _census(d)}


# ---------------------------------------------------------------------------
# Field construction
# ---------------------------------------------------------------------------

def test_field_validation():
    with pytest.raises(ValueError):
        FieldSpec(1)
    with pytest.raises(ValueError):
        FieldSpec(12)
    with pytest.raises(ValueError):
        FieldSpec(-5)
    assert FieldSpec(2).omega_str() == "sqrt(2)"
    assert FieldSpec(3).omega_str() == "sqrt(3)"
    assert FieldSpec(5).omega_str() == "(1+sqrt(5))/2"
    assert FieldSpec(13).omega_str() == "(1+sqrt(13))/2"


def test_omega_is_an_algebraic_integer():
    for d in SQUARE_FREE_D:
        omega = Quad.from_basis(0, 1, d)
        assert in_integral_basis(omega), d
        assert quadfield._is_integral(*_xy(omega), d), d


# ---------------------------------------------------------------------------
# Integrality
# ---------------------------------------------------------------------------

def test_integrality_examples():
    golden = Quad(Fraction(1, 2), Fraction(1, 2), 5)  # (1+sqrt5)/2
    assert quadfield._is_integral(*_xy(golden), 5)
    assert not quadfield._is_integral(*_xy(Quad(Fraction(1, 2), 0, 5)), 5)
    root2 = Quad(0, 1, 2)
    assert quadfield._is_integral(*_xy(root2), 2)
    # cross-check through trace/norm integrality
    assert root2.trace().denominator == 1
    assert root2.norm().denominator == 1


def test_integrality_matches_trace_norm_criterion():
    # t = (x + y*sqrt(d))/2 is integral iff 2a and a^2 - d b^2 are integers
    # (plus a integral when b = 0)
    rng = random.Random(777)
    for _ in range(500):
        d = rng.choice(SQUARE_FREE_D)
        x, y = rng.randint(-16, 16), rng.randint(-16, 16)
        t = Quad(Fraction(x, 2), Fraction(y, 2), d)
        if y == 0:
            expected = t.a.denominator == 1
        else:
            expected = t.trace().denominator == 1 and t.norm().denominator == 1
        assert quadfield._is_integral(x, y, d) == expected, (d, x, y)


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------

def test_embeddings():
    # sigma1 keeps y and sigma2 negates it: (x + y*sqrt(d))/2, (x - y*sqrt(d))/2
    assert TraceCandidate(0, 2, FieldSpec(2), 4).embeddings() == (math.sqrt(2), -math.sqrt(2))
    assert TraceCandidate(2, 0, FieldSpec(5), 3).embeddings() == (1.0, 1.0)
    first, second = TraceCandidate(-1, 1, FieldSpec(5), 5).embeddings()
    assert math.isclose(first, (math.sqrt(5) - 1) / 2)
    assert math.isclose(second, -(math.sqrt(5) + 1) / 2)


def test_norm_and_trace_are_rational():
    rng = random.Random(4242)
    for _ in range(300):
        d = rng.choice(SQUARE_FREE_D)
        x = Quad(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                 Fraction(rng.randint(-9, 9), rng.randint(1, 5)), d)
        s = x + x.conjugate()
        p = x * x.conjugate()
        assert s.b == 0 and s.a == x.trace()
        assert p.b == 0 and p.a == x.norm()


def test_exact_sign_matches_float_sign():
    rng = random.Random(31415)
    for _ in range(1000):
        d = rng.choice(SQUARE_FREE_D)
        x = Quad(Fraction(rng.randint(-20, 20), rng.randint(1, 6)),
                 Fraction(rng.randint(-20, 20), rng.randint(1, 6)), d)
        approx = x.approx()
        if abs(approx) > 1e-9:
            assert x.sign() == (1 if approx > 0 else -1), (d, x)
        else:
            assert x.sign() == 0 or abs(approx) < 1e-9


def test_census_renders_like_the_exact_element():
    # field's text and --approx floats, against the Fraction element's
    for d in CROSS_CHECK_D:
        for c in _census(d):
            t = _quad(c)
            assert str(c) == str(t), (d, c)
            assert c.embeddings() == (t.approx(), t.conjugate().approx()), (d, c)


# ---------------------------------------------------------------------------
# Ellipticity
# ---------------------------------------------------------------------------

def test_elliptic_trace_examples():
    assert quadfield._is_elliptic(1, 1, 5)        # (1+sqrt5)/2
    assert not quadfield._is_elliptic(6, 0, 5)    # 3
    assert quadfield._is_elliptic(0, 2, 2)        # sqrt2


def test_elliptic_trace_rejects_non_integers():
    # 1/2 lies inside (-2, 2) but is no algebraic integer
    assert quadfield._is_elliptic(1, 0, 5)
    with pytest.raises(ValueError):
        TraceCandidate(1, 0, FieldSpec(5), 2)
    assert (1, 0) not in _orders(5)


# ---------------------------------------------------------------------------
# Minimal polynomials of 2cos(2pi/m) (the oracle for the order table)
# ---------------------------------------------------------------------------

def test_cyclotomic_polynomials():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)
    assert cyclotomic(105)[7] == -2  # first coefficient outside {0, +-1}


def test_cos_minimal_polynomials_known_values():
    known = {
        1: (-2, 1),
        2: (2, 1),
        3: (1, 1),
        4: (0, 1),
        5: (-1, 1, 1),
        6: (-1, 1),
        7: (-1, -2, 1, 1),
        8: (-2, 0, 1),
        9: (1, -3, 0, 1),
        10: (-1, -1, 1),
        12: (-3, 0, 1),
    }
    for m, poly in known.items():
        assert cos_angle_minpoly(m) == poly, m


def test_cos_minimal_polynomials_numeric_root():
    for m in range(3, 61):
        poly = cos_angle_minpoly(m)
        x = 2 * math.cos(2 * math.pi / m)
        value = sum(c * x**i for i, c in enumerate(poly))
        scale = sum(abs(c) for c in poly)
        assert abs(value) < 1e-7 * scale, (m, value)
        assert poly[-1] == 1  # monic


# ---------------------------------------------------------------------------
# Orders from traces
# ---------------------------------------------------------------------------

def test_order_from_trace_examples():
    f5 = _orders(5)
    assert f5[(0, 0)] == 2
    assert f5[(2, 0)] == 3
    assert f5[(-2, 0)] == 3
    assert f5[(1, 1)] == 5
    assert f5[(-1, 1)] == 5
    assert _orders(2)[(0, 2)] == 4
    assert _orders(3)[(0, 2)] == 6


def test_order_from_trace_rejects_non_elliptic():
    # 3 = (6 + 0*sqrt(5))/2: the census gives it no order, and no candidate
    # can carry one
    assert (6, 0) not in _orders(5)
    with pytest.raises(ValueError):
        TraceCandidate(6, 0, FieldSpec(5), 2)


def test_order_table_agrees_with_minpoly_oracle():
    # Every d < 16 is covered, which by the module docstring's argument is
    # every field with a candidate off the rational line.
    for d in [d for d in range(2, 200) if is_square_free(d)] + [10007, 999983]:
        for c in _census(d):
            t = _quad(c)
            assert in_integral_basis(t) and elliptic_by_sign(t), (d, c)
            assert c.psl_order == order_by_minpoly(t), (d, c)


def test_census_and_orders_build_no_fraction(monkeypatch):
    calls = []

    def counting(cls, *args, _inner=Fraction.__new__, **kwargs):
        calls.append(args)
        return _inner(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    for d in (2, 3, 5, 10007):
        elliptic_trace_candidates(FieldSpec(d))
        allowed_orders(FieldSpec(d))
    monkeypatch.undo()
    assert calls == []


# ---------------------------------------------------------------------------
# Integer tests against the integral basis and exact signs
# ---------------------------------------------------------------------------

def test_predicates_agree_with_basis_and_sign_oracles():
    # t = (x + y*sqrt(d))/2 with |x| <= 9, |y| <= 5 covers every elliptic
    # trace with room to spare on both sides.
    box = [(x, y) for x in range(-9, 10) for y in range(-5, 6)]
    for d in CROSS_CHECK_D:
        expected = {}
        for x, y in box:
            t = Quad(Fraction(x, 2), Fraction(y, 2), d)
            integral, elliptic = in_integral_basis(t), elliptic_by_sign(t)
            assert quadfield._is_integral(x, y, d) == integral, (d, x, y)
            assert quadfield._is_elliptic(x, y, d) == elliptic, (d, x, y)
            if integral and elliptic:
                expected[(x, y)] = order_by_minpoly(t)
        assert _orders(d) == expected, d


# ---------------------------------------------------------------------------
# The candidate census
# ---------------------------------------------------------------------------

def test_census_golden_d5():
    assert _orders(5) == {
        (0, 0): 2,
        (2, 0): 3,
        (-2, 0): 3,
        (1, 1): 5,
        (1, -1): 5,
        (-1, 1): 5,
        (-1, -1): 5,
    }


def test_census_golden_d2_d3_d7():
    got2 = _orders(2)
    assert got2[(0, 2)] == 4
    assert got2[(0, -2)] == 4
    assert allowed_orders(FieldSpec(2)) == (2, 3, 4)
    assert allowed_orders(FieldSpec(3)) == (2, 3, 6)
    assert set(_orders(7)) == {(0, 0), (2, 0), (-2, 0)}
    assert allowed_orders(FieldSpec(7)) == (2, 3)


def test_census_complete_against_wide_box_scan():
    # The production loop bounds must not miss anything a wide scan finds.
    for d in SQUARE_FREE_D + [10007, 999983, 999999999989]:
        brute = set()
        for u in range(-10, 11):
            for v in range(-10, 11):
                t = Quad.from_basis(u, v, d)
                elliptic = elliptic_by_sign(t)
                assert quadfield._is_elliptic(*_xy(t), d) == elliptic, (d, u, v)
                if elliptic:
                    brute.add((t.a, t.b))
        assert {(_quad(c).a, _quad(c).b) for c in _census(d)} == brute, d


def test_census_invariants():
    for d in SQUARE_FREE_D:
        traces = set(_orders(d))
        # closed under negation and conjugation
        assert all((-x, -y) in traces for x, y in traces), d
        assert all((x, -y) in traces for x, y in traces), d
        # 0 and +-1 always occur
        assert {(0, 0), (2, 0), (-2, 0)} <= traces, d
        # every candidate has a recognized finite order (constructor enforced)
        orders = set(allowed_orders(FieldSpec(d)))
        assert {2, 3} <= orders <= {2, 3, 4, 5, 6}, d


def test_special_orders_match_root_membership():
    # 4, 5, 6 occur exactly when x^2-2, x^2-x-1, x^2-3 have a root in O_k.
    for d in SQUARE_FREE_D:
        traces = [_quad(c) for c in _census(d)]
        orders = set(allowed_orders(FieldSpec(d)))
        zero, one, two, three = (Quad(n, 0, d) for n in range(4))
        has_sqrt2 = any(t * t - two == zero for t in traces)
        has_sqrt3 = any(t * t - three == zero for t in traces)
        has_golden = any(t * t - t - one == zero for t in traces)
        assert (4 in orders) == has_sqrt2 == (d == 2), d
        assert (6 in orders) == has_sqrt3 == (d == 3), d
        assert (5 in orders) == has_golden == (d == 5), d


def test_trace_candidate_validation():
    f = FieldSpec(5)
    with pytest.raises(ValueError):
        TraceCandidate(6, 0, f, 2)
    with pytest.raises(ValueError):
        TraceCandidate(0, 0, f, 1)


def test_trace_minpoly_agrees_with_element_arithmetic():
    golden = Quad(Fraction(1, 2), Fraction(1, 2), 5)
    c0, c1, c2 = trace_minpoly(golden)
    value = Quad(c0, 0, 5) + golden * Quad(c1, 0, 5) + golden * golden * Quad(c2, 0, 5)
    assert value == Quad(0, 0, 5)


def test_sum_across_two_fields_is_refused():
    a, b = Quad(1, 1, 5), Quad(1, 1, 2)
    with pytest.raises(ValueError, match="different quadratic fields"):
        a + b
