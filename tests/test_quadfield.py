"""Real quadratic field layer: integrality, embeddings, the trace census."""

import math
import random
from fractions import Fraction

import pytest

from hilbertmod import quadfield
from hilbertmod.quadfield import (
    FieldSpec,
    OmegaKind,
    TraceCandidate,
    allowed_orders,
    elliptic_trace_candidates,
    embed,
    is_algebraic_integer,
    is_elliptic_trace,
    is_square_free,
    order_from_trace,
)

from oracles import (
    cos_angle_minpoly,
    cyclotomic,
    elliptic_by_sign,
    in_integral_basis,
    order_by_minpoly,
    trace_minpoly,
)

SQUARE_FREE_D = [d for d in range(2, 60) if is_square_free(d)]
CROSS_CHECK_D = [d for d in range(2, 200) if is_square_free(d)] + [10007, 999983, 999999999989]


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
    assert FieldSpec(2).omega_kind is OmegaKind.SQRT_D
    assert FieldSpec(3).omega_kind is OmegaKind.SQRT_D
    assert FieldSpec(5).omega_kind is OmegaKind.HALF_ONE_PLUS_SQRT_D
    assert FieldSpec(13).omega_kind is OmegaKind.HALF_ONE_PLUS_SQRT_D


def test_omega_is_an_algebraic_integer():
    for d in SQUARE_FREE_D:
        f = FieldSpec(d)
        assert is_algebraic_integer(f.omega())


# ---------------------------------------------------------------------------
# Integrality
# ---------------------------------------------------------------------------

def test_integrality_examples():
    f5 = FieldSpec(5)
    golden = f5.element(Fraction(1, 2), Fraction(1, 2))  # (1+sqrt5)/2
    assert is_algebraic_integer(golden)
    assert not is_algebraic_integer(f5.element(Fraction(1, 2)))
    f2 = FieldSpec(2)
    root2 = f2.element(0, 1)
    assert is_algebraic_integer(root2)
    # cross-check through trace/norm integrality
    assert root2.trace().denominator == 1
    assert root2.norm().denominator == 1


def test_integrality_matches_trace_norm_criterion():
    # x integral iff 2a and a^2 - d b^2 are integers (plus a integral when b=0)
    rng = random.Random(777)
    for _ in range(500):
        d = rng.choice(SQUARE_FREE_D)
        f = FieldSpec(d)
        a = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        b = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        x = f.element(a, b)
        if b == 0:
            expected = a.denominator == 1
        else:
            expected = x.trace().denominator == 1 and x.norm().denominator == 1
        assert is_algebraic_integer(x) == expected, (d, a, b)


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------

def test_embeddings():
    f = FieldSpec(5)
    root5 = f.element(0, 1)
    assert embed(root5, 2) == f.element(0, -1)
    assert embed(root5, 1) == root5
    assert embed(f.element(3), 2) == f.element(3)
    with pytest.raises(ValueError):
        embed(root5, 3)


def test_norm_and_trace_are_rational():
    rng = random.Random(4242)
    for _ in range(300):
        d = rng.choice(SQUARE_FREE_D)
        f = FieldSpec(d)
        x = f.element(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                      Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        s = embed(x, 1) + embed(x, 2)
        p = embed(x, 1) * embed(x, 2)
        assert s.b == 0 and s.a == x.trace()
        assert p.b == 0 and p.a == x.norm()


def test_exact_sign_matches_float_sign():
    rng = random.Random(31415)
    for _ in range(1000):
        d = rng.choice(SQUARE_FREE_D)
        x = FieldSpec(d).element(Fraction(rng.randint(-20, 20), rng.randint(1, 6)),
                                 Fraction(rng.randint(-20, 20), rng.randint(1, 6)))
        approx = x.approx()
        if abs(approx) > 1e-9:
            assert x.sign() == (1 if approx > 0 else -1), (d, x)
        else:
            assert x.sign() == 0 or abs(approx) < 1e-9


# ---------------------------------------------------------------------------
# Ellipticity
# ---------------------------------------------------------------------------

def test_elliptic_trace_examples():
    f5 = FieldSpec(5)
    assert is_elliptic_trace(f5.element(Fraction(1, 2), Fraction(1, 2)))
    assert not is_elliptic_trace(f5.element(3))
    assert is_elliptic_trace(FieldSpec(2).element(0, 1))


def test_elliptic_trace_rejects_non_integers():
    with pytest.raises(ValueError):
        is_elliptic_trace(FieldSpec(5).element(Fraction(1, 3)))


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
    f5 = FieldSpec(5)
    assert order_from_trace(f5.element(0)) == 2
    assert order_from_trace(f5.element(1)) == 3
    assert order_from_trace(f5.element(-1)) == 3
    assert order_from_trace(f5.element(Fraction(1, 2), Fraction(1, 2))) == 5
    assert order_from_trace(f5.element(Fraction(-1, 2), Fraction(1, 2))) == 5
    assert order_from_trace(FieldSpec(2).element(0, 1)) == 4
    assert order_from_trace(FieldSpec(3).element(0, 1)) == 6


def test_order_from_trace_rejects_non_elliptic():
    with pytest.raises(ValueError):
        order_from_trace(FieldSpec(5).element(3))


def test_order_table_agrees_with_minpoly_oracle():
    # Every d < 16 is covered, which by the module docstring's argument is
    # every field with a candidate off the rational line.
    for d in [d for d in range(2, 200) if is_square_free(d)] + [10007, 999983]:
        for c in elliptic_trace_candidates(FieldSpec(d)):
            assert is_elliptic_trace(c.trace), (d, c.trace)
            assert c.psl_order == order_from_trace(c.trace), (d, c.trace)
            assert c.psl_order == order_by_minpoly(c.trace), (d, c.trace)


def test_census_checks_each_candidate_once(monkeypatch):
    calls = []

    def counting(t, _inner=quadfield.is_elliptic_trace):
        calls.append(t)
        return _inner(t)

    monkeypatch.setattr(quadfield, "is_elliptic_trace", counting)
    assert len(elliptic_trace_candidates(FieldSpec(5))) == 7
    assert len(calls) == 7


def test_census_builds_each_candidates_fractions_once(monkeypatch):
    calls = []

    def counting(cls, *args, _inner=Fraction.__new__, **kwargs):
        calls.append(args)
        return _inner(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    candidates = elliptic_trace_candidates(FieldSpec(5))
    monkeypatch.undo()
    assert len(candidates) == 7
    # a and b once each, and 2a, 2b in the candidate's one ellipticity check
    assert len(calls) <= 4 * len(candidates), len(calls)


def test_census_and_orders_make_no_sign_calls(monkeypatch):
    sign_calls, elliptic_calls = [], []

    def counting_sign(self, _inner=quadfield.QuadElem.sign):
        sign_calls.append(self)
        return _inner(self)

    def counting_elliptic(t, _inner=quadfield.is_elliptic_trace):
        elliptic_calls.append(t)
        return _inner(t)

    monkeypatch.setattr(quadfield.QuadElem, "sign", counting_sign)
    for d in (2, 3, 5, 10007):
        elliptic_trace_candidates(FieldSpec(d))
        allowed_orders(FieldSpec(d))
        assert len(sign_calls) == 0, d
    monkeypatch.setattr(quadfield, "is_elliptic_trace", counting_elliptic)
    assert allowed_orders(FieldSpec(5)) == (2, 3, 5)
    assert len(elliptic_calls) == 0


# ---------------------------------------------------------------------------
# Integer tests against the integral basis and exact signs
# ---------------------------------------------------------------------------

def _outcome(fn, t):
    """The value of fn(t), or the text of the ValueError it raises."""
    try:
        return fn(t)
    except ValueError as exc:
        return str(exc)


def test_predicates_agree_with_basis_and_sign_oracles():
    # a = i/2, b = j/2 covers every elliptic trace with room to spare on
    # both sides; the thirds are never integral.
    halves = [(Fraction(i, 2), Fraction(j, 2)) for i in range(-9, 10) for j in range(-5, 6)]
    thirds = [(Fraction(1, 3), Fraction(0)), (Fraction(0), Fraction(2, 3)),
              (Fraction(1, 3), Fraction(1, 3)), (Fraction(-3, 2), Fraction(1, 3))]
    for d in CROSS_CHECK_D:
        f = FieldSpec(d)
        for a, b in halves + thirds:
            t = f.element(a, b)
            integral = in_integral_basis(t)
            if not integral:
                elliptic = order = f"{t} is not an algebraic integer of Q(sqrt({d}))"
            elif not elliptic_by_sign(t):
                elliptic, order = False, f"{t} is not an elliptic trace"
            else:
                elliptic, order = True, order_by_minpoly(t)
            assert is_algebraic_integer(t) == integral, (d, a, b)
            assert _outcome(is_elliptic_trace, t) == elliptic, (d, a, b)
            assert _outcome(order_from_trace, t) == order, (d, a, b)


# ---------------------------------------------------------------------------
# The candidate census
# ---------------------------------------------------------------------------

def _census(d):
    return elliptic_trace_candidates(FieldSpec(d))


def test_census_golden_d5():
    cands = _census(5)
    half = Fraction(1, 2)
    got = {(c.trace.a, c.trace.b): c.psl_order for c in cands}
    assert got == {
        (Fraction(0), Fraction(0)): 2,
        (Fraction(1), Fraction(0)): 3,
        (Fraction(-1), Fraction(0)): 3,
        (half, half): 5,
        (half, -half): 5,
        (-half, half): 5,
        (-half, -half): 5,
    }


def test_census_golden_d2_d3_d7():
    got2 = {(c.trace.a, c.trace.b): c.psl_order for c in _census(2)}
    assert got2[(Fraction(0), Fraction(1))] == 4
    assert got2[(Fraction(0), Fraction(-1))] == 4
    assert allowed_orders(FieldSpec(2)) == (2, 3, 4)
    assert allowed_orders(FieldSpec(3)) == (2, 3, 6)
    assert {(c.trace.a, c.trace.b) for c in _census(7)} == {
        (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))
    }
    assert allowed_orders(FieldSpec(7)) == (2, 3)


def test_census_complete_against_wide_box_scan():
    # The production loop bounds must not miss anything a wide scan finds.
    for d in SQUARE_FREE_D + [10007, 999983]:
        f = FieldSpec(d)
        brute = set()
        for u in range(-10, 11):
            for v in range(-10, 11):
                t = f.from_basis(u, v)
                elliptic = elliptic_by_sign(t)
                assert is_elliptic_trace(t) == elliptic, (d, u, v)
                if elliptic:
                    brute.add((t.a, t.b))
        assert {(c.trace.a, c.trace.b) for c in elliptic_trace_candidates(f)} == brute, d


def test_census_invariants():
    for d in SQUARE_FREE_D:
        f = FieldSpec(d)
        cands = elliptic_trace_candidates(f)
        traces = {(c.trace.a, c.trace.b) for c in cands}
        # closed under negation and conjugation
        assert all((-a, -b) in traces for a, b in traces), d
        assert all((a, -b) in traces for a, b in traces), d
        # 0 and +-1 always occur
        assert {(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
                (Fraction(-1), Fraction(0))} <= traces, d
        # every candidate has a recognized finite order (constructor enforced)
        orders = set(allowed_orders(f))
        assert {2, 3} <= orders <= {2, 3, 4, 5, 6}, d


def test_special_orders_match_root_membership():
    # 4, 5, 6 occur exactly when x^2-2, x^2-x-1, x^2-3 have a root in O_k.
    for d in SQUARE_FREE_D:
        f = FieldSpec(d)
        cands = elliptic_trace_candidates(f)
        orders = set(allowed_orders(f))
        two = f.element(2)
        three = f.element(3)
        one = f.element(1)
        has_sqrt2 = any((c.trace * c.trace - two).is_zero() for c in cands)
        has_sqrt3 = any((c.trace * c.trace - three).is_zero() for c in cands)
        has_golden = any((c.trace * c.trace - c.trace - one).is_zero() for c in cands)
        assert (4 in orders) == has_sqrt2 == (d == 2), d
        assert (6 in orders) == has_sqrt3 == (d == 3), d
        assert (5 in orders) == has_golden == (d == 5), d


def test_trace_candidate_validation():
    f = FieldSpec(5)
    with pytest.raises(ValueError):
        TraceCandidate(f.element(3), 2)
    with pytest.raises(ValueError):
        TraceCandidate(f.element(0), 1)


def test_trace_minpoly_agrees_with_element_arithmetic():
    f = FieldSpec(5)
    golden = f.element(Fraction(1, 2), Fraction(1, 2))
    c0, c1, c2 = trace_minpoly(golden)
    value = f.element(c0) + golden * f.element(c1) + golden * golden * f.element(c2)
    assert value.is_zero()


def test_sum_across_two_fields_is_refused():
    a, b = quadfield.QuadElem(1, 1, FieldSpec(5)), quadfield.QuadElem(1, 1, FieldSpec(2))
    with pytest.raises(ValueError, match="different quadratic fields"):
        a + b
