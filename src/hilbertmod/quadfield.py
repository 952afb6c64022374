"""Real quadratic fields Q(sqrt(d)): integers, embeddings and elliptic traces.

An element of PSL2 of the ring of integers O_k fixes a point of the product
of upper half planes exactly when it is elliptic in both real embeddings,
i.e. when its trace t satisfies sigma_i(t)^2 - 4 < 0 for i = 1, 2.  Such a
trace is an algebraic integer of the field, which makes the set of possible
traces finite and tiny, and the census runs in plain integer arithmetic:

* write t = (x + y*sqrt(d))/2 with integers x, y.  Then t is an algebraic
  integer exactly when its trace x and its norm (x^2 - y^2*d)/4 are
  integers, i.e. when 4 divides x^2 - y^2*d (x = y mod 2 when d = 1 mod 4,
  x and y both even otherwise);
* both embeddings (x +- y*sqrt(d))/2 lie in (-2, 2) exactly when
  |x| < 4 and y^2*d < (4 - |x|)^2, so |y| <= 2 since d >= 2.

The trace t of an elliptic element of finite PSL2 order n equals
2*cos(j*pi/n) for some j coprime to n.  By Kronecker's theorem every
elliptic trace is such a value, and a quadratic one has
2*cos(2*pi/m) of degree at most 2, i.e. phi(m) <= 4, which leaves only
the orders 2 to 6.  The order is therefore read from a seven-entry table
keyed by the minimal polynomial data (x, x^2 - y^2*d) of t, that is
(trace(t), 4*norm(t)).

The table is complete.  For y = 0, 4 | x^2 leaves x in {0, +-2}: the
keys (0, 0) and (+-2, 4).  For y != 0 the bound y^2*d < (4 - |x|)^2 <= 16
forces d < 16.  With |y| = 1, 4 | x^2 - d needs x odd and d = 1 mod 4,
and d < (4 - |x|)^2 then leaves x = +-1, d = 5: the keys (+-1, -4).  With
|y| = 2, x is even and 4*d < (4 - |x|)^2 leaves x = 0, d in {2, 3}: the
keys (0, -8) and (0, -12).  Those are the seven keys.

Integrality, ellipticity and order are decided in one place, on the pair
(x, y) = (2a, 2b) of t = a + b*sqrt(d), by the two tests above: the census
and every public predicate go through them, so no decision compares an
irrational quantity with a rational one.
"""
from __future__ import annotations

import math
from enum import Enum

from ._record import Record
from .cyclicreps import prime_powers

__all__ = [
    "OmegaKind",
    "FieldSpec",
    "MAX_D",
    "QuadElem",
    "TraceCandidate",
    "is_square_free",
    "is_algebraic_integer",
    "embed",
    "is_elliptic_trace",
    "elliptic_trace_candidates",
    "order_from_trace",
    "allowed_orders",
]


# Largest d accepted; it bounds the trial-division square-free test.
MAX_D = 10**12


class OmegaKind(Enum):
    """Shape of the second integral basis element of Q(sqrt(d))."""

    SQRT_D = "sqrt(d)"                      # d = 2, 3 mod 4
    HALF_ONE_PLUS_SQRT_D = "(1+sqrt(d))/2"  # d = 1 mod 4


def is_square_free(n: int) -> bool:
    """True if no square of a prime divides n (trial factorization)."""
    return n >= 1 and all(a == 1 for _, a in prime_powers(n))


class FieldSpec(Record):
    """The real quadratic field Q(sqrt(d)) for a square-free d in [2, MAX_D]."""

    __slots__ = ("d",)

    def __init__(self, d: int) -> None:
        if not (2 <= d <= MAX_D and is_square_free(d)):
            raise ValueError(f"d must be a square-free integer in [2, 10^12], got {d}")
        object.__setattr__(self, "d", d)

    @property
    def omega_kind(self) -> OmegaKind:
        if self.d % 4 == 1:
            return OmegaKind.HALF_ONE_PLUS_SQRT_D
        return OmegaKind.SQRT_D

    def omega(self) -> "QuadElem":
        """Second element of the integral basis (1, omega) of O_k."""
        return self.from_basis(0, 1)

    def element(self, a, b=0) -> "QuadElem":
        """The element a + b*sqrt(d) with rational a, b."""
        return QuadElem(a, b, self)

    def from_basis(self, u: int, v: int) -> "QuadElem":
        """The algebraic integer u + v*omega."""
        from fractions import Fraction  # on first use: only a QuadElem needs it
        if self.omega_kind is OmegaKind.HALF_ONE_PLUS_SQRT_D:
            return QuadElem(Fraction(2 * u + v, 2), Fraction(v, 2), self)
        return QuadElem(Fraction(u), Fraction(v), self)

    def omega_str(self) -> str:
        if self.omega_kind is OmegaKind.HALF_ONE_PLUS_SQRT_D:
            return f"(1+sqrt({self.d}))/2"
        return f"sqrt({self.d})"


class QuadElem(Record):
    """The value a + b*sqrt(d), with exact rational components a and b."""

    __slots__ = ("a", "b", "field")

    def __init__(self, a, b, field: FieldSpec) -> None:
        from fractions import Fraction  # on first use: the census runs on integers alone
        object.__setattr__(self, "a", a if isinstance(a, Fraction) else Fraction(a))
        object.__setattr__(self, "b", b if isinstance(b, Fraction) else Fraction(b))
        object.__setattr__(self, "field", field)

    def _check_same_field(self, other: "QuadElem") -> None:
        if self.field != other.field:
            raise ValueError("operands lie in different quadratic fields")

    def __add__(self, other: "QuadElem") -> "QuadElem":
        self._check_same_field(other)
        return QuadElem(self.a + other.a, self.b + other.b, self.field)

    def __sub__(self, other: "QuadElem") -> "QuadElem":
        self._check_same_field(other)
        return QuadElem(self.a - other.a, self.b - other.b, self.field)

    def __mul__(self, other: "QuadElem") -> "QuadElem":
        self._check_same_field(other)
        d = self.field.d
        return QuadElem(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            self.field,
        )

    def conjugate(self) -> "QuadElem":
        """Image under the second embedding: a + b*sqrt(d) -> a - b*sqrt(d)."""
        return QuadElem(self.a, -self.b, self.field)

    def trace(self) -> Fraction:
        """sigma1(x) + sigma2(x) = 2a, always rational."""
        return 2 * self.a

    def norm(self) -> Fraction:
        """sigma1(x) * sigma2(x) = a^2 - d*b^2, always rational."""
        return self.a * self.a - self.field.d * self.b * self.b

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d): -1, 0 or 1.

        Case analysis on the signs of a and b; only in the mixed-sign case
        are both sides squared, which is valid because their signs are then
        already known.  No decision of the package rests on it: those are
        made on (2a, 2b) by the integer tests of the module docstring.
        """
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        lhs = a * a
        rhs = b * b * self.field.d
        # lhs == rhs would force d to be a rational square; impossible here.
        assert lhs != rhs
        if lhs > rhs:
            return 1 if a > 0 else -1
        return 1 if b > 0 else -1

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def approx(self) -> float:
        """Floating approximation, for display only (never used in decisions)."""
        return float(self.a) + float(self.b) * math.sqrt(self.field.d)

    def __str__(self) -> str:
        d = self.field.d
        if self.b == 0:
            return str(self.a)
        root = f"sqrt({d})"
        if abs(self.b) != 1:
            root = f"{abs(self.b)}*{root}"
        if self.a == 0:
            return root if self.b > 0 else f"-{root}"
        op = "+" if self.b > 0 else "-"
        return f"{self.a} {op} {root}"


# ---------------------------------------------------------------------------
# Ring of integers and embeddings
# ---------------------------------------------------------------------------

def _is_integral(x, y, d: int) -> bool:
    """(x + y*sqrt(d))/2 lies in O_k: x, y are integers and 4 | x^2 - y^2*d."""
    return x.denominator == y.denominator == 1 and (int(x) ** 2 - int(y) ** 2 * d) % 4 == 0


def _is_elliptic(x: int, y: int, d: int) -> bool:
    """Both embeddings (x +- y*sqrt(d))/2 lie strictly inside (-2, 2)."""
    return abs(x) < 4 and y * y * d < (4 - abs(x)) ** 2


def is_algebraic_integer(x: QuadElem) -> bool:
    """Membership of x in Z + Z*omega, the ring of integers, decided on (2a, 2b)."""
    return _is_integral(2 * x.a, 2 * x.b, x.field.d)


def embed(x: QuadElem, i: int) -> QuadElem:
    """The image of x under the i-th real embedding (i = 1 or 2).

    sigma1 is the identity on components and sigma2 negates b.  Decimal
    renderings of either image come from :meth:`QuadElem.approx`, which is
    explicitly approximate.
    """
    if i == 1:
        return x
    if i == 2:
        return x.conjugate()
    raise ValueError(f"embedding index must be 1 or 2, got {i}")


def is_elliptic_trace(t: QuadElem) -> bool:
    """True if both embeddings of t lie strictly inside (-2, 2).

    Decided on (2a, 2b) by the integer tests of the module docstring.  The
    input must be an algebraic integer of its field; anything else is a
    precondition violation and raises ValueError.
    """
    x, y, d = 2 * t.a, 2 * t.b, t.field.d
    if not _is_integral(x, y, d):
        raise ValueError(f"{t} is not an algebraic integer of Q(sqrt({d}))")
    return _is_elliptic(int(x), int(y), d)


# ---------------------------------------------------------------------------
# Elliptic trace census
# ---------------------------------------------------------------------------

# PSL2 order of the elliptic trace t = (x + y*sqrt(d))/2, keyed by its
# minimal polynomial data (x, x^2 - y^2*d) = (trace(t), 4*norm(t)).
_PSL_ORDER = {
    (0, 0): 2,                  # 0 = 2cos(pi/2)
    (-2, 4): 3, (2, 4): 3,      # -1, 1 = 2cos(2pi/3), 2cos(pi/3)
    (0, -8): 4,                 # +-sqrt(2) = 2cos(pi/4), 2cos(3pi/4)
    (-1, -4): 5, (1, -4): 5,    # (+-1 +- sqrt(5))/2 = 2cos(j*pi/5)
    (0, -12): 6,                # +-sqrt(3) = 2cos(pi/6), 2cos(5pi/6)
}


def _order(x: int, y: int, d: int) -> int:
    return _PSL_ORDER[(x, x * x - y * y * d)]


def _elliptic_scan(d: int):
    """Yield (x, y, PSL2 order) of each elliptic integral trace; |y| <= 2 as d >= 2."""
    for x in range(-3, 4):
        for y in range(-2, 3):
            if _is_integral(x, y, d) and _is_elliptic(x, y, d):
                yield x, y, _order(x, y, d)


def order_from_trace(t: QuadElem) -> int:
    """Order in PSL2 of an elliptic element with trace t.

    The element has order n exactly when t = 2*cos(j*pi/n) with
    gcd(j, n) = 1; the module docstring shows that the seven minimal
    polynomials in the order table are all that can occur.  Raises
    ValueError when t is not an elliptic algebraic-integer trace.
    """
    if not is_elliptic_trace(t):
        raise ValueError(f"{t} is not an elliptic trace")
    return _order(int(2 * t.a), int(2 * t.b), t.field.d)


class TraceCandidate(Record):
    """An elliptic trace together with the PSL2 order it corresponds to."""

    __slots__ = ("trace", "psl_order")

    def __init__(self, trace: QuadElem, psl_order: int) -> None:
        if not is_elliptic_trace(trace):
            raise ValueError("trace candidate must have both embeddings in (-2, 2)")
        if psl_order < 2:
            raise ValueError("PSL2 order of an elliptic element is at least 2")
        object.__setattr__(self, "trace", trace)
        object.__setattr__(self, "psl_order", psl_order)


def elliptic_trace_candidates(field: FieldSpec) -> tuple[TraceCandidate, ...]:
    """The complete finite set of elliptic algebraic-integer traces.

    Each trace t = (x + y*sqrt(d))/2 of the integer scan, with its order
    read from the table by the key (x, x^2 - y^2*d).  Candidates are
    returned sorted by (a, b), which is the (x, y) order of the scan.
    """
    from fractions import Fraction  # on first use: only a QuadElem needs it
    return tuple(
        TraceCandidate(QuadElem(Fraction(x, 2), Fraction(y, 2), field), n)
        for x, y, n in _elliptic_scan(field.d)
    )


def allowed_orders(field: FieldSpec) -> tuple[int, ...]:
    """Sorted set of finite element orders occurring in PSL2 of O_k.

    Read from the integer scan.  Always contains 2 and 3 (traces 0 and +-1
    are elliptic integers in every real quadratic field); for quadratic
    fields the result is a subset of {2, 3, 4, 5, 6}.
    """
    return tuple(sorted({n for _, _, n in _elliptic_scan(field.d)}))
