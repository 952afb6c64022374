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
  |x| < 4 and y^2*d < (4 - |x|)^2.  Then y^2*d < 16, i.e.
  |y| <= isqrt(15 // d): 2 for d in {2, 3}, 1 for d up to 15 and 0 from
  d = 16 on, so the scan tries 35, 21 or 7 pairs (x, y).

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

Integrality, ellipticity and order are decided in one place, on the
integer pair (x, y) of t = (x + y*sqrt(d))/2, by the two tests above, and
the census holds each trace as that pair, so no decision compares an
irrational quantity with a rational one.
"""
from __future__ import annotations

import math

from ._record import Record
from .cyclicreps import _trial_divisors

__all__ = [
    "FieldSpec",
    "MAX_D",
    "TraceCandidate",
    "is_square_free",
    "elliptic_trace_candidates",
    "allowed_orders",
]


# Largest d accepted; its cube root, 10^4, bounds the trial division of the
# square-free test.
MAX_D = 10**12


def is_square_free(n: int) -> bool:
    """True if n >= 1 and no square of a prime divides n.

    Trial division runs only while f^3 <= n.  The cofactor left then has no
    prime factor below its cube root, so it is 1, a prime, a product of two
    primes or the square of one, and it is square-free unless it is a
    square greater than 1.
    """
    if n < 1:
        return False
    for f in _trial_divisors():
        if f * f * f > n:
            break
        if n % f == 0:
            n //= f
            if n % f == 0:
                return False
    return n == 1 or math.isqrt(n) ** 2 != n


class FieldSpec(Record):
    """The real quadratic field Q(sqrt(d)) for a square-free d in [2, MAX_D]."""

    __slots__ = ("d",)

    def __init__(self, d: int) -> None:
        if not (2 <= d <= MAX_D and is_square_free(d)):
            raise ValueError(f"d must be a square-free integer in [2, 10^12], got {d}")
        object.__setattr__(self, "d", d)

    def omega_str(self) -> str:
        """Second element of the integral basis (1, omega) of O_k."""
        if self.d % 4 == 1:
            return f"(1+sqrt({self.d}))/2"
        return f"sqrt({self.d})"


# ---------------------------------------------------------------------------
# Integrality and ellipticity of t = (x + y*sqrt(d))/2
# ---------------------------------------------------------------------------

def _is_integral(x: int, y: int, d: int) -> bool:
    """(x + y*sqrt(d))/2 lies in O_k: 4 | x^2 - y^2*d."""
    return (x * x - y * y * d) % 4 == 0


def _is_elliptic(x: int, y: int, d: int) -> bool:
    """Both embeddings (x +- y*sqrt(d))/2 lie strictly inside (-2, 2)."""
    return abs(x) < 4 and y * y * d < (4 - abs(x)) ** 2


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
    """Yield (x, y, PSL2 order) of each elliptic integral trace, in (x, y) order.

    Ellipticity needs y^2*d < (4 - |x|)^2 <= 16, so only the y with
    |y| <= isqrt(15 // d) are tried: 7 pairs for every d >= 16.
    """
    ymax = math.isqrt(15 // d)
    for x in range(-3, 4):
        for y in range(-ymax, ymax + 1):
            if _is_integral(x, y, d) and _is_elliptic(x, y, d):
                yield x, y, _order(x, y, d)


def _half(n: int) -> str:
    """n/2 as the lowest-terms fraction text: 1, -1/2, 0."""
    return str(n // 2) if n % 2 == 0 else f"{n}/2"


class TraceCandidate(Record):
    """The elliptic trace t = (x + y*sqrt(d))/2 of a field, with its PSL2 order."""

    __slots__ = ("x", "y", "field", "psl_order")

    def __init__(self, x: int, y: int, field: FieldSpec, psl_order: int) -> None:
        if not (_is_integral(x, y, field.d) and _is_elliptic(x, y, field.d)):
            raise ValueError("trace candidate must have both embeddings in (-2, 2)")
        if psl_order < 2:
            raise ValueError("PSL2 order of an elliptic element is at least 2")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "psl_order", psl_order)

    def embeddings(self) -> tuple[float, float]:
        """Both real embeddings (x +- y*sqrt(d))/2 as floats, for display only
        (never used in decisions)."""
        a, b = self.x / 2, self.y / 2 * math.sqrt(self.field.d)
        return a + b, a - b

    def __str__(self) -> str:
        """t as a + b*sqrt(d) with a, b in lowest terms: 1, -sqrt(2),
        1/2 - 1/2*sqrt(5)."""
        x, y = self.x, self.y
        if y == 0:
            return _half(x)
        root = f"sqrt({self.field.d})"
        if abs(y) != 2:
            root = f"{_half(abs(y))}*{root}"
        if x == 0:
            return root if y > 0 else f"-{root}"
        return f"{_half(x)} {'+' if y > 0 else '-'} {root}"


def elliptic_trace_candidates(field: FieldSpec) -> tuple[TraceCandidate, ...]:
    """The complete finite set of elliptic algebraic-integer traces.

    Each trace t = (x + y*sqrt(d))/2 of the integer scan, with its order
    read from the table by the key (x, x^2 - y^2*d).  Candidates are
    returned sorted by (x, y), the order of the scan.
    """
    return tuple(TraceCandidate(x, y, field, n) for x, y, n in _elliptic_scan(field.d))


def allowed_orders(field: FieldSpec) -> tuple[int, ...]:
    """Sorted set of finite element orders occurring in PSL2 of O_k.

    Read from the integer scan.  Always contains 2 and 3 (traces 0 and +-1
    are elliptic integers in every real quadratic field); for quadratic
    fields the result is a subset of {2, 3, 4, 5, 6}.
    """
    return tuple(sorted({n for _, _, n in _elliptic_scan(field.d)}))
