"""Rank tables for K_q(Z[Z_n]) and Whitehead data of finite cyclic groups.

The rational rank of K_q(Z[M]) for M cyclic of order n:

    r(M)                                    q > 2, q = 1 mod 4
    c(M)                                    q > 2, q = 3 mod 4
    r(M) - q(M)                             q = 1
    1                                       q = 0
    1 - q(M) + sum_{p | n} (k_p - r_p)      q = -1
    0                                       otherwise

together with the rank of H_q(BM; K(Z)), which for finite M is the rank of
K_q(Z): 1 at q = 0 and at q = 1 mod 4, q > 2, and 0 otherwise.

Torsion of the K-groups is never computed here; where a Whitehead group has
an undetermined torsion part it is carried symbolically in the returned
:class:`~hilbertmod.abgroups.AbGroupExpr` (tokens ``SK1(Z_n)``,
``Wh0(Z_n)``, ``K-1tors(Z_n)``) so downstream direct sums remain honest.
The only torsion facts baked in are the classical small ones: Wh_1 of
Z_n vanishes for n <= 6, and the finiteness obstruction group Wh_0
vanishes for n <= 4.
"""

from __future__ import annotations

from enum import Enum
from math import prod

from .abgroups import AbGroupExpr
from .cyclicreps import _q_and_local, prime_powers, require_order

__all__ = [
    "RankCase",
    "rank_case",
    "rank_K_cyclic",
    "rank_H_BM",
    "wh_cyclic",
]


class RankCase(Enum):
    Q1_MOD4 = "q>2, q=1 mod 4"
    Q3_MOD4 = "q>2, q=3 mod 4"
    Q_IS_1 = "q=1"
    Q_IS_0 = "q=0"
    Q_IS_MINUS_1 = "q=-1"
    ZERO = "otherwise"


_ABOVE_2 = (RankCase.ZERO, RankCase.Q1_MOD4, RankCase.ZERO, RankCase.Q3_MOD4)  # q > 2, by q % 4
_UP_TO_2 = {1: RankCase.Q_IS_1, 0: RankCase.Q_IS_0, -1: RankCase.Q_IS_MINUS_1}  # else ZERO


def rank_case(q: int) -> RankCase:
    """Which row of the rank table applies to homological degree q."""
    return _ABOVE_2[q % 4] if q > 2 else _UP_TO_2.get(q, RankCase.ZERO)


def rank_K_cyclic(n: int, q: int) -> int:
    """Rational rank of K_q(Z[Z_n]), with n checked once.

    q > 2 reads q % 4: r(n) = n // 2 + 1 at 1, c(n) = (n - 1) // 2 at 3,
    else 0.  q = 1 is r(n) minus the divisor count q(n) of n's prime powers;
    q = 0 is 1; q = -1 is 1 - q(n) + sum_p (k_p - r_p) over the triples
    that cyclicreps reads off one factorization; every other q is 0.
    """
    require_order(n)
    if q > 2:  # rows by q % 4, as in rank_case
        row = q % 4
        if row == 1:
            return n // 2 + 1
        return (n - 1) // 2 if row == 3 else 0
    if q == 1:
        return n // 2 + 1 - prod(a + 1 for _, a in prime_powers(n))
    if q == 0:
        return 1
    if q == -1:
        divisors, local = _q_and_local(n)
        return 1 - divisors + sum(kp - rp for _, kp, rp in local)
    return 0


def rank_H_BM(n: int, q: int) -> int:
    """Rank of H_q(BM; K(Z)) for M finite cyclic of order n.

    Rationally only H_0(BM; Q) survives, so this is the rank of K_q(Z):
    1 on the rows q = 0 and q = 1 mod 4 with q > 2, else 0.
    """
    require_order(n)
    return 1 if q == 0 or q > 2 and q % 4 == 1 else 0


def wh_cyclic(n: int, q: int) -> AbGroupExpr:
    """Whitehead group Wh_q(Z_n) as a structured expression.

    q = 1: free rank r(n) - q(n); the torsion part SK1 vanishes for
    n <= 6 and is kept symbolic beyond that.  q = 0: zero for n <= 4,
    otherwise the symbolic finiteness obstruction summand.  q = -1: free
    part of K_{-1}(Z[Z_n]) plus a symbolic 2-torsion summand.  q < -1:
    zero.  For q >= 2 nothing integral is pinned down and the whole group
    stays one symbolic token.
    """
    require_order(n)
    if n == 1:
        return AbGroupExpr.zero()
    if q >= 2:
        return AbGroupExpr.token(f"Wh{q}(Z_{n})")
    if q == 1:
        free = rank_K_cyclic(n, 1)
        if n <= 6:
            return AbGroupExpr.free(free)
        return AbGroupExpr(free_rank=free, symbolic=((f"SK1(Z_{n})", 1),))
    if q == 0:
        if n <= 4:
            return AbGroupExpr.zero()
        return AbGroupExpr.token(f"Wh0(Z_{n})")
    if q == -1:
        free = rank_K_cyclic(n, -1)
        return AbGroupExpr(free_rank=free, symbolic=((f"K-1tors(Z_{n})", 1),))
    return AbGroupExpr.zero()
