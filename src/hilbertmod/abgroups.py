"""Structured direct sums of abelian groups.

An :class:`AbGroupExpr` is a free rank, a multiset of finite cyclic orders,
and a multiset of symbolic summands with multiplicities.  The symbolic part
carries pieces that are known to exist but are not computed here (for
example torsion of K-groups that the built-in tables do not cover), so
results stay honest instead of silently dropping unknown summands.

Expressions are canonicalized on construction (sorted torsion, merged and
sorted symbolic part), so equality is structural.  No Smith normal form is
applied: Z/6 and Z/2 + Z/3 are distinct expressions.
"""

from __future__ import annotations

from collections import Counter

from ._record import Record
from ._text import excerpt, over_digit_cap

__all__ = ["MAX_FREE_RANK", "MAX_TORSION_SUMMANDS", "AbGroupExpr"]

MAX_TORSION_SUMMANDS = 10**4  # cyclic summands one parsed expression may list
MAX_FREE_RANK = 10**100  # free rank one parsed expression may have


class AbGroupExpr(Record):
    __slots__ = ("free_rank", "torsion", "symbolic")

    def __init__(self, free_rank: int = 0, torsion: tuple[int, ...] = (),
                 symbolic: tuple[tuple[str, int], ...] = ()) -> None:
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        tor = tuple(sorted(int(t) for t in torsion))
        if any(t < 2 for t in tor):
            raise ValueError("torsion orders must be >= 2")
        merged: Counter = Counter()
        for token, mult in symbolic:
            if mult < 0:
                raise ValueError("symbolic multiplicities must be nonnegative")
            merged[str(token)] += int(mult)
        sym = tuple(sorted((t, m) for t, m in merged.items() if m > 0))
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", tor)
        object.__setattr__(self, "symbolic", sym)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "AbGroupExpr":
        return cls()

    @classmethod
    def free(cls, rank: int) -> "AbGroupExpr":
        return cls(free_rank=rank)

    @classmethod
    def cyclic(cls, order: int) -> "AbGroupExpr":
        return cls(torsion=(order,))

    @classmethod
    def token(cls, name: str, mult: int = 1) -> "AbGroupExpr":
        return cls(symbolic=((name, mult),))

    # -- algebra -------------------------------------------------------------

    @classmethod
    def direct_sum(cls, parts) -> "AbGroupExpr":
        """Direct sum of any number of expressions, canonicalized once."""
        parts = tuple(parts)
        return cls(
            sum(p.free_rank for p in parts),
            tuple(t for p in parts for t in p.torsion),
            tuple(s for p in parts for s in p.symbolic),
        )

    def __add__(self, other: "AbGroupExpr") -> "AbGroupExpr":
        """Direct sum."""
        return AbGroupExpr.direct_sum((self, other))

    def scaled(self, k: int) -> "AbGroupExpr":
        """Direct sum of k copies of self; at most 10^4 torsion summands."""
        if k < 0:
            raise ValueError("multiplicity must be nonnegative")
        if self.torsion and k * len(self.torsion) > MAX_TORSION_SUMMANDS:
            raise ValueError(f"at most 10^4 torsion summands are supported, "
                             f"{k} copies of {self} have more")
        return AbGroupExpr(
            self.free_rank * k,
            self.torsion * k if self.torsion else (),
            tuple((t, m * k) for t, m in self.symbolic),
        )

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion and not self.symbolic

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Canonical string such as ``Z^2 + Z/2 + 2*Wh0(Z_5)``."""
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        for order, mult in sorted(Counter(self.torsion).items()):
            parts.append(f"Z/{order}" if mult == 1 else f"{mult}*Z/{order}")
        for token, mult in self.symbolic:
            parts.append(token if mult == 1 else f"{mult}*{token}")
        return " + ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.render()

    def to_json(self) -> dict:
        return {
            "render": self.render(),
            "free_rank": self.free_rank,
            "torsion": list(self.torsion),
            "symbolic": [{"token": t, "multiplicity": m} for t, m in self.symbolic],
        }

    # -- parsing (CLI input such as "Z^2 + Z/2" or "0") ----------------------

    @classmethod
    def parse(cls, text: str) -> "AbGroupExpr":
        """Parse ``"Z^2 + 3*Z/2"``; at most 10^4 torsion summands and free rank 10^100.

        Messages quote at most a bounded prefix of the text.
        """
        text = text.strip()
        if text == "0":
            return cls.zero()
        free = 0
        torsion = []
        for raw in text.split("+"):
            term = raw.strip()
            if not term:
                raise ValueError(f"empty summand in {excerpt(text)}")
            mult = 1
            if "*" in term:
                head, _, term = term.partition("*")
                mult = _parse_int(head.strip())
                term = term.strip()
                if mult < 1:
                    raise ValueError("summand multiplicity must be >= 1")
            if term == "Z":
                free += mult
            elif term.startswith("Z^"):
                rank = _parse_int(term[2:])
                if rank < 0:
                    raise ValueError(f"free rank exponents must be nonnegative, "
                                     f"got {excerpt(term)}")
                free += mult * rank
            elif term.startswith("Z/"):
                if len(torsion) + mult > MAX_TORSION_SUMMANDS:
                    raise ValueError(f"at most 10^4 torsion summands are supported, "
                                     f"{excerpt(text)} has more")
                torsion.extend([_parse_int(term[2:])] * mult)
            else:
                raise ValueError(f"cannot parse abelian group summand {excerpt(term)}")
        if free > MAX_FREE_RANK:
            raise ValueError(f"free rank must be at most 10^100, got more in {excerpt(text)}")
        return cls(free_rank=free, torsion=tuple(torsion))


def _parse_int(text: str) -> int:
    """``int(text)``; past 4300 digits a message that names the program's limit."""
    if over_digit_cap(text):
        raise ValueError(f"integers in an abelian group must have at most 4300 digits, "
                         f"got {excerpt(text)}")
    return int(text)
