"""Whitehead groups and K-theory rank differences of (P)SL2 over O_k.

For groups in which every finite subgroup lies in a unique self-normalizing
maximal finite subgroup (and those maximal subgroups are cyclic), the
Whitehead groups split as a direct sum over the conjugacy classes of
maximal finite subgroups, and the difference

    rank K_q(Z[G]) - rank H_q(BG; K(Z))

is the sum over those classes of the same difference for the subgroup,

    sum_(M) rank K_q(Z[M]) - rank H_q(BM; K(Z)),

where rank H_q(BM; K(Z)) is 1 on the rows q = 0 and q = 1 mod 4, q > 2,
and 0 otherwise.  :func:`rank_diff` implements this directly;
:func:`rank_diff_from_case_table` transcribes the expanded per-row table
instead (using the representation counts, not the K-rank helper), and the
two must agree everywhere.  At q = -1 the per-row form is read as
m - sum_(M) [ q(M) - sum_{p | |M|} (k_p(M) - r_p(M)) ], the only
parenthesization consistent with the direct formula, and summed class by
class as sum_(M) [ 1 - q(M) + sum_{p | |M|} (k_p(M) - r_p(M)) ], with q(M),
k_p(M) and r_p(M) read off one factorization of |M|.

Class-count data is a user input except for the one built-in entry d = 5,
where the maximal finite subgroups are Z_2, Z_3, Z_5 with two conjugacy
classes each and the projective group is perfect.  Everything else must be
supplied explicitly rather than silently derived.
"""

from __future__ import annotations

from enum import Enum

from ._record import Record
from ._text import excerpt, over_digit_cap
from .abgroups import AbGroupExpr
from .cyclicreps import _q_and_local, c_count, q_count, r_count, require_order
from .finitek import rank_H_BM, rank_K_cyclic, wh_cyclic
from .quadfield import FieldSpec, allowed_orders

__all__ = [
    "MAX_CLASS_ENTRIES",
    "MAX_CLASS_COUNT",
    "MissingClassDataError",
    "MissingAbelianizationError",
    "Mode",
    "ClassCounts",
    "GroupData",
    "BUILTIN_CLASS_COUNTS",
    "PERFECT_FIELDS",
    "class_counts_for_field",
    "group_data_for_field",
    "whitehead_psl",
    "whitehead_sl",
    "rank_diff",
    "rank_diff_from_case_table",
]


class MissingClassDataError(Exception):
    """No built-in conjugacy-class counts for this field; pass them explicitly."""

    def __init__(self, d: int):
        self.d = d
        super().__init__(
            f"no built-in class counts for d={d}; supply counts per maximal "
            f"subgroup order, e.g. --classes 2:2,3:2,5:2"
        )


class MissingAbelianizationError(Exception):
    """Wh_1 of the non-projective group needs the abelianization of the quotient."""


class Mode(Enum):
    PSL = "psl"
    SL = "sl"


# The one field with built-in data: d = 5 has maximal finite subgroups
# Z_2, Z_3, Z_5, two conjugacy classes each, and a perfect projective group.
BUILTIN_CLASS_COUNTS: dict[int, dict[int, int]] = {5: {2: 2, 3: 2, 5: 2}}
PERFECT_FIELDS = frozenset({5})
MAX_CLASS_ENTRIES = 10**4  # distinct subgroup orders in one class-count table
# classes of one order: keeps every count, sum and scaled summand far below
# the 4,300 digits that int-to-str conversion accepts
MAX_CLASS_COUNT = 10**100


class ClassCounts(Record):
    """Conjugacy classes of maximal finite subgroups: order -> class count."""

    __slots__ = ("entries",)  # (cyclic order, count), ascending order

    def __init__(self, entries: tuple[tuple[int, int], ...]) -> None:
        entries = tuple(sorted((int(n), int(c)) for n, c in entries))
        if len(entries) > MAX_CLASS_ENTRIES:
            raise ValueError(f"at most 10^4 class-count entries are supported, got {len(entries)}")
        orders = [n for n, _ in entries]
        if any(n < 2 for n in orders):
            raise ValueError("maximal finite subgroup orders must be >= 2")
        if any(c < 1 for _, c in entries):
            raise ValueError("class counts must be >= 1")
        if any(c > MAX_CLASS_COUNT for _, c in entries):
            raise ValueError("class counts must be at most 10^100")
        if len(set(orders)) != len(orders):
            raise ValueError("duplicate subgroup order in class counts")
        for n in orders:
            require_order(n)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def parse(cls, spec: str) -> "ClassCounts":
        """Parse ``"2:2,3:2,5:2"`` (orders ascending, duplicates rejected)."""
        entries = []
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if not chunk:
                raise ValueError(f"empty entry in class spec {excerpt(spec)}")
            order_s, sep, count_s = chunk.partition(":")
            # int() refuses past 4,300 digits, naming its own limit; no colon: malformed
            if sep and over_digit_cap(order_s):
                raise ValueError(f"group order must be in [1, 10^7], "
                                 f"got {len(order_s)} characters")
            if over_digit_cap(count_s):
                raise ValueError("class counts must be at most 10^100")
            try:
                entries.append((int(order_s), int(count_s)))
            except ValueError:  # no colon, a second colon, or a field int() cannot read
                raise ValueError(f"expected order:count, got {excerpt(chunk)}") from None
        if [n for n, _ in entries] != sorted({n for n, _ in entries}):
            raise ValueError("orders must be ascending and distinct")
        return cls(tuple(entries))

    @property
    def m(self) -> int:
        """Total number of conjugacy classes (always recomputed)."""
        return sum(c for _, c in self.entries)


class GroupData(Record):
    """(P)SL2 input data: where it came from, its class counts, and mode.

    In SL mode the central order-2 subgroup is implicit; ``class_counts``
    always describes the maximal finite subgroups of the projective
    quotient.  For field-backed data, the subgroup orders are validated
    against the orders that elliptic elements of the field actually allow.
    """

    __slots__ = ("source", "class_counts", "mode", "abelianization")

    def __init__(self, source: FieldSpec | str, class_counts: ClassCounts,
                 mode: Mode = Mode.PSL, abelianization: AbGroupExpr | None = None) -> None:
        if isinstance(source, FieldSpec):
            legal = set(allowed_orders(source))
            claimed = {n for n, _ in class_counts.entries}
            if not claimed <= legal:
                raise ValueError(
                    f"orders {sorted(claimed - legal)} cannot occur in "
                    f"PSL2 of Q(sqrt({source.d})); allowed: {sorted(legal)}"
                )
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "class_counts", class_counts)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "abelianization", abelianization)

    def label(self) -> str:
        if isinstance(self.source, FieldSpec):
            return f"Q(sqrt({self.source.d}))"
        return self.source


def class_counts_for_field(field: FieldSpec) -> ClassCounts:
    """Built-in class-count table lookup (currently only d = 5)."""
    table = BUILTIN_CLASS_COUNTS.get(field.d)
    if table is None:
        raise MissingClassDataError(field.d)
    return ClassCounts(tuple(table.items()))


def group_data_for_field(field: FieldSpec, mode: Mode = Mode.PSL) -> GroupData:
    """GroupData from the built-in table, with the known perfectness facts."""
    counts = class_counts_for_field(field)
    ab = AbGroupExpr.zero() if field.d in PERFECT_FIELDS else None
    return GroupData(source=field, class_counts=counts, mode=mode, abelianization=ab)


def whitehead_psl(g: GroupData, q: int) -> AbGroupExpr:
    """Wh_q of the projective group: direct sum of Wh_q(Z_n) over classes."""
    if g.mode is not Mode.PSL:
        raise ValueError("whitehead_psl needs PSL-mode group data")
    return AbGroupExpr.direct_sum(wh_cyclic(n, q).scaled(count)
                                  for n, count in g.class_counts.entries)


def whitehead_sl(g: GroupData, q: int) -> AbGroupExpr:
    """Wh_q of the non-projective group, determined for q <= 1.

    q = 1 needs the abelianization of the projective quotient (the result
    is Wh_1(PSL) + ab + Z/2); q = 0 adds a free summand Z; q = -1 is the
    direct sum of the K_{-1}(Z[M]); below that everything vanishes.
    """
    if g.mode is not Mode.SL:
        raise ValueError("whitehead_sl needs SL-mode group data")
    if q > 1:
        raise ValueError("Wh_q of the non-projective group is only determined for q <= 1")
    psl_view = GroupData(g.source, g.class_counts, Mode.PSL, g.abelianization)
    if q == 1:
        if g.abelianization is None:
            raise MissingAbelianizationError(
                "Wh_1 in SL mode needs the abelianization of the projective "
                "quotient; pass it explicitly (it is zero for a perfect group)"
            )
        return whitehead_psl(psl_view, 1) + g.abelianization + AbGroupExpr.cyclic(2)
    if q == 0:
        return whitehead_psl(psl_view, 0) + AbGroupExpr.free(1)
    # q <= -1: Wh_q(SL) is the direct sum of K_q(Z[M]); for q < -1 the
    # K-groups of finite groups vanish, and wh_cyclic returns exactly the
    # K_{-1} expression at q = -1.
    return whitehead_psl(psl_view, q)


def rank_diff(g: GroupData, q: int) -> int:
    """rank K_q(Z[G]) - rank H_q(BG; K(Z)) for the projective group.

    Direct form: the sum over the conjugacy classes (M) of maximal finite
    subgroups of rank K_q(Z[M]) - rank H_q(BM; K(Z)).
    """
    if g.mode is not Mode.PSL:
        raise ValueError("the rank difference formula applies to the projective group")
    return sum(count * (rank_K_cyclic(n, q) - rank_H_BM(n, q))
               for n, count in g.class_counts.entries)


def rank_diff_from_case_table(g: GroupData, q: int) -> int:
    """Second route to :func:`rank_diff`: the expanded per-row table.

    Written against the representation counts directly (not the K-rank
    helper), so the two code paths share only the counts, which the tests
    check against orbit oracles.  Each row is one pass over the classes
    (M) with count classes each, adding per class:

    * q > 2, q = 1 mod 4: count * (r(M) - 1), the K-rank less the
      rank-one homology;
    * q > 2, q = 3 mod 4: count * c(M);
    * q = 1: count * (r(M) - q(M));
    * q = -1: count * (1 - q(M) + sum_{p | |M|} (k_p(M) - r_p(M)));
    * q = 0, and every other q: nothing, since at q = 0 each class has
      K-rank 1 and one rank-one homology class.
    """
    if g.mode is not Mode.PSL:
        raise ValueError("the rank difference formula applies to the projective group")
    total = 0
    if q > 2:
        row = q % 4
        if row == 1:
            for n, count in g.class_counts.entries:
                total += count * (r_count(n) - 1)
        elif row == 3:
            for n, count in g.class_counts.entries:
                total += count * c_count(n)
    elif q == 1:
        for n, count in g.class_counts.entries:
            total += count * (r_count(n) - q_count(n))
    elif q == -1:
        for n, count in g.class_counts.entries:
            divisors, local = _q_and_local(n)
            total += count * (1 - divisors + sum(kp - rp for _, kp, rp in local))
    return total
