"""Chains in restricted orbit posets and the symbolic first page they span.

For a group with properties (M) and (NM), the isomorphism classes of orbits
G/H with H in the family of maximal finite subgroups (plus the trivial and,
in SL mode, central subgroup) form a small poset, and the first page of the
associated spectral sequence is indexed by its p-chains: strictly
increasing sequences of p+1 classes.  Because Aut(G/H) = N(H)/H is trivial
for maximal H, no space-level data survives and the page reduces to a
formal sum of coefficient tokens per column:

* absolute page over the projective poset (bottom node G/1 under m
  incomparable maximal nodes): column 0 holds H_q(BG) and one K_q(Z[M])
  per class, column 1 one H_q(BM) per class, higher columns vanish;
* relative page (pair against the trivial family): chains whose least
  element is G/1 are dropped.  Over the projective poset only the maximal
  0-chains survive and each carries a Wh_q(M) token.  Over the SL poset
  (G/1 < G/{+-I} < G/M_i) the drop removes every 2-chain, the central node
  takes over the bottom role, and the page coincides with the absolute
  page of the projective poset.

The differentials out of column 1 are induced by assembly maps
H_q(BM) -> K_q(Z[M]) that are rationally injective, so ranks are read off
the page (a dict of column Counters) by subtracting columns.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum

from . import finitek
from ._record import Record
from .assembler import ClassCounts

__all__ = [
    "MAX_CLASSES",
    "OrbitPoset",
    "SubgroupPoset",
    "TokenKind",
    "CoeffToken",
    "enumerate_pchains",
    "build_E1",
    "rank_E1_column",
    "psl_poset",
    "sl_poset",
]

MAX_CLASSES = 10**4  # maximal conjugacy classes in one orbit poset


class OrbitPoset:
    """Isomorphism classes of orbits with their strict order relation.

    ``less`` pairs may be any generating set and must name nodes of the
    poset.  The order is stored as per-node up-sets (the nodes strictly
    above each node), closed on construction by a depth-first search along
    the generating pairs, so the star-shaped orbit posets cost O(m).
    Cycles are rejected.  Any such poset has p-chains; a first page needs
    the orbit poset of the group itself, a :class:`SubgroupPoset`.
    """

    def __init__(self, nodes, less):
        self.nodes = tuple(nodes)
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node labels")
        self._index = {v: i for i, v in enumerate(self.nodes)}
        succ = {v: [] for v in self.nodes}
        for a, b in less:
            if a == b:
                raise ValueError(f"strict order cannot relate {a!r} to itself")
            if a not in succ or b not in succ:
                raise ValueError(f"pair ({a!r}, {b!r}) names a node outside the poset")
            succ[a].append(b)
        self._above = {}
        for v in self.nodes:
            above, stack = set(), list(succ[v])
            while stack:
                w = stack.pop()
                if w not in above:
                    above.add(w)
                    stack.extend(succ[w])
            if v in above:
                raise ValueError("relation has a cycle; not a strict partial order")
            self._above[v] = above

    def lt(self, a: str, b: str) -> bool:
        return b in self._above[a]

    def __len__(self) -> int:
        return len(self.nodes)


class SubgroupPoset(OrbitPoset):
    """The orbit poset of the projective or non-projective group.

    For a group with properties (M) and (NM) it always has one shape: the
    bottom ``chain`` G/1, or G/1 < G/{+-I}, below one node G/Mi per
    conjugacy class of maximal finite subgroups.  ``orders`` holds the
    cyclic orders of those classes in node order, each ``None`` when the
    poset was built from a bare count m.  Only :func:`psl_poset` and
    :func:`sl_poset` build one.
    """

    def __init__(self, class_counts_or_m, chain: tuple[str, ...]) -> None:
        counted = isinstance(class_counts_or_m, ClassCounts)
        m = class_counts_or_m.m if counted else int(class_counts_or_m)
        if m < 0:
            raise ValueError("number of maximal classes must be nonnegative")
        if m > MAX_CLASSES:
            raise ValueError(f"number of maximal classes must be at most 10^4, got {m}")
        self.chain = chain
        self.orders = (tuple(n for n, count in class_counts_or_m.entries for _ in range(count))
                       if counted else (None,) * m)
        maximal = [f"G/M{i}" for i in range(1, m + 1)]
        super().__init__([*chain, *maximal],
                         [*zip(chain, chain[1:]), *((chain[-1], v) for v in maximal)])


def enumerate_pchains(poset: OrbitPoset, p: int) -> list[tuple[str, ...]]:
    """All p-chains of the poset as tuples of labels, in lexicographic order.

    Chains are grown one node at a time: each chain extends by every node
    in the up-set of its top, so the work follows the chains that exist
    rather than the node subsets, and it stops as soon as no chain is left.
    A chain is a totally ordered subset, so sorting by the ascending node
    positions of that subset lists the chains in the lexicographic order
    of their node sets.
    """
    if p < 0:
        raise ValueError("chain length index p must be nonnegative")
    chains = [(v,) for v in poset.nodes]
    for _ in range(p):
        chains = [c + (v,) for c in chains for v in poset._above[c[-1]]]
        if not chains:
            break  # a chain of p+1 nodes needs one of every shorter length
    chains.sort(key=lambda c: sorted(poset._index[v] for v in c))
    return chains


class TokenKind(Enum):
    K_GROUP_RING = "Kq(Z[M])"
    H_BG = "Hq(BG)"
    H_BM = "Hq(BM)"
    WHITEHEAD = "Whq(M)"


# module globals for rank_E1_column's per-degree loop, read ~8x faster than Enum members
_K_GROUP_RING = TokenKind.K_GROUP_RING
_H_BG = TokenKind.H_BG
_H_BM = TokenKind.H_BM


class CoeffToken(Record):
    """A tagged coefficient atom; ``order`` is the cyclic order of M."""

    __slots__ = ("kind", "order")

    def __init__(self, kind: TokenKind, order: int | None = None) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "order", order)


def build_E1(
    poset: SubgroupPoset,
    relative_to_trivial: bool,
    class_counts: ClassCounts | None = None,
) -> dict[int, Counter]:
    """Assemble the symbolic first page over the orbit poset of the group.

    The page maps each nonempty column p to a Counter of tokens.  Its d1 comes
    from rationally injective assembly maps, so ranks are column differences.

    The poset is the one :func:`psl_poset` or :func:`sl_poset` builds; a
    count-only poset gives tokens without orders, which
    :func:`rank_E1_column` refuses.  ``relative_to_trivial`` selects the
    pair against the trivial family: chains whose least element is G/1 are
    dropped, G/{+-I} takes over the bottom role, and without it the
    maximal 0-chains carry Wh tokens.  The absolute page over the SL poset
    is refused.  ``class_counts``, when given, is cross-checked against the
    poset's maximal orders.
    """
    if not isinstance(poset, SubgroupPoset):
        raise ValueError("a first page needs the orbit poset that psl_poset or sl_poset builds")
    chain = poset.chain
    if class_counts is not None and Counter(poset.orders) != Counter(dict(class_counts.entries)):
        raise ValueError("poset maximal nodes do not match the class counts")
    if len(chain) > 1 and not relative_to_trivial:
        raise ValueError("absolute page over a poset with a central node is not supported; "
                         "use the relative page, which matches the projective absolute page")

    # A chain runs G/1 < G/{+-I} < G/Mi with steps left out, so every
    # 2-chain starts at G/1: the absolute page (PSL poset only) has none
    # and the relative page drops them.  Column 0 reads the kept nodes,
    # column 1 the pairs v < w of their up-sets, each in enumerate_pchains'
    # order: by ascending node positions.
    above, index = poset._above, poset._index
    order = dict(zip(poset.nodes[len(chain):], poset.orders))
    drop = 1 if relative_to_trivial else 0  # the relative page drops G/1
    kept, bottom = poset.nodes[drop:], chain[drop:drop + 1]  # bottom: () or one label
    kind = TokenKind.K_GROUP_RING if bottom else TokenKind.WHITEHEAD
    pairs = sorted((sorted((index[v], index[w])), w) for v in kept for w in above[v])
    columns = (Counter(CoeffToken(TokenKind.H_BG) if v in bottom
                       else CoeffToken(kind, order[v]) for v in kept),
               Counter(CoeffToken(TokenKind.H_BM, order[w]) for _, w in pairs))
    return {p: column for p, column in enumerate(columns) if column}


def rank_E1_column(page: dict[int, Counter], p: int, q: int,
                   rank_k=finitek.rank_K_cyclic) -> int:
    """Numeric rank of column p in degree q.

    H_q(BG) contributes a symbolic 0, so column subtractions produce the
    difference rank K_q(Z[G]) - rank H_q(BG; K(Z)) rather than an absolute
    rank.  Wh tokens evaluate to rank K_q(Z[M]) - rank H_q(BM; K(Z)),
    which is the rational size of Wh_q(M) because the assembly maps
    H_q(BM) -> K_q(Z[M]) are rationally injective.
    """
    total = 0
    for token, mult in (page.get(p) or {}).items():
        kind, order = token.kind, token.order
        if kind is _H_BG:
            continue
        if order is None:
            raise ValueError(f"token {token} carries no subgroup order")
        if kind is _K_GROUP_RING:
            total += mult * rank_k(order, q)
        elif kind is _H_BM:
            total += mult * finitek.rank_H_BM(order, q)
        else:
            total += mult * (rank_k(order, q) - finitek.rank_H_BM(order, q))
    return total


def psl_poset(class_counts_or_m) -> SubgroupPoset:
    """Orbit poset of the projective group: G/1 below m maximal nodes.

    Accepts either :class:`ClassCounts` (nodes with their orders) or a bare
    count m (orders ``None``, enough for chain counting).
    """
    return SubgroupPoset(class_counts_or_m, ("G/1",))


def sl_poset(class_counts_or_m) -> SubgroupPoset:
    """Orbit poset of the non-projective group: G/1 < G/{+-I} < each maximal."""
    return SubgroupPoset(class_counts_or_m, ("G/1", "G/{+-I}"))
