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
H_q(BM) -> K_q(Z[M]) that are rationally injective; the page records this
as :attr:`E1Page.d1_rationally_injective` instead of modeling d1 itself.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from . import finitek
from .assembler import ClassCounts

__all__ = [
    "PropertyMViolationError",
    "NodeKind",
    "NodeTag",
    "OrbitPoset",
    "Chain",
    "TokenKind",
    "CoeffToken",
    "E1Page",
    "enumerate_pchains",
    "build_E1",
    "rank_E1_column",
    "psl_poset",
    "sl_poset",
]


class PropertyMViolationError(Exception):
    """A maximal node lies strictly below another node."""


class NodeKind(Enum):
    TRIVIAL = "trivial"
    CENTRAL = "central"
    MAXIMAL = "maximal"


@dataclass(frozen=True)
class NodeTag:
    kind: NodeKind
    order: int | None = None  # cyclic order of the subgroup for MAXIMAL/CENTRAL

    def __post_init__(self) -> None:
        if self.kind is NodeKind.CENTRAL and self.order is None:
            object.__setattr__(self, "order", 2)


class OrbitPoset:
    """Isomorphism classes of orbits with their strict order relation.

    ``less`` pairs may be any generating set; the transitive closure is
    taken on construction and cycles are rejected.  ``tags`` (label ->
    :class:`NodeTag`) are optional for pure chain enumeration but required
    by :func:`build_E1`.
    """

    def __init__(self, nodes, less, tags=None):
        self.nodes = tuple(nodes)
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node labels")
        index = {v: i for i, v in enumerate(self.nodes)}
        n = len(self.nodes)
        closed = [[False] * n for _ in range(n)]
        for a, b in less:
            if a == b:
                raise ValueError(f"strict order cannot relate {a!r} to itself")
            closed[index[a]][index[b]] = True
        for k in range(n):
            for i in range(n):
                if closed[i][k]:
                    row_k = closed[k]
                    row_i = closed[i]
                    for j in range(n):
                        if row_k[j]:
                            row_i[j] = True
        for i in range(n):
            if closed[i][i]:
                raise ValueError("relation has a cycle; not a strict partial order")
        self._index = index
        self._closed = closed
        self.less = frozenset(
            (self.nodes[i], self.nodes[j])
            for i in range(n) for j in range(n) if closed[i][j]
        )
        self.tags = dict(tags or {})

    def lt(self, a: str, b: str) -> bool:
        return self._closed[self._index[a]][self._index[b]]

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class Chain:
    """A strictly increasing sequence of p+1 node labels (a p-chain)."""

    nodes: tuple[str, ...]

    @property
    def p(self) -> int:
        return len(self.nodes) - 1

    @property
    def least(self) -> str:
        return self.nodes[0]


def enumerate_pchains(poset: OrbitPoset, p: int) -> list[Chain]:
    """All p-chains of the poset, in deterministic lexicographic order.

    Chains are grown one node at a time: each chain of length k extends by
    every node strictly above its top, so the work follows the chains that
    exist rather than the node subsets.  A chain is a totally ordered
    subset, so sorting by the ascending node positions of that subset
    lists the chains in the lexicographic order of their node sets.
    """
    if p < 0:
        raise ValueError("chain length index p must be nonnegative")
    chains = [(v,) for v in poset.nodes]
    for _ in range(p):
        chains = [c + (v,) for c in chains for v in poset.nodes if poset.lt(c[-1], v)]
    chains.sort(key=lambda c: sorted(poset._index[v] for v in c))
    return [Chain(c) for c in chains]


class TokenKind(Enum):
    K_GROUP_RING = "Kq(Z[M])"
    H_BG = "Hq(BG)"
    H_BM = "Hq(BM)"
    WHITEHEAD = "Whq(M)"


@dataclass(frozen=True)
class CoeffToken:
    """A tagged coefficient atom; ``order`` is the cyclic order of M."""

    kind: TokenKind
    order: int | None = None


@dataclass
class E1Page:
    """Column index -> formal sum of coefficient tokens (with multiplicity).

    Columns that index no chains are simply absent and read back as the
    zero sum.  ``d1_rationally_injective`` records that the assembly maps
    feeding column 0 are rationally injective, so ranks of the abutment
    can be read off by subtracting column ranks.
    """

    columns: dict = field(default_factory=dict)
    d1_rationally_injective: bool = True

    def column(self, p: int) -> Counter:
        return self.columns.get(p, Counter())

    def add(self, p: int, token: CoeffToken, mult: int = 1) -> None:
        self.columns.setdefault(p, Counter())[token] += mult

    def max_column(self) -> int:
        return max(self.columns, default=-1)


def _tag_of(poset: OrbitPoset, label: str) -> NodeTag:
    tag = poset.tags.get(label)
    if tag is None:
        raise ValueError(f"node {label!r} carries no subgroup tag; "
                         f"build the poset with tags to assemble a page")
    return tag


def _check_property_m(poset: OrbitPoset) -> None:
    for a, b in poset.less:
        if _tag_of(poset, a).kind is NodeKind.MAXIMAL:
            raise PropertyMViolationError(
                f"maximal node {a!r} lies below {b!r}; property (M) fails"
            )


def _check_class_counts(poset: OrbitPoset, class_counts: ClassCounts) -> None:
    maximal = Counter(
        tag.order for tag in poset.tags.values() if tag.kind is NodeKind.MAXIMAL
    )
    if maximal != Counter(dict(class_counts.entries)):
        raise ValueError("poset maximal nodes do not match the class counts")


def _all_chains(poset: OrbitPoset) -> list[Chain]:
    chains = []
    for p in range(len(poset)):
        at_p = enumerate_pchains(poset, p)
        if not at_p:
            break  # a longer chain would contain a chain of this length
        chains.extend(at_p)
    return chains


def build_E1(
    poset: OrbitPoset,
    relative_to_trivial: bool,
    class_counts: ClassCounts | None = None,
) -> E1Page:
    """Assemble the symbolic first page over a tagged orbit poset.

    ``relative_to_trivial`` selects the pair against the trivial family:
    every chain whose least element is the trivial orbit is dropped.  When
    a central node remains it takes over the bottom role and the page is
    the absolute page of the quotient poset; with no central node the
    surviving maximal 0-chains carry Wh tokens.  ``class_counts``, when
    given, is cross-checked against the poset's maximal nodes.
    """
    for label in poset.nodes:
        _tag_of(poset, label)
    _check_property_m(poset)
    if class_counts is not None:
        _check_class_counts(poset, class_counts)

    trivial_nodes = [v for v in poset.nodes
                     if poset.tags[v].kind is NodeKind.TRIVIAL]
    central_nodes = [v for v in poset.nodes
                     if poset.tags[v].kind is NodeKind.CENTRAL]
    if len(trivial_nodes) > 1 or len(central_nodes) > 1:
        raise ValueError("at most one trivial and one central node are supported")

    chains = _all_chains(poset)
    if relative_to_trivial:
        if not trivial_nodes:
            raise ValueError("relative page needs a trivial orbit to quotient by")
        trivial = trivial_nodes[0]
        chains = [c for c in chains if c.least != trivial]
        bottom = central_nodes[0] if central_nodes else None
        pair_mode = bottom is None
    else:
        if central_nodes:
            raise ValueError(
                "absolute page over a poset with a central node is not supported; "
                "use the relative page, which matches the projective absolute page"
            )
        if not trivial_nodes:
            raise ValueError("absolute page needs the trivial orbit")
        bottom = trivial_nodes[0]
        pair_mode = False

    page = E1Page()
    for chain in chains:
        kinds = [poset.tags[v].kind for v in chain.nodes]
        if pair_mode:
            # Pair page with no intermediate node: only maximal 0-chains
            # survive, one Wh token each.
            if chain.p == 0 and kinds == [NodeKind.MAXIMAL]:
                page.add(0, CoeffToken(TokenKind.WHITEHEAD, poset.tags[chain.least].order))
                continue
            raise ValueError(f"unexpected surviving chain {chain.nodes} in pair page")
        if chain.p == 0:
            if chain.least == bottom:
                page.add(0, CoeffToken(TokenKind.H_BG))
            elif kinds == [NodeKind.MAXIMAL]:
                page.add(0, CoeffToken(TokenKind.K_GROUP_RING, poset.tags[chain.least].order))
            else:
                raise ValueError(f"unexpected 0-chain {chain.nodes}")
        elif chain.p == 1 and chain.least == bottom and kinds[1] is NodeKind.MAXIMAL:
            page.add(1, CoeffToken(TokenKind.H_BM, poset.tags[chain.nodes[1]].order))
        else:
            raise ValueError(f"unexpected chain {chain.nodes} on an absolute page")
    return page


def rank_E1_column(
    page: E1Page,
    p: int,
    q: int,
    rank_k=finitek.rank_K_cyclic,
    rank_h=finitek.rank_H_BM,
) -> int:
    """Numeric rank of column p in degree q.

    H_q(BG) contributes a symbolic 0, so column subtractions produce the
    difference rank K_q(Z[G]) - rank H_q(BG; K(Z)) rather than an absolute
    rank.  Wh tokens evaluate to rank K_q(Z[M]) - rank H_q(BM; K(Z)),
    which is the rational size of Wh_q(M) under the injectivity recorded
    on the page.
    """
    total = 0
    for token, mult in page.column(p).items():
        if token.kind is TokenKind.H_BG:
            continue
        if token.order is None:
            raise ValueError(f"token {token} carries no subgroup order")
        if token.kind is TokenKind.K_GROUP_RING:
            total += mult * rank_k(token.order, q).value
        elif token.kind is TokenKind.H_BM:
            total += mult * rank_h(token.order, q)
        else:
            total += mult * (rank_k(token.order, q).value - rank_h(token.order, q))
    return total


def _maximal_labels(class_counts_or_m) -> list[tuple[str, int | None]]:
    if isinstance(class_counts_or_m, ClassCounts):
        labels = []
        i = 0
        for n, count in class_counts_or_m.entries:
            for _ in range(count):
                i += 1
                labels.append((f"G/M{i}", n))
        return labels
    m = int(class_counts_or_m)
    if m < 0:
        raise ValueError("number of maximal classes must be nonnegative")
    return [(f"G/M{i}", None) for i in range(1, m + 1)]


def psl_poset(class_counts_or_m) -> OrbitPoset:
    """Orbit poset of the projective group: G/1 below m maximal nodes.

    Accepts either :class:`ClassCounts` (nodes tagged with their orders)
    or a bare count m (untagged maximal orders, enough for chain counting).
    """
    maximal = _maximal_labels(class_counts_or_m)
    nodes = ["G/1"] + [lab for lab, _ in maximal]
    less = [("G/1", lab) for lab, _ in maximal]
    tags = {"G/1": NodeTag(NodeKind.TRIVIAL)}
    tags.update({lab: NodeTag(NodeKind.MAXIMAL, order) for lab, order in maximal})
    return OrbitPoset(nodes, less, tags)


def sl_poset(class_counts_or_m) -> OrbitPoset:
    """Orbit poset of the non-projective group: G/1 < G/{+-I} < each maximal."""
    maximal = _maximal_labels(class_counts_or_m)
    center = "G/{+-I}"
    nodes = ["G/1", center] + [lab for lab, _ in maximal]
    less = [("G/1", center)]
    for lab, _ in maximal:
        less += [("G/1", lab), (center, lab)]
    tags = {"G/1": NodeTag(NodeKind.TRIVIAL), center: NodeTag(NodeKind.CENTRAL)}
    tags.update({lab: NodeTag(NodeKind.MAXIMAL, order) for lab, order in maximal})
    return OrbitPoset(nodes, less, tags)
