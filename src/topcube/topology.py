"""Finite topologies as families of subsets, and their cube-level structure.

A topology on the ground set is a family containing the empty set and the
whole set, closed under binary intersection and union (finiteness makes the
arbitrary-union axiom collapse to the binary one).  Topologies are ordinary
Family values; this module adds the axioms check, generation from a subbase,
counting, atoms of the topology lattice, disjointness, and moving a topology
along an inclusion of ground sets.  Counting and listing read Top(X) as one
clopen word of the cube (``topology_word``); ``is_topology_word`` stays the
per-family validator behind ``Topology``.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .cube import Family, GroundSet, cube_word, projection_words, set_bits
from .lattice import close_words
from .report import FAIL, PASS, Report, Stopwatch


def is_topology_word(n: int, word: int) -> bool:
    full = (1 << n) - 1
    if not (word >> 0) & 1 or not (word >> full) & 1:
        return False
    masks = [m for m in range(1 << n) if (word >> m) & 1]
    k = len(masks)
    for i in range(k):
        a = masks[i]
        for j in range(i + 1, k):
            b = masks[j]
            if not (word >> (a & b)) & 1 or not (word >> (a | b)) & 1:
                return False
    return True


def is_topology(fam: Family) -> bool:
    return is_topology_word(fam.universe.n, fam.word)


class Topology:
    """A Family validated against the topology axioms."""

    def __init__(self, fam: Family):
        if not is_topology(fam):
            raise ValueError("family is not a topology")
        self.family = fam
        self.universe = fam.universe

    @classmethod
    def trivial(cls, universe: GroundSet) -> "Topology":
        return cls(Family.from_masks(universe, [0, universe.full_mask]))

    @classmethod
    def discrete(cls, universe: GroundSet) -> "Topology":
        return cls(Family(universe, (1 << universe.num_subsets) - 1))

    def open_masks(self) -> list[int]:
        return self.family.member_masks()

    def __len__(self) -> int:
        return len(self.family)

    def __eq__(self, other) -> bool:
        return isinstance(other, Topology) and self.family == other.family

    def __hash__(self) -> int:
        return hash(("Topology", self.family))

    def __le__(self, other: "Topology") -> bool:
        return self.family <= other.family

    def __repr__(self) -> str:
        return f"Topology({self.family!r})"

    def to_json(self) -> dict:
        data = self.family.to_json()
        data["topology"] = True
        return data

    @classmethod
    def from_json(cls, data: dict) -> "Topology":
        if data.get("topology") is not True:
            raise ValueError("missing topology marker")
        payload = {k: v for k, v in data.items() if k != "topology"}
        return cls(Family.from_json(payload))


def top_generate(universe: GroundSet, subbase) -> Topology:
    """The coarsest topology containing the given subsets."""
    masks = {0, universe.full_mask, *subbase}
    return Topology(Family.from_masks(universe, close_words(universe, masks)))


def topology_word(universe: GroundSet) -> int:
    """Top(X) as a clopen word of the cube: bit w is set iff family w is a topology.

    H_0 and H_X, and for every pair of subsets a < b, "not both of a and b,
    or both of a & b and a | b" (n <= 4 only).
    """
    has = projection_words(universe)
    full = cube_word(universe)
    word = has[0] & has[universe.full_mask]
    for a, b in combinations(range(universe.num_subsets), 2):
        both = has[a] & has[b]
        word &= (full ^ both) | (has[a & b] & has[a | b])
    return word


def count_topologies(universe: GroundSet) -> int:
    return topology_word(universe).bit_count()


def atoms_of(universe: GroundSet) -> frozenset[Topology]:
    """The minimal nontrivial topologies: trivial plus one proper subset."""
    if universe.n < 2:
        raise ValueError("a one-point space has no nontrivial topologies")
    full = universe.full_mask
    out = set()
    for m in range(1, full):
        out.add(Topology(Family.from_masks(universe, [0, m, full])))
    return frozenset(out)


def are_disjoint(s: Topology, t: Topology) -> bool:
    """True when the only opens shared by s and t are the trivial two."""
    trivial = (1 << 0) | (1 << s.universe.full_mask)
    return (s.family.word & t.family.word) == trivial


def inject_topology(t: Topology, big: GroundSet, mapping=None) -> Topology:
    """Push a topology along an injection of its ground set into a larger one.

    Point y of the source lands at mapping[y] (identity when omitted).  The
    image opens are the subsets of the larger set whose preimage is open,
    together with the larger set itself adjoined.
    """
    small = t.universe
    if big.n < small.n:
        raise ValueError("target ground set must be at least as large")
    if mapping is None:
        mapping = range(small.n)
    mapping = [mapping[y] for y in range(small.n)]
    if len(set(mapping)) != small.n or not all(0 <= p < big.n for p in mapping):
        raise ValueError("point map must place the ground set injectively")
    open_small = set(t.open_masks())
    masks = {big.full_mask}
    for m in range(1 << big.n):
        pre = 0
        for y, p in enumerate(mapping):
            if (m >> p) & 1:
                pre |= 1 << y
        if pre in open_small:
            masks.add(m)
    return Topology(Family.from_masks(big, masks))


def all_topologies(universe: GroundSet) -> list[Topology]:
    return [Topology(Family(universe, w)) for w in set_bits(topology_word(universe))]


def embedding_check(universe: GroundSet) -> Report:
    """Push every topology one ground-set size up and audit the image.

    The map must be injective and must preserve and reflect strict
    inclusion; both follow from restriction undoing the construction, and
    the sweep confirms it topology by topology.
    """
    timer = Stopwatch("embedding", {"n": universe.n, "target": universe.n + 1})
    big = GroundSet(universe.n + 1)
    tops = all_topologies(universe)
    images = [inject_topology(t, big) for t in tops]
    if len(set(images)) != len(tops):
        return timer.report(FAIL, {"collision": True})
    pairs = [(t, t.family.word, i.family.word) for t, i in zip(tops, images)]
    for (s, x, ix), (t, y, iy) in permutations(pairs, 2):
        if (x != y and x & y == x) != (ix != iy and ix & iy == ix):
            return timer.report(FAIL, {"source": s.open_masks(), "other": t.open_masks()})
    return timer.report(PASS, notes=[
        f"{len(tops)} topologies embedded injectively, strict inclusions intact"
    ])
