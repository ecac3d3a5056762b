"""Slow, obviously-correct reference implementations.

Everything here works with frozensets of frozensets and naive loops, never
with the bit-word encodings the engines use, so agreement between the two is
meaningful.  The topology count is done twice over: once by filtering all
families through the axioms, once by counting reflexive transitive relations
(finite topologies and preorders are the same data, via "y is in every open
set containing x").  The lattice cross-checks walk every subcollection, or
every family of the cube, with families as sets of sets.
"""

from __future__ import annotations

from itertools import chain, combinations, product


def powerset(points):
    pts = list(points)
    return [frozenset(c) for r in range(len(pts) + 1) for c in combinations(pts, r)]


def all_families(n: int):
    """Every set of subsets of {0..n-1}; 2^(2^n) of them, keep n tiny."""
    subsets = powerset(range(n))
    for picks in product([False, True], repeat=len(subsets)):
        yield frozenset(s for s, keep in zip(subsets, picks) if keep)


def family_is_topology(n: int, fam) -> bool:
    space = frozenset(range(n))
    if frozenset() not in fam or space not in fam:
        return False
    for a in fam:
        for b in fam:
            if (a & b) not in fam or (a | b) not in fam:
                return False
    return True


def count_topologies_by_filter(n: int) -> int:
    return sum(1 for fam in all_families(n) if family_is_topology(n, fam))


def count_preorders(n: int) -> int:
    """Reflexive transitive relations on n points, counted directly."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    count = 0
    for picks in product([False, True], repeat=len(pairs)):
        rel = {(i, i) for i in range(n)} | {p for p, keep in zip(pairs, picks) if keep}
        if all(
            ((a, d) in rel)
            for (a, b) in rel
            for (c, d) in rel
            if b == c
        ):
            count += 1
    return count


def generated_topology(n: int, subbase) -> frozenset:
    """Arbitrary unions of finite intersections, bounds adjoined; naive."""
    space = frozenset(range(n))
    meets = {space, frozenset()}
    base = list(subbase)
    for r in range(1, len(base) + 1):
        for combo in combinations(base, r):
            m = space
            for s in combo:
                m = m & s
            meets.add(m)
    meets = list(meets)
    opens = set()
    for picks in product([False, True], repeat=len(meets)):
        u = frozenset(chain.from_iterable(m for m, keep in zip(meets, picks) if keep))
        opens.add(u)
    opens.add(space)
    return frozenset(opens)


def principal_ultrafilter(n: int, y: int) -> frozenset:
    """Every subset of {0..n-1} containing point y."""
    return frozenset(s for s in powerset(range(n)) if y in s)


def trace(fam, x: int) -> frozenset:
    """Every member with point x cut away and the points above x moved down."""
    return frozenset(frozenset(p - (p > x) for p in s if p != x) for s in fam)


def reconstruct(fam, x: int) -> frozenset:
    """Every member with the points from x on moved up, without and with x."""
    lifted = frozenset(frozenset(p + (p >= x) for p in s) for s in fam)
    return lifted | {s | {x} for s in lifted}


def inject(n: int, opens, big_n: int, mapping) -> frozenset:
    """Opens on n points pushed along the injective point map into big_n
    points: every subset whose preimage is open, and the whole larger set."""
    image = {frozenset(range(big_n))}
    for s in powerset(range(big_n)):
        if frozenset(y for y in range(n) if mapping[y] in s) in opens:
            image.add(s)
    return frozenset(image)


def is_complete_sublattice(members) -> bool:
    """True when every nonempty subcollection of the families has its
    intersection and union among them (False for no families)."""
    pool = set(members)
    if not pool:
        return False
    fams = list(pool)
    for r in range(1, len(fams) + 1):
        for combo in combinations(fams, r):
            if frozenset.intersection(*combo) not in pool:
                return False
            if frozenset.union(*combo) not in pool:
                return False
    return True


def join_escape_witness(members):
    """A subcollection of the families whose union is not among them, or
    None when every union stays inside."""
    fams = list(dict.fromkeys(members))
    pool = set(fams)
    for r in range(2, len(fams) + 1):
        for combo in combinations(fams, r):
            if frozenset.union(*combo) not in pool:
                return frozenset(combo)
    return None


def chain_joins_meets(n: int, chain) -> tuple[frozenset, frozenset]:
    """For every family on n points comparable with each family of the
    chain: the union of the chain part strictly below it and the
    intersection of the part strictly above it, skipping empty parts."""
    joins, meets = set(), set()
    for b in all_families(n):
        if all(b <= c or c <= b for c in chain):
            below = [c for c in chain if c < b]
            above = [c for c in chain if b < c]
            if below:
                joins.add(frozenset.union(*below))
            if above:
                meets.add(frozenset.intersection(*above))
    return frozenset(joins), frozenset(meets)


def chain_completion(n: int, chain) -> frozenset:
    """The chain with its intersection and union adjoined, and the joins and
    meets of ``chain_joins_meets``."""
    fams = list(chain)
    joins, meets = chain_joins_meets(n, fams)
    ends = {frozenset.intersection(*fams), frozenset.union(*fams)}
    return frozenset(fams) | ends | joins | meets
