"""Finite topologies as families of subsets, and their cube-level structure.

A topology on the ground set is a family containing the empty set and the
whole set, closed under binary intersection and union (finiteness makes the
arbitrary-union axiom collapse to the binary one).  Topologies are ordinary
Family values; this module adds the axioms check, generation from a subbase,
counting, disjointness, and moving a topology along an inclusion of ground
sets.  The axioms are checked bit-sliced by one routine, ``_axioms_word``:
given one column per subset (bit j set when family j contains the subset)
it decides a whole batch of families at once, one family per bit.  Counting
and listing run it over the projection words, so Top(X) is one clopen word
of the cube (``topology_word``), and ``is_topology_word``, behind
``Topology``, runs it on one family, its bits as one-bit columns.

Adding a point to the ground set maps family word w to the word of the
subsets whose trace on the old points lies in w: ``cube.add_point``, the
same routine that rebuilds an ultrafilter from its trace, which for the new
top point p is ``w | (w << 2^p)``.  ``embedding_check`` audits that map on
integers alone, the set bits of ``topology_word``, and builds no
``Topology``.  It transposes the images into columns once (``_columns``),
validates every image with one ``_axioms_word`` call, one image per bit,
and checks injectivity with a set.  It then compares strict
inclusion with one row per topology holding the topologies above it: the
AND of the columns of the topology's subsets, read from byte tables, one
table of column ANDs per block of 8 subsets.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from .cube import Family, GroundSet, add_point, cube_word, projection_words, set_bits
from .lattice import close_words
from .report import FAIL, PASS, Report, Stopwatch


def is_topology_word(n: int, word: int) -> bool:
    # one family: its bits as one-bit columns, for the one axioms routine
    return _axioms_word([word >> a & 1 for a in range(1 << n)], 1, n) == 1


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

    def __eq__(self, other) -> bool:
        return isinstance(other, Topology) and self.family == other.family

    def __hash__(self) -> int:
        return hash(("Topology", self.family))

    def __repr__(self) -> str:
        return f"Topology({self.family!r})"


def _certified(universe: GroundSet, word: int) -> Topology:
    """A Topology on a word its caller has already proved to be a topology.

    ``topology_word`` certifies its set bits, and a closure of {empty set,
    whole set, ...} under AND and OR is a topology by construction, so the
    axioms are not checked a second time.
    """
    top = Topology.__new__(Topology)
    top.family = Family(universe, word)
    top.universe = universe
    return top


def top_generate(universe: GroundSet, subbase) -> Topology:
    """The coarsest topology containing the given subsets."""
    closed = close_words({0, universe.full_mask, *subbase})
    return _certified(universe, Family.from_masks(universe, closed).word)


def topology_word(universe: GroundSet) -> int:
    """Top(X) as a clopen word of the cube: bit w is set iff family w is a topology.

    ``_axioms_word`` over the projection words, one bit per family (n <= 4
    only).
    """
    return _axioms_word(projection_words(universe), cube_word(universe), universe.n)


@cache
def _incomparable_pairs(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """(a, b, a & b, a | b) for every pair of incomparable subsets a < b."""
    return tuple((a, b, a & b, a | b) for a, b in combinations(range(1 << n), 2)
                 if a & b not in (a, b))


def _axioms_word(columns, everyone: int, n: int) -> int:
    """Bit j is set exactly when family j is a topology on n points.

    Bit-sliced (TAOCP 4A, 7.1.3): ``columns[a]`` has bit j set when family
    j contains subset a, and ``everyone`` has a bit for every family.  The
    result is H_0 and H_X, and for every pair a, b "not both of a and b, or
    both of a & b and a | b"; a comparable pair meets its term trivially,
    so only the incomparable ones are ANDed in.
    """
    word = columns[0] & columns[(1 << n) - 1]
    for a, b, meet, join in _incomparable_pairs(n):
        word &= (everyone ^ (columns[a] & columns[b])) | (columns[meet] & columns[join])
    return word


def count_topologies(universe: GroundSet) -> int:
    return topology_word(universe).bit_count()


def are_disjoint(s: Topology, t: Topology) -> bool:
    """True when the only opens shared by s and t are the trivial two."""
    trivial = (1 << 0) | (1 << s.universe.full_mask)
    return (s.family.word & t.family.word) == trivial


def inject_topology(t: Topology, big: GroundSet) -> Topology:
    """Push a topology along the inclusion of its ground set into a larger one.

    The image opens are the subsets of the larger set whose trace on the
    smaller one is open: ``cube.add_point`` once per added point.
    """
    small = t.universe
    if big.n < small.n:
        raise ValueError("target ground set must be at least as large")
    word = t.family.word
    for p in range(small.n, big.n):
        word = add_point(word, p, p)
    return Topology(Family(big, word))


def all_topologies(universe: GroundSet) -> list[Topology]:
    return [_certified(universe, w) for w in set_bits(topology_word(universe))]


def _columns(words: list[int], width: int) -> list[int]:
    """The words transposed: bit j of column a is bit a of words[j].

    The words, last first, are written as ``width``-bit strings one after
    another; every ``width``-th character from position width - 1 - a on
    then reads column a, most significant bit first.
    """
    if any(w >> width for w in words):
        raise ValueError(f"a word is not a {width}-bit nonnegative integer")
    bits = "".join([format(w, f"0{width}b") for w in reversed(words)])
    return [int(bits[p::width], 2) for p in range(width - 1, -1, -1)]


def _inclusion_rows(words: list[int], columns: list[int]) -> list[int]:
    """Bit j of row i is set when words[i] is a subset of words[j].

    Row i is the AND of the columns (``_columns(words, ...)``) of the subsets
    in words[i], taken a byte at a time: for each block of 8 subsets a
    256-entry table holds the AND of the columns that every byte picks,
    each entry one AND onto the entry with its highest bit cleared.
    """
    everyone = (1 << len(words)) - 1
    rows = [everyone] * len(words)
    for low in range(0, len(columns), 8):
        table = [everyone]
        for column in columns[low:low + 8]:
            table += [entry & column for entry in table]
        rows = [row & table[(w >> low) & 0xFF] for row, w in zip(rows, words)]
    return rows


def _first_inclusion_mismatch(sources, images, image_columns):
    """The first (i, j), in permutations order, where strict inclusion of
    sources[i] in sources[j] differs from that of images[i] in images[j].

    ``image_columns`` is ``_columns(images, ...)``; the sources are families
    over half as many subsets.  Both lists must hold distinct words: then
    x_i is strictly inside x_j exactly when i != j and bit j of row i is
    set, and every row has bit i, so the two sides agree on every pair
    exactly when their rows are equal.  None when they agree everywhere.
    """
    small = _inclusion_rows(sources, _columns(sources, len(image_columns) // 2))
    large = _inclusion_rows(images, image_columns)
    for i, (r, s) in enumerate(zip(small, large)):
        if r != s:
            diff = r ^ s
            return i, (diff & -diff).bit_length() - 1
    return None


def embedding_check(universe: GroundSet) -> Report:
    """Push every topology one ground-set size up and audit the image.

    The map must be injective and must preserve and reflect strict
    inclusion; both follow from restriction undoing the construction, and
    the sweep confirms it topology by topology, on the set bits of
    ``topology_word``.  The images are validated all at once, one image per
    bit of ``_axioms_word``; a witness lists the open masks of its sources.
    """
    n = universe.n
    timer = Stopwatch("embedding", {"n": n, "target": n + 1})
    words = set_bits(topology_word(universe))
    images = [add_point(w, n, n) for w in words]
    columns = _columns(images, 1 << (n + 1))
    everyone = (1 << len(images)) - 1
    broken = everyone ^ _axioms_word(columns, everyone, n + 1)
    if broken:
        k = (broken & -broken).bit_length() - 1
        return timer.report(FAIL, {"not-a-topology": set_bits(words[k])})
    if len(set(images)) != len(images):
        seen = {}
        for w, image in zip(words, images):
            first = seen.setdefault(image, w)
            if first != w:
                return timer.report(FAIL, {"collision": [set_bits(first), set_bits(w)]})
    mismatch = _first_inclusion_mismatch(words, images, columns)
    if mismatch is not None:
        i, j = mismatch
        return timer.report(FAIL, {"source": set_bits(words[i]),
                                   "other": set_bits(words[j])})
    return timer.report(PASS, notes=[
        f"{len(words)} topologies embedded injectively, strict inclusions intact"
    ])
