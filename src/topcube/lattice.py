"""Sublattices of the cube of families, closure, and chain completion.

A family of subsets of a finite ground set is one point of the Boolean
lattice of all families; collections of families are subsets of that
lattice.  This module builds the sublattice generated by a collection,
enumerates the families comparable with everything in a collection,
tests completeness properties, and completes chains by the closed-form
recipe: adjoin the meet and join of the whole chain and, for every
comparable family b, the join of the part of the chain below b and the
meet of the part strictly above it.

``close_words`` is the one routine closing a set of words under AND and
OR; topology generation runs through it too.  An ``OmegaChain`` is
increasing by definition, so its completion point is coordinatewise
eventual membership, and every sampled omega-chain check (here and in
``certificates``) reads its coordinates through one walker,
``_entry_stages``: given the stage list a check builds once, it returns
each coordinate's first stage, raises when a later stage drops a
coordinate, and rejects an empty stage list, so a depth or bound below 1
is a ValueError rather than a vacuous verdict.
"""

from __future__ import annotations

import random
from itertools import combinations

from .cube import Family, GroundSet, cube_word, family_word, interval_words, set_bits
from .famexpr import FamExpr, LatGenSing
from .report import FAIL, INCONCLUSIVE, PASS, Report, Stopwatch
from .upsets import UPSet

JOIN_WITNESS_SAMPLE = 8  # singletons of the candidate checked for membership
CHAIN_SAMPLES = 100  # seeded random chains drawn by chain_completion_check at n >= 3


def close_words(universe: GroundSet, words) -> frozenset[int]:
    """Close a set of family words under bitwise AND and OR.

    Words under AND and OR form a distributive lattice, so the sublattice
    generated by G is the set of joins of meets of G: by distributivity the
    meet of two such joins is the join of the pairwise meets of their
    parts, again a join of meets.  Adding one word g to a set M closed under
    an operation o keeps it closed once the words g o m (m in M) join it,
    so the meets are built one generator at a time, then their joins the
    same way.
    """
    meets: set[int] = set()
    for g in set(words):
        if g not in meets:
            meets.update([g & m for m in meets])
            meets.add(g)
    joins: set[int] = set()
    for g in meets:
        if g not in joins:
            joins.update([g | j for j in joins])
            joins.add(g)
    return frozenset(joins)


class FiniteSublattice:
    """A finite collection of families closed under meet and join."""

    def __init__(self, universe: GroundSet, members):
        words = frozenset(family_word(universe, m) for m in members)
        if not words:
            raise ValueError("a sublattice has at least one member")
        for w, v in combinations(words, 2):
            if (w & v) not in words or (w | v) not in words:
                raise ValueError("member collection is not closed under meet/join")
        self.universe = universe
        self.words = words

    def __contains__(self, fam: Family) -> bool:
        return fam.universe.n == self.universe.n and fam.word in self.words


def lat_generate(universe: GroundSet, gens) -> FiniteSublattice:
    """The smallest meet/join-closed collection containing the generators."""
    return _generated(universe, [family_word(universe, g) for g in gens])


def _generated(universe: GroundSet, words: list[int]) -> FiniteSublattice:
    """``lat_generate`` on words already checked to be families of ``universe``.

    What ``close_words`` returns is closed by construction, so it is wrapped
    without the constructor's pairwise re-check.
    """
    if not words:
        raise ValueError("need at least one generating family")
    lat = FiniteSublattice.__new__(FiniteSublattice)
    lat.universe = universe
    lat.words = close_words(universe, words)
    return lat


def relations_set(universe: GroundSet, collection) -> frozenset[Family]:
    """All families comparable with every member of the collection.

    Solved over the whole cube as a clopen word, so the ground set is
    capped at sweep size.  The families above w are those containing every
    set in w, the families below w those omitting every set outside it, and
    the result is the AND over w of those two words ORed.
    """
    fams = list(collection)
    if not fams:
        raise ValueError("comparability needs a nonempty collection")
    if any(f.universe != universe for f in fams):
        raise ValueError(f"every family must live on the n={universe.n} ground set")
    word = cube_word(universe)
    for w in {f.word for f in fams}:
        up, down = interval_words(universe, w)
        word &= up | down
    return frozenset(Family(universe, g) for g in set_bits(word))


def is_complete_sublattice(universe: GroundSet, members) -> bool:
    """True when every nonempty subcollection has its meet and join inside.

    Exists to cross-check the closure constructor: on finite collections
    this coincides with binary closure, and the test suite leans on that.
    """
    words = sorted(family_word(universe, m) for m in members)
    pool = set(words)
    if not pool:
        return False
    for r in range(1, len(words) + 1):
        for combo in combinations(words, r):
            meet = join = combo[0]
            for w in combo[1:]:
                meet &= w
                join |= w
            if meet not in pool or join not in pool:
                return False
    return True


def join_escape_witness(universe: GroundSet, members) -> frozenset[Family] | None:
    """A subcollection whose union escapes, or None when join-complete."""
    fams = [Family(universe, family_word(universe, m)) for m in members]
    pool = {f.word for f in fams}
    for r in range(2, len(fams) + 1):
        for combo in combinations(fams, r):
            join = 0
            for f in combo:
                join |= f.word
            if join not in pool:
                return frozenset(combo)
    return None


def join_completeness_witness(gens, candidate: UPSet) -> Report:
    """Certify that a singleton-closed generated family misses a join.

    The family generated from ``gens`` (nonempty sets whose uncovered part
    is finite, singletons included by construction) contains every
    singleton drawn from ``candidate``, so the candidate is a union of
    members.  The check passes when the candidate itself is *not* a
    member: the union of members escapes, so the family is not closed
    under arbitrary joins.  Needs an infinite candidate -- a finite one is
    a finite union and can never escape.
    """
    if candidate.is_finite:
        raise ValueError("a finite candidate cannot witness a missing join")
    timer = Stopwatch("join-gap-witness", {})
    family = LatGenSing(list(gens))
    points = candidate.first_members(JOIN_WITNESS_SAMPLE)
    timer.params.update(generators=len(family.gens), sampled_singletons=points)
    for k in points:
        if not family.contains(UPSet.singleton(k)):
            return timer.report(FAIL, {"missing_singleton": k})
    if family.contains(candidate):
        return timer.report(FAIL, {"candidate_is_member": candidate.describe()})
    return timer.report(
        PASS,
        notes=[
            f"all {len(points)} sampled singletons of {candidate.describe()} are members",
            "the candidate itself is not",
        ],
    )


def _is_chain(words: list[int]) -> bool:
    return all(
        (w & v) in (w, v) for w, v in combinations(words, 2)
    )


def chain_completion_finite(universe: GroundSet, chain) -> frozenset[Family]:
    """Complete a finite chain of families inside the cube.

    Adjoins the meet and join of the whole chain, and for every family b
    comparable with all of the chain, the join of the chain part below b
    and the meet of the part strictly above b (skipping empty parts).
    The result is again a chain and contains the input.
    """
    fams = list(chain)
    if not fams:
        raise ValueError("cannot complete an empty chain")
    words = [f.word for f in fams]
    if not _is_chain(words):
        raise ValueError("input collection is not totally ordered")

    meet = join = words[0]
    for w in words[1:]:
        meet &= w
        join |= w
    out = set(words) | {meet, join}

    for b in relations_set(universe, fams):
        bw = b.word
        below = [w for w in words if (w & bw) == w and w != bw]
        above = [w for w in words if (w & bw) == bw and w != bw]
        if below:
            j = 0
            for w in below:
                j |= w
            out.add(j)
        if above:
            m = above[0]
            for w in above[1:]:
                m &= w
            out.add(m)

    return frozenset(Family(universe, w) for w in out)


def _completion_violation(universe: GroundSet, words: list[int]) -> str | None:
    fams = [Family(universe, w) for w in words]
    completed = chain_completion_finite(universe, fams)
    result = sorted(f.word for f in completed)
    if not set(words) <= set(result):
        return "input not contained in completion"
    if not _is_chain(result):
        return "completion is not totally ordered"
    meet = join = words[0]
    for w in words[1:]:
        meet &= w
        join |= w
    if meet not in result or join not in result:
        return "completion misses the chain's own meet or join"
    return None


def random_chain(universe: GroundSet, rng: random.Random, max_len: int) -> list[Family]:
    """A strictly increasing run of families, grown by switching on bits."""
    size = 1 << universe.num_subsets
    word = rng.randrange(size)
    words = [word]
    target = rng.randint(1, max_len)
    while len(words) < target:
        zeros = [b for b in range(universe.num_subsets) if not (word >> b) & 1]
        if not zeros:
            break
        for b in rng.sample(zeros, rng.randint(1, len(zeros))):
            word |= 1 << b
        words.append(word)
    return [Family(universe, w) for w in words]


def chain_completion_check(universe: GroundSet, seed: int = 0, max_len: int = 4) -> Report:
    """Exercise the completion recipe over many chains.

    At two points the sweep is exhaustive over every chain of bounded
    length; on larger ground sets it draws CHAIN_SAMPLES seeded random
    increasing runs.  Each completion must contain its input, stay totally
    ordered, and hold the chain's meet and join.  A chain of distinct
    families has at most 2^n + 1 members, so the exhaustive sweep stops
    there whatever ``max_len`` says.
    """
    timer = Stopwatch("chain-completion", {"n": universe.n, "max_len": max_len})
    if universe.n <= 2:
        size = 1 << universe.num_subsets
        tried = 0
        for r in range(1, min(max_len, universe.num_subsets + 1) + 1):
            for combo in combinations(range(size), r):
                if not _is_chain(list(combo)):
                    continue
                tried += 1
                problem = _completion_violation(universe, list(combo))
                if problem:
                    return timer.report(FAIL, {"chain": list(combo), "problem": problem})
        note = f"exhaustive: {tried} chains of length at most {max_len}"
    else:
        timer.params.update(seed=seed, samples=CHAIN_SAMPLES)
        rng = random.Random(seed)
        for _ in range(CHAIN_SAMPLES):
            chain = random_chain(universe, rng, max_len)
            words = [f.word for f in chain]
            problem = _completion_violation(universe, words)
            if problem:
                return timer.report(FAIL, {"chain": words, "problem": problem})
        note = f"{CHAIN_SAMPLES} seeded chains of length at most {max_len}"
    return timer.report(PASS, notes=[note])


class OmegaChain:
    """An increasing sequence of symbolic families with a declared union.

    ``rule(m)`` gives the m-th stage; membership of any probed coordinate
    must be monotone in m, and every check walking the stages raises on a
    drop.  The declared union is what the stages are supposed to converge
    to coordinate-wise; it is checked, not trusted.
    """

    def __init__(self, rule, union: FamExpr):
        self.rule = rule
        self.union = union


def _entry_stages(stages: list[FamExpr], coords) -> list[int | None]:
    """Each coordinate's first stage index, or None where no stage holds it.

    The one walker over omega-chain stages.  The list must be nonempty (a
    check that looked at no stage has nothing to say), and membership must
    never drop once gained: either raises ValueError.
    """
    if not stages:
        raise ValueError("an omega-chain check needs at least one stage")
    entries = []
    for w in coords:
        entry = None
        for i, s in enumerate(stages):
            if s.contains(w):
                if entry is None:
                    entry = i
            elif entry is not None:
                raise ValueError(
                    f"stage {i} dropped {w.describe()}: sequence is not increasing"
                )
        entries.append(entry)
    return entries


def chain_completion_omega(chain: OmegaChain, coords, bound: int = 64) -> Report:
    """Check the declared union of an increasing chain on probe coordinates.

    Coordinate-wise eventual membership is the completion point of the
    chain, so for every probed coordinate the membership sequence along
    the stages must be monotone (a drop raises -- the input was not a
    chain) and its settled value must agree with the declared union.  A
    coordinate the union claims but no stage reaches before the bound is
    undecidable here: the stages may pick it up later or never, so the
    check comes back inconclusive rather than failed.  A bound below 1
    raises.
    """
    coords = list(coords)
    timer = Stopwatch("omega-completion", {"bound": bound, "coordinates": len(coords)})
    entries = _entry_stages([chain.rule(i) for i in range(bound)], coords)
    notes = [f"declared union: {chain.union!r}"]
    pending: list[str] = []
    for w, entered_at in zip(coords, entries):
        in_union = chain.union.contains(w)
        if entered_at is not None and not in_union:
            return timer.report(
                FAIL,
                {"coordinate": w.to_json(), "entered_at_stage": entered_at, "in_union": False},
                notes=notes,
            )
        if entered_at is not None:
            notes.append(f"{w.describe()} stabilizes true at stage {entered_at}")
        elif in_union:
            pending.append(w.describe())
        else:
            notes.append(f"{w.describe()} stays false through stage {bound - 1}")
    if pending:
        return timer.report(
            INCONCLUSIVE, {"in_union_but_settled_by_no_stage": pending}, notes=notes
        )
    return timer.report(PASS, notes=notes)
