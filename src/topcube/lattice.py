"""Sublattices of the cube of families, closure, and chain completion.

A family of subsets of a finite ground set is one point of the Boolean
lattice of all families; collections of families are subsets of that
lattice.  This module builds the sublattice generated by a collection,
enumerates the families comparable with everything in a collection, and
completes a finite chain c_1 < ... < c_k by its closed form: every c_j
below the top is the join of the chain part below some comparable family,
and c_k is one unless it is the full family; the meets mirror this with
c_1 and the empty family.  No family of the cube is listed or swept.

``close_words`` is the one routine closing a set of words under AND and
OR; topology generation runs through it too.  At most three distinct words
are closed by the 18 terms of the free distributive lattice on three
generators, evaluated once each; more are closed incrementally, meets first
by ``cube.meet_closure``, which ``famexpr`` shares, then joins.  An omega
chain is given as a stage rule and a declared top, ``(stage, top)``:
``stage(m)`` is the m-th stage, and the chain is increasing by definition,
so its completion point is coordinatewise eventual membership.  Every
sampled omega-chain check (here and in ``certificates``) reads its verdict
from one walker, ``_settle``: given the stage list a check builds once and
the declared top, it returns each coordinate's first stage, the
coordinates locked off the top and those the top holds but no stage
reaches.  It raises when a later stage drops a coordinate and rejects an
empty stage list, so a depth or bound below 1 is a ValueError rather than
a vacuous verdict.
"""

from __future__ import annotations

import random
from itertools import combinations

from .cube import (Family, GroundSet, cube_word, family_word, interval_words, meet_closure,
                   set_bits)
from .famexpr import FamExpr, LatGenSing
from .report import FAIL, INCONCLUSIVE, PASS, Report, Stopwatch
from .upsets import UPSet

JOIN_WITNESS_SAMPLE = 8  # singletons of the candidate checked for membership
CHAIN_SAMPLES = 100  # seeded random chains drawn by chain_completion_check at n >= 3


def close_words(words) -> frozenset[int]:
    """Close a set of family words under bitwise AND and OR.

    Words under AND and OR form a distributive lattice, so the sublattice
    generated by G is the set of joins of meets of G: by distributivity the
    meet of two such joins is the join of the pairwise meets of their
    parts, again a join of meets.

    At most three distinct words a, b, c (one or two are repeated to fill
    the three places) generate an image of the free distributive lattice on
    three generators, so the closure is its 18 elements' normal forms
    evaluated on the words: a, b, c; ab, ac, bc, abc; a|b, a|c, b|c, a|b|c;
    a|bc, b|ac, c|ab; ab|ac, ab|bc, ac|bc, ab|ac|bc, where ab is a & b.
    The branch depends only on the count of distinct words.  Four or more
    distinct words are closed
    incrementally: adding one word g to a set M closed under an operation
    o keeps it closed once the words g o m (m in M) join it, so the meets
    are built one generator at a time (``cube.meet_closure``), then their
    joins the same way.  An empty input is refused: it generates nothing.
    """
    distinct = set(words)
    if not distinct:
        raise ValueError("need at least one generating family")
    if len(distinct) <= 3:
        a, b, c = (*distinct, *distinct, *distinct)[:3]
        ab, ac, bc = a & b, a & c, b & c
        return frozenset((a, b, c, ab, ac, bc, ab & c, a | b, a | c, b | c, a | b | c,
                          a | bc, b | ac, c | ab, ab | ac, ab | bc, ac | bc, ab | ac | bc))
    meets = meet_closure(set(), distinct)
    joins: set[int] = set()
    for g in meets:
        if g not in joins:
            joins.update([g | j for j in joins])
            joins.add(g)
    return frozenset(joins)


def lat_generate(universe: GroundSet, gens) -> frozenset[int]:
    """The words of the smallest meet/join-closed collection containing the
    generators."""
    return close_words([family_word(universe, g) for g in gens])


def relations_set(universe: GroundSet, collection) -> frozenset[Family]:
    """All families comparable with every member of the collection.

    The families above w are those containing every set in w, the families
    below w those omitting every set outside it, and the comparable ones
    are the AND over w of those two words ORed.  Whole-cube words, so the
    ground set is capped at sweep size; each pair comes from
    ``cube.interval_words``.
    """
    fams = list(collection)
    if not fams:
        raise ValueError("comparability needs a nonempty collection")
    if any(f.universe != universe for f in fams):
        raise ValueError(f"every family must live on the n={universe.n} ground set")
    rel = cube_word(universe)
    for w in {f.word for f in fams}:
        up, down = interval_words(universe.n, w)
        rel &= up | down
    return frozenset(Family(universe, g) for g in set_bits(rel))


def join_completeness_witness(gens, candidate: UPSet, points=None) -> Report:
    """Certify that a singleton-closed generated family misses a join.

    The family generated from ``gens`` (nonempty sets whose uncovered part
    is finite, singletons included by construction) contains every
    singleton drawn from ``candidate``, so the candidate is a union of
    members.  The check samples the singletons at ``points`` (by default
    the candidate's first JOIN_WITNESS_SAMPLE members) and passes when the
    candidate itself is *not* a member: the union of members escapes, so
    the family is not closed under arbitrary joins.  ValueError refuses a
    finite candidate (a finite union can never escape), and a pass on no
    points or on a point outside the candidate.
    """
    if candidate.is_finite:
        raise ValueError("a finite candidate cannot witness a missing join")
    timer = Stopwatch("join-gap-witness", {})
    family = LatGenSing(list(gens))
    if points is None:
        points = candidate.first_members(JOIN_WITNESS_SAMPLE)
    singles = [UPSet.singleton(k) for k in points]
    timer.params.update(generators=len(family.gens), sampled_singletons=list(points))
    for k, single in zip(points, singles):
        if not family.contains(single):
            return timer.report(FAIL, {"missing_singleton": k})
    if family.contains(candidate):
        return timer.report(FAIL, {"candidate_is_member": candidate.describe()})
    if not points or any(k not in candidate for k in points):
        raise ValueError(f"sampled points {points} must be one or more members of the "
                         f"candidate {candidate.describe()}")
    return timer.report(
        PASS,
        notes=[
            f"all {len(points)} sampled singletons of {candidate.describe()} are members",
            "the candidate itself is not",
        ],
    )


def _is_chain(ws: list[int]) -> bool:
    # For increasing distinct words.  A proper superset word is the larger
    # integer, so a chain in increasing order is in inclusion order, and
    # inclusion is transitive.
    return all((w & v) == w for w, v in zip(ws, ws[1:]))


def chain_completion_finite(universe: GroundSet, chain) -> frozenset[Family]:
    """Complete a finite chain of families inside the cube.

    The distinct members, sorted, are c_1 < ... < c_k; the meet and join of
    the whole chain are c_1 and c_k, and the rest of the completion is the
    closed form of ``_chain_joins_meets``.  No word of the cube is built,
    so any ground set will do.  The result contains the input and is again
    a chain.
    """
    words = [family_word(universe, f) for f in chain]
    if not words:
        raise ValueError("cannot complete an empty chain")
    cs = sorted(set(words))
    if not _is_chain(cs):
        raise ValueError("input collection is not totally ordered")
    joins, meets = _chain_joins_meets(universe, cs)
    return frozenset(Family(universe, w) for w in {*cs, *joins, *meets})


def _chain_joins_meets(universe: GroundSet, cs: list[int]) -> tuple[list[int], list[int]]:
    """The members of the chain c_1 < ... < c_k (distinct words, increasing)
    that are the join of the chain part strictly below, or the meet of the
    part strictly above, some family b comparable with the whole chain:
    the joins, then the meets.

    For j < k, b = c_(j+1) is comparable with the whole chain and lies
    strictly above exactly c_1, ..., c_j, so c_j is a join; c_k is one
    when some family lies strictly above it, that is unless c_k is the
    full family, and no other join exists, since the part below any b is
    a prefix.  The meets mirror this: c_2, ..., c_k, and c_1 unless it is
    the empty family.
    """
    full = (1 << universe.num_subsets) - 1
    joins = cs[:-1] if cs[-1] == full else cs
    meets = cs[1:] if cs[0] == 0 else cs
    return joins, meets


def _completion_violation(universe: GroundSet, words: list[int]) -> dict | None:
    """The words the completion of a chain adds or misses, or None when the
    completion is the chain itself."""
    completed = {f.word for f in chain_completion_finite(universe, words)}
    extra, missing = sorted(completed - set(words)), sorted(set(words) - completed)
    return {"extra": extra, "missing": missing} if extra or missing else None


def random_chain(universe: GroundSet, rng: random.Random, max_len: int) -> list[Family]:
    """A strictly increasing run of families, grown by switching on bits."""
    return [Family(universe, w) for w in _random_chain_words(universe, rng, max_len)]


def _random_chain_words(universe: GroundSet, rng: random.Random, max_len: int) -> list[int]:
    """``random_chain`` as words, from the same calls on ``rng``."""
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
    return words


def chain_completion_check(universe: GroundSet, seed: int = 0, max_len: int = 4) -> Report:
    """Exercise the completion recipe over many chains.

    At two points the sweep is exhaustive over every chain of bounded
    length; on larger ground sets it draws CHAIN_SAMPLES seeded random
    increasing runs.  Each completion must equal its input chain; a failure
    names the words it adds and the ones it misses.  A chain of distinct
    families has at most 2^n + 1 members, so the exhaustive sweep stops
    there whatever ``max_len`` says; a ``max_len`` below 1 would examine no
    chain and raises ValueError.

    A finite chain's completion is the chain by construction: every word
    the closed form adjoins (c_1, c_k and the joins and meets of
    ``_chain_joins_meets``) is a member already.  So this check catches
    only a recipe that adjoins a non-member;
    ``test_closed_form_matches_the_per_family_oracle`` tests the joins and
    meets themselves.
    """
    if max_len < 1:
        raise ValueError(f"chain-completion needs max_len >= 1, got {max_len}")
    timer = Stopwatch("chain-completion", {"n": universe.n, "max_len": max_len})
    if universe.n <= 2:
        size = 1 << universe.num_subsets
        chains = [list(combo) for r in range(1, min(max_len, universe.num_subsets + 1) + 1)
                  for combo in combinations(range(size), r) if _is_chain(combo)]
        note = f"exhaustive: {len(chains)} chains of length at most {max_len}"
    else:
        timer.params.update(seed=seed, samples=CHAIN_SAMPLES)
        rng = random.Random(seed)
        chains = [_random_chain_words(universe, rng, max_len) for _ in range(CHAIN_SAMPLES)]
        note = f"{CHAIN_SAMPLES} seeded chains of length at most {max_len}"
    for words in chains:
        problem = _completion_violation(universe, words)
        if problem:
            return timer.report(FAIL, {"chain": words, **problem})
    return timer.report(PASS, notes=[note])


def _settle(stages: list[FamExpr], top: FamExpr, coords: list) -> tuple[list, list, list]:
    """Read an omega chain's probed coordinates against its declared top.

    The one walker over omega-chain stages.  It returns each coordinate's
    first stage index (None where no stage holds it), the coordinates some
    stage holds but the top does not (locked off the top: a refutation),
    and those the top holds but no stage reaches (undecided), each list in
    coordinate order.  The stage list must be nonempty (a check that looked
    at no stage has nothing to say), and membership must never drop once
    gained: either raises ValueError, before the top is asked anything.
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
    locked, unreached = [], []
    for w, entry in zip(coords, entries):
        if top.contains(w) != (entry is not None):
            (unreached if entry is None else locked).append(w)
    return entries, locked, unreached


def chain_completion_omega(stage, union: FamExpr, coords, bound: int = 64) -> Report:
    """Check the declared union of an increasing chain on probe coordinates.

    ``stage(m)`` gives the m-th stage, and ``union`` is what the stages are
    declared to converge to; it is checked, not trusted.  Coordinate-wise
    eventual membership is the completion point of the chain, so for every
    probed coordinate the membership sequence along the stages must be
    monotone (a drop raises -- the input was not a chain) and its settled
    value must agree with the declared union.  A
    coordinate the union claims but no stage reaches before the bound is
    undecidable here: the stages may pick it up later or never, so the
    check comes back inconclusive rather than failed.  A bound below 1
    raises.  Its work count is ``coordinates`` (the vacuous-pass rule of
    ``report.Stopwatch``).
    """
    coords = list(coords)
    timer = Stopwatch("omega-completion", {"bound": bound, "coordinates": len(coords)},
                      work="coordinates")
    entries, locked, unreached = _settle([stage(i) for i in range(bound)], union, coords)
    notes = [f"declared union: {union!r}"]
    for w, entry in zip(coords, entries):
        if locked and w == locked[0]:  # the notes run up to the first refutation
            witness = {"coordinate": w.to_json(), "entered_at_stage": entry, "in_union": False}
            return timer.report(FAIL, witness, notes=notes)
        if entry is not None:
            notes.append(f"{w.describe()} stabilizes true at stage {entry}")
        elif w not in unreached:
            notes.append(f"{w.describe()} stays false through stage {bound - 1}")
    if unreached:
        witness = {"in_union_but_settled_by_no_stage": [w.describe() for w in unreached]}
        return timer.report(INCONCLUSIVE, witness, notes=notes)
    return timer.report(PASS, notes=notes)
