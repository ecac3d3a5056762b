"""Certificates carving out finite sets of families inside the cube.

Conditions of the form "this subset is a member" / "is not a member" are the
subbasic data of the cube of families; finite conjunctions of disjunctions
of such conditions cut out clopen pieces.  This module builds certificates
whose solution sets are, provably, small named collections (the trivial
topology plus the one-step topologies; a pairwise-disjoint batch of
topologies plus the trivial one), solves them as clopen words on the
cylinder their unit clauses leave free, checks the two evaluation routes
for order intervals against each other (the families above and below x as
carry-free products, and as ANDs of projection words), and provides sampled
limit-point and convergence probes for symbolic families.  The interval
check keeps no route words: it records the elements at which both routes
agree on the whole cube, one set per n and pair of route functions, and a
sublattice made only of recorded elements passes with one superset test.

The chosen atoms {empty, m, everything} are themselves a pairwise-disjoint
batch in which each topology has one proper open, so the atom certificate
is the disjoint certificate of its atoms: one clause builder and one
sweep-and-compare routine serve both, on words: an atom is 1 | 2^m | 2^full,
a topology's word is read once at the public edge, and its proper opens are
the word cut to bits 1 .. full - 1, so no ``Topology`` is built and none is
imported.  The batch is pairwise disjoint exactly when no cut word meets the
OR of those before it, so one running OR word checks it, and a pair is
named only when a batch is refused.

A certificate is solved on the cylinder its unit clauses leave free, a
basic clopen set of the cube: the units fix their coordinates, and the
other clauses, less the literals the units decide, are swept over the k
free coordinates on 2^k-bit words (``cube._literal_words``).  A clause
fails exactly where every one of its literals fails, on the AND of the
opposite words, HAS for "a is absent" and LACKS for "a is a member", and
the solutions are the cylinder word with every violation cleared, lifted
back to family words by shifting the free coordinates above each run of
fixed ones into place.  A batch certificate at n = 4 leaves free only the
proper opens of its topologies, often 6 or fewer of its 16 coordinates,
so it sweeps words of at most a few thousand bits rather than 65,536,
and a 64-bit one is read as one limb (``cube.set_bits``).  Each family
off the cylinder fails a unit clause, so the whole cube is still
decided, and a batch report's ``sweep_size`` stays 2^(2^n).  The batch
certificates draw their conditions from one cached constructor, so each
(mask, present) pair is built once.

The convergence and ladder checks take an omega chain as ``(stage, top)``, a
stage rule and a declared top, as ``lattice.chain_completion_omega`` does.
They read their verdicts from the one walker in ``lattice``, ``_settle``:
each check builds its stage list once and gets back every coordinate's
entry stage, the coordinates locked off the top and those the top holds
but no stage reaches; it raises ValueError on a dropped coordinate or an
empty stage list (depth below 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, islice

from .cube import (
    GroundSet,
    _literal_words,
    cube_word,
    family_word,
    interval_words,
    set_bits,
)
from .famexpr import FamExpr
from .lattice import _generated, _settle
from .report import FAIL, INCONCLUSIVE, PASS, Report, Stopwatch

MAX_PATTERN_COORDS = 10
INTERVAL_SWEEP_MAX_N = 3  # interval-identity tier two walks generator tuples: 2^31 pairs at n=4
INTERVAL_SWEEP_STRIDE = 50  # tier two thins its top layer to every 50th generator set


@dataclass(frozen=True)
class SubbasicCond:
    """Membership (present=True) or absence of one subset mask."""

    mask: int
    present: bool

    def __repr__(self) -> str:
        sign = "+" if self.present else "-"
        return f"[{self.mask}]{sign}"


@cache
def _cond(mask: int, present: bool) -> SubbasicCond:
    """The condition (mask, present), built once: a certificate over n points
    uses at most 2 * 2^n distinct conditions however many clauses it has."""
    return SubbasicCond(mask, present)


class Certificate:
    """A conjunction of clauses, each a disjunction of subbasic conditions."""

    def __init__(self, universe: GroundSet, clauses):
        self.universe = universe
        self.clauses = tuple(map(tuple, clauses))
        full = universe.full_mask
        for cl in self.clauses:
            if not cl:
                raise ValueError("empty clause is unsatisfiable by fiat; reject it")
            for c in cl:
                if not 0 <= c.mask <= full:
                    raise ValueError(f"condition mask out of range for n={universe.n}")

    @property
    def conjunct_count(self) -> int:
        return len(self.clauses)

    def solve(self) -> list[int]:
        """Every family word in the full cube satisfying the certificate.

        The unit clauses fix their coordinates, and the families they allow
        form a cylinder: a copy of the cube on the k coordinates left free,
        mentioned or not.  Conflicting units allow no family.  Every other
        clause is read on the cylinder: one with a literal the units
        satisfy holds there and is dropped, and the literals the units
        falsify drop out of it, so a clause left with none fails
        everywhere.  The residual clauses are then swept on 2^k-bit words:
        a clause is violated where all its literals fail, the AND of each
        literal's opposite word (``cube._literal_words``, looked up by the
        literal's mask, and None at a fixed coordinate), and the
        solutions are the set bits of the cylinder's word with every
        violation cleared.  Each solution s is lifted back to a family word
        by shifting the free coordinates above each run of fixed ones into
        place, highest run first, and ORing in the fixed members; the lift
        keeps the order, so the list is increasing.  Every family off the
        cylinder fails a unit clause, so the whole cube is decided.
        """
        universe = self.universe
        universe.require_sweepable()
        members = absent = 0
        longer = []
        for cl in self.clauses:
            if len(cl) > 1:
                longer.append(cl)
            elif cl[0].present:
                members |= 1 << cl[0].mask
            else:
                absent |= 1 << cl[0].mask
        if members & absent:
            return []
        fixed = members | absent
        nsub = universe.num_subsets
        free = [a for a in range(nsub) if not (fixed >> a) & 1]
        has, lacks = _literal_words(len(free))
        # Where each literal fails, by mask: "a is absent" fails on HAS and
        # "a is a member" on LACKS at a free coordinate; None at a fixed one.
        fails_at = ([None] * nsub, [None] * nsub)  # indexed by c.present
        for i, a in enumerate(free):
            fails_at[0][a] = has[i]
            fails_at[1][a] = lacks[i]
        violated = 0
        for cl in longer:
            fails = -1  # a clause whose literals the units all falsify fails everywhere
            for c in cl:
                word = fails_at[c.present][c.mask]
                if word is not None:
                    fails &= word
                elif (members >> c.mask) & 1 == c.present:
                    break
            else:
                violated |= fails
        full = (1 << (1 << len(free))) - 1
        solutions = set_bits(full & ~violated)
        bounds = [-1, *free]
        for y in range(len(free) - 1, -1, -1):
            gap = bounds[y + 1] - bounds[y] - 1
            if gap:
                low = (1 << y) - 1
                solutions = [(s & low) | (s >> y) << (y + gap) for s in solutions]
        return [members | s for s in solutions] if members else solutions


def _chosen_atoms(universe: GroundSet, opens) -> tuple[list[int], list[int]]:
    """The sorted chosen masks and the words of their atoms {empty, m, everything}."""
    chosen = sorted(set(opens))
    full = universe.full_mask
    if any(not 0 < m < full for m in chosen):
        raise ValueError("chosen opens must be proper and nonempty")
    if len(chosen) < 2:
        raise ValueError("need at least two chosen opens")
    return chosen, [1 | 1 << m | 1 << full for m in chosen]


def atom_closure_expression(universe: GroundSet, opens) -> Certificate:
    """The certificate cutting out the trivial topology plus one-step ones.

    The chosen atoms form a pairwise-disjoint batch with one proper open
    each, so this is their disjoint-batch certificate: both bounds must be
    members, every unchosen proper subset must be absent, and no two chosen
    subsets may be members together.
    """
    return _batch_expression(universe, _chosen_atoms(universe, opens)[1])


def atom_closure_certificate(universe: GroundSet, opens) -> Report:
    """Sweep the atom-closure certificate and compare with the predicted set."""
    chosen, atoms = _chosen_atoms(universe, opens)
    timer = Stopwatch("atom-closure", {"n": universe.n, "chosen": chosen})
    return _sweep_batch(timer, universe, atoms)


def _proper_opens_of(universe: GroundSet, words: list[int]) -> tuple[list[int], int]:
    """Each word cut to its proper opens, the bits 1 .. full - 1, and their union.

    A trivial topology is refused first.  An overlap is then found by one
    running OR, and named by the first pair in ``combinations`` order.
    """
    proper = [w & ((1 << universe.full_mask) - 2) for w in words]
    if not all(proper):
        raise ValueError("the trivial topology cannot appear in the batch")
    covered = 0
    for p in proper:
        if covered & p:
            for (i, pi), (j, pj) in combinations(enumerate(proper), 2):
                if pi & pj:
                    raise ValueError(f"topologies {i} and {j} share a proper open")
        covered |= p
    return proper, covered


def disjoint_closure_expression(universe: GroundSet, tops) -> Certificate:
    """The certificate cutting out a pairwise-disjoint batch plus trivial.

    Within one topology, any proper open being a member forces all of its
    proper opens; across two topologies, proper opens exclude each other;
    anything open in none of them is forbidden outright.
    """
    return _batch_expression(universe, [family_word(universe, t.family) for t in tops])


def _batch_expression(universe: GroundSet, words: list[int]) -> Certificate:
    """``disjoint_closure_expression`` on the topologies' words."""
    proper, covered = _proper_opens_of(universe, words)
    full = universe.full_mask
    opens = [set_bits(p) for p in proper]
    absent = [_cond(d, False) for d in range(full + 1)]
    clauses = [
        (_cond(0, True),),
        (_cond(full, True),),
    ]
    clauses += [(absent[d],) for d in set_bits(((1 << full) - 2) ^ covered)]
    for pi, pj in combinations(opens, 2):
        clauses += [(absent[a], absent[b]) for a in pi for b in pj]
    for pi in opens:
        for a in pi:
            member = _cond(a, True)
            clauses += [(member, absent[b]) for b in pi if b != a]
    return Certificate(universe, clauses)


def disjoint_closure_certificate(universe: GroundSet, tops) -> Report:
    """Sweep the disjoint-batch certificate and compare with the predicted set."""
    words = [family_word(universe, t.family) for t in tops]
    timer = Stopwatch("disjoint-closure", {"n": universe.n, "topologies": len(words)})
    return _sweep_batch(timer, universe, words)


def _sweep_batch(timer: Stopwatch, universe: GroundSet, words: list[int]) -> Report:
    """Solve a batch's certificate; it must cut out trivial plus each member."""
    cert = _batch_expression(universe, words)
    solutions = cert.solve()
    trivial = (1 << 0) | (1 << universe.full_mask)
    expected = {trivial} | {trivial | w for w in words}
    payload = {
        "conjuncts": cert.conjunct_count,
        "sweep_size": 1 << universe.num_subsets,
        "solutions": len(solutions),
    }
    if len(solutions) <= 32:
        payload["members"] = [set_bits(w) for w in solutions]
    if set(solutions) == expected:
        return timer.report(PASS, notes=[str(payload)])
    diff = sorted(set(solutions) ^ expected)
    return timer.report(FAIL, {"symmetric_difference_words": diff, **payload})


def _subcube(y: int) -> int:
    """The word with bit g set for every g that is a subset of y's bits.

    It is the product over the bits b of y of (1 + 2^(2^b)).  The product is
    carry-free: each factor ORs a copy of the word, shifted past its
    highest set bit, onto itself.
    """
    word, b = 1, 0
    while y:
        if y & 1:
            word |= word << (1 << b)
        y >>= 1
        b += 1
    return word


def _order_route(n: int, x: int) -> tuple[int, int]:
    """(up, down): the cube words of the families above and below x, by arithmetic.

    Below x are the subwords of x, P(x); above x are x joined with each
    subword of its complement, P(not x) shifted up by x.
    """
    return _subcube(((1 << (1 << n)) - 1) ^ x) << x, _subcube(x)


# (up, down): the same two words, by the subbasic conditions.  Up is
# "contains every set in x", the AND of HAS[a] over a in x; down is "omits
# every set outside x", the AND of LACKS[a] over the rest, from
# ``cube.interval_words``.
_cond_route = interval_words

# The elements at which both routes agree on the whole cube, one set per
# (n, order route, condition route): agreement on the cube holds on every
# member word.  The key holds the route functions, so a replaced route
# starts from an empty set.  At most 2^(2^n) small ints, and no words.
_AGREED: dict[tuple, set[int]] = {}


def _agreed(n: int) -> set[int]:
    return _AGREED.setdefault((n, _order_route, _cond_route), set())


def _interval_mismatch(n: int, members: int, elements) -> dict | None:
    """The first disagreement between the order and condition routes.

    ``members`` is the collection as a cube word.  At each element x, the
    members above x by order must be exactly the members containing every
    set that x contains, and the members below x exactly those omitting
    every set that x omits.  The two routes share no code: one builds the
    subcube below a word by carry-free products, the other ANDs projection
    words.  An element already known to agree on the whole cube is
    skipped; otherwise both routes are built, and an element whose route
    difference is zero on the whole cube is recorded as agreed.  One AND
    per element tests a nonzero difference against the members; which side
    differs is worked out only where that test finds a difference, and a
    difference that lies only outside the members passes unrecorded.
    """
    agreed = _agreed(n)
    for x in elements:
        if x in agreed:
            continue
        up_order, down_order = _order_route(n, x)
        up_cond, down_cond = _cond_route(n, x)
        differ = (up_order ^ up_cond) | (down_order ^ down_cond)
        if not differ:
            agreed.add(x)
        elif differ & members:
            side, diff = "up", (up_order ^ up_cond) & members
            if not diff:
                side, diff = "down", (down_order ^ down_cond) & members
            return {"element": x, "side": side, "difference_words": set_bits(diff)[:8]}
    return None


def _sublattice_mismatch(n: int, words) -> tuple[int, dict | None]:
    """Close nonempty family words of n points into their sublattice and
    compare both routes at every member, in increasing order: the member
    count and the first disagreement, or None.  A sublattice whose members
    are all agreed elements passes without a member word."""
    members = _generated(words)
    if _agreed(n).issuperset(members):
        return len(members), None
    members = sorted(members)
    member_word = 0
    for w in members:
        member_word |= 1 << w
    return len(members), _interval_mismatch(n, member_word, members)


def interval_identity_all(universe: GroundSet, gens) -> Report:
    """One generated sublattice: both routes compared at every element.

    Both routes build words over the whole cube, so the ground set is
    refused above sweep size before any of them is built.
    """
    universe.require_sweepable()
    words = sorted({family_word(universe, g) for g in gens})
    timer = Stopwatch("interval-identity", {"n": universe.n, "gens": words})
    size, problem = _sublattice_mismatch(universe.n, words)
    timer.params["sublattice"] = size
    if problem:
        return timer.report(FAIL, problem)
    return timer.report(PASS, notes=[f"{size} elements, both sides agree"])


def interval_identity_sweep(universe: GroundSet, max_gens: int = 3) -> Report:
    """Every generated sublattice of bounded generator count, every element.

    Two tiers.  First, at every cube element both routes are compared over
    the whole cube: one XOR of two words per side.  Equality there is
    preserved by restriction to any member collection, which settles the
    identity for every sublattice and element at once.  Second, sublattices
    are materialized and put through the literal per-element check on their
    own member word: exhaustively for the smaller generator counts, and at
    INTERVAL_SWEEP_STRIDE through the top layer when the cube is large
    enough to need it.  Tier one records every cube element as one where
    both routes agree, and tier two's per-member test reads that record, so
    tier two cannot fail once tier one has passed; it still materializes
    every sublattice.  Tier two enumerates generator tuples of the cube,
    so the ground set is capped at INTERVAL_SWEEP_MAX_N points.  Its tuples
    are words it built itself, so it checks them without a report each,
    and reports a failing tuple as ``interval_identity_all`` does.
    """
    if universe.n > INTERVAL_SWEEP_MAX_N:
        raise ValueError(
            f"the interval-identity sweep needs n <= {INTERVAL_SWEEP_MAX_N}, got {universe.n}"
        )
    timer = Stopwatch("interval-identity", {"n": universe.n, "max_gens": max_gens})
    size = 1 << universe.num_subsets

    problem = _interval_mismatch(universe.n, cube_word(universe), range(size))
    if problem:
        return timer.report(FAIL, {**problem, "scope": "whole cube"})

    materialized = 0
    for r in range(1, max_gens + 1):
        step = INTERVAL_SWEEP_STRIDE if r == max_gens and size > 64 else 1
        for combo in islice(combinations(range(size), r), 0, None, step):
            if _sublattice_mismatch(universe.n, combo)[1]:
                return interval_identity_all(universe, combo)
            materialized += 1
    return timer.report(
        PASS,
        notes=[
            f"routes agree on all {size} cube elements, hence on every sublattice",
            f"{materialized} generated sublattices re-checked literally",
        ],
    )


def _pattern_agrees(e: FamExpr, reference: dict, subset) -> bool:
    return all(e.contains(w) == reference[w] for w in subset)


def is_limit_point_sampled(x: FamExpr, candidates, coords, depth: int = 8) -> Report:
    """Does every basic neighbourhood of x meet the candidate pool elsewhere?

    The neighbourhoods tried are the sign patterns of x on each subset of
    the coordinates.  A neighbourhood whose in-pool candidates all coincide
    with x (no separating coordinate found in the shared probe pool) is a
    refutation relative to the pool; a neighbourhood missed by the whole
    pool leaves the question open.  Its work count is ``coords`` (the
    vacuous-pass rule of ``report.Stopwatch``).

    A candidate c counts as distinct from x when some set in the pool
    separates them: x contains it and c does not, or the other way round.
    The pool is the coordinates, then x's ``probe_sets(depth + 1)``, then
    c's, each set asked once in that order; so x and the candidates are
    kinds that carry ``probe_sets``, Explicit or ChainInitials.  Its first
    two parts do not depend on the candidate, so they are built once per
    check, and x's membership of each pooled set is decided once.
    """
    coords = list(coords)
    if len(coords) > MAX_PATTERN_COORDS:
        raise ValueError(f"at most {MAX_PATTERN_COORDS} pattern coordinates")
    candidates = list(candidates)
    timer = Stopwatch("limit-point", {"coords": len(coords), "candidates": len(candidates)},
                      work="coords")

    reference = {w: x.contains(w) for w in coords}
    # with no candidate, nothing is compared with x and its probes are not asked for
    top_pool = dict.fromkeys(coords + x.probe_sets(depth + 1)) if candidates else {}

    def x_has(w) -> bool:
        if w not in reference:
            reference[w] = x.contains(w)
        return reference[w]

    def separated(c: FamExpr) -> bool:
        probes = c.probe_sets(depth + 1)
        for w in top_pool:
            if x_has(w) != c.contains(w):
                return True
        return any(w not in top_pool and x_has(w) != c.contains(w) for w in probes)

    distinct = [separated(c) for c in candidates]

    open_question = False
    for r in range(len(coords) + 1):
        for subset in combinations(coords, r):
            inside = [i for i, c in enumerate(candidates)
                      if _pattern_agrees(c, reference, subset)]
            if not inside:
                open_question = True
                continue
            if not any(distinct[i] for i in inside):
                return timer.report(FAIL, {
                    "pattern": [w.describe() for w in subset],
                    "pool_members_inside": len(inside),
                })
    if open_question:
        reason = "some neighbourhood misses the whole candidate pool"
        return timer.report(INCONCLUSIVE, {"reason": reason})
    return timer.report(PASS, notes=[
        f"all {2 ** len(coords)} sign patterns met the pool away from the base point"
    ])


def sequence_convergence_check(
    stage, limit: FamExpr, coords, depth: int = 32, assume_increasing: bool = False
) -> Report:
    """Coordinatewise convergence of a family sequence to a declared limit.

    A coordinate counts as settled when stage ``depth - 1`` agrees with the
    limit on it; a run agreeing on every coordinate is a pass (evidence,
    not proof).  When the sequence is declared increasing, membership bits
    can never fall back, so all stages are walked: a coordinate locked at a
    value different from the limit's is a genuine refutation, and bits
    observed to decrease raise instead.  Otherwise only the last stage is
    read.  A depth below 1 raises.  Its work count is ``coords`` (the
    vacuous-pass rule of ``report.Stopwatch``).
    """
    coords = list(coords)
    timer = Stopwatch("convergence", {"coords": len(coords), "depth": depth,
                                      "increasing": assume_increasing}, work="coords")
    steps = range(depth) if assume_increasing else range(depth)[-1:]
    _, locked, unreached = _settle([stage(i) for i in steps], limit, coords)
    if assume_increasing and locked:
        return timer.report(
            FAIL, {"coordinate": locked[0].describe(), "locked": True, "limit_has": False}
        )
    unsettled = [w.describe() for w in coords if w in locked or w in unreached]
    if unsettled:
        return timer.report(INCONCLUSIVE, {"coordinates_not_settled": unsettled})
    return timer.report(PASS, notes=[
        f"{len(coords)} coordinates settled to the limit values within depth {depth}"
    ])


def limit_vs_union_check(limit: FamExpr, union: FamExpr, coords) -> Report:
    """Where a declared limit and the plain union of stages disagree.

    The pool is the given coordinates plus both expressions' structural
    probes, ``probe_sets``, so both are Explicit or ChainInitials.
    Agreement everywhere is a pass; any disagreement is reported
    coordinate by coordinate, which is how a limit picking up a set that no
    finite stage reaches gets surfaced.  Its work count is the pool's size,
    ``coords`` (the vacuous-pass rule of ``report.Stopwatch``).
    """
    timer = Stopwatch("limit-vs-union", {}, work="coords")
    pool = list(dict.fromkeys(list(coords) + limit.probe_sets() + union.probe_sets()))
    timer.params["coords"] = len(pool)
    differing = [w for w in pool if limit.contains(w) != union.contains(w)]
    if differing:
        return timer.report(
            FAIL,
            {
                "differing": [w.describe() for w in differing],
                "in_limit_only": [w.describe() for w in differing if limit.contains(w)],
            },
            notes=[
                "informational: the declared limit and the stage union are "
                "different points of the cube"
            ],
        )
    return timer.report(PASS, notes=["limit and union agree on the whole probe pool"])


def ordinal_homeo_check(stage, top: FamExpr, coords=(), depth: int = 16) -> Report:
    """Sampled evidence that stages plus their top form one convergent ladder.

    ``stage(m)`` gives the m-th stage and ``top`` is the element declared
    to sit above all of them.  The check wants, on the probe pool:
    strictly increasing stages (each step gains a coordinate), and every
    coordinate's membership locking to the top's value within the depth.
    Entry witnesses double as isolation certificates: the coordinate gained
    at step i is absent from all earlier stages and present in all later
    ones.  The stages are walked before any verdict, so a coordinate dropped
    anywhere within the depth raises, as does a depth below 1.  Its work
    count is the pool's size, ``coords`` (the vacuous-pass rule of
    ``report.Stopwatch``).  The pool adds the top's ``probe_sets(depth)``,
    so the top is an Explicit or a ChainInitials.  Whether the top is the
    plain union of its stages is ``limit_vs_union_check``'s question.
    """
    coords = list(dict.fromkeys(list(coords) + top.probe_sets(depth)))
    timer = Stopwatch("ordinal-ladder", {"coords": len(coords), "depth": depth}, work="coords")
    entries, locked, unreached = _settle([stage(i) for i in range(depth)], top, coords)

    for i in range(depth - 1):
        if i + 1 not in entries:
            reason = "no gained coordinate found in pool"
            return timer.report(INCONCLUSIVE, {"step": i, "reason": reason})
    if locked:
        return timer.report(FAIL, {"coordinates_locked_off_top": [w.describe() for w in locked]})
    if unreached:
        witness = {"coordinates_not_reached_within_depth": [w.describe() for w in unreached]}
        return timer.report(INCONCLUSIVE, witness)
    return timer.report(PASS, notes=[f"{depth - 1} strict steps with entry witnesses",
                                     "every pooled coordinate settles to the top's value"])
