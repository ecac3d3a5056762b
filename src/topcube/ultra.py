"""Ultrafilters on a finite ground set and the maximal non-discrete topologies.

Every ultrafilter on a finite set is principal: the sets containing one
fixed point y.  As a family it is the word mu_y = ``cube.magic_mask(y, n)``,
whose bit m is bit y of m.  Removing a point x from the ground set traces
mu_y (y != x) down to an ultrafilter of the smaller set, the one at the
re-indexed point y - (y > x); the trace is a bijection onto the
ultrafilters there, and ``cube.add_point`` rebuilds mu_y from its trace.
That is the same "add a point" routine that lifts topologies in
``topology.embedding_check``.

Pairing an excluded point x with the ultrafilter at another point y yields
the topology whose opens are all sets avoiding x together with all sets
containing y: the word (full ^ mu_x) | mu_y.  These are the maximal
topologies short of the discrete one; the checks below verify the
reconstruction, the bijection, the dictionary between subbasic conditions
on the big and small ground sets, and the partition of these topologies
according to which singleton fails to be open.
"""

from __future__ import annotations

from .cube import Family, GroundSet, add_point, magic_mask, remove_point
from .report import FAIL, PASS, Report, Stopwatch
from .topology import Topology


def ultratopology(universe: GroundSet, x: int, y: int) -> Topology:
    """Opens: every set avoiding x, plus every set containing y."""
    n = universe.n
    if not (0 <= x < n and 0 <= y < n):
        raise ValueError(f"points {x}, {y} must lie in the ground set of size {n}")
    if y == x:
        raise ValueError("an ultrafilter at the excluded point gives the discrete topology")
    full = (1 << universe.num_subsets) - 1
    return Topology(Family(universe, (full ^ magic_mask(x, n)) | magic_mask(y, n)))


def ultratopologies_at(universe: GroundSet, x: int) -> frozenset[Topology]:
    """All maximal non-discrete topologies whose non-open singleton is {x}."""
    return frozenset(
        ultratopology(universe, x, y) for y in range(universe.n) if y != x
    )


def all_ultratopologies(universe: GroundSet) -> frozenset[Topology]:
    return frozenset().union(*(ultratopologies_at(universe, x) for x in range(universe.n)))


def _require_two_points(universe: GroundSet) -> None:
    """Refuse one point: it has no ultrafilter away from a removed point and
    no maximal non-discrete topology, so a check there would examine nothing."""
    if universe.n < 2:
        raise ValueError("ultrafilter checks need a ground set of at least 2 points")


def trace_reconstruction_check(universe: GroundSet) -> Report:
    """Round-trip every ultrafilter through trace and reconstruction.

    The trace is taken by two independent routes: compressing the family
    word mu_y, and mu at the re-indexed point on the smaller set.
    """
    _require_two_points(universe)
    n = universe.n
    timer = Stopwatch("trace-reconstruction", {"n": n})
    tried = 0
    for x in range(n):
        for y in range(n):
            if y == x:
                continue
            mu = magic_mask(y, n)
            cut = remove_point(mu, n, x)
            if cut != magic_mask(y - (y > x), n - 1):
                return timer.report(FAIL, {"x": x, "point": y, "stage": "trace-disagreement"})
            if add_point(cut, n - 1, x) != mu:
                return timer.report(FAIL, {"x": x, "point": y, "stage": "reconstruction"})
            tried += 1
    return timer.report(PASS, notes=[f"round-tripped {tried} ultrafilter/point pairs"])


def trace_bijection_check(universe: GroundSet) -> Report:
    """For each removed point, trace is a bijection onto the small ultrafilters.

    The n - 1 ultrafilters at the points y != x have n - 1 traces, as many
    as the small ultrafilters, so the traces are a bijection exactly when
    they hit every small ultrafilter: a collision or a trace that is no
    ultrafilter leaves one unhit, and the check names the unhit ones.
    """
    _require_two_points(universe)
    n = universe.n
    timer = Stopwatch("trace-bijection", {"n": n})
    expected = {magic_mask(z, n - 1): z for z in range(n - 1)}
    for x in range(n):
        images = {remove_point(magic_mask(y, n), n, x) for y in range(n) if y != x}
        if images != expected.keys():
            missing = sorted(expected[w] for w in expected.keys() - images)
            return timer.report(FAIL, {"x": x, "not-hit": missing})
    return timer.report(
        PASS,
        notes=[f"each of {n} removals is a bijection onto {len(expected)} ultrafilters"],
    )


def subbase_correspondence_check(universe: GroundSet, x: int) -> Report:
    """Dictionary between subsets of the small set and opens at the big one.

    Fixing the excluded point x, the map sending each remaining point y to
    the topology built from the ultrafilter at y is a bijection onto the
    topologies excluding x.  Under it, for any subset A of the ground set:

      * x not in A:  A is open in every such topology;
      * x in A:      A is open exactly in the topologies at points of A.

    So membership of y in B (a subset of the remaining points) matches
    openness of B with x adjoined, which is the subbasic-condition
    dictionary.  The report carries the full table for the small set.
    """
    _require_two_points(universe)
    n = universe.n
    timer = Stopwatch("subbase-correspondence", {"n": n, "x": x})
    rest = [y for y in range(n) if y != x]
    tops = {y: ultratopology(universe, x, y).family for y in rest}

    table = []
    low = (1 << x) - 1
    for bm in range(1 << (n - 1)):
        b_mask = (bm & low) | (bm & ~low) << 1  # make room for x
        b_points = [y for y in rest if (b_mask >> y) & 1]
        selected = [y for y in rest if tops[y].contains_mask(b_mask | 1 << x)]
        table.append(
            {
                "subset": b_points,
                "with_excluded": sorted(b_points + [x]),
                "open_at": selected,
            }
        )
        if selected != b_points:
            return timer.report(
                FAIL,
                {"subset": b_points, "open_at": selected},
                notes=[f"table row {bm}"],
            )
    avoiding = ((1 << universe.num_subsets) - 1) ^ magic_mask(x, n)
    missed = 0
    for fam in tops.values():
        missed |= avoiding & ~fam.word
    if missed:
        m = (missed & -missed).bit_length() - 1
        bad = [y for y, fam in tops.items() if not fam.contains_mask(m)]
        return timer.report(FAIL, {"avoiding-set-mask": m, "not-open-at": bad})
    return timer.report(
        PASS,
        notes=[f"table rows: {len(table)}"] + [str(row) for row in table],
    )


def ultra_cover_check(universe: GroundSet) -> Report:
    """The non-open singleton partitions the maximal non-discrete topologies.

    Let E be ``all_ultratopologies``, the union of the blocks B_x =
    ``ultratopologies_at(x)``; each B_x has at most n - 1 members, one for
    each y != x.  Two checks:

      * |E| = n(n - 1).  As |E| <= sum |B_x| <= n(n - 1), equality forces
        the blocks to be disjoint, to have n - 1 members each and to cover
        E, so no block is empty and no proper subfamily of blocks covers;
      * B_x = {t in E : {x} not open} for every x: the blocks are the
        selection by the non-open singleton.

    So the partition needs no check of its own.
    """
    _require_two_points(universe)
    n = universe.n
    timer = Stopwatch("ultra-cover", {"n": n})
    everything = all_ultratopologies(universe)
    if len(everything) != n * (n - 1):
        return timer.report(FAIL, {"count": len(everything), "expected": n * (n - 1)})
    for x in range(n):
        not_open = frozenset(
            t for t in everything if not t.family.contains_mask(1 << x)
        )
        if ultratopologies_at(universe, x) != not_open:
            return timer.report(
                FAIL, {"x": x, "mismatch": "block vs non-open-singleton selection"}
            )
    return timer.report(
        PASS,
        notes=[
            f"{n * (n - 1)} topologies split into {n} blocks of {n - 1}",
            "no proper subfamily of blocks covers",
        ],
    )
