"""Ultrafilters on a finite ground set and the maximal non-discrete topologies.

Every ultrafilter on a finite set is principal: the sets containing one
fixed point.  Removing a point x from the ground set induces a trace map on
ultrafilters concentrated elsewhere, which is a bijection onto the
ultrafilters of the smaller set (after an order-preserving re-index), and an
explicit reconstruction rebuilds the original from its trace.

Pairing an excluded point x with an ultrafilter at another point y yields
the topology whose opens are all sets avoiding x together with all sets
containing y.  These are the maximal topologies short of the discrete one;
the checks below verify the reconstruction, the bijection, the dictionary
between subbasic conditions on the big and small ground sets, and the
partition of these topologies according to which singleton fails to be open.
"""

from __future__ import annotations

from .cube import Family, GroundSet
from .report import FAIL, PASS, Report, Stopwatch
from .topology import Topology


class PrincipalUF:
    """The ultrafilter of all subsets containing a fixed point."""

    __slots__ = ("universe", "point")

    def __init__(self, universe: GroundSet, point: int):
        if not 0 <= point < universe.n:
            raise ValueError(f"point {point} outside ground set of size {universe.n}")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "point", point)

    def __setattr__(self, name, value):
        raise AttributeError("PrincipalUF is immutable")

    def contains_mask(self, mask: int) -> bool:
        return bool((mask >> self.point) & 1)

    def member_masks(self) -> list[int]:
        return [m for m in self.universe.subset_masks() if self.contains_mask(m)]

    def as_family(self) -> Family:
        return Family.from_masks(self.universe, self.member_masks())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PrincipalUF)
            and self.universe.n == other.universe.n
            and self.point == other.point
        )

    def __hash__(self) -> int:
        return hash(("PrincipalUF", self.universe.n, self.point))

    def __repr__(self) -> str:
        return f"PrincipalUF(n={self.universe.n}, point={self.point})"


def all_ultrafilters(universe: GroundSet) -> list[PrincipalUF]:
    return [PrincipalUF(universe, x) for x in range(universe.n)]


def ultrafilters_avoiding(universe: GroundSet, x: int) -> frozenset[PrincipalUF]:
    """The ultrafilters whose singleton at x is not a member.

    On a finite ground set these are exactly the principal ultrafilters
    concentrated at the other points, so there are n-1 of them.
    """
    if not 0 <= x < universe.n:
        raise ValueError(f"point {x} outside ground set of size {universe.n}")
    return frozenset(PrincipalUF(universe, y) for y in range(universe.n) if y != x)


def _removal_map(universe: GroundSet, removed) -> dict[int, int]:
    """Order-preserving relabelling of the points left after the removal."""
    if isinstance(removed, int):
        pts = {removed}
    else:
        pts = {int(p) for p in removed}
    if any(p < 0 or p >= universe.n for p in pts):
        raise ValueError("removed points outside the ground set")
    remaining = [y for y in range(universe.n) if y not in pts]
    return {y: i for i, y in enumerate(remaining)}


def trace(uf: PrincipalUF, removed) -> tuple[PrincipalUF, dict[int, int]]:
    """Restrict an ultrafilter to the ground set without the removed points.

    ``removed`` is a point or an iterable of points; removing nothing
    returns the ultrafilter unchanged.  Defined only when the
    concentration point survives; cutting it away would produce the whole
    powerset of the rest, not an ultrafilter.
    """
    remap = _removal_map(uf.universe, removed)
    if uf.point not in remap:
        raise ValueError("trace at the ultrafilter's own point is degenerate")
    small = GroundSet(len(remap))
    return PrincipalUF(small, remap[uf.point]), remap


def trace_family(uf: PrincipalUF, removed) -> tuple[Family, dict[int, int]]:
    """The trace as a set family: members of uf cut down to the small set.

    Computed from the member masks directly, so the reconstruction check
    exercises the set-level definition rather than the principal shortcut.
    """
    remap = _removal_map(uf.universe, removed)
    if uf.point not in remap:
        raise ValueError("trace at the ultrafilter's own point is degenerate")
    small = GroundSet(len(remap))
    cut = set()
    for m in uf.member_masks():
        mm = 0
        for y, ny in remap.items():
            if (m >> y) & 1:
                mm |= 1 << ny
        cut.add(mm)
    return Family.from_masks(small, cut), remap


def extend_trace(tr: PrincipalUF, x: int) -> PrincipalUF:
    """Inverse of trace: lift an ultrafilter back to the ground set with x."""
    big = GroundSet(tr.universe.n + 1)
    point = tr.point if tr.point < x else tr.point + 1
    return PrincipalUF(big, point)


def reconstruct_from_trace(tr_fam: Family, x: int) -> Family:
    """Rebuild a family on the big set from its trace: each trace member,
    taken both without and with the removed point."""
    small = tr_fam.universe
    big = GroundSet(small.n + 1)
    remap = _removal_map(big, x)
    back = {ny: y for y, ny in remap.items()}
    masks = set()
    for mm in tr_fam.member_masks():
        m = 0
        for ny, y in back.items():
            if (mm >> ny) & 1:
                m |= 1 << y
        masks.add(m)
        masks.add(m | (1 << x))
    return Family.from_masks(big, masks)


def ultratopology(universe: GroundSet, x: int, uf: PrincipalUF) -> Topology:
    """Opens: every set avoiding x, plus every member of the ultrafilter."""
    if uf.universe.n != universe.n:
        raise ValueError("ultrafilter lives on a different ground set")
    if uf.point == x:
        raise ValueError("an ultrafilter at the excluded point gives the discrete topology")
    masks = set()
    for m in universe.subset_masks():
        if not (m >> x) & 1 or (m >> uf.point) & 1:
            masks.add(m)
    return Topology(Family.from_masks(universe, masks))


def ultratopologies_at(universe: GroundSet, x: int) -> frozenset[Topology]:
    """All maximal non-discrete topologies whose non-open singleton is {x}."""
    return frozenset(
        ultratopology(universe, x, uf) for uf in ultrafilters_avoiding(universe, x)
    )


def all_ultratopologies(universe: GroundSet) -> frozenset[Topology]:
    out = set()
    for x in range(universe.n):
        out |= ultratopologies_at(universe, x)
    return frozenset(out)


def _require_two_points(universe: GroundSet) -> None:
    """Refuse one point: it has no ultrafilter away from a removed point and
    no maximal non-discrete topology, so a check there would examine nothing."""
    if universe.n < 2:
        raise ValueError("ultrafilter checks need a ground set of at least 2 points")


def trace_reconstruction_check(universe: GroundSet) -> Report:
    """Round-trip every ultrafilter through trace and reconstruction."""
    _require_two_points(universe)
    timer = Stopwatch("trace-reconstruction", {"n": universe.n})
    tried = 0
    for x in range(universe.n):
        for uf in all_ultrafilters(universe):
            if uf.point == x:
                continue
            tr_fam, remap = trace_family(uf, x)
            tr_uf, remap2 = trace(uf, x)
            if remap != remap2 or tr_fam != tr_uf.as_family():
                return timer.report(
                    FAIL, {"x": x, "point": uf.point, "stage": "trace-disagreement"}
                )
            rebuilt = reconstruct_from_trace(tr_fam, x)
            if rebuilt != uf.as_family():
                return timer.report(FAIL, {"x": x, "point": uf.point, "stage": "reconstruction"})
            if extend_trace(tr_uf, x) != uf:
                return timer.report(FAIL, {"x": x, "point": uf.point, "stage": "extend"})
            tried += 1
    return timer.report(PASS, notes=[f"round-tripped {tried} ultrafilter/point pairs"])


def trace_bijection_check(universe: GroundSet) -> Report:
    """For each removed point, trace is a bijection onto the small ultrafilters."""
    _require_two_points(universe)
    timer = Stopwatch("trace-bijection", {"n": universe.n})
    small = GroundSet(universe.n - 1)
    expected = set(all_ultrafilters(small))
    for x in range(universe.n):
        images = {}
        for uf in all_ultrafilters(universe):
            if uf.point == x:
                continue
            img, _ = trace(uf, x)
            if img in images:
                return timer.report(FAIL, {"x": x, "collision": [images[img].point, uf.point]})
            images[img] = uf
        if set(images) != expected:
            missing = sorted(u.point for u in expected - set(images))
            return timer.report(FAIL, {"x": x, "not-hit": missing})
    return timer.report(
        PASS,
        notes=[f"each of {universe.n} removals is a bijection onto {len(expected)} ultrafilters"],
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
    timer = Stopwatch("subbase-correspondence", {"n": universe.n, "x": x})
    remap = _removal_map(universe, x)
    tops = {y: ultratopology(universe, x, PrincipalUF(universe, y)) for y in remap}

    table = []
    rest = sorted(remap)
    for bm in range(1 << len(rest)):
        b_points = [rest[i] for i in range(len(rest)) if (bm >> i) & 1]
        b_mask = 0
        for y in b_points:
            b_mask |= 1 << y
        a_mask = b_mask | (1 << x)
        selected = sorted(y for y, t in tops.items() if t.family.contains_mask(a_mask))
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
    for m in universe.subset_masks():
        if (m >> x) & 1:
            continue
        bad = [y for y, t in tops.items() if not t.family.contains_mask(m)]
        if bad:
            return timer.report(FAIL, {"avoiding-set-mask": m, "not-open-at": bad})
    return timer.report(
        PASS,
        notes=[f"table rows: {len(table)}"] + [str(row) for row in table],
    )


def ultra_cover_check(universe: GroundSet) -> Report:
    """The non-open singleton partitions the maximal non-discrete topologies."""
    _require_two_points(universe)
    n = universe.n
    timer = Stopwatch("ultra-cover", {"n": n})
    everything = all_ultratopologies(universe)
    if len(everything) != n * (n - 1):
        return timer.report(FAIL, {"count": len(everything), "expected": n * (n - 1)})
    blocks = {}
    for x in range(n):
        block = ultratopologies_at(universe, x)
        not_open = frozenset(
            t for t in everything if not t.family.contains_mask(1 << x)
        )
        if block != not_open:
            return timer.report(
                FAIL, {"x": x, "mismatch": "block vs non-open-singleton selection"}
            )
        blocks[x] = block
    seen = set()
    for x, block in blocks.items():
        if seen & block:
            return timer.report(FAIL, {"x": x, "overlap": True})
        seen |= block
    if seen != everything:
        return timer.report(FAIL, {"uncovered": len(everything - seen)})
    # every block is nonempty, so dropping any one un-covers its members
    proper = all(bool(block) for block in blocks.values())
    if not proper:
        return timer.report(FAIL, {"empty-block": True})
    return timer.report(
        PASS,
        notes=[
            f"{n * (n - 1)} topologies split into {n} blocks of {n - 1}",
            "no proper subfamily of blocks covers",
        ],
    )
