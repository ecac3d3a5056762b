"""Worked constructions: chains of symbolic topologies and a join gap.

Each demo builds an increasing chain (or a generated lattice) out of the
symbolic family expressions, runs the relevant probes, and reports PASS when
the construction behaves exactly as predicted -- including the predicted
failures.  A chain of topologies whose union misses an infinite union is
supposed to flunk the topology probe with a specific witness; the demo
passes when that witness and no other shows up.  The join-gap demo runs
``lattice.join_completeness_witness`` on its fixture.
"""

from __future__ import annotations

from itertools import combinations

from .certificates import (
    is_limit_point_sampled,
    limit_vs_union_check,
    ordinal_homeo_check,
    sequence_convergence_check,
)
from .famexpr import (
    ChainInitials,
    DownPow,
    Explicit,
    NearDown,
    UnionFam,
    fam_is_topology_sym,
)
from .lattice import chain_completion_omega, join_completeness_witness
from .report import FAIL, INCONCLUSIVE, PASS, Report, Stopwatch
from .upsets import UPSet

_EMPTY = UPSet.empty()
_NATS = UPSet.naturals()

# The one cap on a fixture's `depth` and `bound`.  The initials-chain demo
# grows about quadratically in them: on a 2-vCPU Xeon host, with both at
# 128 it runs in 15-25 ms, and with the cap lifted, both at 256 take
# 55-80 ms.  The quadratic term is each coordinate walking every stage and
# the limit-point probe pool growing with the stage index; the stages
# themselves are built one segment at a time.
MAX_STAGES = 128

# The one cap on how many entries a fixture's set list, a --coords file or
# join-gap's `sample_points` holds.  The topology probe pairs the
# coordinates, so its work grows as their count squared: on a 2-vCPU Xeon
# host, powerset-chain on 400 random coordinates runs 1.35 s, and on 64 it
# runs 0.15 s.  The longest list the packaged fixtures and tests use holds
# 16 sets.
MAX_FIXTURE_SETS = 64


def _upsets(items) -> list[UPSet]:
    if not isinstance(items, list):
        raise ValueError(f"expected a list of sets, got {items!r}")
    if len(items) > MAX_FIXTURE_SETS:
        raise ValueError(f"a list of sets holds at most MAX_FIXTURE_SETS = {MAX_FIXTURE_SETS}, "
                         f"got {len(items)}")
    return [UPSet.from_json(x) for x in items]


def _stages(value, source: str) -> int:
    """A stage count, an int from 1 to MAX_STAGES: the value of a fixture
    key named by `source`, or of the flag ``--bound``, which argparse has
    made an int."""
    if source.startswith("--"):
        what, least = source, "at least 1"
    else:
        what, least = f"fixture {source!r}", "an integer of at least one stage"
    if type(value) is not int or value < 1:
        raise ValueError(f"{what} must be {least}, got {value!r}")
    if value > MAX_STAGES:
        raise ValueError(f"{what} must be at most MAX_STAGES = {MAX_STAGES}, got {value}")
    return value


def initials_chain(fix: dict):
    """Stages listing the first initial segments of an enumerated set.

    Stage m is the finite topology {empty, first m+1 segments, everything};
    the plain union of the stages collects all segments but not their
    infinite union, while the declared completion top adjoins it.  Each
    stage is built once, from the one before by adding one segment: the
    demo's sub-checks walk the same stages.  The stages take their segments
    from the union, so the stages and the union's probes share one memo.
    """
    enum = UPSet.from_json(fix["enum"])
    union = ChainInitials(enum, [_EMPTY, _NATS])
    stages: list[Explicit] = []

    def stage(m: int) -> Explicit:
        if m < 0:
            raise ValueError(f"stage index must be at least 0, got {m}")
        while len(stages) <= m:
            # stage k is stage k-1 with the one segment C_k
            seg = union.initial_segment(len(stages))
            stages.append(stages[-1]._grown(seg) if stages else Explicit([_EMPTY, seg, _NATS]))
        return stages[m]

    return stage, union, ChainInitials(enum, [_EMPTY, enum, _NATS])


def growing_core_chain(fix: dict):
    """Stages are full powersets of a core set plus finitely many extras."""
    core = UPSet.from_json(fix["core"])
    extras = [i for i in range(2 * _stages(fix.get("depth", 6), "depth") + 64) if i not in core]

    def stage(m: int) -> UnionFam:
        bound = core | UPSet.from_ints(extras[:m])
        return UnionFam(DownPow(bound), Explicit([_NATS]))

    union = UnionFam(NearDown(core), Explicit([_NATS]))
    return stage, union


def nested_initial_chain(fix: dict):
    """Stages are powersets of the initial segments of the naturals."""

    def stage(m: int) -> UnionFam:
        return UnionFam(DownPow(UPSet.from_ints(range(m + 1))), Explicit([_NATS]))

    union = UnionFam(NearDown(_EMPTY), Explicit([_NATS]))
    return stage, union


_CHAIN_BUILDERS = {
    "growing-core": growing_core_chain,
    "nested-initial": nested_initial_chain,
}


def demo_chain_union(fix: dict) -> Report:
    """Every stage passes the topology probe; their union must not.

    The predicted witness is the infinite union of members that the stage
    union fails to contain; the demo passes exactly when the probe turns up
    that witness on every stage being clean.  Fewer than two coordinates
    give no probe pair, and the demo is inconclusive.
    """
    builder = fix["builder"]
    if type(builder) is not str or builder not in _CHAIN_BUILDERS:
        raise ValueError(f"fixture 'builder' must be one of {', '.join(_CHAIN_BUILDERS)}, "
                         f"got {builder!r}")
    stage, union = _CHAIN_BUILDERS[builder](fix)
    coords = _upsets(fix["coords"])
    pairs = list(combinations(coords, 2))
    depth = _stages(fix.get("depth", 6), "depth")
    expected = UPSet.from_json(fix["expected_witness"])
    timer = Stopwatch(
        "chain-union-demo", {"builder": builder, "depth": depth, "coords": len(coords)}
    )

    dirty = [m for m in range(depth) if fam_is_topology_sym(stage(m), pairs).verdict == FAIL]
    if dirty:
        return timer.report(FAIL, {"stage_failed_probe": dirty})
    probe = fam_is_topology_sym(union, pairs)
    if probe.verdict == INCONCLUSIVE:
        return timer.report(INCONCLUSIVE, probe.witness)
    if probe.passed:
        return timer.report(FAIL, {"union_passed_probe": True})
    got = probe.witness
    if got["kind"] != "union-of-members-escapes" or got["sets"] != [expected.to_json()]:
        return timer.report(FAIL, {"unexpected_refutation": got})
    return timer.report(
        PASS,
        notes=[
            f"{depth} stages pass the topology probe",
            f"stage union misses the union of its members below {expected.describe()}",
        ],
    )


def demo_initials_chain(fix: dict) -> Report:
    """Run the segment-chain fixture end to end.

    Checks, in order: coordinatewise convergence of the stages to the
    declared top on coordinates settling in finite time; the top being a
    limit point of the stage set; the stages-plus-union subspace forming a
    single convergent ladder; and the bounded completion run, which must
    leave exactly the predicted coordinate unresolved -- the set the
    completion top contains but no finite stage ever reaches.  The verdict
    is fail when a sub-check fails or a predicted coordinate is resolved;
    it is inconclusive when a sub-check is, or when a bound too short to
    settle the other coordinates leaves more than the predicted ones open.
    """
    stage, union, top = initials_chain(fix)
    depth = _stages(fix.get("depth", 16), "depth")
    bound = _stages(fix.get("bound", 64), "bound")
    conv_coords = _upsets(fix["convergence_coords"])
    lp_coords = _upsets(fix["limit_point_coords"])
    comp_coords = _upsets(fix["completion_coords"])
    expected_open = _upsets(fix["expected_unresolved"])
    timer = Stopwatch("initials-chain-demo", {"depth": depth, "bound": bound})

    conv = sequence_convergence_check(
        stage, top, conv_coords, depth=depth, assume_increasing=True
    )
    lp = is_limit_point_sampled(
        top, [stage(m) for m in range(depth)], lp_coords, depth=depth
    )
    ladder = ordinal_homeo_check(stage, union, conv_coords, depth=depth)
    completion = chain_completion_omega(stage, union, comp_coords, bound)
    gap = chain_completion_omega(stage, top, comp_coords + expected_open, bound)

    wanted = [w.describe() for w in expected_open]
    unresolved = (
        gap.witness["in_union_but_settled_by_no_stage"] if gap.verdict == INCONCLUSIVE else []
    )
    checks = (conv, lp, ladder, completion)
    if not all(r.passed for r in checks) or unresolved != wanted:
        witness = {
            "convergence": conv.verdict,
            "limit_point": lp.verdict,
            "ladder": ladder.verdict,
            "union_completion": completion.verdict,
            "top_completion": {"verdict": gap.verdict, "witness": gap.witness},
        }
        # A bound too short to settle every coordinate leaves more open than
        # predicted: an exhausted budget, not a refutation.
        refuted = any(r.verdict == FAIL for r in (*checks, gap))
        if refuted or not set(wanted) <= set(unresolved):
            return timer.report(FAIL, witness)
        return timer.report(INCONCLUSIVE, witness)
    pending = ", ".join(wanted)
    return timer.report(
        PASS,
        notes=[
            "stages converge to the declared top on all settling coordinates",
            "the top is a limit point of the stage set on the sampled patterns",
            "stages plus their plain union form a single convergent ladder",
            "the stage union matches eventual membership on every completion coordinate",
            f"note: within bound {bound} the declared top is reached by no stage "
            f"at coordinate {pending}; the top and the stage union are different "
            "points of the cube",
        ],
    )


def demo_limit_vs_union(fix: dict) -> Report:
    """The declared completion top versus the plain stage union, coordinatewise."""
    _, union, top = initials_chain(fix)
    coords = _upsets(fix["completion_coords"])
    expected = _upsets(fix["expected_unresolved"])
    timer = Stopwatch("limit-vs-union-demo", {"coords": len(coords)})

    probe = limit_vs_union_check(top, union, coords)
    if probe.verdict == INCONCLUSIVE:
        return timer.report(INCONCLUSIVE, probe.witness)
    wanted = [w.describe() for w in expected]
    if probe.passed or probe.witness.get("differing") != wanted:
        return timer.report(
            FAIL, {"probe": probe.witness if not probe.passed else "agreed everywhere"}
        )
    return timer.report(
        PASS,
        notes=[
            f"top and union disagree exactly at {', '.join(wanted)}",
            *probe.notes,
        ],
    )


def demo_join_gap(fix: dict) -> Report:
    """A generated family containing sets whose union it misses.

    The lattice generated by the given sets together with all singletons
    contains each sampled singleton drawn from the candidate, while the
    candidate, an infinite set not covered by the generators, stays out:
    ``join_completeness_witness`` checks both on the fixture's points, and
    the demo passes its failures and refusals on.  Every singleton is a
    member, so the candidate is the union of the members below it.
    """
    gens = _upsets(fix["gens"])
    points = fix["sample_points"]
    if not isinstance(points, list) or not all(type(k) is int and k >= 0 for k in points):
        raise ValueError(f"fixture 'sample_points' must be a list of integers >= 0, "
                         f"got {points!r}")
    if len(points) > MAX_FIXTURE_SETS:
        raise ValueError(f"fixture 'sample_points' holds at most MAX_FIXTURE_SETS = "
                         f"{MAX_FIXTURE_SETS}, got {len(points)}")
    timer = Stopwatch("join-gap-demo", {"gens": len(gens), "samples": len(points)})
    candidate = UPSet.from_json(fix["candidate"])
    witness = join_completeness_witness(gens, candidate, points)
    if not witness.passed:
        return timer.report(witness.verdict, witness.witness)
    return timer.report(
        PASS,
        notes=[
            f"every sampled singleton below {candidate.describe()} is a member",
            "the candidate equals the union of its member singletons yet is not "
            "a member: the family is not join-complete",
        ],
    )
