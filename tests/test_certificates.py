"""Subbasic certificates, interval identities, and sampled convergence probes."""

import random
from itertools import combinations

import pytest

from topcube import (
    Certificate,
    ChainInitials,
    Explicit,
    Family,
    GroundSet,
    SubbasicCond,
    Topology,
    UPSet,
    atom_closure_certificate,
    atom_closure_expression,
    chain_completion_omega,
    disjoint_closure_certificate,
    disjoint_closure_expression,
    fam_is_topology_sym,
    interval_identity_all,
    interval_identity_sweep,
    is_limit_point_sampled,
    limit_vs_union_check,
    ordinal_homeo_check,
    sequence_convergence_check,
)
from topcube import certificates
from topcube.lattice import _settle, close_words
from topcube.demos import initials_chain, nested_initial_chain

U2 = GroundSet(2)
U3 = GroundSet(3)

EMPTY = UPSet.empty()
NATS = UPSet.naturals()
EVENS = UPSet("", "10")
ODDS = UPSet("", "01")


def fam(universe, *masks):
    return Family.from_masks(universe, masks)


# ------------------------------------------------------------- subbasic data


def test_condition_evaluation():
    # one condition cuts out the families that have (or lack) its subset
    present = Certificate(U2, [(SubbasicCond(1, True),)]).solve()
    assert 0b0010 in present and 0b0001 not in present
    absent = Certificate(U2, [(SubbasicCond(1, False),)]).solve()
    assert 0b0001 in absent and 0b0010 not in absent
    assert repr(SubbasicCond(3, False)) == "[3]-"


def test_unit_clause_certificate_examples():
    # a certificate of one-condition clauses is a basic open of the cube
    def basic(*conds):
        return Certificate(U2, [(c,) for c in conds]).solve()

    trivial = fam(U2, 0, 3)
    assert trivial.word in basic(SubbasicCond(0, True), SubbasicCond(3, True))
    assert 15 not in basic(SubbasicCond(1, False))
    assert fam(U2, 0, 1, 3).word in basic(SubbasicCond(1, True), SubbasicCond(2, False))


def test_certificate_rejects_empty_clause():
    with pytest.raises(ValueError):
        Certificate(U2, [()])


@pytest.mark.parametrize("mask", [-1, 4])
def test_certificate_rejects_mask_out_of_range(mask):
    with pytest.raises(ValueError, match="out of range"):
        Certificate(U2, [(SubbasicCond(0, True), SubbasicCond(mask, True))])


def _random_certificate(rng, universe):
    return Certificate(universe, [
        tuple(
            SubbasicCond(rng.randrange(universe.num_subsets), rng.random() < 0.5)
            for _ in range(rng.randint(1, 3))
        )
        for _ in range(rng.randint(1, 6))
    ])


def _per_word_solutions(cert):
    """The solutions by evaluating every clause at every word of the cube."""
    return [
        w
        for w in range(1 << cert.universe.num_subsets)
        if all(any(((w >> c.mask) & 1) == c.present for c in cl) for cl in cert.clauses)
    ]


@pytest.mark.parametrize("n, count", [(1, 20), (2, 40), (3, 40), (4, 3)])
def test_solve_matches_per_word_evaluation(n, count):
    rng = random.Random(n)
    for _ in range(count):
        cert = _random_certificate(rng, GroundSet(n))
        assert cert.solve() == _per_word_solutions(cert), cert.clauses


def _shaped_clauses(rng, universe, shape):
    """Clauses of the shapes the violation form treats specially."""
    def cond(present=None):
        p = rng.random() < 0.5 if present is None else present
        return SubbasicCond(rng.randrange(universe.num_subsets), p)

    def tautology():
        a = rng.randrange(universe.num_subsets)
        return (SubbasicCond(a, True), SubbasicCond(a, False))

    def repeated():
        c = cond()
        return (c, c) if rng.random() < 0.5 else (c, cond(), c)

    def positive():
        return tuple(cond(True) for _ in range(rng.randint(2, 4)))

    if shape == "units":
        return [(cond(),) for _ in range(rng.randint(1, 6))]
    if shape == "mixed":
        # units fix a few coordinates; the longer clauses put literals on
        # them, both ways round, beside literals on free coordinates
        units = {rng.randrange(universe.num_subsets): rng.random() < 0.5
                 for _ in range(rng.randint(1, universe.num_subsets // 2))}
        clauses = [(SubbasicCond(a, p),) for a, p in units.items()]
        for _ in range(rng.randint(2, 6)):
            a = rng.choice(list(units))
            on_fixed = SubbasicCond(a, units[a] == (rng.random() < 0.5))
            clauses.append((on_fixed, *(cond() for _ in range(rng.randint(1, 2)))))
        rng.shuffle(clauses)
        return clauses
    make = {"tautology": tautology, "repeated": repeated, "positive": positive}[shape]
    clauses = [make() for _ in range(rng.randint(1, 3))]
    clauses += [tuple(cond() for _ in range(rng.randint(1, 2))) for _ in range(rng.randint(0, 2))]
    rng.shuffle(clauses)
    return clauses


@pytest.mark.parametrize("shape", ["tautology", "repeated", "positive", "units", "mixed"])
@pytest.mark.parametrize("n, count", [(3, 15), (4, 1)])
def test_solve_matches_per_word_evaluation_on_clause_shapes(n, count, shape):
    # a clause is violated on the AND of its conditions' opposite words; these
    # shapes make that AND empty (a tautology), idempotent (a repeated
    # condition), a run of LACKS words (all members), or a bare word (units);
    # mixed clauses read literals on the coordinates the units fix, which
    # either satisfy the clause there or drop out of it
    rng = random.Random(f"{shape}-{n}")
    universe = GroundSet(n)
    for _ in range(count):
        cert = Certificate(universe, _shaped_clauses(rng, universe, shape))
        assert cert.solve() == _per_word_solutions(cert), cert.clauses


@pytest.mark.parametrize("n", [3, 4])
def test_a_tautology_alone_cuts_out_the_whole_cube(n):
    universe = GroundSet(n)
    cert = Certificate(universe, [(SubbasicCond(1, True), SubbasicCond(1, False))])
    assert cert.solve() == list(range(1 << universe.num_subsets))


def _solve_checked(universe, clauses):
    cert = Certificate(universe, clauses)
    solutions = cert.solve()
    assert solutions == _per_word_solutions(cert), clauses
    return solutions


def test_conflicting_units_allow_no_family():
    C = SubbasicCond
    assert _solve_checked(U3, [(C(2, True),), (C(5, False),), (C(2, False),)]) == []
    assert _solve_checked(GroundSet(4), [(C(9, False),), (C(9, True), C(3, True)),
                                         (C(9, True),)]) == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_units_on_every_coordinate_leave_one_family(n):
    # k = 0: the cylinder is one point, the family the units spell out
    universe = GroundSet(n)
    word = random.Random(n).randrange(1 << universe.num_subsets)
    clauses = [(SubbasicCond(a, bool((word >> a) & 1)),) for a in range(universe.num_subsets)]
    clauses.append((SubbasicCond(0, True), SubbasicCond(0, False)))
    assert _solve_checked(universe, clauses) == [word]


def test_a_clause_the_units_falsify_allows_no_family():
    C = SubbasicCond
    clauses = [(C(1, True),), (C(6, False),), (C(1, False), C(6, True), C(1, False)),
               (C(3, True), C(4, False))]
    assert _solve_checked(U3, clauses) == []
    # with one literal left free the clause asks "3 is absent", and then the
    # last clause asks "4 is absent": 4 of the 6 free coordinates stay free
    clauses[2] += (C(3, False),)
    assert len(_solve_checked(U3, clauses)) == 16


@pytest.mark.parametrize("mask, present", [(0, True), (5, False), (9, True), (15, False)])
def test_a_single_unit_at_four_points_is_half_the_cube(mask, present):
    solutions = _solve_checked(GroundSet(4), [(SubbasicCond(mask, present),)])
    assert len(solutions) == 32_768
    assert all(a < b for a, b in zip(solutions, solutions[1:]))


def test_batch_conditions_equal_the_public_ones():
    # the batch builder draws its conditions from a cache; they must be the
    # values SubbasicCond builds, one object per (mask, present)
    first = atom_closure_expression(U3, [1, 2]).clauses
    again = disjoint_closure_expression(U3, [Topology(fam(U3, 0, 1, 7)),
                                             Topology(fam(U3, 0, 2, 7))]).clauses
    C = SubbasicCond
    assert first == (
        (C(0, True),), (C(7, True),),
        (C(3, False),), (C(4, False),), (C(5, False),), (C(6, False),),
        (C(1, False), C(2, False)),
    )
    assert again == first
    assert all(a is b for ca, cb in zip(first, again) for a, b in zip(ca, cb))
    conds = [c for cl in first for c in cl]
    assert [hash(c) for c in conds] == [hash(C(c.mask, c.present)) for c in conds]
    for m in range(8):
        assert certificates._cond(m, True) != certificates._cond(m, False)
        for p in (True, False):
            assert certificates._cond(m, p) == C(m, p)
            assert hash(certificates._cond(m, p)) == hash(C(m, p))
    assert repr(certificates._cond(3, False)) == "[3]-"
    with pytest.raises(AttributeError):
        certificates._cond(3, False).present = True
    assert certificates._cond(3, False).present is False


def test_certificate_solve():
    cert = Certificate(U2, [(SubbasicCond(0, True),), (SubbasicCond(3, True),)])
    assert cert.conjunct_count == 2
    assert all((w & 0b1001) == 0b1001 for w in cert.solve())
    assert len(cert.solve()) == 4


# --------------------------------------------------------- atom certificates


def test_atom_certificate_two_points():
    report = atom_closure_certificate(U2, [1, 2])
    assert report.passed
    assert sorted(atom_closure_expression(U2, [1, 2]).solve()) == [9, 11, 13]


def test_atom_certificate_all_six():
    report = atom_closure_certificate(U3, range(1, 7))
    assert report.passed
    assert len(atom_closure_expression(U3, range(1, 7)).solve()) == 7


def test_atom_certificate_excludes_unchosen():
    solutions = atom_closure_expression(U3, [1, 2]).solve()
    trivial = (1 << 0) | (1 << 7)
    assert sorted(solutions) == [trivial, trivial | 2, trivial | 4]
    assert all(not (w >> 4) & 1 for w in solutions)  # {2} never a member


def test_atom_certificate_validation():
    with pytest.raises(ValueError):
        atom_closure_expression(U3, [0, 1])
    with pytest.raises(ValueError):
        atom_closure_expression(U3, [1, 7])
    with pytest.raises(ValueError):
        atom_closure_expression(U3, [1])


# ----------------------------------------------------- disjoint certificates


def test_disjoint_certificate_both_atoms_two_points():
    tops = [Topology(fam(U2, 0, 1, 3)), Topology(fam(U2, 0, 2, 3))]
    report = disjoint_closure_certificate(U2, tops)
    assert report.passed
    assert sorted(disjoint_closure_expression(U2, tops).solve()) == [9, 11, 13]


def test_disjoint_certificate_three_atoms():
    tops = [Topology(fam(U3, 0, 1 << i, 7)) for i in range(3)]
    report = disjoint_closure_certificate(U3, tops)
    assert report.passed
    assert len(disjoint_closure_expression(U3, tops).solve()) == 4


def test_disjoint_certificate_two_chains():
    tops = [Topology(fam(U3, 0, 1, 3, 7)), Topology(fam(U3, 0, 4, 6, 7))]
    report = disjoint_closure_certificate(U3, tops)
    assert report.passed
    trivial = (1 << 0) | (1 << 7)
    expected = [trivial, trivial | (1 << 1) | (1 << 3), trivial | (1 << 4) | (1 << 6)]
    assert sorted(disjoint_closure_expression(U3, tops).solve()) == expected


def test_disjoint_certificate_refuses_a_batch_on_another_ground_set():
    # the batch's words are read as families of the command's ground set:
    # a 3-point topology is not silently a 4-point family, nor the reverse
    small = [Topology(fam(U3, 0, 1, 7))]
    for build in (disjoint_closure_certificate, disjoint_closure_expression):
        with pytest.raises(ValueError, match="n=3 ground set given for n=4"):
            build(GroundSet(4), small)
    U4 = GroundSet(4)
    large = [Topology(fam(U4, 0, 1, 15)), Topology(fam(U4, 0, 2, 15))]
    for build in (disjoint_closure_certificate, disjoint_closure_expression):
        with pytest.raises(ValueError, match="n=4 ground set given for n=3"):
            build(U3, large)


def test_disjoint_certificate_validation():
    overlapping = [Topology(fam(U3, 0, 1, 7)), Topology(fam(U3, 0, 1, 3, 7))]
    with pytest.raises(ValueError):
        disjoint_closure_expression(U3, overlapping)
    with pytest.raises(ValueError):
        disjoint_closure_expression(U3, [Topology.trivial(U3), Topology(fam(U3, 0, 1, 7))])


def test_a_trivial_topology_is_refused_before_any_overlap():
    # the first two overlap, and the trivial topology comes last
    tops = [Topology(fam(U3, 0, 1, 7)), Topology(fam(U3, 0, 1, 3, 7)), Topology.trivial(U3)]
    for build in (disjoint_closure_certificate, disjoint_closure_expression):
        with pytest.raises(ValueError, match="^the trivial topology cannot appear in the batch$"):
            build(U3, tops)


def test_an_overlap_is_named_by_the_first_pair_in_combinations_order():
    # 0 and 3 share {0}, 1 and 2 share {1}: the running OR meets the
    # overlap at topology 2, but (0, 3) comes first among the pairs
    U4 = GroundSet(4)
    tops = [Topology(fam(U4, 0, 1, 15)), Topology(fam(U4, 0, 2, 15)),
            Topology(fam(U4, 0, 2, 3, 15)), Topology(fam(U4, 0, 1, 5, 15))]
    for build in (disjoint_closure_certificate, disjoint_closure_expression):
        with pytest.raises(ValueError, match="^topologies 0 and 3 share a proper open$"):
            build(U4, tops)
    with pytest.raises(ValueError, match="^topologies 0 and 1 share a proper open$"):
        disjoint_closure_expression(U4, tops[1:3])


def _clause_text(cert) -> str:
    return " ".join("|".join(map(repr, cl)) for cl in cert.clauses)


def test_batch_clauses_in_order_at_three_and_four_points():
    # the bounds; every unchosen proper subset absent, increasing; for each
    # pair of topologies in order, no two of their opens together; within
    # each topology, each open forcing every other one
    U4 = GroundSet(4)
    assert _clause_text(atom_closure_expression(U3, [4, 1, 6])) == (
        "[0]+ [7]+ [2]- [3]- [5]- [1]-|[4]- [1]-|[6]- [4]-|[6]-")
    two_chains = [Topology(fam(U3, 0, 1, 3, 7)), Topology(fam(U3, 0, 4, 6, 7))]
    assert _clause_text(disjoint_closure_expression(U3, two_chains)) == (
        "[0]+ [7]+ [2]- [5]- [1]-|[4]- [1]-|[6]- [3]-|[4]- [3]-|[6]- "
        "[1]+|[3]- [3]+|[1]- [4]+|[6]- [6]+|[4]-")
    assert _clause_text(atom_closure_expression(U4, [12, 3, 5])) == (
        "[0]+ [15]+ [1]- [2]- [4]- [6]- [7]- [8]- [9]- [10]- [11]- [13]- [14]- "
        "[3]-|[5]- [3]-|[12]- [5]-|[12]-")
    three = [Topology(fam(U4, 0, 1, 3, 15)), Topology(fam(U4, 0, 4, 8, 12, 15)),
             Topology(fam(U4, 0, 2, 15))]
    cert = disjoint_closure_expression(U4, three)
    assert _clause_text(cert) == (
        "[0]+ [15]+ [5]- [6]- [7]- [9]- [10]- [11]- [13]- [14]- "
        "[1]-|[4]- [1]-|[8]- [1]-|[12]- [3]-|[4]- [3]-|[8]- [3]-|[12]- "
        "[1]-|[2]- [3]-|[2]- [4]-|[2]- [8]-|[2]- [12]-|[2]- "
        "[1]+|[3]- [3]+|[1]- [4]+|[8]- [4]+|[12]- [8]+|[4]- [8]+|[12]- "
        "[12]+|[4]- [12]+|[8]-")
    assert cert.conjunct_count == 29
    trivial = 1 | 1 << 15
    assert cert.solve() == sorted([trivial] + [trivial | t.family.word for t in three])


# --------------------------------------------------------- interval identity


def test_interval_identity_on_all_topologies():
    report = interval_identity_all(U2, [9, 11, 13, 15])
    assert report.passed
    assert report.params["sublattice"] == 4


def test_interval_identity_middle_of_chain():
    assert interval_identity_all(U2, [1, 9, 11]).passed


def test_interval_identity_singleton():
    assert interval_identity_all(U2, [13]).passed


def test_interval_identity_all_elements():
    assert interval_identity_all(U2, [2, 4, 9]).passed


def test_interval_identity_sweep_two_points():
    report = interval_identity_sweep(U2, max_gens=2)
    assert report.passed
    assert "16 cube elements" in report.notes[0]
    assert report.notes[1] == "136 generated sublattices re-checked literally"  # 16 + C(16, 2)


def test_interval_identity_sweep_work_at_three_points():
    # pins how much the sweep checks, so that a faster sweep cannot check less
    report = interval_identity_sweep(U3)
    assert report.passed
    assert "all 256 cube elements" in report.notes[0]
    assert report.notes[1] == "88167 generated sublattices re-checked literally"


def test_interval_identity_sweep_thins_its_top_layer_from_the_first_triple(monkeypatch):
    # the count above also holds for a layer thinned from its second triple
    seen = []
    mismatch = certificates._sublattice_mismatch

    def recorded(n, words):
        seen.append(words)
        return mismatch(n, words)

    monkeypatch.setattr(certificates, "_sublattice_mismatch", recorded)
    assert interval_identity_sweep(U3).passed
    triples = [words for words in seen if len(words) == 3]
    assert len(triples) == 55271  # every 50th of C(256, 3)
    assert triples[:3] == [(0, 1, 2), (0, 1, 52), (0, 1, 102)]
    assert triples[-1] == (250, 251, 252)


def _word(fams):
    return sum(1 << f for f in fams)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_interval_routes_match_their_definitions(n):
    cube = range(1 << (1 << n))
    for x in cube:
        inside = [a for a in range(1 << n) if (x >> a) & 1]
        outside = [a for a in range(1 << n) if not (x >> a) & 1]
        assert certificates._order_route(n, x) == (
            _word(f for f in cube if f & x == x),
            _word(f for f in cube if f & x == f),
        ), x
        assert certificates._cond_route(n, x) == (
            _word(f for f in cube if all((f >> a) & 1 for a in inside)),
            _word(f for f in cube if not any((f >> a) & 1 for a in outside)),
        ), x


@pytest.mark.parametrize(
    "route, side",
    [("_order_route", "up"), ("_cond_route", "down"), ("_order_route", "both")],
)
def test_interval_identity_fails_when_a_route_drops_a_bit(monkeypatch, route, side):
    real = getattr(certificates, route)

    def dropped(n, x):
        up, down = real(n, x)
        if side != "down":
            up &= ~(1 << x)
        if side != "up":
            down &= ~(1 << x)
        return up, down

    monkeypatch.setattr(certificates, route, dropped)
    report = interval_identity_all(U2, [9, 11, 13, 15])
    assert report.verdict == "fail"
    side = "up" if side == "both" else side  # both sides differ: up is named
    assert report.witness == {"element": 9, "side": side, "difference_words": [9]}
    report = interval_identity_sweep(U2)
    assert report.verdict == "fail"
    assert report.witness == {
        "element": 0, "side": side, "difference_words": [0], "scope": "whole cube",
    }


def test_interval_identity_reads_route_differences_on_members_only(monkeypatch):
    # family 0 lies below every family and outside the sublattice {9, 11, 13, 15}
    real = certificates._cond_route
    monkeypatch.setattr(certificates, "_cond_route", lambda n, x: (real(n, x)[0],
                                                                   real(n, x)[1] & ~1))
    assert interval_identity_all(U2, [9, 11, 13, 15]).passed
    report = interval_identity_sweep(U2)
    assert report.witness == {
        "element": 0, "side": "down", "difference_words": [0], "scope": "whole cube",
    }


def test_a_route_replaced_after_a_pass_is_not_read_through_the_agreed_elements(monkeypatch):
    assert interval_identity_all(U2, [9, 11, 13, 15]).passed
    assert {9, 11, 13, 15} <= certificates._agreed(2)
    real = certificates._order_route
    monkeypatch.setattr(certificates, "_order_route",
                        lambda n, x: (real(n, x)[0] & ~(1 << x), real(n, x)[1]))
    report = interval_identity_all(U2, [9, 11, 13, 15])
    assert report.verdict == "fail"
    assert report.witness == {"element": 9, "side": "up", "difference_words": [9]}


def _literal_interval_identity(n, gens, order, cond):
    # both routes at each member in increasing order, the difference ANDed
    # with the member word: (verdict, params, notes, witness)
    words = sorted(set(gens))
    members = sorted(close_words(words))
    member_word = sum(1 << w for w in members)
    params = {"n": n, "gens": words, "sublattice": len(members)}
    for x in members:
        (up_order, down_order), (up_cond, down_cond) = order(n, x), cond(n, x)
        for side, difference in (("up", up_order ^ up_cond), ("down", down_order ^ down_cond)):
            if difference & member_word:
                hit = [w for w in members if (difference >> w) & 1][:8]
                return "fail", params, [], {"element": x, "side": side, "difference_words": hit}
    return "pass", params, [f"{len(members)} elements, both sides agree"], None


def _route_dropping_bits(real):
    # differs from ``real`` at some elements only: up loses word 3x mod 2^(2^n)
    # at x = 0 mod 3, down loses word 0 at x = 1 mod 5, the rest agree
    def route(n, x):
        up, down = real(n, x)
        if x % 3 == 0:
            up &= ~(1 << (3 * x % (1 << (1 << n))))
        if x % 5 == 1:
            down &= ~1
        return up, down
    return route


@pytest.mark.parametrize("broken", [False, True])
def test_interval_identity_matches_a_literal_reference(monkeypatch, broken):
    # the agreed elements start empty and fill as the tuples run, so later
    # tuples take the superset test; every report equals the reference
    monkeypatch.setattr(certificates, "_AGREED", {})
    if broken:
        monkeypatch.setattr(certificates, "_cond_route",
                            _route_dropping_bits(certificates._cond_route))
    rng = random.Random(30)
    cases = [(U2, combo) for r in (1, 2, 3) for combo in combinations(range(16), r)]
    cases += [(U3, [rng.randrange(256) for _ in range(rng.randint(1, 4))]) for _ in range(300)]
    verdicts = set()
    for universe, gens in cases:
        report = interval_identity_all(universe, gens)
        expected = _literal_interval_identity(universe.n, gens, certificates._order_route,
                                              certificates._cond_route)
        assert (report.verdict, report.params, report.notes, report.witness) == expected, gens
        verdicts.add(report.verdict)
    assert verdicts == ({"pass", "fail"} if broken else {"pass"})


def test_interval_identity_rejects_a_family_of_another_ground_set():
    with pytest.raises(ValueError, match="n=2 ground set given for n=3"):
        interval_identity_all(U3, [Family(U2, 5), Family(U2, 9)])
    with pytest.raises(ValueError, match="out of range"):
        interval_identity_all(U2, [16])


# ------------------------------------------------------------- limit points


def test_declared_top_is_limit_of_stages():
    stage, _, top = initials_chain({"enum": EVENS.to_json()})
    c3 = UPSet.from_ints([0, 2, 4, 6])
    pool = [stage(m) for m in range(16)]
    assert is_limit_point_sampled(top, pool, [c3, ODDS, NATS], depth=16).passed


def test_isolated_from_constant_pool():
    x = Explicit([EMPTY, NATS])
    report = is_limit_point_sampled(x, [x, x, x], [EMPTY, NATS], depth=4)
    assert report.verdict == "fail"


def test_missed_neighbourhood_is_inconclusive():
    x = Explicit([EMPTY])
    report = is_limit_point_sampled(x, [Explicit([NATS])], [EMPTY], depth=4)
    assert report.verdict == "inconclusive"


def test_limit_point_on_no_coordinates_is_inconclusive():
    # the one pattern left is the whole space, which any pool meets
    x = Explicit([EMPTY, NATS])
    report = is_limit_point_sampled(x, [Explicit([NATS])], [], depth=4)
    assert (report.verdict, report.witness) == ("inconclusive", {"coords": 0})


def fam_distinct(e1, e2, extra=(), cap=8):
    """A coordinate separating the two families, if the probe pool finds one:
    the caller's coordinates, then both expressions' structural probes."""
    pool = list(extra) + e1.probe_sets(cap) + e2.probe_sets(cap)
    for w in dict.fromkeys(pool):
        if e1.contains(w) != e2.contains(w):
            return w
    return None


def test_fam_distinct():
    _, union, top = initials_chain({"enum": EVENS.to_json()})
    w = fam_distinct(union, top)
    assert w is not None
    assert union.contains(w) != top.contains(w)
    assert fam_distinct(union, ChainInitials(EVENS, [EMPTY, NATS])) is None
    assert fam_distinct(Explicit([EVENS]), Explicit([ODDS])) is not None


def _old_limit_point(x, candidates, coords, depth):
    """The limit-point check as it was written with one fam_distinct per
    candidate: (verdict, witness, notes)."""
    from itertools import combinations

    reference = {w: x.contains(w) for w in coords}
    distinct = [fam_distinct(x, c, extra=coords, cap=depth + 1) is not None
                for c in candidates]
    open_question = False
    for r in range(len(coords) + 1):
        for subset in combinations(coords, r):
            inside = [i for i, c in enumerate(candidates)
                      if all(c.contains(w) == reference[w] for w in subset)]
            if not inside:
                open_question = True
                continue
            if not any(distinct[i] for i in inside):
                return "fail", {"pattern": [w.describe() for w in subset],
                                "pool_members_inside": len(inside)}
    if open_question:
        return "inconclusive", {"reason": "some neighbourhood misses the whole candidate pool"}
    if not coords:
        return "inconclusive", {"coords": 0}
    return "pass", None


def _limit_point_cases():
    stage, union, top = initials_chain({"enum": EVENS.to_json()})
    c3 = UPSet.from_ints([0, 2, 4, 6])
    one = UPSet.singleton(1)
    pair = Explicit([EMPTY, NATS])
    return [
        (top, [stage(m) for m in range(16)], [c3, ODDS, NATS], 16),
        (top, [stage(m) for m in range(4)], [c3, ODDS, NATS], 4),
        (union, [stage(m) for m in range(8)] + [top], [c3, EVENS], 8),
        (top, [top, union], [EVENS, c3], 6),
        (union, [stage(m) for m in range(8)], [EVENS, ODDS, one], 8),
        (union, [union, stage(0)], [c3, one], 3),
        (top, [stage(m) for m in range(6)], [one, NATS, EMPTY], 5),
        (pair, [pair, pair, pair], [EMPTY, NATS], 4),
        (pair, [Explicit([NATS]), Explicit([EMPTY])], [EMPTY, NATS], 4),
        (Explicit([EMPTY]), [Explicit([NATS])], [EMPTY], 4),
        (pair, [Explicit([NATS])], [], 4),
        (pair, [], [EMPTY], 4),
    ]


@pytest.mark.parametrize("case", range(12))
def test_limit_point_verdicts_match_one_fam_distinct_per_candidate(case):
    x, candidates, coords, depth = _limit_point_cases()[case]
    report = is_limit_point_sampled(x, candidates, coords, depth=depth)
    verdict, witness = _old_limit_point(x, candidates, coords, depth)
    assert report.verdict == verdict
    if witness is not None:
        assert report.witness == witness


def test_limit_point_asks_for_the_base_point_probes_once(monkeypatch):
    stage, _, top = initials_chain({"enum": EVENS.to_json()})
    calls = []
    real = top.probe_sets

    def counting(cap=8):
        calls.append(cap)
        return real(cap)

    monkeypatch.setattr(top, "probe_sets", counting)
    pool = [stage(m) for m in range(16)]
    c3 = UPSet.from_ints([0, 2, 4, 6])
    assert is_limit_point_sampled(top, pool, [c3, ODDS, NATS], depth=16).passed
    assert calls == [17]
    calls.clear()
    assert is_limit_point_sampled(top, [], [c3], depth=16).verdict == "inconclusive"
    assert calls == []


def test_limit_point_decides_each_base_point_membership_once(monkeypatch):
    stage, _, top = initials_chain({"enum": EVENS.to_json()})
    asked = []
    real = top.contains

    def counting(w):
        asked.append(w)
        return real(w)

    monkeypatch.setattr(top, "contains", counting)
    pool = [stage(m) for m in range(16)]
    c3 = UPSet.from_ints([0, 2, 4, 6])
    assert is_limit_point_sampled(top, pool, [c3, ODDS, NATS], depth=16).passed
    assert len(asked) == len(set(asked))


def test_pattern_coordinate_cap():
    xs = [UPSet.singleton(i) for i in range(11)]
    with pytest.raises(ValueError):
        is_limit_point_sampled(Explicit([EMPTY]), [Explicit([NATS])], xs)


# -------------------------------------------------------------- convergence


def test_segment_stages_converge_to_top():
    stage, _, top = initials_chain({"enum": EVENS.to_json()})
    c0 = UPSet.singleton(0)
    c5 = UPSet.from_ints([0, 2, 4, 6, 8, 10])
    report = sequence_convergence_check(
        stage, top, [c0, c5, ODDS], depth=16, assume_increasing=True
    )
    assert report.passed


def test_nested_powerset_union_converges_but_is_no_topology():
    stage, union = nested_initial_chain({})
    coords = [UPSet.singleton(0), UPSet.from_ints([0, 1, 2]), EVENS, NATS]
    conv = sequence_convergence_check(
        stage, union, coords, depth=8, assume_increasing=True
    )
    assert conv.passed
    probe = fam_is_topology_sym(union, [(EVENS, ODDS)])
    assert probe.verdict == "fail"
    assert probe.witness["kind"] == "union-of-members-escapes"


def test_constant_sequence_converges_immediately():
    x = Explicit([EMPTY, NATS])
    report = sequence_convergence_check(lambda m: x, x, [EMPTY, EVENS], depth=1)
    assert report.passed


def test_locked_coordinate_refutes_limit():
    stage = lambda m: Explicit([EMPTY, NATS])
    report = sequence_convergence_check(
        stage, Explicit([NATS]), [EMPTY], depth=4, assume_increasing=True
    )
    assert report.verdict == "fail"
    assert report.witness["locked"] is True


def test_unsettled_coordinate_is_inconclusive():
    stage, _, top = initials_chain({"enum": EVENS.to_json()})
    report = sequence_convergence_check(
        stage, top, [EVENS], depth=8, assume_increasing=True
    )
    assert report.verdict == "inconclusive"
    report = sequence_convergence_check(stage, top, [EVENS], depth=8)
    assert report.verdict == "inconclusive"


def test_convergence_on_no_coordinates_is_inconclusive():
    # with nothing to examine there is nothing to claim
    x = Explicit([EMPTY, NATS])
    for increasing in (True, False):
        report = sequence_convergence_check(
            lambda m: x, x, [], depth=4, assume_increasing=increasing
        )
        assert report.verdict == "inconclusive"
        assert report.witness == {"coords": 0}


def test_convergence_rejects_depth_zero():
    x = Explicit([EMPTY, NATS])
    for increasing in (True, False):
        with pytest.raises(ValueError, match="at least one stage"):
            sequence_convergence_check(
                lambda m: x, x, [EMPTY], depth=0, assume_increasing=increasing
            )


def test_convergence_without_monotonicity_reads_the_last_stage_only():
    # membership drops after stage 0; undeclared, only stage depth-1 counts
    stage = lambda m: Explicit([EMPTY, NATS]) if m == 0 else Explicit([NATS])
    report = sequence_convergence_check(stage, Explicit([NATS]), [EMPTY, NATS], depth=4)
    assert report.passed


def test_dropped_membership_raises_when_declared_increasing():
    stage = lambda m: Explicit([EMPTY, NATS]) if m == 0 else Explicit([NATS])
    with pytest.raises(ValueError):
        sequence_convergence_check(
            stage, Explicit([NATS]), [EMPTY], depth=4, assume_increasing=True
        )


# ----------------------------------------------------------- limit vs union


def test_limit_vs_union_disagrees_at_the_new_set():
    _, union, top = initials_chain({"enum": EVENS.to_json()})
    report = limit_vs_union_check(top, union, [ODDS, NATS])
    assert report.verdict == "fail"
    assert report.witness["differing"] == [EVENS.describe()]
    assert report.witness["in_limit_only"] == [EVENS.describe()]
    assert any("informational" in n for n in report.notes)


def test_limit_vs_union_agreement():
    _, union, _ = initials_chain({"enum": EVENS.to_json()})
    report = limit_vs_union_check(union, union, [ODDS, NATS])
    assert report.passed and report.witness is None
    assert report.notes == ["limit and union agree on the whole probe pool"]
    # ODDS and NATS, then the union's probes less NATS again: EVENS, the
    # empty set and the first eight initial segments
    assert report.params == {"coords": 12}


def test_limit_vs_union_on_an_empty_pool_is_inconclusive():
    report = limit_vs_union_check(Explicit([]), Explicit([]), [])
    assert (report.verdict, report.witness) == ("inconclusive", {"coords": 0})


# ----------------------------------------------------------- ordinal ladder


def test_stages_with_plain_union_form_a_ladder():
    stage, union, _ = initials_chain({"enum": EVENS.to_json()})
    c0 = UPSet.singleton(0)
    report = ordinal_homeo_check(stage, union, [c0, ODDS], depth=12)
    assert report.passed


def test_declared_top_without_reference_is_inconclusive():
    stage, _, top = initials_chain({"enum": EVENS.to_json()})
    report = ordinal_homeo_check(stage, top, [ODDS], depth=12)
    assert report.verdict == "inconclusive"
    assert report.witness["coordinates_not_reached_within_depth"] == [EVENS.describe()]


def test_stage_member_missing_from_top_is_locked_fail():
    stage, _, _ = initials_chain({"enum": EVENS.to_json()})
    c0 = UPSet.singleton(0)
    c1 = UPSet.from_ints([0, 2])
    report = ordinal_homeo_check(
        stage, Explicit([EMPTY, NATS]), [c0, c1], depth=2
    )
    assert report.verdict == "fail"
    assert c0.describe() in report.witness["coordinates_locked_off_top"]


def test_lost_coordinate_raises():
    rule = lambda m: Explicit([EMPTY, NATS]) if m == 0 else Explicit([NATS])
    with pytest.raises(ValueError):
        ordinal_homeo_check(rule, Explicit([NATS]), [EMPTY], depth=4)


def test_ladder_on_an_empty_pool_is_inconclusive():
    # depth 1 takes no step, and an empty top suggests no probe set
    report = ordinal_homeo_check(lambda m: Explicit([]), Explicit([]), [], depth=1)
    assert (report.verdict, report.witness) == ("inconclusive", {"coords": 0})


def test_ladder_rejects_depth_zero():
    stage, union, _ = initials_chain({"enum": EVENS.to_json()})
    with pytest.raises(ValueError, match="at least one stage"):
        ordinal_homeo_check(stage, union, [ODDS], depth=0)


def test_ladder_raises_on_a_drop_after_a_step_that_gained_nothing():
    # step 0 gains nothing, stage 2 drops the whole space: the drop within
    # the depth is an input error and wins over the inconclusive step
    rule = lambda m: Explicit([NATS]) if m < 2 else Explicit([])
    with pytest.raises(ValueError, match="dropped"):
        ordinal_homeo_check(rule, Explicit([NATS]), [NATS], depth=4)


# ------------------------------------------------------- one omega walker


def _initials(top_kind):
    stage, union, top = initials_chain({"enum": EVENS.to_json()})
    tops = {"union": union, "top": top, "explicit": Explicit([EMPTY, EVENS, NATS])}
    segments = [UPSet.from_ints(range(0, 2 * m + 1, 2)) for m in range(4)]
    return stage, tops[top_kind], [*segments, ODDS, EVENS]


@pytest.mark.parametrize("chain, top_kind, locked, unreached, verdict", [
    (_initials, "union", 0, 0, "pass"),
    (_initials, "top", 0, 1, "inconclusive"),
    (_initials, "explicit", 4, 1, "fail"),
])
def test_the_omega_checks_read_one_walk(chain, top_kind, locked, unreached, verdict):
    """The three omega-chain checks, fed the same chain, top, coordinates
    and depth, agree with each other and with ``lattice._settle``."""
    stage, top, coords = chain(top_kind)
    depth = 4
    walked = _settle([stage(i) for i in range(depth)], top, coords)
    assert (len(walked[1]), len(walked[2])) == (locked, unreached)
    omega = chain_completion_omega(stage, top, coords, depth)
    converged = sequence_convergence_check(stage, top, coords, depth, assume_increasing=True)
    assert omega.verdict == converged.verdict == verdict

    pool = list(dict.fromkeys(coords + top.probe_sets(depth)))
    _, locked_off, not_reached = _settle([stage(i) for i in range(depth)], top, pool)
    ladder = ordinal_homeo_check(stage, top, coords, depth)
    assert ladder.verdict == verdict
    if locked_off:
        assert ladder.witness == {
            "coordinates_locked_off_top": [w.describe() for w in locked_off]}
    elif not_reached:
        assert ladder.witness == {
            "coordinates_not_reached_within_depth": [w.describe() for w in not_reached]}
