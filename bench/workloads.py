"""The four seeded workloads: one round of jobs each, with expected results.

A workload is a list of jobs, one "round"; run.py repeats the round in a
closed loop.  A job is a timed call, or a short batch of calls, into
topcube's public functions; a ``summarize`` step that reduces the output to
plain data after the timer stops; and the expected summary, worked out when
the round is generated and never from the job's own output.  Expected
values come from known constants (topology counts 1/4/29/355), from the
shape of the inputs (which families an atom or disjoint-batch certificate
must cut out, a chain being its own completion), or from small reference
routines here that use only membership tests and plain integers.

Jobs look functions up through their module (``topology.embedding_check``,
``famexpr.TopGen``) when they run, not when they are built, so the tracer can
swap in its wrappers after the round exists.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import random
import re
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from math import lcm
from typing import Callable

from topcube import certificates, cli, famexpr, lattice, oracles, topology, upsets
from topcube.cube import GroundSet

U3 = GroundSet(3)
U4 = GroundSet(4)

FIXTURES = ("all-atoms-n3", "disjoint-pair", "initials-chain", "join-gap",
            "nested-powersets", "powerset-chain")


@dataclass
class Job:
    kind: str
    call: Callable[[], object]
    summarize: Callable[[object], object]
    expected: object


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    fixtures: tuple[str, ...] = ()


# -- cube-n4: whole-cube sweeps at n=4 ----------------------------------------

def _members(word: int, nsub: int) -> list[int]:
    return [m for m in range(nsub) if (word >> m) & 1]


def _cert_summary(report):
    payload = ast.literal_eval(report.notes[0]) if report.notes else report.witness
    return report.verdict, payload["solutions"], payload.get("members")


def _cert_expected(words, nsub: int):
    words = sorted(set(words))
    return "pass", len(words), [_members(w, nsub) for w in words]


def _leading_int(report):
    return report.verdict, int(report.notes[0].split()[0])


def cube_n4(rng: random.Random) -> Workload:
    nsub = U4.num_subsets
    trivial = 1 | (1 << U4.full_mask)
    jobs = [Job(
        "count",
        lambda: (topology.count_topologies(U4), oracles.count_preorders(4)),
        lambda r: r,
        (355, 355),
    )]
    for _ in range(3):
        chosen = tuple(sorted(rng.sample(range(1, U4.full_mask), rng.randint(2, 6))))
        jobs.append(Job(
            "atom-closure",
            lambda c=chosen: certificates.atom_closure_certificate(U4, c),
            _cert_summary,
            _cert_expected([trivial] + [trivial | (1 << m) for m in chosen], nsub),
        ))
    for _ in range(3):
        batch = cli.random_disjoint_topologies(
            U4, random.Random(rng.randrange(1 << 32)), want=rng.randint(2, 4)
        )
        jobs.append(Job(
            "disjoint-closure",
            lambda b=batch: certificates.disjoint_closure_certificate(U4, b),
            _cert_summary,
            _cert_expected([trivial] + [t.family.word for t in batch], nsub),
        ))
    for _ in range(3):
        chain = lattice.random_chain(U4, rng, 4)
        # A finite chain is complete: the part below or above any comparable
        # family has its join or meet inside the chain already.
        jobs.append(Job(
            "chain-completion",
            lambda c=chain: lattice.chain_completion_finite(U4, c),
            lambda fams: sorted(f.word for f in fams),
            sorted({f.word for f in chain}),
        ))
    jobs.append(Job(
        "embedding",
        lambda: topology.embedding_check(U4),
        _leading_int,
        ("pass", 355),
    ))
    rng.shuffle(jobs)
    return Workload("cube-n4", jobs)


# -- sublattice-n3: many small generated sublattices at n=3 ------------------

def _closure(words) -> set[int]:
    pool = set(words)
    while True:
        grown = pool | {a & b for a in pool for b in pool} | {a | b for a in pool for b in pool}
        if grown == pool:
            return pool
        pool = grown


# Generator counts weighted as `verify interval-identity` materializes them
# at n=3: all 256 singletons, all 32640 pairs, every 50th of the triples.
GEN_COUNT_WEIGHTS = (256, 32640, 55271)
BATCH = 15
INTERVAL_BATCHES, TOP_BATCHES = 60, 21


def _gen_counts(total: int) -> list[int]:
    """Generator counts for ``total`` tuples, in GEN_COUNT_WEIGHTS' exact shares.

    Exact shares rather than weighted draws, so that the seed draws which
    families are generators but not how many 2- and 3-generator tuples a
    round holds; the cost of a round depends on the seed less.
    """
    weight = sum(GEN_COUNT_WEIGHTS)
    counts = [round(total * w / weight) for w in GEN_COUNT_WEIGHTS[:-1]]
    counts.append(total - sum(counts))
    return [r for r, c in enumerate(counts, 1) for _ in range(c)]


def sublattice_n3(rng: random.Random) -> Workload:
    """900 generated sublattices and 315 generated topologies per round.

    A job is a batch of BATCH calls, so that a job's latency is milliseconds
    and its tail is not set by a single scheduler hiccup.
    """
    sizes = _gen_counts(INTERVAL_BATCHES * BATCH)
    rng.shuffle(sizes)
    gens = [tuple(sorted(rng.sample(range(1 << U3.num_subsets), r))) for r in sizes]
    jobs = []
    for start in range(0, len(gens), BATCH):
        batch = gens[start:start + BATCH]
        jobs.append(Job(
            "interval-identity",
            lambda b=batch: [certificates.interval_identity_all(U3, g) for g in b],
            lambda reps: [(rep.verdict, rep.params["sublattice"]) for rep in reps],
            [("pass", len(_closure(g))) for g in batch],
        ))
    for _ in range(TOP_BATCHES):
        batch = [tuple(rng.sample(range(U3.num_subsets), rng.randint(1, 4)))
                 for _ in range(BATCH)]
        jobs.append(Job(
            "top-generate",
            lambda b=batch: [topology.top_generate(U3, s) for s in b],
            lambda tops: [t.family.word for t in tops],
            [sum(1 << m for m in _closure(set(s) | {0, U3.full_mask})) for s in batch],
        ))
    rng.shuffle(jobs)
    return Workload("sublattice-n3", jobs)


# -- cli-default: the CLI in process, every verb that is quick by default ----

_COUNTS = {1: 1, 2: 4, 3: 29}


def _run_cli(argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_summary(json_path: str, outcome):
    code, text = outcome
    with open(json_path, encoding="utf-8") as fh:
        report = json.load(fh)
    os.remove(json_path)
    last = text.rstrip("\n").rsplit("\n", 1)[-1]
    count = None
    if report["check"] == "count":
        count = int(re.match(r"(\d+) topologies", report["notes"][0]).group(1))
    return code, report["verdict"], last.split(" (")[0], count


def cli_default(rng: random.Random, json_path: str) -> Workload:
    argvs = [(["count", "--n", str(n)], _COUNTS[n]) for n in (1, 2, 3)]
    argvs += [
        (["verify", check, "--n", "3", "--seed", str(rng.randrange(10**6))], None)
        for check in cli.CHECKS
        if check != "interval-identity"
    ]
    argvs += [(["demo", name], None) for name in sorted(cli.DEMOS)]
    argvs.append((["demo", "powerset-chain", "--fixture", "nested-powersets"], None))
    argvs.append((["verify", "disjoint-closure", "--fixture", "disjoint-pair"], None))
    jobs = [
        Job(
            " ".join(argv[:2]),
            partial(_run_cli, [*argv, "--json", json_path]),
            partial(_cli_summary, json_path),
            (0, "pass", "verdict: pass", count),
        )
        for argv, count in argvs
    ]
    rng.shuffle(jobs)
    return Workload("cli-default", jobs, FIXTURES)


# -- upset-long-period: the symbolic layer at long periods --------------------

# Period lengths of the generators of each job.  Fixed, so that every seed
# pays the same alignment windows (lcm 24 .. 3600 bits); the seed draws the
# bits, the preperiods and the order of the jobs.  Every shape comes three
# times, with other bits each time: the median job then depends less on the
# bits one draw gives one shape.  The cost of a three-generator job also
# depends on the order in which the meets are unioned, which is the hash
# order of a frozenset of UPSets and changes from process to process; three
# draws average that out as well.
PERIOD_SHAPES = (
    (8, 12), (16, 24), (20, 25), (10, 21), (17, 19), (9, 32), (27, 32), (29, 31), (31, 32),
    (8, 12, 16), (13, 16, 20), (11, 13, 16), (9, 16, 25),
) * 3


def _bits(s, width: int) -> int:
    """Membership of 0..width-1 in s as an integer, bit i for point i."""
    return int("".join("1" if i in s else "0" for i in reversed(range(width))) or "0", 2)


def _long_upset(rng: random.Random, period_len: int, pre_len: int):
    """A canonical UPSet with exactly the given preperiod and period lengths."""
    while True:
        period = "".join(rng.choice("01") for _ in range(period_len))
        if period not in (period + period)[1:-1]:  # primitive word
            break
    pre = "".join(rng.choice("01") for _ in range(pre_len))
    if pre:  # a last preperiod bit unlike the period's last bit is not absorbed
        pre = pre[:-1] + ("0" if period[-1] == "1" else "1")
    return upsets.UPSet(pre, period)


def _op_summary(pre_len: int, width: int, result):
    aligned = len(result.pre) <= pre_len and (width - pre_len) % len(result.period) == 0
    return _bits(result, width), aligned


def _contains_all(make, candidates):
    expr = make()
    return tuple(expr.contains(c) for c in candidates)


class _Window:
    """Sets as integers over one window on which all of them are periodic."""

    def __init__(self, sets):
        self.start = max(len(s.pre) for s in sets)
        self.width = self.start + lcm(*(len(s.period) for s in sets))
        self.full = (1 << self.width) - 1

    def of(self, s) -> int:
        return _bits(s, self.width)

    def finite(self, x: int) -> bool:
        return x >> self.start == 0

    def meets_below(self, gens: list[int], a: int, extra=()) -> list[int]:
        pool = set(extra)
        for r in range(1, len(gens) + 1):
            for combo in combinations(gens, r):
                m = self.full
                for g in combo:
                    m &= g
                pool.add(m)
        return [m for m in pool if m & ~a == 0]


def _subset(s, t) -> bool:
    win = _Window([s, t])
    return win.of(s) & ~win.of(t) == 0


def _or(words) -> int:
    out = 0
    for w in words:
        out |= w
    return out


def _membership_reference(kind, win: _Window, args, a: int, enum=None) -> bool:
    if kind == "Explicit":
        return a in args
    if kind == "DownPow":
        return a & ~args == 0
    if kind == "NearDown":
        return win.finite(a & ~args)
    if kind == "TopGen":
        return _or(win.meets_below(args, a, (0, win.full))) == a
    if kind == "LatGen":
        below = win.meets_below(args, a)
        return bool(below) and _or(below) == a
    if kind == "LatGenSing":
        return a != 0 and win.finite(a & ~_or(win.meets_below(args, a)))
    if kind == "UnionFam":
        down, near = args
        return (a & ~down == 0) or win.finite(a & ~near)
    if kind == "ChainInitials":
        extras = args
        if a in extras:
            return True
        if a == 0 or not win.finite(a):
            return False
        points = [i for i in range(win.start) if (a >> i) & 1]
        first, i = [], 0
        while len(first) < len(points):
            if i in enum:
                first.append(i)
            i += 1
        return points == first
    raise ValueError(kind)


def _upset_job(rng: random.Random, gens) -> Job:
    thunks, summaries, expected = [], [], []

    def add(thunk, summarize, want):
        thunks.append(thunk)
        summaries.append(summarize)
        expected.append(want)

    same = lambda r: r  # noqa: E731
    for a, b in combinations(gens, 2):
        pre_len = max(len(a.pre), len(b.pre))
        width = pre_len + lcm(len(a.period), len(b.period))
        x, y = _bits(a, width), _bits(b, width)
        full = (1 << width) - 1
        summarize = partial(_op_summary, pre_len, width)
        add(lambda a=a, b=b: a & b, summarize, (x & y, True))
        add(lambda a=a, b=b: a | b, summarize, (x | y, True))
        add(lambda a=a, b=b: a - b, summarize, (x & ~y & full, True))
        add(lambda a=a, b=b: a <= b, same, x & ~y == 0)
        meet = a & b
        add(lambda m=meet, a=a: m <= a, same, _subset(meet, a))
    for g in gens:
        width = len(g.pre) + len(g.period)
        add(lambda g=g: ~g, partial(_op_summary, len(g.pre), width),
            (~_bits(g, width) & ((1 << width) - 1), True))

    g0, g1, last = gens[0], gens[1], gens[-1]
    joined = g0 | (g1 & gens[2]) if len(gens) > 2 else g0 | g1
    bound = g0 | g1
    segment = upsets.UPSet.from_ints(
        [i for i in range(64 * len(g0.period)) if i in g0][: rng.randint(2, 6)]
    )
    cases = (
        ("Explicit", lambda: famexpr.Explicit(gens), [g1, g0 & g1]),
        ("DownPow", lambda: famexpr.DownPow(bound), [g0 & g1, ~g0]),
        ("NearDown", lambda: famexpr.NearDown(g0), [g0 & g1, g1]),
        ("TopGen", lambda: famexpr.TopGen(gens), [joined, ~g0]),
        ("LatGen", lambda: famexpr.LatGen(gens), [joined, ~g0]),
        ("LatGenSing", lambda: famexpr.LatGenSing(gens), [joined, ~g0]),
        ("UnionFam", lambda: famexpr.UnionFam(famexpr.DownPow(g1), famexpr.NearDown(g0)),
         [g1 & last, ~g1]),
        ("ChainInitials", lambda: famexpr.ChainInitials(g0, [g1]), [segment, g1, g0]),
    )
    win = _Window([*gens, bound] + [c for _, _, cands in cases for c in cands])
    words = [win.of(g) for g in gens]
    ref_args = {
        "Explicit": words,
        "DownPow": win.of(bound),
        "NearDown": win.of(g0),
        "TopGen": words,
        "LatGen": words,
        "LatGenSing": words,
        "UnionFam": (win.of(g1), win.of(g0)),
        "ChainInitials": [win.of(g1)],
    }
    for kind, make, cands in cases:
        want = tuple(
            _membership_reference(kind, win, ref_args[kind], win.of(c), enum=g0)
            for c in cands
        )
        add(partial(_contains_all, make, cands), same, want)

    return Job(
        f"upset-{len(gens)}x" + "-".join(str(len(g.period)) for g in gens),
        lambda: [t() for t in thunks],
        lambda results: [s(r) for s, r in zip(summaries, results)],
        expected,
    )


def upset_long_period(rng: random.Random) -> Workload:
    jobs = []
    for periods in PERIOD_SHAPES:
        gens = [_long_upset(rng, p, rng.randint(0, 8)) for p in periods]
        jobs.append(_upset_job(rng, gens))
    rng.shuffle(jobs)
    return Workload("upset-long-period", jobs)


NAMES = ("cube-n4", "sublattice-n3", "cli-default", "upset-long-period")


def build(name: str, seed: int, json_path: str) -> Workload:
    rng = random.Random(seed)
    if name == "cli-default":
        return cli_default(rng, json_path)
    return {"cube-n4": cube_n4, "sublattice-n3": sublattice_n3,
            "upset-long-period": upset_long_period}[name](rng)
