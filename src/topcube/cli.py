"""Command-line workbench.

Three verbs: `count` tallies topologies on a small ground set against an
independent counting route, `verify` runs one of the named structural
checks, and `demo` walks a packaged construction and confirms it behaves as
predicted, predicted failures included.  Every run produces a report; exit
status 0 is a pass, 1 a refutation, 3 an inconclusive sampling (or a check
that found nothing to examine), 2 a usage problem.

The argument parser is built once per process, on the first call to
`main`, and reused by every later call: building it costs more than most
checks, and argparse keeps no state between parses.  A command line that
opens with a verb is parsed by that verb's parser alone; the root parser
would only hand it the same words.  The root parser runs when the first
word is no verb or words are left over, so usage, help and error text are
always its own.  A packaged fixture's text is likewise read once per
process, and parsed afresh on every call, so each caller gets a dict of
its own to write into.

A ``--json`` report is the text of ``json.dump(..., indent=2)``, built by
``_json_text``, encoded once and written with ``os.write`` on a bare file
descriptor, with no file object around it: the standard library's
indenting encoder is a cycle of closures that every dump leaves to the
collector, and a text file builds two buffers for one write.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from functools import cache
from importlib import resources

from . import demos, oracles
from .certificates import (
    atom_closure_certificate,
    disjoint_closure_certificate,
    interval_identity_sweep,
)
from .cube import Family, GroundSet
from .lattice import chain_completion_check
from .report import FAIL, PASS, Report, Stopwatch
from .topology import (
    Topology,
    all_topologies,
    are_disjoint,
    count_topologies,
    embedding_check,
)
from .ultra import (
    subbase_correspondence_check,
    trace_bijection_check,
    trace_reconstruction_check,
    ultra_cover_check,
)

CHECKS = (
    "interval-identity",
    "chain-completion",
    "atom-closure",
    "disjoint-closure",
    "trace-reconstruction",
    "trace-bijection",
    "subbase-correspondence",
    "ultra-cover",
    "embedding",
)

DEFAULT_N = 3

DEMOS = {
    "initials-chain": ("initials-chain", demos.demo_initials_chain),
    "powerset-chain": ("powerset-chain", demos.demo_chain_union),
    "join-gap": ("join-gap", demos.demo_join_gap),
    "limit-vs-union": ("initials-chain", demos.demo_limit_vs_union),
}

# the fixture key each demo reads `--coords` into; the other demos refuse it
_COORDS_KEYS = {"initials-chain": "completion_coords", "limit-vs-union": "completion_coords",
                "powerset-chain": "coords"}


@cache
def _packaged_text(name: str) -> str:
    # packaged fixtures do not change within a process, so each is read once
    return resources.files("topcube").joinpath("fixtures", f"{name}.json").read_text(
        encoding="utf-8")


def load_fixture(name: str) -> dict:
    """The fixture as a fresh dict: a packaged name, or a path read every call."""
    if name.endswith(".json") or "/" in name:
        with open(name, encoding="utf-8") as fh:
            fix = json.load(fh)
    else:
        fix = json.loads(_packaged_text(name))
    if not isinstance(fix, dict):
        raise ValueError("a fixture must be a JSON object")
    return fix


def _int_list(value, what: str) -> list[int]:
    if not isinstance(value, list) or not all(type(v) is int for v in value):
        raise ValueError(f"fixture {what} must be a list of integers")
    return value


def _fixture_universe(fix: dict, n: int | None) -> GroundSet:
    """The fixture's ground set; an explicit --n must name the same size."""
    if type(fix["n"]) is not int:
        raise ValueError("fixture 'n' must be an integer")
    if n is not None and n != fix["n"]:
        raise ValueError(f"--n {n} disagrees with the fixture's n = {fix['n']}")
    return GroundSet(fix["n"])


def _load_coords(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        coords = json.load(fh)
    if not isinstance(coords, list):
        raise ValueError("coordinate file must hold a JSON list of sets")
    return coords  # each demo parses the sets as it reads its fixture


def random_disjoint_topologies(
    universe: GroundSet, rng: random.Random, want: int
) -> list[Topology]:
    """Draw nontrivial topologies that pairwise share only the two bounds."""
    trivial = Topology.trivial(universe)
    pool = [t for t in all_topologies(universe) if t != trivial]
    batch: list[Topology] = []
    for t in rng.sample(pool, len(pool)):
        if all(are_disjoint(t, s) for s in batch):
            batch.append(t)
            if len(batch) == want:
                break
    return batch


def run_count(n: int) -> Report:
    timer = Stopwatch("count", {"n": n})
    universe = GroundSet(n)
    got = count_topologies(universe)
    independent = oracles.count_preorders(n)
    if got != independent:
        return timer.report(FAIL, {"families_route": got, "relations_route": independent})
    return timer.report(
        PASS, notes=[f"{got} topologies on {n} points, both counting routes agree"]
    )


def run_check(args: argparse.Namespace) -> Report:
    name = args.name
    if args.fixture is not None and name not in ("atom-closure", "disjoint-closure"):
        raise ValueError("--fixture applies only to atom-closure and disjoint-closure, "
                         f"not to {name}")
    reads_bound = name == "chain-completion" or (
        name == "disjoint-closure" and args.fixture is None
    )
    if args.bound is not None and not reads_bound:
        raise ValueError(
            "--bound applies only to chain-completion and to disjoint-closure "
            f"without a fixture, not to {name}"
            + (" with a fixture" if args.fixture is not None else "")
        )
    if args.bound is not None and args.bound < 1:
        raise ValueError(f"--bound must be at least 1, got {args.bound}")
    universe = GroundSet(DEFAULT_N if args.n is None else args.n)
    if name == "interval-identity":
        return interval_identity_sweep(universe, max_gens=3)
    if name == "chain-completion":
        return chain_completion_check(
            universe, seed=args.seed, max_len=4 if args.bound is None else args.bound
        )
    if name == "atom-closure":
        if args.fixture is None:
            return atom_closure_certificate(universe, range(1, universe.full_mask))
        fix = load_fixture(args.fixture)
        universe = _fixture_universe(fix, args.n)
        return atom_closure_certificate(universe, _int_list(fix["opens"], "'opens'"))
    if name == "disjoint-closure":
        if args.fixture is not None:
            fix = load_fixture(args.fixture)
            universe = _fixture_universe(fix, args.n)
            if not isinstance(fix["topologies"], list):
                raise ValueError("fixture 'topologies' must be a list of mask lists")
            tops = [
                Topology(Family.from_masks(universe, _int_list(masks, "topology")))
                for masks in fix["topologies"]
            ]
        else:
            rng = random.Random(args.seed)
            want = 3 if args.bound is None else args.bound
            tops = random_disjoint_topologies(universe, rng, want=want)
        if not tops:
            raise ValueError("disjoint-closure needs at least one topology")
        return disjoint_closure_certificate(universe, tops)
    if name == "trace-reconstruction":
        return trace_reconstruction_check(universe)
    if name == "trace-bijection":
        return trace_bijection_check(universe)
    if name == "subbase-correspondence":
        return subbase_correspondence_check(universe, x=0)
    if name == "ultra-cover":
        return ultra_cover_check(universe)
    if name == "embedding":
        return embedding_check(universe)
    raise ValueError(f"unknown check {name!r}")


def run_demo(args: argparse.Namespace) -> Report:
    default_fixture, fn = DEMOS[args.name]
    fix = load_fixture(args.fixture or default_fixture)
    if args.coords:
        if args.name not in _COORDS_KEYS:
            raise ValueError("--coords applies only to the initials-chain, limit-vs-union "
                             f"and powerset-chain demos, not to {args.name}")
        fix[_COORDS_KEYS[args.name]] = _load_coords(args.coords)
    if args.bound is not None:
        if args.name != "initials-chain":
            raise ValueError(
                f"--bound applies only to the initials-chain demo, not to {args.name}"
            )
        fix["bound"] = demos._stages(args.bound, "--bound")
    return fn(fix)


def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; callers must not add to it."""
    return _parsers()[0]


@cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The root parser, built once per process, and its verb parsers by name."""
    parser = argparse.ArgumentParser(
        prog="topcube",
        description="workbench for families of sets, finite topologies, and "
        "symbolic chains of them",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_count = sub.add_parser("count", help="count topologies two ways")
    p_count.add_argument("--n", type=int, default=DEFAULT_N, help="ground set size")

    p_verify = sub.add_parser("verify", help="run a structural check")
    p_verify.add_argument("name", choices=CHECKS)
    p_verify.add_argument(
        "--n", type=int, help=f"ground set size (default {DEFAULT_N}, or the fixture's)"
    )
    p_verify.add_argument(
        "--seed", type=int, default=0,
        help="random seed; read by chain-completion at n >= 3 and by disjoint-closure "
        "without a fixture, ignored by the other checks",
    )
    p_verify.add_argument(
        "--bound", type=int,
        help="size knob >= 1: longest chain for chain-completion (default 4), batch size "
        "for disjoint-closure without a fixture (default 3); other checks refuse it",
    )
    p_verify.add_argument(
        "--fixture", help="packaged fixture name or JSON path, read by atom-closure and "
        "disjoint-closure; other checks refuse it",
    )

    p_demo = sub.add_parser("demo", help="walk a packaged construction")
    p_demo.add_argument("name", choices=sorted(DEMOS))
    p_demo.add_argument("--fixture", help="packaged fixture name or JSON path")
    p_demo.add_argument("--coords", help="JSON file of coordinates (not join-gap)")
    p_demo.add_argument(
        "--bound", type=int, help="stage bound override (initials-chain only)"
    )

    for p in (p_count, p_verify, p_demo):
        p.add_argument("--json", dest="json_out", help="write the report as JSON")
        p.add_argument("--quiet", action="store_true", help="suppress the rendering")
    return parser, sub.choices


_quote = json.encoder.encode_basestring_ascii  # what json.dumps writes for a str


def _json_text(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, for a value whose closing bracket
    goes after ``pad``, the line break and the indent of its own level.

    Nonempty dicts, lists and tuples are laid out here, and strings and
    ints written as JSON writes them; every other value goes through the C
    encoder, which builds no cycle.  A key that is not a string is written
    as JSON writes it, then quoted.
    """
    if type(value) is str:
        return _quote(value)
    if type(value) is int:
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict) and value:
        items = [_quote(k if isinstance(k, str) else json.dumps(k)) + ": "
                 + _json_text(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, (list, tuple)) and value:
        items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return json.dumps(value)


def _parse(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, by the verb's own parser when
    ``argv`` opens with a verb and that parser leaves no word over."""
    if argv is None:
        argv = sys.argv[1:]
    verbs = _parsers()[1]
    if argv and argv[0] in verbs:
        args, rest = verbs[argv[0]].parse_known_args(argv[1:])
        if not rest:
            args.verb = argv[0]
            return args
    return build_parser().parse_args(argv)


def _write_report(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as ``open(path, "w")`` would, with one
    system call per chunk and no file object around it."""
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        if args.verb == "count":
            report = run_count(args.n)
        elif args.verb == "verify":
            report = run_check(args)
        else:
            report = run_demo(args)
        if args.json_out:
            _write_report(args.json_out, _json_text(report.to_json()) + "\n")
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(report.render())
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
