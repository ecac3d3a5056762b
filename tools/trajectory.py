"""Write one ``BENCH_<label>.json`` per commit from one alternating bench session.

    python tools/trajectory.py [--workload W ...] [--seed S] [--out DIR]
                               LABEL=COMMIT [LABEL=COMMIT ...]

For each commit the tool extracts the tree with ``git archive C | tar -x``
into a temporary directory and runs that tree's own ``bench/run.py``.  Each
tree first gets one untimed warm-up run, so that its ``.bench_build/pycache``
is filled before any figure is kept: the first run in a fresh checkout reads
a higher ``peak_rss_mb`` than every later one.  Then, for each workload, the
trees take turns run by run, and the side that runs first alternates from
one round of runs to the next, so that run i of one file and run i of
another form a pair taken side by side.  Each workload gets ``RUNS`` runs
per tree, each of ``SECONDS`` seconds, the protocol every file so far was
made under:

    bench/run.py --workload W --seed S --seconds 25 --trace 0

and the tool keeps the JSON object on its last line and its ``digest`` line.

A file holds the commit, its parent and the tree of its ``src/``
(``git rev-parse C:src``, which stays the same when the commit is squashed
or rebased); the seed, the seconds and the number of runs; the host (nproc,
Python version, platform); for each workload, every metric's runs and
median, each run's correctness and the digest; the code lines and raw lines
of the tree's ``src/topcube/*.py``, counted by this checkout's
``tools/traffic.code_lines`` so that one definition holds across commits;
and the tree's test count from ``pytest --collect-only -q``.

Run it from the root of a source checkout, with the standard library only.
A session of the four workloads, ten runs of 25 s and two commits takes
about 40 minutes on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cube-n4", "sublattice-n3", "cli-default", "upset-long-period")
SECONDS = 25.0  # each timed run
RUNS = 10  # timed runs per tree and workload
WARM_UP_S = 2.0  # long enough to fill the tree's bytecode cache

sys.path.insert(0, str(ROOT / "tools"))
from traffic import code_lines  # noqa: E402  (one definition of a code line)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def describe_commit(commit: str) -> dict:
    """The commit, its parent (None for a root commit) and its src/ tree."""
    sha = git("rev-parse", "--verify", f"{commit}^{{commit}}")
    parents = git("rev-list", "--parents", "-n", "1", sha).split()[1:]
    return {"commit": sha, "parent": parents[0] if parents else None,
            "src_tree": git("rev-parse", f"{sha}:src")}


def extract(commit: str, into: Path) -> None:
    with subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE) as archive:
        subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    if archive.returncode != 0:
        raise RuntimeError(f"git archive {commit} failed")


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of the tree's own bench: its JSON last line and its digest."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: bench/run.py --workload {workload} exited "
                           f"{done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    digest = next(m.group(1) for m in map(re.compile(r"digest (\S+)").match, lines) if m)
    return {**json.loads(lines[-1]), "digest": digest}


def line_counts(tree: Path) -> tuple[int, int]:
    """(code lines, raw lines) of the tree's src/topcube/*.py."""
    paths = sorted((tree / "src" / "topcube").glob("*.py"))
    sources = [p.read_text(encoding="utf-8") for p in paths]
    return sum(map(code_lines, sources)), sum(len(s.splitlines()) for s in sources)


def count_tests(tree: Path) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"],
        cwd=tree, capture_output=True, text=True, env=env)
    found = re.search(r"^(\d+) tests? collected", done.stdout, re.MULTILINE)
    if found is None:
        raise RuntimeError(f"{tree}: no test count in pytest --collect-only:\n{done.stdout}")
    return int(found.group(1))


def workload_record(runs: list[dict]) -> dict:
    """Every metric's runs and median, each run's correctness, and the digest."""
    names = runs[0]["metrics"]
    digests = sorted({r["digest"] for r in runs})
    return {
        "digest": digests[0] if len(digests) == 1 else digests,
        "correct": [r["correct"] for r in runs],
        "metrics": {
            name: {"unit": runs[0]["metrics"][name]["unit"],
                   "runs": [r["metrics"][name]["value"] for r in runs],
                   "median": statistics.median(r["metrics"][name]["value"] for r in runs)}
            for name in names
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pairs", nargs="+", metavar="LABEL=COMMIT")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    if any("=" not in pair for pair in args.pairs):
        parser.error("each commit is given as LABEL=COMMIT")
    labels = dict(pair.split("=", 1) for pair in args.pairs)
    workloads = args.workload or list(WORKLOADS)
    host = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}
    session = {"labels": list(labels), "workloads": workloads, "warm_up_runs": 1,
               "order": "alternating, the first side swapped every round of runs"}

    with tempfile.TemporaryDirectory() as scratch:
        trees = {}
        for label, commit in labels.items():
            trees[label] = Path(scratch) / label
            trees[label].mkdir()
            extract(commit, trees[label])
            bench_run(trees[label], workloads[0], args.seed, WARM_UP_S)
        runs: dict[str, dict[str, list]] = {label: {w: [] for w in workloads} for label in labels}
        order = list(labels)
        for workload in workloads:
            for i in range(RUNS):
                for label in order if i % 2 == 0 else order[::-1]:
                    result = bench_run(trees[label], workload, args.seed, SECONDS)
                    runs[label][workload].append(result)
                    value = result["metrics"]["job_ms_p50"]["value"]
                    print(f"{workload} run {i + 1}/{RUNS} {label}: job_ms_p50 "
                          f"{value:.4f} ms, digest {result['digest']}", flush=True)
        for label, commit in labels.items():
            code, raw = line_counts(trees[label])
            record = {
                "label": label, **describe_commit(commit),
                "seed": args.seed, "seconds": SECONDS, "runs": RUNS,
                "session": session, "host": host,
                "workloads": {w: workload_record(runs[label][w]) for w in workloads},
                "code_lines": code, "raw_lines": raw, "tests": count_tests(trees[label]),
            }
            path = args.out / f"BENCH_{label}.json"
            path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
