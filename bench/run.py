"""Benchmark for topcube: one seeded workload in one process, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; topcube is imported from ``src/``.
One client sends the next job only when the previous one has returned, and
the benchmark starts no threads.  Bytecode caches, the CLI's JSON reports
and span files go to ``.bench_build/`` in the checkout.

``--trace 0`` prints the end-to-end metrics: set-up time (median over fresh
interpreters, started one at a time), jobs per second and median job
latency (both at a reference host speed: see ``Loop.costs``), the share of
jobs that came out right, and peak memory.  The same figures as run, and
the tail latency, are printed as well, but are not JSON metrics.
``--trace 1`` alternates rounds run plainly and with spans around topcube's
public functions, and prints the per-function calls and self times, work
counts, each module's share of the traced job time, the benchmark's own time
between spans, and the tracing overhead.  The last line of output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
WARMUP_S = 0.5
SETUP_RUNS = 15
TAIL_BEYOND = 10
# reference_work() on the baseline host (see README.md) when it runs fast.
REFERENCE_MS = 0.365
_REFERENCE_WORDS = (0x0F0F, 0x3355, 0x00FF, 0x8001)
_REFERENCE_BIG = int("10110" * 140, 2)


def reference_work() -> int:
    """A fixed piece of pure-Python work that shares no code with topcube.

    It closes four 16-bit words under AND and OR, mixes a 700-bit integer
    and builds a short string: the kinds of work topcube's jobs do.
    """
    pool = set(_REFERENCE_WORDS)
    frontier = list(pool)
    while frontier:
        w = frontier.pop()
        for v in list(pool):
            for u in (w & v, w | v):
                if u not in pool:
                    pool.add(u)
                    frontier.append(u)
    x = _REFERENCE_BIG
    for i in range(60):
        x = (x ^ (x >> (i % 7 + 1))) & (_REFERENCE_BIG | (1 << i))
    text = "".join("1" if w & 1 else "0" for w in sorted(pool))
    return len(pool) + x.bit_count() + text.count("10")


def reference_ns() -> int:
    t0 = time.perf_counter_ns()
    reference_work()
    return time.perf_counter_ns() - t0


class SetupProbe:
    """Times fresh interpreters that import topcube and load the fixtures.

    The first interpreter fills the bytecode cache and is not timed.  The
    timed ones run one at a time, spread over the run between rounds, so
    that their median reflects the whole run and not one moment of it.
    Each is also costed against the reference routine timed right before
    and right after it, as ``Loop.costs`` does for jobs.
    """

    def __init__(self, fixtures):
        code = (
            f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import topcube, topcube.cli; "
            + "".join(f"topcube.cli.load_fixture({name!r}); " for name in fixtures)
        )
        self.cmd = [sys.executable, "-I", "-X", f"pycache_prefix={BUILD / 'pycache'}",
                    "-c", code]
        self.times: list[float] = []
        self.costs: list[float] = []
        self._spawn()

    def _spawn(self) -> None:
        subprocess.run(self.cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)

    def sample(self) -> None:
        before = reference_ns()
        t0 = time.perf_counter_ns()
        self._spawn()
        took = time.perf_counter_ns() - t0
        reference_work()  # the child has evicted the caches; warm them first
        self.times.append(took / 1e9)
        self.costs.append(2 * took / (before + reference_ns()))


class Loop:
    """Runs the jobs of one round over and over, checking every output."""

    def __init__(self, workload, tracer=None):
        self.jobs = workload.jobs
        self.tracer = tracer
        self.latency_ns = array("q")
        self.reference_ns = array("q")  # one before each job, one after the last
        self.failed = 0
        self.first_round: list[object] = []
        self.errors_shown = 0

    def run_job(self, job, job_id: int) -> bool:
        tracer = self.tracer
        ok = True
        if not self.reference_ns:
            self.time_reference()
        if tracer is not None:
            tracer.job = job_id
        t0 = time.perf_counter_ns()
        try:
            result = job.call()
        except Exception:  # a job that raises is a failed job; keep going
            ok = False
            self._show_error(job)
        t1 = time.perf_counter_ns()
        if tracer is not None:
            tracer.job = -1
        self.latency_ns.append(t1 - t0)
        self.time_reference()
        summary = None
        if ok:
            try:
                summary = job.summarize(result)
                ok = summary == job.expected
            except Exception:
                ok = False
                self._show_error(job)
            if not ok and summary is not None and self.errors_shown < 3:
                self.errors_shown += 1
                print(f"job {job.kind!r}: got {summary!r}, expected {job.expected!r}",
                      file=sys.stderr)
        if not ok:
            self.failed += 1
        if len(self.first_round) < len(self.jobs):
            self.first_round.append(summary if ok else ("failed", summary))
        return ok

    def time_reference(self) -> None:
        self.reference_ns.append(reference_ns())

    def _show_error(self, job) -> None:
        if self.errors_shown < 3:
            self.errors_shown += 1
            print(f"job {job.kind!r} raised:", file=sys.stderr)
            traceback.print_exc()

    def run_round(self) -> None:
        first = len(self.latency_ns)
        for i, job in enumerate(self.jobs):
            self.run_job(job, first + i)

    def rounds(self) -> int:
        return len(self.latency_ns) // len(self.jobs)

    def run_for(self, seconds: float, between=None) -> None:
        """Whole rounds until the time is up; ``between(share)`` after each."""
        start = time.perf_counter()
        while True:
            self.run_round()
            share = (time.perf_counter() - start) / seconds
            if between is not None:
                between(share)
            if share >= 1:
                return

    def costs(self) -> list[float]:
        """Each job's cost in runs of ``reference_work``, in round order.

        A shared 2-vCPU host runs the same code up to 1.7 times slower for
        seconds or minutes at a time, because of load from outside the
        process.  The reference routine runs right before and right after
        every job, so a repetition's latency over the mean of those two
        reference times is the same whether the host runs fast or slow.  A
        job's cost is the median of that ratio over its repetitions.
        """
        n = len(self.jobs)
        lat, ref = self.latency_ns, self.reference_ns
        ratios = [2 * lat[i] / (ref[i] + ref[i + 1]) for i in range(len(lat))]
        return [statistics.median(ratios[j::n]) for j in range(n)]

    def jobs_per_s(self) -> float:
        """Completed jobs per second at the reference speed, at the round's mix."""
        completed = 1 - self.failed / len(self.latency_ns)
        return completed * len(self.jobs) / (sum(self.costs()) * REFERENCE_MS / 1e3)

    def digest(self) -> str:
        return hashlib.sha256(repr(self.first_round).encode()).hexdigest()[:16]


def warm_up(workload) -> None:
    start = time.perf_counter()
    for job in workload.jobs:
        try:
            job.call()
        except Exception:
            pass  # the timed loop reports it
        if time.perf_counter() - start >= WARMUP_S:
            return


def tail(latencies_ms: list[float]):
    """The highest percentile with ten samples beyond it: (value, percentile, beyond)."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    index = max(n - 1 - TAIL_BEYOND, 0)
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seconds: float):
    probe = SetupProbe(workload.fixtures)
    warm_up(workload)
    loop = Loop(workload)

    def between(share: float) -> None:
        if len(probe.times) < SETUP_RUNS * min(share, 1):
            probe.sample()

    loop.run_for(seconds, between)
    while len(probe.times) < SETUP_RUNS:
        probe.sample()
    setup = probe.times
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat_ms = [ns / 1e6 for ns in loop.latency_ns]
    cost_ms = [cost * REFERENCE_MS for cost in loop.costs()]
    ref_ms = [ns / 1e6 for ns in loop.reference_ns]
    attempted = len(lat_ms)
    tail_ms, tail_pct, beyond = tail(lat_ms)
    metrics = {
        "setup_s": metric(statistics.median(probe.costs) * REFERENCE_MS / 1e3, "s"),
        "jobs_per_s": metric(loop.jobs_per_s(), "1/s"),
        "job_ms_p50": metric(statistics.median(cost_ms), "ms"),
        "job_ok_ratio": metric((attempted - loop.failed) / attempted, "ratio"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    print(f"setup_s {metrics['setup_s']['value']:.4f} s (at reference speed, median of "
          f"{len(setup)} fresh interpreters; as run: "
          + ", ".join(f"{t:.4f}" for t in setup) + ")")
    print(f"jobs_per_s {metrics['jobs_per_s']['value']:.3f} 1/s (at reference speed, "
          f"{len(cost_ms)} jobs a round, {loop.rounds()} rounds; as run, "
          f"{attempted - loop.failed} jobs completed in {sum(lat_ms) / 1e3:.3f} s of job time)")
    print(f"job_ms_p50 {metrics['job_ms_p50']['value']:.3f} ms (at reference speed, median "
          f"over jobs; as run, {statistics.median(lat_ms):.3f} ms over all {attempted} "
          "repetitions)")
    print(f"reference {REFERENCE_MS} ms at reference speed; as run, median "
          f"{statistics.median(ref_ms):.3f} ms, fastest {min(ref_ms):.3f} ms over "
          f"{len(ref_ms)} runs")
    print(f"job_ms_tail {tail_ms:.3f} ms (as run: p{tail_pct:.1f} of {attempted} "
          f"samples, {beyond} beyond it; not a JSON metric)")
    print(f"job_fail_ratio {loop.failed / attempted:.6f} ratio "
          f"({loop.failed} of {attempted} jobs failed)")
    print(f"job_ok_ratio {metrics['job_ok_ratio']['value']:.6f} ratio")
    print(f"peak_rss_mb {peak_mb:.2f} MB")
    print(f"digest {loop.digest()} (first round, {len(workload.jobs)} jobs)")
    return loop.failed == 0, attempted, loop.failed, metrics


def traced(workload, seconds: float, spans_path: Path):
    from tracing import COUNTERS, LAYERS, Tracer

    warm_up(workload)
    tracer = Tracer()
    plain, loop = Loop(workload), Loop(workload, tracer)
    start = time.perf_counter()
    while True:  # alternate rounds, so that both sides see the same machine
        plain.run_round()
        tracer.install()
        try:
            loop.run_round()
        finally:
            tracer.uninstall()
        if time.perf_counter() - start >= seconds:
            break
    calls, self_ns, top_ns = tracer.aggregate()
    tracer.write(spans_path)

    job_ns = sum(loop.latency_ns)
    between_ns = job_ns - top_ns
    adds_up = sum(self_ns) + between_ns == job_ns and between_ns >= 0
    metrics = {}
    for fid, name in enumerate(tracer.names):
        metrics[f"{name}.calls"] = metric(calls[fid], "count")
        metrics[f"{name}.self_ms"] = metric(self_ns[fid] / 1e6, "ms")
    for counter in COUNTERS:
        metrics[counter] = metric(tracer.counters[counter], "count")
    layer_ns = dict.fromkeys(LAYERS, 0)
    for fid, name in enumerate(tracer.names):
        layer_ns[name.split(".", 1)[0]] += self_ns[fid]
    for layer, ns in layer_ns.items():
        metrics[f"layer.{layer}.share"] = metric(100.0 * ns / job_ns, "%")
    metrics["bench.between_spans_ms"] = metric(between_ns / 1e6, "ms")
    metrics["trace.job_ms"] = metric(job_ns / 1e6, "ms")
    traced_rate, plain_rate = loop.jobs_per_s(), plain.jobs_per_s()
    overhead = plain_rate / traced_rate if traced_rate else 0.0  # 0 when every job failed
    metrics["trace.jobs_per_s"] = metric(traced_rate, "1/s")
    metrics["trace.untraced_jobs_per_s"] = metric(plain_rate, "1/s")
    metrics["trace.overhead_ratio"] = metric(overhead, "ratio")

    print(f"{loop.rounds()} rounds traced, each after the same round untraced; "
          f"{len(tracer)} spans written to {spans_path.relative_to(ROOT)}")
    for fid, name in sorted(enumerate(tracer.names), key=lambda p: -self_ns[p[0]]):
        if calls[fid]:
            print(f"  {name}: calls {calls[fid]} self_ms {self_ns[fid] / 1e6:.3f}")
    for counter in COUNTERS:
        print(f"  work {counter} {tracer.counters[counter]}")
    for layer, ns in sorted(layer_ns.items(), key=lambda p: -p[1]):
        print(f"  layer {layer}: self_ms {ns / 1e6:.3f} share {100.0 * ns / job_ns:.2f} %")
    print(f"  bench (between spans): {between_ns / 1e6:.3f} ms "
          f"share {100.0 * between_ns / job_ns:.2f} %")
    print(f"  layers + between = {(sum(self_ns) + between_ns) / 1e6:.3f} ms; "
          f"traced job time = {job_ns / 1e6:.3f} ms; "
          + ("adds up" if adds_up else "DOES NOT ADD UP"))
    print(f"  overhead: traced {traced_rate:.3f} jobs/s against untraced "
          f"{plain_rate:.3f} jobs/s (x{overhead:.3f})")
    failed = plain.failed + loop.failed
    attempted = len(plain.latency_ns) + len(loop.latency_ns)
    print(f"job_fail_ratio {failed / attempted:.6f} ratio ({failed} of {attempted} jobs failed)")
    print(f"digest {plain.digest()} untraced, {loop.digest()} traced")
    correct = failed == 0 and adds_up and plain.digest() == loop.digest()
    return correct, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "topcube" / "__init__.py").is_file():
        print(f"error: no topcube sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    BUILD.mkdir(exist_ok=True)
    sys.pycache_prefix = str(BUILD / "pycache")
    sys.path.insert(0, str(SRC))
    import topcube
    import workloads

    if Path(topcube.__file__).resolve().parent != (SRC / "topcube").resolve():
        print(f"error: imported topcube from {topcube.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, args.seed, str(BUILD / "cli-report.json"))
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: {len(workload.jobs)} jobs per round, closed loop, 1 client")
    if args.trace:
        spans = BUILD / f"spans-{workload.name}-seed{args.seed}.tsv.gz"
        correct, attempted, failed, metrics = traced(workload, args.seconds, spans)
    else:
        correct, attempted, failed, metrics = end_to_end(workload, args.seconds)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
