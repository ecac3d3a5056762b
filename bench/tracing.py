"""Span tracing around topcube's public functions, installed from outside.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` swaps
each traced function for a wrapper in every ``topcube`` namespace that holds
it (module globals, the package's re-exports, one level into module-level
dicts such as ``cli.DEMOS``, and class attributes for methods), so calls
between topcube's own modules are traced too.  ``uninstall`` puts the
originals back.

A span is (name, start, end, parent span, job id).  Spans live in flat
arrays while the run goes on and are aggregated and written out once, at
the end.  A span's self time is its duration minus the durations of its
direct children; since spans nest on one thread, the self times of all
spans in a job add up exactly to the job's top-level span time.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from math import lcm

# (module, qualified name) of every traced function; the metric prefix is
# "<module>.<qualified name>".
TARGETS = (
    ("topology", "count_topologies"),
    ("topology", "all_topologies"),
    ("topology", "inject_topology"),
    ("topology", "top_generate"),
    ("topology", "embedding_check"),
    ("certificates", "Certificate.solve"),
    ("certificates", "atom_closure_certificate"),
    ("certificates", "disjoint_closure_certificate"),
    ("certificates", "interval_identity_all"),
    ("certificates", "sequence_convergence_check"),
    ("certificates", "is_limit_point_sampled"),
    ("certificates", "ordinal_homeo_check"),
    ("certificates", "limit_vs_union_check"),
    ("lattice", "relations_set"),
    ("lattice", "chain_completion_finite"),
    ("lattice", "close_words"),
    ("lattice", "lat_generate"),
    ("lattice", "chain_completion_omega"),
    ("oracles", "count_preorders"),
    ("report", "Stopwatch.report"),
    ("report", "Report.to_json"),
    ("report", "Report.render"),
    ("cli", "main"),
    ("cli", "load_fixture"),
    ("demos", "demo_initials_chain"),
    ("demos", "demo_chain_union"),
    ("demos", "demo_join_gap"),
    ("demos", "demo_limit_vs_union"),
    ("famexpr", "fam_is_topology_sym"),
    ("famexpr", "Explicit.contains"),
    ("famexpr", "DownPow.contains"),
    ("famexpr", "NearDown.contains"),
    ("famexpr", "TopGen.contains"),
    ("famexpr", "LatGen.contains"),
    ("famexpr", "LatGenSing.contains"),
    ("famexpr", "UnionFam.contains"),
    ("famexpr", "ChainInitials.contains"),
    ("ultra", "trace_reconstruction_check"),
    ("ultra", "trace_bijection_check"),
    ("ultra", "subbase_correspondence_check"),
    ("ultra", "ultra_cover_check"),
    ("upsets", "UPSet.__and__"),
    ("upsets", "UPSet.__or__"),
    ("upsets", "UPSet.__sub__"),
    ("upsets", "UPSet.__invert__"),
    ("upsets", "UPSet.__le__"),
    ("upsets", "UPSet.__init__"),
)

LAYERS = tuple(dict.fromkeys(module for module, _ in TARGETS))


# Work counts, computed from a traced call's inputs and output.  Each entry
# maps a traced function to a function (args, result) -> [(counter, k)].

def _cube_size(universe) -> int:
    return 1 << universe.num_subsets


def _window(args, _result):
    a, b = args
    width = max(len(a.pre), len(b.pre)) + lcm(len(a.period), len(b.period))
    return [("upsets.window_bits", width)]


def _interval(_args, report):
    size = report.params["sublattice"]
    return [
        ("certificates.interval_identity.elements", size),
        ("certificates.interval_identity.member_scans", size * size),
    ]


WORK = {
    "topology.count_topologies": lambda args, _r: [
        ("topology.families_swept", _cube_size(args[0]))],
    "topology.all_topologies": lambda args, _r: [
        ("topology.families_swept", _cube_size(args[0]))],
    "certificates.Certificate.solve": lambda args, r: [
        ("certificates.solve.families_swept", _cube_size(args[0].universe)),
        ("certificates.solve.solutions", len(r))],
    "lattice.relations_set": lambda args, r: [
        ("lattice.relations_set.families_swept", _cube_size(args[0])),
        ("lattice.relations_set.comparable", len(r))],
    "lattice.close_words": lambda _args, r: [("lattice.close_words.members", len(r))],
    "certificates.interval_identity_all": _interval,
    "famexpr.fam_is_topology_sym": lambda _args, r: [
        ("famexpr.probe_pairs", r.params["probe_pairs"])],
    "upsets.UPSet.__and__": _window,
    "upsets.UPSet.__or__": _window,
    "upsets.UPSet.__sub__": _window,
}

COUNTERS = (
    "topology.families_swept",
    "certificates.solve.families_swept",
    "certificates.solve.solutions",
    "lattice.relations_set.families_swept",
    "lattice.relations_set.comparable",
    "lattice.close_words.members",
    "certificates.interval_identity.elements",
    "certificates.interval_identity.member_scans",
    "famexpr.probe_pairs",
    "upsets.window_bits",
)


def function_names() -> list[str]:
    return [f"{module}.{qual}" for module, qual in TARGETS]


class Tracer:
    """Records spans at the traced boundaries while installed."""

    def __init__(self):
        self.names = function_names()
        self.name_id = array("i")
        self.parent = array("i")
        self.job_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.job = -1
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fid: int, fn, work):
        name_id, parent, job_id = self.name_id, self.parent, self.job_id
        start, end, stack, counters = self.start, self.end, self._stack, self.counters
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(fid)
            parent.append(stack[-1])
            job_id.append(self.job)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if work is not None:
                for counter, k in work(args, result):
                    counters[counter] += k
            return result

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [
            mod for name, mod in list(sys.modules.items())
            if name == "topcube" or name.startswith("topcube.")
        ]
        swaps = {}
        for fid, (module, qual) in enumerate(TARGETS):
            owner = importlib.import_module(f"topcube.{module}")
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if path else getattr(owner, attr)
            wrapper = self._wrap(fid, original, WORK.get(self.names[fid]))
            if path:
                self._set(owner, attr, wrapper)
            else:
                swaps[id(original)] = wrapper
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in swaps:
                    self._set(mod, attr, swaps[id(value)])
                elif isinstance(value, dict):
                    self._swap_in_dict(value, swaps)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _swap_in_dict(self, table: dict, swaps: dict) -> None:
        for key, value in list(table.items()):
            if id(value) in swaps:
                new = swaps[id(value)]
            elif isinstance(value, tuple) and any(id(v) in swaps for v in value):
                new = tuple(swaps.get(id(v), v) for v in value)
            else:
                continue
            self._undo.append((table, key, value))
            table[key] = new

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.name_id)

    def aggregate(self):
        """Per-function calls and self time, and the summed top-level time.

        Only spans opened inside a job count.  Returns (calls, self_ns,
        top_ns), the first two indexed by function id.
        """
        n = len(self.name_id)
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0] * n
        parent = self.parent
        for i in range(n):
            if parent[i] >= 0:
                covered[parent[i]] += dur[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        top_ns = 0
        for i in range(n):
            if self.job_id[i] < 0:
                continue
            fid = self.name_id[i]
            calls[fid] += 1
            self_ns[fid] += dur[i] - covered[i]
            if parent[i] < 0:
                top_ns += dur[i]
        return calls, self_ns, top_ns

    def write(self, path) -> None:
        """All spans as gzip'd TSV: job, name, parent index, start_ns, end_ns."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("job\tname\tparent\tstart_ns\tend_ns\n")
            names = self.names
            for row in zip(self.job_id, self.name_id, self.parent, self.start, self.end):
                fh.write(f"{row[0]}\t{names[row[1]]}\t{row[2]}\t{row[3]}\t{row[4]}\n")
