"""Spans and exact work counts around calls into qloci, taken from outside.

`install` rebinds each traced function in every qloci module namespace that
binds it (``from .x import f`` makes a separate binding per importing
module) and wraps the traced ExactMatrix methods on the class.  A span
records its name, start, end, parent span and job id; generators get one
span per ``next()``.  Spans stay in memory until `write` saves them once.

Per-entry helpers (RankArray.leq, BlockRankMatrix.entry, _block_formula)
are not wrapped: their cost lands in the caller's self time.  The quiver
and fields modules are traced only through their callers.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter


def _field(m) -> str:
    tag = m.field.tag
    return "q" if tag == "Q" else ("gf2" if tag == "Fp:2" else "fp")


def _cells(m) -> int:
    return m.rows * m.cols


def _by_field(args) -> str:
    return _field(args[0])


_CELLS_IN = ("cells", lambda a, r: _cells(a[0]))

# (module, attribute, split by the field of the first argument, work count).
# The metric name is <module>.<function>; a work count is "generator" (count
# yielded items) or (stat, f(args, result)).
TARGETS = [
    ("matrices", "ExactMatrix.rank", _by_field, _CELLS_IN),
    ("matrices", "prefix_block_ranks", _by_field, _CELLS_IN),
    ("matrices", "ExactMatrix.inverse", None, None),
    ("matrices", "ExactMatrix.multiply", None, None),
    ("reps", "assemble_interval_matrix", None, ("cells", lambda a, r: _cells(r))),
    ("reps", "rank_array", None, None),
    ("reps", "lace_to_rank", None, None),
    ("reps", "rank_to_lace", None, None),
    ("poset", "enumerate_orbits", None, None),
    ("poset", "iter_lace_values", None, "generator"),
    ("poset", "hasse", None, ("pairs", lambda a, r: len(r.nodes) ** 2)),
    ("poset", "order_equivalence_report", None, ("pairs", lambda a, r: len(a[0].nodes) ** 2)),
    ("poset", "dense_orbit", None, None),
    ("zelevinsky", "block_rank_symbolic", None, None),
    ("zelevinsky", "zelevinsky_map", None, None),
    ("zelevinsky", "block_rank_numeric", None, None),
    ("perms", "zelevinsky_permutation", None, None),
    ("perms", "inversion_length", None, None),
    ("perms", "length_from_blocks", None, None),
    ("perms", "bruhat_leq", None, None),
    ("perms", "essential_set", None, None),
    ("oracle", "iter_reps", None, "generator"),
    ("oracle", "brute_orbit_partition", None, None),
    ("oracle", "verify_rank_determines_orbit", None, None),
    ("reduction", "lift_rep", None, None),
    ("reduction", "rank_array_arbitrary", None, None),
    ("serde", "rep_from_json", None, None),
    ("serde", "poset_to_json", None, None),
    ("cli", "main", None, None),
]


class Tracer:
    """Span store plus per-name counts of calls, work and yielded items."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.stats: list[str | None] = []  # the name of each name's work count
        self.calls: list[int] = []
        self.work: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.job_id = -1

    def name_id(self, name: str, stat: str | None) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats.append(stat)
            self.calls.append(0)
            self.work.append(0)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_job.append(self.job_id)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def self_seconds(self) -> dict[str, float]:
        """Per name: span durations minus the time their child spans cover."""
        start, end, parent = self.span_start, self.span_end, self.span_parent
        child = [0.0] * len(start)
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = [0.0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            out[nid] += end[i] - start[i] - child[i]
        return dict(zip(self.names, out))

    def counts(self) -> dict[str, int]:
        """`<name>.calls`, and `<name>.<stat>` where the name has a work count."""
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            if self.stats[nid]:
                out[f"{name}.{self.stats[nid]}"] = self.work[nid]
        return out

    def write(self, path_stem) -> None:
        """Save every span: a JSON header and the raw column arrays."""
        cols = ("span_name", "span_parent", "span_job", "span_start", "span_end")
        with open(f"{path_stem}.bin", "wb") as fh:
            for col in cols:
                getattr(self, col).tofile(fh)
        header = {
            "spans": len(self.span_name),
            "names": self.names,
            "columns": [[c, getattr(self, c).typecode] for c in cols],
            "byteorder": sys.byteorder,
        }
        with open(f"{path_stem}.json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)


def _wrap(tr: Tracer, fn, metric, split, work):
    if work == "generator":
        nid = tr.name_id(metric, "yielded")

        def traced_iter(it):
            while True:
                idx = tr.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tr.close(idx)
                tr.work[nid] += 1
                yield item

        def gen_wrapper(*args, **kwargs):
            tr.calls[nid] += 1
            return traced_iter(fn(*args, **kwargs))

        return gen_wrapper

    stat, count = work if work else (None, None)
    fixed = None if split else tr.name_id(metric, stat)

    def wrapper(*args, **kwargs):
        nid = fixed if split is None else tr.name_id(f"{metric}.{split(args)}", stat)
        idx = tr.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close(idx)
        tr.calls[nid] += 1
        if count is not None:
            tr.work[nid] += count(args, result)
        return result

    return wrapper


def install(qloci, tr: Tracer):
    """Wrap every target; returns a function that restores the originals."""
    undo = []
    modules = [m for name, m in sys.modules.items() if name == "qloci" or name.startswith("qloci.")]
    for mod_name, attr, split, work in TARGETS:
        metric = f"{mod_name}.{attr.split('.')[-1]}"
        owner = getattr(qloci, mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, _wrap(tr, orig, metric, split, work))
            undo.append((cls, meth, orig))
            continue
        orig = getattr(owner, attr)
        wrapper = _wrap(tr, orig, metric, split, work)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapper)
                    undo.append((mod, name, orig))

    def restore():
        for target, name, orig in reversed(undo):
            setattr(target, name, orig)

    return restore
