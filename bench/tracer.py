"""Spans around the library's layer functions, recorded from outside.

A ``Tracer`` replaces each target function by a wrapper in every
``catlattice`` module that holds it (the defining module and every module
that imported the name), records one span per call -- name, start, end,
parent span, item id -- in flat arrays, and puts the originals back on
``unpatch``.  Per-layer numbers are derived from the spans afterwards.

Only the outermost call of a name is recorded: ``trees.plucking`` and the
quarter-turn step of ``kauffman.bracket_coefficient_at`` recurse through
their own module name, and those inner calls pass straight through.
A generator (``coeff.iter_vertical_factorizations``) gets one span per
resumption, so the consumer's work between items is not charged to it.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array

#: (module, function, ratio kind).  The ratio kinds:
#:   "cache"  -- hit when the call did not build a bracket table;
#:   "truthy" -- hit when the call returned a non-empty result;
#:   "yield"  -- hit when the generator yielded at least once.
TARGETS = (
    ("kauffman", "bracket_table", None),
    ("kauffman", "oracle_coefficient", "cache"),
    ("kauffman", "bracket_coefficient_at", None),
    ("states", "glue_vertical", None),
    ("states", "new_connection", None),
    ("states", "find_removable_arcs", "truthy"),
    ("states", "is_realizable", None),
    ("coeff", "coefficient", None),
    ("coeff", "iter_vertical_factorizations", "yield"),
    ("coeff", "coeff_no_bottom_returns", None),
    ("trees", "plucking", None),
    ("maxseq", "beta", None),
    ("laurent", "mul", None),
)

RATIO_NAME = {"cache": "hit_frac", "truthy": "hit_frac", "yield": "yield_frac"}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric a traced run reports."""
    out = []
    for mod, fn, kind in TARGETS:
        out += [(f"{mod}.{fn}.calls", "count"), (f"{mod}.{fn}.self_s", "s")]
        if kind:
            out.append((f"{mod}.{fn}.{RATIO_NAME[kind]}", "ratio"))
    return out


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn, _ in TARGETS]
        self.calls = [0] * len(TARGETS)
        self.hits = [0] * len(TARGETS)
        self.depth = [0] * len(TARGETS)
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_item = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.item = -1
        self.patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, nid: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_item.append(self.item)
        self.span_end.append(0.0)
        self.stack.append(sid)
        self.depth[nid] += 1
        self.span_start.append(time.perf_counter())
        return sid

    def _close(self, sid: int, nid: int) -> None:
        self.span_end[sid] = time.perf_counter()
        self.stack.pop()
        self.depth[nid] -= 1

    def _wrap(self, nid: int, f, kind):
        table = self.names.index("kauffman.bracket_table")

        if kind == "yield":
            def steps(it):
                first = True
                while True:
                    sid = self._open(nid)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(sid, nid)
                    if first:
                        self.hits[nid] += 1
                        first = False
                    yield value

            def wrapper(*args, **kwargs):
                self.calls[nid] += 1
                return steps(f(*args, **kwargs))

            return wrapper

        def wrapper(*args, **kwargs):
            if self.depth[nid]:
                return f(*args, **kwargs)
            self.calls[nid] += 1
            tables = self.calls[table]
            sid = self._open(nid)
            try:
                result = f(*args, **kwargs)
            finally:
                self._close(sid, nid)
            if kind == "truthy" and result:
                self.hits[nid] += 1
            elif kind == "cache" and self.calls[table] == tables:
                self.hits[nid] += 1
            return result

        return wrapper

    # -- patching --------------------------------------------------------------

    def patch(self) -> None:
        """Wrap every target in every loaded catlattice module holding it."""
        importlib.import_module("catlattice")
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "catlattice" or name.startswith("catlattice.")
        ]
        for nid, (mod, fn, kind) in enumerate(TARGETS):
            original = getattr(importlib.import_module(f"catlattice.{mod}"), fn)
            wrapper = self._wrap(nid, original, kind)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self.patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def unpatch(self) -> None:
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)

    def restored(self) -> bool:
        """Whether every patched module attribute holds its original again."""
        return bool(self.patched) and all(
            getattr(module, attr) is original
            for module, attr, original in self.patched
        )

    # -- results ---------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """calls, self time and ratios per target, from the recorded spans."""
        n = len(self.span_name)
        child = [0.0] * n
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_s = [0.0] * len(TARGETS)
        for i in range(n):
            self_s[self.span_name[i]] += end[i] - start[i] - child[i]
        out: dict[str, float] = {}
        for nid, (mod, fn, kind) in enumerate(TARGETS):
            key = self.names[nid]
            out[f"{key}.calls"] = self.calls[nid]
            out[f"{key}.self_s"] = self_s[nid]
            if kind:
                calls = self.calls[nid]
                out[f"{key}.{RATIO_NAME[kind]}"] = (
                    self.hits[nid] / calls if calls else 0.0
                )
        return out

    def dump(self, path: str, origin: float) -> int:
        """Write the spans as gzip'd tab-separated text; times from ``origin``."""
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\titem\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i] - origin:.7f}\t"
                    f"{self.span_end[i] - origin:.7f}\t"
                    f"{self.span_parent[i]}\t{self.span_item[i]}\n"
                )
        return len(self.span_name)
