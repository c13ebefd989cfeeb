"""Span tracing of the public functions of each ``unilim`` module.

The tracer wraps functions from outside the library: ``src/`` is never
edited.  Callers import by name (``from .topology import ulim_topology``),
so every ``unilim.*`` module binding that holds a wrapped function object is
replaced, and methods are replaced on their class.

Spans (name, parent span, start, end) are kept in memory in flat arrays and
are written out only by ``write_spans`` when the run ends.  Self time is a
span's duration minus the time its direct child spans cover; calls are
single-threaded and strictly nested, so the children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import math
import os
import sys
import time
from array import array
from collections import Counter

# the verify-all ops and the per-theorem metric names; fixed here, not read
# from unilim.verify, so that the benchmark's definition does not follow the
# library
THEOREM_IDS = (
    "T1", "T2", "T3", "L-mod", "L-adeq", "L-pseudo", "T5", "C6", "P-group", "P-box", "P-lc",
)


def _chains(args):
    """Simple chains the exhaustive oracle enumerates: every ordered choice
    of intermediate points among the m points other than x and y."""
    seq, x, y = args[:3]
    m = seq.tower.ground_size - (1 if x == y else 2)
    return sum(math.perm(m, k) for k in range(m + 1))


# (module, qualified name, counters computed from the arguments,
#  counters computed from the result)
WRAPPED = (
    ("core", "shortest_path_closure", {"relaxations": lambda a: len(a[0]) ** 3}, {}),
    ("core", "Pseudometric.validate", {"triangle_checks": lambda a: a[0].size ** 3}, {}),
    ("core", "Tower.validate", {}, {}),
    ("core", "Tower.grid_entourages", {}, {"built": len}),
    ("relations", "compose", {}, {}),
    ("relations", "sigma_sum", {}, {}),
    ("relations", "ball_set_mask", {}, {}),
    ("limitmetric", "limit_pseudometric", {}, {}),
    ("limitmetric", "witness_chain", {}, {}),
    ("limitmetric", "valley_distance", {}, {}),
    ("limitmetric", "adequate_sequence", {}, {}),
    ("limitmetric", "extend_pseudometric", {}, {}),
    ("topology", "ulim_topology", {}, {}),
    ("topology", "grid_ball_masks", {}, {"balls": len}),
    ("topology", "minimal_grid_ball", {}, {}),
    ("topology", "tlim_topology", {}, {}),
    ("topology", "TopologyFamily.from_subbase", {}, {}),
    ("topology", "TopologyFamily.opens_masks", {}, {"opens": len}),
    ("regularity", "continuity_criterion", {}, {}),
    ("regularity", "is_regular_at", {}, {}),
    ("regularity", "homeo_criterion", {}, {}),
    ("regularity", "is_continuous", {}, {}),
    ("constructions", "product_tower", {}, {}),
    ("constructions", "check_multiplicativity", {}, {}),
    ("constructions", "box_tower", {}, {}),
    ("constructions", "check_box_limit", {}, {}),
    ("constructions", "check_group_limit", {}, {}),
    ("generate", "generate_instance", {}, {}),
    ("generate", "random_tower", {}, {}),
    ("generate", "random_monotone_sequence", {}, {}),
    ("verify", "run_theorem", {}, {}),
    ("verify", "exhaustive_limit_distance", {"chains": _chains}, {}),
    ("io", "load", {"bytes": lambda a: os.path.getsize(a[0])}, {}),
    ("io", "tower_from_json", {}, {}),
    ("io", "dumps", {}, {"bytes": len}),
    ("cli", "main", {}, {}),
)

MODULES = tuple(dict.fromkeys(module for module, *_ in WRAPPED))


def metric_specs():
    """Every per-layer metric the traced run reports, as (name, unit)."""
    specs = []
    for module in MODULES:
        for mod, qualname, arg_counters, result_counters in WRAPPED:
            if mod != module:
                continue
            base = f"{module}.{qualname}"
            specs.append((f"{base}.calls", "count"))
            if qualname == "run_theorem":
                specs.extend((f"{base}.{tid}.self_s", "s") for tid in THEOREM_IDS)
                specs.extend((f"{base}.{tid}.total_s", "s") for tid in THEOREM_IDS)
            else:
                specs.append((f"{base}.self_s", "s"))
            specs.extend((f"{base}.{c}", "count") for c in (*arg_counters, *result_counters))
        specs.append((f"{module}.errors", "count"))
    specs.extend([
        ("core.Pseudometric.validate.repeat_ratio", "ratio"),
        ("core.Tower.grid_entourages.rebuild_ratio", "ratio"),
        ("regularity.is_continuous.per_criterion", "ratio"),
        ("trace.ops", "count"),
        ("trace.spans", "count"),
        ("trace.overhead_pct", "%"),
    ])
    return specs


class Tracer:
    """Installs span-recording wrappers and turns the spans into the
    per-layer metric table."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self._last_error: BaseException | None = None
        # objects seen by the ratio counters, held so that their ids stay unique
        self._matrices: dict[int, object] = {}
        self._towers: dict[int, object] = {}
        self._grids: set[tuple[int, int]] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str) -> int:
        idx = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(time.perf_counter_ns())
        self.span_end.append(-1)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        # an exception raised mid-bookkeeping (the op deadline) can leave
        # inner spans on the stack; unwind down to this one
        while self._stack and self._stack.pop() != idx:
            pass

    def end_op(self) -> None:
        """Close whatever a deadline interrupted before its span closed."""
        now = time.perf_counter_ns()
        for idx in self._stack:
            if self.span_end[idx] < 0:
                self.span_end[idx] = now
        self._stack.clear()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, module, fn, name, arg_counters, result_counters):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for counter, count in arg_counters.items():
                tracer.counters[f"{name}.{counter}"] += count(args)
            tracer._extra(name, args)
            span = tracer.open(f"{name}.{args[0]}" if name == "verify.run_theorem" else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                # count each exception once, in the innermost module it leaves
                if e is not tracer._last_error:
                    tracer._last_error = e
                    tracer.errors[module] += 1
                raise
            finally:
                tracer.close(span)
            for counter, count in result_counters.items():
                tracer.counters[f"{name}.{counter}"] += count(result)
            return result

        return traced

    def _extra(self, name, args):
        if name == "core.Pseudometric.validate":
            self._matrices[id(args[0])] = args[0]
        elif name == "core.Tower.grid_entourages":
            self._towers[id(args[0])] = args[0]
            self._grids.add((id(args[0]), args[1]))

    def install(self) -> None:
        for module in MODULES:
            importlib.import_module(f"unilim.{module}")
        modules = [m for n, m in sys.modules.items() if n == "unilim" or n.startswith("unilim.")]
        for module, qualname, arg_counters, result_counters in WRAPPED:
            mod = sys.modules[f"unilim.{module}"]
            name = f"{module}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                traced = self._wrap(module, fn, name, arg_counters, result_counters)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, classmethod(traced) if is_classmethod else traced)
                continue
            fn = getattr(mod, qualname)
            traced = self._wrap(module, fn, name, arg_counters, result_counters)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._restore.append((m, attr, fn))
                        setattr(m, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def span_times(self) -> tuple[Counter, Counter]:
        """Self and total (inclusive) seconds per span name."""
        n = len(self.span_name)
        child = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            duration = (self.span_end[i] - self.span_start[i]) / 1e9
            total_s[name] += duration
            self_s[name] += duration - child[i] / 1e9
        return self_s, total_s

    def metrics(self, ops: int, overhead_pct: float) -> dict[str, float]:
        self_s, total_s = self.span_times()
        calls = Counter(self.names[i] for i in self.span_name)
        for tid in THEOREM_IDS:
            calls["verify.run_theorem"] += calls[f"verify.run_theorem.{tid}"]
        values: dict[str, float] = {}
        for name, _unit in metric_specs():
            base, _, leaf = name.rpartition(".")
            if leaf == "calls":
                values[name] = calls[base]
            elif leaf in ("self_s", "total_s"):
                values[name] = round(float((self_s if leaf == "self_s" else total_s)[base]), 9)
            elif leaf == "errors":
                values[name] = self.errors[base]
            else:
                values[name] = self.counters[name]
        values["core.Pseudometric.validate.repeat_ratio"] = _ratio(
            calls["core.Pseudometric.validate"], len(self._matrices))
        values["core.Tower.grid_entourages.rebuild_ratio"] = _ratio(
            calls["core.Tower.grid_entourages"], len(self._grids))
        values["regularity.is_continuous.per_criterion"] = _ratio(
            calls["regularity.is_continuous"], calls["regularity.continuity_criterion"])
        values["trace.ops"] = ops
        values["trace.spans"] = len(self.span_name)
        values["trace.overhead_pct"] = overhead_pct
        return values

    def write_spans(self, path: str) -> None:
        """One line per span: index, parent index, name, start ns, end ns."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("span\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}"
                    f"\t{self.span_start[i]}\t{self.span_end[i]}\n"
                )


def _ratio(num: int, den: int) -> float:
    return round(num / den, 6) if den else 0.0
