"""Spans and counts at the package's layer boundaries, recorded from outside.

`Tracer.install` replaces each boundary in `BOUNDARIES` by a wrapper that
records one span per call: boundary, start, end, parent span and the id of
the benchmark case that was running (the request id).  A module-level
function is replaced under every name that refers to it anywhere in the
package, because the modules import each other's public names (for example
`cli.count_points`, `extalg.paving_cells`, `homotopy.solve_exact`); a
method is replaced on its class.  Nothing inside the package changes.

Spans are kept in memory, in per-thread column arrays, until `summary`
reduces them.  Self time is a span's duration minus the durations of its
direct child spans; children of a span run in the same thread, nested and
one after another, so that difference is exact.
"""

from __future__ import annotations

import sys
import threading
from array import array
from time import perf_counter

PACKAGE = "quiverchow"


def _distinct(stats: dict, args: tuple, kwargs: dict, result) -> None:
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        key = repr(key)
    stats.setdefault("keys", set()).add(key)


def _hit(stats: dict, args: tuple, kwargs: dict, result) -> None:
    if result is not None:
        stats["hits"] = stats.get("hits", 0) + 1


def _shape(stats: dict, args: tuple, kwargs: dict, result) -> None:
    columns, rhs = args[0], args[1]
    stats["rows_max"] = max(stats.get("rows_max", 0), len(rhs))
    stats["cols_max"] = max(stats.get("cols_max", 0), len(columns))


# Boundary "<module>.<qualname>" -> per-call observer for the statistic kept
# besides calls and self time (None: calls and self time only).
BOUNDARIES = {
    "cli.run_suite": None,
    "cli.cmd_gdim_table": None,
    "cli.cmd_gdim": None,
    "paving.count_points": None,
    "paving.paving_cells": _distinct,
    "nilrep.enumerate_nilreps": _distinct,
    "series.bgl": _distinct,
    "series.HalfLaurentSeries.mul": None,
    "extalg.gdim_geo": None,
    "extalg.gdim_alg_klr": None,
    "klrpoly.KLROperator.apply": None,
    "klrpoly.KLROperator.__mul__": None,
    "klrpoly.relation_suite": None,
    "homotopy.minimize": None,
    "homotopy.KLRHandle.is_zero": None,
    "homotopy.KLRHandle.is_block_homogeneous": None,
    "homotopy.KLRHandle.invert_degree_zero": _hit,
    "homotopy.complexes_equal": None,
    "homotopy.random_complex": None,
    "linalg.solve_exact": _shape,
    "linalg.rref_fractions": None,
}


def package_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def aliases(fn) -> list[tuple[object, object]]:
    """Every (namespace, key) in the package's modules that holds `fn`:
    module attributes, and values of module-level dicts (dispatch tables)."""
    found = []
    for mod in package_modules():
        for key, value in list(vars(mod).items()):
            if value is fn:
                found.append((mod, key))
            elif isinstance(value, dict):
                found.extend((value, k) for k, v in value.items() if v is fn)
    return found


def _resolve(boundary: str):
    """(owner, attribute, original) for "<module>.<name>" or
    "<module>.<Class>.<method>"."""
    modname, *path = boundary.split(".")
    owner = sys.modules[f"{PACKAGE}.{modname}"]
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1], vars(owner)[path[-1]]


def _put(place, key, value) -> None:
    if isinstance(place, dict):
        place[key] = value
    else:
        setattr(place, key, value)


class _ThreadSpans(threading.local):
    """One thread's spans as columns, plus its open-span stack and case."""

    def __init__(self, registry: list):
        self.names = array("i")
        self.parents = array("q")
        self.cases = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.case = -1
        registry.append(self)


class Tracer:
    def __init__(self):
        self.names = list(BOUNDARIES)
        self.stats = {name: {} for name in self.names}
        self.case_ids: list[str] = []
        self._case_index: dict[str, int] = {}
        self._threads: list[_ThreadSpans] = []
        self._local = _ThreadSpans(self._threads)
        self._undo: list[tuple[object, object, object]] = []

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        for name_id, boundary in enumerate(self.names):
            owner, attr, original = _resolve(boundary)
            wrapper = self._wrap(name_id, original, BOUNDARIES[boundary])
            if isinstance(owner, type):
                places = [(owner, attr)]
            else:
                places = aliases(original)
            for place, key in places:
                self._undo.append((place, key, original))
                _put(place, key, wrapper)

    def uninstall(self) -> None:
        for place, key, original in reversed(self._undo):
            _put(place, key, original)
        self._undo.clear()

    def _wrap(self, name_id: int, fn, observe):
        local = self._local
        stats = self.stats[self.names[name_id]]

        def traced(*args, **kwargs):
            spans = local
            stack = spans.stack
            idx = len(spans.names)
            spans.names.append(name_id)
            spans.parents.append(stack[-1] if stack else -1)
            spans.cases.append(spans.case)
            spans.starts.append(0.0)
            spans.ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.starts[idx] = t0
                spans.ends[idx] = t1
            if observe is not None:
                observe(stats, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def set_case(self, case_id: str | None) -> None:
        """Tag the spans this thread opens from now on with `case_id`."""
        if case_id is None:
            self._local.case = -1
            return
        idx = self._case_index.get(case_id)
        if idx is None:
            idx = self._case_index[case_id] = len(self.case_ids)
            self.case_ids.append(case_id)
        self._local.case = idx

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        """Per boundary: calls, self_s, total_s (inclusive, over the spans
        not enclosed by another of the same boundary) and the observer's
        statistic.  Per root boundary (one per workload part): its spans'
        total duration and the self time of each boundary below it."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        total_s = [0.0] * len(self.names)
        by_root: dict[str, dict] = {}
        for spans in self._threads:
            if spans.stack:
                raise RuntimeError("summary taken while spans are still open")
            n = len(spans.names)
            starts, ends, parents, names = spans.starts, spans.ends, spans.parents, spans.names
            child = [0.0] * n
            root = [0] * n
            above = [0] * n  # bit k set: a span of boundary k encloses span i
            for i in range(n):
                p = parents[i]
                if p >= 0:
                    child[p] += ends[i] - starts[i]
                    root[i] = root[p]
                    above[i] = above[p] | (1 << names[p])
                else:
                    root[i] = i
            for i in range(n):
                dur = ends[i] - starts[i]
                own = dur - child[i]
                calls[names[i]] += 1
                self_s[names[i]] += own
                if not above[i] >> names[i] & 1:
                    total_s[names[i]] += dur
                part = by_root.setdefault(
                    self.names[names[root[i]]], {"wall_s": 0.0, "self_s": {}}
                )
                if root[i] == i:
                    part["wall_s"] += dur
                layer = self.names[names[i]]
                part["self_s"][layer] = part["self_s"].get(layer, 0.0) + own
        layers = {}
        for k, name in enumerate(self.names):
            entry = {"calls": calls[k], "self_s": self_s[k], "total_s": total_s[k]}
            st = self.stats[name]
            observe = BOUNDARIES[name]
            if observe is _distinct:
                entry["distinct_frac"] = len(st.get("keys", ())) / calls[k] if calls[k] else 0.0
            elif observe is _hit:
                entry["hit_frac"] = st.get("hits", 0) / calls[k] if calls[k] else 0.0
            elif observe is _shape:
                entry["rows_max"] = st.get("rows_max", 0)
                entry["cols_max"] = st.get("cols_max", 0)
            layers[name] = entry
        return {"layers": layers, "by_root": by_root, "spans": sum(calls)}
