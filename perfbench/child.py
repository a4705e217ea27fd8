"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N [--setup-only]
                               [--threads T] [--trace]

A pass imports the package from `src/`, builds the workload's cases (the
set-up), prints the line `ready`, checks that the package's caches are
cold, runs every part through the CLI entry point `cli.main` and prints
one JSON line: the pass wall time, each output record with its digest and
verdict, the latency of each case, and the peak RSS.  With `--trace` the
line also carries the per-layer summary of `tracer.Tracer`.

A case is one suite case, one block of a `gdim-table`/`gdim` document, or
one (handle, trial) of the homotopy suite.  Cases of a suite are built
during set-up by the suite's own case factory in `cli`; `run_suite` then
receives that list instead of building it again, so the timed region starts
at the first case.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import threading
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from quiverchow import cli, homotopy, paving  # noqa: E402

from tracer import Tracer  # noqa: E402

REFERENCE_SEED = 0

# Each workload is a list of CLI invocations ("parts"); "{seed}" is the
# benchmark seed.  Every part runs on one thread: on two threads a relations
# pass took 2.9 s or 4.5 s depending on the host's state for minutes at a
# time (the GIL handoff between the two vCPUs), so two-thread timings are
# not steady here; `--threads 2` is still checked against the output bytes.
# The homotopy corpus stays at suite seed 0: its per-trial cost depends on
# the random complexes drawn, and across suite seeds 1-5 the median trial
# latency of a 200-trial corpus varied by 46% (interquartile range over
# median), more than a run of this length can average out.
# Relations and homotopy passes are kept to about 3 s so that six or more
# fit in a run: the host runs whole passes up to 30% slower for seconds at a
# time, and only a median over several passes sets such a pass aside.
WORKLOADS = {
    "paving": [
        ["suite", "paving-oracle", "--max-total", "3"],
    ],
    "gdim": [
        ["suite", "klr-match"],
        ["gdim-table", "--quiver", "A3", "--dim", "1,2,1", "--all-comps"],
        ["gdim", "--quiver", "A1", "--dim", "7", "--mode", "geo",
         "--word-i", "0,0,0,0,0,0,0", "--word-j", "0,0,0,0,0,0,0"],
    ],
    "relations": [
        ["suite", "relations", "--trials", "25", "--seed", "{seed}", "--threads", "1"],
    ],
    "homotopy": [
        ["suite", "homotopy", "--count", "25", "--seed", "0"],
    ],
}

# suite name -> (case factory in cli, the arguments run_suite passes it)
FACTORIES = {
    "paving-oracle": ("paving_oracle_cases", lambda a: (a.max_total,)),
    "klr-match": ("klr_match_cases", lambda a: (a.trunc,)),
    "relations": ("relations_cases", lambda a: (a.max_total, a.trials, a.seed)),
    "homotopy": ("homotopy_cases", lambda a: (a.count, a.seed)),
}


def part_argv(workload: str, seed: int, threads: int | None) -> list[list[str]]:
    """The parts' argv; `threads` replaces the value of each `--threads`."""
    parts = []
    for argv in WORKLOADS[workload]:
        argv = [a.replace("{seed}", str(seed)) for a in argv]
        if threads is not None and "--threads" in argv:
            argv[argv.index("--threads") + 1] = str(threads)
        parts.append(argv)
    return parts


def part_name(argv: list[str]) -> str:
    return argv[1] if argv[0] == "suite" else argv[0]


def canonical(text: str) -> tuple[dict, str]:
    """The document and its canonical text.  Suite documents echo the seed;
    it is set to the reference seed so one reference covers every seed."""
    doc = json.loads(text)
    if "seed" in doc:
        doc["seed"] = REFERENCE_SEED
    return doc, json.dumps(doc, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def records_of(doc: dict) -> list[tuple[str, dict]]:
    """(record id, record) pairs: suite cases, table blocks, or the doc."""
    if doc.get("schema") == "suite/1":
        return [(c["case"], c) for c in doc["cases"]]
    if doc.get("schema") == "gdim-table/1":
        return [(f"{b['i']}|{b['j']}", b) for b in doc["blocks"]]
    return [(f"{doc.get('i')}|{doc.get('j')}", doc)]


class Cases:
    """Per-case latencies keyed by record id, and the tracer's case tag."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.latency: dict[str, list[float]] = {}
        self.bounds: dict[str, tuple[float, float]] = {}
        self.marks: dict[str, list[float]] = {}
        self.raised: set[str] = set()
        self._local = threading.local()

    def active(self) -> str | None:
        return getattr(self._local, "case", None)

    def _tag(self, tag: str | None) -> None:
        if self.tracer is not None:
            self.tracer.set_case(tag)

    def timed_case(self, case_id: str, fn):
        """A suite case that records its latency and turns an exception
        into a failing verdict, so one bad case does not end the suite."""
        def run():
            self._local.case = case_id
            self._tag(case_id)
            t0 = perf_counter()
            try:
                ok, detail = fn()
            except Exception as exc:  # a raising case is a failed case
                self.raised.add(case_id)
                ok, detail = False, f"raised {type(exc).__name__}: {exc}"
            t1 = perf_counter()
            self.bounds[case_id] = (t0, t1)
            self.latency[case_id] = [t1 - t0]
            self._local.case = None
            self._tag(None)
            return ok, detail
        return run

    def timed_block(self, fn):
        """`gdim_geo` as the CLI calls it: each call outside a suite case
        is one block, keyed like the records of its output document."""
        def run(Q, d, ci, cj, *rest):
            if self.active() is not None:
                return fn(Q, d, ci, cj, *rest)
            case_id = f"{ci}|{cj}"
            self._local.case = case_id
            self._tag(case_id)
            t0 = perf_counter()
            try:
                return fn(Q, d, ci, cj, *rest)
            finally:
                self.latency[case_id] = [perf_counter() - t0]
                self._local.case = None
                self._tag(None)
        return run

    def trial_marks(self, fn):
        """`random_complex` as the homotopy suite calls it: each call starts
        the next trial of the running handle case."""
        def run(*args, **kwargs):
            case_id = self.active()
            marks = self.marks.setdefault(case_id, [])
            marks.append(perf_counter())
            self._tag(f"{case_id}:{len(marks) - 1}")
            return fn(*args, **kwargs)
        return run

    def split_trials(self, case_id: str) -> None:
        """Split a handle case's latency at its trial marks: trial t runs
        from its mark (the case start for t = 0) to the next mark."""
        if case_id not in self.bounds:
            return
        start, end = self.bounds[case_id]
        cuts = [start] + self.marks.get(case_id, [])[1:] + [end]
        self.latency[case_id] = [b - a for a, b in zip(cuts, cuts[1:])]


def build(workload: str, seed: int, threads: int | None):
    """Parse every part and build its suite cases (the set-up)."""
    parser = cli.build_parser()
    built = []
    for argv in part_argv(workload, seed, threads):
        args = parser.parse_args(argv)
        prebuilt = None
        if args.command == "suite":
            factory, fargs = FACTORIES[args.name]
            fargs = fargs(args)
            prebuilt = (factory, fargs, getattr(cli, factory)(*fargs))
        built.append((argv, prebuilt))
    return built


def cold_guard() -> None:
    if paving._paving_cache:
        raise RuntimeError(f"paving cache holds {len(paving._paving_cache)} entries before the run")
    if any(isinstance(o, homotopy.KLRHandle) for o in gc.get_objects()):
        raise RuntimeError("a KLRHandle exists before the run")


def run_part(argv, prebuilt, cases: Cases) -> tuple[int, str]:
    saved = {}
    if prebuilt is not None:
        factory, fargs, case_list = prebuilt
        timed = [(cid, cases.timed_case(cid, fn)) for cid, fn in case_list]

        def from_setup(*call_args):
            if call_args != fargs:
                raise RuntimeError(f"{factory}{call_args} differs from set-up {fargs}")
            return timed
        saved[factory] = from_setup
    else:
        saved["gdim_geo"] = cases.timed_block(cli.gdim_geo)
    if argv[:2] == ["suite", "homotopy"]:
        saved["random_complex"] = cases.trial_marks(cli.random_complex)
    originals = {name: getattr(cli, name) for name in saved}
    for name, fn in saved.items():
        setattr(cli, name, fn)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception as exc:  # a crash fails every record of the part
        print(f"{' '.join(argv)}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3, ""
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)
    return code, out.getvalue().rstrip("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--threads", type=int)
    ap.add_argument("--trace", action="store_true")
    opts = ap.parse_args(argv)

    tracer = Tracer() if opts.trace else None
    cases = Cases(tracer)
    built = build(opts.workload, opts.seed, opts.threads)
    print("ready", flush=True)
    if opts.setup_only:
        return 0
    cold_guard()
    if tracer is not None:
        tracer.install()

    parts = []
    t_first = perf_counter()
    for argv, prebuilt in built:
        t0 = perf_counter()
        code, text = run_part(argv, prebuilt, cases)
        t1 = perf_counter()
        parts.append((argv, code, text, t0, t1))
    wall = perf_counter() - t_first

    if tracer is not None:
        tracer.uninstall()
    result = {"wall_s": wall, "parts": []}
    for argv, code, text, t0, t1 in parts:
        part = {"name": part_name(argv), "code": code, "wall_s": t1 - t0}
        try:
            doc, text = canonical(text)
        except ValueError as exc:
            part.update(sha256=None, records=[], error=f"unreadable output: {exc}")
            result["parts"].append(part)
            continue
        part["sha256"] = digest(text)
        part["records"] = []
        for rid, rec in records_of(doc):
            if argv[:2] == ["suite", "homotopy"]:
                cases.split_trials(rid)
            part["records"].append({
                "id": rid,
                "digest": digest(json.dumps(rec, separators=(",", ":")))[:16],
                "ok": rec.get("ok", True) and rid not in cases.raised,
                "latency_s": cases.latency.get(rid, []),
            })
        result["parts"].append(part)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["trace"] = tracer.summary()
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
