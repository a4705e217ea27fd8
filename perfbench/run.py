"""Cold-start benchmark of the four identity sweeps.

    python3 perfbench/run.py --workload {paving,gdim,relations,homotopy}
                             --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --write-reference

Every pass of a workload runs in a fresh interpreter (`child.py`), so the
package's module-level caches start cold, as they do for each CLI call.

`--trace 0` repeats passes for about S seconds and reports the end-to-end
metrics, each a median over passes: `wall_s` (time from the first case to
the last verdict), `case_p50_ms` and `case_tail_ms` (per-case latency; the
tail is the highest percentile with ten cases of the pass beyond it) and
`peak_rss_mb` (peak RSS); and `setup_s`, the median time from process
start to cases built over six set-up-only processes and every pass.
`--trace 1` runs one untraced and one traced pass and reports the
per-layer metrics of `tracer.py` and `trace_overhead_s`, the difference of
their wall times.

Every output record is checked against `reference.json`, recorded at seed
0 by `--write-reference` (documents that echo the seed are compared with it
set to 0).  Passes run on one thread; for the workloads in `THREAD_CHECK`
the first, untimed process of each run is a full pass on two threads, so
every run also checks that threads do not change the bytes.  A case fails
if it raises, returns a failing verdict, or belongs to a record that
differs from the reference.  The last line of stdout is the result
`{"correct", "attempted", "failed", "metrics"}`; the line before it is a
report with the environment and the details behind the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("paving", "gdim", "relations", "homotopy")
SETUP_SPAWNS = 6
THREAD_CHECK = ("relations",)
PASS_TIMEOUT_S = 170


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": model,
        "loadavg_start": list(os.getloadavg()),
    }


def spawn(workload: str, seed: int, *flags: str) -> tuple[float, dict | None]:
    """Run one child; return (set-up seconds, its result or None)."""
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed), *flags]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait(timeout=PASS_TIMEOUT_S)
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = rest.splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def check(result: dict, reference: dict) -> tuple[int, int, list[str]]:
    """(cases attempted, cases failed, problems) of one pass."""
    attempted = failed = 0
    problems = []
    parts = {p["name"]: p for p in result["parts"]}
    for name, ref in reference.items():
        part = parts.get(name)
        if part is None:
            attempted += len(ref["records"])
            failed += len(ref["records"])
            problems.append(f"{name}: part missing")
            continue
        whole_ok = part["code"] == 0 and part["sha256"] == ref["sha256"]
        if not whole_ok:
            problems.append(f"{name}: exit {part['code']}, sha256 {part['sha256']}")
        records = part["records"]
        for k in range(max(len(records), len(ref["records"]))):
            if k >= len(records):
                attempted += 1
                failed += 1
                continue
            rec = records[k]
            n = max(1, len(rec["latency_s"]))
            good = (
                whole_ok and rec["ok"]
                and k < len(ref["records"]) and rec["digest"] == ref["records"][k]
            )
            attempted += n
            if not good:
                failed += n
                problems.append(f"{name}: record {rec['id']} differs or failed")
    return attempted, failed, problems


def check_all(results: list[dict], reference: dict) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems: list[str] = []
    for result in results:
        a, f, p = check(result, reference)
        attempted += a
        failed += f
        problems += p
    return attempted, failed, problems


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ranked = sorted(values)
    k = math.ceil(len(ranked) * p / 100) - 1
    return ranked[max(0, min(len(ranked) - 1, k))]


def tail_percentile(cases_per_pass: int) -> float:
    """The highest percentile with ten cases of one pass beyond it."""
    return 100 * (1 - 10 / cases_per_pass) if cases_per_pass > 10 else 50.0


def latencies(result: dict) -> list[float]:
    return [l for p in result["parts"] for r in p["records"] for l in r["latency_s"]]


def measure(workload: str, seed: int, seconds: float, reference: dict) -> tuple[dict, dict]:
    # The first process byte-compiles the package and is not timed.
    checked = []
    if workload in THREAD_CHECK:
        checked.append(spawn(workload, seed, "--threads", "2")[1])
    else:
        spawn(workload, seed, "--setup-only")
    setups = []
    for _ in range(SETUP_SPAWNS):
        setups.append(spawn(workload, seed, "--setup-only")[0])
    passes = []
    t_start = perf_counter()
    last = 0.0
    while not passes or perf_counter() - t_start + last <= seconds:
        t0 = perf_counter()
        setup, result = spawn(workload, seed)
        last = perf_counter() - t0
        setups.append(setup)
        passes.append(result)
    attempted, failed, problems = check_all(checked + passes, reference)
    per_pass = len(latencies(passes[0]))
    tail_p = tail_percentile(per_pass)

    def median_over_passes(stat) -> float:
        return statistics.median(stat(r) for r in passes)

    metrics = {
        "wall_s": (median_over_passes(lambda r: r["wall_s"]), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "case_p50_ms": (median_over_passes(lambda r: 1000 * percentile(latencies(r), 50)), "ms"),
        "case_tail_ms": (median_over_passes(lambda r: 1000 * percentile(latencies(r), tail_p)), "ms"),
        "peak_rss_mb": (median_over_passes(lambda r: r["peak_rss_mb"]), "MB"),
    }
    report = {
        "passes": len(passes),
        "cases": sum(len(latencies(r)) for r in passes),
        "cases_per_pass": per_pass,
        "tail_percentile": tail_p,
        "fail_frac": failed / attempted if attempted else 1.0,
        "pass_wall_s": [r["wall_s"] for r in passes],
        "two_thread_check_wall_s": [r["wall_s"] for r in checked],
        "part_wall_s": {p["name"]: p["wall_s"] for p in passes[0]["parts"]},
        "setup_s": setups,
        "problems": problems[:20],
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, report


def trace(workload: str, seed: int, reference: dict) -> tuple[dict, dict]:
    spawn(workload, seed, "--setup-only")  # byte-compiles the package; not timed
    _, plain = spawn(workload, seed)
    _, traced = spawn(workload, seed, "--trace")
    attempted, failed, problems = check_all([plain, traced], reference)
    summary = traced["trace"]
    metrics = {}
    for name, entry in summary["layers"].items():
        for key, value in entry.items():
            if key == "total_s":
                continue
            unit = "s" if key.endswith("_s") else "ratio" if key.endswith("_frac") else "count"
            metrics[f"{name}.{key}"] = (value, unit)
    roots = summary["by_root"]
    root_self = sum(r["self_s"].get(name, 0.0) for name, r in roots.items())
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.root_self_frac"] = (root_self / traced["wall_s"], "ratio")
    metrics["trace_overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    report = {
        "total_s": {name: e["total_s"] for name, e in summary["layers"].items() if e["calls"]},
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "spans": summary["spans"],
        "self_share_by_part": {
            name: {
                "wall_s": r["wall_s"],
                "self_frac": {
                    k: v / r["wall_s"]
                    for k, v in sorted(r["self_s"].items(), key=lambda kv: -kv[1])
                },
            }
            for name, r in roots.items()
        },
        "problems": problems[:20],
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, report


def write_reference() -> None:
    """Record every workload's output digests at seed 0."""
    out = {"seed": 0, "workloads": {}}
    for workload in WORKLOADS:
        _, result = spawn(workload, 0)
        out["workloads"][workload] = {
            p["name"]: {"sha256": p["sha256"], "records": [r["digest"] for r in p["records"]]}
            for p in result["parts"]
        }
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    opts = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "quiverchow", "cli.py")):
        print(f"error: no package source under {ROOT}/src/quiverchow", file=sys.stderr)
        return 2
    if opts.write_reference:
        write_reference()
        return 0
    if opts.workload is None:
        ap.error("--workload is required")
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)["workloads"][opts.workload]

    env = environment()
    if opts.trace:
        result, report = trace(opts.workload, opts.seed, reference)
    else:
        result, report = measure(opts.workload, opts.seed, opts.seconds, reference)
    result["correct"] = result["failed"] == 0
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps({"report": {"workload": opts.workload, "seed": opts.seed,
                                 "env": env, **report}}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
