"""Tests of the benchmark itself.

    python3 perfbench/selftest.py          # about a minute and a half

They check that tracing reaches every alias of a boundary, that a traced
pass gives the same verdicts and digests as an untraced one while its self
times sum to no more than its wall time, that the cold-start guard fires,
and that the output check counts failures.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import child  # noqa: E402  (puts src/ on sys.path and imports the package)
import run  # noqa: E402
import tracer  # noqa: E402
from quiverchow import cli, extalg, homotopy, linalg, paving, series  # noqa: E402
from quiverchow.nilrep import parse_multisegment  # noqa: E402
from quiverchow.quiver import parse_composition, parse_quiver  # noqa: E402


class AliasTest(unittest.TestCase):
    def test_every_alias_is_wrapped_and_restored(self):
        originals = {b: tracer._resolve(b)[2] for b in tracer.BOUNDARIES}
        # the package imports public names into other modules
        self.assertIs(cli.count_points, paving.count_points)
        self.assertIs(extalg.paving_cells, paving.paving_cells)
        self.assertIs(homotopy.solve_exact, linalg.solve_exact)
        self.assertIs(extalg.bgl, series.bgl)
        self.assertIs(cli._HANDLERS["gdim-table"], cli.cmd_gdim_table)
        t = tracer.Tracer()
        t.install()
        try:
            for boundary, fn in originals.items():
                owner, attr, now = tracer._resolve(boundary)
                self.assertIs(now.__wrapped__, fn, boundary)
                self.assertEqual(tracer.aliases(fn), [], f"{boundary} left unwrapped")
            self.assertIsNot(cli.count_points, paving.count_points.__wrapped__)
            self.assertIs(cli.count_points, paving.count_points)
            self.assertIs(extalg.bgl, series.bgl)
            self.assertIs(cli._HANDLERS["gdim-table"], cli.cmd_gdim_table)
        finally:
            t.uninstall()
        for boundary, fn in originals.items():
            self.assertIs(tracer._resolve(boundary)[2], fn, boundary)

    def test_spans_nest_and_carry_the_case(self):
        t = tracer.Tracer()
        t.install()
        try:
            t.set_case("c1")
            Q = parse_quiver("cyclic:1")
            M = parse_multisegment("(0,2)+(0,1)")
            comp = parse_composition("1;1;1", 1)
            cli.count_points(Q, M, comp, 2)
            extalg.gdim_geo(Q, M.dim_vector(Q), comp, comp)
            t.set_case(None)
        finally:
            t.uninstall()
        spans = t._local
        self.assertEqual({t.case_ids[c] for c in spans.cases}, {"c1"})
        names = [t.names[k] for k in spans.names]
        self.assertEqual(names[0], "paving.count_points")
        self.assertIn("paving.paving_cells", names)
        root = names.index("extalg.gdim_geo")
        self.assertTrue(all(p >= root for p in spans.parents[root + 1:]))
        summary = t.summary()
        self.assertEqual(summary["layers"]["paving.count_points"]["calls"], 1)
        self.assertEqual(summary["layers"]["extalg.gdim_geo"]["calls"], 1)


class TracedRunTest(unittest.TestCase):
    """A traced pass of every workload against an untraced one."""

    def test_traced_pass_agrees_and_self_times_fit_in_wall(self):
        with open(run.REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)["workloads"]
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                _, plain = run.spawn(workload, 3)
                _, traced = run.spawn(workload, 3, "--trace")
                strip = [
                    [(p["name"], p["code"], p["sha256"],
                      [(r["id"], r["digest"], r["ok"]) for r in p["records"]])
                     for p in result["parts"]]
                    for result in (plain, traced)
                ]
                self.assertEqual(strip[0], strip[1])
                self.assertEqual(run.check(traced, reference[workload])[1:], (0, []))
                summary = traced["trace"]
                self_sum = sum(e["self_s"] for e in summary["layers"].values())
                self.assertLessEqual(self_sum, traced["wall_s"])
                self.assertGreater(self_sum, 0.9 * traced["wall_s"])
                for name, entry in summary["layers"].items():
                    self.assertGreaterEqual(entry["self_s"], -1e-9, name)


class GuardAndCheckTest(unittest.TestCase):
    def test_cold_guard_fires_on_a_warm_cache_or_a_live_handle(self):
        # other tests in this process may have warmed the cache
        paving._paving_cache.clear()
        gc.collect()
        child.cold_guard()
        Q = parse_quiver("A1")
        paving.paving_cells(Q, parse_multisegment("(0,1)"), parse_composition("1", 1))
        try:
            with self.assertRaises(RuntimeError):
                child.cold_guard()
        finally:
            paving._paving_cache.clear()
        handle = homotopy.parse_handle("nilhecke:2")
        with self.assertRaises(RuntimeError):
            child.cold_guard()
        del handle
        gc.collect()
        child.cold_guard()

    def test_check_counts_failed_and_differing_records(self):
        ref = {"s": {"sha256": "h", "records": ["a", "b", "c"]}}

        def result(digests, oks, sha="h"):
            return {"parts": [{
                "name": "s", "code": 0, "sha256": sha,
                "records": [
                    {"id": str(k), "digest": d, "ok": ok, "latency_s": [0.1, 0.2]}
                    for k, (d, ok) in enumerate(zip(digests, oks))
                ],
            }]}

        self.assertEqual(run.check(result("abc", [1, 1, 1]), ref)[:2], (6, 0))
        self.assertEqual(run.check(result("abc", [1, 0, 1]), ref)[:2], (6, 2))
        self.assertEqual(run.check(result("abx", [1, 1, 1]), ref)[:2], (6, 2))
        self.assertEqual(run.check(result("ab", [1, 1]), ref)[:2], (5, 1))
        self.assertEqual(run.check(result("abc", [1, 1, 1], sha="x"), ref)[:2], (6, 6))

    def test_tail_percentile_leaves_ten_cases_beyond(self):
        for n in (100, 104, 107, 1996):
            values = list(range(n, 0, -1))
            tail = run.percentile(values, run.tail_percentile(n))
            self.assertEqual(sum(1 for v in values if v > tail), 10, n)
        self.assertEqual(run.percentile(list(range(1, 101)), 50), 50)


if __name__ == "__main__":
    unittest.main()
