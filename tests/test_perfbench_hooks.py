"""The names the benchmark in `perfbench/` reaches into the package by.

`perfbench` wraps package functions and methods from outside, by name, so
a rename or a moved method breaks it without failing any other test.  These
checks resolve every hook and parse every workload's argv; none of them
runs the benchmark.
"""

from __future__ import annotations

import importlib
import inspect
import os

import pytest

from quiverchow import cli, extalg, homotopy, klrpoly, linalg, paving, series
from quiverchow.quiver import DimVector, enumerate_compositions

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("tracer"), importlib.import_module("child")


def test_every_traced_boundary_resolves(perfbench):
    tracer, _ = perfbench
    assert tracer.BOUNDARIES
    for boundary in tracer.BOUNDARIES:
        owner, attr, original = tracer._resolve(boundary)
        assert callable(original), boundary
        assert getattr(owner, attr) is original, boundary


def test_every_workload_parses_and_its_factory_takes_its_arguments(perfbench):
    _, child = perfbench
    parser = cli.build_parser()
    for workload in child.WORKLOADS:
        for argv in child.part_argv(workload, 0, 2):
            args = parser.parse_args(argv)
            assert args.command in cli._HANDLERS, argv
            if args.command == "suite":
                factory, fargs = child.FACTORIES[args.name]
                inspect.signature(getattr(cli, factory)).bind(*fargs(args))
    for factory, _ in child.FACTORIES.values():
        assert callable(getattr(cli, factory)), factory
    assert callable(cli.gdim_geo) and callable(cli.random_complex)


def test_gdim_table_calls_the_cli_name_once_per_block(monkeypatch, capsys):
    calls = []

    def counted(*args):
        calls.append(args)
        return extalg.gdim_geo(*args)

    monkeypatch.setattr(cli, "gdim_geo", counted)
    assert cli.main(["gdim-table", "--quiver", "A2", "--dim", "1,1", "--trunc", "4"]) == 0
    capsys.readouterr()
    assert len(calls) == 4


def test_paving_oracle_case_counts_through_the_cli_name(monkeypatch):
    # the paving.count_points layer times every count only if each one goes
    # through cli.count_points, the shared oracle notwithstanding
    calls = []

    def counted(*args):
        calls.append(args)
        return paving.count_points(*args)

    monkeypatch.setattr(cli, "count_points", counted)
    cases = dict(cli.paving_oracle_cases(3))
    ok, _ = cases["A2 1,2 (1,1)+(1,2)"]()
    assert ok
    comps = list(enumerate_compositions(DimVector((1, 2))))
    assert len(comps) > 1 and len(calls) == 3 * len(comps)


def test_relations_case_runs_one_suite_through_the_cli_name(monkeypatch):
    # the klrpoly.relation_suite layer sees every suite only if each case
    # calls it once, through cli.relation_suite
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return klrpoly.relation_suite(*args, **kwargs)

    monkeypatch.setattr(cli, "relation_suite", counted)
    cases = dict(cli.relations_cases(3, 4, 1))
    assert calls == []
    ok, _ = cases["A3 1,1,1"]()
    assert ok
    assert len(calls) == 1


def test_homotopy_case_draws_each_trial_through_the_cli_name(monkeypatch):
    # perfbench splits the latency of a homotopy case into trials at its
    # calls of cli.random_complex, so a case must make exactly one per trial
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return homotopy.random_complex(*args, **kwargs)

    monkeypatch.setattr(cli, "random_complex", counted)
    count = 25  # as the homotopy workload runs it, at suite seed 0
    for spec, fn in cli.homotopy_cases(count, 0):
        calls.clear()
        ok, detail = fn()
        assert ok, detail
        assert len(calls) == count, spec


def test_cache_and_aliases_the_benchmark_checks():
    assert isinstance(paving._paving_cache, dict)
    assert cli.count_points is paving.count_points
    assert extalg.paving_cells is paving.paving_cells
    assert homotopy.solve_exact is linalg.solve_exact
    assert extalg.bgl is series.bgl
    assert cli._HANDLERS["gdim-table"] is cli.cmd_gdim_table
