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

from quiverchow import cli, extalg, homotopy, linalg, paving, series

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


def test_cache_and_aliases_the_benchmark_checks():
    assert isinstance(paving._paving_cache, dict)
    assert cli.count_points is paving.count_points
    assert extalg.paving_cells is paving.paving_cells
    assert homotopy.solve_exact is linalg.solve_exact
    assert extalg.bgl is series.bgl
    assert cli._HANDLERS["gdim-table"] is cli.cmd_gdim_table
