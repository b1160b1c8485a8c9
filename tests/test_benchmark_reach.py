"""The names the benchmark under `benchmarks/perf` reaches into the package
for exist, so a rename fails here and not only in a benchmark run.

The benchmark's files are parsed, not imported or run: every attribute that
`workloads.py` reads from `dataio`, `downstream`, `flownet`, `labeling` or
`pipeline`, every name it hands to `kept_results`, every parameter its
gradient check picks from a default `FlowNet`, and every trace point in
`tracer.py`.
"""

import ast
import importlib
from pathlib import Path

import pytest

from milliflow.config import NetConfig
from milliflow.flownet import FlowNet

PERF = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"
MODULES = ("dataio", "downstream", "flownet", "labeling", "pipeline")


def _parse(name: str) -> ast.Module:
    return ast.parse((PERF / name).read_text(), filename=name)


def _workload_reads() -> list:
    """(module, attribute) pairs that workloads.py reads."""
    reads = set()
    for node in ast.walk(_parse("workloads.py")):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id in MODULES):
            reads.add((node.value.id, node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "kept_results"):
            module, name = node.args
            reads.add((module.id, name.value))
    return sorted(reads)


def _gradient_check_params() -> list:
    """The parameter names that workloads.py's `_gradient_check` picks: the
    strings of the tuples its comprehensions run over."""
    for node in ast.walk(_parse("workloads.py")):
        if isinstance(node, ast.FunctionDef) and node.name == "_gradient_check":
            return [elt.value for comp in ast.walk(node) if isinstance(comp, ast.comprehension)
                    and isinstance(comp.iter, ast.Tuple)
                    for elt in comp.iter.elts if isinstance(elt, ast.Constant)]
    raise AssertionError("workloads.py defines no _gradient_check")


def _trace_points() -> list:
    """(module path, dotted attribute) of each of tracer.py's TRACE_POINTS."""
    for node in _parse("tracer.py").body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TRACE_POINTS"]):
            return sorted({(module, attr) for _, module, attr in ast.literal_eval(node.value)})
    raise AssertionError("tracer.py defines no TRACE_POINTS")


def test_the_parse_finds_the_known_reaches():
    reads = _workload_reads()
    assert ("downstream", "predict_har") in reads
    assert ("downstream", "infer_sequence") in reads
    assert ("milliflow.downstream", "HarNet.forward") in _trace_points()
    assert "reg.b3" in _gradient_check_params()


@pytest.mark.parametrize("module, attr", _workload_reads())
def test_workload_reads_exist(module, attr):
    assert hasattr(importlib.import_module(f"milliflow.{module}"), attr)


@pytest.mark.parametrize("name", _gradient_check_params())
def test_gradient_check_params_exist(name):
    assert name in FlowNet(NetConfig()).named_params()


@pytest.mark.parametrize("module, attr", _trace_points())
def test_trace_points_resolve(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
