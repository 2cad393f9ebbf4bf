"""The restart measure is one abstraction: the walk and the boundary-layer
probes ask the measure, never test its class, and the walk kernel takes the
measure's draw instead of a restart code.  Every walk takes the kernel's one
sharded path.  Marching squares works on whole arrays, not cell by cell."""

import ast
import inspect
import os

import pytest

import jumpspectra
from jumpspectra import _kernels, measures

SRC = os.path.dirname(os.path.abspath(jumpspectra.__file__))
MEASURE_CLASSES = {"MeasureSpec"} | {
    cls.__name__ for cls in measures.MeasureSpec.__args__}


def parse(module: str) -> ast.Module:
    with open(os.path.join(SRC, module)) as fh:
        return ast.parse(fh.read())


def class_names(node) -> set:
    """Class names in the second argument of an ``isinstance`` call."""
    if isinstance(node, ast.Tuple):
        return set().union(*(class_names(elt) for elt in node.elts))
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Name):
        return {node.id}
    return set()


@pytest.mark.parametrize("module", ["stochastic.py", "numrange.py",
                                    "_kernels.py"])
def test_no_isinstance_on_measure_classes(module):
    tested = set().union(*(
        class_names(node.args[1]) for node in ast.walk(parse(module))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance" and len(node.args) == 2))
    assert not tested & MEASURE_CLASSES


def test_kernel_has_no_restart_code():
    tree = parse("_kernels.py")
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
    assert not [name for name in names if "code" in name]
    assert list(inspect.signature(_kernels.run_walk).parameters) == [
        "seeds", "n_steps", "dt", "btol", "domain", "draw", "n_bins",
        "restart_cap", "start", "region"]
    # the restart loop compares nothing with an integer literal
    restart = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "_np_restart")
    assert not [node for node in ast.walk(restart)
                if isinstance(node, ast.Compare)
                and any(isinstance(side, ast.Constant)
                        and type(side.value) is int
                        for side in (node.left, *node.comparators))]


def test_one_walk_path():
    # every walk shards the same way: no per-block callback in the kernel,
    # and one call into it from the stochastic layer
    with open(os.path.join(SRC, "_kernels.py")) as fh:
        assert "on_block" not in fh.read()
    calls = [node for node in ast.walk(parse("stochastic.py"))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             == "run_walk"]
    assert len(calls) == 1


def test_marching_squares_has_no_cell_loop():
    # the case table treats every cell at once; a loop over range(...)
    # would walk the grid cell by cell again
    function = next(node for node in ast.walk(parse("enclosure.py"))
                    if isinstance(node, ast.FunctionDef)
                    and node.name == "marching_squares")
    loops = [node.iter for node in ast.walk(function)
             if isinstance(node, (ast.For, ast.comprehension))]
    assert not [it for it in loops if isinstance(it, ast.Call)
                and isinstance(it.func, ast.Name) and it.func.id == "range"]
