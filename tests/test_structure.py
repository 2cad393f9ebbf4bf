"""The restart measure is one abstraction: the walk and the boundary-layer
probes ask the measure, never test its class, and the walk kernel takes the
measure's draw instead of a restart code.  Every walk takes the kernel's one
sharded path.  Marching squares works on whole arrays, not cell by cell.
Every function, class and method has a caller or a test.  The CLI guards
its checks in one place and the enclosure checkers gate admissibility in
one place."""

import ast
import inspect
import os

import pytest

import jumpspectra
from jumpspectra import _kernels, enclosure, measures

SRC = os.path.dirname(os.path.abspath(jumpspectra.__file__))
TESTS = os.path.dirname(os.path.abspath(__file__))
MEASURE_CLASSES = {"MeasureSpec"} | {
    cls.__name__ for cls in measures.MeasureSpec.__args__}


def parse(module: str, where: str = SRC) -> ast.Module:
    with open(os.path.join(where, module)) as fh:
        return ast.parse(fh.read())


def python_files(where: str) -> list:
    return sorted(name for name in os.listdir(where) if name.endswith(".py"))


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
        "restart_cap"]
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


def test_every_definition_is_used():
    # every top-level function or class of the package, and every method
    # that is not a dunder, is named somewhere in the package or its tests;
    # a re-export in __init__ is an import alias, which does not count
    used = set()
    for where in (SRC, TESTS):
        for name in python_files(where):
            for node in ast.walk(parse(name, where)):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined = []
    for name in python_files(SRC):
        for node in parse(name).body:
            if isinstance(node, kinds):
                defined.append((name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(name, f"{node.name}.{item.name}")
                            for item in node.body if isinstance(item, kinds)
                            and not (item.name.startswith("__")
                                     and item.name.endswith("__"))]
    assert defined
    assert [d for d in defined if d[1].split(".")[-1] not in used] == []


def test_one_verdict_path():
    # run and verify share one guard, the theorem checkers one admissibility
    # gate, and interlacing returns the checkers' common result type
    handlers = [node for node in ast.walk(parse("cli.py"))
                if isinstance(node, ast.ExceptHandler)
                and "UndecidableError" in class_names(node.type)]
    assert len(handlers) == 1
    base_kinds = [node for node in ast.walk(parse("enclosure.py"))
                  if isinstance(node, ast.Attribute)
                  and node.attr == "base_kind"]
    assert len(base_kinds) == 1
    assert not hasattr(enclosure, "InterlacingCertificate")
    for name in python_files(SRC):
        with open(os.path.join(SRC, name)) as fh:
            assert "InterlacingCertificate" not in fh.read(), name
