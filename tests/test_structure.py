"""The restart measure is one abstraction: the walk and the boundary-layer
probes ask the measure, never test its class, and the walk kernel takes the
measure's draw instead of a restart code.  Every walk takes the kernel's one
sharded path.  Marching squares works on whole arrays, not cell by cell.
Every function, class and method has a caller or a test.  The CLI guards
its checks in one place and the enclosure checkers gate admissibility in
one place.  Only the domain knows its occupation cells.  Integrands meet a
quadrature rule through ``rule.values``, on the rule's tensor factors.  The
Dirichlet basis is one table of parameter rows, with no per-mode object, and
a mode perturbation is its coefficient vector."""

import ast
import dataclasses
import inspect
import os

import numpy as np
import pytest

import jumpspectra
from jumpspectra import (_kernels, cli, enclosure, geometry, measures,
                         stochastic)

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
        "seeds", "n_steps", "dt", "btol", "domain", "draw", "n_bins"]
    # the walk keeps no restart samples: no cap, event list or merge sort
    with open(os.path.join(SRC, "_kernels.py")) as fh:
        text = fh.read()
    assert not [word for word in ("restart_cap", "events", "lexsort")
                if word in text]
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


def test_occupation_cells_stay_in_the_domain():
    # the walk, the prediction and the CSV ask the domain by n_bins; no edge
    # array leaves geometry, and the cell integrals are closed forms, with
    # no loop over cells or modes
    fields = {f.name for f in dataclasses.fields(stochastic.OccupationHistogram)}
    assert not fields & {"bin_edges", "bin_edges_y"}
    for module in ("stochastic.py", "_kernels.py", "cli.py"):
        with open(os.path.join(SRC, module)) as fh:
            assert "edges" not in fh.read(), module
    tree = parse("geometry.py")
    for cls in (geometry.Disk, geometry.Rectangle):
        assert not hasattr(cls, "occupation_cells")
        assert not hasattr(cls, "n_cells")
        assert list(inspect.signature(cls.cell_masses).parameters) == [
            "self", "basis", "coeffs", "n_bins"]
        for name in ("cell_areas", "cell_labels"):
            assert list(inspect.signature(getattr(cls, name)).parameters) \
                == ["self", "n_bins"]
        body = next(node for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef)
                    and node.name == cls.__name__)
        method = next(node for node in body.body
                      if isinstance(node, ast.FunctionDef)
                      and node.name == "cell_masses")
        assert not [node for node in ast.walk(method) if isinstance(
            node, (ast.For, ast.While, ast.comprehension))]


@pytest.mark.parametrize("module", ["measures.py", "numrange.py"])
def test_integrands_meet_rules_through_values(module):
    # no flat node coordinates are read, so none reach a callable; every
    # integrand on a rule goes through rule.values, and a collar comes back
    # as a rule and its scaled distance, not as flat coordinates
    tree = parse(module)
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in ("x", "y")]
    assert [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "values"]
    collars = [node for node in ast.walk(tree)
               if isinstance(node, ast.Assign)
               and isinstance(node.value, ast.Call)
               and getattr(node.value.func, "id", None) == "layer_quadrature"]
    assert all(isinstance(target, ast.Tuple) and len(target.elts) == 2
               for node in collars for target in node.targets)


def test_basis_is_one_table():
    # a mode is a row of the basis's parallel arrays: no per-mode object
    # wraps it, and the domain evaluates rows of ``params``
    assert not hasattr(geometry, "Mode")
    assert "modes" not in {f.name for f in dataclasses.fields(geometry.BasisSet)}
    assert not hasattr(geometry.BasisSet, "modes")
    x, y = np.array([0.3, 0.5]), np.array([0.2, 0.4])
    for domain in (geometry.unit_disk(), geometry.rectangle(2.0, 3.0)):
        for name in ("mode_values", "mode_gradient"):
            assert list(inspect.signature(getattr(domain, name)).parameters) \
                == ["params", "x", "y"]
        basis = geometry.build_basis(domain, 60.0)
        for table in (basis.one_coeffs, basis.labels, basis.params):
            assert len(table) == len(basis) == basis.eigenvalues.size
        values = domain.mode_values(basis.params[:3], x, y)
        assert values.shape == (3, 2)
        assert np.array_equal(values[1], basis.mode_values(1, x, y))
        gx, gy = domain.mode_gradient(basis.params[1], x, y)
        assert gx.shape == gy.shape == (2,)


def test_perturbation_is_its_coefficients():
    # a mode perturbation is its coefficient vector: its moments, mean and
    # norms are sums over the coefficients, so no rule samples or integrates
    # v, and the CLI builds the vector, not a closure
    fields = {f.name: f.type
              for f in dataclasses.fields(measures.PerturbedMeasure)}
    assert fields["v"] == "np.ndarray"
    basis = geometry.build_basis(geometry.rectangle(2.0, 3.0), 60.0)
    v = cli.make_mode_perturbation(basis, {0: 0.5, 1: 0.5}, 0.1)
    assert isinstance(v, np.ndarray) and v.shape == (len(basis),)
    assert "v_l2_norm" not in {
        f.name for f in dataclasses.fields(measures.MeasureMoments)}
    calls = [node for node in ast.walk(parse("measures.py"))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)]
    assert not [call for call in calls if call.func.attr == "v"]
    assert not [call for call in calls
                if call.func.attr in ("values", "integrate", "moments")
                and any(isinstance(node, ast.Attribute) and node.attr == "v"
                        for arg in call.args for node in ast.walk(arg))]
    make = next(node for node in ast.walk(parse("cli.py"))
                if isinstance(node, ast.FunctionDef)
                and node.name == "make_mode_perturbation")
    assert not [node for node in ast.walk(make)
                if isinstance(node, (ast.FunctionDef, ast.Lambda))
                and node is not make]
