"""The restart measure is one abstraction: the walk and the boundary-layer
probes ask the measure, never test its class, and the walk kernel takes the
measure's draw instead of a restart code; only the kernel advances a random
stream, and a draw maps uniforms to points.  Every walk takes the kernel's one
sharded path.  Marching squares works on whole arrays, not cell by cell.
Every function, class and method has a caller or a test.  The CLI guards
its checks in one place and the enclosure checkers gate admissibility in
one place.  Only the domain knows its occupation cells.  Integrands meet a
quadrature rule through ``rule.values``, on the rule's tensor factors.  The
Dirichlet basis is one table of parameter rows, with no per-mode object, and
a mode perturbation is its coefficient vector.  A boundary-layer quotient and
the secular tail bound each have one function that computes them.  The
eigenvalue clusters are one table whose columns the secular poles, the
Dirichlet classification and the theorem checks read.  Each value has one
source: no input that changes nothing is accepted, and no record field or
parameter repeats what another already gives.  The resolvent module is the
one home of the truncated-model vectors: an eigenvector is a
``SpectralVector``, one method measures the distance to the Dirichlet
spectrum, and the defect witnesses share one probe loop.  The basis has one
evaluation path, ``mode_values``, with no per-row gradient beside it, and
only the geometry reads a rule's flat node coordinates."""

import ast
import dataclasses
import inspect
import os

import numpy as np
import pytest

import jumpspectra
from jumpspectra import (_kernels, cli, enclosure, errors, geometry, measures,
                         numrange, resolvent, secular, spectrum, stochastic)

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


def test_kernel_owns_the_streams():
    # a draw is a map of one array of uniforms; the kernel makes a restart
    # pass's uniforms in one _unit call, and only the seeds, the restart and
    # the shard step a stream by gamma
    assert not hasattr(_kernels, "_np_uniform")
    disk = geometry.unit_disk()
    for draw in (_kernels.fixed_draw(0.1, 0.2), _kernels.circle_draw(0.5),
                 _kernels.uniform_draw(disk),
                 _kernels.uniform_draw(disk, lambda u1, fx, fy: u1)):
        assert list(inspect.signature(draw).parameters) == ["u"]
    tree = parse("_kernels.py")
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}

    def names(function):
        return {node.id for node in ast.walk(function)
                if isinstance(node, ast.Name)}

    assert {name for name, node in functions.items()
            if "_GOLDEN" in names(node)} == {
        "derive_seeds", "_np_restart", "_walk_shard"}
    assert [node.func.id for node in ast.walk(functions["_np_restart"])
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "_unit"] == ["_unit"]
    # the final acceptance floor is the kernel's, not the stochastic layer's
    assert "check_acceptance" in names(functions["run_walk"])
    assert "check_acceptance" not in {
        alias.name for node in ast.walk(parse("stochastic.py"))
        if isinstance(node, ast.ImportFrom) for alias in node.names}


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
        assert list(inspect.signature(domain.mode_values).parameters) \
            == ["params", "x", "y"]
        basis = geometry.build_basis(domain, 60.0)
        for table in (basis.one_coeffs, basis.labels, basis.params):
            assert len(table) == len(basis) == basis.eigenvalues.size
        values = domain.mode_values(basis.params[:3], x, y)
        assert values.shape == (3, 2)
        assert np.array_equal(values[1], basis.mode_values(1, x, y))


def test_one_evaluation_path_for_the_basis():
    # no Rayleigh-identity check and no per-row mode gradient: the basis is
    # evaluated through mode_values (and the moment transform) only, a basis
    # is built on its domain's default rule, and no module but geometry
    # reads a rule's flat .x/.y (the tests read them as the node-by-node
    # reference)
    assert not hasattr(resolvent, "rayleigh_identity_check")
    assert not hasattr(jumpspectra, "rayleigh_identity_check")
    assert not hasattr(errors, "DegenerateEigenfunctionError")
    for domain in (geometry.Disk, geometry.Rectangle):
        assert not hasattr(domain, "mode_gradient")
    assert list(inspect.signature(geometry.build_basis).parameters) == [
        "domain", "cutoff"]
    reads = [(name, node.lineno) for name in python_files(SRC)
             if name != "geometry.py" for node in ast.walk(parse(name))
             if isinstance(node, ast.Attribute) and node.attr in ("x", "y")]
    assert reads == []


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


def test_one_quotient_and_one_tail_bound():
    # the sweep forms every quotient through rayleigh_probe from the shared
    # layer and bump terms; the tail bound is one array method, which no
    # loop calls point by point
    assert not hasattr(numrange, "ProbeProfile")
    assert list(inspect.signature(numrange.rayleigh_probe).parameters) == [
        "d", "layer", "bump", "domain"]
    assert not hasattr(secular, "eval_secular_truncated")
    for name in ("anchored_tail_bound", "plain_tail_bound"):
        assert not hasattr(secular.SecularSeries, name)
    # no loop passes its own variable, one point, to tail_bound
    looped = []
    for node in ast.walk(parse("secular.py")):
        if isinstance(node, ast.For):
            targets = [node.target]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            targets = [gen.target for gen in node.generators]
        else:
            continue
        names = {name.id for target in targets for name in ast.walk(target)
                 if isinstance(name, ast.Name)}
        looped += [call for call in ast.walk(node)
                   if isinstance(call, ast.Call)
                   and getattr(call.func, "attr", None) == "tail_bound"
                   and names & {name.id for arg in call.args
                                for name in ast.walk(arg)
                                if isinstance(name, ast.Name)}]
    assert not looped


def test_clusters_are_one_table():
    # a cluster is a row of the basis's cluster table; the series keeps one
    # live mask over its rows, and no loop in the readers walks the table:
    # a loop that reads a column reads a window of its rows
    assert not hasattr(geometry.BasisSet, "clusters")
    fields = {f.name for f in dataclasses.fields(secular.SecularSeries)}
    assert not fields & {"inert_poles", "pole_sizes", "conditioning_warnings"}
    assert "live" in fields and not hasattr(secular, "WARN_TOL")
    columns = {"clusters", "cluster_starts", "cluster_sizes", "cluster_means",
               "cluster_sums", "live"}
    whole = []
    for module in ("secular.py", "spectrum.py", "enclosure.py"):
        for loop in ast.walk(parse(module)):
            if not isinstance(loop, (ast.For, ast.comprehension)):
                continue
            windowed = {id(node.value) for node in ast.walk(loop.iter)
                        if isinstance(node, ast.Subscript)
                        and isinstance(node.slice, ast.Slice)}
            whole += [(module, node.attr) for node in ast.walk(loop.iter)
                      if isinstance(node, ast.Attribute)
                      and node.attr in columns and id(node) not in windowed]
    assert whole == []


def test_one_source_per_value():
    # no boundary mass, boundary tolerance, output_dir key or figure1 sides
    # to set; the walk and the restarts read the domain from the basis, and
    # no record holds a value that another of its fields gives
    for cls in measures.MeasureSpec.__args__:
        assert "boundary_mass" not in {f.name for f in dataclasses.fields(cls)}
        assert list(inspect.signature(cls.restart).parameters) == [
            "self", "basis"]
    assert not hasattr(measures._Variant, "__post_init__")
    assert "boundary_tolerance" not in {
        f.name for f in dataclasses.fields(stochastic.WalkConfig)}
    strings = {node.value for node in ast.walk(parse("cli.py"))
               if isinstance(node, ast.Constant)
               and isinstance(node.value, str)}
    assert not strings & {"output_dir", "boundary_mass",
                          "boundary_tolerance", "--side-x", "--side-y"}
    assert list(inspect.signature(stochastic.simulate_occupation).parameters) \
        == ["config", "spec", "basis"]
    assert list(inspect.signature(enclosure.bound_first_eigenvalue)
                .parameters) == ["series", "cert"]
    for record, repeated in ((cli.Experiment, {"domain", "moments"}),
                             (measures.MeasureMoments, {"basis"}),
                             (secular.SecularSeries, {"cutoff"})):
        assert not {f.name for f in dataclasses.fields(record)} & repeated
    assert not {f.name for f in dataclasses.fields(
        measures.AdmissibilityCertificate)} & {"threshold_literal",
                                               "literal_passed"}


def names_numpy_random(node) -> bool:
    """Whether ``node`` imports numpy.random or reads ``np.random``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "random" and getattr(node.value, "id", None) \
            in ("np", "numpy")
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[:2] == ["numpy", "random"]
                   for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = (node.module or "").split(".")
        return module[:2] == ["numpy", "random"] or module == ["numpy"] and \
            any(alias.name == "random" for alias in node.names)
    return False


def test_one_home_for_the_truncated_model():
    # an eigenvector is a SpectralVector from resolvent, and spectrum only
    # assembles and classifies: it imports nothing from resolvent
    assert not hasattr(spectrum, "EigenFunction")
    assert not hasattr(spectrum, "_DEFECT_TOL")
    for name in python_files(SRC):
        with open(os.path.join(SRC, name)) as fh:
            assert "EigenFunction" not in fh.read(), name
    assert not [node for node in ast.walk(parse("spectrum.py"))
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and "resolvent" in ast.unparse(node)]
    # one distance to the Dirichlet spectrum: no abs, argmin or sorted
    # search over the eigenvalues outside BasisSet.spectral_distance, which
    # the resolvent guards and the enclosure field read
    for name in ("spectral_distance", "_ray_distance"):
        assert not hasattr(enclosure, name)
    scans = []
    for name in python_files(SRC):
        tree = parse(name)
        skip = {id(inner) for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and node.name == "spectral_distance"
                for inner in ast.walk(node)}
        scans += [(name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in skip
                  and getattr(node.func, "attr", getattr(node.func, "id", None))
                  in ("abs", "absolute", "argmin", "searchsorted")
                  and any(isinstance(inner, ast.Attribute)
                          and inner.attr == "eigenvalues"
                          for arg in node.args for inner in ast.walk(arg))]
    assert scans == []
    functions = {node.name: node
                 for module in ("resolvent.py", "enclosure.py")
                 for node in parse(module).body
                 if isinstance(node, ast.FunctionDef)}

    def called(function):
        return {getattr(node.func, "attr", getattr(node.func, "id", None))
                for node in ast.walk(functions[function])
                if isinstance(node, ast.Call)}

    for function in ("_require_regular", "eigenfunction_at",
                     "matryoshka_ratio"):
        assert "spectral_distance" in called(function), function
    # the three defect witnesses draw their probes in one seeded loop
    for function in ("resolvent_identity_defect", "adjoint_pairing_defect",
                     "selfadjointness_defect"):
        assert "_worst_probe" in called(function), function
        assert not [node for node in ast.walk(functions[function])
                    if isinstance(node, (ast.For, ast.While))], function
    # and they come from the package's splitmix64 streams: no module names
    # numpy.random, whose import costs about 6 MB of resident memory
    assert [node.lineno for node in ast.walk(ast.parse(
        "import numpy.random\nfrom numpy import random\n"
        "from numpy.random import default_rng\nnp.random.default_rng(7)\n"))
        if names_numpy_random(node)] == [1, 2, 3, 4]
    assert not [(name, node.lineno) for name in python_files(SRC)
                for node in ast.walk(parse(name)) if names_numpy_random(node)]
    assert resolvent.eigenfunction_at is jumpspectra.eigenfunction_at
