"""Guards over the package source, read with ``ast``: no module keeps an import it
never uses, no private module-level name goes unused package-wide, the radial
rule of the moments keeps its one home, a raster keeps its one route to them,
the stacking of classifier fits stays inside the classifier, the integer rule
has one home, the synthetic images have one span renderer, one function reads
files, one forks, two end a process, and one finds distinct labels."""

import ast
from pathlib import Path

import pytest

import slepmoments

SOURCES = sorted(Path(slepmoments.__file__).parent.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def _bound_names(node):
    """The names a top-level import binds: ``a`` for ``import a.b``, else the alias."""
    for alias in node.names:
        yield alias.asname or alias.name.split(".")[0]


def _references(tree) -> set[str]:
    """Every name the tree loads, reads as an attribute or imports from a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _private_definitions(tree):
    """The private (one leading underscore, not dunder) functions, classes and
    constants a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.endswith("__"))


def _scopes(tree, match) -> set[str]:
    """The dotted scopes (``f``, ``Class.method``, or ``<module>``) whose own code
    holds a node that ``match`` accepts."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if match(child):
                found.add(scope or "<module>")
            visit(child, scope)

    visit(tree, "")
    return found


def _loading_scopes(tree, names) -> dict[str, set[str]]:
    """For each name, the scopes of ``_scopes`` whose own code loads it."""
    return {name: _scopes(tree, lambda node, name=name: isinstance(node, ast.Name)
                          and node.id == name and not isinstance(node.ctx, ast.Store))
            for name in names}


def test_the_guard_reads_every_module():
    assert {"harness.py", "moments.py", "imaging.py", "dpss.py", "cli.py"} <= TREES.keys()


@pytest.mark.parametrize("module", TREES)
def test_every_top_level_import_is_used(module):
    tree = TREES[module]
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    imported = {name for node in tree.body
                if isinstance(node, ast.Import)
                or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
                for name in _bound_names(node)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("module", TREES)
def test_every_private_module_level_name_is_referenced(module):
    referenced = set().union(*map(_references, TREES.values()))
    assert sorted(set(_private_definitions(TREES[module])) - referenced) == []


def test_the_radial_rule_has_one_home():
    # compute_moments, Featurizer and reconstruct take their order checks, psi and ring
    # weights from moments._radial; a MomentSet checks its own order range
    assert _loading_scopes(TREES["moments.py"], ("radial_basis", "_check_order_range")) == {
        "radial_basis": {"_radial"},
        "_check_order_range": {"_radial", "MomentSet.__post_init__"},
    }


def test_the_stacking_of_fits_has_one_home():
    # train_classifiers alone decides which fits share an epoch loop; the sweep's
    # span filler hands it every split of its span of repeats and knows no stack cap
    assert _loading_scopes(TREES["classifier.py"], ("_FITS_PER_CALL", "_fit_stack")) == {
        "_FITS_PER_CALL": {"train_classifiers"},
        "_fit_stack": {"train_classifiers"},
    }
    assert _loading_scopes(TREES["harness.py"], ("train_classifiers",)) == {
        "train_classifiers": {"classification_sweep.accuracies"},
    }
    assert "_FITS_PER_CALL" not in _references(TREES["harness.py"])


def test_a_raster_has_one_route_to_its_moments():
    # imaging._plans makes every bilinear plan, and only moments._moments and a
    # Featurizer project polar samples; moments compute streams a raster through
    # moments._raster_moments, never through an R x T array
    assert _loading_scopes(TREES["imaging.py"], ("_bilinear_plan",)) == {
        "_bilinear_plan": {"_plans"},
    }
    assert _loading_scopes(TREES["moments.py"], ("_project",)) == {
        "_project": {"_moments", "Featurizer.__call__"},
    }
    assert {"to_polar", "compute_moments"} & _references(TREES["cli.py"]) == set()


def test_the_integer_rule_has_one_home():
    # dpss._check_integer alone tells an integer from a bool or a non-integer, and
    # every size, count, order and seed takes its check and its int from it
    def numpy_integer(node):
        return (isinstance(node, ast.Attribute) and node.attr == "integer"
                and isinstance(node.value, ast.Name) and node.value.id == "np")
    homes = {module: _scopes(tree, numpy_integer) for module, tree in TREES.items()}
    assert {module: scopes for module, scopes in homes.items() if scopes} == {
        "dpss.py": {"_check_integer"},
    }
    assert not any("_check_seed" in _private_definitions(tree) for tree in TREES.values())


def test_the_synthetic_images_have_one_span_renderer():
    # harness._synthetic_spans alone numbers, names and renders a span of the
    # synthetic images, for the generator, the dataset and synth alike; its keys
    # take each image's place apart by divmod, never by slicing a product
    assert _loading_scopes(TREES["harness.py"], (
        "_synthetic_spans", "_shape_class_renderer", "keys", "divmod")) == {
        "_synthetic_spans": {"make_synthetic_dataset", "synthetic_images"},
        "_shape_class_renderer": {"_synthetic_spans.render"},
        "keys": {"_synthetic_spans.names", "_synthetic_spans.render"},
        "divmod": {"_synthetic_spans.keys"},
    }
    assert {"islice", "product"} & _references(TREES["harness.py"]) == set()
    assert _loading_scopes(TREES["cli.py"], ("_synthetic_spans", "synthetic_images")) == {
        "_synthetic_spans": {"_cmd_synth"},
        "synthetic_images": set(),
    }


def test_one_function_reads_files():
    # imaging._read_input alone opens a file to read it, so every image, basis and
    # moment file, the built-in basis too, is refused there unless it is a regular file
    def reads(node):
        return ((isinstance(node, ast.Attribute)
                 and node.attr in ("read_bytes", "read_text", "open"))
                or (isinstance(node, ast.Name) and node.id == "open"))
    homes = {module: _scopes(tree, reads) for module, tree in TREES.items()}
    assert {module: scopes for module, scopes in homes.items() if scopes} == {
        "imaging.py": {"_read_input"},
    }


def test_one_function_forks():
    # harness._fork_rows alone forks, kills and reaps; the rotation study, the
    # featurization and the sweep fill their rows through it
    def fork(node):
        return ((isinstance(node, ast.Attribute) and node.attr == "fork")
                or (isinstance(node, ast.Name) and node.id == "fork"))
    homes = {module: _scopes(tree, fork) for module, tree in TREES.items()}
    assert {module: scopes for module, scopes in homes.items() if scopes} == {
        "harness.py": {"_fork_rows"},
    }


def _attribute_scopes(attr: str) -> dict[str, set[str]]:
    """For each module that names ``<name>.attr``, the scopes of ``_scopes`` that do."""
    homes = {module: _scopes(tree, lambda node: isinstance(node, ast.Attribute)
                             and node.attr == attr)
             for module, tree in TREES.items()}
    return {module: scopes for module, scopes in homes.items() if scopes}


def test_two_functions_end_a_process():
    # a forked worker leaves through os._exit, and so does a CLI process once main
    # has flushed its streams; no other code skips the interpreter's exit
    assert _attribute_scopes("_exit") == {"cli.py": {"main"}, "harness.py": {"_fork_rows"}}


def test_one_function_finds_distinct_labels():
    # np.unique's default path imports numpy.ma; classifier._distinct takes the path
    # that does not, for the classifier and the harness alike
    assert _attribute_scopes("unique") == {"classifier.py": {"_distinct"}}
