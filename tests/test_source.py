"""Guards over the package source, read with ``ast``: no module keeps an import it
never uses, no private module-level name goes unused package-wide, the radial rule
of the moments keeps its one home, a raster keeps its one route to them through the
one projection, ``Featurizer._moments``, whose moments only ``invariants`` takes
moduli of, a table number has one format, the stacking of classifier fits stays
inside the classifier, the integer rule has one home, the synthetic images have one
span renderer, one function reads files, a PGM is parsed without a byte loop or a
copy, one function forks, two end a process, one finds distinct labels, one draws
noise, one draws the sweep's splits, the radial basis is interpolated and a bilinear
plan built without a loop, and polar blocks travel with their rows. ``code_lines``
is the one count of the package's code lines, and a record test pins the total."""

import ast
import io
import tokenize
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
    # imaging._plans makes every bilinear plan, and Featurizer._moments alone projects
    # polar samples: compute_moments, moments._raster_moments and a Featurizer's call
    # reach it, and only a Featurizer's call takes invariants of what it returns;
    # moments compute streams a raster through moments._raster_moments, never
    # through an R x T array
    assert _loading_scopes(TREES["imaging.py"], ("_bilinear_plan",)) == {
        "_bilinear_plan": {"_plans"},
    }
    assert _homes(lambda node: isinstance(node, ast.Call)
                  and ast.unparse(node.func) == "np.fft.fft") == {
        "moments.py": {"Featurizer._moments"},
    }
    assert _named_scopes("_moments") == {
        "moments.py": {"compute_moments", "_raster_moments", "Featurizer.__call__"},
    }
    assert "Featurizer.__call__" in _named_scopes("invariants").get("moments.py", set())
    assert {"to_polar", "compute_moments"} & _references(TREES["cli.py"]) == set()


def test_a_table_number_has_one_format():
    # moments._csv alone writes a number as table text, as repr(float(cell)), for
    # invariants_to_csv and the stability and classification reports alike; the one
    # f-string format spec in the package pads a synthetic image's file name
    def formatted(node):
        return isinstance(node, ast.FormattedValue) and node.format_spec is not None

    assert _homes(lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "repr") == {"moments.py": {"_csv"}}
    assert _homes(formatted) == {"harness.py": {"_synthetic_spans.names"}}
    assert [ast.unparse(node) for tree in TREES.values() for node in ast.walk(tree)
            if formatted(node)] == ["{item:03d}"]


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


def test_a_pgm_is_parsed_without_a_byte_loop_or_a_copy():
    # a header token is one match of imaging._TOKEN, and the payload is viewed where
    # it lies, so _next_token holds no loop and neither it nor read_pgm slices bytes
    tree = TREES["imaging.py"]
    loops = _scopes(tree, lambda node: isinstance(node, (ast.For, ast.While)))
    slices = _scopes(tree, lambda node: isinstance(node, ast.Slice))
    assert "_next_token" not in loops
    assert not slices & {"_next_token", "read_pgm"}


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


def _homes(match) -> dict[str, set[str]]:
    """For each module whose code holds a node that ``match`` accepts, the scopes of
    ``_scopes`` that do."""
    homes = {module: _scopes(tree, match) for module, tree in TREES.items()}
    return {module: scopes for module, scopes in homes.items() if scopes}


def _attribute_scopes(attr: str) -> dict[str, set[str]]:
    """For each module that names ``<name>.attr``, the scopes of ``_scopes`` that do."""
    return _homes(lambda node: isinstance(node, ast.Attribute) and node.attr == attr)


def _named_scopes(name: str) -> dict[str, set[str]]:
    """For each module that loads ``name`` or names ``<obj>.name``, the scopes of
    ``_scopes`` that do."""
    return _homes(lambda node: (isinstance(node, ast.Name) and node.id == name
                                and not isinstance(node.ctx, ast.Store))
                  or (isinstance(node, ast.Attribute) and node.attr == name))


def test_two_functions_end_a_process():
    # a forked worker leaves through os._exit, and so does a CLI process once main
    # has flushed its streams; no other code skips the interpreter's exit
    assert _attribute_scopes("_exit") == {"cli.py": {"main"}, "harness.py": {"_fork_rows"}}


def test_one_function_finds_distinct_labels():
    # np.unique's default path imports numpy.ma; classifier._distinct takes the path
    # that does not, for the classifier and the harness alike
    assert _attribute_scopes("unique") == {"classifier.py": {"_distinct"}}


def test_one_function_draws_noise():
    # imaging._noisy alone draws Gaussian noise, for add_gaussian_noise and the
    # synthetic images alike, so both follow one noise model
    assert _attribute_scopes("normal") == {"imaging.py": {"_noisy"}}


def test_one_function_draws_the_splits():
    # harness._stratified_split alone shuffles items, so every sweep, of synthetic
    # or --data-dir images, splits them by the one per-class rule
    assert _attribute_scopes("permutation") == {"harness.py": {"_stratified_split"}}


def test_the_radial_basis_is_interpolated_without_a_loop():
    # _catmull_rom interpolates all K sequences at once, so neither it nor
    # radial_basis walks the sequences in Python; _bilinear_plan likewise spells
    # out its four corner weights as whole-block products
    def loop(node):
        return isinstance(node, (ast.For, ast.While, ast.comprehension))
    guarded = {"dpss.py": {"radial_basis", "_catmull_rom"}, "imaging.py": {"_bilinear_plan"}}
    found = {module: _scopes(TREES[module], loop) & names for module, names in guarded.items()}
    assert found == {module: set() for module in guarded}


def test_blocks_travel_with_their_rows():
    # imaging._plans and _samples hand over every block with its rows, so moments
    # cuts blocks only from the samples a caller passes to compute_moments, and a
    # plan is applied without functools.partial
    assert _loading_scopes(TREES["moments.py"], ("_blocks",)) == {"_blocks": {"compute_moments"}}
    tree = TREES["imaging.py"]
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "functools" not in modules


# tokens that hold no code: layout, comments and the file's end
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def code_lines(path) -> int:
    """The number of lines of the Python file at ``path`` that hold a token other than
    a comment, a newline, indentation or a docstring: blank lines, comment lines and
    docstrings count for nothing, and a statement counts every line it spans."""
    text = Path(path).read_text()
    docstrings = {line for node in ast.walk(ast.parse(text))
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None
                  for line in range(node.body[0].lineno, node.body[0].end_lineno + 1)}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start[0] in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def test_code_lines_counts_only_code(tmp_path):
    path = tmp_path / "m.py"
    path.write_text('''"""Module docstring,
on two lines."""

# a comment
def f(x):
    """Docstring."""
    text = """a string
that is code"""
    return (x +  # a trailing comment
            1)
''')
    assert code_lines(path) == 5


def test_the_package_code_line_count_is_recorded():
    # a record of the src/ total; a change that moves it says so, with the delta
    total = sum(map(code_lines, SOURCES))
    assert total == 1489, (
        f"src/ now holds {total} code lines, not 1489: give the delta in CHANGES.md "
        f"and pin {total} here")
