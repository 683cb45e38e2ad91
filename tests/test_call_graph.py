"""Who calls what, counted with `ast` over the package.

`permutation.branch_table` has one caller, `permutation._batch_branches`,
and that has two: `permutation._branches`, a batch of one input, which
the engines' `run`s call, and `recurrence_sweep`, a batch of grid points.
Both engines and the sweep read their branches off the same table, and
nothing else in the package builds one.  `verify_equivalence` names the
permutation engine's branches by syndrome with the step `stabilizer.run`
takes (`name_by_syndrome`), so it builds no second table.  Each CLI
option is declared once: `cli.build_parser` is the one caller of
`add_argument`.  Output is rendered by one module, `render`, which reads no
other module of the package, through one entry, `render.render`, which
only `cli._emit` calls.  A value printed on its own goes through one
formatter, `render._values`, and no `json.dumps` call passes `indent`.  A
block's floats are turned into token words in one function,
`render._tokens`, the one caller of `_decimal`, and the digit tables are
built in one, `render._tables`.  The dense oracle contracts with matrix
products: nothing in the package calls `np.einsum`, and nothing forms the
whole density matrix (`oracle.density_matrix` is the tests' reference).  A
generator protocol is the permutation protocol (A, b) it names, so `cli`
hands each command's protocol to its engine as it is, with no
translation, and no module reads a `relabeling` attribute.  The engines declare their branch columns in
print order, and `cli` names none of their statistics.  The symplecticity
check each protocol gets, and the completion of a generator protocol's
frame, work on Python ints: neither reads numpy.  The `--output` name is
built in one place: only `cli._output_path` names BELLDISTILL_OUTDIR.  The
oracle-check suites relabel the oracle's input with code of their own:
`crosscheck` calls neither `permute` nor the engines' `affine_images`.
"""

import ast
from collections import defaultdict
from pathlib import Path

import belldistill


def callers(source: str, module: str) -> dict[str, set[str]]:
    """Name called (a plain name or an attribute) -> the functions whose
    bodies call it, as module.function or module.Class.method."""
    found = defaultdict(set)

    def visit(node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is not None:
                    found[name].add(".".join([module, *scope]))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_counting_rules():
    source = """
import m
f()
def g():
    m.f(h())
    def inner():
        return f
class C:
    def run(self):
        return self.f()
"""
    assert callers(source, "mod") == {"f": {"mod", "mod.g", "mod.C.run"},
                                      "h": {"mod.g"}}


def package_callers() -> dict[str, set[str]]:
    """`callers` over every module of the package."""
    found = defaultdict(set)
    for path in Path(belldistill.__file__).parent.glob("*.py"):
        for name, where in callers(path.read_text(), path.stem).items():
            found[name] |= where
    return found


def test_the_engines_are_the_branch_tables_only_front_ends():
    found = package_callers()
    assert found["branch_table"] == {"permutation._batch_branches"}
    assert found["_batch_branches"] == {"permutation._branches",
                                        "permutation.recurrence_sweep"}
    assert found["_branches"] == {"permutation.run", "stabilizer.run"}
    assert found["name_by_syndrome"] == {"stabilizer.run",
                                         "equivalence.verify_equivalence"}


def test_options_are_added_to_the_parser_in_one_place():
    package = Path(belldistill.__file__).parent
    found = set().union(*(callers(path.read_text(), path.stem)["add_argument"]
                          for path in package.glob("*.py")))
    assert found == {"cli.build_parser"}


def test_floats_become_tokens_in_one_function():
    found = package_callers()
    assert found["_decimal"] == {"render._tokens"}
    assert found["_digits"] == {"render._tables"}


def test_the_renderer_is_one_module_behind_one_entry():
    tree = ast.parse((Path(belldistill.__file__).parent / "render.py").read_text())
    names = ["." * node.level + (node.module or "") for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)]
    names += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
              for alias in node.names]
    assert [name for name in names if name.startswith((".", "belldistill"))] == []
    found = package_callers()
    assert found["render"] == {"cli._emit"}
    # one value formatter: a float printed on its own goes through it or
    # through the block path's token builder
    assert found["_float_token"] == {"render._values", "render._tokens"}


def test_no_json_dumps_call_lays_out_with_an_indent():
    # `indent=` sends json.dumps to its pure-Python encoder
    for path in Path(belldistill.__file__).parent.glob("*.py"):
        calls = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "dumps"
                 and any(keyword.arg == "indent" for keyword in node.keywords)]
        assert calls == [], path.name


def test_the_package_makes_no_einsum_call():
    assert "einsum" not in package_callers()


def test_no_module_forms_the_whole_density_matrix():
    assert "density_matrix" not in package_callers()


def test_the_cli_hands_protocols_over_as_they_are():
    path = Path(belldistill.__file__).parent / "cli.py"
    found = callers(path.read_text(), "cli")
    assert "permutation_from_stabilizer" not in found
    assert "stabilizer_from_permutation" not in found


def test_no_module_reads_a_relabeling_attribute():
    for path in Path(belldistill.__file__).parent.glob("*.py"):
        reads = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and node.attr == "relabeling"]
        assert reads == [], path.name


def test_the_cli_names_no_engine_statistic():
    path = Path(belldistill.__file__).parent / "cli.py"
    names = {"prob", "fidelity", "unnormalized_fidelity", "correction", "v", "u"}
    found = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and node.value in names]
    assert found == []


def test_the_protocol_checks_read_no_numpy():
    tree = ast.parse((Path(belldistill.__file__).parent / "gf2.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("is_symplectic", "_frame_columns"):
        reads = [node.lineno for node in ast.walk(functions[name])
                 if isinstance(node, ast.Name) and node.id == "np"]
        assert reads == [], name


def test_only_the_output_path_names_the_output_directory():
    found = set()

    def visit(node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Constant) and child.value == "BELLDISTILL_OUTDIR":
                found.add(".".join(scope))
            visit(child, scope)

    for path in Path(belldistill.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), [path.stem])
    assert found == {"cli._output_path"}


def test_the_oracle_checks_relabel_with_code_of_their_own():
    path = Path(belldistill.__file__).parent / "crosscheck.py"
    found = callers(path.read_text(), "crosscheck")
    assert "permute" not in found
    assert "affine_images" not in found
