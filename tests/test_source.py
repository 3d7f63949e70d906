"""Checks on the library's source text."""

import ast
from pathlib import Path

import crystalpaths

SRC = Path(crystalpaths.__file__).parent


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a check the library relies on
    # must raise explicitly
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_library_imports_only_what_it_uses():
    # __init__.py imports to re-export; every other module uses what it
    # imports by name
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        imported = {(alias.asname or alias.name).split(".")[0]: node.lineno
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []


def test_no_function_takes_a_table_and_no_module_holds_a_context_variable():
    # each extremality check walks its S-words afresh: no function takes a
    # table of steps, no module imports contextvars to keep one in scope,
    # and no function rebinds a module's name (a global statement), so no
    # state is switched on for a while and off again
    params, holders = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params += [f"{path.name}:{node.lineno}"
                           for arg in a.posonlyargs + a.args + a.kwonlyargs
                           if arg.arg == "table"]
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and "contextvars" in (
                    [getattr(node, "module", None)] + [alias.name for alias in node.names]):
                holders.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Global):
                holders.append(f"{path.name}:{node.lineno} global")
    assert params == [] and holders == []


def test_the_tensor_word_oracle_shares_no_code_with_the_paths():
    # elementary is the oracle the path operators are checked against
    tree = ast.parse((SRC / "elementary.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    assert imported.isdisjoint({"halfpath", "seqreal", "levelpath", "star"})


def test_the_library_defines_only_the_engine_element_types():
    # the generic crystals (tensor products, duals, the elementary crystals)
    # are test references and live in tests/crystals.py
    bases = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {getattr(b, "id", getattr(b, "attr", None))
                                    for b in node.bases}
    elements = {"CrystalElement"}
    grown = True
    while grown:
        found = {name for name, of in bases.items() if of & elements}
        grown = not found <= elements
        elements |= found
    assert elements - {"CrystalElement"} == {"HalfPath", "SeqElement", "ModElement"}


def test_ends_is_the_one_statistics_method():
    # eps and phi are the two halves of ends, defined once on
    # CrystalElement, and every element type with a power defines its own
    # ends: no type reads its statistics twice or another way than ends
    eps_phi, missing = [], []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                methods = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
                if methods & {"eps", "phi"} and node.name != "CrystalElement":
                    eps_phi.append(f"{path.name}:{node.name}")
                if "power" in methods and "ends" not in methods:
                    missing.append(f"{path.name}:{node.name}")
    assert eps_phi == [] and missing == []


def test_the_tensor_rule_numbers_stay_in_levelpath():
    # ModElement's four numbers (_stats), the string on them (_power) and
    # the statistics read off them (_ends) are named in levelpath alone;
    # every other module reads ends and power
    named = []
    private = {"_stats", "_power", "_ends"}
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "levelpath.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            # a use, an attribute, a definition or an imported name
            names = {getattr(node, field, None) for field in ("id", "attr", "name", "asname")}
            named += [f"{path.name}:{node.lineno} {name}" for name in names & private]
    assert named == []
