"""The dense-operator route lives in ``fibanyon.oracle`` and nowhere else, and
every public name, of each module and of the package, has a product caller."""

import ast
from pathlib import Path

import pytest

import fibanyon

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fibanyon"

#: Modules that hold only closed forms on grouped Schmidt data, and the CLI on top of them.
CLOSED_FORM_MODULES = ("states", "measures", "multicopy", "bell", "cli")

#: The block format: read or bound nowhere but in ``oracle``.
FORMAT_NAMES = {"GradedDensityOperator", "VACUUM_BLOCK", "KIND_SUBSYSTEM", "KIND_PRODUCT",
                "KIND_JOINT"}


def _tree(module):
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _defined_by(node):
    """Names one top-level statement defines: a function, a class or assignment targets."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def _defined_names(tree):
    """Names a module defines at top level: functions, classes and assignments."""
    return set().union(*map(_defined_by, tree.body))


def _bound_names(tree):
    """Every name a module binds anywhere: definitions, assignments, imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _imported_modules(tree):
    """Dotted names of every module an import statement names, relative ones included."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            modules.add(base)
            modules.update(f"{base}.{alias.name}".lstrip(".") for alias in node.names)
    return modules


def _reads(tree, module):
    """Names a tree reads from ``module`` or from the package namespace: imported
    from either, or read as ``<module>.<name>`` or ``<package alias>.<name>``."""
    owners = {module} | {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "fibanyon"
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in {
            module,
            "fibanyon",
        }:
            names.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in owners
        ):
            names.add(node.attr)
    return names


def _read_elsewhere(module):
    """Names read from ``module`` by another ``src`` module or by a demo.  The
    package ``__init__``, which re-exports names, is no caller."""
    readers = [_tree(p.stem) for p in SRC.glob("*.py") if p.stem not in (module, "__init__")]
    readers += [ast.parse(p.read_text(encoding="utf-8")) for p in (ROOT / "demos").glob("*.py")]
    return set().union(*(_reads(tree, module) for tree in readers))


def _referenced_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


DENSE_NAMES = _defined_names(_tree("oracle"))


def test_oracle_defines_the_dense_route():
    assert FORMAT_NAMES <= DENSE_NAMES
    assert {"Observable", "relative_entropy", "certificate_gap", "witness"} <= DENSE_NAMES


@pytest.mark.parametrize("module", CLOSED_FORM_MODULES)
def test_closed_form_module_stays_off_the_dense_route(module):
    tree = _tree(module)
    assert not any("oracle" in name.split(".") for name in _imported_modules(tree))
    assert not _bound_names(tree) & DENSE_NAMES


def test_oracle_reads_no_closed_form():
    """``oracle`` only computes numeric values; ``verify`` compares them with
    the closed forms, so ``oracle`` imports no closed-form or CLI module."""
    parts = {part for name in _imported_modules(_tree("oracle")) for part in name.split(".")}
    assert not parts & {"measures", "multicopy", "cli"}


def test_oracle_takes_no_closed_value():
    """No function of ``oracle`` takes a closed measure to compare with:
    the comparison belongs to ``verify``."""
    params = set()
    for node in ast.walk(_tree("oracle")):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            every = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            params.update(arg.arg for arg in every if arg is not None)
    assert not params & {"aee", "aree", "ace", "ce"}


@pytest.mark.parametrize(
    "module", sorted(p.stem for p in SRC.glob("*.py") if p.stem != "oracle")
)
def test_block_format_is_read_only_in_oracle(module):
    assert not _referenced_names(_tree(module)) & FORMAT_NAMES


@pytest.mark.parametrize(
    "module", sorted(p.stem for p in SRC.glob("*.py") if p.stem != "oracle")
)
def test_private_oracle_names_stay_in_oracle(module):
    private = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "oracle":
            private.update(alias.name for alias in node.names if alias.name.startswith("_"))
    assert not private


def _unread_public_names(module):
    """Public top-level names of a ``src`` module read neither by another ``src``
    module or a demo nor by the module itself outside their own definition."""
    read = _read_elsewhere(module)
    body = _tree(module).body
    used = [{n.id for n in ast.walk(node) if isinstance(n, ast.Name)} for node in body]
    unread = set()
    for i, node in enumerate(body):
        elsewhere = read.union(*used[:i], *used[i + 1 :])
        unread |= {n for n in _defined_by(node) if not n.startswith("_") and n not in elsewhere}
    return unread


def test_every_public_oracle_name_has_a_caller():
    """Each public top-level name of ``oracle`` is read by another ``src`` module,
    by a demo, or by ``oracle`` itself outside its own definition.  A name that
    only the tests read belongs with the tests."""
    assert not _unread_public_names("oracle")


@pytest.mark.parametrize(
    "module",
    sorted(p.stem for p in SRC.glob("*.py") if p.stem not in ("__init__", "__main__", "oracle")),
)
def test_every_public_name_has_a_caller(module):
    """The oracle's caller rule, for every other ``src`` module."""
    assert not _unread_public_names(module)


#: The module each name of ``fibanyon.__all__`` is imported from.
EXPORTED_FROM = {
    alias.name: node.module
    for node in _tree("__init__").body
    if isinstance(node, ast.ImportFrom)
    for alias in node.names
}


def test_every_exported_name_has_a_caller():
    """Each name of ``fibanyon.__all__`` is read by a ``src`` module other than
    the one that defines it, or by a demo."""
    assert set(fibanyon.__all__) <= EXPORTED_FROM.keys()
    unread = {n for n in fibanyon.__all__ if n not in _read_elsewhere(EXPORTED_FROM[n])}
    assert not unread
