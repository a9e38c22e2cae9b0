import ast
import inspect

import asrnoise


def _imported_names() -> list[str]:
    """Names that ``asrnoise/__init__.py`` imports from its submodules."""
    tree = ast.parse(inspect.getsource(asrnoise))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_all_has_no_repeats():
    assert len(asrnoise.__all__) == len(set(asrnoise.__all__))


def test_every_entry_of_all_resolves():
    missing = [name for name in asrnoise.__all__ if not hasattr(asrnoise, name)]
    assert missing == []


def test_all_is_what_the_package_imports_from_its_submodules():
    imported = _imported_names()
    assert len(imported) == len(set(imported))
    assert set(asrnoise.__all__) == set(imported)
