"""The package's public names: __all__ against what __init__ imports."""

import ast
import inspect

import scatter1d


def _imported_public_names():
    tree = ast.parse(inspect.getsource(scatter1d))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_every_exported_name_resolves():
    missing = [name for name in scatter1d.__all__ if not hasattr(scatter1d, name)]
    assert missing == []


def test_all_lists_each_imported_public_name_once():
    assert len(scatter1d.__all__) == len(set(scatter1d.__all__))
    assert set(scatter1d.__all__) == _imported_public_names()
