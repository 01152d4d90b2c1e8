"""Where the verify rows live: cli parses and prints, and verify holds the
rows and calls the package through its modules, so a tracer that rebinds
a module's names sees every call the rows make."""

import ast
from pathlib import Path

import sl2flip


def imports_from(filename: str) -> list[tuple[str, str]]:
    """(module, name) for each name a `from module import` of the package
    file binds, function-local imports included."""
    tree = ast.parse((Path(sl2flip.__file__).parent / filename).read_text())
    return [
        ("." * node.level + (node.module or ""), alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


class TestLayering:
    def test_cli_imports_no_row_machinery(self):
        found = [
            (module, name)
            for module, name in imports_from("cli.py")
            if module in (".semigroup", ".toricgeom") or name.startswith("_")
        ]
        assert found == []

    def test_verify_binds_no_package_function(self):
        # lattice's exception and _require only: det2 and every library
        # function are called as module attributes
        found = [
            (module, name)
            for module, name in imports_from("verify.py")
            if module in (".sl2core", ".git", ".semigroup", ".toricgeom")
            or module == ".lattice" and name not in ("CrossCheckError", "_require")
        ]
        assert found == []
