import ast
import sys
from pathlib import Path

import multisec

SRC = Path(multisec.__file__).resolve().parent


def test_src_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies: every absolute import names
    # a standard-library module or multisec itself, whatever else is installed
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 10
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.relative_to(SRC).as_posix(), name) for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names | {"multisec"}]
    assert foreign == []
