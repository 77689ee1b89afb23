import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path for folder in ("src", "scripts", "tests") for path in (ROOT / folder).rglob("*.py")
)


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by a top-level import that the module never reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_no_unused_top_level_imports():
    found = {}
    for path in MODULES:
        unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if unused:
            found[str(path.relative_to(ROOT))] = unused
    assert found == {}
