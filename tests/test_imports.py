import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Callable, Iterable

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path for folder in ("src", "scripts", "tests") for path in (ROOT / folder).rglob("*.py")
)


def _imported(nodes: Iterable[ast.AST]) -> dict[str, int]:
    """Each name that an import among ``nodes`` binds, with the import's line."""
    bound = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _read_names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by a top-level import that the module never reads."""
    bound = _imported(tree.body)
    used = _read_names(tree)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def _found_in_modules(check: Callable[[ast.Module], list[str]]) -> dict[str, list[str]]:
    """What ``check`` reports for each module that it reports anything for."""
    found = {}
    for path in MODULES:
        unused = check(ast.parse(path.read_text(encoding="utf-8")))
        if unused:
            found[str(path.relative_to(ROOT))] = unused
    return found


def test_no_unused_top_level_imports():
    assert _found_in_modules(_unused_imports) == {}


def _unused_function_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import inside a function that the function never reads."""
    return [
        f"{name} (line {line})"
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for name, line in _imported(ast.walk(fn)).items() if name not in _read_names(fn)
    ]


def test_no_unused_function_imports():
    # a lazy import, such as the CLI's pool, is read by the function that makes it
    assert _found_in_modules(_unused_function_imports) == {}
    assert _unused_function_imports(ast.parse("def f():\n    import os\n")) == ["os (line 2)"]


def test_library_imports_only_the_standard_library():
    # networkx, numpy, scipy and hypothesis stay test-only: every import in
    # src/ and scripts/, nested ones included, is the standard library or domiperf
    found = set()
    for path in MODULES:
        if path.is_relative_to(ROOT / "tests"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    assert {"domiperf", "argparse"} <= found
    assert found - sys.stdlib_module_names - {"domiperf"} == set()


def test_no_private_names_imported_across_modules():
    # a domiperf module's _-prefixed names are its own: src/ and scripts/
    # import only public names from the package
    found = set()
    for path in MODULES:
        if path.is_relative_to(ROOT / "tests"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("domiperf"):
                found.update(f"{path.name}: {node.module}.{alias.name}"
                             for alias in node.names if alias.name.startswith("_"))
    assert found == set()


EXIT_CODES = {"EXIT_OK", "EXIT_NEGATIVE", "EXIT_USAGE"}


def _exit_code_reads(tree: ast.AST) -> list[ast.AST]:
    """Nodes that read one of the CLI's exit codes, by name or as an attribute."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in EXIT_CODES
        or isinstance(node, ast.Attribute) and node.attr in EXIT_CODES
    ]


def test_exit_codes_are_read_only_in_cli_main():
    # the commands return records; cli.main alone turns them into an exit code
    cli = ROOT / "src" / "domiperf" / "cli.py"
    in_main, found = set(), []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path == cli:
            main = next(fn for fn in tree.body if getattr(fn, "name", None) == "main")
            in_main = set(_exit_code_reads(main))
        found += [f"{path.relative_to(ROOT)}: line {node.lineno}"
                  for node in _exit_code_reads(tree) if node not in in_main]
    assert in_main and found == []
    assert len(_exit_code_reads(ast.parse("def f():\n    return cli.EXIT_OK, EXIT_USAGE\n"))) == 2


# Traced names the package no longer defines: a traced run records no spans
# for them, and the per-layer metrics built from those spans read 0.
TRACED_BUT_GONE = {
    "domiperf.invariants.max_independent_with",
    "domiperf.formats.emit_edge_list",
    "domiperf.formats.emit_dot",
    "domiperf.enumeration.verify_theorem",
    "domiperf.enumeration.verify_chain",
    "domiperf.enumeration.verify_corollaries",
}


def test_benchmark_traced_names_resolve():
    # read perfbench's TRACED table as data; each name must still be defined
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    traced = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    )
    gone = set()
    for module, names in traced.items():
        mod = importlib.import_module(module)
        for name in names:
            # "Class.method" is looked up in the class's own namespace
            cls_name, _, attr = name.rpartition(".")
            scope = vars(getattr(mod, cls_name)) if cls_name else vars(mod)
            if not callable(scope.get(attr)):
                gone.add(f"{module}.{name}")
    assert gone == TRACED_BUT_GONE


def _resolves(name: str) -> bool:
    module, _, attr = name.removeprefix("domiperf.").partition(".")
    try:
        mod = importlib.import_module(f"domiperf.{module}")
    except ModuleNotFoundError:
        return False
    return not attr or hasattr(mod, attr)


def test_readme_names_resolve():
    # every backticked `module.NAME` or `domiperf.module` in the README is
    # defined by the package, so a removed name cannot stay documented
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    dotted = [t for t in re.findall(r"`([^`\n]+)`", text) if re.fullmatch(r"[a-z_]+(\.\w+)+", t)]
    assert dotted and [name for name in dotted if not _resolves(name)] == []


def test_brute_oracles_stay_naive():
    # the brute_* oracles check the solvers, so they may use no solver code:
    # only the two mask predicates that define domination and independence
    tree = ast.parse((ROOT / "src" / "domiperf" / "invariants.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    allowed = {"_is_dominating_mask", "_is_independent_mask"}
    found = {
        (fn.name, node.id)
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("brute_")
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and node.id in defined - allowed
    }
    assert found == set()


def test_single_process_commands_load_no_pool_modules():
    # the pool's modules load only when a command starts a pool: importing the
    # CLI and the sweeps must not pay for concurrent.futures and multiprocessing
    code = ("import sys, domiperf.cli, domiperf.enumeration; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules))")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    assert out.strip() == "[]"


def test_imports_compile_no_search_kernel():
    # pattern-search kernels are compiled on first use, never at import, so
    # importing the CLI and the sweeps adds no set-up time
    code = ("import domiperf.cli, domiperf.enumeration; from domiperf import patterns; "
            "print(patterns._kernel.cache_info().currsize)")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    assert out.strip() == "0"
