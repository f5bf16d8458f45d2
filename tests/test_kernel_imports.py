"""The kernel's module stands apart from the elaborator and the output
formats: `tt0.core` and the tt0 modules it imports import nothing above
them (ROADMAP item 11, acceptance criterion 1).  It also stays below the
size at which compiling it costs more memory."""

from __future__ import annotations

import ast
import io
import tokenize

from conftest import REPO

SRC = REPO / "src" / "tt0"

# The modules above the kernel: the front end, the elaborator, the
# translations, extraction, the driver and the JSON format.
ABOVE_THE_KERNEL = {"surface", "elab", "unify", "translate", "extract", "cli", "jsontext"}


def runtime_imports(module: str) -> tuple[set[str], set[str]]:
    """(tt0 modules, top-level names of other modules) that a tt0 module
    imports when it runs; imports under `if TYPE_CHECKING:` are left out."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    type_only = {
        id(node)
        for block in ast.walk(tree)
        if isinstance(block, ast.If) and ast.unparse(block.test) == "TYPE_CHECKING"
        for stmt in block.body
        for node in ast.walk(stmt)
    }
    local: set[str] = set()
    other: set[str] = set()
    for node in ast.walk(tree):
        if id(node) in type_only:
            continue
        if isinstance(node, ast.Import):
            other |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            other.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            local |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            local.add(node.module.split(".")[0])
    return local, other


def kernel_closure() -> dict[str, set[str]]:
    """Each tt0 module that `tt0.core` reaches by run-time imports, with the
    other modules it imports."""
    reached: dict[str, set[str]] = {}
    todo = ["core"]
    while todo:
        module = todo.pop()
        if module not in reached:
            local, reached[module] = runtime_imports(module)
            todo += local
    return reached


def test_the_kernel_imports_nothing_above_it():
    reached = kernel_closure()
    assert {"core", "diagnostics", "record"} <= reached.keys()
    assert not reached.keys() & ABOVE_THE_KERNEL


def test_the_kernel_imports_no_json_module():
    assert not {module for module, other in kernel_closure().items() if "json" in other}


# CPython's parser doubles its token array past this many tokens, and
# compiling the module then peaks about 0.5 MB higher.
COMPILE_STEP_TOKENS = 8192


def parser_tokens(module: str) -> int:
    """The tokens of a tt0 module the parser reads: all but comments, the
    newlines that end no statement, and the encoding marker."""
    text = (SRC / f"{module}.py").read_text(encoding="utf-8")
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    return sum(1 for tok in tokens if tok.type not in skipped)


def test_the_kernel_module_compiles_below_the_token_step():
    assert parser_tokens("core") < COMPILE_STEP_TOKENS
