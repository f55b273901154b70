"""Style rules of src/, tools/ and tests/: lines of at most 99 columns, no ``;`` statements,
no unused imports; the generator's state, next_uint64 and randint calls only in numerics.py;
hashlib imported by the package only inside a function; and no package module importing
another's ``_``-prefixed name."""

import ast
import io
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = [path for folder in ("src/margindistill", "tools", "tests")
           for path in sorted((ROOT / folder).glob("*.py"))]


def test_sources_are_found():
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_lines_fit_in_99_columns(path):
    long = [n for n, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 99]
    assert not long, f"{path.name}: lines longer than 99 columns: {long}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_semicolon_statements(path):
    # tokens, so a ';' inside a string or a comment does not count
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    rows = [tok.start[0] for tok in tokens if tok.type == tokenize.OP and tok.string == ";"]
    assert not rows, f"{path.name}: ';' on lines {rows}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    # a package's __init__ imports only to re-export; elsewhere a deliberate
    # re-export says so with ``# noqa: F401`` on the imported name's line
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imports = [(alias.lineno, alias.asname or alias.name.split(".")[0])
              for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
              and getattr(node, "module", None) != "__future__" for alias in node.names]
    unused = [(n, name) for n, name in imports
              if name not in read and "# noqa: F401" not in lines[n - 1]]
    assert not unused, f"{path.name}: unused imports (line, name): {unused}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.parent.name == "margindistill"
                                  and p.name != "numerics.py"], ids=lambda p: p.name)
def test_generator_state_stays_in_numerics(path):
    # Rng's state is read and written only where the draws are; elsewhere draws go
    # through Rng's methods.  An attribute, or a name for getattr.
    rows = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "_s"
            or isinstance(node, ast.Constant) and node.value == "_s"]
    assert not rows, f"{path.name}: generator state _s on lines {rows}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.parent.name == "margindistill"
                                  and p.name != "numerics.py"], ids=lambda p: p.name)
def test_raw_words_stay_in_numerics(path):
    # every draw takes a fixed number of words, so other modules draw a loop's words
    # with one bulk call and decode them as arrays: no next_uint64 and no .randint(
    # call, one word at a time.  An attribute, or a name for getattr.
    rows = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "next_uint64"
            or isinstance(node, ast.Constant) and node.value == "next_uint64"
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "randint"]
    assert not rows, f"{path.name}: next_uint64 or randint calls on lines {rows}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.parent.name == "margindistill"],
                         ids=lambda p: p.name)
def test_hashlib_is_imported_only_inside_a_function(path):
    # hashlib maps OpenSSL, so importing the package must not import it: a digest
    # imports it on first use (data.sha256).  Module level includes class bodies
    # and if/try blocks, everything outside a def.
    def module_level(node):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child
                yield from module_level(child)

    rows = [node.lineno for node in module_level(ast.parse(path.read_text()))
            if isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] in ("hashlib", "_hashlib") for alias in node.names)
            or isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").split(".")[0] in ("hashlib", "_hashlib")]
    assert not rows, f"{path.name}: hashlib imported at module level on lines {rows}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.parent.name == "margindistill"],
                         ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_name(path):
    # what two modules share is public in the module that owns it, so one rule has
    # one implementation that both use.  Dunders such as __version__ are not private.
    rows = [(node.lineno, alias.name) for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "margindistill")
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert not rows, f"{path.name}: private names of other modules imported: {rows}"
