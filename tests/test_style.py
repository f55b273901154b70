"""Style rules of src/, tools/ and tests/: lines of at most 99 columns, no ``;`` statements."""

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
