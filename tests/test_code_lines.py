"""The source-line counter, ``tools/code_lines.py``.

Core claim: a line counts when it holds a token, less comments, blank lines
and docstrings; a string that is not a docstring counts on every line it
spans. Each file's count and the total print as the usage line says.
"""

import subprocess
import sys
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""A module docstring
over two lines."""

# a comment line


def f(x):
    """A function docstring."""
    text = """a string
    over three
    lines"""
    return text, x  # a comment after code
'''


def test_code_lines_counts_tokens_less_comments_blanks_and_docstrings(tmp_path):
    spec = spec_from_file_location("code_lines", SCRIPT)
    code_lines = module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # def f(x), the string's three lines and the return line
    assert code_lines.code_lines(str(path)) == 5
    out = subprocess.run([sys.executable, str(SCRIPT), str(path)], capture_output=True, text=True, check=True).stdout
    assert out == f"     5  {path}\n     5  total\n"
