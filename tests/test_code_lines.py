"""The code-line counter in tools/code_lines.py."""
import importlib.util
import textwrap
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


def test_code_lines_skips_blanks_comments_and_docstrings():
    source = textwrap.dedent('''\
        """Module docstring,
        over two lines."""
        import math  # a trailing comment keeps the line

        # a comment-only line


        class A:
            """Class docstring."""

            x = 1

            def f(self):
                """Function
                docstring."""
                text = """a multi-line
                string that is not a docstring"""
                return (math.pi,
                        text)
        ''')
    # import, class, x, def, the two-line string, the two-line return
    assert code_lines.code_lines(source) == 8


def test_code_lines_main_reports_each_module_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text('"""Doc."""\nx = 1\n\ny = 2\n')
    (tmp_path / "b.py").write_text("# only a comment\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    out = capsys.readouterr().out.split("\n")
    assert out[:3] == ["     2  a.py", "     0  b.py", "     2  total"]
