"""The unreached-`raise` finder in tools/raise_reach.py."""
import importlib.util
import textwrap
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "raise_reach.py"
_SPEC = importlib.util.spec_from_file_location("raise_reach", _PATH)
raise_reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(raise_reach)

_SOURCE = textwrap.dedent('''\
    """A docstring that says raise is not a statement."""


    def f(x):
        if x < 0:
            raise ValueError(
                "negative"
            )
        try:
            return 1 / x
        except ZeroDivisionError:
            raise  # a bare re-raise counts too
    # raise in a comment does not
    text = "raise"
    ''')


def test_raise_lines_finds_statements_only():
    assert raise_reach.raise_lines(_SOURCE) == [6, 12]


def test_unreached_filters_counts_by_file_path(tmp_path):
    (tmp_path / "a.py").write_text(_SOURCE)
    (tmp_path / "b.py").write_text("raise SystemExit\n")
    other = tmp_path / "elsewhere"
    other.mkdir()
    (other / "a.py").write_text(_SOURCE)
    a = str(tmp_path / "a.py")
    counts = {(a, 6): 1, (a, 5): 3, (str(other / "a.py"), 12): 1, (str(tmp_path / "b.py"), 1): 1}
    # a file of the same name in another directory does not count
    assert raise_reach.unreached(counts, tmp_path) == [(tmp_path.resolve() / "a.py", 12)]
