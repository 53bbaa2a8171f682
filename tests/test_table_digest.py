"""The bit-identity digest in tools/table_digest.py."""
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "table_digest.py"
_SPEC = importlib.util.spec_from_file_location("table_digest", _PATH)
table_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(table_digest)


def test_digest_repeats_and_follows_the_seed():
    first = table_digest.digest(3, replications=20)
    assert len(first) == 64 and int(first, 16) >= 0
    assert table_digest.digest(3, replications=20) == first
    assert table_digest.digest(4, replications=20) != first


def test_digest_main_prints_one_digest(capsys):
    assert table_digest.main(["table_digest.py", "5", "10"]) == 0
    assert capsys.readouterr().out == table_digest.digest(5, replications=10) + "\n"
