"""List the `raise` statements of the predspec package that a test run never executes.

Runs pytest in this process under the stdlib `trace` module and keeps the
line counts of the files under src/predspec.  Nothing is ignored by module:
`trace.Ignore` caches its verdict by bare module name, so ignoring
site-packages would also hide `predspec/core.py` behind `hypothesis/core.py`.
Tracing every line makes the run several times slower than plain pytest.

Prints each unreached `raise` as path:line and exits 1 if there is any;
otherwise it exits with pytest's own status.

Usage: python tools/raise_reach.py [pytest args...]   (default: -q tests)
"""
from __future__ import annotations

import ast
import sys
import trace
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "predspec"


def raise_lines(source: str) -> list:
    """The line of each `raise` statement in one module's source, in order."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise))


def unreached(counts: dict, package: Path) -> list:
    """(path, line) of each `raise` in the package's modules that `counts`,
    a `trace` count table keyed by (filename, line), never saw run."""
    ran = {(Path(filename).resolve(), line) for filename, line in counts}
    return [
        (path, line)
        for path in sorted(package.resolve().glob("*.py"))
        for line in raise_lines(path.read_text())
        if (path, line) not in ran
    ]


def main(argv: list) -> int:
    import pytest

    sys.path.insert(0, str(_ROOT / "src"))
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[])
    status = tracer.runfunc(pytest.main, argv[1:] or ["-q", str(_ROOT / "tests")])
    missing = unreached(tracer.results().counts, _PACKAGE)
    for path, line in missing:
        print(f"{path.relative_to(_ROOT.resolve())}:{line}")
    print(f"{len(missing)} raise statement(s) never ran")
    return 1 if missing else int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
