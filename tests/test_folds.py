"""No module of the package sums floats with the builtin ``sum``.

From Python 3.12 on, ``sum`` compensates the rounding of a float sum, so a
result that goes through it has other bits on other versions.  The
package's float sums are plain left folds from ``0.0`` instead, which give
the bits of 3.11's ``sum`` on every version.  The uses allowed below sum
integer counts, or serve the brute-force oracle (see ``ALLOWED``).
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "sgsolve").glob("*.py"))

# (module, enclosing function) -> the number of uses of ``sum`` allowed there.
ALLOWED = {
    # Integer counts in the solvers' stats.
    ("ce.py", "solve_ce"): 2,
    ("pe.py", "solve_pe"): 1,
    # The oracle keeps ``sum``: it is an independent reference whose
    # values the tests compare within a tolerance (or, for exact games, at
    # a value that either rounding gives), and no bit pin reads it; a
    # compensated sum can only bring it closer to the exact value.
    ("oracle.py", "_solve"): 2,
    ("oracle.py", "_meanpayoff_values"): 1,
}


def sum_uses(source: str, module: str) -> Counter:
    """(module, dotted enclosing function) -> how often ``sum`` is read
    there; a call and a reference such as ``map(sum, ...)`` both count."""
    uses: Counter = Counter()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Name) and child.id == "sum":
                uses[module, ".".join(scope)] += 1
            visit(child, scope)

    visit(ast.parse(source), ())
    return uses


def test_sources_found():
    assert {"ecsolve.py", "model.py", "pe.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_sum_beyond_the_allowed(path):
    allowed = {key: n for key, n in ALLOWED.items() if key[0] == path.name}
    assert dict(sum_uses(path.read_text(), path.name)) == allowed


def test_a_float_sum_is_found():
    source = (
        "def total(values):\n"
        "    return sum(values)\n"
        "class Tracker:\n"
        "    def steps(self):\n"
        "        return max(map(sum, self.rows))\n"
    )
    assert sum_uses(source, "m.py") == {("m.py", "total"): 1, ("m.py", "Tracker.steps"): 1}
