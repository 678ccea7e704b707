"""``scripts/line_coverage.py``: which statements of a source a line trace
leaves unrun."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SOURCE = '''"""Module docstring."""
import math
from os import path


class Box:
    """Class docstring."""
    size: float = 1.0

    def grow(self, by):
        """Method docstring."""
        if by > 0:
            self.size = (self.size
                         + by)
        else:
            raise ValueError(
                "no")
        try:
            return math.sqrt(self.size)
        except ValueError:
            return None
'''


def _script():
    spec = importlib.util.spec_from_file_location(
        "line_coverage", ROOT / "scripts" / "line_coverage.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_statements_leave_out_docstrings_definitions_and_imports():
    # a compound statement spans its header; a simple one every line it has
    assert _script().statements(SOURCE) == [
        (8, 8), (12, 12), (13, 14), (16, 17), (18, 18), (19, 19), (21, 21)]


def test_a_statement_ran_when_any_of_its_lines_did():
    never_ran = _script().never_ran
    assert never_ran(SOURCE, set()) == [8, 12, 13, 16, 18, 19, 21]
    # the second line of the split assignment and the raise's message line
    assert never_ran(SOURCE, {8, 12, 14, 17, 18, 19}) == [21]


def test_hypothesis_draws_are_seeded_unless_the_caller_seeds_them():
    pytest_args = _script().pytest_args
    assert pytest_args([]) == ["--hypothesis-seed=0"]
    assert pytest_args(["-q", "tests/test_jets.py"]) == \
        ["-q", "tests/test_jets.py", "--hypothesis-seed=0"]
    assert pytest_args(["--hypothesis-seed=7", "-q"]) == ["--hypothesis-seed=7", "-q"]
    assert pytest_args(["--hypothesis-seed", "7"]) == ["--hypothesis-seed", "7"]
