"""The golden: the whole output of tools/snapshot.py, the oracle census of
tools/oracle_census.py among it, regenerated in process by the same
generator and compared line by line with tests/golden/snapshot.txt.

The bits depend on Python, numpy and the BLAS build, which the golden's
first line names; on any other environment the comparison is skipped,
naming both.  A change that moves any output regenerates the golden with
``python3 tools/snapshot.py > tests/golden/snapshot.txt`` and says so.
"""

import difflib
import pathlib
import sys

import pytest

import halfline

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "snapshot.txt"
sys.path.insert(0, str(ROOT / "tools"))

import oracle_census  # noqa: E402
import snapshot  # noqa: E402


def test_the_snapshot_matches_the_golden():
    golden = GOLDEN.read_text().splitlines()
    here = snapshot.environment()
    if golden[0] != here:
        pytest.skip("the golden was recorded on %r, this is %r" % (golden[0][5:], here[5:]))
    now = snapshot.snapshot_text().splitlines()
    diff = list(difflib.unified_diff(golden, now, "golden", "now", n=0, lineterm=""))
    changed = sum(line[:1] == "+" for line in diff[2:])
    assert not diff, "%d lines changed:\n%s" % (changed, "\n".join(diff[:80]))


def test_the_golden_census_names_every_problem_in_order():
    # runs on any build: only the shoots' numbers depend on it
    section = GOLDEN.read_text().split("\n#### oracle census (default ShootConfig)\n")
    assert len(section) == 2
    rows = section[1].split("\n####")[0].splitlines()
    names = [name for name, _ in oracle_census.problems(halfline)]
    assert len(rows) == len(names)
    for row, name in zip(rows, names):
        assert row.startswith(name + " "), (row, name)
