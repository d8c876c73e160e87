"""The golden snapshot: the whole output of tools/snapshot.py, regenerated
in process by its own generator and compared line by line with the
committed tests/golden/snapshot.txt.

The bits depend on Python, numpy and the BLAS build, which the golden's
first line names; on any other environment the test is skipped, naming
both.  A change that moves any output regenerates the golden with
``python3 tools/snapshot.py > tests/golden/snapshot.txt`` and says so.
"""

import difflib
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "snapshot.txt"
sys.path.insert(0, str(ROOT / "tools"))

import snapshot  # noqa: E402


def test_the_snapshot_matches_the_golden():
    golden = GOLDEN.read_text().splitlines()
    here = snapshot.environment()
    if golden[0] != here:
        pytest.skip("the golden was recorded on %r, this is %r" % (golden[0][5:], here[5:]))
    now = snapshot.snapshot_text().splitlines()
    diff = list(difflib.unified_diff(golden, now, "golden", "now", n=0, lineterm=""))
    changed = sum(line[:1] == "+" for line in diff[2:])
    assert not diff, "%d snapshot lines changed:\n%s" % (changed, "\n".join(diff[:80]))
