"""The goldens: the whole output of tools/snapshot.py, and the oracle census
golden of tools/oracle_census.py (one line per shoot of its default
config: slope, states, walks and top_derivative calls), each regenerated in
process by its own generator and compared line by line with the committed
file in tests/golden.

The bits depend on Python, numpy and the BLAS build, which each golden's
first line names; on any other environment the test is skipped, naming
both.  The two goldens must name the same environment, so that neither is
skipped where the other runs.  A change that moves any output regenerates
the golden with ``python3 tools/snapshot.py > tests/golden/snapshot.txt`` or
``python3 tools/oracle_census.py --golden > tests/golden/oracle_census.txt``
and says so.
"""

import difflib
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "tools"))

import oracle_census  # noqa: E402
import snapshot  # noqa: E402


def assert_matches(golden_path, generate):
    golden = golden_path.read_text().splitlines()
    here = snapshot.environment()
    if golden[0] != here:
        pytest.skip("the golden was recorded on %r, this is %r" % (golden[0][5:], here[5:]))
    now = generate().splitlines()
    diff = list(difflib.unified_diff(golden, now, "golden", "now", n=0, lineterm=""))
    changed = sum(line[:1] == "+" for line in diff[2:])
    assert not diff, "%d %s lines changed:\n%s" % (changed, golden_path.stem,
                                                  "\n".join(diff[:80]))


def test_the_snapshot_matches_the_golden():
    assert_matches(GOLDEN / "snapshot.txt", snapshot.snapshot_text)


def test_the_oracle_census_matches_its_golden():
    assert_matches(GOLDEN / "oracle_census.txt", oracle_census.golden_text)


def test_the_goldens_name_one_environment():
    # the census golden alone holds the oracle's slope bits and cost counts;
    # regenerated on another build, it would be skipped without a word
    snap, census = ((GOLDEN / name).read_text().splitlines()[0]
                    for name in ("snapshot.txt", "oracle_census.txt"))
    assert snap == census
