"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

The smoke tests run every workload end to end at minimal length (presets
still pays three cold set-ups, about a minute); the tracer tests run in
process against ./src.
"""

import json
import os
import random
import statistics
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import halfline  # noqa: E402
import halfline.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=180, check=True)
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_refuses_a_directory_without_sources(tmp_path):
    with open(tmp_path / "BENCHMARK.json", "w") as fh:
        json.dump(SPEC, fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""


def test_end_to_end_takes_each_case_median_time_over_all_workers():
    def worker(setup_s, times, flagged):
        return {"setup_s": setup_s, "setup_raw_s": 2 * setup_s,
                "times": times, "raw_times": [[2 * t for t in ts] for ts in times],
                "checks": {"attempted": 10, "flagged": flagged,
                           "slope_err_max": setup_s, "profile_err_max": 0.0,
                           "residual_max": 0.0}}
    runs = [worker(3.0, [[0.5, 0.2], [0.9]], 1),
            worker(1.0, [[0.3], [0.8, 0.7]], 0),
            worker(2.0, [[0.4], [1.0]], 0)]
    values = run.end_to_end(runs)
    assert values["setup_s"] == 2.0
    assert values["op_ms_p50"] == pytest.approx(1e3 * (0.35 + 0.85) / 2)
    assert values["ops_per_s"] == pytest.approx(2 / 1.2)
    assert values["raw.op_ms_p50"] == pytest.approx(2 * values["op_ms_p50"])
    assert values["raw.setup_s"] == 4.0
    assert values["op_ms_p90"] is None          # fewer than 100 runs
    assert values["fail_ratio"] == pytest.approx(1 / 30)
    assert values["slope_err_max"] == 3.0


class _Steps:
    """A fake workload whose operations take no time: only the clock moves."""
    name = "steps"

    def __init__(self, clock):
        self.clock = clock

    def run(self, case):
        self.clock.now += case
        return case

    def check(self, case, result):
        return workloads.Check(True)


class _Clock:
    now = 0.0

    def __call__(self):
        return self.now


def test_each_operation_is_scaled_by_the_reference_runs_beside_it(monkeypatch):
    clock = _Clock()
    refs = iter([0.010, 0.010, 0.020, 0.020])     # a host that halves its speed
    monkeypatch.setattr(worker.time, "perf_counter", clock)
    monkeypatch.setattr(worker, "reference", lambda: next(refs))
    loop = worker.Loop(_Steps(clock), [0.1, 0.2, 0.4], (), random.Random(0))
    loop.rng.shuffle = list.sort                  # cases in their given order
    assert loop.run(rounds=1) == 1
    assert loop.raw == [[pytest.approx(0.1)], [pytest.approx(0.2)], [pytest.approx(0.4)]]
    scale = worker.REFERENCE_S
    assert loop.scaled[0][0] == pytest.approx(0.1 * scale / 0.010)
    assert loop.scaled[1][0] == pytest.approx(0.2 * scale / 0.015)
    assert loop.scaled[2][0] == pytest.approx(0.4 * scale / 0.020)
    assert loop.refs == [0.010, 0.010, 0.020, 0.020]
    assert loop.busy_s == pytest.approx(0.7)


def test_reference_kernel_takes_milliseconds():
    worker.reference()
    assert 1e-4 < statistics.median(worker.reference() for _ in range(5)) < 0.1


def _bindings():
    """Every (owner, name) -> object binding the tracer may replace."""
    found = {}
    modules = [m for n, m in sys.modules.items()
               if n == "halfline" or n.startswith("halfline.")]
    for _, module_name, attr in spans.LAYERS:
        owner = sys.modules[module_name]
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            found[(cls, method)] = vars(cls)[method]
            continue
        original = getattr(owner, attr)
        for m in modules:
            for key, value in vars(m).items():
                if value is original:
                    found[(m, key)] = original
    return found


def _one_of_each():
    workloads.run_preset(("table1-hf", None))
    workloads.run_sweep((0.6, 0.5, 16))
    workloads.warm_oracle()


def test_traced_run_restores_every_wrapped_attribute():
    before = _bindings()
    assert vars(halfline.core)["eval_expansion"] is before[(halfline.core, "eval_expansion")]
    tracer = spans.Tracer()
    with tracer.installed():
        for (owner, key), original in before.items():
            assert getattr(owner, key) is not original, key
        _one_of_each()
    for (owner, key), original in before.items():
        assert getattr(owner, key) is original, key
    assert halfline.newton.fd_jacobian is before[(halfline.newton, "fd_jacobian")]
    assert tracer.missing == []
    assert tracer.calls("problems.residual") > 0
    assert tracer.calls("shooting.shoot") == 1


def test_attributes_are_restored_when_the_traced_code_raises():
    before = _bindings()
    with pytest.raises(halfline.HalflineError):
        with spans.Tracer().installed():
            halfline.solve_problem(halfline.ProblemSpec(
                halfline.FluidParams(0.6, 0.1, 0.5), halfline.LaguerreBasis(1)))
    for (owner, key), original in before.items():
        assert getattr(owner, key) is original, key


def test_self_times_add_up_to_the_covered_time():
    tracer = spans.Tracer()
    with tracer.installed():
        _one_of_each()
    total = sum(self_s for self_s, _ in tracer.stats.values())
    assert total == pytest.approx(tracer.covered_s, rel=1e-9)
    assert all(self_s >= 0 for self_s, _ in tracer.stats.values())
    assert tracer.iterations > 0


def test_missing_name_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(halfline.laguerre.LaguerreBasis, "member")
    tracer = spans.Tracer()
    with tracer.installed():
        workloads.warm_oracle()
    assert tracer.missing == ["halfline.laguerre:LaguerreBasis.member"]
    assert "laguerre.member" in tracer.absent()
    assert tracer.per_op(1)["laguerre.member.self_s"] == 0.0
