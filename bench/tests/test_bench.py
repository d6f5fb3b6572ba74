"""Tests of the benchmark itself: metric coverage, trace predictions, and
that a planted wrong answer is caught.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction as F

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import gdofic as G  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY_ARGS = ["--size", "tiny", "--seconds", "0.5"]


def bench_process(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"),
                           *argv], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.fixture(autouse=True)
def keep_cpu_affinity():
    """main() pins the process to one CPU; undo that after each test."""
    cpus = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, cpus)


def in_process(capsys, *argv) -> dict:
    """Run the benchmark's main() here, so monkeypatched library calls apply."""
    assert run.main(list(argv)) == 0
    return last_json(capsys.readouterr().out)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = bench_process("--workload", workload, "--seed", "0",
                         "--trace", str(trace), *TINY_ARGS)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    record = json.loads(proc.stdout.strip().splitlines()[-2])
    assert record["digest"] == record["recorded_digest"]
    assert os.path.realpath(record["environment"]["gdofic_file"]) == \
        os.path.realpath(os.path.join(ROOT, "src", "gdofic", "__init__.py"))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["split-grid", "region-corpus"])
def test_trace_predictions_on_exact_workloads(workload):
    result = last_json(bench_process("--workload", workload, "--trace", "1",
                                     *TINY_ARGS).stdout)
    calls = {k: v["value"] for k, v in result["metrics"].items()
             if k.endswith(".calls")}
    assert all(v == 0 for k, v in calls.items() if k.startswith("finite_snr."))
    assert calls["core_math.f.calls"] > 0
    if workload == "region-corpus":
        assert calls["hk_scheme.split_solver.calls"] == 0
    else:
        assert calls["hk_scheme.split_solver.calls"] > 0


def test_call_counts_repeat_at_a_fixed_seed():
    runs = [last_json(bench_process("--workload", "split-grid", "--trace", "1",
                                    *TINY_ARGS).stdout)["metrics"]
            for _ in range(2)]
    counts = [{k: v["value"] for k, v in m.items() if k.endswith(".calls")}
              for m in runs]
    assert counts[0] == counts[1]


def test_planted_wrong_split_is_counted(monkeypatch, capsys):
    real = G.split_solver

    def off_by_an_eighth(ant, exp, point):
        s = real(ant, exp, point)
        return G.DofSplit(s.d1c + F(1, 8), s.d1p, s.d2c, s.d2p)

    monkeypatch.setattr(G, "split_solver", off_by_an_eighth)
    result = in_process(capsys, "--workload", "split-grid", *TINY_ARGS)
    assert result["failed"] > 0 and result["correct"] is False


def test_planted_wrong_vertex_is_counted_and_breaks_the_digest(monkeypatch, capsys):
    real = G.region_of

    def moved_vertex(ant, exp):
        r = real(ant, exp)
        (x, y), rest = r.vertices[-1], r.vertices[:-1]
        return G.GdofRegion(r.bounds, rest + ((x + F(1, 8), y),))

    monkeypatch.setattr(G, "region_of", moved_vertex)
    assert run.main(["--workload", "region-corpus", *TINY_ARGS]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert result["failed"] > 0 and result["correct"] is False
    assert record["digest"] != record["recorded_digest"]


def test_planted_wrong_cli_answer_is_counted(monkeypatch, capsys):
    # Only the CLI's own binding changes; the benchmark's reference answer
    # still comes from the package-level region_of.
    real = G.region.region_of

    def shrunk(ant, exp):
        r = real(ant, exp)
        return G.GdofRegion(r.bounds, tuple((x / 2, y) for x, y in r.vertices))

    monkeypatch.setattr(G.region, "region_of", shrunk)
    result = in_process(capsys, "--workload", "cli-cold", *TINY_ARGS)
    assert result["failed"] > 0 and result["correct"] is False


def test_planted_wrong_mac_slope_is_caught_by_the_recomputation(monkeypatch, capsys):
    real = G.finite_snr.mac_sum_rate

    def one_percent_high(*args):
        return real(*args) * 1.01

    monkeypatch.setattr(G.finite_snr, "mac_sum_rate", one_percent_high)
    result = in_process(capsys, "--workload", "monte-carlo", *TINY_ARGS)
    assert result["failed"] > 0 and result["correct"] is False


def test_planted_wrong_tin_rate_is_caught_by_the_recomputation(monkeypatch, capsys):
    real = G.finite_snr.tin_rates

    def swapped(inst, rho):
        r1, r2 = real(inst, rho)
        return r2, r1

    monkeypatch.setattr(G.finite_snr, "tin_rates", swapped)
    result = in_process(capsys, "--workload", "monte-carlo", *TINY_ARGS)
    assert result["failed"] > 0 and result["correct"] is False


def test_tolerance_misses_above_the_ceiling_are_a_fault():
    miss = ["slope off " + workloads.TOLERANCE_MARK]
    ops = 10_000
    allowed = int(workloads.TOLERANCE_CEILING * ops + workloads.TOLERANCE_SLACK)
    within, over = workloads.Tally(), workloads.Tally()
    within.add(allowed, miss, "", False)
    over.add(allowed + 1, miss, "", False)
    for tally in (within, over):
        tally.check_ceiling(ops)
    assert within.exact_faults == 0 and over.exact_faults == 1
    assert within.failed == over.failed == 0
    assert within.tolerance_misses == allowed


def test_unrecorded_seed_is_reported(capsys):
    assert run.main(["--workload", "split-grid", "--seed", "987654", *TINY_ARGS]) == 0
    captured = capsys.readouterr()
    record = json.loads(captured.out.strip().splitlines()[-2])
    assert record["digest_status"] == "unrecorded"
    assert "no digest recorded" in captured.err


def test_wrong_cold_process_output_is_a_fault():
    ant, exp = G.AntennaProfile(3, 3, 2, 2), G.ExponentProfile.symmetric(F(2, 3))
    q = workloads.split_query(ant, exp, (F(1), F(2)))
    good = json.dumps({"split": {"d1c": "0", "d1p": "1", "d2c": "4/3", "d2p": "2/3"}})
    bad = json.dumps({"split": {"d1c": "0", "d1p": "1", "d2c": "1", "d2p": "1"}})
    assert q.check(0, good, "")[0] is None
    assert q.check(0, bad, "")[0] is not None
    assert q.check(1, good, "")[0] is not None
    err = workloads.bad_alpha_query(ant)
    assert err.check(1, "", '{"error": "bad-alpha", "message": "x"}\n')[0] is None
    assert err.check(1, "", "Traceback (most recent call last):\n")[0] is not None


def test_recorded_digest_mismatch_makes_the_run_incorrect(monkeypatch, capsys, tmp_path):
    with open(run.DIGESTS) as fh:
        table = json.load(fh)
    table["tiny"]["monte-carlo"]["0"] = "0" * 64
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(table))
    monkeypatch.setattr(run, "DIGESTS", str(path))
    result = in_process(capsys, "--workload", "monte-carlo", "--seed", "0", *TINY_ARGS)
    assert result["correct"] is False


def test_benchmark_alone_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench_process("--workload", "split-grid", "--seed", "0", "--trace", "0",
                         "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
