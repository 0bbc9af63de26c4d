"""Tiny-size smoke run of the benchmark: every workload, untraced and
traced, at SMOKE sizes.  Kept out of tier-1 (pytest's testpaths is
tests/); run it with

    python -m pytest bench
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_smoke(name, trace, section, tmp_path):
    result = run.benchmark(name, seed=1, seconds=0, trace=trace,
                           sizes=workloads.SMOKE, out_dir=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (1 + run.MIN_ITERATIONS * (2 if trace else 1)) * len(
        workloads.build(name, 1, workloads.SMOKE).invocations)
    assert {m["name"]: m["unit"] for m in SPEC[section]} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_pinned_seeds_cover_every_workload():
    for name in run.WORKLOADS:
        pins = workloads.PINNED[name]
        assert str(workloads.DEFAULT_SEED) in pins and len(pins) >= 2
        labels = [inv.label for inv in workloads.build(name, 1).invocations]
        assert all(sorted(p) == sorted(labels) for p in pins.values())


def test_broken_output_is_a_failure(tmp_path):
    workload = workloads.build("urn", 1, workloads.SMOKE)
    runner = run.Runner(workload, tmp_path)
    runner.iteration()
    assert not runner.failures
    inv = workload.invocations[0]
    out = inv.call(tmp_path / "again")
    out.stdout = out.stdout.replace("final mean=", "final mean=9")
    assert "differs" in runner._check(inv, out)
