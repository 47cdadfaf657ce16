"""Tests of the benchmark itself, on tiny clusters.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402

WORKLOADS = ("ring-chunked", "bulk-flow", "app-loop")


def bench(capsys, workload, seed=7, trace=0):
    """Run one tiny workload repetition; returns (result, printed lines)."""
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace),
                     "--size", "tiny"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_declared_metrics(capsys, workload, trace, kind):
    result, _ = bench(capsys, workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == declared(kind)
    if trace == 0:
        assert all(m["value"] > 0 for m in metrics.values())


def test_perturbed_reference_fails_ops(capsys, monkeypatch):
    reference = run.load_reference()
    key = next(iter(reference["ring-chunked"]))
    reference["ring-chunked"] = {
        k: v * (1 + 1e-12) if k == key else v
        for k, v in reference["ring-chunked"].items()}
    monkeypatch.setattr(run, "load_reference", lambda: reference)
    result, _ = bench(capsys, "ring-chunked")
    assert result["failed"] > 0 and not result["correct"]


def test_corrupted_app_output_caught(capsys, monkeypatch):
    from repro.cclo.plugins import PluginRegistry

    apply_binary = PluginRegistry.apply_binary

    def off_by_one(self, func, a, b):
        out = apply_binary(self, func, a, b)
        return None if out is None else out + 1
    monkeypatch.setattr(PluginRegistry, "apply_binary", off_by_one)
    result, lines = bench(capsys, "app-loop")
    assert result["failed"] > 0 and not result["correct"]
    assert any("differs from numpy" in line for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_sim_time_and_counts(capsys, workload):
    def counts_and_sim_us():
        result, lines = bench(capsys, workload, seed=11, trace=1)
        sim_us = re.search(r"sim_us (\S+),", lines[0]).group(1)
        counts = {n: m["value"] for n, m in result["metrics"].items()
                  if m["unit"] == "count"}
        return sim_us, counts
    assert counts_and_sim_us() == counts_and_sim_us()


def test_layer_map_check_catches_gaps_and_overlaps(monkeypatch):
    import layers

    monkeypatch.setitem(layers.LAYER_MODULES, "cclo", ("repro.cclo.*",))
    with pytest.raises(RuntimeError, match="repro.collectives.bcast -> none"):
        layers.check_layer_map()
    monkeypatch.setitem(layers.LAYER_MODULES, "cclo",
                        ("repro.cclo.*", "repro.collectives.*"))
    monkeypatch.setitem(layers.LAYER_MODULES, "memory",
                        ("repro.memory.*", "repro.cclo.dmp"))
    with pytest.raises(RuntimeError,
                       match=r"repro.cclo.dmp -> \['cclo', 'memory'\]"):
        layers.check_layer_map()


def test_host_times_scaled_by_host_speed(capsys, monkeypatch):
    import hostspeed

    class HalfSpeed:
        def __enter__(self):
            return lambda: hostspeed.NOMINAL_S / 2

        def __exit__(self, *exc):
            pass
    monkeypatch.setattr(hostspeed, "Gauge", HalfSpeed)
    result, lines = bench(capsys, "ring-chunked")
    scale = float(re.search(r"host-speed scale (\S+) ", lines[0]).group(1))
    raw = float(re.search(r"unscaled wall_s median (\S+) s", lines[0]).group(1))
    assert scale == 2
    assert result["metrics"]["wall_s"]["value"] == pytest.approx(2 * raw,
                                                                 rel=1e-3)
