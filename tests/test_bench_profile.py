"""Smoke tests for the profiling harness and its CLI surface."""

import gc
import json
import pstats

import pytest

from repro.bench import profile as profile_mod
from repro.bench.__main__ import main as bench_main
from repro.trace import Tracer


class TestMicrobenchmarks:
    def test_quick_suite_shape(self):
        reports = profile_mod.run_microbenchmarks(quick=True)
        labels = [r["label"] for r in reports]
        assert labels == ["sleep-path", "timeout-events",
                          "scheduled-callbacks", "collective-ops"]
        for report in reports:
            assert report["events"] > 0
            assert report["events_per_s"] > 0
            assert report["ns_per_event"] > 0
        assert reports[-1]["ops_per_s"] > 0

    def test_measure_counts_events(self):
        from repro.sim import Environment

        env = Environment()

        def proc():
            yield 1.0
            yield 1.0

        def run():
            env.process(proc())
            env.run()
            return "done"

        out = profile_mod.measure(run, "two-sleeps")
        assert out["value"] == "done"
        # bootstrap + two sleep wakeups + final StopIteration resolution
        assert out["report"]["events"] >= 3
        assert out["report"]["sim_s"] == pytest.approx(2.0)


class TestGcMeter:
    def test_measure_reports_collector_passes(self):
        def run():
            a, b = [], []
            a.append(b)
            b.append(a)          # a cycle only the collector can free
            del a, b
            gc.collect()         # a full pass: every generation's callback

        hooks = len(gc.callbacks)
        report = profile_mod.measure(run, "collect")["report"]
        assert len(gc.callbacks) == hooks    # the hook is removed again
        full = report["gc"]["gen2"]
        assert full["passes"] >= 1
        assert full["collected"] >= 2
        assert full["seconds"] >= 0.0
        assert sorted(report["gc"]) == ["gen0", "gen1", "gen2"]
        line = profile_mod.render_gc(report["gc"], report["wall_s"])
        assert line.startswith("gc: ") and "gen2" in line
        assert "  " + line in profile_mod.render_report(
            dict(report, artifact="x", points=1))

    def test_meter_counts_nothing_outside_its_block(self):
        meter = profile_mod.GcMeter()
        gc.collect()
        with meter:
            pass
        gc.collect()
        assert all(g["passes"] == 0 for g in meter.report().values())


class TestProfileArtifact:
    def test_fig08_with_memory_and_pstats(self, tmp_path):
        out = str(tmp_path / "fig08.pstats")
        report = profile_mod.profile_artifact(
            "fig08", quick=True, profile_out=out, memory=True)
        assert report["artifact"] == "fig08"
        assert report["points"] == 3
        assert report["events"] > 0
        assert report["memory"]["peak_bytes"] > 0
        stats = pstats.Stats(out)  # dumped file must be loadable
        assert stats.total_calls > 0
        rendered = profile_mod.render_report(report)
        assert "fig08" in rendered and "ns/event" in rendered

    def test_kernel_pseudo_artifact(self):
        report = profile_mod.profile_artifact("kernel", quick=True)
        assert len(report["microbenchmarks"]) == 4
        assert "sleep-path" in profile_mod.render_report(report)

    def test_unknown_artifact_raises(self):
        with pytest.raises(KeyError):
            profile_mod.profile_artifact("fig99")

    def test_quick_kwargs_shrink_fig07(self):
        report = profile_mod.profile_artifact("fig07", quick=True)
        # full fig07 runs 5 sizes x 3 series; quick trims to 3 sizes
        assert report["points"] == 9
        assert report["quick"] is True


class TestCli:
    def test_profile_kernel_quick(self, capsys):
        assert bench_main(["profile", "kernel", "--quick"]) == 0
        assert "kernel microbenchmarks" in capsys.readouterr().out

    def test_profile_requires_exactly_one_target(self, capsys):
        assert bench_main(["profile"]) == 2
        assert bench_main(["profile", "fig08", "fig09"]) == 2

    def test_profile_unknown_artifact(self, capsys):
        assert bench_main(["profile", "fig99"]) == 2

    def test_profile_json_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert bench_main(["profile", "fig08", "--quick",
                           "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["artifact"] == "fig08"
        assert report["events_per_s"] > 0

    def test_artifact_run_with_profile_out(self, tmp_path, capsys):
        pstats_out = tmp_path / "run.pstats"
        assert bench_main(["fig08", "--no-cache",
                           "--profile-out", str(pstats_out)]) == 0
        assert pstats.Stats(str(pstats_out)).total_calls > 0


class TestPerfSection:
    def test_from_runner_records(self):
        from repro.bench.runner import PointResult, SweepPoint

        point = SweepPoint.make("figXX", "k")
        records = [
            PointResult(point=point, value=1.0, wall_s=0.5, sim_s=0.1,
                        events=1000, cached=False),
            PointResult(point=point, value=1.0, wall_s=0.0, sim_s=0.0,
                        events=0, cached=True),  # cache reads excluded
        ]
        perf = profile_mod.perf_section(records, wall_s=0.75)
        assert perf["events"] == 1000
        assert perf["events_per_s"] == pytest.approx(2000.0)
        assert perf["wall_s"] == 0.75

    def test_empty_records(self):
        perf = profile_mod.perf_section([], wall_s=0.0)
        assert perf["events"] == 0
        assert perf["events_per_s"] == 0.0


class TestTracerDropCounter:
    def test_total_dropped_aggregates_across_instances(self):
        before = Tracer.total_dropped
        tracer = Tracer(capacity=2)
        for i in range(5):
            tracer.record(float(i), "c", "e")
        assert tracer.dropped == 3
        assert Tracer.total_dropped == before + 3
        other = Tracer(capacity=1)
        other.record(0.0, "c", "e")
        other.record(1.0, "c", "e")
        assert Tracer.total_dropped == before + 4
        # clear() resets the instance, not the process-wide total
        tracer.clear()
        assert tracer.dropped == 0
        assert Tracer.total_dropped == before + 4
