"""Run reports: span-tree reconstruction, the exchange ledger, renderers."""

import json

import numpy as np
import pytest

from repro.bench.workloads import workload_for
from repro.obs import Recorder, RunReport, build_report, render_html, render_markdown
from repro.obs.report import build_span_tree, spans_from_chrome, stage_attribution
from repro.stepping import solve_with


def _synthetic_recorder():
    """A hand-built sharded-looking run with known ledger numbers."""
    rec = Recorder()
    with rec.span("solve:sharded", shards=2):
        for step in range(3):
            with rec.span("superstep", step=step, bound=float(step + 1),
                          phases=2, activated=10 * (step + 1)):
                with rec.span("shard-step", shard=0, phases=1):
                    pass
                with rec.span("exchange", step=step, exchanges=1,
                              entries_posted=8, entries_carried=6,
                              entries_applied=5, bytes_carried=96):
                    pass
    rec.observe("service.query_ms", 1.5)
    rec.inc("cache.hits", 2)
    return rec


class TestSpanTree:
    def test_nesting_reconstructed_per_thread(self):
        rec = _synthetic_recorder()
        roots = build_span_tree(rec.trace.spans())
        assert [r.name for r in roots] == ["solve:sharded"]
        steps = roots[0].children
        assert [s.name for s in steps] == ["superstep"] * 3
        assert [c.name for c in steps[0].children] == ["shard-step", "exchange"]

    def test_self_time_excludes_children(self):
        rec = _synthetic_recorder()
        (root,) = build_span_tree(rec.trace.spans())
        child_total = sum(c.dur_us for c in root.children)
        assert root.self_us == pytest.approx(root.dur_us - child_total)

    def test_attribution_covers_every_name_once(self):
        rec = _synthetic_recorder()
        rows = stage_attribution(build_span_tree(rec.trace.spans()))
        by_name = {r["name"]: r for r in rows}
        assert set(by_name) == {"solve:sharded", "superstep", "shard-step", "exchange"}
        assert by_name["superstep"]["count"] == 3

    def test_spans_from_chrome_inverts_to_chrome(self):
        rec = _synthetic_recorder()
        doc = json.loads(json.dumps(rec.trace.to_chrome()))
        spans = spans_from_chrome(doc)
        assert len(spans) == len(rec.trace.spans())
        assert {s["name"] for s in spans} == {
            "solve:sharded", "superstep", "shard-step", "exchange"
        }


class TestBuildReport:
    def test_exchange_ledger_rows_and_totals(self):
        report = build_report(_synthetic_recorder())
        (ledger,) = [s for s in report.sections
                     if s.title.startswith("Exchange ledger")]
        assert [r["superstep"] for r in ledger.table] == ["0", "1", "2"]
        assert all(r["posted"] == "8" and r["bytes"] == "96" for r in ledger.table)
        # the prose carries the summed wire volume
        assert any("24 posted" in line and "288 bytes" in line
                   for line in ledger.lines)

    def test_recorder_supplies_its_own_metrics(self):
        report = build_report(_synthetic_recorder())
        titles = [s.title for s in report.sections]
        assert "Metrics — counters & gauges" in titles
        assert "Metrics — latency histograms" in titles

    def test_empty_trace_still_reports(self):
        report = build_report(Recorder())
        assert report.span_count == 0
        assert any("trace is empty" in line
                   for line in report.sections[0].lines)
        assert "# " in render_markdown(report)

    def test_saved_trace_json_renders_same_ledger(self, tmp_path):
        rec = _synthetic_recorder()
        path = tmp_path / "trace.json"
        rec.write_trace(path)
        from_file = build_report(str(path))
        from_rec = build_report(rec)
        pick = lambda rep: [s.table for s in rep.sections
                            if s.title.startswith("Exchange ledger")]
        assert pick(from_file) == pick(from_rec)

    def test_real_sharded_run_has_ledger(self):
        # the acceptance-criterion path: an actual sharded solve
        wl = workload_for("ci-ws")
        rec = Recorder()
        solve_with("sharded(shards=2,partitioner=bfs)", wl.graph, wl.source,
                   recorder=rec)
        md = render_markdown(build_report(rec))
        assert "## Exchange ledger (per superstep)" in md
        assert "## Sharded supersteps" in md
        # ledger rows carry real wire volume
        assert "| superstep | posted | carried | applied | bytes | ms |" in md


class TestSteppingSections:
    @pytest.mark.parametrize("name", ["delta", "rho", "delta-star", "radius"])
    def test_bucket_and_wave_sections(self, name):
        """Every stepper runs the one bucket loop, so each recorded solve
        reports its steps and waves, and the waves add up to the run."""
        wl = workload_for("ci-ws")
        rec = Recorder()
        r = solve_with(name, wl.graph, wl.source, recorder=rec)
        sections = {s.title: s for s in build_report(rec).sections}
        assert "Bucket occupancy" in sections
        waves = sections["Relaxation-wave density"].table
        assert sum(int(row["relaxations"]) for row in waves) == r.relaxations
        assert sum(int(row["waves"]) for row in waves) == r.phases


class TestRenderers:
    def test_markdown_sections_and_tables(self):
        md = render_markdown(build_report(_synthetic_recorder(), title="T"))
        assert md.startswith("# T\n")
        assert "## Time attribution" in md
        assert "| span | count | total ms |" in md

    def test_html_is_self_contained(self):
        html_doc = render_html(build_report(_synthetic_recorder(), title="T"))
        assert html_doc.startswith("<!DOCTYPE html>")
        assert "<style>" in html_doc and "</html>" in html_doc
        assert "http://" not in html_doc  # no external assets

    def test_html_escapes_args(self):
        rec = Recorder()
        with rec.span("odd", label="<script>x</script>"):
            pass
        html_doc = render_html(build_report(rec))
        assert "<script>" not in html_doc

    def test_numpy_args_do_not_break_rendering(self):
        rec = Recorder()
        with rec.span("exchange", step=np.int64(0),
                      entries_posted=np.int64(4), entries_carried=np.int64(4),
                      entries_applied=np.int64(3), bytes_carried=np.int64(64)):
            pass
        report = build_report(rec)
        (ledger,) = [s for s in report.sections
                     if s.title.startswith("Exchange ledger")]
        assert ledger.table[0]["posted"] == "4"
        render_markdown(report)
        render_html(report)

    def test_run_report_dataclass_defaults(self):
        rep = RunReport(title="x")
        assert rep.sections == [] and rep.span_count == 0
