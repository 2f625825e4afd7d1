"""Recorder facade, the NO_RECORDER null object, and the StageTimer bridge."""

import pytest

from repro.obs import (
    NO_RECORDER,
    NO_TIMER,
    MetricsRegistry,
    NullRecorder,
    Recorder,
    StageTimer,
    TraceRecorder,
)


class TestRecorder:
    def test_truthy_and_enabled(self):
        rec = Recorder()
        assert rec
        assert rec.enabled

    def test_bundles_fresh_halves(self):
        rec = Recorder()
        assert isinstance(rec.trace, TraceRecorder)
        assert isinstance(rec.metrics, MetricsRegistry)

    def test_shares_supplied_halves(self):
        metrics = MetricsRegistry()
        trace = TraceRecorder()
        rec = Recorder(trace=trace, metrics=metrics)
        assert rec.trace is trace and rec.metrics is metrics

    def test_delegates_to_both_halves(self):
        rec = Recorder()
        with rec.span("phase", k=1):
            pass
        rec.instant("mark")
        rec.inc("events", 2)
        rec.observe("lat_ms", 0.5)
        rec.set_gauge("depth", 3)
        assert len(rec.trace) == 2
        snap = rec.summary()
        assert snap["counters"] == {"events": 2}
        assert snap["gauges"] == {"depth": 3}
        assert snap["histograms"]["lat_ms"]["count"] == 1

    def test_write_trace(self, tmp_path):
        rec = Recorder()
        with rec.span("x"):
            pass
        path = rec.write_trace(tmp_path / "t.json")
        assert path == str(tmp_path / "t.json")


class TestNullRecorder:
    def test_falsy_disabled_singleton(self):
        assert not NO_RECORDER
        assert not NO_RECORDER.enabled
        assert isinstance(NO_RECORDER, NullRecorder)
        assert NO_RECORDER.trace is None and NO_RECORDER.metrics is None

    def test_every_method_is_a_noop(self, tmp_path):
        with NO_RECORDER.span("x", a=1) as sp:
            sp.set(b=2)
        NO_RECORDER.instant("y")
        NO_RECORDER.inc("c")
        NO_RECORDER.observe("h", 1.0)
        NO_RECORDER.set_gauge("g", 2.0)
        assert NO_RECORDER.write_trace(tmp_path / "never.json") is None
        assert not (tmp_path / "never.json").exists()
        assert NO_RECORDER.summary() == {}


class TestStageTimerBridge:
    def test_stages_mirror_as_spans(self):
        rec = Recorder()
        timer = StageTimer(recorder=rec)
        with timer.stage("relax", wave=4):
            pass
        with timer.stage("relax"):
            pass
        with timer.stage("filter"):
            pass
        spans = rec.trace.spans("relax")
        assert len(spans) == 2
        assert spans[0]["args"] == {"wave": 4}
        assert timer.counts["relax"] == 2
        assert len(rec.trace.spans("filter")) == 1

    def test_span_durations_cover_stage_totals(self):
        rec = Recorder()
        timer = StageTimer(recorder=rec)
        with timer.stage("s"):
            sum(range(2000))
        (span,) = rec.trace.spans("s")
        # the span opens before t0 and closes after the accumulation,
        # so it can only be at least as long as the stage total
        assert span["dur_us"] * 1e-6 >= timer.totals["s"] * 0.5

    def test_no_recorder_means_no_spans(self):
        timer = StageTimer()
        with timer.stage("s", extra=1):
            pass
        assert timer.counts["s"] == 1

    def test_null_recorder_disables_the_bridge(self):
        timer = StageTimer(recorder=NO_RECORDER)
        with timer.stage("s"):
            pass
        assert timer._recorder is None

    def test_feed_pushes_totals_into_metrics(self):
        rec = Recorder()
        timer = StageTimer()
        with timer.stage("relax"):
            pass
        with timer.stage("relax"):
            pass
        timer.feed(rec)
        snap = rec.summary()
        assert snap["counters"]["stage.relax.hits"] == 2
        assert snap["gauges"]["stage.relax.seconds"] == pytest.approx(
            timer.totals["relax"]
        )

    def test_feed_into_falsy_recorder_is_noop(self):
        timer = StageTimer()
        with timer.stage("s"):
            pass
        timer.feed(None)
        timer.feed(NO_RECORDER)  # must not raise

    def test_null_timer_accepts_span_args(self):
        with NO_TIMER.stage("s", kernel="scatter", wave=9):
            pass
        assert NO_TIMER.as_dict() == {}
