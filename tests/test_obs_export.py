"""Trace exporters: Chrome trace-event JSON, JSONL, span round-trips."""

import json

import pytest

from repro import obs
from repro.obs import reroot_worker_spans
from repro.obs.export import (
    chrome_trace,
    jsonl_events,
    prometheus_text,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _small_trace():
    obs.enable()
    with obs.span("outer", layers=4) as sp:
        sp.add("wires", 3)
        with obs.span("inner"):
            pass
    obs.count("jobs", 7)
    obs.observe("depth", 2)
    obs.observe("depth", 9)


class TestSpanRoundTrip:
    def test_as_dict_from_dict_preserves_tree(self):
        _small_trace()
        root = obs.trace_roots()[0]
        clone = obs.SpanRecord.from_dict(root.as_dict())
        assert clone.name == "outer"
        assert clone.attrs == {"layers": 4}
        assert clone.counts == {"wires": 3}
        assert [c.name for c in clone.children] == ["inner"]
        assert clone.start == root.start
        assert clone.duration == pytest.approx(root.duration, abs=1e-3)

    def test_attach_under_open_span(self):
        obs.enable()
        sub = obs.SpanRecord(name="grafted", attrs={})
        with obs.span("parent"):
            obs.attach(sub)
        roots = obs.trace_roots()
        assert [c.name for c in roots[0].children] == ["grafted"]

    def test_attach_as_root_when_nothing_open(self):
        obs.enable()
        obs.attach(obs.SpanRecord(name="lone", attrs={}))
        assert [r.name for r in obs.trace_roots()] == ["lone"]

    def test_attach_noop_when_disabled(self):
        obs.attach(obs.SpanRecord(name="ghost", attrs={}))
        assert obs.trace_roots() == []


class TestChromeTrace:
    def test_span_events_have_required_fields(self):
        _small_trace()
        doc = chrome_trace()
        validate_chrome_trace(doc)
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in xs] == ["outer", "inner"]
        for e in xs:
            assert isinstance(e["ts"], (int, float))
            assert isinstance(e["dur"], (int, float))
            assert e["pid"] == 0 and e["tid"] == 0
        outer, inner = xs
        assert outer["args"]["layers"] == 4
        assert outer["args"]["count.wires"] == 3
        # The child starts within the parent and ends no later.
        assert inner["ts"] >= outer["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1

    def test_counters_and_histograms_become_counter_tracks(self):
        _small_trace()
        doc = chrome_trace()
        cs = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "C"}
        assert cs["jobs"]["args"]["value"] == 7
        assert cs["depth"]["args"]["count"] == 2
        assert "p50" in cs["depth"]["args"]

    def test_worker_subtrees_get_their_own_process_row(self):
        obs.enable()
        with obs.span("sweep.run"):
            for wid in (0, 1):
                child = obs.SpanRecord(
                    name="sweep.job", attrs={}, start=1.0, duration=0.5
                )
                wrapper = obs.SpanRecord(
                    name="sweep.worker",
                    attrs={"worker_id": wid},
                    start=1.0,
                    duration=0.5,
                    children=[child],
                )
                obs.attach(wrapper)
        doc = chrome_trace()
        validate_chrome_trace(doc)
        by_pid = {}
        for e in doc["traceEvents"]:
            if e["ph"] == "X":
                by_pid.setdefault(e["pid"], []).append(e["name"])
        assert by_pid[0] == ["sweep.run"]
        assert by_pid[1] == ["sweep.worker", "sweep.job"]
        assert by_pid[2] == ["sweep.worker", "sweep.job"]
        meta = {
            e["pid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert meta == {0: "main", 1: "worker 0", 2: "worker 1"}

    def test_write_and_validate(self, tmp_path):
        _small_trace()
        path = tmp_path / "trace.json"
        write_chrome_trace(path)
        validate_chrome_trace(json.loads(path.read_text()))

    def test_validate_rejects_bad_docs(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({})
        good = {
            "traceEvents": [
                {"name": "a", "ph": "X", "ts": 0, "dur": 1,
                 "pid": 0, "tid": 0},
            ]
        }
        validate_chrome_trace(good)
        for strip, needle in (
            ("ph", "ph"), ("ts", "ts"), ("pid", "pid"),
            ("tid", "tid"), ("dur", "dur"),
        ):
            bad = json.loads(json.dumps(good))
            bad["traceEvents"][0].pop(strip)
            with pytest.raises(ValueError, match=needle):
                validate_chrome_trace(bad)


class TestJsonl:
    def test_events_flatten_with_depth_and_metrics(self):
        _small_trace()
        events = jsonl_events()
        assert events[0]["type"] == "header"
        spans = [e for e in events if e["type"] == "span"]
        assert [(e["name"], e["depth"]) for e in spans] == [
            ("outer", 0), ("inner", 1),
        ]
        counters = {e["name"]: e for e in events if e["type"] == "counter"}
        assert counters["jobs"]["value"] == 7
        hists = {e["name"]: e for e in events if e["type"] == "histogram"}
        assert hists["depth"]["count"] == 2
        for key in ("p50", "p90", "p99", "mean", "min", "max"):
            assert key in hists["depth"]

    def test_write_is_one_json_object_per_line(self, tmp_path):
        _small_trace()
        path = tmp_path / "events.jsonl"
        write_jsonl(path)
        lines = path.read_text().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["schema"].startswith("repro.events-jsonl")
        assert any(p.get("type") == "span" for p in parsed)


class TestPrometheus:
    def test_counters_get_total_suffix_and_sanitized_names(self):
        text = prometheus_text(
            {"counters": {"cache.hits": 12, "sweep.jobs": 8}}
        )
        assert "# TYPE repro_cache_hits_total counter" in text
        assert "repro_cache_hits_total 12" in text
        assert "repro_sweep_jobs_total 8" in text

    def test_gauges_keep_name(self):
        text = prometheus_text(
            {"gauges": {"sweep.live.workers_ok": 4.0}}
        )
        assert "# TYPE repro_sweep_live_workers_ok gauge" in text
        # Integral floats render integral.
        assert "repro_sweep_live_workers_ok 4\n" in text

    def test_histogram_buckets_are_cumulative(self):
        obs.enable()
        h = obs.registry().histogram("lat", bounds=(1, 2, 8))
        for v in (0.5, 1.5, 5, 100):
            h.observe(v)
        text = prometheus_text()
        assert '# TYPE repro_lat histogram' in text
        assert 'repro_lat_bucket{le="1"} 1' in text
        assert 'repro_lat_bucket{le="2"} 2' in text
        assert 'repro_lat_bucket{le="8"} 3' in text
        assert 'repro_lat_bucket{le="+Inf"} 4' in text
        assert "repro_lat_sum 107" in text
        assert "repro_lat_count 4" in text

    def test_leading_digit_name_prefixed(self):
        text = prometheus_text(
            {"counters": {"9lives": 1}}, prefix=""
        )
        assert "_9lives_total 1" in text

    def test_empty_snapshot_is_valid_exposition(self):
        assert prometheus_text({}) == "\n"

    def test_write_prometheus_atomic(self, tmp_path):
        path = tmp_path / "metrics.prom"
        text = write_prometheus(path, {"counters": {"n": 3}})
        assert path.read_text() == text
        assert text.endswith("\n")
        assert list(tmp_path.iterdir()) == [path]  # no temp litter

    def test_live_registry_snapshot_roundtrip(self):
        obs.enable()
        obs.count("sweep.runs")
        obs.observe("depth", 2)
        text = prometheus_text()
        assert "repro_sweep_runs_total 1" in text
        assert "repro_depth_count 1" in text


class TestRerootWorkerSpans:
    def test_wrapper_carries_worker_id_and_timing(self):
        obs.enable()
        docs = [
            {"name": "job", "start_s": 5.0, "duration_ms": 1000.0,
             "attrs": {}, "counts": {}, "children": []},
            {"name": "job", "start_s": 7.0, "duration_ms": 500.0,
             "attrs": {}, "counts": {}, "children": []},
        ]
        with obs.span("sweep.run"):
            reroot_worker_spans(3, docs, jobs=2)
        run = obs.trace_roots()[0]
        (worker,) = run.children
        assert worker.name == "sweep.worker"
        assert worker.attrs["worker_id"] == 3
        assert worker.attrs["jobs"] == 2
        assert worker.start == 5.0
        assert worker.duration == pytest.approx(2.5)
        assert [c.name for c in worker.children] == ["job", "job"]

    def test_noop_paths(self):
        obs.enable()
        reroot_worker_spans(0, [])
        assert obs.trace_roots() == []
        obs.disable()
        reroot_worker_spans(0, [{"name": "x", "attrs": {}, "counts": {},
                                 "children": []}])
        obs.enable()
        assert obs.trace_roots() == []
