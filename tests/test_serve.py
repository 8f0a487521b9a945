"""The layout daemon end to end: sockets, coalescing, admission.

Every e2e test boots a real :class:`~repro.serve.server.LayoutServer`
on an ephemeral port inside ``asyncio.run`` and talks to it over real
sockets via the protocol helpers -- no mocked transport.  The
``REPRO_POOL_DELAY_S`` hook (tests/CI only) stretches builds so the
races these tests pin (coalescing, the in-flight gate) are
deterministic instead of scheduler-lucky.
"""

import asyncio
import json
import os
import signal
import time

import pytest

from repro import obs
from repro.serve import LayoutServer, ServeConfig, http_request
from repro.serve.pool import POOL_DELAY_ENV
from repro.serve.protocol import CLIENT_HEADER
from repro.serve.quotas import AdmissionGate, QuotaManager, TokenBucket


@pytest.fixture(autouse=True)
def _obs_clean():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _serve(test_coro, **cfg_kw):
    """Boot a server, run ``test_coro(server, port)``, always close."""

    async def runner():
        cfg = ServeConfig(port=0, workers=cfg_kw.pop("workers", 1), **cfg_kw)
        server = await LayoutServer(cfg).start()
        try:
            await test_coro(server, server.port)
        finally:
            await server.aclose()

    asyncio.run(runner())


def _post_layout(port, network, layers=2, **extra):
    return http_request(
        "127.0.0.1",
        port,
        "POST",
        "/v1/layout",
        body={"network": network, "layers": layers, **extra.pop("body", {})},
        **extra,
    )


class TestLayoutEndpoint:
    def test_cold_miss_then_warm_hit(self, tmp_path):
        async def t(server, port):
            st, _, body = await _post_layout(port, "hypercube:3")
            doc = json.loads(body)
            assert st == 200
            assert doc["source"] == "built"
            assert doc["N"] == 8 and doc["E"] == 12
            assert doc["metrics"]["area"] > 0
            st, _, body = await _post_layout(port, "hypercube:3")
            warm = json.loads(body)
            assert st == 200
            assert warm["source"] == "cache"
            # The answer, not just the status, must match.
            assert warm["metrics"] == doc["metrics"]

        _serve(t, cache_dir=str(tmp_path / "cache"))

    def test_no_cache_dir_still_serves(self):
        async def t(server, port):
            st, _, body = await _post_layout(port, "ring:6")
            doc = json.loads(body)
            assert st == 200 and doc["source"] == "built"
            # Without a cache every request is a fresh build.
            st, _, body = await _post_layout(port, "ring:6")
            assert json.loads(body)["source"] == "built"

        _serve(t)

    def test_concurrent_duplicates_coalesce(self, tmp_path, monkeypatch):
        monkeypatch.setenv(POOL_DELAY_ENV, "0.3")

        async def t(server, port):
            results = await asyncio.gather(
                *(
                    _post_layout(port, "kary:3,2", layers=4)
                    for _ in range(3)
                )
            )
            docs = [json.loads(b) for _, _, b in results]
            assert all(d["metrics"] == docs[0]["metrics"] for d in docs)
            sources = sorted(d["source"] for d in docs)
            assert sources == ["built", "coalesced", "coalesced"]
            st, _, body = await http_request(
                "127.0.0.1", port, "GET", "/stats"
            )
            stats = json.loads(body)
            assert stats["built"] == 1
            assert stats["coalesced"] == 2

        _serve(t, cache_dir=str(tmp_path / "cache"), workers=2)

    def test_include_layout_roundtrip(self, tmp_path):
        async def t(server, port):
            st, _, body = await _post_layout(
                port, "ring:6", body={"include_layout": True}
            )
            doc = json.loads(body)
            assert st == 200
            assert doc["layout"]["layers"] >= 2
            assert doc["layout"]["placements"]

        _serve(t, cache_dir=str(tmp_path / "cache"))

    def test_include_layout_requires_cache(self):
        async def t(server, port):
            st, _, body = await _post_layout(
                port, "ring:6", body={"include_layout": True}
            )
            assert st == 400
            assert "cache-dir" in json.loads(body)["error"]

        _serve(t)


class TestValidation:
    def test_unknown_family_is_400(self):
        async def t(server, port):
            st, _, body = await _post_layout(port, "nonsense:5")
            assert st == 400
            assert "unknown network family" in json.loads(body)["error"]

        _serve(t)

    def test_unknown_scheme_is_400(self):
        async def t(server, port):
            st, _, body = await _post_layout(
                port, "ring:6", body={"scheme": "wat"}
            )
            assert st == 400

        _serve(t)

    def test_bad_layers_is_400(self):
        async def t(server, port):
            for layers in ("two", 0, 9999, True):
                st, _, _ = await _post_layout(port, "ring:6", layers=layers)
                assert st == 400

        _serve(t)

    def test_unknown_path_404_wrong_method_405(self):
        async def t(server, port):
            st, _, _ = await http_request(
                "127.0.0.1", port, "GET", "/nope"
            )
            assert st == 404
            st, _, _ = await http_request(
                "127.0.0.1", port, "GET", "/v1/layout"
            )
            assert st == 405

        _serve(t)

    def test_garbage_body_is_400(self):
        async def t(server, port):
            st, _, body = await http_request(
                "127.0.0.1",
                port,
                "POST",
                "/v1/layout",
                body=None,
            )
            # Empty body -> missing network field.
            assert st == 400

        _serve(t)


class TestAdmission:
    def test_quota_429_with_retry_after(self, tmp_path):
        async def t(server, port):
            hdr = {CLIENT_HEADER: "greedy"}
            codes = []
            for _ in range(4):
                st, headers, _ = await _post_layout(
                    port, "ring:6", headers=hdr
                )
                codes.append((st, headers.get("retry-after")))
            assert [c for c, _ in codes] == [200, 200, 429, 429]
            assert all(
                int(ra) >= 1 for c, ra in codes if c == 429
            )
            # A different client id has its own bucket.
            st, _, _ = await _post_layout(
                port, "ring:6", headers={CLIENT_HEADER: "polite"}
            )
            assert st == 200

        _serve(
            t,
            cache_dir=str(tmp_path / "cache"),
            quota_rate=0.01,
            quota_burst=2.0,
        )

    def test_sweep_cost_counts_expanded_jobs(self):
        async def t(server, port):
            # 2 networks x 2 layer budgets = 4 jobs > burst of 3.
            st, _, body = await http_request(
                "127.0.0.1",
                port,
                "POST",
                "/v1/sweep",
                body={"networks": ["ring:4", "ring:6"], "layers": [2, 4]},
                headers={CLIENT_HEADER: "sweeper"},
            )
            assert st == 429
            assert "burst" in json.loads(body)["error"]

        _serve(t, quota_rate=0.01, quota_burst=3.0)

    def test_max_inflight_503(self, monkeypatch):
        monkeypatch.setenv(POOL_DELAY_ENV, "0.5")

        async def t(server, port):
            slow = asyncio.ensure_future(_post_layout(port, "ring:8"))
            await asyncio.sleep(0.1)  # let it occupy the gate
            st, headers, body = await _post_layout(port, "ring:6")
            assert st == 503
            assert "retry-after" in headers
            st_slow, _, slow_body = await slow
            assert st_slow == 200
            assert json.loads(slow_body)["source"] == "built"

        _serve(t, max_inflight=1)


class TestSweepStreaming:
    def test_sweep_streams_jsonl_events(self, tmp_path):
        async def t(server, port):
            st, headers, body = await http_request(
                "127.0.0.1",
                port,
                "POST",
                "/v1/sweep",
                body={
                    "networks": ["ring:4", "ring:6", "hypercube:3"],
                    "layers": [2, 4],
                    "name": "st",
                },
            )
            assert st == 200
            assert headers["transfer-encoding"] == "chunked"
            lines = [
                json.loads(line) for line in body.decode().splitlines()
            ]
            assert lines[0]["event"] == "start"
            assert lines[0]["jobs"] == 6
            jobs = [l for l in lines if l["event"] == "job"]
            assert sorted(j["index"] for j in jobs) == list(range(6))
            assert all(j["metrics"]["area"] > 0 for j in jobs)
            done = lines[-1]
            assert done["event"] == "done"
            assert done["errors"] == 0
            assert sum(done["sources"].values()) == 6

        _serve(t, cache_dir=str(tmp_path / "cache"), workers=2)

    def test_sweep_warm_rerun_hits_cache(self, tmp_path):
        async def t(server, port):
            body = {"networks": ["ring:4", "ring:6"], "layers": [2]}
            await http_request(
                "127.0.0.1", port, "POST", "/v1/sweep", body=body
            )
            _, _, raw = await http_request(
                "127.0.0.1", port, "POST", "/v1/sweep", body=body
            )
            lines = [json.loads(l) for l in raw.decode().splitlines()]
            done = lines[-1]
            assert done["sources"] == {"cache": 2}

        _serve(t, cache_dir=str(tmp_path / "cache"))

    def test_sweep_validates_body(self):
        async def t(server, port):
            st, _, _ = await http_request(
                "127.0.0.1", port, "POST", "/v1/sweep", body={}
            )
            assert st == 400
            st, _, _ = await http_request(
                "127.0.0.1",
                port,
                "POST",
                "/v1/sweep",
                body={"networks": ["ring:4"], "layers": ["two"]},
            )
            assert st == 400

        _serve(t)


class TestIntrospection:
    def test_healthz_stats_metrics(self, tmp_path):
        async def t(server, port):
            st, _, body = await http_request(
                "127.0.0.1", port, "GET", "/healthz"
            )
            doc = json.loads(body)
            assert st == 200 and doc["ok"] and doc["workers_alive"] == 1
            await _post_layout(port, "ring:6")
            await _post_layout(port, "ring:6")
            st, _, body = await http_request(
                "127.0.0.1", port, "GET", "/stats"
            )
            stats = json.loads(body)
            assert stats["built"] == 1 and stats["hits"] == 1
            assert stats["pool"]["workers"] == 1
            st, _, body = await http_request(
                "127.0.0.1", port, "GET", "/metrics"
            )
            text = body.decode()
            assert st == 200
            assert "repro_serve_requests_total" in text
            assert "repro_serve_request_ms_bucket" in text

        _serve(t, cache_dir=str(tmp_path / "cache"))

    def test_healthz_unhealthy_without_live_workers(self):
        async def t(server, port):
            for proc in server.pool._procs:
                os.kill(proc.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while True:
                st, _, body = await http_request(
                    "127.0.0.1", port, "GET", "/healthz"
                )
                if st == 503 or time.monotonic() > deadline:
                    break
                await asyncio.sleep(0.05)
            doc = json.loads(body)
            assert st == 503
            assert doc["ok"] is False and doc["workers_alive"] == 0

        _serve(t, workers=2)

    def test_keepalive_serves_multiple_requests(self, tmp_path):
        async def t(server, port):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            from repro.serve.protocol import json_body, read_response

            try:
                for _ in range(3):
                    payload = json_body(
                        {"network": "ring:6", "layers": 2}
                    )
                    writer.write(
                        (
                            "POST /v1/layout HTTP/1.1\r\n"
                            f"Host: x\r\nContent-Length: {len(payload)}"
                            "\r\nContent-Type: application/json\r\n\r\n"
                        ).encode()
                        + payload
                    )
                    await writer.drain()
                    st, _, body = await read_response(reader)
                    assert st == 200
            finally:
                writer.close()

        _serve(t, cache_dir=str(tmp_path / "cache"))


class TestQuotaUnits:
    """Token buckets and the gate, driven by a fake clock."""

    def test_bucket_refills_continuously(self):
        bucket = TokenBucket(rate=2.0, burst=4.0, now=0.0)
        assert all(bucket.try_take(1, 0.0) for _ in range(4))
        assert not bucket.try_take(1, 0.0)
        assert bucket.retry_after(1) == pytest.approx(0.5)
        assert bucket.try_take(1, 0.5)  # 0.5s x 2/s = 1 token
        assert not bucket.try_take(4, 1.0)  # only 1 token refilled
        assert bucket.try_take(4, 10.0)  # refill capped at burst = 4

    def test_manager_disabled_admits_everything(self):
        q = QuotaManager(rate=0.0)
        assert q.admit("anyone", 10_000) == (True, 0.0)

    def test_manager_isolates_clients(self):
        clock = [0.0]
        q = QuotaManager(rate=1.0, burst=2.0, clock=lambda: clock[0])
        assert q.admit("a")[0] and q.admit("a")[0]
        ok, retry = q.admit("a")
        assert not ok and retry == pytest.approx(1.0)
        assert q.admit("b")[0]  # separate bucket
        clock[0] = 2.0
        assert q.admit("a")[0]  # refilled

    def test_oversized_cost_reports_infinite_retry(self):
        q = QuotaManager(rate=1.0, burst=2.0)
        ok, retry = q.admit("a", cost=5.0)
        assert not ok and retry == float("inf")

    def test_gate_counts_and_limits(self):
        gate = AdmissionGate(limit=2)
        assert gate.try_enter() and gate.try_enter()
        assert not gate.try_enter()
        assert gate.snapshot()["rejected"] == 1
        gate.leave()
        assert gate.try_enter()
        unlimited = AdmissionGate(limit=0)
        assert all(unlimited.try_enter() for _ in range(100))
