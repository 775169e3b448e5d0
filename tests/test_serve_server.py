"""Asyncio serving server: concurrency, backpressure, drain, dashboards."""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.core.policies import origin_policy
from repro.errors import ConfigurationError, ServeError
from repro.obs.observer import Observability
from repro.obs.runs import RunRegistry
from repro.obs.watch import render_frame, snapshot_run_dir
from repro.serve.client import (
    live_session,
    record_tape,
    replay_session,
    run_load,
)
from repro.serve.protocol import read_frame, write_frame
from repro.serve.server import ServeServer
from repro.serve.session import EngineCatalog, ServeProfile


@pytest.fixture(scope="module")
def catalog(tiny_experiment):
    return EngineCatalog(
        [ServeProfile.from_experiment("default", tiny_experiment)]
    )


@pytest.fixture(scope="module")
def tape(tiny_experiment):
    return record_tape(tiny_experiment, origin_policy(6), seed=9)


def with_server(catalog, body, **server_kwargs):
    """Start a server, run ``body(server)``, always drain cleanly."""

    async def go():
        server = ServeServer(catalog, **server_kwargs)
        await server.start()
        try:
            result = await body(server)
        finally:
            await server.stop()
        orphans = [
            task
            for task in asyncio.all_tasks()
            if task is not asyncio.current_task()
        ]
        return result, server, orphans

    return asyncio.run(go())


class TestIdentity:
    def test_live_session_matches_offline_run(self, catalog, tiny_experiment):
        policy = origin_policy(6)

        async def body(server):
            return await live_session(
                "127.0.0.1", server.port, tiny_experiment, policy, seed=9
            )

        result, _, _ = with_server(catalog, body)
        offline = tiny_experiment.run(policy, seed=9)
        assert result.labels == [r.predicted_label for r in offline.records]
        assert result.actives == [list(r.active_nodes) for r in offline.records]
        assert not any(result.shed)

    def test_concurrent_replay_sessions_byte_identical(self, catalog, tape):
        async def body(server):
            return await run_load("127.0.0.1", server.port, [tape], 10)

        stats, server, _ = with_server(catalog, body, obs=Observability())
        assert stats.sessions == 10
        assert stats.mismatches == 0
        assert stats.shed == 0  # block policy: backpressure, never shed
        assert stats.windows == 10 * tape.n_windows
        counters = server.stats()
        assert counters["serve.windows"] == stats.windows
        assert counters["serve.decisions"] == stats.windows
        assert counters["serve.sessions.opened"] == 10
        assert counters["serve.sessions.closed"] == 10


class TestBackpressure:
    def test_slow_shed_server_accounts_for_every_window(self, catalog, tape):
        async def body(server):
            return await replay_session(
                "127.0.0.1", server.port, tape, check=False
            )

        result, server, _ = with_server(
            catalog,
            body,
            overload="shed",
            queue_size=4,
            shed_watermark=1,
            worker_pause_s=0.002,
            obs=Observability(),
        )
        shed = sum(result.shed)
        assert shed > 0
        assert result.stats["windows"] == tape.n_windows
        assert result.stats["decisions"] + result.stats["shed"] == tape.n_windows
        assert server.stats()["serve.windows.shed"] == shed
        # Shed decisions still carry the next active set: the device's
        # schedule never stalls.
        assert len(result.actives) == tape.n_windows

    def test_constructor_validation(self, catalog):
        with pytest.raises(ConfigurationError):
            ServeServer(catalog, overload="panic")
        with pytest.raises(ConfigurationError):
            ServeServer(catalog, queue_size=0)
        with pytest.raises(ConfigurationError):
            ServeServer(catalog, shed_watermark=-1)
        with pytest.raises(ConfigurationError):
            ServeServer(catalog, worker_pause_s=-0.5)

    def test_port_unavailable_before_start(self, catalog):
        with pytest.raises(ServeError, match="not started"):
            ServeServer(catalog).port


class TestLifecycle:
    def test_graceful_drain_leaves_no_orphan_tasks(self, catalog, tape):
        async def body(server):
            return await run_load("127.0.0.1", server.port, [tape], 4)

        _, _, orphans = with_server(catalog, body)
        assert orphans == []

    def test_protocol_violation_answered_then_closed(self, catalog, tape):
        async def body(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                await write_frame(writer, tape.windows[0])  # before hello
                error = await read_frame(reader)
                assert error["type"] == "error"
                assert "hello" in error["message"]
                assert await read_frame(reader) is None  # server hung up
            finally:
                writer.close()
            return error

        with_server(catalog, body)

    def test_hostile_report_answered_with_error_frame(self, catalog, tape):
        async def body(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                await write_frame(writer, tape.hello)
                assert (await read_frame(reader))["type"] == "hello_ack"
                stranger = [99, 0, 0, True, True, 1, 0.1, None]
                await write_frame(writer, dict(tape.windows[0], reports=[stranger]))
                error = await read_frame(reader)
                assert error["type"] == "error"
                assert "node 99" in error["message"]
                assert await read_frame(reader) is None  # server hung up
            finally:
                writer.close()
            # The server survives to serve a real session.
            return await replay_session("127.0.0.1", server.port, tape)

        result, _, _ = with_server(catalog, body)
        assert result.mismatches == 0

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n_windows", "abc", "n_windows must be an integer"),
            ("policy", dict(rr_length=4), "cannot run policy"),
        ],
        ids=["n_windows-string", "unschedulable-policy"],
    )
    def test_malformed_hello_answered_with_error_frame(
        self, catalog, tape, field, value, message
    ):
        if field == "policy":
            value = dict(tape.hello["policy"], **value)

        async def body(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                await write_frame(writer, dict(tape.hello, **{field: value}))
                error = await read_frame(reader)
                assert error is not None and error["type"] == "error"
                assert message in error["message"]
                assert await read_frame(reader) is None  # server hung up
            finally:
                writer.close()
            # The server survives to serve a real session.
            return await replay_session("127.0.0.1", server.port, tape)

        result, _, _ = with_server(catalog, body)
        assert result.mismatches == 0

    def test_malformed_bytes_drop_connection_not_server(self, catalog, tape):
        async def body(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"\x00\x00\x00\x04hoho")
            await writer.drain()
            error = await read_frame(reader)
            assert error["type"] == "error"
            writer.close()
            # The server survives to serve a real session.
            return await replay_session("127.0.0.1", server.port, tape)

        result, _, _ = with_server(catalog, body)
        assert result.mismatches == 0


class TestObservability:
    def test_run_dir_registry_and_watch_frame(self, catalog, tape, tmp_path):
        run_dir = str(tmp_path / "serve-run")
        registry = RunRegistry(str(tmp_path / "registry"))

        async def body(server):
            return await run_load("127.0.0.1", server.port, [tape], 3)

        _, server, _ = with_server(
            catalog,
            body,
            run_dir=run_dir,
            registry=registry,
            session_traces=True,
        )
        assert os.path.exists(os.path.join(run_dir, "timeseries.jsonl"))

        # Registered for cross-run comparison, salient counter included.
        assert server.run_id is not None
        record = registry.load(server.run_id)
        assert record.kind == "serve"
        assert record.counters["serve.windows"] == 3 * tape.n_windows
        assert "serve.windows" in record.headline()

        # Per-session decision traces (the offline runs' event kinds).
        sessions_dir = os.path.join(run_dir, "sessions")
        traces = sorted(os.listdir(sessions_dir))
        assert len(traces) == 3

        # The golden --once frame: serve-specific dashboard lines.
        frame = render_frame(snapshot_run_dir(run_dir))
        assert frame.splitlines()[0].startswith("serve run ·")
        assert "sessions  active 0 · opened 3 · closed 3" in frame
        assert "windows   " in frame and "ingested" in frame
        assert f"decisions {3 * tape.n_windows}" in frame
        marks = [
            mark["label"]
            for mark in snapshot_run_dir(run_dir).marks
        ]
        assert marks[0] == "serve.run.started"
        assert marks[-1] == "serve.run.finished"
