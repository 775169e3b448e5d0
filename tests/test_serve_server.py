"""Asyncio serving server: concurrency, backpressure, drain, dashboards."""

from __future__ import annotations

import asyncio
import json
import os
import socket
import struct

import numpy as np
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
from repro.serve import server as server_module
from repro.serve.protocol import MAX_FRAME_BYTES, encode_frame, read_frame, write_frame
from repro.serve.server import ServeServer, _Connection
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

    def test_stop_during_a_half_sent_frame(self, catalog, tape):
        async def go():
            server = ServeServer(catalog, drain_timeout_s=0.2)
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            await write_frame(writer, tape.hello)
            assert (await read_frame(reader))["type"] == "hello_ack"
            window = encode_frame(tape.windows[0])
            writer.write(window[: len(window) // 2])
            (connection,) = server._connections
            for _ in range(1000):
                if connection._buffer:
                    break
                await asyncio.sleep(0.001)
            assert connection._buffer
            await server.stop()
            assert connection.lost.done() and connection.transport.is_closing()
            assert not server._connections
            try:
                assert await reader.read() == b""
            except ConnectionError:
                pass  # the abort reset the connection
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
            return [task for task in asyncio.all_tasks() if task is not asyncio.current_task()]

        assert asyncio.run(go()) == []

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


def raw_frame(payload: bytes) -> bytes:
    """A length prefix plus ``payload``, whatever the payload holds."""
    return struct.pack(">I", len(payload)) + payload


async def expect_error_then_hangup(reader, message):
    error = await read_frame(reader)
    assert error is not None and error["type"] == "error", error
    assert message in error["message"]
    assert await read_frame(reader) is None  # server hung up
    return error


class TestHostileFrames:
    """Frames that once escaped ``Session.handle`` as a python error end
    in an ``error`` frame, and the server serves the next device."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda tape: encode_frame(dict(tape.windows[0], type=["window"])), "unknown frame type"),
            (
                lambda tape: encode_frame(
                    dict(tape.hello, states={k: [10**400, True, True] for k in tape.hello["states"]})
                ),
                "bad node states",
            ),
            (lambda tape: raw_frame(b'{"type": "bye", "n": ' + b"9" * 5000 + b"}"), "undecodable"),
            (
                lambda tape: raw_frame(b'{"type": "bye", "n": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"),
                "undecodable",
            ),
        ],
        ids=["list-type", "huge-energy", "integer-past-digit-limit", "deep-nesting"],
    )
    def test_first_frame_answered_with_error(self, catalog, tape, build, message):
        async def body(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                writer.write(build(tape))
                await expect_error_then_hangup(reader, message)
            finally:
                writer.close()
            return await replay_session("127.0.0.1", server.port, tape)

        result, _, orphans = with_server(catalog, body)
        assert result.mismatches == 0
        assert orphans == []

    @pytest.mark.parametrize(
        "report, message",
        [
            ([0, 0, 0, True, True, 1, 10**400, None], "confidence must be finite"),
            # The message quotes the report; escaped, its repr would
            # outgrow MAX_FRAME_BYTES.
            ([0, 0, 0, True, True, "\U0001f600" * 200_000, 0.1, None], "must be integers"),
        ],
        ids=["huge-confidence", "huge-quoted-report"],
    )
    def test_window_answered_with_error(self, catalog, tape, report, message):
        async def body(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                await write_frame(writer, tape.hello)
                assert (await read_frame(reader))["type"] == "hello_ack"
                frame = dict(tape.windows[0], reports=[report])
                writer.write(raw_frame(json.dumps(frame, ensure_ascii=False).encode("utf-8")))
                error = await expect_error_then_hangup(reader, message)
                assert len(error["message"]) <= server_module.MAX_ERROR_CHARS + 3
            finally:
                writer.close()
            return await replay_session("127.0.0.1", server.port, tape)

        result, _, _ = with_server(catalog, body)
        assert result.mismatches == 0


class FakeTransport(asyncio.Transport):
    """What a connection sees of its socket: writes, read pauses, closes."""

    def __init__(self) -> None:
        super().__init__()
        self.written = bytearray()
        self.reading = True
        self.closing = False

    def write(self, data) -> None:
        self.written += data

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True

    def is_reading(self) -> bool:
        return self.reading

    def close(self) -> None:
        self.closing = True

    def abort(self) -> None:
        self.closing = True

    def is_closing(self) -> bool:
        return self.closing

    def replies(self):
        """The frames written so far, decoded."""
        out, data = [], bytes(self.written)
        while data:
            (length,) = struct.unpack(">I", data[:4])
            out.append(json.loads(data[4 : 4 + length]))
            data = data[4 + length :]
        return out


def with_connection(catalog, body, **server_kwargs):
    """Run ``body(connection, transport)`` on a connection over a fake
    transport: every ``data_received`` call is one socket read."""

    async def go():
        connection = _Connection(ServeServer(catalog, **server_kwargs))
        transport = FakeTransport()
        connection.connection_made(transport)
        try:
            return await body(connection, transport)
        finally:
            if not connection.lost.done():
                connection.connection_lost(None)

    return asyncio.run(go())


def tiny_windows(count: int):
    """Valid windows that carry no reports and no next states."""
    return [encode_frame({"type": "window", "slot": slot, "reports": []}) for slot in range(count)]


class TestFraming:
    """The connection parses frames out of whatever the socket delivers."""

    def test_one_byte_per_write(self, catalog, tape):
        async def body(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                got = []
                for frame in [tape.hello] + tape.windows[:20] + [{"type": "bye"}]:
                    for byte in encode_frame(frame):
                        writer.write(bytes([byte]))
                        await writer.drain()
                        await asyncio.sleep(0)
                    got.append(await read_frame(reader))
                return got
            finally:
                writer.close()

        got, _, _ = with_server(catalog, body)
        assert got[0]["active"] == tape.expected_active[0]
        assert [reply["label"] for reply in got[1:-1]] == tape.expected_labels[:20]
        assert got[-1]["type"] == "bye_ack"

    def test_one_byte_per_read(self, catalog, tape):
        async def body(connection, transport):
            data = b"".join(encode_frame(frame) for frame in [tape.hello] + tape.windows)
            for index in range(len(data)):
                connection.data_received(data[index : index + 1])
            return transport.replies()

        replies = with_connection(catalog, body)
        assert [reply["label"] for reply in replies[1:]] == tape.expected_labels

    @pytest.mark.parametrize("seed", range(8))
    def test_any_chunking_answers_alike(self, catalog, tape, seed):
        rng = np.random.default_rng(seed)
        data = b"".join(encode_frame(frame) for frame in [tape.hello] + tape.windows)
        cuts = np.sort(rng.choice(len(data), size=rng.integers(1, 200), replace=False))

        async def body(connection, transport):
            for chunk in np.split(np.frombuffer(data, dtype=np.uint8), cuts):
                connection.data_received(chunk.tobytes())
                await asyncio.sleep(0)
            for _ in range(len(tape.windows)):
                await asyncio.sleep(0)
            return transport.replies()

        replies = with_connection(catalog, body, queue_size=3)
        assert replies[0]["active"] == tape.expected_active[0]
        assert [reply["label"] for reply in replies[1:]] == tape.expected_labels

    def test_many_frames_in_one_write(self, catalog, tape):
        async def body(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                frames = [tape.hello] + tape.windows + [{"type": "bye"}]
                writer.write(b"".join(encode_frame(frame) for frame in frames))
                return [await read_frame(reader) for _ in frames], await read_frame(reader)
            finally:
                writer.close()

        (got, after), server, _ = with_server(catalog, body, obs=Observability())
        assert [reply["label"] for reply in got[1:-1]] == tape.expected_labels
        assert not any(reply["shed"] for reply in got[1:-1])  # block never sheds
        assert got[-1]["type"] == "bye_ack" and after is None
        assert server.stats()["serve.decisions"] == tape.n_windows

    def test_many_frames_in_one_read_yield_after_queue_size(self, catalog, tape):
        async def body(connection, transport):
            frames = [tape.hello] + tape.windows
            connection.data_received(b"".join(encode_frame(frame) for frame in frames))
            # One callback answers queue_size frames, pauses reading while
            # more are buffered, and lets the event loop run the rest.
            assert len(transport.replies()) == 4
            assert not transport.reading
            for _ in range(len(frames)):
                await asyncio.sleep(0)
            assert transport.reading
            return transport.replies()

        replies = with_connection(catalog, body, queue_size=4)
        assert [reply["label"] for reply in replies[1:]] == tape.expected_labels

    def test_oversized_prefix_answered_before_any_payload(self, catalog, tape):
        async def body(connection, transport):
            oversized = struct.pack(">I", MAX_FRAME_BYTES + 1)
            connection.data_received(encode_frame(tape.hello) + oversized + b"x" * 1000)
            assert transport.closing  # nothing waited before it: answered at once
            assert connection._buffer == b""  # the payload was never kept
            connection.data_received(b"y" * 1000)  # already in flight: dropped
            assert connection._buffer == b""
            return transport.replies(), transport.closing

        replies, closing = with_connection(catalog, body)
        assert [reply["type"] for reply in replies] == ["hello_ack", "error"]
        assert "MAX_FRAME_BYTES" in replies[1]["message"]
        assert closing

    def test_oversized_prefix_over_a_socket(self, catalog, tape):
        async def body(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                writer.write(encode_frame(tape.hello) + struct.pack(">I", MAX_FRAME_BYTES + 1))
                assert (await read_frame(reader))["type"] == "hello_ack"
                await expect_error_then_hangup(reader, "MAX_FRAME_BYTES")
            finally:
                writer.close()
            return await replay_session("127.0.0.1", server.port, tape)

        result, _, _ = with_server(catalog, body)
        assert result.mismatches == 0

    @pytest.mark.parametrize("cut, message", [(2, "mid-prefix"), (20, "mid-frame")])
    def test_eof_inside_a_frame(self, catalog, tape, cut, message):
        async def body(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                writer.write(encode_frame(tape.hello) + encode_frame(tape.windows[0])[:cut])
                writer.write_eof()
                # The frames before the cut are still answered.
                assert (await read_frame(reader))["type"] == "hello_ack"
                await expect_error_then_hangup(reader, message)
            finally:
                writer.close()

        _, server, orphans = with_server(catalog, body, obs=Observability())
        assert server.stats()["serve.sessions.closed"] == 1
        assert orphans == []

    def test_eof_between_frames_closes_quietly(self, catalog, tape):
        async def body(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                writer.write(encode_frame(tape.hello) + encode_frame(tape.windows[0]))
                writer.write_eof()
                replies = [await read_frame(reader), await read_frame(reader)]
                assert await read_frame(reader) is None
                return replies
            finally:
                writer.close()

        replies, _, _ = with_server(catalog, body)
        assert [reply["type"] for reply in replies] == ["hello_ack", "decision"]


class TestStalledDevice:
    """``block``: a device that stops reading stops being read."""

    def test_write_pause_stops_answers_and_reads(self, catalog, tape):
        async def body(connection, transport):
            windows = tiny_windows(8)
            connection.data_received(encode_frame(dict(tape.hello, n_windows=1000)) + windows[0])
            connection.pause_writing()  # the device stopped reading
            assert not transport.reading
            # A read already in flight still lands; it is buffered, not answered.
            connection.data_received(windows[1] + windows[2] + windows[3][:5])
            assert len(connection.frames) == 2 and len(connection._buffer) == 5
            for _ in range(10):
                await asyncio.sleep(0)
            assert len(transport.replies()) == 2  # hello_ack and window 0
            connection.resume_writing()
            for _ in range(10):
                await asyncio.sleep(0)
            assert transport.reading and len(transport.replies()) == 4
            connection.data_received(windows[3][5:] + b"".join(windows[4:]))
            return transport.replies(), transport.reading

        replies, reading = with_connection(catalog, body)
        assert [reply["slot"] for reply in replies[1:]] == list(range(8))
        assert reading

    def test_reading_pauses_once_queue_size_frames_wait(self, catalog, tape):
        async def body(connection, transport):
            frames = [encode_frame(dict(tape.hello, n_windows=1000))] + tiny_windows(7)
            for frame in frames[:5]:
                connection.data_received(frame)
            # The hello waits out its pause; four windows wait behind it.
            assert len(connection.frames) == 4 and not transport.reading
            connection.data_received(frames[5][:3])  # in flight: a partial frame
            assert len(connection.frames) == 4 and len(connection._buffer) == 3
            while len(transport.replies()) < 5:
                await asyncio.sleep(0.005)
            assert transport.reading
            connection.data_received(frames[5][3:] + frames[6] + frames[7])
            while len(transport.replies()) < 8:
                await asyncio.sleep(0.005)
            return transport.replies()

        replies = with_connection(catalog, body, queue_size=4, worker_pause_s=0.002)
        assert [reply["slot"] for reply in replies[1:]] == list(range(7))

    def test_stalled_reader_over_a_socket(self, catalog, tape):
        def buffered(connection):
            return sum(len(payload) for payload, _ in connection.frames) + len(connection._buffer)

        async def body(server):
            device = socket.socket()
            # Small socket buffers, so the server's writes back up quickly.
            device.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            device.setblocking(False)
            await asyncio.get_running_loop().sock_connect(device, ("127.0.0.1", server.port))
            reader, writer = await asyncio.open_connection(sock=device)
            try:
                writer.write(encode_frame(dict(tape.hello, n_windows=100_000)))
                assert (await read_frame(reader))["type"] == "hello_ack"
                (connection,) = server._connections
                connection.transport.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
                )
                connection.transport.set_write_buffer_limits(high=4096)
                writer.transport.pause_reading()  # the device stops reading
                windows = tiny_windows(60_000)
                sent = 0
                while not connection._write_paused:
                    writer.write(windows[sent])
                    sent += 1
                    await asyncio.sleep(0)
                await asyncio.sleep(0.01)
                assert not connection.transport.is_reading()
                held = buffered(connection)
                # The device keeps writing; the server reads none of it.
                writer.write(b"".join(windows[sent : sent + 2000]))
                sent += 2000
                await asyncio.sleep(0.02)
                assert not connection.transport.is_reading()
                assert buffered(connection) == held
                writer.transport.resume_reading()
                slots = [(await read_frame(reader))["slot"] for _ in range(sent)]
                return slots, sent
            finally:
                writer.close()

        (slots, sent), _, orphans = with_server(catalog, body)
        assert slots == list(range(sent))
        assert orphans == []


class TestLatency:
    def test_metrics_on_server_times_every_window(self, catalog, tape):
        async def body(server):
            return await run_load("127.0.0.1", server.port, [tape], 3)

        stats, server, _ = with_server(catalog, body, obs=Observability())
        histogram = server.obs.metrics.to_dict()["histograms"]["serve.latency_ms"]
        assert histogram["count"] == stats.windows == 3 * tape.n_windows
        assert sum(histogram["counts"]) == histogram["count"]
        assert 0 < histogram["min"] <= histogram["max"]

    def test_metrics_off_server_times_nothing(self, catalog, tape, monkeypatch):
        calls = []

        def clock():
            calls.append(1)
            return 0.0

        monkeypatch.setattr(server_module, "perf_counter", clock)

        async def body(server):
            return await replay_session("127.0.0.1", server.port, tape)

        result, server, _ = with_server(catalog, body)
        assert result.mismatches == 0
        assert calls == []


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
