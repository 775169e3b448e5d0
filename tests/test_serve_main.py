"""The ``python -m repro.serve`` CLI against an in-process server."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.serve import __main__ as cli
from repro.serve.server import ServeServer
from repro.serve.session import EngineCatalog, ServeProfile


@pytest.fixture
def server_port(tiny_experiment, monkeypatch):
    """A server on its own loop thread; the CLI builds the tiny experiment.

    ``main`` runs its command with ``asyncio.run``, so the server it
    talks to needs a loop of its own.
    """
    monkeypatch.setattr(cli, "_build_experiment", lambda args: tiny_experiment)
    catalog = EngineCatalog([ServeProfile.from_experiment("default", tiny_experiment)])
    server = ServeServer(catalog)
    loop = asyncio.new_event_loop()
    loop.run_until_complete(server.start())
    thread = threading.Thread(target=loop.run_forever)
    thread.start()
    try:
        yield server.port
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(timeout=30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
        assert not thread.is_alive()
        loop.close()


def replay(port):
    return cli.main(["replay", "--port", str(port), "--policy", "origin6", "--seed", "9"])


class TestReplay:
    def test_identical_stream_exits_zero(self, server_port, tiny_experiment, capsys):
        assert replay(server_port) == 0
        out = capsys.readouterr().out
        n = tiny_experiment.config.n_windows
        assert f"{n}/{n} match offline; active sets match" in out
        assert "byte-identical to HARExperiment.run: OK" in out

    def test_altered_active_set_exits_one(
        self, server_port, tiny_experiment, monkeypatch, capsys
    ):
        """Right labels on a wrong schedule are a mismatch too."""
        live_session = cli.live_session

        async def one_active_set_altered(*args, **kwargs):
            served = await live_session(*args, **kwargs)
            served.actives[1] = served.actives[1] + [-1]
            return served

        monkeypatch.setattr(cli, "live_session", one_active_set_altered)
        assert replay(server_port) == 1
        out = capsys.readouterr().out
        n = tiny_experiment.config.n_windows
        assert f"{n}/{n} match offline; active sets DIFFER" in out
        assert "MISMATCH" in out
