"""The serving process of the ``serve_open`` workload.

Started by the benchmark with ``python3 perfbench/server_main.py``.  It
loads the standard bundle from the warm store, serves it through a
:class:`repro.serve.ServeServer` (``overload="block"``) on a free local
port and prints ``ready <port>``.  It then obeys one command per stdin
line and answers each with one JSON line on stdout:

* ``begin`` starts a measured segment (CPU and wall clocks, spans);
* ``end`` closes it and reports the segment's totals, with the host
  speed factor of calibration passes run at both ends;
* ``stop`` drains the server and exits.

With ``--trace 1`` the codec, session and engine entry points are
wrapped before the server starts, so the totals split the server's time
by layer.  Every span of one window carries that window's
``(session, slot)`` id.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import time
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402  (sets the environment before numpy loads)
import layers  # noqa: E402
from tracer import Tracer, layer_self_times, unattributed  # noqa: E402


def segment_totals(tracer: Optional[Tracer], start: float, end: float, cpu_s: float) -> Dict[str, Any]:
    """Layer totals of the spans recorded inside ``[start, end]``."""
    if tracer is None:
        return {}
    report: Dict[str, Any] = layers.serve_totals(tracer, cpu_s)
    report["engine.slots"] = tracer.counters.get("engine.slots", 0.0)
    report["unattributed_s"] = unattributed(tracer.spans, start, end)
    report["layers"] = layer_self_times(tracer.spans)
    return report


async def serve(windows: int, trace: bool) -> None:
    from repro.serve.server import ServeServer
    from repro.serve.session import EngineCatalog, ServeProfile

    exp, _ = common.experiment(windows)
    tracer: Optional[Tracer] = None
    if trace:
        tracer = Tracer()
        tracer.install(layers.serve_probes(tracer))
    server = ServeServer(
        EngineCatalog([ServeProfile.from_experiment("default", exp)]), overload="block"
    )
    await server.start()
    print(f"ready {server.port}", flush=True)
    loop = asyncio.get_running_loop()
    wall0 = cpu0 = 0.0
    passes: List[float] = []
    try:
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            command = line.strip()
            if command == "begin":
                passes = [common.calibrate()]
                if tracer is not None:
                    tracer.spans.clear()
                    tracer.counters.clear()
                wall0, cpu0 = time.perf_counter(), time.process_time()
            elif command == "end":
                wall1, cpu1 = time.perf_counter(), time.process_time()
                report = {
                    "wall_s": wall1 - wall0,
                    "cpu_s": cpu1 - cpu0,
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                }
                report.update(segment_totals(tracer, wall0, wall1, cpu1 - cpu0))
                passes.append(common.calibrate())
                report["speed"] = common.speed(passes)
                print(json.dumps(report), flush=True)
            elif command == "stop" or not line:
                break
    finally:
        await server.stop()
        if tracer is not None:
            tracer.uninstall()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--windows", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    asyncio.run(serve(args.windows, bool(args.trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
