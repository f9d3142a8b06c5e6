"""The serve workload's server process.

Opens an embedding store, builds a :class:`QueryServer` over it, binds a
loopback TCP port and prints ``READY <host> <port>`` on stdout.
Control lines arrive on stdin:

* ``start`` begins the scripted upserts: after every
  ``UPSERT_EVERY`` answered requests one batch from
  :func:`inputs.upsert_batch` goes through ``QueryServer.upsert``,
  inside this process's event loop, so writes sit beside reads on the
  snapshot layer. The schedule counts requests, not seconds: each
  upsert empties the result cache, and a timed schedule would give a
  slower machine fewer cache hits per upsert, so the work per request
  would depend on the machine's speed;
* ``stop`` ends them and answers ``STOPPED <version>``;
* end of input shuts the server down. The process then prints one JSON
  line with its counters, CPU seconds, peak RSS, upsert timings and
  spans, and exits.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys

import numpy as np

from inputs import UPSERT_EVERY, upsert_batch
from spans import Tracer

from repro.serving.server import QueryServer
from repro.serving.store import EmbeddingStore


class ScriptedUpserts:
    """Replays the deterministic upsert script against a running server."""

    def __init__(self, server: QueryServer, seed: int):
        self.server = server
        self.seed = seed
        self.keys = np.asarray(server.snapshots.current.store.keys)
        self.dim = server.snapshots.current.store.dimensions
        self.seconds: list[float] = []
        self.cache_hits = 0
        self.cache_misses = 0
        self.task: asyncio.Task | None = None

    def harvest(self) -> None:
        stats = self.server.snapshots.current.service.stats()
        self.cache_hits += int(stats["cache_hits"])
        self.cache_misses += int(stats["cache_misses"])

    async def _loop(self, tracer: Tracer) -> None:
        due = self.server.counters["answered"]
        while True:
            due += UPSERT_EVERY
            while self.server.counters["answered"] < due:
                await asyncio.sleep(0.005)
            keys, vectors = upsert_batch(self.seed, len(self.seconds) + 1, self.keys, self.dim)
            # each publish starts a fresh service, so its cache counters
            # are collected from the outgoing version first
            self.harvest()
            with tracer.span("server.upsert") as sp:
                self.server.upsert(keys, vectors)
            self.seconds.append(sp.seconds)

    def start(self, tracer: Tracer) -> None:
        self.task = asyncio.create_task(self._loop(tracer))

    async def stop(self) -> None:
        if self.task is not None:
            self.task.cancel()
            try:
                await self.task
            except asyncio.CancelledError:
                pass
            self.task = None


async def serve(args) -> dict:
    tracer = Tracer(args.trace)
    with tracer.span("serving.store_open"):
        store = EmbeddingStore.open(args.store)
    with tracer.span("serving.index_build"):
        server = QueryServer(store)
    host, port = await server.start_tcp()
    print(f"READY {host} {port}", flush=True)

    upserts = ScriptedUpserts(server, args.seed)
    loop = asyncio.get_running_loop()
    control = asyncio.StreamReader()
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(control), sys.stdin)
    try:
        while line := (await control.readline()).decode().strip():
            if line == "start":
                upserts.start(tracer)
            elif line == "stop":
                await upserts.stop()
                print(f"STOPPED {server.snapshots.version}", flush=True)
    finally:
        await upserts.stop()
        upserts.harvest()
        stats = server.stats()
        await server.stop()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "counters": {k: stats[k] for k in ("received", "answered", "shed", "errors",
                                            "batches", "batched_requests", "coalesced_keys")},
        "p50_ms_bucketed": stats["p50_ms"],
        "p99_ms_bucketed": stats["p99_ms"],
        "version": stats["snapshot"]["version"],
        "cache_hits": upserts.cache_hits,
        "cache_misses": upserts.cache_misses,
        "upsert_seconds": upserts.seconds,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "spans": tracer.rows(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, required=True)
    args = parser.parse_args(argv)
    report = asyncio.run(serve(args))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
