"""The serve phase: closed-loop keep-alive clients against repro-serve.

Set-up publishes the seed's small campaign into a fresh store (an
in-process ``run_campaign`` with ``store=``) and starts ``repro-serve``
on it as a subprocess; it is repeated :data:`SETUPS` times and the
median reported.  Two HTTP/1.1 keep-alive clients then each send their
next request only when the previous reply is complete, walking the
seed's query list.  Every reply must be status 200 and byte-equal to
what the store holds for that route; anything else, including a refused
or reset connection, is a failed request.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import pstats
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import inputs, layers, stats
from perfbench.common import (
    Context, Outcome, probe, reference_median,
)

#: Closed-loop clients (one keep-alive connection each).
CLIENTS = 2
#: Set-ups per timed run; the median is ``setup_s``.
SETUPS = 2
#: Length of the seeded query list the clients cycle through.
QUERIES = 512
#: The timed loop runs until this many replies arrived (and the time is
#: up); ``serve_p99_ms`` then has four samples beyond it.
MIN_SAMPLES = 450
#: Requests of each pass of the traced run (split over the clients).
TRACE_REQUESTS = 240
#: Probe runs before and after each set-up (about 0.1 s each time).
PROBE_REPEATS = 50
#: Seconds to wait for a server to come up or go down.
SERVER_TIMEOUT = 30.0

STORE_READS = [("repro.campaign.store", "ArtifactStore.get_bytes"),
               ("repro.campaign.store", "ArtifactStore.get_text"),
               ("repro.campaign.store", "ArtifactStore.get_index"),
               ("repro.campaign.store", "ArtifactStore.index_bytes"),
               ("repro.campaign.store", "ArtifactStore.has_blob"),
               ("repro.campaign.store", "ArtifactStore.campaigns")]
HANDLER = [("repro.cli.serve", "ArtifactRequestHandler.do_GET")]

#: What a route must return: exact bytes, or a JSON value.
Expected = Tuple[str, object]


class ServeClient:
    """One keep-alive connection that checks every reply.

    A reply counts as a success only with status 200 and a body equal
    to the expectation.  A connection error (refused, reset, closed
    mid-reply) is a failure too; the next request reconnects.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(self, path: str, expected: Expected
                ) -> Tuple[bool, float, int, str]:
        """``(ok, latency seconds, body bytes, reason)`` for one GET."""
        started = time.perf_counter()
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout)
            self._conn.request("GET", path)
            response = self._conn.getresponse()
            body = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            return (False, time.perf_counter() - started, 0,
                    f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - started
        if response.status != 200:
            return False, latency, len(body), f"status {response.status}"
        if not _matches(body, expected):
            return False, latency, len(body), "body differs from the store"
        return True, latency, len(body), ""

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _matches(body: bytes, expected: Expected) -> bool:
    kind, value = expected
    if kind == "bytes":
        return body == value
    try:
        return json.loads(body) == value
    except ValueError:
        return False


def expectations(store, campaign: str,
                 paths: Sequence[str]) -> Dict[str, Expected]:
    """What each path must return, read from the store's public API.

    Text deliverables are served with one trailing newline; blobs,
    indexes and sweeps byte for byte; listings and entry records as
    JSON values.
    """
    index = store.get_index(campaign)
    expected: Dict[str, Expected] = {}
    for path in sorted(set(paths)):
        parts = path.strip("/").split("/")
        if parts == ["campaigns"]:
            expected[path] = ("json", store.campaigns())
        elif parts[0] == "artifacts":
            expected[path] = ("bytes", store.get_bytes(parts[1]))
        elif len(parts) == 2:
            expected[path] = ("bytes", store.index_bytes(campaign))
        else:
            record = index["entries"][parts[3]]
            rest = parts[4:]
            if not rest:
                expected[path] = ("json", record)
            elif rest == ["sweep"]:
                expected[path] = ("bytes", store.get_bytes(record["sweep"]))
            elif rest == ["figures"]:
                expected[path] = ("bytes",
                                  store.get_bytes(record["figures_all"])
                                  + b"\n")
            elif rest[0] == "figures":
                expected[path] = ("bytes",
                                  store.get_bytes(record["figures"][rest[1]])
                                  + b"\n")
            else:
                expected[path] = ("bytes",
                                  store.get_bytes(record["table1"]) + b"\n")
    return expected


@dataclasses.dataclass
class LoadResult:
    latencies: List[float]
    failures: List[str]
    bytes_ok: int
    wall_s: float

    @property
    def attempted(self) -> int:
        return len(self.latencies) + len(self.failures)


def closed_loop(port: int, queries: Sequence[str],
                expected: Dict[str, Expected], seconds: float = 0.0,
                requests: Optional[int] = None, min_samples: int = 0,
                max_seconds: float = 120.0) -> LoadResult:
    """Run :data:`CLIENTS` closed-loop clients over ``queries``.

    With ``requests`` each client sends exactly its share of that many;
    otherwise the clients run for ``seconds`` and on until
    ``min_samples`` replies arrived, never past ``max_seconds``.
    """
    latencies: List[List[float]] = [[] for _ in range(CLIENTS)]
    failures: List[List[str]] = [[] for _ in range(CLIENTS)]
    sizes = [0] * CLIENTS
    started = time.perf_counter()
    # Set when this function leaves early (the run was terminated), so
    # the clients stop instead of retrying a server that is going away.
    abandoned = threading.Event()

    def done(client: int, sent: int) -> bool:
        if abandoned.is_set():
            return True
        if requests is not None:
            return sent >= (requests - client + CLIENTS - 1) // CLIENTS
        elapsed = time.perf_counter() - started
        replies = sum(len(one) for one in latencies)
        return elapsed >= max_seconds or (elapsed >= seconds
                                          and replies >= min_samples)

    def worker(client: int) -> None:
        connection = ServeClient("127.0.0.1", port)
        position = client
        sent = 0
        try:
            while not done(client, sent):
                path = queries[position % len(queries)]
                position += CLIENTS
                sent += 1
                ok, latency, size, reason = connection.request(
                    path, expected[path])
                if ok:
                    latencies[client].append(latency)
                    sizes[client] += size
                else:
                    failures[client].append(f"{path}: {reason}")
        finally:
            connection.close()

    threads = [threading.Thread(target=worker, args=(client,))
               for client in range(CLIENTS)]
    for thread in threads:
        thread.start()
    try:
        for thread in threads:
            thread.join()
    finally:
        abandoned.set()
        for thread in threads:
            thread.join()
    return LoadResult(latencies=[x for one in latencies for x in one],
                      failures=[x for one in failures for x in one],
                      bytes_ok=sum(sizes),
                      wall_s=time.perf_counter() - started)


class Server:
    """A ``repro-serve`` subprocess on an ephemeral port."""

    def __init__(self, ctx: Context, store_root: Path, workdir: Path,
                 profile_out: Optional[Path] = None) -> None:
        port_file = workdir / "port"
        port_file.unlink(missing_ok=True)
        serve_args = [str(store_root), "--port", "0", "--port-file",
                      str(port_file), "--quiet"]
        if profile_out is None:
            command = [sys.executable, "-m", "repro.cli.serve", *serve_args]
        else:
            command = [sys.executable, "-m", "perfbench.serve_traced",
                       "--profile-out", str(profile_out), "--", *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ctx.src), str(ctx.root)])
        self._log = open(workdir / "server.log", "wb")
        self.process = subprocess.Popen(
            command, cwd=ctx.root, env=env, stdout=self._log,
            stderr=subprocess.STDOUT)
        deadline = time.perf_counter() + SERVER_TIMEOUT
        while True:
            try:
                self.port = int(port_file.read_text(encoding="utf-8"))
                break
            except (OSError, ValueError):
                pass
            if self.process.poll() is not None \
                    or time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError(
                    f"repro-serve did not start; see "
                    f"{(workdir / 'server.log').read_text(errors='replace')}")
            time.sleep(0.005)

    def stop(self) -> None:
        """Interrupt the server and wait until it has exited."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=SERVER_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def _publish(ctx: Context, manifest: Dict[str, object]):
    """Publish ``manifest`` into a fresh store; returns (dir, store)."""
    from repro.campaign import ArtifactStore, CampaignSpec, run_campaign
    from repro.exec import ResultCache

    root = ctx.fresh_dir("serve")
    store = ArtifactStore(root / "store")
    run_campaign(CampaignSpec.from_dict(manifest),
                 cache=ResultCache(root / "cache"), store=store)
    return root, store


def _setup(ctx: Context, manifest: Dict[str, object]):
    """Publish and start a server.

    Returns the measured seconds, the probes run just before and just
    after, and the store directory, store and server.
    """
    before = probe(time.perf_counter, PROBE_REPEATS)
    started = time.perf_counter()
    root, store = _publish(ctx, manifest)
    server = Server(ctx, store.root, root)
    seconds = time.perf_counter() - started
    after = probe(time.perf_counter, PROBE_REPEATS)
    return seconds, [before, after], root, store, server


def _record(outcome: Outcome, load: LoadResult) -> None:
    outcome.attempted += load.attempted
    if load.failures:
        outcome.fail(len(load.failures), "; ".join(load.failures[:3]))


def run(ctx: Context) -> Outcome:
    """Run the serve phase; timed unless ``ctx.trace``."""
    manifest = inputs.serve_manifest(ctx.seed)
    campaign = str(manifest["campaign"])
    outcome = Outcome()
    if ctx.trace:
        _traced(ctx, manifest, campaign, outcome)
        return outcome
    setups: List[Tuple[float, float]] = []
    server = None
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
            seconds, around, _root, store, server = _setup(ctx, manifest)
            setups.append((seconds, statistics.mean(around)))
        queries = inputs.serve_queries(ctx.seed, campaign,
                                       store.get_index(campaign), QUERIES)
        expected = expectations(store, campaign, queries)
        load = closed_loop(server.port, queries, expected,
                           seconds=ctx.seconds, min_samples=MIN_SAMPLES,
                           max_seconds=max(ctx.seconds, 120.0))
    finally:
        if server is not None:
            server.stop()
    _record(outcome, load)
    if not load.latencies:
        return outcome
    latencies_ms = sorted(1000.0 * latency for latency in load.latencies)
    summary = stats.summarize(latencies_ms)
    outcome.notes.append(
        f"unscaled set-up s: {', '.join(f'{raw:.3f}' for raw, _ in setups)}")
    outcome.notes.append(
        f"{summary.count} replies in {load.wall_s:.2f} s; p50 "
        f"{summary.median:.3f} ms; highest percentile with 10 samples "
        f"beyond it: p{summary.percentile:g} = {summary.value:.3f} ms")
    if summary.percentile < 99.0:
        outcome.notes.append("too few samples for a p99 with 10 beyond it")
    outcome.put("serve_rps", len(load.latencies) / load.wall_s, "req/s")
    outcome.put("serve_p50_ms", summary.median, "ms")
    outcome.put("serve_p99_ms", stats.nearest_rank(latencies_ms, 99.0), "ms")
    outcome.put("setup_s", reference_median(setups), "s")
    return outcome


def _traced(ctx: Context, manifest: Dict[str, object], campaign: str,
            outcome: Outcome) -> None:
    mapping = layers.check_coverage(ctx.src)
    root, store = _publish(ctx, manifest)
    queries = inputs.serve_queries(ctx.seed, campaign,
                                   store.get_index(campaign), QUERIES)
    expected = expectations(store, campaign, queries)
    server = Server(ctx, store.root, root)
    try:
        reference = closed_loop(server.port, queries, expected,
                                requests=TRACE_REQUESTS)
    finally:
        server.stop()
    profile_out = root / "server.prof"
    server = Server(ctx, store.root, root, profile_out=profile_out)
    try:
        traced = closed_loop(server.port, queries, expected,
                             requests=TRACE_REQUESTS)
    finally:
        server.stop()
    _record(outcome, reference)
    _record(outcome, traced)
    totals = layers.attribute(pstats.Stats(str(profile_out)).stats,
                              ctx.src, mapping)

    requests = layers.count_calls(totals, HANDLER)
    handler = layers.crossing(totals, HANDLER)
    handler_ms = (None if handler is None or not requests
                  else 1000.0 * handler[1] / requests)
    outcome.put("cli.serve.requests", requests, "count")
    outcome.put("cli.serve.handler_ms", handler_ms, "ms")
    if handler_ms is not None and traced.latencies:
        client_ms = 1000.0 * statistics.mean(traced.latencies)
        outcome.put("cli.serve.wait_ms", client_ms - handler_ms, "ms")
    else:
        outcome.put("cli.serve.wait_ms", None, "ms")
    get_index_calls = layers.count_calls(
        totals, [("repro.campaign.store", "ArtifactStore.get_index")])
    reads = layers.crossing(totals, STORE_READS)
    outcome.put("campaign.store.get_index_calls", get_index_calls, "count")
    outcome.put("campaign.store.get_s", None if reads is None else reads[1],
                "s")
    outcome.put("campaign.store.bytes_read", traced.bytes_ok, "B")
    outcome.totals.append(totals)
    outcome.traced_s += traced.wall_s
    outcome.untraced_s += reference.wall_s
    outcome.exact = {"cli.serve.requests": requests,
                     "campaign.store.get_index_calls": get_index_calls,
                     "campaign.store.bytes_read": traced.bytes_ok}
