"""The two workloads: ``paper-sweep`` and ``edge-http``.

Each ``run_*`` function sets up from scratch (several times, so set-up
time is a median), runs a warm-up, measures a timed phase of about
``seconds`` seconds, and checks the outputs.  It returns a :class:`Run`
holding raw samples; :mod:`perfbench.report` turns them into metrics.

``setups`` overrides how often set-up is repeated.  When a
:class:`~perfbench.tracing.Tracer` is passed, its spans are cleared at
the start of the timed phase and it is stopped at its end, so the spans
cover exactly the timed ops.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import math
import os
import resource
import threading
import time
from dataclasses import dataclass, field

from perfbench import checks, inputs

MODEL, QUANT = "hermes2-pro-8b", "q4_K_M"

#: paper-sweep: the reproduction grid (toolllm raises ToolLLMMemoryError
#: on 8B models by design, so it is not part of it)
SWEEP_SUITES = ("bfcl", "geoengine", "edgehome", "browser")
SWEEP_SCHEMES = ("default", "gorilla", "lis-k3")
SWEEP_SETUPS = 5
#: one pass takes about this long on a 2-CPU x86 container; a run makes
#: ``ceil(seconds / SWEEP_PASS_S)`` passes, so its work is fixed
SWEEP_PASS_S = 6.0

#: edge-http: one user per connection over real sockets, closed loop
EDGE_TENANTS = ("bfcl", "geoengine", "edgehome", "browser")
#: keep-alive connections, one user each, capped by the CPUs this
#: process may run on (one, once ``run.py`` has pinned it)
EDGE_MAX_CONNECTIONS = 2
EDGE_WARMUP_OPS = 200
#: the timed phase sends this many requests per second of ``--seconds``
#: (about the rate one connection sustains on a 2-CPU x86 container), so
#: every run does the same work and warms the caches the same way
EDGE_OPS_PER_S = 175
#: CPU and goodput are sampled every this many completed requests
EDGE_WINDOW_OPS = 250
#: the timed phase never sends fewer requests than this
EDGE_MIN_OPS = 2000
EDGE_SETUPS = 5

POOL_QUERIES = 1000
#: latency percentiles are taken per block of at least this many ops, so
#: at least ten samples lie beyond each block's p99; p50 and p90 are the
#: median over blocks and p99 the lowest, so a stall of the machine moves
#: one block's tail, not the metric
LATENCY_BLOCK = 1000


@dataclass
class Run:
    """Raw outcome of one workload run."""

    workload: str
    #: one dict per set-up: total, suite, levels and warm seconds
    setups: list = field(default_factory=list)
    #: phase -> {"sent", "ok", "failed"}, warm-up included
    phases: dict = field(default_factory=dict)
    #: per measurement window: (wall seconds, CPU seconds, ops succeeded)
    windows: list = field(default_factory=list)
    #: latency samples (ms) in blocks of like ops: one sweep pass or
    #: LATENCY_BLOCK consecutive closed-loop ops
    latency_blocks: list = field(default_factory=list)
    #: the timed ops' episodes (one sweep pass), behind the seeded metrics
    episodes: list = field(default_factory=list)
    #: ``(scheme, qid)`` of the same ops, for the RNG count
    op_keys: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    texts: list = field(default_factory=list)
    #: trace id -> {"queued_ms", "latency_ms", "bytes"} (serving only)
    served: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> int:
        return self.attempted - self.failed

    @property
    def latencies_ms(self) -> list:
        return [sample for block in self.latency_blocks for sample in block]

    def add_latency(self, block: int, latency_ms: float) -> None:
        while len(self.latency_blocks) <= block:
            self.latency_blocks.append([])
        self.latency_blocks[block].append(latency_ms)

    def count(self, phase: str, outcome_ok: bool) -> None:
        counts = self.phases.setdefault(phase, {"sent": 0, "ok": 0, "failed": 0})
        counts["sent"] += 1
        counts["ok" if outcome_ok else "failed"] += 1


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _clear_shared_embedder() -> None:
    """Empty the process-wide embedding cache the simulated LLMs share,
    so every run (and every sweep pass) starts as a fresh process would."""
    from repro.embedding.cache import shared_embedder

    shared_embedder().clear()


# ---------------------------------------------------------------------------
# paper-sweep
# ---------------------------------------------------------------------------
def _sweep_setup(seed: int):
    from repro.embedding.cache import CachedEmbedder
    from repro.evaluation.runner import ExperimentRunner
    from repro.suites import load_suite

    start = time.perf_counter()
    suites = [load_suite(name, seed=seed) for name in SWEEP_SUITES]
    suite_done = time.perf_counter()
    runners = [ExperimentRunner(suite, embedder=CachedEmbedder())
               for suite in suites]
    for runner in runners:
        _ = runner.levels
    levels_done = time.perf_counter()
    for runner in runners:
        runner.embedder.encode(runner.suite.registry.descriptions())
    end = time.perf_counter()
    return runners, {"total": end - start, "suite": suite_done - start,
                     "levels": levels_done - suite_done,
                     "warm": end - levels_done}


def _sweep_pass(runners, tracer=None) -> tuple[list, list]:
    """One pass over every suite x scheme cell, from cold embedding
    caches: its episodes and their wall times in ms, in grid order."""
    episodes, latencies_ms = [], []
    _clear_shared_embedder()
    for runner in runners:
        runner.embedder.clear()
        runner.embedder.encode(runner.suite.registry.descriptions())
        for scheme in SWEEP_SCHEMES:
            agent = runner.make_agent(scheme, MODEL, QUANT)
            for query in runner.suite.queries:
                op_start = time.perf_counter()
                if tracer is not None:
                    with tracer.span("op", (agent.scheme, query.qid)):
                        episode = agent.run(query)
                else:
                    episode = agent.run(query)
                latencies_ms.append((time.perf_counter() - op_start) * 1e3)
                episodes.append(episode)
    return episodes, latencies_ms


def run_paper_sweep(seed: int, seconds: float, tracer=None,
                    setups: int | None = None) -> Run:
    """Whole passes over suites x schemes, about ``seconds`` long.

    Every pass clears the embedding caches first, so each pass does the
    same work: what one reproduction of the grid costs once the Search
    Levels exist.
    """
    run = Run("paper-sweep")
    for index in range(setups or SWEEP_SETUPS):
        if index:
            del runners
            gc.collect()  # drop the previous set-up before timing the next
        runners, timing = _sweep_setup(seed)
        run.setups.append(timing)
    # the warm-up pass is untimed: the first pass over a fresh set-up ran
    # 10-15% slower than every later one
    episodes, _ = _sweep_pass(runners, tracer)
    run.episodes = episodes
    run.phases["warmup"] = {"sent": len(episodes), "ok": len(episodes),
                            "failed": 0}
    grid = [(runner.suite.name, scheme, query) for runner in runners
            for scheme in SWEEP_SCHEMES for query in runner.suite.queries]
    cells: dict = {}
    for (suite, scheme, query), episode in zip(grid, episodes):
        run.texts.append(query.text)
        run.op_keys.append((episode.scheme, episode.qid))
        cells.setdefault((suite, scheme), []).append(episode)
    if tracer is not None:
        tracer.reset()
    started = time.perf_counter()
    cpu_started = time.process_time()
    for number in range(max(1, math.ceil(seconds / SWEEP_PASS_S))):
        pass_wall = time.perf_counter()
        pass_cpu = time.process_time()
        episodes, latencies_ms = _sweep_pass(runners, tracer)
        run.windows.append((time.perf_counter() - pass_wall,
                            time.process_time() - pass_cpu, len(episodes)))
        run.latency_blocks.append(latencies_ms)
        run.phases[f"pass{number + 1}"] = {
            "sent": len(episodes), "ok": len(episodes), "failed": 0}
        run.attempted += len(episodes)
        run.problems += checks.same_episodes(
            run.episodes, episodes, f"pass {number + 1}")
    run.wall_s = time.perf_counter() - started
    run.cpu_s = time.process_time() - cpu_started
    if tracer is not None:
        tracer.stop()
    run.peak_rss_mb = _peak_rss_mb()
    run.problems += checks.failed_ops(run.attempted, run.failed)
    run.problems += checks.headline_direction(cells)
    return run


# ---------------------------------------------------------------------------
# edge-http
# ---------------------------------------------------------------------------
def _serving_sessions(tenants: tuple[str, ...], seed: int):
    from repro.serving import SessionManager

    start = time.perf_counter()
    pools = inputs.load_pools(tenants, POOL_QUERIES, seed)
    suite_done = time.perf_counter()
    sessions = SessionManager()
    for tenant, suite in pools.items():
        sessions.register(tenant, suite)
    for tenant in tenants:
        _ = sessions.get(tenant).runner.levels
    levels_done = time.perf_counter()
    timing = {"suite": suite_done - start, "levels": levels_done - suite_done}
    return pools, sessions, timing, start


def _serving_config():
    from repro.specs import ServingSpec

    return ServingSpec().to_config()


def _record_served(run: Run, trace_id: str, queued_s: float,
                   latency_ms: float, nbytes: int = 0) -> None:
    run.served[trace_id] = {"queued_ms": queued_s * 1e3,
                            "latency_ms": latency_ms, "bytes": nbytes}


def _check_served(run: Run, pools: dict, served: list) -> None:
    """``served``: ``(tenant, qid, episode dict)`` of every ok op."""
    config = _serving_config()
    reference = checks.reference_episodes(
        pools, [(tenant, qid) for tenant, qid, _ in served],
        (config.default_scheme, config.default_model, config.default_quant))
    run.problems += checks.served_equal_reference(served, reference)


class _ServerThread:
    """``serve_gateway`` on an ephemeral port, in its own event loop."""

    def __init__(self, sessions):
        self._sessions = sessions
        self._ready = threading.Event()
        self._loop = None
        self._shutdown = None
        self._error: BaseException | None = None
        self.port = None
        self._thread = threading.Thread(target=self._main,
                                        name="perfbench-http", daemon=True)

    def start(self, timeout_s: float = 60.0) -> None:
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise RuntimeError("HTTP server did not bind in time")
        if self._error is not None:
            raise RuntimeError("HTTP server failed to start") from self._error

    def _main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # noqa: BLE001 - surfaced by start/stop
            self._error = exc
            self._ready.set()

    async def _serve(self) -> None:
        from repro.serving import Gateway
        from repro.serving.http import serve_gateway
        from repro.specs import HttpSpec

        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        gateway = Gateway(self._sessions, config=_serving_config())

        def ready(server):
            self.port = server.port
            self._ready.set()

        await serve_gateway(gateway, HttpSpec(host="127.0.0.1", port=0),
                            ready=ready, shutdown=self._shutdown)

    def stop(self, timeout_s: float = 30.0) -> None:
        if self._loop is not None and self._shutdown is not None:
            self._loop.call_soon_threadsafe(self._shutdown.set)
        self._thread.join(timeout_s)
        if self._thread.is_alive():
            raise RuntimeError("HTTP server thread did not stop")
        if self._error is not None:
            raise RuntimeError("HTTP server failed") from self._error


def _closed_loop(port: int, ops: list, first: int, connections: int,
                 results: dict, tick=None) -> None:
    """``connections`` clients, each sending its next op once the last
    one returned, taking ``ops[first:]`` in sequence order.

    ``results[index]`` gets ``(sent, done, status, body bytes)``, or the
    exception in place of the status; bodies are decoded after the run,
    so the client's timed work is the exchange itself.  ``tick()`` is
    called after every op.
    """
    from repro.serving.http.client import HTTPConnection

    counter = itertools.count(first)
    errors: list[BaseException] = []

    def client():
        try:
            with HTTPConnection("127.0.0.1", port) as conn:
                for index in counter:
                    if index >= len(ops):
                        return
                    op = ops[index]
                    sent = time.perf_counter()
                    try:
                        response = conn.post("/v1/call", json_body={
                            "tenant": op.tenant, "qid": op.qid})
                    except OSError as exc:
                        results[index] = (sent, time.perf_counter(), exc, b"")
                        return
                    results[index] = (sent, time.perf_counter(),
                                      response.status, response.body)
                    if tick is not None:
                        tick()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=client, name=f"perfbench-client-{i}")
               for i in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def run_edge_http(seed: int, seconds: float, tracer=None,
                  setups: int | None = None) -> Run:
    """Real sockets, four tenants, closed loop over at most nproc
    keep-alive connections."""
    run = Run("edge-http")
    connections = min(EDGE_MAX_CONNECTIONS, len(os.sched_getaffinity(0)))
    _clear_shared_embedder()
    server = None
    try:
        for _ in range(setups or EDGE_SETUPS):
            if server is not None:
                server.stop()
                server = sessions = pools = None
                gc.collect()  # drop the previous set-up before timing the next
            pools, sessions, timing, start = _serving_sessions(
                EDGE_TENANTS, seed)
            warm_start = time.perf_counter()
            server = _ServerThread(sessions)
            server.start()
            end = time.perf_counter()
            run.setups.append({**timing, "warm": end - warm_start,
                               "total": end - start})
        n_timed = max(EDGE_MIN_OPS, int(EDGE_OPS_PER_S * seconds))
        ops = inputs.draw_ops(pools, EDGE_WARMUP_OPS + n_timed,
                              inputs.seeded_rng(seed))
        results: dict = {}
        _closed_loop(server.port, ops[:EDGE_WARMUP_OPS], 0, connections,
                     results)
        for index in range(EDGE_WARMUP_OPS):
            run.count("warmup", results[index][2] == 200)
        if tracer is not None:
            tracer.reset()
        results = {}
        started = time.perf_counter()
        cpu_started = time.process_time()
        window = {"wall": started, "cpu": cpu_started, "done": 0}
        window_lock = threading.Lock()

        def tick() -> None:
            with window_lock:
                done = len(results)
                if done - window["done"] >= EDGE_WINDOW_OPS:
                    now, cpu = time.perf_counter(), time.process_time()
                    run.windows.append((now - window["wall"],
                                        cpu - window["cpu"],
                                        done - window["done"]))
                    window.update(wall=now, cpu=cpu, done=done)

        _closed_loop(server.port, ops, EDGE_WARMUP_OPS, connections, results,
                     tick)
        run.wall_s = time.perf_counter() - started
        run.cpu_s = time.process_time() - cpu_started
        run.peak_rss_mb = _peak_rss_mb()
        if tracer is not None:
            tracer.stop()
    finally:
        if server is not None:
            server.stop()
    from repro.core.episode import EpisodeResult

    served = []
    for index in sorted(results):
        op = ops[index]
        sent, done, status, raw = results[index]
        ok = status == 200
        run.count("timed", ok)
        run.attempted += 1
        run.texts.append(op.text)
        if not ok:
            run.failed += 1
            continue
        latency_ms = (done - sent) * 1e3
        run.add_latency((index - EDGE_WARMUP_OPS) // LATENCY_BLOCK, latency_ms)
        body = json.loads(raw)
        episode = EpisodeResult.from_dict(body["episode"])
        run.episodes.append(episode)
        run.op_keys.append((episode.scheme, episode.qid))
        _record_served(run, body["trace_id"], body["queued_s"], latency_ms,
                       len(raw))
        served.append((op.tenant, op.qid, body["episode"]))
    run.problems += checks.failed_ops(run.attempted, run.failed)
    _check_served(run, pools, served)
    return run


WORKLOADS = {
    "paper-sweep": run_paper_sweep,
    "edge-http": run_edge_http,
}

