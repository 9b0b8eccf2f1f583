"""The traced run: spans around each layer's public functions, from outside.

:class:`Tracer` wraps the functions listed in :data:`TARGETS` for the
length of a ``with`` block and restores the originals on exit; nothing
under ``src/`` is edited.  Each call becomes one span ``(id, parent,
name, start, end, extra)`` held in memory: ``parent`` is the span that
was open in the same thread or asyncio task when the call began, and
``extra`` carries the few facts a layer metric needs (batch size, tool
outcome, the query an RNG derivation belongs to, ...).
:meth:`Tracer.write` dumps the spans as JSON lines once the run is over.

A layer's *self* time is its span's duration minus the part covered by
child spans; :func:`layer_metrics` turns the spans into the per-layer
metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import sys
import time
from dataclasses import dataclass

#: id of the span open in the current thread / asyncio task
_CURRENT = contextvars.ContextVar("perfbench_span", default=None)
#: ``(scheme, qid)`` of the episode whose work is running, for RNG counts
_QUERY_KEY = contextvars.ContextVar("perfbench_query", default=None)
#: the agent whose planning is running (the recommender sees only its LLM)
_AGENT = contextvars.ContextVar("perfbench_agent", default=None)


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``module`` + ``qualname`` -> span ``name``."""

    module: str
    qualname: str
    name: str
    kind: str = ""


#: The layer boundaries.  ``Gateway._process_batch`` is the one private
#: function here: a micro-batch has no public function of its own, and
#: its span is what ties plan/execute/accounting work to the requests
#: that waited for it.
TARGETS = (
    Target("repro.serving.gateway", "Gateway.submit", "gateway.submit", "submit"),
    Target("repro.serving.gateway", "Gateway._process_batch", "gateway.batch", "batch"),
    Target("repro.core.pipeline", "LessIsMoreAgent.plan", "plan", "plan"),
    Target("repro.core.pipeline", "LessIsMoreAgent.plan_batch", "plan", "plan_batch"),
    Target("repro.core.agent_base", "FunctionCallingAgent.plan_batch", "plan", "plan_batch"),
    Target("repro.baselines.default_agent", "DefaultAgent.plan", "plan", "plan"),
    Target("repro.baselines.gorilla", "GorillaAgent.plan", "plan", "plan"),
    Target("repro.llm.engine", "SimulatedLLM.recommend_tools", "llm.recommend", "recommend"),
    Target("repro.embedding.cache", "CachedEmbedder.encode", "embedding.encode", "encode"),
    Target("repro.core.controller", "ToolController.decide_batch", "controller.decide"),
    Target("repro.vectorstore.base", "VectorIndex.search", "vectorstore.search"),
    Target("repro.core.agent_base", "FunctionCallingAgent.run_planned", "execute", "episode"),
    Target("repro.llm.engine", "SimulatedLLM.execute_step", "llm.step"),
    Target("repro.hardware.inference", "simulate_inference", "hardware.simulate"),
    Target("repro.tools.executor", "SimulatedToolExecutor.execute", "tools.execute", "tool"),
    Target("repro.utils.rng", "derive_rng", "rng", "rng"),
    Target("repro.obs.cost", "CostLedger.record", "accounting"),
    Target("repro.power.meter", "EnergyMeter.record", "accounting", "energy"),
)


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if name.split(".")[0] == "repro" and module is not None]


def _agent_key(agent, query) -> tuple:
    return (getattr(agent, "scheme", None), query.qid)


class Tracer:
    """Records spans while installed (``with Tracer() as tracer: ...``)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        #: ``id(ServingResponse) -> batch span id``, consumed by submit spans
        self._batch_of: dict[int, int] = {}
        #: ``id(CachedEmbedder) -> (embedder, cache_info at phase start)``
        self._embedders: dict[int, tuple[object, dict]] = {}
        #: ``id(CachedEmbedder) -> cache_info`` when recording stopped
        self._embedders_at_stop: dict[int, dict] = {}

    # -- install / restore ------------------------------------------------
    def __enter__(self) -> "Tracer":
        for target in TARGETS:
            self._install(target)
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self) -> None:
        """Stop recording and restore the originals (call at the end of
        the timed phase, so the correctness check is not traced)."""
        if not self._patches:
            return
        self._embedders_at_stop = {
            key: embedder.cache_info()
            for key, (embedder, _) in self._embedders.items()}
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        # a module first imported while tracing bound the wrapper itself
        for loaded in _repro_modules():
            for attr, value in list(vars(loaded).items()):
                original = getattr(value, "__perfbench_original__", None)
                if original is not None:
                    setattr(loaded, attr, original)

    def _install(self, target: Target) -> None:
        module = importlib.import_module(target.module)
        if "." in target.qualname:
            cls_name, attr = target.qualname.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            self._patch(owner, attr, original, self._wrap(original, target))
            return
        original = getattr(module, target.qualname)
        wrapper = self._wrap(original, target)
        wrapper.__perfbench_original__ = original
        # module-level functions are imported by name across the package,
        # so every module-global alias of the original is swapped too
        for loaded in _repro_modules():
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._patch(loaded, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    # -- recording ----------------------------------------------------------
    def reset(self) -> None:
        """Forget every span so far (call between warm-up and timed phase)."""
        self.spans.clear()
        self._batch_of.clear()
        for key, (embedder, _) in list(self._embedders.items()):
            self._embedders[key] = (embedder, embedder.cache_info())

    def embedding_cache_counts(self) -> tuple[int, int]:
        """Cache hits and misses from :meth:`reset` to :meth:`stop`, summed
        over every embedder the traced ``encode`` calls went through."""
        hits = misses = 0
        for key, (embedder, before) in self._embedders.items():
            after = self._embedders_at_stop.get(key) or embedder.cache_info()
            hits += after["hits"] - before["hits"]
            misses += after["misses"] - before["misses"]
        return hits, misses

    def span(self, name: str, extra=None):
        """A span opened by the benchmark itself (one op of the workload)."""
        return _ManualSpan(self, name, extra)

    def _wrap(self, fn, target: Target):
        record = self.spans.append
        next_id = self._ids.__next__
        clock = time.perf_counter
        name, kind = target.name, target.kind
        batch_of = self._batch_of
        embedders = self._embedders

        if kind == "submit":
            @functools.wraps(fn)
            async def submit_wrapper(*args, **kwargs):
                sid = next_id()
                parent = _CURRENT.get()
                token = _CURRENT.set(sid)
                start = clock()
                extra = None
                try:
                    response = await fn(*args, **kwargs)
                    extra = (response.trace_id, batch_of.pop(id(response), None))
                    return response
                finally:
                    end = clock()
                    _CURRENT.reset(token)
                    record((sid, parent, name, start, end, extra))
            return submit_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next_id()
            parent = _CURRENT.get()
            token = _CURRENT.set(sid)
            key_token = agent_token = None
            extra = None
            if kind == "rng":
                extra = _QUERY_KEY.get()
            elif kind == "episode":
                extra = _agent_key(args[0], args[1])
                key_token = _QUERY_KEY.set(extra)
            elif kind == "recommend":
                key_token = _QUERY_KEY.set(_agent_key(_AGENT.get(), args[1]))
            elif kind == "energy":
                episode = args[2] if len(args) > 2 else kwargs["episode"]
                key_token = _QUERY_KEY.set((episode.scheme, episode.qid))
            elif kind in ("plan", "plan_batch"):
                agent_token = _AGENT.set(args[0])
                extra = 1 if kind == "plan" else len(args[1])
            elif kind == "encode":
                extra = len(args[1])
                if id(args[0]) not in embedders:
                    embedders[id(args[0])] = (args[0], args[0].cache_info())
            elif kind == "batch":
                extra = len(args[1])
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if kind == "tool":
                    extra = bool(result.ok)
                elif kind == "batch":
                    for response in result:
                        if not isinstance(response, BaseException):
                            batch_of[id(response)] = sid
                return result
            finally:
                end = clock()
                if key_token is not None:
                    _QUERY_KEY.reset(key_token)
                if agent_token is not None:
                    _AGENT.reset(agent_token)
                _CURRENT.reset(token)
                record((sid, parent, name, start, end, extra))
        return wrapper

    # -- output -----------------------------------------------------------
    def write(self, path) -> None:
        """One JSON array per span: ``[id, parent, name, start, end, extra]``."""
        with open(path, "w", encoding="utf-8") as out:
            for span in sorted(self.spans):
                out.write(json.dumps(span, default=str))
                out.write("\n")


class _ManualSpan:
    def __init__(self, tracer: Tracer, name: str, extra):
        self._tracer = tracer
        self._name = name
        self._extra = extra

    def __enter__(self):
        self._sid = next(self._tracer._ids)
        self._parent = _CURRENT.get()
        self._token = _CURRENT.set(self._sid)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        end = time.perf_counter()
        _CURRENT.reset(self._token)
        self._tracer.spans.append((self._sid, self._parent, self._name,
                                   self._start, end, self._extra))


# ---------------------------------------------------------------------------
# spans -> per-layer numbers
# ---------------------------------------------------------------------------
def _union_length(intervals: list[tuple[float, float]], lo: float,
                  hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


@dataclass
class SpanTable:
    """Spans indexed for the metrics: self time, nesting and batch."""

    by_id: dict
    by_name: dict
    self_s: dict
    #: span ids whose ancestors include no span of the same name
    outermost: set
    #: span id -> id of the ``gateway.batch`` span it ran under (or None)
    batch_of: dict

    @classmethod
    def build(cls, spans) -> "SpanTable":
        by_id = {span[0]: span for span in spans}
        by_name: dict[str, list[int]] = {}
        children: dict[int, list[tuple[float, float]]] = {}
        for sid, parent, name, start, end, _extra in spans:
            by_name.setdefault(name, []).append(sid)
            if parent in by_id:
                children.setdefault(parent, []).append((start, end))
        self_s = {}
        outermost = set()
        batch_of = {}
        names_above: dict[int, frozenset] = {}
        for sid in sorted(by_id):
            _, parent, name, start, end, _extra = by_id[sid]
            self_s[sid] = (end - start) - _union_length(
                children.get(sid, []), start, end)
            above = names_above.get(parent, frozenset())
            if name not in above:
                outermost.add(sid)
                names_above[sid] = above | {name}
            else:
                names_above[sid] = above
            if name == "gateway.batch":
                batch_of[sid] = sid
            else:
                batch_of[sid] = batch_of.get(parent)
        return cls(by_id, by_name, self_s, outermost, batch_of)

    def of(self, name: str, outer_only: bool = False) -> list[int]:
        sids = self.by_name.get(name, [])
        if outer_only:
            return [sid for sid in sids if sid in self.outermost]
        return sids

    def inclusive_s(self, sid: int) -> float:
        span = self.by_id[sid]
        return span[4] - span[3]


def layer_metrics(table: SpanTable, n_ops: int,
                  op_keys: list) -> dict[str, float]:
    """Per-layer cost and count metrics from the timed phase's spans.

    ``n_ops`` is the number of successful ops; ``op_keys`` the
    ``(scheme, qid)`` of the first ops of the seeded op sequence, over
    which the exact RNG-derivation count is taken.  Stage metrics
    (``plan``, ``execute``, ``accounting``) are inclusive times; module
    metrics are self times.
    """
    per_op = 1e3 / max(n_ops, 1)

    def self_ms(name):
        return sum(table.self_s[sid] for sid in table.of(name)) * per_op

    def stage_ms(name):
        return sum(table.inclusive_s(sid)
                   for sid in table.of(name, outer_only=True)) * per_op

    plans = table.of("plan", outer_only=True)
    tools = table.of("tools.execute")
    encodes = table.of("embedding.encode", outer_only=True)
    metrics = {
        "plan.ms_per_req": stage_ms("plan"),
        "plan.queries_per_call": (
            sum(table.by_id[sid][5] for sid in plans) / len(plans)
            if plans else 0.0),
        "llm.recommend_ms_per_req": self_ms("llm.recommend"),
        "embedding.encode_ms_per_req": self_ms("embedding.encode"),
        "embedding.texts_per_req": (
            sum(table.by_id[sid][5] for sid in encodes) / max(n_ops, 1)),
        "controller.decide_ms_per_req": self_ms("controller.decide"),
        "vectorstore.search_ms_per_req": self_ms("vectorstore.search"),
        "vectorstore.search_calls": float(len(table.of("vectorstore.search"))),
        "execute.ms_per_req": stage_ms("execute"),
        "llm.step_ms_per_req": self_ms("llm.step"),
        "llm.calls_per_req": (len(table.of("llm.step"))
                              + len(table.of("llm.recommend"))) / max(n_ops, 1),
        "hardware.simulate_ms_per_req": self_ms("hardware.simulate"),
        "tools.execute_ms_per_req": self_ms("tools.execute"),
        "tools.calls_per_req": len(tools) / max(n_ops, 1),
        "tools.ok_frac": (sum(1 for sid in tools if table.by_id[sid][5])
                          / len(tools) if tools else 0.0),
        "rng.derivations_per_req": rng_derivations_per_op(table, op_keys),
        "rng.ms_per_req": self_ms("rng"),
        "accounting.ms_per_req": stage_ms("accounting"),
    }
    batches = table.of("gateway.batch")
    metrics["batcher.batches"] = float(len(batches))
    metrics["batcher.batch_size_mean"] = (
        sum(table.by_id[sid][5] for sid in batches) / len(batches)
        if batches else 0.0)
    return metrics


def rng_derivations_per_op(table: SpanTable, op_keys: list) -> float:
    """Mean RNG derivations per op over ``op_keys``, an exact count.

    Each derivation is attributed to the ``(scheme, qid)`` whose plan,
    episode or accounting drew it; a query's count is the same every
    time it is served, so the mean over a fixed op prefix repeats bit
    for bit across runs of one seed.
    """
    derivations: dict = {}
    episodes: dict = {}
    for sid in table.of("rng"):
        key = table.by_id[sid][5]
        if key is not None:
            derivations[key] = derivations.get(key, 0) + 1
    for sid in table.of("execute"):
        key = table.by_id[sid][5]
        episodes[key] = episodes.get(key, 0) + 1
    counted = [derivations.get(key, 0) / episodes[key]
               for key in op_keys if episodes.get(key)]
    return sum(counted) / len(counted) if counted else 0.0


def request_breakdown(table: SpanTable, queued_ms: dict) -> dict:
    """Mean per-request split of ``Gateway.submit`` time.

    A request waits for its whole micro-batch, so its plan, execute and
    accounting times are those of the batch it rode in.  The residual is
    what is left of submit time after queue and those three stages:
    event-loop hand-offs, the batch cut and result delivery.
    ``queued_ms`` maps trace id -> queue ms for the served requests.
    """
    stage = {"plan": {}, "execute": {}, "accounting": {}}
    for sid in table.outermost:
        name = table.by_id[sid][2]
        batch = table.batch_of.get(sid)
        if name in stage and batch is not None:
            stage[name][batch] = (stage[name].get(batch, 0.0)
                                  + table.inclusive_s(sid) * 1e3)
    rows = []
    for sid in table.of("gateway.submit"):
        if table.by_id[sid][5] is None:
            continue  # failed request: no episode, no breakdown
        trace_id, batch = table.by_id[sid][5]
        if trace_id not in queued_ms:
            continue
        total = table.inclusive_s(sid) * 1e3
        parts = [queued_ms[trace_id]] + [stage[name].get(batch, 0.0)
                                         for name in stage]
        rows.append((total, *parts, total - sum(parts)))
    if not rows:
        return {}
    n = len(rows)
    columns = ["gateway.submit_ms_mean", "gateway.queue_ms_mean",
               "gateway.plan_ms_mean", "gateway.execute_ms_mean",
               "gateway.accounting_ms_mean", "gateway.residual_ms_per_req"]
    return {column: sum(row[i] for row in rows) / n
            for i, column in enumerate(columns)}
