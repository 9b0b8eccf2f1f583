"""Seeded workload inputs: query pools and op sequences.

Everything here is a pure function of the ``--seed`` argument and the
workload constants, so the same seed always yields the same queries,
tenant mix and op order.  The program under test only ever receives the
generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Mixed into the seed, so the op stream is not the suites' own stream.
_OP_STREAM_TAG = 2


@dataclass(frozen=True)
class Op:
    """One request of a serving workload."""

    tenant: str
    qid: str
    text: str


def load_pools(suites: tuple[str, ...], n_queries: int, seed: int) -> dict:
    """``{suite name: BenchmarkSuite}`` with ``n_queries`` queries each."""
    from repro.suites import load_suite

    return {name: load_suite(name, n_queries=n_queries, seed=seed)
            for name in suites}


def seeded_rng(seed: int) -> np.random.Generator:
    """The one random stream a serving workload's ops are drawn from."""
    return np.random.default_rng([int(seed), _OP_STREAM_TAG])


def draw_ops(pools: dict, n_ops: int, rng: np.random.Generator) -> list[Op]:
    """``n_ops`` requests over the tenants of ``pools``.

    The tenant mix is stratified: every run of ``len(pools)`` ops holds
    each tenant once, in a random order, so each tenant's share of any
    long op prefix is fixed.  The query is drawn uniformly from the
    tenant's pool.
    """
    tenants = sorted(pools)
    order = np.concatenate([rng.permutation(len(tenants))
                            for _ in range(-(-n_ops // len(tenants)))])
    query_draw = rng.random(n_ops)
    ops = []
    for tenant_i, draw in zip(order[:n_ops], query_draw):
        tenant = tenants[int(tenant_i)]
        queries = pools[tenant].queries
        query = queries[int(draw * len(queries))]
        ops.append(Op(tenant, query.qid, query.text))
    return ops


def repeat_text_frac(texts) -> float:
    """Share of inputs whose exact text already occurred earlier."""
    texts = list(texts)
    if not texts:
        return 0.0
    return 1.0 - len(set(texts)) / len(texts)
