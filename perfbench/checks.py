"""Correctness checks that fail a benchmark run.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import json

def failed_ops(attempted: int, failed: int) -> list[str]:
    """Every op of a workload must succeed; one failure fails the run."""
    if attempted < 1:
        return ["no op was attempted"]
    if failed:
        return [f"{failed} of {attempted} ops failed or were refused"]
    return []


def reference_episodes(pools: dict, keys, cell: tuple[str, str, str]) -> dict:
    """``{(tenant, qid): episode dict}`` from the sequential runner path,
    for the ``(scheme, model, quant)`` cell the gateway served.

    Each tenant gets a fresh :class:`ExperimentRunner` with its own
    embedder, and the process-wide embedder the simulated LLMs share is
    emptied first, so nothing the served run cached can leak into the
    reference.
    """
    from repro.embedding.cache import CachedEmbedder, shared_embedder
    from repro.evaluation.runner import ExperimentRunner

    shared_embedder().clear()

    agents = {}
    by_qid = {}
    reference = {}
    for tenant, qid in sorted(set(keys)):
        agent = agents.get(tenant)
        if agent is None:
            runner = ExperimentRunner(pools[tenant], embedder=CachedEmbedder())
            agent = agents[tenant] = runner.make_agent(*cell)
            by_qid[tenant] = {query.qid: query
                              for query in pools[tenant].queries}
        episode = agent.run(by_qid[tenant][qid])
        reference[(tenant, qid)] = _canonical(episode.to_dict())
    return reference


def _canonical(episode: dict) -> dict:
    """The form an episode has after a JSON round trip (floats bitwise)."""
    return json.loads(json.dumps(episode))


def served_equal_reference(served, reference: dict) -> list[str]:
    """Every served episode equals its reference episode bit for bit.

    ``served`` yields ``(tenant, qid, episode dict)``.
    """
    problems = []
    for tenant, qid, episode in served:
        expected = reference.get((tenant, qid))
        if expected is None:
            problems.append(f"{tenant}/{qid}: no reference episode")
        elif _canonical(episode) != expected:
            problems.append(f"{tenant}/{qid}: served episode differs from "
                            f"the sequential runner's")
        if len(problems) >= 5:
            problems.append("... (further mismatches not listed)")
            break
    return problems


def headline_direction(episodes: dict) -> list[str]:
    """The paper's headline: ``lis-k3`` beats ``default`` on every suite.

    ``episodes`` maps ``(suite, scheme)`` to that cell's episodes; the
    mean simulated edge time and energy of ``lis-k3`` must both be lower.
    """
    problems = []
    for suite in sorted({suite for suite, _ in episodes}):
        lis = episodes.get((suite, "lis-k3"))
        default = episodes.get((suite, "default"))
        if not lis or not default:
            problems.append(f"{suite}: lis-k3 or default cell missing")
            continue
        for field in ("time_s", "energy_j"):
            lis_mean = sum(getattr(e, field) for e in lis) / len(lis)
            default_mean = sum(getattr(e, field) for e in default) / len(default)
            if not lis_mean < default_mean:
                problems.append(
                    f"{suite}: lis-k3 mean {field} {lis_mean:.4g} is not "
                    f"below default's {default_mean:.4g}")
    return problems


def same_episodes(first: list, again: list, label: str) -> list[str]:
    """A repeated sweep pass yields exactly the first pass's episodes."""
    if len(again) != len(first) or any(
            a.to_dict() != b.to_dict() for a, b in zip(first, again)):
        return [f"{label} episodes differ from pass 1"]
    return []
