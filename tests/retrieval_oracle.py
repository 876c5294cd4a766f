"""Brute-force retrieval oracle for the memory store tests.

Re-implements the documented ranking rules with plain loops and sorted
lists, independently of MemoryStore.retrieve's code path. Similarities come
from :func:`cosine`, the expression ``retrieve`` evaluates for all records
at once, so "equal" means exactly equal.
"""

from __future__ import annotations

import numpy as np

from schoolsim.config import BaseStructure
from schoolsim.memory import MemoryKind, MemoryStore, RetrievalPolicy


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two equal-dimension, non-zero vectors.

    Returns a float clipped to [-1, 1]; symmetric in its arguments.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dims differ: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine undefined for an all-zero vector")
    value = float(np.dot(a, b)) / (na * nb)
    return max(-1.0, min(1.0, value))


def _top(pairs: list[tuple[int, float]], limit: int) -> list[tuple[int, float]]:
    return sorted(pairs, key=lambda p: (-p[1], p[0]))[:limit]


def oracle_retrieve(
    store: MemoryStore, query: str, policy: RetrievalPolicy
) -> list[tuple[int, float]]:
    query_vec = store.embedder.embed(query)
    sims: dict[int, float] = {}
    for record in store.records:
        s = cosine(query_vec, record.embedding)
        if s > policy.min_similarity:
            sims[record.id] = s

    config = store.config
    dual_both = (
        config.base_structure is BaseStructure.DUAL
        and config.eb_enabled
        and config.kb_enabled
    )

    def long_term(exclude: set[int], budget: int) -> list[tuple[int, float]]:
        pool = [rid for rid in sims if rid not in exclude]
        if dual_both:
            exp = [
                (rid, sims[rid])
                for rid in pool
                if store.records[rid].kind is MemoryKind.EXPERIENCE
            ]
            kn = [
                (rid, sims[rid])
                for rid in pool
                if store.records[rid].kind is MemoryKind.KNOWLEDGE
            ]
            merged = _top(exp, budget - budget // 2) + _top(kn, budget // 2)
            return sorted(merged, key=lambda p: (-p[1], p[0]))
        return _top([(rid, sims[rid]) for rid in pool], budget)

    if not config.stlt_enabled:
        return long_term(set(), policy.k_short + policy.k_long)
    st_pairs = [(rid, sims[rid]) for rid in store.short_term_ids if rid in sims]
    short_segment = _top(st_pairs, policy.k_short)
    taken = {rid for rid, _ in short_segment}
    return short_segment + long_term(taken, policy.k_long)
