"""Dual experience/knowledge memory with short-term/long-term tiers.

Long-term memory is the append-only record set (one collection per kind under
the dual structure, a single collection when unified). Short-term memory is an
index over long-term: a bounded, salience-ordered subset of record ids that
gets retrieval priority. Records are never duplicated between tiers.

Retrieval ranking rules (mirrored exactly by the brute-force test oracle):

* similarity is the canonical cosine of the query embedding and the record
  embedding; a record qualifies when similarity is strictly above
  ``min_similarity``. ``retrieve`` evaluates cosine's own expression for
  all records at once: one ``np.vecdot`` of the store's embedding rows with
  the query (one per block of ``BLOCK_ROWS`` rows), whose float64 loop
  sends each row through the same BLAS ``ddot`` that ``np.dot`` calls,
  then the cached norms, the division and the clip elementwise, which IEEE
  rounds as it rounds the scalar expressions. So the bits are the same. A
  mat-vec (``M @ q``, BLAS ``gemv``) or ``einsum`` sums in another order,
  rounds differently, reorders ties and is a behaviour change;
* all records are ranked once, by non-increasing similarity with ties
  broken by lower record id (a stable argsort), and one walk down that
  ranking fills every segment. With the short/long-term hierarchy enabled,
  the walk gives each short-term id to the short-term segment until it
  holds ``k_short``; every other id, short-term ones past that budget
  included, competes for the ``k_long`` long-term places. With the
  hierarchy disabled, short-term is never read and the long-term segment
  has ``k_short + k_long`` places;
* under the dual structure with both kinds enabled, the long-term places
  are split into a quota per base (experience gets the larger half);
  under the unified structure, or with a single enabled kind, records
  share one quota;
* the walk stops at the first record that does not qualify (all below it
  rank lower) or once every budget is full. The result is the short-term
  segment followed by the long-term one, each in ranked order.
"""

from __future__ import annotations

import json
import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum
from typing import BinaryIO

import numpy as np

from .config import BaseStructure, SimulationConfig
from .embedding import Embedder
from .environment import SimTime, Slot
from .errors import (
    EmptyTextError,
    KindDisabledError,
    MemoryDisabledError,
)

logger = logging.getLogger(__name__)

# Rows per embedding block. Blocks are never resized, so a record's embedding
# can be a view of its row for the life of the store. Retrieval makes one
# np.vecdot call per block. The fixture's stores reach 98 records, so its
# pinned runs cross a block boundary.
BLOCK_ROWS = 64
DEFAULT_SHORT_TERM_CAPACITY = 32
DEFAULT_SALIENCE_DECAY = 0.99
LONG_TERM_SALIENCE = 0.5
SHORT_TERM_SALIENCE = 1.0


class MemoryKind(Enum):
    EXPERIENCE = "experience"
    KNOWLEDGE = "knowledge"


@dataclass(frozen=True)
class MemoryRecord:
    id: int
    kind: MemoryKind
    text: str
    embedding: np.ndarray
    created_at: SimTime
    salience: float
    mark_short: bool


@dataclass(frozen=True)
class RetrievalPolicy:
    k_short: int = 4
    k_long: int = 8
    min_similarity: float = 0.0

    def __post_init__(self) -> None:
        if self.k_short < 0 or self.k_long < 0:
            raise ValueError("retrieval counts must be non-negative")


@dataclass
class MemoryUpdate:
    """The four-list payload produced by the memory-update step."""

    long_term_experience_updates: list[str] = field(default_factory=list)
    long_term_knowledge_updates: list[str] = field(default_factory=list)
    short_term_experience_content: list[str] = field(default_factory=list)
    short_term_knowledge_content: list[str] = field(default_factory=list)

    FIELDS = (
        "long_term_experience_updates",
        "long_term_knowledge_updates",
        "short_term_experience_content",
        "short_term_knowledge_content",
    )

    def as_dict(self) -> dict[str, list[str]]:
        return {name: list(getattr(self, name)) for name in self.FIELDS}


# (kind, mark_short, salience) routing per update field.
UPDATE_ROUTES = (
    ("long_term_experience_updates", MemoryKind.EXPERIENCE, False, LONG_TERM_SALIENCE),
    ("long_term_knowledge_updates", MemoryKind.KNOWLEDGE, False, LONG_TERM_SALIENCE),
    ("short_term_experience_content", MemoryKind.EXPERIENCE, True, SHORT_TERM_SALIENCE),
    ("short_term_knowledge_content", MemoryKind.KNOWLEDGE, True, SHORT_TERM_SALIENCE),
)


class MemoryStore:
    """One agent's memory. Single-writer; concurrent reads are safe."""

    def __init__(
        self,
        agent_id: str,
        config: SimulationConfig,
        embedder: Embedder,
        capacity: int = DEFAULT_SHORT_TERM_CAPACITY,
        decay: float = DEFAULT_SALIENCE_DECAY,
    ):
        self.agent_id = agent_id
        self.config = config
        self.embedder = embedder
        self.capacity = capacity
        self.decay = decay
        self._records: list[MemoryRecord] = []
        # Record i's embedding is row i % BLOCK_ROWS of block i // BLOCK_ROWS.
        self._blocks: list[np.ndarray] = []
        # By record id: the L2 norm of its embedding, grown a block's worth at
        # a time, and the slot ordinal and salience that rank it for eviction.
        self._norms = np.empty(0)
        self._ordinals: list[int] = []
        self._saliences: list[float] = []
        self._short_term: list[int] = []
        self._next_id = 0
        self._now = SimTime(1, 0)

    # Read-only views

    @property
    def records(self) -> tuple[MemoryRecord, ...]:
        return tuple(self._records)

    @property
    def short_term_ids(self) -> tuple[int, ...]:
        return tuple(self._short_term)

    def long_term_size(self, kind: MemoryKind | None = None) -> int:
        if kind is None:
            return len(self._records)
        return sum(1 for r in self._records if r.kind is kind)

    def get(self, record_id: int) -> MemoryRecord:
        return self._records[record_id]

    # Mutations

    def insert(
        self,
        kind: MemoryKind,
        text: str,
        timestamp: SimTime,
        salience: float = LONG_TERM_SALIENCE,
        mark_short: bool = False,
    ) -> int:
        if not self.config.memory_enabled:
            raise MemoryDisabledError(f"{self.agent_id}: memory base is disabled")
        if not self.config.kind_enabled(kind):
            raise KindDisabledError(
                f"{self.agent_id}: {kind.value} base is disabled by config "
                f"{self.config.id}"
            )
        if not text or not text.strip():
            raise EmptyTextError("memory text must be non-empty")
        return self._append(kind, text, timestamp, salience, mark_short)

    def _append(
        self,
        kind: MemoryKind,
        text: str,
        timestamp: SimTime,
        salience: float,
        mark_short: bool,
    ) -> int:
        """Insert a record whose kind and text :meth:`insert` accepts."""
        vector = self.embedder.embed(text)
        record_id = self._next_id
        row_index = record_id % BLOCK_ROWS
        if row_index == 0:
            self._blocks.append(np.empty((BLOCK_ROWS, self.embedder.dim)))
            self._norms = np.concatenate((self._norms, np.empty(BLOCK_ROWS)))
        row = self._blocks[-1][row_index]
        row[:] = vector
        row.flags.writeable = False
        # np.linalg.norm's own expression for a vector, so the same bits.
        self._norms[record_id] = math.sqrt(row.dot(row))
        ordinal = timestamp.ordinal
        self._ordinals.append(ordinal)
        self._saliences.append(salience)
        record = MemoryRecord(
            id=record_id,
            kind=kind,
            text=text,
            embedding=row,
            created_at=timestamp,
            salience=salience,
            mark_short=mark_short,
        )
        self._records.append(record)
        self._next_id += 1
        if ordinal > self._now.ordinal:
            self._now = timestamp
        if mark_short:
            self._short_term.append(record_id)
            self.evict_short_term()
        return record_id

    def evict_short_term(self) -> list[int]:
        """Drop lowest-salience ids while over capacity.

        Ordering uses salience decayed per elapsed slot (decay applies to
        eviction only; the stored salience is untouched). Ties go to the
        oldest record, then the lowest id.
        """
        excess = len(self._short_term) - self.capacity
        if excess <= 0:
            return []
        now = self._now.ordinal
        decay = self.decay
        ordinals = self._ordinals
        saliences = self._saliences
        # Keys do not change while ids leave, so the victims are the
        # ``excess`` smallest keys, lowest first; rid makes each key unique.
        keys = sorted(
            (saliences[rid] * decay ** (now - ordinals[rid]), ordinals[rid], rid)
            for rid in self._short_term
        )
        evicted = [rid for _, _, rid in keys[:excess]]
        gone = set(evicted)
        self._short_term = [rid for rid in self._short_term if rid not in gone]
        return evicted

    def apply_update(
        self, update: MemoryUpdate, timestamp: SimTime
    ) -> dict[str, int]:
        """Insert the update's strings, routed by field name.

        Short-term content is inserted with ``mark_short`` (salience 1.0);
        long-term-only content gets salience 0.5. Strings for a disabled kind
        are skipped, not errors: ablation configs must not abort a run.
        Returns per-route insert counts plus skip counts.
        """
        counts = {name: 0 for name, _, _, _ in UPDATE_ROUTES}
        counts["skipped_disabled"] = 0
        counts["skipped_empty"] = 0
        for field_name, kind, mark_short, salience in UPDATE_ROUTES:
            texts = getattr(update, field_name)
            if not texts:
                continue
            if not self.config.memory_enabled or not self.config.kind_enabled(kind):
                counts["skipped_disabled"] += len(texts)
                continue
            for text in texts:
                if not text or not text.strip():
                    counts["skipped_empty"] += 1
                    logger.debug("%s: skipped empty update string", self.agent_id)
                    continue
                self._append(kind, text, timestamp, salience, mark_short)
                counts[field_name] += 1
        if counts["skipped_disabled"]:
            logger.debug(
                "%s: skipped %d update strings for disabled kinds",
                self.agent_id,
                counts["skipped_disabled"],
            )
        return counts

    # Retrieval

    def retrieve(
        self, query: str, policy: RetrievalPolicy | None = None
    ) -> list[tuple[MemoryRecord, float]]:
        """Ranked (record, similarity) pairs for a query; see module rules."""
        if not self.config.memory_enabled:
            raise MemoryDisabledError(f"{self.agent_id}: memory base is disabled")
        policy = policy or RetrievalPolicy()
        n = len(self._records)
        if not n:
            return []
        query_vec = self.embedder.embed(query)
        dots = np.empty(n)
        for start, block in zip(range(0, n, BLOCK_ROWS), self._blocks):
            np.vecdot(
                block[: n - start], query_vec, out=dots[start : start + BLOCK_ROWS]
            )
        # embedding.cosine's expression, operand for operand.
        query_norm = math.sqrt(query_vec.dot(query_vec))
        sims = np.clip(dots / (query_norm * self._norms[:n]), -1.0, 1.0)
        # Ids in (-similarity, id) order: a stable sort keeps equal
        # similarities in id order.
        ranked = np.argsort(-sims, kind="stable").tolist()
        sims = sims.tolist()

        # One walk down the ranking fills every segment's budget.
        config = self.config
        if config.stlt_enabled:
            short_term = set(self._short_term)
            short_left = policy.k_short
            long_budget = policy.k_long
        else:
            short_term = ()
            short_left = 0
            long_budget = policy.k_short + policy.k_long
        # Under the dual structure with both kinds each kind has its own
        # long-term quota; otherwise every record counts against one.
        dual = config.base_structure is BaseStructure.DUAL and (
            config.eb_enabled and config.kb_enabled
        )
        experience_left = long_budget - long_budget // 2 if dual else long_budget
        knowledge_left = long_budget // 2 if dual else 0
        records = self._records
        short: list[int] = []
        long: list[int] = []
        for rid in ranked:
            if not (short_left or experience_left or knowledge_left):
                break
            if sims[rid] <= policy.min_similarity:
                break
            if short_left and rid in short_term:
                short.append(rid)
                short_left -= 1
            elif not dual or records[rid].kind is MemoryKind.EXPERIENCE:
                if experience_left:
                    long.append(rid)
                    experience_left -= 1
            elif knowledge_left:
                long.append(rid)
                knowledge_left -= 1
        return [(records[rid], sims[rid]) for rid in short + long]

    # Persistence. ``save`` writes one JSON line per record, key order agent,
    # id, kind, day, slot, salience, short, text; ``short`` is the insert's
    # ``mark_short``. Nothing else is written. Vectors are not: an embedding
    # is a pure function of the text and the embedder, so ``load`` embeds each
    # text again. Short-term ids and ``now`` are not either: they are a pure
    # function of the inserts in order, so ``load`` inserts every row again,
    # eviction included.

    def save(self, handle: BinaryIO, start: int = 0) -> int:
        """Write the records from id ``start`` on to the open binary
        ``handle``; returns the number of bytes written."""
        data = "".join(
            json.dumps(
                {
                    "agent": self.agent_id,
                    "id": record.id,
                    "kind": record.kind.value,
                    "day": record.created_at.day,
                    "slot": record.created_at.slot.label,
                    "salience": record.salience,
                    "short": record.mark_short,
                    "text": record.text,
                },
                ensure_ascii=False,
            )
            + "\n"
            for record in self._records[start:]
        ).encode("utf-8")
        handle.write(data)
        return len(data)

    @classmethod
    def load(
        cls,
        agent_id: str,
        config: SimulationConfig,
        embedder: Embedder,
        rows: Iterable[dict],
        capacity: int = DEFAULT_SHORT_TERM_CAPACITY,
        decay: float = DEFAULT_SALIENCE_DECAY,
    ) -> "MemoryStore":
        """A store rebuilt from the record ``rows`` written by :meth:`save`,
        in id order. Each row goes through :meth:`insert` with its
        ``mark_short``, which replays eviction, so embeddings, norms,
        short-term ids and ``now`` are those of the store that saved them."""
        store = cls(agent_id, config, embedder, capacity=capacity, decay=decay)
        for row in rows:
            created_at = SimTime.at(row["day"], Slot.from_label(row["slot"]))
            record_id = store.insert(
                MemoryKind(row["kind"]),
                row["text"],
                created_at,
                salience=row["salience"],
                mark_short=row["short"],
            )
            if record_id != row["id"]:
                raise ValueError(f"{agent_id}: store records out of order at id {row['id']}")
        return store
