from __future__ import annotations

import io
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retrieval_oracle import cosine, oracle_retrieve
from schoolsim.config import config_by_id
from schoolsim.embedding import HashedBagEmbedder
from schoolsim.environment import SimTime, Slot
from schoolsim.errors import (
    EmptyTextError,
    KindDisabledError,
    MemoryDisabledError,
)
from schoolsim.memory import (
    BLOCK_ROWS,
    MemoryKind,
    MemoryStore,
    MemoryUpdate,
    RetrievalPolicy,
)

T0 = SimTime.at(1, Slot.PERIOD1)
T1 = SimTime.at(1, Slot.PERIOD2)
T2 = SimTime.at(1, Slot.PERIOD3)


@pytest.fixture()
def embedder():
    return HashedBagEmbedder(dim=64)


def make_store(config_id: int = 1, capacity: int = 32, embedder=None) -> MemoryStore:
    return MemoryStore(
        "a01",
        config_by_id(config_id),
        embedder or HashedBagEmbedder(dim=64),
        capacity=capacity,
    )


def test_first_insert_populates_long_term_and_short_term():
    store = make_store()
    rid = store.insert(
        MemoryKind.EXPERIENCE, "Helped Li with algebra", T0, salience=1.0, mark_short=True
    )
    assert store.long_term_size(MemoryKind.EXPERIENCE) == 1
    assert store.short_term_ids == (rid,)


def test_insert_disabled_kind_raises():
    store = make_store(config_id=6)  # knowledge base disabled
    with pytest.raises(KindDisabledError):
        store.insert(MemoryKind.KNOWLEDGE, "a fact", T0)


def test_insert_under_no_memory_config_raises():
    store = make_store(config_id=9)
    with pytest.raises(MemoryDisabledError):
        store.insert(MemoryKind.EXPERIENCE, "anything", T0)
    with pytest.raises(MemoryDisabledError):
        store.retrieve("anything")


def test_insert_rejects_empty_text():
    store = make_store()
    with pytest.raises(EmptyTextError):
        store.insert(MemoryKind.EXPERIENCE, "   ", T0)


def test_short_term_keeps_newest_on_equal_salience():
    store = make_store(capacity=2)
    ids = [
        store.insert(MemoryKind.EXPERIENCE, f"event {i}", t, salience=1.0, mark_short=True)
        for i, t in enumerate((T0, T1, T2))
    ]
    assert set(store.short_term_ids) == {ids[1], ids[2]}


def test_eviction_prefers_lowest_salience():
    store = make_store(capacity=2)
    store.insert(MemoryKind.EXPERIENCE, "keep high a", T0, salience=0.9, mark_short=True)
    low = store.insert(MemoryKind.EXPERIENCE, "drop low", T0, salience=0.5, mark_short=True)
    store.insert(MemoryKind.EXPERIENCE, "keep high b", T0, salience=0.9, mark_short=True)
    assert low not in store.short_term_ids
    assert len(store.short_term_ids) == 2


def test_eviction_tie_breaks_by_oldest_then_id():
    store = make_store(capacity=2)
    first = store.insert(MemoryKind.EXPERIENCE, "same slot a", T0, 1.0, mark_short=True)
    store.insert(MemoryKind.EXPERIENCE, "same slot b", T0, 1.0, mark_short=True)
    store.insert(MemoryKind.EXPERIENCE, "same slot c", T0, 1.0, mark_short=True)
    assert first not in store.short_term_ids


def test_no_eviction_under_capacity():
    store = make_store(capacity=8)
    store.insert(MemoryKind.EXPERIENCE, "one", T0, mark_short=True)
    assert store.evict_short_term() == []


def test_long_term_is_append_only_and_referentially_sound():
    store = make_store(capacity=3)
    sizes = []
    for i in range(12):
        store.insert(
            MemoryKind.EXPERIENCE if i % 2 else MemoryKind.KNOWLEDGE,
            f"event number {i}",
            T1,
            salience=0.5 + (i % 3) / 10,
            mark_short=(i % 2 == 0),
        )
        sizes.append(store.long_term_size())
        assert set(store.short_term_ids) <= {r.id for r in store.records}
        assert len(store.short_term_ids) <= 3
    assert sizes == sorted(sizes)


def test_retrieve_on_empty_store():
    assert make_store().retrieve("anything") == []


def test_retrieve_self_similarity():
    store = make_store()
    rid = store.insert(MemoryKind.EXPERIENCE, "algebra homework review", T0, mark_short=True)
    results = store.retrieve("algebra homework review")
    assert results[0][0].id == rid
    assert results[0][1] == pytest.approx(1.0, abs=1e-12)


def test_retrieve_respects_min_similarity():
    store = make_store()
    store.insert(MemoryKind.EXPERIENCE, "completely different words", T0)
    policy = RetrievalPolicy(min_similarity=0.99)
    assert store.retrieve("algebra lesson", policy) == []


def test_unified_mode_ranks_kinds_jointly():
    store = make_store(config_id=4)  # unified, no short/long hierarchy
    store.insert(MemoryKind.EXPERIENCE, "fractions drill in class", T0)
    store.insert(MemoryKind.KNOWLEDGE, "fractions need common denominators", T0)
    results = store.retrieve("fractions", RetrievalPolicy(k_short=1, k_long=1))
    kinds = {record.kind for record, _ in results}
    assert kinds == {MemoryKind.EXPERIENCE, MemoryKind.KNOWLEDGE}


def test_disabled_kind_never_returned():
    store = make_store(config_id=6)  # knowledge disabled
    store.insert(MemoryKind.EXPERIENCE, "seen in class", T0, mark_short=True)
    update = MemoryUpdate(
        long_term_knowledge_updates=["should be skipped"],
        short_term_knowledge_content=["also skipped"],
    )
    counts = store.apply_update(update, T1)
    assert counts["skipped_disabled"] == 2
    assert store.long_term_size(MemoryKind.KNOWLEDGE) == 0
    for record, _sim in store.retrieve("class"):
        assert record.kind is MemoryKind.EXPERIENCE


def test_apply_update_counts_and_routing():
    store = make_store()
    update = MemoryUpdate(
        long_term_experience_updates=["lt exp one", "lt exp two"],
        long_term_knowledge_updates=["lt knowledge"],
        short_term_knowledge_content=["st knowledge"],
    )
    counts = store.apply_update(update, T1)
    assert counts["long_term_experience_updates"] == 2
    assert counts["long_term_knowledge_updates"] == 1
    assert counts["short_term_knowledge_content"] == 1
    assert store.long_term_size(MemoryKind.EXPERIENCE) == 2
    assert store.long_term_size(MemoryKind.KNOWLEDGE) == 2
    assert len(store.short_term_ids) == 1
    st_record = store.records[store.short_term_ids[0]]
    assert st_record.salience == 1.0
    assert store.records[0].salience == 0.5


def test_apply_update_empty_lists_is_noop():
    store = make_store()
    counts = store.apply_update(MemoryUpdate(), T0)
    assert store.long_term_size() == 0
    assert all(v == 0 for v in counts.values())


def test_apply_update_skips_empty_strings():
    store = make_store()
    counts = store.apply_update(
        MemoryUpdate(long_term_experience_updates=["", "  ", "real entry"]), T0
    )
    assert counts["long_term_experience_updates"] == 1
    assert counts["skipped_empty"] == 2


def test_update_field_names_match_contract():
    assert MemoryUpdate.FIELDS == (
        "long_term_experience_updates",
        "long_term_knowledge_updates",
        "short_term_experience_content",
        "short_term_knowledge_content",
    )


def _rows(data: bytes) -> list[dict]:
    return [json.loads(line) for line in data.splitlines()]


def test_snapshot_roundtrip(embedder):
    store = make_store(embedder=embedder)
    store.insert(MemoryKind.EXPERIENCE, "first event", T0, salience=0.5)
    store.insert(MemoryKind.KNOWLEDGE, "a known fact", T1, salience=1.0, mark_short=True)
    handle = io.BytesIO()
    first = store.save(handle)
    store.retrieve("first event")
    # A later save writes only the records added since.
    store.insert(MemoryKind.EXPERIENCE, "second event", T1, salience=0.5)
    second = store.save(handle, start=2)
    assert len(handle.getvalue()) == first + second
    assert store.save(handle, start=3) == 0
    rows = _rows(handle.getvalue())
    assert [list(row) for row in rows] == [
        ["agent", "id", "kind", "day", "slot", "salience", "short", "text"]
    ] * 3
    assert [row["short"] for row in rows] == [False, True, False]
    loaded = MemoryStore.load("a01", store.config, embedder, rows)
    assert loaded.short_term_ids == store.short_term_ids == (1,)
    assert len(loaded.records) == len(store.records)
    for a, b in zip(loaded.records, store.records):
        assert (a.id, a.kind, a.text, a.created_at, a.salience, a.mark_short) == (
            b.id,
            b.kind,
            b.text,
            b.created_at,
            b.salience,
            b.mark_short,
        )
        assert a.embedding.tobytes() == b.embedding.tobytes()
    # Same query, same result, including similarity values.
    assert [
        (r.id, s) for r, s in loaded.retrieve("a known fact about events")
    ] == [(r.id, s) for r, s in store.retrieve("a known fact about events")]
    # Rows past the ones given are not in the store.
    prefix = MemoryStore.load("a01", store.config, embedder, rows[:2])
    assert [r.text for r in prefix.records] == ["first event", "a known fact"]
    with pytest.raises(ValueError, match="out of order"):
        MemoryStore.load("a01", store.config, embedder, rows[1:])


def _random_store(rng: random.Random, n_records: int, config_id: int) -> MemoryStore:
    config = config_by_id(config_id)
    store = MemoryStore("r", config, HashedBagEmbedder(dim=32), capacity=10**6)
    vocab = [f"word{i}" for i in range(12)]
    kinds = [k for k in MemoryKind if config.kind_enabled(k)]
    for _ in range(n_records):
        text = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 6)))
        store.insert(
            rng.choice(kinds),
            text,
            SimTime(rng.randint(1, 5), rng.randint(0, 9)),
            salience=rng.random(),
            mark_short=rng.random() < 0.3,
        )
    return store


def test_retrieve_matches_bruteforce_oracle_small():
    rng = random.Random(5)
    vocab = [f"word{i}" for i in range(12)]
    for trial in range(25):
        config_id = rng.choice([1, 2, 3, 4, 5, 6, 7, 8])
        store = _random_store(rng, rng.randint(0, 60), config_id)
        query = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 5)))
        policy = RetrievalPolicy(
            k_short=rng.randint(0, 5),
            k_long=rng.randint(0, 8),
            min_similarity=rng.choice([0.0, 0.05, -1.0]),
        )
        got = [(r.id, s) for r, s in store.retrieve(query, policy)]
        expected = oracle_retrieve(store, query, policy)
        assert got == expected, f"trial {trial} (config {config_id})"


def test_segment_order_short_term_first():
    store = make_store()
    st_id = store.insert(MemoryKind.EXPERIENCE, "shared topic close match", T0, 1.0, True)
    lt_best = store.insert(MemoryKind.EXPERIENCE, "shared topic close match exact", T1)
    results = store.retrieve("shared topic close match exact", RetrievalPolicy(k_short=2, k_long=2))
    # The long-term record scores higher, but the short-term segment leads.
    assert results[0][0].id == st_id
    assert lt_best in [r.id for r, _ in results[1:]]


_VOCAB = [f"word{i}" for i in range(12)]
_PHRASE = st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=6).map(" ".join)


def _assert_bit_parity(store: MemoryStore, query: str) -> list[tuple[int, float]]:
    everything = RetrievalPolicy(k_short=10_000, k_long=10_000, min_similarity=-1.0)
    got = [(record.id, sim) for record, sim in store.retrieve(query, everything)]
    query_vec = store.embedder.embed(query)
    canonical = {r.id: cosine(query_vec, r.embedding) for r in store.records}
    for rid, sim in got:
        assert sim == canonical[rid], f"record {rid}"
    assert sorted(rid for rid, _ in got) == sorted(
        rid for rid, sim in canonical.items() if sim > -1.0
    )
    return got


@settings(max_examples=100, deadline=None)
@given(
    config_id=st.integers(min_value=1, max_value=8),
    rows=st.lists(
        st.tuples(st.integers(0, 1), _PHRASE, st.booleans()), max_size=40
    ),
    queries=st.lists(_PHRASE, min_size=1, max_size=4),
)
def test_retrieve_similarities_equal_canonical_cosine_bit_for_bit(
    config_id, rows, queries
):
    # dim=32 and twelve words make many records score exactly alike.
    config = config_by_id(config_id)
    store = MemoryStore("h", config, HashedBagEmbedder(dim=32), capacity=8)
    kinds = [k for k in MemoryKind if config.kind_enabled(k)]
    for i, (kind, text, mark_short) in enumerate(rows):
        store.insert(
            kinds[kind % len(kinds)], text, SimTime(1 + i % 5, i % 10),
            mark_short=mark_short,
        )
    built = [_assert_bit_parity(store, query) for query in queries]
    handle = io.BytesIO()
    store.save(handle)
    loaded = MemoryStore.load(
        "h", config, HashedBagEmbedder(dim=32), _rows(handle.getvalue()), capacity=8
    )
    # Replaying the inserts replays eviction: timestamps here are not
    # monotonic and short-term holds at most 8 of up to 40 records.
    assert loaded.short_term_ids == store.short_term_ids
    assert [r.embedding.tobytes() for r in loaded.records] == [
        r.embedding.tobytes() for r in store.records
    ]
    assert [_assert_bit_parity(loaded, query) for query in queries] == built


_BOUNDARY_SIZES = sorted(
    {n + d for n in (BLOCK_ROWS, 2 * BLOCK_ROWS) for d in (-1, 0, 1)}
)


def _store_of_size(dim: int, size: int) -> MemoryStore:
    rng = random.Random(dim * 1000 + size)
    store = MemoryStore("b", config_by_id(1), HashedBagEmbedder(dim=dim), capacity=8)
    for i in range(size):
        text = " ".join(rng.choice(_VOCAB) for _ in range(rng.randint(1, 6)))
        store.insert(
            rng.choice(list(MemoryKind)), text, SimTime(1 + i % 5, i % 10),
            mark_short=rng.random() < 0.3,
        )
    return store


@pytest.mark.parametrize("size", _BOUNDARY_SIZES)
@pytest.mark.parametrize("dim", [3, 7, 32, 256])
def test_similarities_equal_cosine_at_every_block_boundary(dim, size):
    store = _store_of_size(dim, size)
    handle = io.BytesIO()
    store.save(handle)
    loaded = MemoryStore.load(
        "b", store.config, HashedBagEmbedder(dim=dim), _rows(handle.getvalue()), capacity=8
    )
    assert loaded.short_term_ids == store.short_term_ids
    for query in ("word1 word2", "word3", "word0 word0 word7 word11"):
        built = _assert_bit_parity(store, query)
        assert _assert_bit_parity(loaded, query) == built
        for each in (store, loaded):
            got = [(r.id, s) for r, s in each.retrieve(query)]
            assert got == oracle_retrieve(each, query, RetrievalPolicy())


def test_record_embeddings_are_read_only_views_that_never_move():
    store = _store_of_size(16, 1)
    first = store.records[0].embedding
    expected = first.tobytes()
    for i in range(2 * BLOCK_ROWS):
        store.insert(MemoryKind.KNOWLEDGE, f"word{i % 12} fact {i}", T0)
    assert store.records[0].embedding is first
    assert first.tobytes() == expected
    for record in store.records:
        assert not record.embedding.flags.writeable
        assert record.embedding.tobytes() == store.embedder.embed(record.text).tobytes()
        assert np.shares_memory(
            record.embedding, store._blocks[record.id // BLOCK_ROWS]
        )
    with pytest.raises(ValueError):
        first[0] = 0.0


def _filled_store(
    config_id: int, size: int, seed: int, capacity: int, dim: int = 32
) -> MemoryStore:
    """``size`` seeded records of mixed kind, salience and tier."""
    rng = random.Random(seed)
    config = config_by_id(config_id)
    store = MemoryStore("q", config, HashedBagEmbedder(dim=dim), capacity=capacity)
    kinds = [k for k in MemoryKind if config.kind_enabled(k)]
    for i in range(size):
        text = " ".join(rng.choice(_VOCAB) for _ in range(rng.randint(1, 6)))
        store.insert(
            rng.choice(kinds),
            text,
            SimTime(1 + i // 30, i // 3 % 10),
            salience=rng.choice([0.5, 1.0, rng.random()]),
            mark_short=rng.random() < 0.5,
        )
    return store


@settings(max_examples=150, deadline=None)
@given(
    config_id=st.integers(min_value=1, max_value=8),
    size=st.one_of(
        st.integers(0, 12),
        st.integers(BLOCK_ROWS - 2, 2 * BLOCK_ROWS + 2),
    ),
    seed=st.integers(0, 2**16),
    capacity=st.integers(0, 10),
    k_short=st.integers(0, 6),
    k_long=st.integers(0, 6),
    min_similarity=st.sampled_from([-1.0, 0.0, 0.1, 0.3]),
    query=_PHRASE,
)
def test_retrieve_equals_the_oracle_bit_for_bit(
    config_id, size, seed, capacity, k_short, k_long, min_similarity, query
):
    # Half the inserts are short-term and capacity is at most 10, so the
    # short-term set is what eviction left; dim=32 and twelve words make
    # many similarities tie exactly.
    store = _filled_store(config_id, size, seed, capacity)
    policy = RetrievalPolicy(k_short=k_short, k_long=k_long, min_similarity=min_similarity)
    got = [(record.id, sim) for record, sim in store.retrieve(query, policy)]
    assert got == oracle_retrieve(store, query, policy)


def _evict_reference(store: MemoryStore, short_term: list[int]) -> None:
    """The short-term eviction rule as one min() per victim, over records."""
    records = store.records
    now = max(r.created_at.ordinal for r in records)
    while len(short_term) > store.capacity:
        victim = min(
            short_term,
            key=lambda rid: (
                records[rid].salience
                * store.decay ** (now - records[rid].created_at.ordinal),
                records[rid].created_at.ordinal,
                rid,
            ),
        )
        short_term.remove(victim)


@settings(max_examples=150, deadline=None)
@given(
    inserts=st.lists(
        st.tuples(
            st.integers(0, 3),  # slot: few slots, so several inserts share one
            st.sampled_from([0.5, 1.0, 0.25, 0.75]),
            st.booleans(),
        ),
        max_size=30,
    ),
    capacity=st.integers(0, 4),
    decay=st.sampled_from([0.99, 0.5, 1.0]),
)
def test_eviction_equals_the_min_rule(inserts, capacity, decay):
    config = config_by_id(1)
    store = MemoryStore("e", config, HashedBagEmbedder(dim=16), capacity=capacity, decay=decay)
    expected: list[int] = []
    for i, (slot, salience, mark_short) in enumerate(inserts):
        rid = store.insert(
            MemoryKind.KNOWLEDGE, f"word{i % 12} note {i}", SimTime(1, slot),
            salience=salience, mark_short=mark_short,
        )
        if mark_short:
            expected.append(rid)
            _evict_reference(store, expected)
        assert store.short_term_ids == tuple(expected)
    handle = io.BytesIO()
    store.save(handle)
    loaded = MemoryStore.load(
        "e", config, HashedBagEmbedder(dim=16), _rows(handle.getvalue()),
        capacity=capacity, decay=decay,
    )
    assert loaded.short_term_ids == tuple(expected)
    # The loaded store evicts by the same rule on its next insert.
    loaded.insert(MemoryKind.KNOWLEDGE, "word1 late", SimTime(2, 0), mark_short=True)
    expected.append(len(inserts))
    _evict_reference(loaded, expected)
    assert loaded.short_term_ids == tuple(expected)


def _replayed(config, embedder, rows, capacity, decay) -> MemoryStore:
    """A store rebuilt by sending each saved row through ``insert``."""
    store = MemoryStore("q", config, embedder, capacity=capacity, decay=decay)
    for row in rows:
        store.insert(
            MemoryKind(row["kind"]),
            row["text"],
            SimTime.at(row["day"], Slot.from_label(row["slot"])),
            salience=row["salience"],
            mark_short=row["short"],
        )
    return store


@settings(max_examples=100, deadline=None)
@given(
    config_id=st.integers(min_value=1, max_value=8),
    size=st.one_of(
        st.integers(0, 12),
        st.integers(BLOCK_ROWS - 2, 2 * BLOCK_ROWS + 2),
    ),
    seed=st.integers(0, 2**16),
    capacity=st.integers(0, 10),
    decay=st.sampled_from([0.99, 0.5, 1.0]),
    query=_PHRASE,
)
def test_load_equals_insert_replay_bit_for_bit(config_id, size, seed, capacity, decay, query):
    # Half the rows are short-term and capacity is at most 10, so loading
    # evicts; twelve words make texts repeat, so rows share embeddings.
    saved = _filled_store(config_id, size, seed, capacity)
    handle = io.BytesIO()
    saved.save(handle)
    rows = _rows(handle.getvalue())
    config = saved.config
    loaded = MemoryStore.load(
        "q", config, HashedBagEmbedder(dim=32), rows, capacity=capacity, decay=decay
    )
    replayed = _replayed(config, HashedBagEmbedder(dim=32), rows, capacity, decay)
    assert len(loaded.records) == len(replayed.records) == size
    for a, b in zip(loaded.records, replayed.records):
        assert (a.id, a.kind, a.text, a.created_at, a.salience, a.mark_short) == (
            b.id, b.kind, b.text, b.created_at, b.salience, b.mark_short
        )
        assert a.embedding.tobytes() == b.embedding.tobytes()
        assert not a.embedding.flags.writeable
    assert loaded._norms[:size].tobytes() == replayed._norms[:size].tobytes()
    assert loaded.short_term_ids == replayed.short_term_ids
    assert loaded._now == replayed._now
    policy = RetrievalPolicy(k_short=3, k_long=5, min_similarity=-1.0)
    assert [(r.id, s) for r, s in loaded.retrieve(query, policy)] == [
        (r.id, s) for r, s in replayed.retrieve(query, policy)
    ]
    # Both grow alike past the loaded rows.
    kind = next(k for k in MemoryKind if config.kind_enabled(k))
    for store in (loaded, replayed):
        store.insert(kind, "word3 word5 late", SimTime(5, 9), mark_short=True)
    assert loaded.short_term_ids == replayed.short_term_ids
    assert [(r.id, s) for r, s in loaded.retrieve(query, policy)] == [
        (r.id, s) for r, s in replayed.retrieve(query, policy)
    ]


def test_load_refuses_the_rows_insert_refuses(embedder):
    store = make_store(embedder=embedder)
    store.insert(MemoryKind.EXPERIENCE, "first event", T0)
    store.insert(MemoryKind.KNOWLEDGE, "a known fact", T1, mark_short=True)
    handle = io.BytesIO()
    store.save(handle)
    rows = _rows(handle.getvalue())
    with pytest.raises(ValueError, match="out of order at id 1"):
        MemoryStore.load("a01", store.config, embedder, rows[1:])
    with pytest.raises(ValueError, match="out of order at id 1"):
        MemoryStore.load("a01", store.config, embedder, rows[::-1])
    with pytest.raises(KindDisabledError):  # config 6 disables the knowledge base
        MemoryStore.load("a01", config_by_id(6), embedder, rows)
    with pytest.raises(MemoryDisabledError):
        MemoryStore.load("a01", config_by_id(9), embedder, rows)
    assert MemoryStore.load("a01", config_by_id(9), embedder, []).records == ()
    with pytest.raises(EmptyTextError):
        MemoryStore.load("a01", store.config, embedder, [rows[0], {**rows[1], "text": " "}])
    with pytest.raises(ValueError, match="'lore' is not a valid MemoryKind"):
        MemoryStore.load("a01", store.config, embedder, [{**rows[0], "kind": "lore"}])
