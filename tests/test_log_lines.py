"""Log and journal lines are written as ``json.dumps(..., ensure_ascii=False)``
writes the same values, and ``digest()`` hashes exactly ``to_jsonl()``."""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_roles_dir
from schoolsim.agent import WorkingMemory
from schoolsim.config import config_by_id
from schoolsim.embedding import HashedBagEmbedder
from schoolsim.environment import SimTime
from schoolsim.fixtures import MemoryGatedProvider
from schoolsim.llm import ChatMessage
from schoolsim.memory import MemoryKind, MemoryStore
from schoolsim.simulation import (
    InteractionLog,
    InteractionLogEntry,
    _LineEncoder,
    run_simulation,
)

# Characters JSON escapes, or leaves as they are though other tools treat
# them as line ends, and characters outside ASCII and the BMP.
_SPECIAL = ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\r", "\t", "\u2028", "\u2029",
            "\x85", "\ufeff", "\u00a0", "中", "文", "\U0001f600", "\U00020000", "a", " "]
_TEXT = st.text(alphabet=st.one_of(st.sampled_from(_SPECIAL), st.characters(codec="utf-8")), max_size=12)
# A message's content must hold more than blanks.
_CONTENT = _TEXT.map(lambda text: "m" + text)

_STEP = st.fixed_dictionaries(
    {
        "agent": st.sampled_from(["a01", "b02"]),
        "situation": _CONTENT,
        "response": _CONTENT,
        "final": _CONTENT,
        # The system message: kept, a new role, or the other agent's object.
        "system": st.sampled_from(["keep", "new", "shared"]),
        "role_text": _CONTENT,
        "category": st.none() | _TEXT,
        "retrieved": st.integers(0, 12),
        "counts": st.dictionaries(_TEXT, st.integers(0, 9), max_size=3),
        "failed": st.booleans(),
        "raw": st.none() | _TEXT,
        "move": st.none() | st.fixed_dictionaries(
            {"agent_id": _TEXT, "from": st.none() | _TEXT, "to": _TEXT}
        ),
        "rejected": st.none() | _TEXT,
        "role_updated": st.none() | st.booleans(),
    }
)


def _expected_line(entry: InteractionLogEntry) -> str:
    """The oracle: json.dumps of the entry's fields, in order."""
    values = {f.name: getattr(entry, f.name) for f in dataclasses.fields(entry)}
    values["time"] = {"day": entry.time.day, "slot": entry.time.slot.label}
    values["prompt"] = [{"role": m.role, "content": m.content} for m in entry.prompt]
    return json.dumps(values, ensure_ascii=False) + "\n"


def _entries(steps: list[dict]) -> list[InteractionLogEntry]:
    """Entries whose prompts share messages as a run's do: an agent's system
    message until its role changes, and each working-memory turn."""
    systems = {"a01": ChatMessage("system", "role a"), "b02": ChatMessage("system", "role b")}
    memories = {agent: WorkingMemory(window=2) for agent in systems}
    entries = []
    for index, step in enumerate(steps):
        agent = step["agent"]
        if step["system"] == "new":
            systems[agent] = ChatMessage("system", step["role_text"])
        elif step["system"] == "shared":
            systems[agent] = systems["b02" if agent == "a01" else "a01"]
        wm = memories[agent]
        prompt = [systems[agent], *wm.messages, ChatMessage("user", step["final"])]
        wm.append_turn(step["situation"], step["response"])
        entries.append(
            InteractionLogEntry(
                step_index=index,
                agent_id=agent,
                time=SimTime(1 + index // 6 % 5, index % 6),
                situation=step["situation"],
                prompt=prompt,
                response=step["response"],
                action_category=step["category"],
                retrieved_count=step["retrieved"],
                memory_update_counts=step["counts"],
                memory_update_failed=step["failed"],
                memory_update_raw=step["raw"],
                move=step["move"],
                rejected_move=step["rejected"],
                role_updated=step["role_updated"],
            )
        )
    return entries


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(_STEP, max_size=10), chunk=st.integers(1, 4))
def test_log_lines_equal_json_dumps(steps, chunk):
    entries = _entries(steps)
    meta = {"run_id": "r\u2028", "config": {"id": 1, "name": "中文"}}
    log = InteractionLog(meta=meta, entries=entries)
    text = log.to_jsonl()
    head = json.dumps({"meta": meta}, ensure_ascii=False, sort_keys=True) + "\n"
    assert text == head + "".join(_expected_line(entry) for entry in entries)
    assert log.digest() == hashlib.sha256(text.encode("utf-8")).hexdigest()
    # The run directory's encoder is kept across slots: a few entries at a time.
    encoder = _LineEncoder()
    written = [line for i in range(0, len(entries), chunk)
               for line in encoder.lines(None, entries[i : i + chunk])]
    assert "".join(written) == text[len(head):]


@settings(max_examples=60, deadline=None)
@given(
    records=st.lists(
        st.tuples(_CONTENT, st.floats(0, 1), st.booleans(), st.integers(0, 29)),
        max_size=8,
    ),
)
def test_journal_lines_equal_json_dumps(records):
    store = MemoryStore("a \"01", config_by_id(1), HashedBagEmbedder(dim=16))
    for text, salience, mark_short, ordinal in records:
        store.insert(
            MemoryKind.KNOWLEDGE, text, SimTime(1 + ordinal // 6, ordinal % 6),
            salience=salience, mark_short=mark_short,
        )
    handle = io.BytesIO()
    store.save(handle)
    expected = "".join(
        json.dumps(
            {
                "agent": store.agent_id, "id": r.id, "kind": r.kind.value,
                "day": r.created_at.day, "slot": r.created_at.slot.label,
                "salience": r.salience, "short": r.mark_short, "text": r.text,
            },
            ensure_ascii=False,
        ) + "\n"
        for r in store.records
    )
    assert handle.getvalue() == expected.encode("utf-8")


def test_digest_holds_little_beyond_the_log(mini_dataset, mini_fixture):
    log = run_simulation(
        mini_dataset,
        load_roles_dir(mini_fixture.roles_dir),
        MemoryGatedProvider.from_file(mini_fixture.script_path),
        config_by_id(1),
        seed=0,
    )
    size = len(log.to_jsonl().encode("utf-8"))
    tracemalloc.start()
    try:
        digest = log.digest()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(log.to_jsonl().encode("utf-8")).hexdigest()
    # Hashing the whole log as one str and then as bytes held about three
    # times its size.
    assert peak - retained < 0.5 * size
