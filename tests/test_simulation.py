from __future__ import annotations

import builtins
import dataclasses
import hashlib
import json
import re
import shutil
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from conftest import load_roles_dir
from schoolsim.agent import serialize_role
from schoolsim.config import config_by_id, config_matrix
from schoolsim.dataset import load_standard_group
from schoolsim.environment import Slot, format_situation_header, parse_situation_header
from schoolsim.errors import (
    MissingFieldError,
    NoJsonFoundError,
    ProviderError,
    ScriptMissError,
    WrongTypeError,
)
from schoolsim.embedding import HashedBagEmbedder, shared_embedder
from schoolsim.fixtures import MemoryGatedProvider, build_fixture
from schoolsim.llm import (
    ChatMessage,
    GenParams,
    HttpProvider,
    Provider,
    Request,
    ScriptedProvider,
)
from schoolsim.memory import MemoryStore, MemoryUpdate
from schoolsim.prompts import MEMORY_UPDATE_HEADER, ROLE_UPDATE_HEADER
from schoolsim.simulation import (
    ReplayBundle,
    Simulation,
    _LineEncoder,
    iter_log,
    parse_memory_update,
    run_simulation,
)

CASES = json.loads(
    (Path(__file__).parent / "data" / "memory_update_cases.json").read_text("utf-8")
)


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_memory_update_parse_contract(case):
    if case["expect"] == "ok":
        update = parse_memory_update(case["text"])
        lens = [len(getattr(update, name)) for name in MemoryUpdate.FIELDS]
        assert lens == case["lens"]
    elif case["expect"] == "missing":
        with pytest.raises(MissingFieldError) as excinfo:
            parse_memory_update(case["text"])
        assert excinfo.value.field == case["field"]
    elif case["expect"] == "wrongtype":
        with pytest.raises(WrongTypeError) as excinfo:
            parse_memory_update(case["text"])
        assert excinfo.value.field == case["field"]
    else:
        with pytest.raises(NoJsonFoundError):
            parse_memory_update(case["text"])


def _run(dataset, fixture, config_id, provider=None, **kwargs):
    roles = load_roles_dir(fixture.roles_dir)
    provider = provider or MemoryGatedProvider.from_file(fixture.script_path)
    log = run_simulation(dataset, roles, provider, config_by_id(config_id), **kwargs)
    if kwargs.get("resume"):
        _assert_digests_agree(kwargs["out_dir"], log)
    return log


def _assert_digests_agree(out: Path, log) -> None:
    """The manifest certifies the bytes of log.jsonl, and the log re-encodes
    to those bytes."""
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    written = hashlib.sha256((out / "log.jsonl").read_bytes()).hexdigest()
    assert log.digest() == manifest["log_digest"] == written


def test_no_memory_config_never_touches_the_store(mini_dataset, mini_fixture):
    roles = load_roles_dir(mini_fixture.roles_dir)
    provider = MemoryGatedProvider.from_file(mini_fixture.script_path)
    sim = Simulation(mini_dataset, roles, provider, config_by_id(9), seed=0)
    log = sim.run()
    counters = sim.aggregate_counters()
    assert counters["retrieve_calls"] == 0
    assert counters["memory_update_calls"] == 0
    assert counters["insert_experience"] == 0
    assert counters["insert_knowledge"] == 0
    # Prompt carries only role + history + situation, never a memories block.
    for entry in log.entries:
        assert "Relevant memories:" not in entry.prompt[-1].content


def test_replay_run_reproduces_references(mini_dataset, mini_fixture):
    log = _run(mini_dataset, mini_fixture, 1, provider=ReplayBundle.from_dataset(mini_dataset))
    assert log.responses() == mini_dataset.reference_answers()


def test_log_has_one_entry_per_step_with_update_recorded(mini_dataset, mini_fixture):
    log = _run(mini_dataset, mini_fixture, 1)
    assert len(log.entries) == mini_dataset.qa_count
    for entry in log.entries:
        assert entry.memory_update_failed or isinstance(entry.memory_update_counts, dict)


def test_scripted_determinism_byte_identical(mini_dataset, mini_fixture):
    log_a = _run(mini_dataset, mini_fixture, 1, seed=7)
    log_b = _run(mini_dataset, mini_fixture, 1, seed=7)
    assert log_a.to_jsonl() == log_b.to_jsonl()
    assert log_a.digest() == log_b.digest()


def test_slot_parallelism_matches_sequential(mini_dataset, mini_fixture):
    sequential = _run(mini_dataset, mini_fixture, 1, seed=0)
    provider = MemoryGatedProvider.from_file(mini_fixture.script_path)
    provider.jobs = 4
    parallel = _run(mini_dataset, mini_fixture, 1, provider=provider, seed=0)
    assert sequential.to_jsonl() == parallel.to_jsonl()


def test_malformed_updates_degrade_to_empty_and_run_completes(mini_dataset, mini_fixture):
    provider = ScriptedProvider({}, fallback="ok but never json")
    log = _run(mini_dataset, mini_fixture, 1, provider=provider)
    assert len(log.entries) == mini_dataset.qa_count
    assert all(entry.memory_update_failed for entry in log.entries)
    assert all(entry.memory_update_raw == "ok but never json" for entry in log.entries)


def test_moves_are_applied_and_rejected_moves_logged(mini_dataset, mini_fixture):
    roles = load_roles_dir(mini_fixture.roles_dir)

    class MoveProvider(Provider):
        name = "mover"

        def complete(self, messages, params=None):
            content = messages[-1].content
            if content.startswith(MEMORY_UPDATE_HEADER):
                return json.dumps(MemoryUpdate().as_dict())
            if content.startswith(ROLE_UPDATE_HEADER):
                return "the role setting remains largely unchanged"
            return "wandering off\nACTION: Peer Learning/Interaction\nMOVE: Library"

    sim = Simulation(mini_dataset, roles, MoveProvider(), config_by_id(1), seed=0)
    log = sim.run()
    student_moves = [e.move for e in log.entries if e.agent_id.startswith("s") and e.move]
    assert student_moves and all(m["to"] == "Library" for m in student_moves)

    class BadMoveProvider(MoveProvider):
        name = "bad-mover"

        def complete(self, messages, params=None):
            text = super().complete(messages, params)
            return text.replace("MOVE: Library", "MOVE: Narnia")

    sim2 = Simulation(mini_dataset, load_roles_dir(mini_fixture.roles_dir), BadMoveProvider(), config_by_id(1))
    log2 = sim2.run()
    assert sim2.aggregate_counters()["rejected_moves"] > 0
    rejected = [e for e in log2.entries if e.rejected_move == "Narnia"]
    assert rejected and all(e.move is None for e in rejected)


def test_role_update_triggered_once_per_day_at_extracurricular(mini_dataset, mini_fixture):
    roles = load_roles_dir(mini_fixture.roles_dir)
    provider = MemoryGatedProvider.from_file(mini_fixture.script_path)
    sim = Simulation(mini_dataset, roles, provider, config_by_id(1), seed=0)
    log = sim.run()
    days = {e.time.day for e in log.entries}
    agents = set(mini_dataset.agent_ids)
    assert sim.aggregate_counters()["role_update_calls"] == len(days) * len(agents)
    flagged = [e for e in log.entries if e.role_updated is not None]
    assert all(e.time.slot.name == "EXTRACURRICULAR" for e in flagged)
    assert len(flagged) == len(days) * len(agents)


def test_every_provider_call_carries_the_run_gen_params(
    mini_dataset, mini_roles, gated_provider
):
    calls = []

    class Recording(Provider):
        name = gated_provider.name

        def complete(self, messages, params=None):
            calls.append((messages[-1].content.split("\n", 1)[0], params))
            return gated_provider.complete(messages, params)

    Simulation(mini_dataset, mini_roles, Recording(), config_by_id(1), seed=7).run()
    expected = GenParams(temperature=0.7, max_tokens=None, seed=7)
    assert ROLE_UPDATE_HEADER.split("\n", 1)[0] in {first for first, _ in calls}
    assert all(got == expected for _, got in calls)


def test_provider_errors_carry_agent_and_step_context(mini_dataset, mini_fixture):
    provider = ScriptedProvider({})  # no fallback: first call misses
    with pytest.raises(ScriptMissError) as excinfo:
        _run(mini_dataset, mini_fixture, 1, provider=provider)
    message = str(excinfo.value)
    assert "agent=" in message and "step=" in message


def test_abort_leaves_resumable_checkpoint(tmp_path, mini_dataset, mini_fixture):
    reference = _run(mini_dataset, mini_fixture, 1, seed=0)

    good = MemoryGatedProvider.from_file(mini_fixture.script_path)
    fail_after = mini_dataset.qa_count // 2

    class FlakyProvider(Provider):
        name = good.name  # same identity so run_id matches for resume

        def __init__(self):
            self.calls = 0

        def complete(self, messages, params=None):
            if not messages[-1].content.startswith(
                (MEMORY_UPDATE_HEADER, ROLE_UPDATE_HEADER)
            ):
                self.calls += 1
                if self.calls > fail_after:
                    raise ProviderError("synthetic outage")
            return good.complete(messages, params)

    out = tmp_path / "run"
    roles = load_roles_dir(mini_fixture.roles_dir)
    with pytest.raises(ProviderError):
        run_simulation(
            mini_dataset, roles, FlakyProvider(), config_by_id(1), seed=0, out_dir=out
        )
    assert (out / "checkpoint" / "journal.jsonl").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "aborted"
    assert 0 < manifest["completed_steps"] < mini_dataset.qa_count

    resumed = run_simulation(
        mini_dataset,
        load_roles_dir(mini_fixture.roles_dir),
        MemoryGatedProvider.from_file(mini_fixture.script_path),
        config_by_id(1),
        seed=0,
        out_dir=out,
        resume=True,
    )
    assert resumed.to_jsonl() == reference.to_jsonl()
    _assert_digests_agree(out, resumed)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "completed"
    assert manifest["completed_steps"] == mini_dataset.qa_count


class _AbortAtAction(Provider):
    """The memory-gated provider, raising at action call number ``abort_at``."""

    def __init__(self, inner: Provider, abort_at: int):
        self.inner = inner
        self.name = inner.name
        self.abort_at = abort_at
        self.actions = 0

    def complete(self, messages, params=None):
        if not messages[-1].content.startswith((MEMORY_UPDATE_HEADER, ROLE_UPDATE_HEADER)):
            if self.actions == self.abort_at:
                raise ProviderError("synthetic outage")
            self.actions += 1
        return self.inner.complete(messages, params)


class _AbortAt(Provider):
    """``inner``, raising ``error`` at its request number ``abort_at`` (from
    0) of ``kind``."""

    def __init__(self, inner: Provider, kind: str, abort_at: int, error=ProviderError):
        self.inner = inner
        self.name = inner.name
        self.kind = kind
        self.abort_at = abort_at
        self.error = error
        self.seen = 0

    def complete(self, messages, params=None):
        return self.inner.complete(messages, params)

    def respond(self, request, params=None):
        if request.kind == self.kind:
            if self.seen == self.abort_at:
                raise self.error("synthetic outage")
            self.seen += 1
        return self.inner.respond(request, params)


def _final_slot_start(dataset) -> int:
    final = dataset.steps[-1].time.ordinal
    return sum(1 for step in dataset.steps if step.time.ordinal != final)


def _manifest_without_clock(out: Path) -> dict:
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    del manifest["written_at"]
    return manifest


def _run_dir_files(out: Path) -> dict:
    return {
        str(path.relative_to(out)): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }


@pytest.fixture()
def reference_run(tmp_path, mini_dataset, mini_fixture):
    """An uninterrupted checkpointed config-1 run at seed 0."""
    out = tmp_path / "reference"
    _run(mini_dataset, mini_fixture, 1, seed=0, out_dir=out)
    return out


def test_resumed_run_directory_equals_uninterrupted(tmp_path, mini_dataset, mini_fixture):
    # Every config: the restored stores have a kind disabled, a unified
    # base, no short/long-term split, or no memory at all.
    for config in config_matrix():
        reference = tmp_path / f"reference-{config.id}"
        _run(mini_dataset, mini_fixture, config.id, seed=0, out_dir=reference)
        out = tmp_path / f"resumed-{config.id}"
        provider = _AbortAtAction(
            MemoryGatedProvider.from_file(mini_fixture.script_path),
            _final_slot_start(mini_dataset),
        )
        with pytest.raises(ProviderError):
            _run(mini_dataset, mini_fixture, config.id, provider=provider, seed=0, out_dir=out)
        _run(mini_dataset, mini_fixture, config.id, seed=0, out_dir=out, resume=True)
        # Counters included: the manifest reads all of them off the log.
        assert _manifest_without_clock(out) == _manifest_without_clock(reference), config.id
        assert _run_dir_files(out) == _run_dir_files(reference), config.id
    # The replay provider, aborted at each kind of request after some slots
    # committed: it answers by step, so the resumed run gets the answers the
    # uninterrupted one did.
    reference = tmp_path / "reference-replay"
    replay = ReplayBundle.from_dataset
    _run(mini_dataset, mini_fixture, 1, provider=replay(mini_dataset), seed=0, out_dir=reference)
    half = mini_dataset.qa_count // 2
    for kind, abort_at in (("action", half), ("update", half), ("role_update", 7)):
        out = tmp_path / f"resumed-replay-{kind}"
        provider = _AbortAt(replay(mini_dataset), kind, abort_at)
        with pytest.raises(ProviderError, match="synthetic outage"):
            _run(mini_dataset, mini_fixture, 1, provider=provider, seed=0, out_dir=out)
        assert _manifest_without_clock(out)["completed_steps"] > 0, kind
        provider = replay(mini_dataset)
        _run(mini_dataset, mini_fixture, 1, provider=provider, seed=0, out_dir=out, resume=True)
        assert _manifest_without_clock(out) == _manifest_without_clock(reference), kind
        assert _run_dir_files(out) == _run_dir_files(reference), kind


class _AnswerAtAction(Provider):
    """The memory-gated provider, answering ``answer`` at action call ``at``."""

    def __init__(self, inner: Provider, at: int, answer):
        self.inner = inner
        self.name = inner.name
        self.at = at
        self.answer = answer
        self.actions = 0

    def complete(self, messages, params=None):
        if not messages[-1].content.startswith((MEMORY_UPDATE_HEADER, ROLE_UPDATE_HEADER)):
            self.actions += 1
            if self.actions == self.at:
                return self.answer
        return self.inner.complete(messages, params)


@pytest.mark.parametrize("answer", ["  ", "", None], ids=["blank", "empty", "null"])
def test_a_blank_action_answer_aborts_the_run_resumably(
    tmp_path, mini_dataset, mini_fixture, reference_run, answer
):
    # A null answer is what an HTTP reply with "content": null gives.
    out = tmp_path / "run"
    provider = _AnswerAtAction(
        MemoryGatedProvider.from_file(mini_fixture.script_path), 7, answer
    )
    with pytest.raises(ProviderError, match=r"\[agent=\w+ step=6\] blank action answer"):
        _run(mini_dataset, mini_fixture, 1, provider=provider, seed=0, out_dir=out)
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    assert manifest["status"] == "aborted"
    assert 0 < manifest["completed_steps"] <= 6
    _run(mini_dataset, mini_fixture, 1, seed=0, out_dir=out, resume=True)
    assert _manifest_without_clock(out) == _manifest_without_clock(reference_run)
    assert _run_dir_files(out) == _run_dir_files(reference_run)


class _AnswerAtUpdate(Provider):
    """The memory-gated provider, answering ``answer`` at the ``at``-th call
    whose prompt starts with ``header``."""

    def __init__(self, inner: Provider, header: str, at: int, answer):
        self.inner = inner
        self.name = inner.name
        self.header = header
        self.at = at
        self.answer = answer
        self.calls = 0

    def complete(self, messages, params=None):
        if messages[-1].content.startswith(self.header):
            self.calls += 1
            if self.calls == self.at:
                return self.answer
        return self.inner.complete(messages, params)


@pytest.mark.parametrize(
    "header, kind",
    [(MEMORY_UPDATE_HEADER, "memory-update"), (ROLE_UPDATE_HEADER, "role-update")],
    ids=["memory-update", "role-update"],
)
@pytest.mark.parametrize("answer", [None, 0], ids=["null", "number"])
def test_a_non_string_update_answer_aborts_the_run_resumably(
    tmp_path, mini_dataset, mini_fixture, reference_run, header, kind, answer
):
    out = tmp_path / "run"
    provider = _AnswerAtUpdate(
        MemoryGatedProvider.from_file(mini_fixture.script_path), header, 7, answer
    )
    with pytest.raises(ProviderError, match=rf"\[agent=\w+ step=\d+\] non-string {kind} answer"):
        _run(mini_dataset, mini_fixture, 1, provider=provider, seed=0, out_dir=out)
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    assert manifest["status"] == "aborted"
    assert 0 < manifest["completed_steps"] < mini_dataset.qa_count
    _run(mini_dataset, mini_fixture, 1, seed=0, out_dir=out, resume=True)
    assert _manifest_without_clock(out) == _manifest_without_clock(reference_run)
    assert _run_dir_files(out) == _run_dir_files(reference_run)


def test_a_blank_memory_update_answer_is_an_unparseable_update(mini_dataset, mini_fixture):
    provider = _AnswerAtUpdate(
        MemoryGatedProvider.from_file(mini_fixture.script_path), MEMORY_UPDATE_HEADER, 7, ""
    )
    log = _run(mini_dataset, mini_fixture, 1, provider=provider, seed=0)
    failed = [entry for entry in log.entries if entry.memory_update_failed]
    assert [(entry.step_index, entry.memory_update_raw) for entry in failed] == [(6, "")]


def _distinct_messages(entries) -> int:
    return len({id(message) for entry in entries for message in entry.prompt})


@pytest.mark.parametrize("abort", ["final-slot", "day-two"])
def test_a_resumed_log_shares_its_messages_as_an_uninterrupted_one(
    tmp_path, mini_dataset, mini_fixture, abort
):
    # Every reflection changes the role, so system messages change too.
    def provider():
        return _TraitAtReflection(MemoryGatedProvider.from_file(mini_fixture.script_path))

    reference = run_simulation(
        mini_dataset, load_roles_dir(mini_fixture.roles_dir), provider(),
        config_by_id(1), seed=0,
    )
    if abort == "final-slot":
        abort_at = _final_slot_start(mini_dataset)
    else:
        abort_at = sum(1 for step in mini_dataset.steps if step.time.day == 1)
    out = tmp_path / "run"
    with pytest.raises(ProviderError):
        _run(
            mini_dataset, mini_fixture, 1, provider=_AbortAtAction(provider(), abort_at),
            seed=0, out_dir=out,
        )
    resumed = _run(
        mini_dataset, mini_fixture, 1, provider=provider(), seed=0, out_dir=out,
        resume=True,
    )
    assert resumed.to_jsonl() == reference.to_jsonl()
    assert _distinct_messages(resumed.entries) == _distinct_messages(reference.entries)
    # Far fewer than one per message shown: prompts share turns and roles.
    shown = sum(len(entry.prompt) for entry in reference.entries)
    assert 3 * _distinct_messages(reference.entries) < shown
    # Restored entries hold the dataset's texts, not copies, and one object
    # per counter name.
    steps = mini_dataset.steps
    assert all(entry.situation is steps[entry.step_index].user for entry in resumed.entries)
    names = [name for entry in resumed.entries for name in entry.memory_update_counts]
    assert len({id(name) for name in names}) == len(set(names))


def test_a_restore_holds_little_beyond_what_it_keeps(tmp_path, mini_dataset, mini_fixture):
    out = tmp_path / "run"
    provider = _AbortAtAction(
        MemoryGatedProvider.from_file(mini_fixture.script_path), _final_slot_start(mini_dataset)
    )
    with pytest.raises(ProviderError):
        _run(mini_dataset, mini_fixture, 1, provider=provider, seed=0, out_dir=out)
    sim = Simulation(
        mini_dataset,
        load_roles_dir(mini_fixture.roles_dir),
        MemoryGatedProvider.from_file(mini_fixture.script_path),
        config_by_id(1),
        seed=0,
    )
    tracemalloc.start()
    try:
        sim.restore_checkpoint(out)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The restore cut log.jsonl back to its committed length. Reading the
    # whole log at once held about four copies of it.
    assert peak - retained < 2 * (out / "log.jsonl").stat().st_size


_TRAIT = "Now checks in with the quiet students first."


class _TraitAtReflection(Provider):
    """The memory-gated provider, except that every reflection adds a trait."""

    def __init__(self, inner: Provider):
        self.inner = inner
        self.name = "trait-at-reflection"

    def complete(self, messages, params=None):
        if messages[-1].content.startswith(ROLE_UPDATE_HEADER):
            return _TRAIT
        return self.inner.complete(messages, params)


def _assert_prompts_show_the_evolved_roles(entries, base_roles) -> None:
    """Each prompt's system content is its agent's role with one trait per
    earlier reflection."""
    traits = {agent_id: 0 for agent_id in base_roles}
    for entry in entries:
        evolved = dataclasses.replace(
            base_roles[entry.agent_id], mutable_aspects=[_TRAIT] * traits[entry.agent_id]
        )
        assert entry.prompt[0].content == serialize_role(evolved)
        traits[entry.agent_id] += bool(entry.role_updated)
    assert min(traits.values()) >= 1


def test_prompts_carry_the_role_updated_at_reflection(tmp_path, mini_dataset, mini_fixture):
    base_roles = load_roles_dir(mini_fixture.roles_dir)
    day_two = sum(1 for step in mini_dataset.steps if step.time.day == 1)
    assert 0 < day_two < mini_dataset.qa_count

    def provider():
        return _TraitAtReflection(MemoryGatedProvider.from_file(mini_fixture.script_path))

    reference = tmp_path / "reference"
    sim = Simulation(
        mini_dataset, load_roles_dir(mini_fixture.roles_dir), provider(),
        config_by_id(1), seed=0,
    )
    log = sim.run(out_dir=reference)
    _assert_prompts_show_the_evolved_roles(log.entries, base_roles)
    assert any(e.role_updated and e.time.day == 1 for e in log.entries)
    for agent_id, role in sim.roles.items():
        assert sim.system_messages[agent_id].content == serialize_role(role)

    # Abort at the first action of day 2: the last commit holds day 1's
    # reflections, and the resumed run rebuilds the system messages from it.
    out = tmp_path / "resumed"
    with pytest.raises(ProviderError):
        _run(
            mini_dataset, mini_fixture, 1, provider=_AbortAtAction(provider(), day_two),
            seed=0, out_dir=out,
        )
    resumed = _run(
        mini_dataset, mini_fixture, 1, provider=provider(), seed=0, out_dir=out,
        resume=True,
    )
    _assert_prompts_show_the_evolved_roles(resumed.entries, base_roles)
    assert _run_dir_files(out) == _run_dir_files(reference)


def _edit_a_turn(log_path: Path) -> tuple[int, int]:
    """Edit in place, at the same length, the first working-memory turn shown
    in the prompt of step 12 of ``log_path``; returns the step and the number
    of turn messages its prompt shows."""
    lines = log_path.read_bytes().split(b"\n")
    row = json.loads(lines[13])
    turn = row["prompt"][1]
    assert len(row["prompt"]) > 3 and turn["content"][0].isalpha()
    turn["content"] = turn["content"][0].swapcase() + turn["content"][1:]
    edited = json.dumps(row, ensure_ascii=False).encode("utf-8")
    assert len(edited) == len(lines[13]) and edited != lines[13]
    lines[13] = edited
    log_path.write_bytes(b"\n".join(lines))
    return 12, len(row["prompt"]) - 2


@pytest.mark.parametrize("path", ["predicted", "role-change", "edited-turn"])
def test_every_restored_entry_re_encodes_to_its_committed_line(
    tmp_path, mini_dataset, mini_fixture, path
):
    # A memory-gated run's lines are all predicted but for each final message
    # and the outcomes. A role change decodes the next system message, and a
    # turn that working memory does not hold decodes its prompt's turns.
    def provider():
        inner = MemoryGatedProvider.from_file(mini_fixture.script_path)
        return _TraitAtReflection(inner) if path == "role-change" else inner

    abort_at = _final_slot_start(mini_dataset)
    if path == "role-change":
        # Day two's first slot is the first to show the changed roles: each
        # agent's latest line then holds a decoded system message.
        first = next(step.time.ordinal for step in mini_dataset.steps if step.time.day == 2)
        abort_at = sum(1 for step in mini_dataset.steps if step.time.ordinal <= first)
    out = tmp_path / "run"
    with pytest.raises(ProviderError):
        _run(
            mini_dataset, mini_fixture, 1,
            provider=_AbortAtAction(provider(), abort_at), seed=0, out_dir=out,
        )
    decoded_turns = 0
    if path == "edited-turn":
        edited, decoded_turns = _edit_a_turn(out / "log.jsonl")
    committed = (out / "log.jsonl").read_bytes().split(b"\n")[1:-1]
    sim = Simulation(
        mini_dataset, load_roles_dir(mini_fixture.roles_dir), provider(), config_by_id(1),
        seed=0,
    )
    sim.restore_checkpoint(out)
    assert len(sim.entries) == len(committed) == abort_at
    lines = _LineEncoder().lines(None, sim.entries)
    assert [line.encode("utf-8") for line in lines] == [line + b"\n" for line in committed]

    # Only the messages that differ from what the restore held were built:
    # as many as the uninterrupted run holds, and the edited prompt's turns.
    reference = run_simulation(
        mini_dataset, load_roles_dir(mini_fixture.roles_dir), provider(), config_by_id(1),
        seed=0,
    ).entries[: len(sim.entries)]
    assert _distinct_messages(sim.entries) == _distinct_messages(reference) + decoded_turns
    if path == "role-change":
        assert any(entry.role_updated for entry in sim.entries)
    if path == "edited-turn":
        entry = sim.entries[edited]
        assert entry.prompt[1].content != reference[edited].prompt[1].content
        assert entry.prompt[2:-1] == reference[edited].prompt[2:-1]
    # The encoder holds each agent's latest system message and the turns its
    # next prompt repeats, so the next slot escapes only the new messages.
    latest = {entry.agent_id: entry.prompt[0] for entry in sim.entries}
    for agent_id, wm in sim.working_memories.items():
        held = {id(message) for message, _json in sim._encoder._held[agent_id].values()}
        shown = [latest[agent_id], *wm.messages[:-2]]
        assert {id(message) for message in shown} <= held, agent_id


def test_a_crash_in_a_fresh_run_leaves_no_stale_completed_manifest(
    mini_dataset, mini_fixture, reference_run
):
    # _run does not catch KeyboardInterrupt, so it stands in for a hard crash
    # of a config-9 run into the directory of a completed config-1 run.
    inner = MemoryGatedProvider.from_file(mini_fixture.script_path)
    provider = _AbortAt(inner, "action", 8, error=KeyboardInterrupt)
    with pytest.raises(KeyboardInterrupt):
        _run(mini_dataset, mini_fixture, 9, provider=provider, seed=0, out_dir=reference_run)
    assert next(iter_log(reference_run / "log.jsonl"))["config"]["id"] == 9
    manifest = reference_run / "manifest.json"
    if manifest.exists():
        saved = json.loads(manifest.read_text("utf-8"))
        written = hashlib.sha256((reference_run / "log.jsonl").read_bytes()).hexdigest()
        assert saved["status"] != "completed" or saved["log_digest"] == written


def test_a_manifest_is_replaced_whole(monkeypatch, mini_dataset, mini_fixture, reference_run):
    # A crash before the new manifest is moved into place leaves the old one.
    before = (reference_run / "manifest.json").read_bytes()

    def crash(source, target):
        raise OSError("crash before the rename")

    monkeypatch.setattr("schoolsim.simulation.os.replace", crash)
    with pytest.raises(OSError, match="crash before the rename"):
        _run(mini_dataset, mini_fixture, 1, seed=0, out_dir=reference_run, resume=True)
    assert (reference_run / "manifest.json").read_bytes() == before


def test_fresh_run_replaces_an_earlier_run_directory(
    tmp_path, mini_dataset, mini_fixture, reference_run
):
    _run(mini_dataset, mini_fixture, 1, seed=0, out_dir=reference_run)
    again = tmp_path / "again"
    _run(mini_dataset, mini_fixture, 1, seed=0, out_dir=again)
    assert _run_dir_files(reference_run) == _run_dir_files(again)


@pytest.mark.parametrize(
    "field", ["seed", "params", "provider", "config", "dataset_digest"]
)
def test_resume_refuses_a_different_run(
    tmp_path, mini_dataset, mini_fixture, reference_run, field
):
    dataset, config_id, kwargs = mini_dataset, 1, {"seed": 0}
    provider = MemoryGatedProvider.from_file(mini_fixture.script_path)
    if field == "seed":
        kwargs["seed"] = 5
    elif field == "params":
        # A journal written with another working-memory window.
        journal = reference_run / "checkpoint" / "journal.jsonl"
        header, rest = journal.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        header["params"]["window"] = 5
        journal.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + rest)
    elif field == "provider":
        provider.name = "other-provider"
    elif field == "config":
        config_id = 2
    else:
        # The mini fixture's first day only.
        paths = build_fixture(tmp_path / "day-one", teachers=2, students=4, days=1, seed=0)
        dataset = load_standard_group(paths.agents_dir)
    before = _run_dir_files(reference_run)
    with pytest.raises(ValueError, match=f"different {field}"):
        _run(
            dataset, mini_fixture, config_id, provider=provider,
            out_dir=reference_run, resume=True, **kwargs,
        )
    assert _run_dir_files(reference_run) == before


def _downgrade_to_checkpoint_v2(run_dir: Path) -> None:
    """Replace a run directory's journal by the checkpoint-v2 layout: a
    checkpoint/state.json plus one memory-store-v2 file per agent. The store
    states are placeholders; a resume refuses the layout on state.json alone."""
    ckpt = run_dir / "checkpoint"
    journal = ckpt / "journal.jsonl"
    lines = [json.loads(line) for line in journal.read_text("utf-8").splitlines()]
    journal.unlink()
    header, commit = lines[0], lines[-1]["commit"]
    (ckpt / "stores").mkdir()
    stores = {}
    for agent_id in commit["roles"]:
        saved = {"short_term": [], "now": None}
        rows = [dict(row, vector="") for row in lines[1:-1] if row.get("agent") == agent_id]
        text = "".join(
            json.dumps(row) + "\n"
            for row in [{"format": "memory-store-v2", "agent_id": agent_id}] + rows
        )
        (ckpt / "stores" / f"{agent_id}.mem").write_text(text, "utf-8")
        stores[agent_id] = {"bytes": len(text.encode("utf-8")), **saved}
    state = {**header, **commit, "format": "checkpoint-v2", "stores": stores, "move_log": []}
    (ckpt / "state.json").write_text(json.dumps(state), "utf-8")


def test_resume_refuses_a_checkpoint_v2_directory(mini_dataset, mini_fixture, reference_run):
    _downgrade_to_checkpoint_v2(reference_run)
    with pytest.raises(ValueError, match="checkpoint-v2") as excinfo:
        _run(mini_dataset, mini_fixture, 1, seed=0, out_dir=reference_run, resume=True)
    assert "memory-store-v1" in str(excinfo.value)


def test_resume_refuses_a_memory_store_v1_checkpoint(
    mini_dataset, mini_fixture, reference_run
):
    _downgrade_to_checkpoint_v2(reference_run)
    # The layout before append-only checkpoints: full store snapshots with
    # their mutable fields in the header, role files, no format or lengths.
    ckpt = reference_run / "checkpoint"
    state = json.loads((ckpt / "state.json").read_text("utf-8"))
    for agent_id, saved in state.pop("stores").items():
        path = ckpt / "stores" / f"{agent_id}.mem"
        lines = path.read_text("utf-8").splitlines(keepends=True)
        header = json.loads(lines[0])
        header.update(format="memory-store-v1", now=saved["now"], short_term=saved["short_term"])
        path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]), "utf-8")
    for key in ("format", "log_bytes", "roles", "provider"):
        del state[key]
    (ckpt / "state.json").write_text(json.dumps(state), "utf-8")
    with pytest.raises(ValueError, match="memory-store-v1"):
        _run(mini_dataset, mini_fixture, 1, seed=0, out_dir=reference_run, resume=True)


class _Crash:
    """Where a run crashes: call ``fail_at`` (0-based) of the writes and
    flushes made inside checkpoint ``number``, or nowhere when it is None."""

    def __init__(self, number: int, fail_at: int | None, torn: bool):
        self.number = number
        self.fail_at = fail_at
        self.torn = torn
        self.seen: list[str] = []
        self.armed = False
        self.crashed = False

    def call(self, what: str, tear) -> None:
        if not self.armed:
            return
        self.seen.append(what)
        if len(self.seen) - 1 == self.fail_at:
            if self.torn:
                tear()
            self.crashed = True
            raise OSError(f"injected crash at {what}")


class _CrashableFile:
    """A binary file opened for writing that holds its own buffer, so that a
    crash drops the bytes never flushed, as a killed process would.

    A crashing write first puts the buffer and, when torn, half its data on
    disk (a buffer that filled up part way through); a crashing flush puts
    half the buffer on disk when torn, nothing otherwise.
    """

    def __init__(self, raw, crash: _Crash):
        self.raw = raw
        self.name = Path(raw.name).name
        self.crash = crash
        self.pending = b""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def write(self, data: bytes) -> int:
        self.crash.call(
            f"write {self.name}",
            lambda: self.raw.write(self.pending + data[: len(data) // 2]),
        )
        self.pending += data
        return len(data)

    def flush(self) -> None:
        self.crash.call(
            f"flush {self.name}",
            lambda: self.raw.write(self.pending[: len(self.pending) // 2]),
        )
        self.raw.write(self.pending)
        self.pending = b""

    def close(self) -> None:
        if not self.crash.crashed:
            self.raw.write(self.pending)
        self.raw.close()


def _crash_inside_checkpoint(monkeypatch, crash: _Crash) -> None:
    """Route the run's binary writes through ``_CrashableFile`` and arm
    ``crash`` for the length of checkpoint ``crash.number``."""
    real_save = Simulation.save_checkpoint
    real_open = builtins.open
    saves = []

    def open_(file, mode="r", *args, **kwargs):
        if "b" in mode and set(mode) & set("wa"):
            return _CrashableFile(real_open(file, mode, buffering=0), crash)
        return real_open(file, mode, *args, **kwargs)

    def save_checkpoint(self):
        saves.append(None)
        crash.armed = len(saves) == crash.number
        try:
            real_save(self)
        finally:
            crash.armed = False

    monkeypatch.setattr(builtins, "open", open_)
    monkeypatch.setattr(Simulation, "save_checkpoint", save_checkpoint)


@pytest.mark.parametrize("torn", [False, True], ids=["write-fails", "torn-write"])
def test_crash_at_any_checkpoint_write_resumes_byte_identical(
    tmp_path, monkeypatch, mini_dataset, mini_fixture, reference_run, torn
):
    expected = _run_dir_files(reference_run)
    counting = _Crash(3, None, torn)
    _crash_inside_checkpoint(monkeypatch, counting)
    _run(mini_dataset, mini_fixture, 1, seed=0, out_dir=tmp_path / "count")
    monkeypatch.undo()
    assert _run_dir_files(tmp_path / "count") == expected
    # The slot's log entries, then its memory records and the commit line.
    assert counting.seen[:2] == ["write log.jsonl", "flush log.jsonl"]
    assert counting.seen[-2:] == ["write journal.jsonl", "flush journal.jsonl"]
    assert len(counting.seen) >= 5
    for fail_at, what in enumerate(counting.seen):
        out = tmp_path / f"fail-{fail_at}"
        _crash_inside_checkpoint(monkeypatch, _Crash(3, fail_at, torn))
        with pytest.raises(OSError, match="injected crash"):
            _run(mini_dataset, mini_fixture, 1, seed=0, out_dir=out)
        monkeypatch.undo()
        _run(mini_dataset, mini_fixture, 1, seed=0, out_dir=out, resume=True)
        files = _run_dir_files(out)
        assert files["log.jsonl"] == expected["log.jsonl"], what
        assert files == expected, what


def test_resume_ignores_a_commit_line_without_its_newline(
    tmp_path, mini_dataset, mini_fixture, reference_run
):
    out = tmp_path / "torn"
    shutil.copytree(reference_run, out)
    journal = out / "checkpoint" / "journal.jsonl"
    data = journal.read_bytes()
    assert data.endswith(b"\n") and data.rsplit(b"\n", 2)[1].startswith(b'{"commit": ')
    journal.write_bytes(data[:-1])
    sim = Simulation(
        mini_dataset,
        load_roles_dir(mini_fixture.roles_dir),
        MemoryGatedProvider.from_file(mini_fixture.script_path),
        config_by_id(1),
        seed=0,
    )
    sim.restore_checkpoint(out)
    # The commit before the torn one is that of the next-to-last slot.
    assert sim.completed_steps == _final_slot_start(mini_dataset)
    assert len(sim.entries) == sim.completed_steps
    sim.run(out)
    assert _run_dir_files(out) == _run_dir_files(reference_run)
    assert _manifest_without_clock(out) == _manifest_without_clock(reference_run)


@pytest.mark.parametrize(
    "part, fill",
    [("journal-header", b"x"), ("journal-record", b"\xff"), ("journal-commit", b"\xff"),
     ("log-entry", b"x")],
    ids=["journal-header", "journal-record-not-utf8", "journal-commit-not-utf8", "log-entry"],
)
def test_resume_names_the_file_and_line_that_is_not_json(
    mini_dataset, mini_fixture, reference_run, part, fill
):
    path = reference_run / ("log.jsonl" if part == "log-entry" else "checkpoint/journal.jsonl")
    lines = path.read_bytes().split(b"\n")
    commits = [i for i, line in enumerate(lines) if line.startswith(b'{"commit": ')]
    if part == "journal-header":
        index = 0
    elif part == "journal-record":
        index = 1
        assert commits[0] > index  # the first slot wrote records
    elif part == "journal-commit":
        index = commits[-1]
    else:
        index = 2
    # A commit line is found by its start, and a log line must keep its length.
    start = b'{"commit": ' if part == "journal-commit" else b""
    lines[index] = start + fill * (len(lines[index]) - len(start))
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: line {index + 1} is not JSON"):
        _run(mini_dataset, mini_fixture, 1, seed=0, out_dir=reference_run, resume=True)


def _other_agent(row: dict, key: str) -> dict:
    """``row`` with ``key`` set to another agent id of the same length."""
    other = "s01" if row[key] != "s01" else "s02"
    assert len(other) == len(row[key])
    return {**row, key: other}


_JOURNAL = "checkpoint/journal.jsonl: "


@pytest.mark.parametrize(
    "line, edit, error",
    [
        ("header", lambda row: [], _JOURNAL + "line 1 is not a journal header"),
        ("header", lambda row: {"format": row["format"]},
         _JOURNAL + "line 1 is not a journal header"),
        ("record", lambda row: {"x": 1}, _JOURNAL + "line 2 is not a memory record"),
        ("record", lambda row: {**row, "agent": "nobody"},
         _JOURNAL + "line 2 is not a memory record of this run"),
        ("commit", lambda row: {"commit": []}, _JOURNAL + "line {n} is not a commit line"),
        ("commit", lambda row: {"commit": {"completed_steps": 6}},
         _JOURNAL + "line {n} is not a commit line"),
        ("commit", lambda row: {"commit": {**row["commit"], "log_bytes": "9"}},
         _JOURNAL + "line {n} is not a commit line"),
        ("commit",
         lambda row: {"commit": {**row["commit"], "log_bytes": row["commit"]["log_bytes"] - 1}},
         r"log.jsonl: the committed \d+ bytes end inside line 61"),
        ("entry", lambda row: [], "log.jsonl: line 3 is not the log entry of step 1"),
        ("entry", lambda row: {**row, "step_index": 7},
         "log.jsonl: line 3 is not the log entry of step 1"),
        ("entry", lambda row: _other_agent(row, "agent_id"),
         "log.jsonl: line 3 is not the log entry of step 1"),
        ("entry", lambda row: {k: v for k, v in row.items() if k != "move"},
         "log.jsonl: line 3 is not the log entry of step 1"),
        # The head is the dataset step's: it is compared, not decoded.
        ("entry", lambda row: {**row, "situation": row["situation"].swapcase()},
         "log.jsonl: line 3 is not the log entry of step 1"),
        ("entry", lambda row: {"agent_id": row["agent_id"], **row},
         "log.jsonl: line 3 is not the log entry of step 1"),
        # The members after the prompt are compared as the encoder spells them.
        ("entry", lambda row: {**_without(row, "response"), "response": row["response"]},
         "log.jsonl: line 3 is not the log entry of step 1"),
        ("entry", lambda row: _dumps(row).replace(b', "move": ', b',  "move":'),
         "log.jsonl: line 3 is not the log entry of step 1"),
        ("entry", lambda row: _escaped_first_character(row, b'"response": "'),
         "log.jsonl: line 3 is not the log entry of step 1"),
    ],
    ids=[
        "header-not-object", "header-without-identity", "record-without-agent",
        "record-of-another-agent", "commit-not-object", "commit-without-keys",
        "commit-log-bytes-not-int", "commit-length-inside-a-line", "entry-not-object",
        "entry-out-of-order", "entry-of-another-agent", "entry-without-a-key",
        "entry-of-another-situation", "entry-keys-in-another-order",
        "entry-tail-reordered", "entry-tail-re-spaced", "entry-tail-re-escaped",
    ],
)
def test_resume_names_the_line_of_the_wrong_shape(
    mini_dataset, mini_fixture, reference_run, line, edit, error
):
    # Each line is JSON, but not what its place in the file asks for.
    _refused_resume(mini_dataset, mini_fixture, reference_run, line, edit, error)


def _without(row: dict, key: str) -> dict:
    return {k: v for k, v in row.items() if k != key}


def _dumps(value) -> bytes:
    """``value`` as a log or journal line spells it."""
    return json.dumps(value, ensure_ascii=False).encode("utf-8")


def _escaped_first_character(row: dict, member: bytes) -> bytes:
    """The line of ``row`` with the first character of the string after
    ``member`` written as a ``\\u`` escape: the same JSON value, spelled
    otherwise."""
    line = _dumps(row)
    at = line.index(member) + len(member)
    return line[:at] + b"\\u%04x" % line[at] + line[at + 1 :]


def _last_commit(lines: list[bytes]) -> int:
    return max(i for i, text in enumerate(lines) if text.startswith(b'{"commit": '))


def _refused_resume(mini_dataset, mini_fixture, reference_run, line, edit, error):
    """Edit one line of ``reference_run`` and check that a resume names it.

    ``edit`` gives the new line's value, or its bytes. When a log line
    changes its length, the last commit counts the new length, so the
    committed length still ends a line.
    """
    journal = reference_run / "checkpoint/journal.jsonl"
    path = reference_run / "log.jsonl" if line == "entry" else journal
    lines = path.read_bytes().split(b"\n")
    if line == "commit":
        index = _last_commit(lines)
    else:
        index = {"header": 0, "record": 1, "entry": 2}[line]
    new = edit(json.loads(lines[index]))
    new = new if isinstance(new, bytes) else _dumps(new)
    if line == "entry":
        rows = journal.read_bytes().split(b"\n")
        commit = json.loads(rows[_last_commit(rows)])
        commit["commit"]["log_bytes"] += len(new) - len(lines[index])
        rows[_last_commit(rows)] = json.dumps(commit, ensure_ascii=False, sort_keys=True).encode()
        journal.write_bytes(b"\n".join(rows))
    lines[index] = new
    path.write_bytes(b"\n".join(lines))
    files = _run_dir_files(reference_run)
    message = re.escape(f"{reference_run}/") + error.format(n=index + 1)
    with pytest.raises(ValueError, match=message):
        _run(mini_dataset, mini_fixture, 1, seed=0, out_dir=reference_run, resume=True)
    # A refused restore cuts nothing back.
    assert _run_dir_files(reference_run) == files


def _with_message(row: dict, **message) -> dict:
    """``row`` with its prompt's first message replaced by ``message``."""
    return {**row, "prompt": [message, *row["prompt"][1:]]}


def _with_counts(row: dict, counts: dict) -> dict:
    """``row`` with its counters replaced by ``counts``."""
    assert len(row["memory_update_counts"]) == 6  # a memory-enabled step
    return {**row, "memory_update_counts": counts}


def _renamed_counter(row: dict) -> dict:
    """``row`` with its counter skipped_empty named skipped_emptX."""
    counts = row["memory_update_counts"]
    renamed = {"skipped_emptX" if name == "skipped_empty" else name: n for name, n in counts.items()}
    return _with_counts(row, renamed)


_ENTRY = "log.jsonl: line 3 is not the log entry of step 1"
_FINAL = {"role": "user", "content": "x"}
_RECORD = _JOURNAL + "line 2 is not a memory record"


@pytest.mark.parametrize(
    "line, edit, error",
    [
        ("entry", lambda row: {**row, "memory_update_counts": []}, _ENTRY),
        ("entry", lambda row: {**row, "prompt": [1, 2]}, _ENTRY),
        ("entry", lambda row: {**row, "prompt": []}, _ENTRY),
        ("entry", lambda row: _with_message(row, role="narrator", content="x"), _ENTRY),
        ("entry", lambda row: _with_message(row, role="system"), _ENTRY),
        ("entry", lambda row: {**row, "response": 5}, _ENTRY),
        ("entry", _renamed_counter, _ENTRY),
        ("entry", lambda row: _with_counts(row, {"skipped_empty": "0"}), _ENTRY),
        ("entry", lambda row: _with_counts(row, {"skipped_empty": 0.0}), _ENTRY),
        ("entry", lambda row: _with_counts(row, {"skipped_empty": True}), _ENTRY),
        ("entry", lambda row: _with_counts(row, {"skipped_empty": None}), _ENTRY),
        ("entry", lambda row: _with_counts(row, ["skipped_empty"]), _ENTRY),
        ("entry",
         lambda row: {**row, "prompt": [row["prompt"][0], {"role": "user"}, _FINAL]},
         _ENTRY),
        ("record", lambda row: {**row, "text": 5}, _RECORD),
        ("record", lambda row: {**row, "slot": 5}, _RECORD),
        ("record", lambda row: {**row, "day": "1"}, _RECORD),
        ("record", lambda row: {**row, "kind": []}, _RECORD),
    ],
    ids=[
        "entry-counts-not-object", "entry-prompt-of-numbers", "entry-prompt-empty",
        "entry-message-of-unknown-role", "entry-message-without-content",
        "entry-response-not-text", "entry-counter-of-unknown-name", "entry-counter-text",
        "entry-counter-float", "entry-counter-bool", "entry-counter-null",
        "entry-counters-a-list", "entry-turn-without-content",
        "record-text-not-text", "record-slot-not-text",
        "record-day-not-int", "record-kind-not-text",
    ],
)
def test_resume_names_the_line_of_a_wrong_value(
    mini_dataset, mini_fixture, reference_run, line, edit, error
):
    # Each line has the keys its place asks for, but a value of the wrong type.
    _refused_resume(mini_dataset, mini_fixture, reference_run, line, edit, error)


def test_jobs_do_not_change_the_run_directory(tmp_path, mini_dataset, mini_fixture):
    runs = [tmp_path / "jobs-1", tmp_path / "jobs-8"]
    for out, jobs in zip(runs, (1, 8)):
        provider = MemoryGatedProvider.from_file(mini_fixture.script_path)
        provider.jobs = jobs
        _run(mini_dataset, mini_fixture, 1, provider=provider, seed=0, out_dir=out)
    assert _run_dir_files(runs[0]) == _run_dir_files(runs[1])
    assert _manifest_without_clock(runs[0]) == _manifest_without_clock(runs[1])


def _pair_turns_into_slots(agents_dir: Path, out: Path):
    """The transcripts of ``agents_dir`` with turns 2k and 2k+1 of each agent
    both at the time of turn 2k: two steps per agent in one slot."""
    out.mkdir()
    for path in sorted(agents_dir.glob("*.json")):
        messages = json.loads(path.read_text("utf-8"))
        for turn, i in enumerate(range(1, len(messages), 2)):
            first, _sep, body = messages[i]["content"].partition("\n")
            _time, location, activity = parse_situation_header(first)
            shared = parse_situation_header(messages[i - 2 * (turn % 2)]["content"])[0]
            header = format_situation_header(shared, location, activity)
            messages[i]["content"] = f"{header}\n{body}"
        (out / path.name).write_text(json.dumps(messages, ensure_ascii=False), "utf-8")
    return load_standard_group(out)


def test_two_steps_per_agent_in_a_slot_do_not_depend_on_jobs(tmp_path, mini_fixture):
    dataset = _pair_turns_into_slots(mini_fixture.agents_dir, tmp_path / "paired")
    steps = dataset.steps
    assert any(a.agent_id == b.agent_id and a.time == b.time for a, b in zip(steps, steps[1:]))
    runs = [tmp_path / "jobs-1", tmp_path / "jobs-8"]
    interval = sys.getswitchinterval()
    # Switch threads as often as possible, so steps that race interleave.
    sys.setswitchinterval(1e-6)
    try:
        for out, jobs in zip(runs, (1, 8)):
            provider = ReplayBundle.from_dataset(dataset)
            provider.jobs = jobs
            _run(dataset, mini_fixture, 1, provider=provider, seed=0, out_dir=out)
    finally:
        sys.setswitchinterval(interval)
    assert _run_dir_files(runs[0]) == _run_dir_files(runs[1])
    assert _manifest_without_clock(runs[0]) == _manifest_without_clock(runs[1])


def _kind(messages) -> str:
    content = messages[-1].content
    if content.startswith(MEMORY_UPDATE_HEADER):
        return "memory-update"
    return "role-update" if content.startswith(ROLE_UPDATE_HEADER) else "action"


class _GatedHandler(BaseHTTPRequestHandler):
    """Answers each chat request with ``provider``, except action call
    number ``fail_at`` (counted from 0), which gets a 400. ``requests`` logs
    each request's kind as it arrives, and ``refused_at`` the position of the
    400 in that log."""

    provider: Provider
    fail_at: int | None
    actions: int
    requests: list[str]
    refused_at: int | None
    lock: threading.Lock

    def do_POST(self):  # noqa: N802
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        messages = [ChatMessage(m["role"], m["content"]) for m in body["messages"]]
        handler = type(self)
        kind = _kind(messages)
        with handler.lock:
            failing = kind == "action" and handler.actions == handler.fail_at
            handler.actions += kind == "action"
            if failing:
                handler.refused_at = len(handler.requests)
            handler.requests.append(kind)
        if failing:
            self.send_response(400)
            self.end_headers()
            self.wfile.write(b"refused")
            return
        encoded = json.dumps({"text": handler.provider.complete(messages)}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    def log_message(self, *args):
        pass


@pytest.fixture()
def gated_server(mini_fixture):
    """The mini fixture's memory-gated provider behind a local HTTP endpoint
    that serves each request on its own thread: (URL, handler class)."""
    handler = type(
        "Handler",
        (_GatedHandler,),
        {
            "provider": MemoryGatedProvider.from_file(mini_fixture.script_path),
            "fail_at": None,
            "actions": 0,
            "requests": [],
            "refused_at": None,
            "lock": threading.Lock(),
        },
    )
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/chat", handler
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_an_http_provider_with_four_jobs_writes_the_run_of_one_job(
    tmp_path, mini_dataset, mini_fixture, gated_server, monkeypatch
):
    url, _handler = gated_server
    widths = []

    def pool(max_workers):
        widths.append(max_workers)
        return ThreadPoolExecutor(max_workers)

    monkeypatch.setattr("schoolsim.simulation.ThreadPoolExecutor", pool)
    runs = {}
    for jobs in (1, 4):
        out = tmp_path / f"jobs-{jobs}"
        provider = HttpProvider(url, model="gated", jobs=jobs)
        log = _run(mini_dataset, mini_fixture, 1, provider=provider, seed=0, out_dir=out)
        runs[jobs] = (log.digest(), _run_dir_files(out), _manifest_without_clock(out))
    assert widths == [4]
    assert runs[4] == runs[1]
    assert log.responses() == _run(mini_dataset, mini_fixture, 1, seed=0).responses()


def test_a_4xx_partway_through_a_slot_under_four_jobs_resumes_to_the_uninterrupted_run(
    tmp_path, mini_dataset, mini_fixture, gated_server
):
    url, handler = gated_server
    reference = tmp_path / "reference"
    aborted = tmp_path / "aborted"

    def run(out: Path, **kwargs):
        provider = HttpProvider(url, model="gated", jobs=4)
        _run(mini_dataset, mini_fixture, 1, provider=provider, seed=0, out_dir=out, **kwargs)

    run(reference)
    steps = mini_dataset.steps
    slot_starts = [
        i for i, step in enumerate(steps) if i == 0 or step.time != steps[i - 1].time
    ]
    # Each step makes one action call: fail the third of the fourth slot.
    assert slot_starts[4] - slot_starts[3] > 3
    handler.actions = 0
    handler.fail_at = slot_starts[3] + 2
    with pytest.raises(ProviderError, match="client error 400"):
        run(aborted)
    manifest = _manifest_without_clock(aborted)
    assert (manifest["status"], manifest["completed_steps"]) == ("aborted", slot_starts[3])
    run(aborted, resume=True)
    assert _run_dir_files(aborted) == _run_dir_files(reference)
    assert _manifest_without_clock(aborted) == _manifest_without_clock(reference)


def test_a_4xx_under_four_jobs_ends_the_requests_of_its_batch(
    tmp_path, mini_dataset, mini_fixture, gated_server
):
    url, handler = gated_server
    jobs = 4
    slot_starts = [slot[0] for slot in _slots(mini_dataset)]
    # The third action of the fourth slot gets the 400.
    handler.fail_at = slot_starts[3] + 2
    provider = HttpProvider(url, model="gated", jobs=jobs)
    with pytest.raises(ProviderError, match="client error 400"):
        _run(mini_dataset, mini_fixture, 1, provider=provider, seed=0, out_dir=tmp_path / "run")
    # Only calls of the failed batch that were already under way may follow it.
    after = handler.requests[handler.refused_at + 1 :]
    assert "memory-update" not in after and "role-update" not in after
    assert len(after) <= jobs - 1


def _slots(dataset) -> list[list[int]]:
    """The step indices of each slot, in dataset order."""
    slots: list[list[int]] = []
    for index, step in enumerate(dataset.steps):
        if not slots or step.time != dataset.steps[index - 1].time:
            slots.append([])
        slots[-1].append(index)
    return slots


def test_the_step_cycle_runs_on_the_calling_thread_under_four_jobs(
    mini_dataset, mini_roles, gated_provider, monkeypatch
):
    caller = threading.current_thread()
    threads: dict[str, set] = {}
    for owner, name in (
        (HashedBagEmbedder, "embed"),
        (MemoryStore, "apply_update"),
        (MemoryGatedProvider, "complete"),
    ):
        def traced(*args, _method=getattr(owner, name), _name=name, **kwargs):
            threads.setdefault(_name, set()).add(threading.current_thread())
            return _method(*args, **kwargs)

        monkeypatch.setattr(owner, name, traced)
    gated_provider.jobs = 4
    Simulation(mini_dataset, mini_roles, gated_provider, config_by_id(1), seed=0).run()
    assert threads["embed"] == threads["apply_update"] == {caller}
    # The provider calls went to the pool.
    assert caller not in threads["complete"]


def test_a_slot_asks_for_its_actions_then_its_updates_then_its_role_updates(
    tmp_path, mini_dataset, mini_roles, gated_provider
):
    steps = mini_dataset.steps
    step_of = {step.user: index for index, step in enumerate(steps)}
    calls = []

    class Recording(Provider):
        name = gated_provider.name

        def complete(self, messages, params=None):
            content, kind = messages[-1].content, _kind(messages)
            if kind == "action":
                calls.append((kind, step_of[content.partition("\n\nRelevant memories:")[0]]))
            elif kind == "memory-update":
                situation = content.split("Current Situation:\n")[1].split("\n\nRecent")[0]
                calls.append((kind, step_of[situation]))
            else:
                calls.append((kind, re.search(r"^Agent ID: (\S+)$", content, re.M)[1]))
            return gated_provider.complete(messages, params)

    out = tmp_path / "run"
    Simulation(mini_dataset, mini_roles, Recording(), config_by_id(1), seed=0).run(out)
    expected = []
    for slot in _slots(mini_dataset):
        # One step per agent: the slot is one round.
        assert len({steps[index].agent_id for index in slot}) == len(slot)
        expected += [("action", index) for index in slot]
        expected += [("memory-update", index) for index in slot]
        if steps[slot[0]].time.slot is Slot.EXTRACURRICULAR:
            expected += [("role-update", steps[index].agent_id) for index in slot]
    assert calls == expected
    counters = json.loads((out / "manifest.json").read_text("utf-8"))["counters"]
    kinds = ("action_calls", "memory_update_calls", "role_update_calls")
    assert len(calls) == sum(counters[kind] for kind in kinds)


def test_each_request_names_its_kind_and_the_step_it_belongs_to(
    mini_dataset, mini_roles, gated_provider
):
    requests = []

    class Recording(Provider):
        name = gated_provider.name

        def complete(self, messages, params=None):
            return gated_provider.complete(messages, params)

        def respond(self, request, params=None):
            requests.append(request)
            return gated_provider.respond(request, params)

    Simulation(mini_dataset, mini_roles, Recording(), config_by_id(1), seed=0).run()
    kinds = {"action": "action", "update": "memory-update", "role_update": "role-update"}
    for request in requests:
        assert kinds[request.kind] == _kind(request.messages)
        step = mini_dataset.steps[request.step_index]
        if request.kind == "update":
            assert f"Current Situation:\n{step.user}\n" in request.messages[-1].content
        else:
            # An action's system message, or the role text of a role update.
            named = re.search(r"^Agent ID: (\S+)$", request.messages[0].content, re.M)[1]
            assert named == step.agent_id
    assert {request.kind for request in requests} == set(kinds)


def _run_counters(entries: list[dict]) -> dict:
    """The eleven manifest counters of a config-1 run's logged entries (raw
    dicts): every step retrieves, and queries the short-term tier once its
    agent has inserted a record in an earlier step."""
    counters = {
        "action_calls": len(entries),
        "memory_update_calls": len(entries),
        "retrieve_calls": len(entries),
        "role_update_calls": sum(e["role_updated"] is not None for e in entries),
        "memory_update_parse_failures": sum(e["memory_update_failed"] for e in entries),
        "rejected_moves": sum(e["rejected_move"] is not None for e in entries),
        "short_term_queries": 0,
        "insert_experience": 0,
        "insert_knowledge": 0,
        "skipped_disabled": 0,
        "skipped_empty": 0,
    }
    inserted: set[str] = set()
    for entry in entries:
        counters["short_term_queries"] += entry["agent_id"] in inserted
        for key, count in entry["memory_update_counts"].items():
            if key.startswith("skipped_"):
                counters[key] += count
                continue
            kind = "experience" if "experience" in key else "knowledge"
            counters[f"insert_{kind}"] += count
            if count:
                inserted.add(entry["agent_id"])
    return counters


def test_aborted_manifest_counts_the_logged_steps(tmp_path, mini_dataset, mini_fixture):
    out = tmp_path / "aborted"
    committed = _final_slot_start(mini_dataset)
    # Two steps of the final slot succeed, the third action call fails.
    provider = _AbortAtAction(
        MemoryGatedProvider.from_file(mini_fixture.script_path), committed + 2
    )
    with pytest.raises(ProviderError):
        _run(mini_dataset, mini_fixture, 1, provider=provider, seed=0, out_dir=out)
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    _meta, *entries = iter_log(out / "log.jsonl")
    assert manifest["status"] == "aborted"
    assert len(entries) == manifest["completed_steps"] == committed
    counters = _run_counters(entries)
    assert counters["role_update_calls"] > 0
    assert 0 < counters["short_term_queries"] < len(entries)
    assert counters["insert_experience"] > 0 and counters["insert_knowledge"] > 0
    assert manifest["counters"] == counters


def test_commit_lines_hold_what_the_log_and_records_cannot_give(reference_run):
    journal = (reference_run / "checkpoint" / "journal.jsonl").read_text("utf-8")
    rows = [json.loads(line) for line in journal.splitlines()]
    assert rows[0]["format"] == "checkpoint-v4"
    commits = [row["commit"] for row in rows if "commit" in row]
    assert commits and all(
        set(commit) == {"completed_steps", "log_bytes", "roles", "locations"}
        for commit in commits
    )
    records = [row for row in rows[1:] if "commit" not in row]
    assert {row["short"] for row in records} == {False, True}


def test_resume_refuses_a_checkpoint_v3_journal(mini_dataset, mini_fixture, reference_run):
    # The earlier journal: record lines without "short", and commit lines
    # that also held each store's short-term ids and "now".
    journal = reference_run / "checkpoint" / "journal.jsonl"
    lines = []
    for line in journal.read_text("utf-8").splitlines():
        row = json.loads(line)
        if "format" in row:
            row["format"] = "checkpoint-v3"
        elif "commit" in row:
            row["commit"]["stores"] = {
                agent_id: {"short_term": [], "now": None} for agent_id in row["commit"]["roles"]
            }
        else:
            del row["short"]
        lines.append(json.dumps(row, ensure_ascii=False) + "\n")
    journal.write_text("".join(lines), "utf-8")
    files = _run_dir_files(reference_run)
    with pytest.raises(ValueError, match="checkpoint-v3") as excinfo:
        _run(mini_dataset, mini_fixture, 1, seed=0, out_dir=reference_run, resume=True)
    assert "checkpoint-v4" in str(excinfo.value)
    # Refused before anything is cut back.
    assert _run_dir_files(reference_run) == files


def test_line_separators_in_text_survive_log_and_resume(tmp_path, mini_dataset, mini_fixture):
    # JSON leaves U+2028 and U+0085 unescaped; they must not split a line.
    text = "first\u2028second\x85third"
    answer = json.dumps(
        {
            "long_term_experience_updates": [text],
            "long_term_knowledge_updates": [],
            "short_term_experience_content": [text],
            "short_term_knowledge_content": [],
        },
        ensure_ascii=False,
    )
    provider = ScriptedProvider({}, fallback=answer)
    out = tmp_path / "run"
    log = _run(mini_dataset, mini_fixture, 1, provider=provider, seed=0, out_dir=out)
    _meta, *entries = iter_log(out / "log.jsonl")
    assert [entry["response"] for entry in entries] == log.responses()
    sim = Simulation(
        mini_dataset,
        load_roles_dir(mini_fixture.roles_dir),
        ScriptedProvider({}, fallback=answer),
        config_by_id(1),
        seed=0,
    )
    sim.restore_checkpoint(out)
    assert sim.log().to_jsonl() == log.to_jsonl()
    records = [r for store in sim.stores.values() for r in store.records]
    assert records and all(r.text == text for r in records)


def test_manifest_counters_reflect_config_gating(tmp_path):
    # Ten agents over one day: 50 steps.
    paths = build_fixture(tmp_path / "fixture", teachers=2, students=8, days=1, seed=0)
    dataset = load_standard_group(paths.agents_dir)
    roles = load_roles_dir(paths.roles_dir)
    provider = MemoryGatedProvider.from_file(paths.script_path)
    out = tmp_path / "gated"
    run_simulation(dataset, roles, provider, config_by_id(3), seed=0, out_dir=out)
    manifest = json.loads((out / "manifest.json").read_text())
    counters = manifest["counters"]
    assert counters["retrieve_calls"] == 50
    assert counters["short_term_queries"] == 0  # hierarchy disabled under config 3
    assert counters["insert_experience"] > 0
    assert counters["insert_knowledge"] > 0


def test_log_file_roundtrip(tmp_path, mini_dataset, mini_fixture):
    out = tmp_path / "run"
    log = _run(mini_dataset, mini_fixture, 2, seed=1, out_dir=out)
    meta, *entries = iter_log(out / "log.jsonl")
    assert meta["config"]["id"] == 2
    assert len(entries) == len(log.entries)
    assert entries[0]["response"] == log.entries[0].response


def test_replay_bundle_handles_update_and_reflection_prompts(mini_dataset):
    bundle = ReplayBundle.from_dataset(mini_dataset)
    update = bundle.respond(
        Request("update", 3, [ChatMessage("user", MEMORY_UPDATE_HEADER + "\n\nx")])
    )
    assert json.loads(update) == MemoryUpdate().as_dict()
    reflection = bundle.respond(
        Request("role_update", 3, [ChatMessage("user", ROLE_UPDATE_HEADER + "\n\nmore")])
    )
    assert "remains largely unchanged" in reflection
    action = bundle.respond(Request("action", 3, [ChatMessage("user", "Day 1, Period 1")]))
    assert action == mini_dataset.steps[3].reference
    # A bare prompt names no step.
    with pytest.raises(ProviderError):
        bundle.complete([ChatMessage("user", "Day 1, Period 1\nno system message")])


# Log digests of the nine configs at seed 0 on the two-teacher, four-student,
# five-day fixture with the memory-gated provider. Any change to them is a
# behaviour change: retrieval ties, for one, follow the exact float bits.
MATRIX_DIGESTS = {
    1: "fd43c49c1e1619ad2109917b2e49b253b3a2939a86a2bd508283f253a14ad222",
    2: "8c5086f3b4c994b97e019354f68f57f1a75f321e3cf8eeebbf2b466b94338c12",
    3: "43b79b70521f4f43afbd9f50556b9f9d4718fdba315875d2fd239daca141ef48",
    4: "a0003239a17be451c877ecfcc988cf41287ca034bc6b423bd882589ac5dc07f5",
    5: "ba9a76241069ace0e73c49e9fe7954893835e4a052d1cb5e52dca636acd132bd",
    6: "fce46961ab3fbf13a04d9306695284293dfb43a8e55b400184284d758b113fce",
    7: "0eae0fcc2c25cccda4a3e5cd024c16a333d85953342a790d3ce9df9f8fb85960",
    8: "179874eaee51fbd03727df2d370f82c09aca92e5bc2b472ce9bc3b1aa21e356d",
    9: "42dc6257f8f4ca956f58b3535c8719bf7ce1eb70a38137e5ea7ad9bfb153bed6",
}


def test_matrix_log_digests_are_pinned(tmp_path):
    paths = build_fixture(tmp_path, teachers=2, students=4, days=5, seed=0)
    dataset = load_standard_group(paths.agents_dir)
    digests = {
        cfg.id: run_simulation(
            dataset,
            load_roles_dir(paths.roles_dir),
            MemoryGatedProvider.from_file(paths.script_path),
            cfg,
            seed=0,
        ).digest()
        for cfg in config_matrix()
    }
    assert digests == MATRIX_DIGESTS


def test_matrix_digests_hold_in_any_order_beside_other_embedders(tmp_path):
    # Every run in a process shares one embedder and its memo; neither the
    # order of the runs nor another embedder that embedded the same texts
    # first may change a digest.
    paths = build_fixture(tmp_path, teachers=2, students=4, days=5, seed=0)
    dataset = load_standard_group(paths.agents_dir)
    other = HashedBagEmbedder(dim=64, seed=3)
    for step in dataset.steps:
        other.embed(step.user)
        other.embed(step.reference)
    digests = {
        cfg.id: run_simulation(
            dataset,
            load_roles_dir(paths.roles_dir),
            MemoryGatedProvider.from_file(paths.script_path),
            cfg,
            seed=0,
        ).digest()
        for cfg in reversed(config_matrix())
    }
    assert digests == MATRIX_DIGESTS


def test_simulations_share_one_embedder(mini_dataset, mini_roles):
    def embedder():
        return Simulation(mini_dataset, mini_roles, ScriptedProvider({}), config_by_id(1)).embedder

    assert embedder() is embedder() is shared_embedder()


def test_recorded_params_are_the_values_the_run_uses(mini_dataset, mini_roles):
    sim = Simulation(mini_dataset, mini_roles, ScriptedProvider({}), config_by_id(1), seed=7)
    ((capacity, decay),) = {(s.capacity, s.decay) for s in sim.stores.values()}
    (window,) = {wm.window for wm in sim.working_memories.values()}
    used = {
        "embed_dim": sim.embedder.dim,
        "embed_seed": sim.embedder.seed,
        "k_short": sim.policy.k_short,
        "k_long": sim.policy.k_long,
        "min_similarity": sim.policy.min_similarity,
        "short_term_capacity": capacity,
        "salience_decay": decay,
        "window": window,
        "temperature": sim.gen_params.temperature,
        "max_tokens": sim.gen_params.max_tokens,
    }
    assert sim.log_meta()["params"] == used
    assert sim.gen_params.seed == 7


def test_standard_group_log_digests_are_pinned(ablation_runs):
    # Seed 0 on the standard group (10 teachers, 40 students, 5 days).
    runs, _elapsed = ablation_runs
    assert runs[1][0].digest() == (
        "88186a056d29a267bdea912016098053fec1625127109818646fc64f30d715cc"
    )
    assert runs[9][0].digest() == (
        "15117f23e2950b2e5aab802e860d2c45f327c2855fa62289d2d3f2a6a209aa8e"
    )


def _reflection_summary_full_scan(
    entries: list, agent_id: str, day: int, latest_response: str
) -> str:
    """The reflection summary read off every logged entry of the run."""
    lines = [f"Day {day} reflections:"]
    for entry in entries:
        if entry.agent_id == agent_id and entry.time.day == day:
            first_line = entry.response.strip().splitlines()[0][:200]
            lines.append(f"- At {entry.time.slot.display}: {first_line}")
    lines.append(f"- Latest: {latest_response.strip().splitlines()[0][:200]}")
    return "\n".join(lines)


def test_reflection_summary_equals_a_full_scan(
    monkeypatch, mini_dataset, mini_roles, gated_provider
):
    summaries: list[tuple[int, str, str]] = []
    summarize = Simulation._reflection_summary

    def checked(self, agent_id, day, latest_response):
        got = summarize(self, agent_id, day, latest_response)
        expected = _reflection_summary_full_scan(
            self.entries, agent_id, day, latest_response
        )
        summaries.append((day, got, expected))
        return got

    monkeypatch.setattr(Simulation, "_reflection_summary", checked)
    Simulation(mini_dataset, mini_roles, gated_provider, config_by_id(1), seed=0).run()
    assert {day for day, _, _ in summaries} == {1, 2}
    assert all(got == expected for _, got, expected in summaries)
    # Each summary lists the agent's earlier entries of that day.
    assert all(got.count("\n- At ") >= 2 for _, got, _ in summaries)
