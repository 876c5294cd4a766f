from __future__ import annotations

import builtins
import dataclasses
import json
import shutil
import sys
from pathlib import Path

import pytest

from conftest import load_roles_dir
from schoolsim.agent import serialize_role
from schoolsim.config import config_by_id, config_matrix
from schoolsim.dataset import load_standard_group, take_steps
from schoolsim.environment import format_situation_header, parse_situation_header
from schoolsim.errors import (
    MissingFieldError,
    NoJsonFoundError,
    ProviderError,
    ScriptMissError,
    WrongTypeError,
)
from schoolsim.fixtures import MemoryGatedProvider, build_fixture, load_fixture_dataset
from schoolsim.llm import ChatMessage, GenParams, Provider, ScriptedProvider
from schoolsim.memory import MemoryUpdate
from schoolsim.prompts import MEMORY_UPDATE_HEADER, ROLE_UPDATE_HEADER
from schoolsim.simulation import (
    ReplayBundle,
    RunParams,
    Simulation,
    load_log,
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
    return run_simulation(dataset, roles, provider, config_by_id(config_id), **kwargs)


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
    parallel = _run(mini_dataset, mini_fixture, 1, seed=0, jobs=4)
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

    params = RunParams(temperature=0.3, max_tokens=64)
    Simulation(mini_dataset, mini_roles, Recording(), config_by_id(1), seed=7, params=params).run()
    expected = GenParams(temperature=0.3, max_tokens=64, seed=7)
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


def test_resumed_run_directory_equals_uninterrupted(
    tmp_path, mini_dataset, mini_fixture, reference_run
):
    out = tmp_path / "resumed"
    provider = _AbortAtAction(
        MemoryGatedProvider.from_file(mini_fixture.script_path),
        _final_slot_start(mini_dataset),
    )
    with pytest.raises(ProviderError):
        _run(mini_dataset, mini_fixture, 1, provider=provider, seed=0, out_dir=out)
    _run(mini_dataset, mini_fixture, 1, seed=0, out_dir=out, resume=True)
    # Counters included: the manifest reads all of them off the log.
    assert _manifest_without_clock(out) == _manifest_without_clock(reference_run)
    assert _run_dir_files(out) == _run_dir_files(reference_run)


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
def test_resume_refuses_a_different_run(mini_dataset, mini_fixture, reference_run, field):
    dataset, config_id, kwargs = mini_dataset, 1, {"seed": 0}
    provider = MemoryGatedProvider.from_file(mini_fixture.script_path)
    if field == "seed":
        kwargs["seed"] = 5
    elif field == "params":
        kwargs["params"] = RunParams(window=5)
    elif field == "provider":
        provider.name = "other-provider"
    elif field == "config":
        config_id = 2
    else:
        dataset = take_steps(mini_dataset, 6)
    with pytest.raises(ValueError, match=f"different {field}"):
        _run(
            dataset, mini_fixture, config_id, provider=provider,
            out_dir=reference_run, resume=True, **kwargs,
        )


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


def test_jobs_do_not_change_the_run_directory(tmp_path, mini_dataset, mini_fixture):
    runs = [tmp_path / "jobs-1", tmp_path / "jobs-8"]
    for out, jobs in zip(runs, (1, 8)):
        _run(mini_dataset, mini_fixture, 1, seed=0, out_dir=out, jobs=jobs)
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
            _run(dataset, mini_fixture, 1, provider=provider, seed=0, out_dir=out, jobs=jobs)
    finally:
        sys.setswitchinterval(interval)
    assert _run_dir_files(runs[0]) == _run_dir_files(runs[1])
    assert _manifest_without_clock(runs[0]) == _manifest_without_clock(runs[1])


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
    _meta, entries = load_log(out / "log.jsonl")
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
    _meta, entries = load_log(out / "log.jsonl")
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


def test_manifest_counters_reflect_config_gating(tmp_path, full_dataset, full_fixture):
    sliced = take_steps(full_dataset, 50)
    roles = load_roles_dir(full_fixture.roles_dir)
    provider = MemoryGatedProvider.from_file(full_fixture.script_path)
    out = tmp_path / "gated"
    run_simulation(sliced, roles, provider, config_by_id(3), seed=0, out_dir=out)
    manifest = json.loads((out / "manifest.json").read_text())
    counters = manifest["counters"]
    assert counters["retrieve_calls"] == 50
    assert counters["short_term_queries"] == 0  # hierarchy disabled under config 3
    assert counters["insert_experience"] > 0
    assert counters["insert_knowledge"] > 0


def test_log_file_roundtrip(tmp_path, mini_dataset, mini_fixture):
    out = tmp_path / "run"
    log = _run(mini_dataset, mini_fixture, 2, seed=1, out_dir=out)
    meta, entries = load_log(out / "log.jsonl")
    assert meta["config"]["id"] == 2
    assert len(entries) == len(log.entries)
    assert entries[0]["response"] == log.entries[0].response


def test_replay_bundle_handles_update_and_reflection_prompts(mini_dataset):
    bundle = ReplayBundle.from_dataset(mini_dataset)
    update = bundle.complete(
        [ChatMessage("user", MEMORY_UPDATE_HEADER + "\n\nCurrent Situation:\nx")]
    )
    assert json.loads(update) == MemoryUpdate().as_dict()
    reflection = bundle.complete([ChatMessage("user", ROLE_UPDATE_HEADER + "\n\nmore")])
    assert "remains largely unchanged" in reflection
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
    dataset = load_fixture_dataset(paths.root)
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
