from __future__ import annotations

import builtins
import json
import os
from pathlib import Path

import pytest

from conftest import load_roles_dir
from schoolsim.config import config_by_id, config_matrix
from schoolsim.dataset import take_steps
from schoolsim.errors import (
    MissingFieldError,
    NoJsonFoundError,
    ProviderError,
    ScriptMissError,
    WrongTypeError,
)
from schoolsim.fixtures import MemoryGatedProvider, build_fixture, load_fixture_dataset
from schoolsim.llm import ChatMessage, Provider, ScriptedProvider
from schoolsim.memory import MemoryUpdate
from schoolsim.prompts import MEMORY_UPDATE_HEADER, ROLE_UPDATE_HEADER
from schoolsim.simulation import (
    ReplayBundle,
    RunParams,
    Simulation,
    SituationFrame,
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


def test_situation_frame_from_user_message():
    frame = SituationFrame.from_user_message(
        "Day 2, Period 2 (9:00-9:40) | Location: Library | Activity: Math\nbody text"
    )
    assert frame.time.day == 2
    assert frame.location == "Library"
    assert frame.scheduled_activity == "Math"
    assert frame.text.endswith("body text")


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
    assert sim2.counters["rejected_moves"] > 0
    rejected = [e for e in log2.entries if e.rejected_move == "Narnia"]
    assert rejected and all(e.move is None for e in rejected)


def test_role_update_triggered_once_per_day_at_extracurricular(mini_dataset, mini_fixture):
    roles = load_roles_dir(mini_fixture.roles_dir)
    provider = MemoryGatedProvider.from_file(mini_fixture.script_path)
    sim = Simulation(mini_dataset, roles, provider, config_by_id(1), seed=0)
    log = sim.run()
    days = {e.time.day for e in log.entries}
    agents = set(mini_dataset.agent_ids)
    assert sim.counters["role_update_calls"] == len(days) * len(agents)
    flagged = [e for e in log.entries if e.role_updated is not None]
    assert all(e.time.slot.name == "EXTRACURRICULAR" for e in flagged)
    assert len(flagged) == len(days) * len(agents)


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
    assert (out / "checkpoint" / "state.json").exists()
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
    # Counters included: the stores' counters come back from state.json.
    assert _manifest_without_clock(out) == _manifest_without_clock(reference_run)
    assert _run_dir_files(out) == _run_dir_files(reference_run)


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


def test_resume_refuses_a_memory_store_v1_checkpoint(
    mini_dataset, mini_fixture, reference_run
):
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


def _fail_inside_checkpoint(monkeypatch, number: int, fail_at: int | None, torn: bool):
    """Break write ``fail_at`` (0-based) of checkpoint ``number``.

    Writes are the file opens for writing or appending and the calls to
    ``os.replace``. A broken open raises before anything is written, or with
    ``torn`` writes half of its data and then raises. Returns the list of
    writes seen inside that checkpoint.
    """
    real_save = Simulation.save_checkpoint
    real_open = builtins.open
    real_replace = os.replace
    seen: list[str] = []
    saves = []

    class Torn:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def __getattr__(self, name):
            return getattr(self.handle, name)

        def write(self, data):
            self.handle.write(data[: len(data) // 2])
            raise OSError("torn write")

    def broken(kind: str) -> bool:
        seen.append(kind)
        return len(seen) - 1 == fail_at

    def open_(file, mode="r", *args, **kwargs):
        if not set(mode) & set("wa"):
            return real_open(file, mode, *args, **kwargs)
        if broken(f"open {Path(file).name}"):
            if not torn:
                raise OSError("injected open failure")
            return Torn(real_open(file, mode, *args, **kwargs))
        return real_open(file, mode, *args, **kwargs)

    def replace(src, dst):
        if broken(f"replace {Path(dst).name}"):
            raise OSError("injected replace failure")
        real_replace(src, dst)

    def save_checkpoint(self, out_path):
        saves.append(out_path)
        if len(saves) != number:
            return real_save(self, out_path)
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "open", open_)
            patch.setattr(os, "replace", replace)
            real_save(self, out_path)

    monkeypatch.setattr(Simulation, "save_checkpoint", save_checkpoint)
    return seen


@pytest.mark.parametrize("torn", [False, True], ids=["open-fails", "torn-write"])
def test_crash_at_any_checkpoint_write_resumes_byte_identical(
    tmp_path, monkeypatch, mini_dataset, mini_fixture, reference_run, torn
):
    expected = _run_dir_files(reference_run)
    writes = _fail_inside_checkpoint(monkeypatch, 3, None, torn)
    _run(mini_dataset, mini_fixture, 1, seed=0, out_dir=tmp_path / "count")
    # The log, at least one store file, state.json's temp file, its rename.
    assert writes[0] == "open log.jsonl" and writes[-1] == "replace state.json"
    assert len(writes) >= 4
    for fail_at in range(len(writes)):
        if torn and writes[fail_at].startswith("replace"):
            continue
        out = tmp_path / f"fail-{fail_at}"
        monkeypatch.undo()
        _fail_inside_checkpoint(monkeypatch, 3, fail_at, torn)
        with pytest.raises(OSError):
            _run(mini_dataset, mini_fixture, 1, seed=0, out_dir=out)
        monkeypatch.undo()
        _run(mini_dataset, mini_fixture, 1, seed=0, out_dir=out, resume=True)
        files = _run_dir_files(out)
        assert files["log.jsonl"] == expected["log.jsonl"], writes[fail_at]
        assert files == expected, writes[fail_at]


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
