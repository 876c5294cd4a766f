"""Step-cycle orchestrator: situate, retrieve, prompt, act, update, reflect.

Each agent step runs the same cycle: retrieve memories for the situation
(skipped entirely when no memory base is configured), assemble the prompt,
ask the provider for the action, append the turn to working memory, ask the
provider for a memory update and apply it, apply environment deltas parsed
from the response footer, and, at the day's extracurricular slot, reflect the
day's log into a role-setting update.

The dataset drives the run chronologically; slots are barriers, so interaction
text always reflects completed prior slots. With scripted providers the whole
run is a pure function of (dataset, roles, config, seed).
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import logging
import os
import re
import shutil
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from .agent import (
    RoleSetting,
    WorkingMemory,
    assemble_prompt,
    parse_role_text,
    system_message,
    update_role_setting,
)
from .config import SimulationConfig
from .dataset import Dataset, parse_action_footer
from .embedding import DEFAULT_DIM, DEFAULT_SEED, HashedBagEmbedder
from .environment import AreaMap, EnvironmentState, SimTime, Slot, classify_action
from .errors import (
    MemoryUpdateError,
    MissingFieldError,
    NoJsonFoundError,
    ProviderError,
    UnknownAreaError,
    WrongTypeError,
)
from .llm import ChatMessage, GenParams, Provider, ReplayProvider
from .memory import (
    DEFAULT_SALIENCE_DECAY,
    DEFAULT_SHORT_TERM_CAPACITY,
    UPDATE_ROUTES,
    MemoryStore,
    MemoryUpdate,
    RetrievalPolicy,
)
from .prompts import MEMORY_UPDATE_HEADER, MEMORY_UPDATE_TEMPLATE, ROLE_UPDATE_HEADER

logger = logging.getLogger(__name__)

LOG_FILENAME = "log.jsonl"
MANIFEST_FILENAME = "manifest.json"
CHECKPOINT_DIRNAME = "checkpoint"
JOURNAL_FILENAME = "journal.jsonl"
CHECKPOINT_FORMAT = "checkpoint-v4"
# Commit lines are the only journal lines that start with this.
_COMMIT_PREFIX = b'{"commit": '


def parse_memory_update(text: str) -> MemoryUpdate:
    """Extract and validate the first JSON object embedded in ``text``.

    The object must carry all four list-of-string fields; anything else
    raises a specific error so callers can degrade to an empty update.
    """
    decoder = json.JSONDecoder()
    obj = None
    index = text.find("{")
    while index != -1:
        try:
            candidate, _end = decoder.raw_decode(text, index)
        except json.JSONDecodeError:
            index = text.find("{", index + 1)
            continue
        if isinstance(candidate, dict):
            obj = candidate
            break
        index = text.find("{", index + 1)
    if obj is None:
        raise NoJsonFoundError("no JSON object found in memory-update response")
    values = {}
    for name in MemoryUpdate.FIELDS:
        if name not in obj:
            raise MissingFieldError(name)
        value = obj[name]
        if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
            raise WrongTypeError(name)
        values[name] = list(value)
    return MemoryUpdate(**values)


@dataclass
class InteractionLogEntry:
    step_index: int
    agent_id: str
    time: SimTime
    situation_text: str
    prompt: list[ChatMessage]
    response: str
    action_category: str | None
    retrieved_count: int
    memory_update_counts: dict[str, int]
    memory_update_failed: bool
    memory_update_raw: str | None
    move: dict | None
    rejected_move: str | None
    role_updated: bool | None

    def as_dict(self) -> dict:
        return {
            "step_index": self.step_index,
            "agent_id": self.agent_id,
            "time": self.time.as_dict(),
            "situation": self.situation_text,
            "prompt": [m.as_dict() for m in self.prompt],
            "response": self.response,
            "action_category": self.action_category,
            "retrieved_count": self.retrieved_count,
            "memory_update_counts": self.memory_update_counts,
            "memory_update_failed": self.memory_update_failed,
            "memory_update_raw": self.memory_update_raw,
            "move": self.move,
            "rejected_move": self.rejected_move,
            "role_updated": self.role_updated,
        }


@dataclass
class InteractionLog:
    meta: dict
    entries: list[InteractionLogEntry] = field(default_factory=list)

    def responses(self) -> list[str]:
        return [entry.response for entry in self.entries]

    def to_jsonl(self) -> str:
        return _log_lines(self.meta, self.entries)

    def digest(self) -> str:
        return hashlib.sha256(self.to_jsonl().encode("utf-8")).hexdigest()


def _log_lines(meta: dict | None, entries: list[InteractionLogEntry]) -> str:
    """The log text of the meta line (when given) and then ``entries``."""
    lines = [] if meta is None else [
        json.dumps({"meta": meta}, ensure_ascii=False, sort_keys=True)
    ]
    lines.extend(json.dumps(entry.as_dict(), ensure_ascii=False) for entry in entries)
    return "".join(line + "\n" for line in lines)


def load_log(path: str | Path) -> tuple[dict, list[dict]]:
    """Read a log file back as (meta, raw entry dicts)."""
    # Lines end in "\n" only: JSON leaves U+2028 and U+0085 unescaped, and
    # str.splitlines would split on them.
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if not lines[0].strip():
        raise ValueError(f"empty log file: {path}")
    head = json.loads(lines[0])
    if "meta" not in head:
        raise ValueError(f"log file lacks a meta line: {path}")
    entries = [json.loads(line) for line in lines[1:] if line.strip()]
    return head["meta"], entries


@dataclass
class RunParams:
    """Knobs recorded in every run manifest."""

    embed_dim: int = DEFAULT_DIM
    embed_seed: int = DEFAULT_SEED
    k_short: int = 4
    k_long: int = 8
    min_similarity: float = 0.0
    short_term_capacity: int = DEFAULT_SHORT_TERM_CAPACITY
    salience_decay: float = DEFAULT_SALIENCE_DECAY
    window: int = 10
    temperature: float = 0.7
    max_tokens: int | None = None

    def as_dict(self) -> dict:
        return {
            "embed_dim": self.embed_dim,
            "embed_seed": self.embed_seed,
            "k_short": self.k_short,
            "k_long": self.k_long,
            "min_similarity": self.min_similarity,
            "short_term_capacity": self.short_term_capacity,
            "salience_decay": self.salience_decay,
            "window": self.window,
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
        }


class Simulation:
    """Mutable run state; one instance per (dataset, config, provider) run."""

    def __init__(
        self,
        dataset: Dataset,
        roles: dict[str, RoleSetting],
        provider: Provider,
        config: SimulationConfig,
        seed: int = 0,
        params: RunParams | None = None,
    ):
        missing = [a for a in dataset.agent_ids if a not in roles]
        if missing:
            raise ValueError(f"roles missing for agents: {', '.join(missing)}")
        self.dataset = dataset
        self.roles = roles
        # Each role's system message, rebuilt only when the role changes.
        self.system_messages = {
            agent_id: system_message(role) for agent_id, role in roles.items()
        }
        self.provider = provider
        self.config = config
        self.seed = seed
        self.params = params or RunParams()
        self.dataset_digest = dataset.digest()
        self.gen_params = GenParams(
            temperature=self.params.temperature,
            max_tokens=self.params.max_tokens,
            seed=seed,
        )
        self.policy = RetrievalPolicy(
            k_short=self.params.k_short,
            k_long=self.params.k_long,
            min_similarity=self.params.min_similarity,
        )
        self.embedder = HashedBagEmbedder(
            dim=self.params.embed_dim, seed=self.params.embed_seed
        )
        self.stores = {
            agent_id: MemoryStore(
                agent_id,
                config,
                self.embedder,
                capacity=self.params.short_term_capacity,
                decay=self.params.salience_decay,
            )
            for agent_id in dataset.agent_ids
        }
        self.working_memories = {
            agent_id: WorkingMemory(window=self.params.window)
            for agent_id in dataset.agent_ids
        }
        self.env = EnvironmentState(AreaMap.default())
        self.entries: list[InteractionLogEntry] = []
        self.completed_steps = 0
        # What the run directory holds so far: bytes of log.jsonl, log entries
        # written, the log's hash, and each store's records in the journal.
        self._log_bytes = 0
        self._logged_entries = 0
        self._log_hash = hashlib.sha256()
        self._journaled = {agent_id: 0 for agent_id in dataset.agent_ids}
        # log.jsonl and the journal, open while run() writes to them.
        self._log_file = None
        self._journal = None

    # Aggregated instrumentation for the manifest

    def aggregate_counters(self) -> dict[str, int]:
        """The manifest counters, all read off the logged steps."""
        entries = self.entries
        memory_steps = len(entries) if self.config.memory_enabled else 0
        totals = {
            "action_calls": len(entries),
            "memory_update_calls": memory_steps,
            # A step with a memory base retrieves once, before its update.
            "retrieve_calls": memory_steps,
            "role_update_calls": sum(e.role_updated is not None for e in entries),
            "memory_update_parse_failures": sum(e.memory_update_failed for e in entries),
            "rejected_moves": sum(e.rejected_move is not None for e in entries),
            "short_term_queries": 0,
            "insert_experience": 0,
            "insert_knowledge": 0,
            "skipped_disabled": 0,
            "skipped_empty": 0,
        }
        insert_key = {route: f"insert_{kind.value}" for route, kind, _, _ in UPDATE_ROUTES}
        # retrieve() returns early from an empty store, so an agent queries
        # the short-term tier only once an earlier step inserted a record.
        stocked: set[str] = set()
        for entry in entries:
            if self.config.stlt_enabled and entry.agent_id in stocked:
                totals["short_term_queries"] += 1
            for key, count in entry.memory_update_counts.items():
                totals[insert_key.get(key, key)] += count
                if count and key in insert_key:
                    stocked.add(entry.agent_id)
        return totals

    def run_id(self) -> str:
        material = json.dumps(
            {
                "config": self.config.as_dict(),
                "provider": self.provider.name,
                "seed": self.seed,
                "dataset": self.dataset_digest,
                "params": self.params.as_dict(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:12]

    def log_meta(self) -> dict:
        return {
            "run_id": self.run_id(),
            "config": self.config.as_dict(),
            "provider": self.provider.name,
            "seed": self.seed,
            "dataset_digest": self.dataset_digest,
            "params": self.params.as_dict(),
        }

    def log(self) -> InteractionLog:
        return InteractionLog(meta=self.log_meta(), entries=self.entries)

    # The step cycle

    def _with_context(self, exc: ProviderError, agent_id: str, index: int):
        exc.args = (f"[agent={agent_id} step={index}] {exc}",)
        return exc

    def step_agent(self, step_index: int) -> InteractionLogEntry:
        """Run the agent of dataset step ``step_index`` through the full cycle.

        It writes only that agent's state: its role, store, working memory
        and location.
        """
        step = self.dataset.steps[step_index]
        agent_id = step.agent_id
        situation = step.user
        role = self.roles[agent_id]
        store = self.stores[agent_id]
        wm = self.working_memories[agent_id]

        if self.env.locations.get(agent_id) is None and step.location:
            self.env.place(agent_id, step.location)

        # 1. Retrieve (skipped entirely without a memory base).
        retrieved = []
        if self.config.memory_enabled:
            retrieved = store.retrieve(situation, self.policy)

        # 2-3. Prompt assembly and the action call.
        prompt = assemble_prompt(
            self.system_messages[agent_id], wm, situation, retrieved
        )
        try:
            response = self.provider.complete(prompt, self.gen_params)
        except ProviderError as exc:
            raise self._with_context(exc, agent_id, step_index)

        # 4. Working memory holds the bare situation, matching transcripts.
        wm.append_turn(situation, response)

        # 5. Memory update (skipped without a memory base).
        update_counts: dict[str, int] = {}
        update_failed = False
        update_raw = None
        if self.config.memory_enabled:
            update_prompt = MEMORY_UPDATE_TEMPLATE.format(
                situation=situation, recent=response
            )
            try:
                update_text = self.provider.complete(
                    [ChatMessage("user", update_prompt)], self.gen_params
                )
            except ProviderError as exc:
                raise self._with_context(exc, agent_id, step_index)
            try:
                update = parse_memory_update(update_text)
            except MemoryUpdateError as exc:
                logger.warning(
                    "%s step %d: memory update unparseable (%s); continuing empty",
                    agent_id,
                    step_index,
                    exc,
                )
                update = MemoryUpdate()
                update_failed = True
                update_raw = update_text
            update_counts = store.apply_update(update, step.time)

        # 6. Environment deltas from the response footer.
        label, move_target = parse_action_footer(response)
        move = None
        rejected_move = None
        if move_target:
            try:
                move = self.env.move_agent(agent_id, move_target)
            except UnknownAreaError:
                rejected_move = move_target
        category = None
        if label is not None:
            try:
                category = classify_action(role.kind, label).label
            except Exception:
                logger.warning("%s: unrecognized action label %r", agent_id, label)

        # 7. Daily reflection at the extracurricular slot.
        role_updated = None
        if step.time.slot is Slot.EXTRACURRICULAR:
            summary = self._reflection_summary(agent_id, step.time.day, response)
            try:
                role_updated = update_role_setting(
                    role, summary, self.provider, self.gen_params
                )
            except ProviderError as exc:
                raise self._with_context(exc, agent_id, step_index)
            if role_updated:
                self.system_messages[agent_id] = system_message(role)

        return InteractionLogEntry(
            step_index=step_index,
            agent_id=agent_id,
            time=step.time,
            situation_text=situation,
            prompt=prompt,
            response=response,
            action_category=category,
            retrieved_count=len(retrieved),
            memory_update_counts=update_counts,
            memory_update_failed=update_failed,
            memory_update_raw=update_raw,
            move=move,
            rejected_move=rejected_move,
            role_updated=role_updated,
        )

    def _reflection_summary(self, agent_id: str, day: int, latest_response: str) -> str:
        # Entries are in chronological order, so the day's are the trailing ones.
        todays: list[InteractionLogEntry] = []
        for entry in reversed(self.entries):
            if entry.time.day != day:
                break
            if entry.agent_id == agent_id:
                todays.append(entry)
        lines = [f"Day {day} reflections:"]
        for entry in reversed(todays):
            first_line = entry.response.strip().splitlines()[0][:200]
            lines.append(f"- At {entry.time.slot.display}: {first_line}")
        lines.append(f"- Latest: {latest_response.strip().splitlines()[0][:200]}")
        return "\n".join(lines)

    # Whole-run driving

    def _slot_groups(self, start: int) -> list[list[int]]:
        groups: list[list[int]] = []
        current_ordinal = None
        for index in range(start, len(self.dataset.steps)):
            ordinal = self.dataset.steps[index].time.ordinal
            if ordinal != current_ordinal:
                groups.append([])
                current_ordinal = ordinal
            groups[-1].append(index)
        return groups

    def run(self, out_dir: str | Path | None = None, jobs: int = 1) -> InteractionLog:
        # One pool serves every slot of the run.
        with ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
            return self._run(out_dir, pool)

    def _run(self, out_dir: str | Path | None, pool: Executor | None) -> InteractionLog:
        if not out_dir:
            for group in self._slot_groups(self.completed_steps):
                self._run_slot(group, pool)
            return self.log()
        out_path = Path(out_dir)
        ckpt = out_path / CHECKPOINT_DIRNAME
        # A resumed run appends to the files restore_checkpoint cut back; a
        # fresh one starts them, dropping any earlier checkpoint.
        mode = "ab" if self._log_bytes else "wb"
        if mode == "wb":
            shutil.rmtree(ckpt, ignore_errors=True)
            ckpt.mkdir(parents=True)
        with (
            open(out_path / LOG_FILENAME, mode) as self._log_file,
            open(ckpt / JOURNAL_FILENAME, mode) as self._journal,
        ):
            if mode == "wb":
                header = {"format": CHECKPOINT_FORMAT, **self._identity()}
                self._journal.write(_json_line(header))
            try:
                for group in self._slot_groups(self.completed_steps):
                    self._run_slot(group, pool)
                    self.save_checkpoint()
            except ProviderError:
                # Stores may hold partial mutations from the failed slot; the
                # checkpoint from the last completed slot stays the resume point.
                self._write_outputs(out_path, status="aborted")
                raise
            self._write_outputs(out_path, status="completed")
        return self.log()

    def _run_slot(self, group: list[int], pool: Executor | None) -> None:
        """Step every agent of one slot; the slot's entries join the log at the end.

        An agent's steps of the slot form one chain that runs in dataset
        order on one thread; chains of different agents share no state, so
        they may run in parallel on ``pool``. Steps are sorted by (slot,
        agent), so the chains joined in order are the slot's steps in
        dataset order.
        """
        chains: dict[str, list[int]] = {}
        for index in group:
            chains.setdefault(self.dataset.steps[index].agent_id, []).append(index)

        def run_chain(chain: list[int]) -> list[InteractionLogEntry]:
            return [self.step_agent(index) for index in chain]

        if pool is None or len(chains) == 1:
            results = list(map(run_chain, chains.values()))
        else:
            results = list(pool.map(run_chain, chains.values()))
        for entries in results:
            self.entries.extend(entries)
        self.completed_steps += len(group)

    # Outputs, checkpointing, resuming

    def manifest(self, status: str, out_path: Path) -> dict:
        outputs = [LOG_FILENAME] if (out_path / LOG_FILENAME).exists() else []
        return {
            "run_id": self.run_id(),
            "status": status,
            "config": self.config.as_dict(),
            "provider": self.provider.name,
            # One provider answers every call; the key keeps manifests stable.
            "update_provider": self.provider.name,
            "seed": self.seed,
            "params": self.params.as_dict(),
            "dataset_digest": self.dataset_digest,
            "completed_steps": self.completed_steps,
            "total_steps": len(self.dataset.steps),
            "counters": self.aggregate_counters(),
            "log_digest": self._log_hash.hexdigest(),
            "written_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
            "outputs": outputs,
        }

    def _write_outputs(self, out_path: Path, status: str) -> None:
        self._append_log()
        self._log_file.flush()
        manifest = self.manifest(status, out_path)
        (out_path / MANIFEST_FILENAME).write_text(
            json.dumps(manifest, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    def _append_log(self) -> None:
        """Append the entries not yet in log.jsonl, after its meta line."""
        meta = None if self._log_bytes else self.log_meta()
        new_entries = self.entries[self._logged_entries :]
        if meta is None and not new_entries:
            return
        data = _log_lines(meta, new_entries).encode("utf-8")
        self._log_file.write(data)
        self._log_hash.update(data)
        self._log_bytes += len(data)
        self._logged_entries = len(self.entries)

    def _identity(self) -> dict:
        """What a resumed run must share with the run that wrote the checkpoint."""
        return {
            "dataset_digest": self.dataset_digest,
            "config": self.config.as_dict(),
            "seed": self.seed,
            "params": self.params.as_dict(),
            "provider": self.provider.name,
        }

    def save_checkpoint(self) -> None:
        """Append what the last slot added, then commit it with one line.

        log.jsonl gets the slot's entries and is flushed; the journal gets
        one line per new memory record and then the commit line, which holds
        the step count, the log's length, the roles and the locations, and is
        flushed.
        Both files only grow. A resume takes the last complete commit line,
        so a save that stops before its commit leaves the previous
        checkpoint intact.
        """
        self._append_log()
        self._log_file.flush()
        for agent_id, store in self.stores.items():
            saved = self._journaled[agent_id]
            if saved < store.long_term_size():
                store.save(self._journal, start=saved)
                self._journaled[agent_id] = store.long_term_size()
        state = {
            "completed_steps": self.completed_steps,
            "log_bytes": self._log_bytes,
            "roles": {
                agent_id: message.content
                for agent_id, message in self.system_messages.items()
            },
            "locations": self.env.locations,
        }
        self._journal.write(_json_line({"commit": state}))
        self._journal.flush()

    def restore_checkpoint(self, out_path: Path) -> None:
        """Load the last committed checkpoint and cut every file back to it."""
        out_path = Path(out_path)
        ckpt = out_path / CHECKPOINT_DIRNAME
        journal_path = ckpt / JOURNAL_FILENAME
        if not journal_path.is_file():
            if (ckpt / "state.json").is_file():
                raise ValueError(
                    f"{ckpt} holds a checkpoint-v2 or memory-store-v1 checkpoint "
                    "(state.json and store files), which cannot be resumed; "
                    "start the run again without resume"
                )
            raise ValueError(f"no checkpoint to resume in {out_path}")
        # Newline-terminated lines only: a torn last line never committed.
        lines = journal_path.read_bytes().split(b"\n")[:-1]
        if not lines:
            raise ValueError(f"no committed slot to resume in {journal_path}")
        header = json.loads(lines[0])
        if header.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(
                f"{journal_path} is a {header.get('format')} journal, not "
                f"{CHECKPOINT_FORMAT}, and cannot be resumed; start the run again "
                "without resume"
            )
        for name, value in self._identity().items():
            if header[name] != value:
                raise ValueError(
                    f"checkpoint was produced with a different {name}: "
                    f"{header[name]!r}, not {value!r}"
                )
        last = len(lines) - 1
        while last > 0 and not lines[last].startswith(_COMMIT_PREFIX):
            last -= 1
        if last == 0:
            raise ValueError(f"no committed slot to resume in {journal_path}")
        state = json.loads(lines[last])["commit"]
        journal_bytes = sum(len(line) + 1 for line in lines[: last + 1])
        rows: dict[str, list[dict]] = {agent_id: [] for agent_id in self.stores}
        for line in lines[1:last]:
            if not line.startswith(_COMMIT_PREFIX):
                row = json.loads(line)
                rows[row["agent"]].append(row)

        log_path = out_path / LOG_FILENAME
        with open(log_path, "rb") as handle:
            log_data = handle.read(state["log_bytes"])
        if len(log_data) != state["log_bytes"]:
            raise ValueError(
                f"{log_path} holds {len(log_data)} bytes, fewer than {state['log_bytes']}"
            )
        entries = [
            _entry_from_dict(json.loads(line)) for line in log_data.split(b"\n")[1:-1]
        ]
        if len(entries) != state["completed_steps"]:
            raise ValueError(
                f"{log_path} holds {len(entries)} committed entries, "
                f"not {state['completed_steps']}"
            )
        stores = {
            agent_id: MemoryStore.load(
                agent_id,
                self.config,
                self.embedder,
                rows[agent_id],
                capacity=self.params.short_term_capacity,
                decay=self.params.salience_decay,
            )
            for agent_id in self.stores
        }
        # Everything read: drop the bytes written after the commit.
        os.truncate(log_path, state["log_bytes"])
        os.truncate(journal_path, journal_bytes)

        self.entries = entries
        self.completed_steps = state["completed_steps"]
        self._log_bytes = state["log_bytes"]
        self._logged_entries = len(entries)
        self._log_hash = hashlib.sha256(log_data)
        self.stores.update(stores)
        for agent_id, store in stores.items():
            self._journaled[agent_id] = store.long_term_size()
        for agent_id, text in state["roles"].items():
            self.roles[agent_id] = parse_role_text(text)
            self.system_messages[agent_id] = system_message(self.roles[agent_id])
        self.env.locations = state["locations"]
        # Working memory is the window of each agent's latest logged turns.
        for wm in self.working_memories.values():
            wm.messages.clear()
        for entry in entries:
            self.working_memories[entry.agent_id].append_turn(
                entry.situation_text, entry.response
            )


def _json_line(obj: dict) -> bytes:
    return (json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n").encode("utf-8")


def _entry_from_dict(raw: dict) -> InteractionLogEntry:
    return InteractionLogEntry(
        step_index=raw["step_index"],
        agent_id=raw["agent_id"],
        time=SimTime.at(raw["time"]["day"], Slot.from_label(raw["time"]["slot"])),
        situation_text=raw["situation"],
        prompt=[ChatMessage(m["role"], m["content"]) for m in raw["prompt"]],
        response=raw["response"],
        action_category=raw["action_category"],
        retrieved_count=raw["retrieved_count"],
        memory_update_counts=raw["memory_update_counts"],
        memory_update_failed=raw["memory_update_failed"],
        memory_update_raw=raw["memory_update_raw"],
        move=raw["move"],
        rejected_move=raw["rejected_move"],
        role_updated=raw["role_updated"],
    )


_AGENT_ID_RE = re.compile(r"^Agent ID:\s*(.+?)\s*$", re.MULTILINE)

_EMPTY_UPDATE_JSON = json.dumps(MemoryUpdate().as_dict())


class ReplayBundle(Provider):
    """Replays each agent's recorded answers in order, routed by agent id.

    Transcripts only record action answers, so memory-update prompts get a
    canned empty update and role-update prompts report no significant change.
    Per-agent cursors make the bundle safe under slot-parallel stepping (one
    thread per agent); exhausting an agent's answers raises.
    """

    def __init__(self, answers_by_agent: dict[str, list[str]], name: str = "replay"):
        self._by_agent = {
            agent_id: ReplayProvider(answers, name=f"{name}:{agent_id}")
            for agent_id, answers in answers_by_agent.items()
        }
        self.name = name

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "ReplayBundle":
        answers: dict[str, list[str]] = {a: [] for a in dataset.agent_ids}
        for step in dataset.steps:
            answers[step.agent_id].append(step.reference)
        return cls(answers)

    def complete(self, messages, params: GenParams | None = None) -> str:
        content = messages[-1].content
        if content.startswith(MEMORY_UPDATE_HEADER):
            return _EMPTY_UPDATE_JSON
        if content.startswith(ROLE_UPDATE_HEADER):
            return (
                "No significant updates are needed; the role setting remains "
                "largely unchanged."
            )
        match = _AGENT_ID_RE.search(messages[0].content)
        if not match or match.group(1) not in self._by_agent:
            raise ProviderError("replay bundle cannot identify the acting agent")
        return self._by_agent[match.group(1)].complete(messages, params)


def run_simulation(
    dataset: Dataset,
    roles: dict[str, RoleSetting],
    provider: Provider,
    config: SimulationConfig,
    seed: int = 0,
    params: RunParams | None = None,
    out_dir: str | Path | None = None,
    jobs: int = 1,
    resume: bool = False,
) -> InteractionLog:
    """Run every dataset step under one configuration; returns the log."""
    sim = Simulation(dataset, roles, provider, config, seed=seed, params=params)
    if resume:
        if not out_dir:
            raise ValueError("resume requires an output directory")
        sim.restore_checkpoint(Path(out_dir))
    return sim.run(out_dir=out_dir, jobs=jobs)
