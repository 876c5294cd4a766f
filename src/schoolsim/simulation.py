"""Step-cycle orchestrator: situate, retrieve, prompt, act, update, reflect.

Each agent step runs the same cycle: retrieve memories for the situation
(skipped entirely when no memory base is configured), assemble the prompt,
ask the provider for the action, append the turn to working memory, ask the
provider for a memory update and apply it, apply environment deltas parsed
from the response footer, and, at the day's extracurricular slot, reflect the
day's log into a role-setting update.

The dataset drives the run chronologically; slots are barriers, so interaction
text always reflects completed prior slots. With scripted providers the whole
run is a pure function of (dataset, roles, config, provider, seed): every
other value is fixed, the default of the component that uses it, and
``RUN_PARAMS`` records those values in the log, manifest and journal.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import logging
import os
import shutil
import sys
from collections.abc import Generator, Iterator
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from functools import partial
from json.encoder import encode_basestring
from pathlib import Path

from .agent import (
    DEFAULT_WINDOW,
    RoleSetting,
    WorkingMemory,
    apply_role_update,
    assemble_prompt,
    parse_role_text,
    role_update_request,
    system_message,
)
from .config import SimulationConfig
from .dataset import Dataset, parse_action_footer
from .embedding import DEFAULT_DIM, DEFAULT_SEED, shared_embedder
from .environment import AreaMap, EnvironmentState, SimTime, Slot, classify_action
from .errors import (
    EmptyTextError,
    MemoryUpdateError,
    MissingFieldError,
    NoJsonFoundError,
    ProviderError,
    RecordValueError,
    UnknownAreaError,
    WrongTypeError,
)
from .fixtures import EMPTY_UPDATE_JSON, ROLE_UNCHANGED_RESPONSE
from .llm import ChatMessage, GenParams, Provider, Request
from .memory import (
    DEFAULT_SALIENCE_DECAY,
    DEFAULT_SHORT_TERM_CAPACITY,
    UPDATE_ROUTES,
    MemoryStore,
    MemoryUpdate,
    RetrievalPolicy,
)
from .prompts import MEMORY_UPDATE_TEMPLATE

logger = logging.getLogger(__name__)

LOG_FILENAME = "log.jsonl"
MANIFEST_FILENAME = "manifest.json"
CHECKPOINT_DIRNAME = "checkpoint"
JOURNAL_FILENAME = "journal.jsonl"
CHECKPOINT_FORMAT = "checkpoint-v4"
# Commit lines are the only journal lines that start with this.
_COMMIT_PREFIX = b'{"commit": '
# What each kind of journal line holds: a record's keys, as
# MemoryStore.save writes them, and the commit's keys and value types.
_RECORD_KEYS = {"agent", "id", "kind", "day", "slot", "salience", "short", "text"}
_COMMIT_TYPES = {"completed_steps": int, "log_bytes": int, "roles": dict, "locations": dict}
# Stateless, so one decoder serves every parse.
_JSON_DECODER = json.JSONDecoder()


def parse_memory_update(text: str) -> MemoryUpdate:
    """Extract and validate the first JSON object embedded in ``text``.

    The object must carry all four list-of-string fields; anything else
    raises a specific error so callers can degrade to an empty update.
    """
    obj = None
    index = text.find("{")
    while index != -1:
        try:
            candidate, _end = _JSON_DECODER.raw_decode(text, index)
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
    """One step of the log; the fields in order are the keys of its line."""

    step_index: int
    agent_id: str
    time: SimTime
    situation: str
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


# Each field after the prompt, with the start of its member in a log line.
# The four before it and the prompt's key are a step's head, which
# _LineEncoder.head writes from what the dataset step gives.
_TAIL_FIELDS = tuple(
    (f.name, encode_basestring(f.name) + ": ") for f in fields(InteractionLogEntry)[5:]
)
# What a step's memory_update_counts may hold: the names
# MemoryStore.apply_update counts under, and ints.
_COUNTS_PARTS = {name for name, _, _, _ in UPDATE_ROUTES} | {
    "skipped_disabled",
    "skipped_empty",
    int,
}


@dataclass
class InteractionLog:
    meta: dict
    entries: list[InteractionLogEntry] = field(default_factory=list)

    def responses(self) -> list[str]:
        return [entry.response for entry in self.entries]

    def to_jsonl(self) -> str:
        return "".join(_LineEncoder().lines(self.meta, self.entries))

    def digest(self) -> str:
        """The SHA-256 of :meth:`to_jsonl`, hashed a line at a time."""
        hashed = hashlib.sha256()
        for line in _LineEncoder().lines(self.meta, self.entries):
            hashed.update(line.encode("utf-8"))
        return hashed.hexdigest()


class _LineEncoder:
    """Writes each log line as ``json.dumps(..., ensure_ascii=False)`` would
    write the entry's fields, with its time and messages as dicts.

    A line is its step's :meth:`head`, the JSON of its prompt's messages
    (:meth:`messages`) and then its :meth:`tail`, the members after the
    prompt. The restore asks for the same head and messages to compare a
    committed line with, and decodes the rest with :meth:`rest`.

    A prompt repeats most of its agent's previous prompt: the system message
    and every working-memory turn but the newest. So the encoder keeps the
    JSON of each message of each agent's previous prompt by ``id``, with the
    message, so that the id stays its own. A message it does not hold is
    encoded again, so a fresh encoder writes the same lines.
    """

    def __init__(self) -> None:
        self._encode = json.JSONEncoder(ensure_ascii=False).encode
        self._held: dict[str, dict[int, tuple[ChatMessage, str]]] = {}
        self._times: dict[SimTime, str] = {}  # the JSON of each time

    def lines(self, meta: dict | None, entries: list[InteractionLogEntry]) -> Iterator[str]:
        """The meta line (when given), then a line per entry."""
        if meta is not None:
            yield json.dumps({"meta": meta}, ensure_ascii=False, sort_keys=True) + "\n"
        for entry in entries:
            head = self.head(entry.step_index, entry.agent_id, entry.time, entry.situation)
            messages = ", ".join(self.messages(entry.agent_id, entry.prompt))
            yield f"{head}{messages}{self.tail(vars(entry))}"

    def head(self, step_index: int, agent_id: str, time: SimTime, situation: str) -> str:
        """The line of a step up to its prompt's first message."""
        time_json = self._times.get(time)
        if time_json is None:
            time_json = self._times[time] = self._encode(time.as_dict())
        return (
            f'{{"step_index": {step_index}, "agent_id": {encode_basestring(agent_id)}, '
            f'"time": {time_json}, "situation": {encode_basestring(situation)}, "prompt": ['
        )

    def messages(self, agent_id: str, messages: list[ChatMessage]) -> list[str]:
        """The JSON of each message, held as the agent's in place of those
        held before."""
        previous = self._held.get(agent_id, {})
        held = self._held[agent_id] = {}
        texts = []
        for message in messages:
            pair = previous.get(id(message))
            if pair is None:
                pair = message, (
                    f'{{"role": {encode_basestring(message.role)}, '
                    f'"content": {encode_basestring(message.content)}}}'
                )
            held[id(message)] = pair
            texts.append(pair[1])
        return texts

    def tail(self, values: dict) -> str:
        """The end of a line from the prompt's closing bracket on, given the
        value of each field after the prompt by name."""
        members = ", ".join([key + self._value(values[name]) for name, key in _TAIL_FIELDS])
        return f"], {members}}}\n"

    def rest(self, line: bytes, at: int) -> dict:
        """The members of a log ``line`` from its prompt's message at ``at``
        on, with ``prompt`` holding the messages from there.

        The members after the prompt must be the :meth:`tail` the encoder
        writes for their values: in order, spaced and escaped as it writes
        them. So the resumed log re-encodes to the bytes the manifest's
        digest covers.
        """
        text = str(line[at:], "utf-8")
        prompt = []
        end = 0
        while True:
            message, end = _JSON_DECODER.raw_decode(text, end)
            prompt.append(message)
            if not text.startswith(", ", end):
                break
            end += 2
        members = _JSON_DECODER.raw_decode("{" + text[end + 3 :])[0]
        if text[end:] != self.tail(members):
            raise ValueError("not the members the encoder writes")
        return {"prompt": prompt, **members}

    def _value(self, value) -> str:
        if type(value) is str:
            return encode_basestring(value)
        if type(value) is int:
            return int.__repr__(value)
        if value is None:
            return "null"
        if type(value) is bool:
            return "true" if value else "false"
        return self._encode(value)


def iter_log(path: str | Path) -> Iterator[dict]:
    """The meta of a log file and then each raw entry dict, read a line at a time."""
    # A text file splits lines at newlines only, not at the U+2028 and U+0085
    # that JSON leaves unescaped (str.splitlines would split on them).
    with open(path, encoding="utf-8") as handle:
        first = handle.readline()
        if not first.strip():
            raise ValueError(f"empty log file: {path}")
        head = json.loads(first)
        if "meta" not in head:
            raise ValueError(f"log file lacks a meta line: {path}")
        yield head["meta"]
        for line in handle:
            if line.strip():
                yield json.loads(line)


# The fixed values of every run, each the default of the component that uses
# it: the embedder, RetrievalPolicy, MemoryStore, WorkingMemory and
# GenParams. The log meta line, manifest, journal header and run id record
# them, so a resume refuses a journal written with other values.
RUN_PARAMS = {
    "embed_dim": DEFAULT_DIM,
    "embed_seed": DEFAULT_SEED,
    "k_short": RetrievalPolicy.k_short,
    "k_long": RetrievalPolicy.k_long,
    "min_similarity": RetrievalPolicy.min_similarity,
    "short_term_capacity": DEFAULT_SHORT_TERM_CAPACITY,
    "salience_decay": DEFAULT_SALIENCE_DECAY,
    "window": DEFAULT_WINDOW,
    "temperature": GenParams.temperature,
    "max_tokens": GenParams.max_tokens,
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
        self.dataset_digest = dataset.digest()
        self.gen_params = GenParams(seed=seed)
        self.policy = RetrievalPolicy()
        self.embedder = shared_embedder()
        self.stores = {
            agent_id: MemoryStore(agent_id, config, self.embedder)
            for agent_id in dataset.agent_ids
        }
        self.working_memories = {agent_id: WorkingMemory() for agent_id in dataset.agent_ids}
        self.env = EnvironmentState(AreaMap.default())
        self.entries: list[InteractionLogEntry] = []
        self.completed_steps = 0
        # What the run directory holds so far: bytes of log.jsonl, log entries
        # written, the log's hash, and each store's records in the journal.
        self._log_bytes = 0
        self._logged_entries = 0
        self._log_hash = hashlib.sha256()
        self._encoder = _LineEncoder()
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
                "params": RUN_PARAMS,
            },
            sort_keys=True,
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:12]

    def log_meta(self) -> dict:
        return {"run_id": self.run_id(), **self._identity()}

    def log(self) -> InteractionLog:
        return InteractionLog(meta=self.log_meta(), entries=self.entries)

    # The step cycle

    def step_agent(self, step_index: int) -> Generator[Request, str, InteractionLogEntry]:
        """Run the agent of dataset step ``step_index`` through the full cycle.

        The step yields each provider ``Request`` (action, memory update, role
        update), is sent the answer, and returns its log entry; a malformed
        answer raises ``ProviderError``. It writes only that agent's state:
        its role, store, working memory and location.
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
        response = yield Request("action", step_index, prompt)
        # A blank or missing answer cannot be a turn: abort the run as for any
        # provider failure, so the last completed slot stays the resume point.
        if not isinstance(response, str) or not response.strip():
            raise ProviderError(f"blank action answer: {response!r}")

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
            update_text = yield Request(
                "update", step_index, [ChatMessage("user", update_prompt)]
            )
            # A blank answer is an unparseable update; a missing one is a
            # provider failure.
            if not isinstance(update_text, str):
                raise ProviderError(f"non-string memory-update answer: {update_text!r}")
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
            answer = yield Request(
                "role_update", step_index, role_update_request(role, summary)
            )
            role_updated = apply_role_update(role, answer)
            if role_updated:
                self.system_messages[agent_id] = system_message(role)

        return InteractionLogEntry(
            step_index=step_index,
            agent_id=agent_id,
            time=step.time,
            situation=situation,
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

    def run(self, out_dir: str | Path | None = None) -> InteractionLog:
        # One pool, as wide as the provider's calls in flight, serves every slot.
        jobs = self.provider.jobs
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
        # fresh one starts them, dropping any earlier checkpoint and manifest,
        # so a crash before its own manifest leaves none that vouches for
        # another run's log.
        mode = "ab" if self._log_bytes else "wb"
        if mode == "wb":
            (out_path / MANIFEST_FILENAME).unlink(missing_ok=True)
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

        Round r holds each agent's r-th step of the slot, so the steps of a
        round share no state. They all run on this thread: whenever each
        waits on a provider answer, their requests go out as one batch, on
        ``pool`` when there is one, and each step is sent its answer. A failed
        call ends its batch, and the calls not yet started are never made.
        """
        rounds: list[list[int]] = []
        seen: dict[str, int] = {}
        for index in group:
            agent_id = self.dataset.steps[index].agent_id
            r = seen[agent_id] = seen.get(agent_id, -1) + 1
            if r == len(rounds):
                rounds.append([])
            rounds[r].append(index)
        respond = partial(self.provider.respond, params=self.gen_params)
        entries: dict[int, InteractionLogEntry] = {}
        try:
            for indices in rounds:
                steps = {index: self.step_agent(index) for index in indices}
                answers = dict.fromkeys(indices)
                while steps:
                    requests = {}
                    for index, step in steps.items():
                        try:
                            requests[index] = step.send(answers[index])
                        except StopIteration as done:
                            entries[index] = done.value
                    steps = {index: steps[index] for index in requests}
                    results = (pool.map if pool else map)(respond, requests.values())
                    for index in requests:
                        answers[index] = next(results)
        except ProviderError as exc:
            agent_id = self.dataset.steps[index].agent_id
            exc.args = (f"[agent={agent_id} step={index}] {exc}",)
            raise
        self.entries.extend(entries[index] for index in group)
        self.completed_steps += len(group)

    # Outputs, checkpointing, resuming

    def manifest(self, status: str, out_path: Path) -> dict:
        outputs = [LOG_FILENAME] if (out_path / LOG_FILENAME).exists() else []
        return {
            **self.log_meta(),
            "status": status,
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
        # Written whole and then moved into place, so a crash leaves the old
        # manifest or the new one, never a torn one.
        temporary = out_path / f"{MANIFEST_FILENAME}.tmp"
        temporary.write_text(
            json.dumps(manifest, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        os.replace(temporary, out_path / MANIFEST_FILENAME)

    def _append_log(self) -> None:
        """Append the entries not yet in log.jsonl, after its meta line."""
        meta = None if self._log_bytes else self.log_meta()
        new_entries = self.entries[self._logged_entries :]
        if meta is None and not new_entries:
            return
        data = "".join(self._encoder.lines(meta, new_entries)).encode("utf-8")
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
            "params": dict(RUN_PARAMS),
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
        """Load the last committed checkpoint and cut every file back to it.

        The journal and then log.jsonl are read once, a line at a time, so a
        restore holds one slot's record lines and one log line beyond what
        it keeps. Each log line is compared with what the run's encoder
        writes for its step, and only the rest is decoded (see
        :meth:`_restored_entry`); the encoder then holds each agent's latest
        messages, so the next slot escapes only new ones. A malformed line is
        named by file and number.
        """
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
        rows: dict[str, list[dict]] = {agent_id: [] for agent_id in self.stores}
        numbers: dict[str, list[int]] = {agent_id: [] for agent_id in self.stores}
        pending: list[bytes] = []  # the record lines since the last commit
        commit = None  # the number and bytes of the last commit line
        with open(journal_path, "rb") as handle:
            # Newline-terminated lines only: a torn last line never committed.
            for number, line in enumerate(handle, start=1):
                if not line.endswith(b"\n"):
                    break
                if number == 1:
                    self._check_header(journal_path, _parse_line(journal_path, 1, line))
                elif line.startswith(_COMMIT_PREFIX):
                    first = number - len(pending)
                    for offset, row in enumerate(_parse_lines(journal_path, first, pending)):
                        if not (
                            isinstance(row, dict)
                            and row.keys() == _RECORD_KEYS
                            and row["agent"] in rows
                        ):
                            raise _wrong_shape(
                                journal_path, first + offset, "a memory record of this run"
                            )
                        rows[row["agent"]].append(row)
                        numbers[row["agent"]].append(first + offset)
                    pending = []
                    commit = number, line
                    journal_bytes = handle.tell()
                else:
                    pending.append(line)
        if commit is None:
            raise ValueError(f"no committed slot to resume in {journal_path}")
        state = _parse_line(journal_path, *commit)["commit"]
        if not (
            isinstance(state, dict)
            and state.keys() == _COMMIT_TYPES.keys()
            and all(isinstance(state[key], kind) for key, kind in _COMMIT_TYPES.items())
        ):
            raise _wrong_shape(journal_path, commit[0], "a commit line")
        stores = {}
        for agent_id in self.stores:
            try:
                stores[agent_id] = MemoryStore.load(
                    agent_id, self.config, self.embedder, rows.pop(agent_id)
                )
            except RecordValueError as exc:
                number = numbers[agent_id][exc.index]
                raise _wrong_shape(journal_path, number, "a memory record") from None

        # The prompts share messages as the run's did: an agent's system
        # message until its role changes, and each working-memory turn with
        # every later prompt that shows it. Working memory ends as the window
        # of each agent's latest logged turns.
        log_path = out_path / LOG_FILENAME
        log_bytes = state["log_bytes"]
        log_hash = hashlib.sha256()
        working = {agent_id: WorkingMemory() for agent_id in self.working_memories}
        systems = dict(self.system_messages)
        entries = []
        number = read = 0
        with open(log_path, "rb") as handle:
            for number, line in enumerate(handle, start=1):
                # Past the committed length, the lines were never committed.
                if read + len(line) > log_bytes or not line.endswith(b"\n"):
                    break
                read += len(line)
                log_hash.update(line)
                if number > 1:  # past the meta line
                    index = len(entries)
                    try:
                        entries.append(self._restored_entry(index, line, systems, working))
                    except (LookupError, TypeError, AttributeError, ValueError, EmptyTextError):
                        # Not JSON, or not what the run wrote for the step.
                        _parse_line(log_path, number, line)
                        raise _wrong_shape(
                            log_path, number, f"the log entry of step {index}"
                        ) from None
        if read != log_bytes:
            size = log_path.stat().st_size
            raise ValueError(
                f"{log_path} holds {size} bytes, fewer than {log_bytes}" if size < log_bytes
                else f"{log_path}: the committed {log_bytes} bytes end inside line {number}"
            )
        if len(entries) != state["completed_steps"]:
            raise ValueError(
                f"{log_path} holds {len(entries)} committed entries, "
                f"not {state['completed_steps']}"
            )
        # Everything read: drop the bytes written after the commit.
        os.truncate(log_path, log_bytes)
        os.truncate(journal_path, journal_bytes)

        self.entries = entries
        self.completed_steps = state["completed_steps"]
        self._log_bytes = log_bytes
        self._logged_entries = len(entries)
        self._log_hash = log_hash
        self.stores.update(stores)
        for agent_id, store in stores.items():
            self._journaled[agent_id] = store.long_term_size()
        for agent_id, text in state["roles"].items():
            self.roles[agent_id] = parse_role_text(text)
            message = system_message(self.roles[agent_id])
            if agent_id in systems and systems[agent_id].content == message.content:
                message = systems[agent_id]
            self.system_messages[agent_id] = message
        self.env.locations = state["locations"]
        self.working_memories.update(working)

    def _restored_entry(
        self,
        index: int,
        line: bytes,
        systems: dict[str, ChatMessage],
        working: dict[str, WorkingMemory],
    ) -> InteractionLogEntry:
        """The entry of step ``index`` that the committed ``line`` holds.

        The line must start with the head the encoder writes for the step.
        Its prompt should go on with the JSON of the agent's system message
        and working-memory turns: what matches those bytes is taken as the
        messages themselves, and only the rest of the line is decoded. The
        encoder then holds the agent's system message and turns, which its
        next prompt repeats. Raises on a line that is not what the run wrote
        for the step.
        """
        step = self.dataset.steps[index]
        agent_id = step.agent_id
        head = self._encoder.head(index, agent_id, step.time, step.user).encode("utf-8")
        if not line.startswith(head):
            raise ValueError("not the head of the step")
        at = len(head)
        system = systems[agent_id]
        turns = working[agent_id].messages
        held = self._encoder.messages(agent_id, [system, *turns])
        known = held[0].encode("utf-8")
        if line.startswith(known, at):
            at += len(known)
        else:  # a role change: decode the one message, and hold it instead
            text = line[at:].decode("utf-8")
            raw, end = _JSON_DECODER.raw_decode(text)
            system = systems[agent_id] = ChatMessage(**raw)
            at += len(text[:end].encode("utf-8"))
            held = self._encoder.messages(agent_id, [system, *turns])
        known = ", ".join(["", *held[1:], ""]).encode("utf-8")
        if line.startswith(known, at):
            raw = self._encoder.rest(line, at + len(known))
        elif line.startswith(b", ", at):  # turns working memory does not hold
            raw = self._encoder.rest(line, at + 2)
            turns = []
        else:
            raise ValueError("not a list of messages")
        *shown, last = raw["prompt"]
        if shown:
            turns = [*turns, *(ChatMessage(**message) for message in shown)]
        raw["prompt"] = [system, *turns, ChatMessage(**last)]
        counts = raw["memory_update_counts"]
        if not {*counts, *map(type, counts.values())} <= _COUNTS_PARTS:
            raise ValueError("not the counters of a step")
        # Interned names and the dataset's texts, so the entry keeps no
        # second copy of them.
        raw["memory_update_counts"] = dict(zip(map(sys.intern, counts), counts.values()))
        if raw["response"] == step.reference:
            raw["response"] = step.reference
        entry = InteractionLogEntry(index, agent_id, step.time, step.user, **raw)
        working[agent_id].append_turn(step.user, entry.response)
        return entry

    def _check_header(self, journal_path: Path, header) -> None:
        """Refuse a journal header of another format or another run."""
        if not isinstance(header, dict):
            raise _wrong_shape(journal_path, 1, "a journal header")
        if header.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(
                f"{journal_path} is a {header.get('format')} journal, not "
                f"{CHECKPOINT_FORMAT}, and cannot be resumed; start the run again "
                "without resume"
            )
        for name, value in self._identity().items():
            if name not in header:
                raise _wrong_shape(journal_path, 1, "a journal header")
            if header[name] != value:
                raise ValueError(
                    f"checkpoint was produced with a different {name}: "
                    f"{header[name]!r}, not {value!r}"
                )


def _json_line(obj: dict) -> bytes:
    return (json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n").encode("utf-8")


def _parse_line(path: Path, number: int, line: bytes):
    """The JSON value of ``line``, line ``number`` of ``path``."""
    try:
        return json.loads(line)
    except ValueError as exc:
        raise ValueError(f"{path}: line {number} is not JSON: {exc}") from None


def _parse_lines(path: Path, first: int, lines: list[bytes]) -> list:
    """The JSON values of ``lines``, lines ``first`` on of ``path``, parsed as
    one array; only when that fails, a line at a time, to name the line."""
    try:
        return json.loads(b"[" + b",".join(lines) + b"]")
    except ValueError:
        return [_parse_line(path, first + i, line) for i, line in enumerate(lines)]


def _wrong_shape(path: Path, number: int, what: str) -> ValueError:
    return ValueError(f"{path}: line {number} is not {what}")


class ReplayBundle(Provider):
    """Answers each action request with the reference of its dataset step.

    Transcripts only record action answers, so a memory update gets the
    fixture's canned empty update and a role update its "no significant
    change" answer. An answer depends on the request alone, so a resumed run
    gets the answers an uninterrupted one does.
    """

    def __init__(self, references: list[str], name: str = "replay"):
        self._references = list(references)
        self.name = name

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "ReplayBundle":
        return cls(dataset.reference_answers())

    def respond(self, request: Request, params: GenParams | None = None) -> str:
        if request.kind == "update":
            return EMPTY_UPDATE_JSON
        if request.kind == "role_update":
            return ROLE_UNCHANGED_RESPONSE
        return self._references[request.step_index]

    def complete(self, messages, params: GenParams | None = None) -> str:
        raise ProviderError("a replay bundle answers a run's requests, not a bare prompt")


def run_simulation(
    dataset: Dataset,
    roles: dict[str, RoleSetting],
    provider: Provider,
    config: SimulationConfig,
    seed: int = 0,
    out_dir: str | Path | None = None,
    resume: bool = False,
) -> InteractionLog:
    """Run every dataset step under one configuration; returns the log."""
    sim = Simulation(dataset, roles, provider, config, seed=seed)
    if resume:
        if not out_dir:
            raise ValueError("resume requires an output directory")
        sim.restore_checkpoint(Path(out_dir))
    return sim.run(out_dir=out_dir)
