"""Ground-truth interaction dataset: loading, validation, summaries.

Format: one UTF-8 JSON file per agent holding an array of ``{"role", "content"}``
objects. The first message is the agent's serialized role setting (system);
the rest strictly alternate user/assistant starting with user. Each user
message opens with the situation header line (``Day <d>, <slot> | Location:
... | Activity: ...``); assistant messages may end with structured footer
lines ``ACTION: <catalog label>`` and ``MOVE: <area>``.

Validation is total: a file either loads fully or the first violating
position is reported; nothing is silently skipped.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .agent import RoleKind
from .environment import ActionCategory, SimTime, classify_action, parse_situation_header
from .errors import (
    AlternationError,
    MissingSystemError,
    SchemaError,
)
from .llm import ChatMessage

_ROLE_LINE_RE = re.compile(r"^Role:\s*(Teacher|Student)\s*$", re.MULTILINE)
_FOOTER_RE = re.compile(r"^(ACTION|MOVE):\s*(.+?)\s*$")


def parse_action_footer(text: str) -> tuple[str | None, str | None]:
    """Extract (action label, move target) from a response's trailing lines."""
    action = None
    move = None
    for line in reversed(text.strip().splitlines()):
        match = _FOOTER_RE.match(line.strip())
        if not match:
            break
        if match.group(1) == "ACTION" and action is None:
            action = match.group(2)
        elif match.group(1) == "MOVE" and move is None:
            move = match.group(2)
    return action, move


@dataclass
class AgentTranscript:
    agent_id: str
    messages: list[ChatMessage]

    @property
    def system(self) -> ChatMessage:
        return self.messages[0]


@dataclass(frozen=True)
class QAPair:
    agent_id: str
    turn_index: int  # index of the user message within the transcript
    user: str
    reference: str
    time: SimTime
    location: str | None
    category: ActionCategory | None


@dataclass
class DatasetSummary:
    agent_counts: dict[RoleKind, int]
    qa_count: int
    category_counts: dict[ActionCategory, int]
    unlabeled: int


@dataclass
class Dataset:
    transcripts: dict[str, AgentTranscript] = field(default_factory=dict)
    kinds: dict[str, RoleKind] = field(default_factory=dict)
    steps: list[QAPair] = field(default_factory=list)

    @property
    def qa_count(self) -> int:
        return len(self.steps)

    @property
    def agent_ids(self) -> list[str]:
        return sorted(self.transcripts)

    def reference_answers(self) -> list[str]:
        return [step.reference for step in self.steps]

    def digest(self) -> str:
        h = hashlib.sha256()
        for agent_id in self.agent_ids:
            transcript = self.transcripts[agent_id]
            h.update(agent_id.encode("utf-8"))
            for message in transcript.messages:
                h.update(message.role.encode("utf-8"))
                h.update(message.content.encode("utf-8"))
                h.update(b"\x00")
        return h.hexdigest()


def _validate_transcript(file: str, agent_id: str, raw: list) -> AgentTranscript:
    if not isinstance(raw, list) or not raw:
        raise SchemaError(file, 0, "transcript must be a non-empty JSON array")
    messages: list[ChatMessage] = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict) or "role" not in item or "content" not in item:
            raise SchemaError(file, i, "message must carry 'role' and 'content'")
        role = item["role"]
        content = item["content"]
        if role not in ("system", "user", "assistant"):
            raise SchemaError(file, i, f"unknown role {role!r}")
        if not isinstance(content, str) or not content.strip():
            raise SchemaError(file, i, "content must be a non-empty string")
        messages.append(ChatMessage(role, content))
    if messages[0].role != "system":
        raise MissingSystemError(file, 0, "transcript must start with a system message")
    for i, message in enumerate(messages[1:], start=1):
        expected = "user" if i % 2 == 1 else "assistant"
        if message.role != expected:
            raise AlternationError(
                file, i, f"expected {expected} at position {i}, got {message.role}"
            )
    if len(messages) % 2 == 0:
        raise AlternationError(
            file, len(messages) - 1, "transcript ends with an unanswered user message"
        )
    return AgentTranscript(agent_id, messages)


def _extract_steps(file: str, transcript: AgentTranscript, kind: RoleKind) -> list[QAPair]:
    steps = []
    messages = transcript.messages
    for i in range(1, len(messages), 2):
        user = messages[i].content
        reference = messages[i + 1].content
        try:
            time, location, _act = parse_situation_header(user)
        except ValueError as exc:
            raise SchemaError(file, i, str(exc)) from None
        label, _move = parse_action_footer(reference)
        category = None
        if label is not None:
            try:
                category = classify_action(kind, label)
            except Exception as exc:
                raise SchemaError(file, i + 1, f"bad action footer: {exc}") from None
        steps.append(
            QAPair(
                agent_id=transcript.agent_id,
                turn_index=i,
                user=user,
                reference=reference,
                time=time,
                location=location,
                category=category,
            )
        )
    return steps


def _kind_of(file: str, transcript: AgentTranscript) -> RoleKind:
    match = _ROLE_LINE_RE.search(transcript.system.content)
    if not match:
        raise SchemaError(file, 0, "system message lacks a 'Role: Teacher|Student' line")
    return RoleKind(match.group(1).lower())


def load_standard_group(path: str | Path) -> Dataset:
    """Load and validate a directory of per-agent transcript files.

    The global step order is a stable sort of all QA pairs by
    (day, slot, agent id), so ties preserve each transcript's own order.
    """
    directory = Path(path)
    if not directory.is_dir():
        raise SchemaError(str(path), 0, "dataset path is not a directory")
    dataset = Dataset()
    for file_path in sorted(directory.glob("*.json")):
        agent_id = file_path.stem
        try:
            raw = json.loads(file_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise SchemaError(str(file_path), exc.pos, f"invalid JSON: {exc.msg}") from None
        except UnicodeDecodeError as exc:
            raise SchemaError(str(file_path), exc.start, f"not UTF-8: {exc.reason}") from None
        transcript = _validate_transcript(str(file_path), agent_id, raw)
        kind = _kind_of(str(file_path), transcript)
        dataset.transcripts[agent_id] = transcript
        dataset.kinds[agent_id] = kind
        dataset.steps.extend(_extract_steps(str(file_path), transcript, kind))
    dataset.steps.sort(key=lambda step: (step.time.ordinal, step.agent_id))
    return dataset


def summarize(dataset: Dataset) -> DatasetSummary:
    agent_counts = {RoleKind.TEACHER: 0, RoleKind.STUDENT: 0}
    for kind in dataset.kinds.values():
        agent_counts[kind] += 1
    category_counts: dict[ActionCategory, int] = {}
    unlabeled = 0
    for step in dataset.steps:
        if step.category is None:
            unlabeled += 1
        else:
            category_counts[step.category] = category_counts.get(step.category, 0) + 1
    return DatasetSummary(
        agent_counts=agent_counts,
        qa_count=dataset.qa_count,
        category_counts=category_counts,
        unlabeled=unlabeled,
    )
