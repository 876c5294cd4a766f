"""Agent roles, working memory, and prompt assembly.

A role setting is an ordered map of named profile fields plus a free-text
list of evolved traits. Roles are serialized in a stable labeled-line format
(one "Field: value" line per attribute, then an "Evolved Traits:" list) so
that prompts are deterministic and runs can be replayed byte-for-byte.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import EmptyTextError, ProviderError, RoleParseError
from .llm import ChatMessage, Provider
from .prompts import (
    ROLE_GENERATION_STUDENT,
    ROLE_GENERATION_TEACHER,
    ROLE_UNCHANGED_MARKER,
    ROLE_UPDATE_TEMPLATE,
)

logger = logging.getLogger(__name__)

DEFAULT_WINDOW = 10

TEACHER_SUBJECTS = ("Chinese", "Math", "Physics", "Chemistry", "History")


class RoleKind(Enum):
    TEACHER = "teacher"
    STUDENT = "student"


TEACHER_FIELDS = (
    "Full Name",
    "Gender",
    "Age",
    "Years of Teaching Experience",
    "Teaching Philosophy/Style",
    "Personality Traits",
    "Strengths as a Teacher",
    "Weaknesses as a Teacher",
    "Interests or Hobbies Outside of Teaching",
    "Specific Quirks or Habits",
)

STUDENT_FIELDS = (
    "Full Name",
    "Academic Performance",
    "Learning Style",
    "Personality Traits",
    "Brief Background Story",
    "Academic Strengths",
    "Academic Weaknesses",
    "Interests or Hobbies Outside of School",
    "Social Tendencies",
    "Specific Quirks or Habits",
)

# Fields that define who the agent is; never altered by reflection updates.
IDENTITY_FIELDS = ("Full Name", "Gender", "Age")


def fields_for(kind: RoleKind) -> tuple[str, ...]:
    return TEACHER_FIELDS if kind is RoleKind.TEACHER else STUDENT_FIELDS


def _normalize_field(name: str) -> str:
    text = name.strip().lower()
    text = re.sub(r"^(any|brief)\s+", "", text)
    return re.sub(r"\s+", " ", text)


def _field_lookup(kind: RoleKind) -> dict[str, str]:
    lookup = {}
    for canonical in fields_for(kind):
        lookup[_normalize_field(canonical)] = canonical
    return lookup


@dataclass
class RoleSetting:
    """An agent's profile: fixed attributes plus evolved free-text aspects."""

    agent_id: str
    kind: RoleKind
    attributes: dict[str, str]
    mutable_aspects: list[str] = field(default_factory=list)
    class_assignment: str = ""

    def validate(self) -> None:
        missing = [
            name
            for name in fields_for(self.kind)
            if not self.attributes.get(name, "").strip()
        ]
        if missing:
            raise RoleParseError(
                f"{self.agent_id}: missing role fields: {', '.join(missing)}",
                missing=missing,
            )

    @property
    def name(self) -> str:
        return self.attributes.get("Full Name", "")


def serialize_role(role: RoleSetting) -> str:
    """Stable labeled-line serialization used as the system prompt."""
    lines = [
        f"Agent ID: {role.agent_id}",
        f"Role: {role.kind.value.capitalize()}",
        f"Class Assignment: {role.class_assignment}",
    ]
    for name in fields_for(role.kind):
        lines.append(f"{name}: {role.attributes.get(name, '')}")
    if role.mutable_aspects:
        lines.append("Evolved Traits:")
        lines.extend(f"- {aspect}" for aspect in role.mutable_aspects)
    return "\n".join(lines)


def parse_role_text(text: str) -> RoleSetting:
    """Inverse of :func:`serialize_role`; validates required fields."""
    agent_id = ""
    kind: RoleKind | None = None
    class_assignment = ""
    attributes: dict[str, str] = {}
    aspects: list[str] = []
    in_aspects = False
    for raw in text.splitlines():
        line = raw.rstrip()
        if not line.strip():
            continue
        if line.strip() == "Evolved Traits:":
            in_aspects = True
            continue
        if in_aspects:
            aspects.append(line.strip().lstrip("- ").strip())
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise RoleParseError(f"unlabeled role line: {line!r}")
        key = key.strip()
        value = value.strip()
        if key == "Agent ID":
            agent_id = value
        elif key == "Role":
            kind = RoleKind(value.lower())
        elif key == "Class Assignment":
            class_assignment = value
        else:
            attributes[key] = value
    if kind is None:
        raise RoleParseError("role text has no 'Role:' line")
    role = RoleSetting(
        agent_id=agent_id,
        kind=kind,
        attributes=attributes,
        mutable_aspects=aspects,
        class_assignment=class_assignment,
    )
    role.validate()
    return role


def save_role(role: RoleSetting, path: str | Path) -> None:
    Path(path).write_text(serialize_role(role) + "\n", encoding="utf-8")


def load_role(path: str | Path) -> RoleSetting:
    return parse_role_text(Path(path).read_text(encoding="utf-8"))


class WorkingMemory:
    """Bounded sliding window of (user, assistant) turns; oldest drop first.

    Each turn is held as its two prompt messages, built once, so every
    prompt that shows the turn shares them.
    """

    def __init__(self, window: int = DEFAULT_WINDOW):
        self.window = window
        # user, assistant, user, assistant, ...: at most ``window`` turns.
        self.messages: list[ChatMessage] = []

    def append_turn(self, user: str, assistant: str) -> None:
        if not user.strip() or not assistant.strip():
            raise EmptyTextError("working-memory turns must be non-empty")
        messages = self.messages
        messages += (ChatMessage("user", user), ChatMessage("assistant", assistant))
        if len(messages) > 2 * self.window:
            del messages[: len(messages) - 2 * self.window]


def system_message(role: RoleSetting) -> ChatMessage:
    """The system message of a prompt: the serialized role."""
    return ChatMessage("system", serialize_role(role))


def assemble_prompt(
    system: ChatMessage,
    wm: WorkingMemory,
    situation: str,
    retrieved: list | None = None,
) -> list[ChatMessage]:
    """Build the per-step message sequence.

    Shape: [system message, see :func:`system_message`] ++ working-memory
    turns as alternating user/assistant messages ++ [final user message].
    The final user message is the situation text (time + environment +
    other-agent interactions), followed by a "Relevant memories:" block
    listing retrieved texts in retrieval order (short-term entries first).
    An empty retrieval list omits the block entirely.
    """
    final = situation
    if retrieved:
        memory_lines = "\n".join(f"- {record.text}" for record, _sim in retrieved)
        final = f"{situation}\n\nRelevant memories:\n{memory_lines}"
    return [system, *wm.messages, ChatMessage("user", final)]


def role_update_request(role: RoleSetting, reflection_summary: str) -> list[ChatMessage]:
    """The messages asking the provider whether ``role`` should evolve."""
    if not reflection_summary.strip():
        raise EmptyTextError("reflection summary must be non-empty")
    prompt = ROLE_UPDATE_TEMPLATE.format(
        role_text=serialize_role(role), summary=reflection_summary
    )
    return [ChatMessage("user", prompt)]


def apply_role_update(role: RoleSetting, response: str) -> bool:
    """Apply the provider's answer to :func:`role_update_request`; returns
    whether ``role`` changed.

    A response containing the unchanged-marker phrase (case-insensitive)
    leaves the role untouched. Any other response is appended to the role's
    evolved traits in place; lines that try to rewrite identity fields
    (name, gender, age) are stripped and logged as rejected. A response that
    is not a string, such as a missing one, raises ``ProviderError``.
    """
    if not isinstance(response, str):
        raise ProviderError(f"non-string role-update answer: {response!r}")
    if ROLE_UNCHANGED_MARKER in response.lower():
        return False
    kept_lines = []
    for line in response.strip().splitlines():
        stripped = line.strip().lstrip("-* ").strip()
        key = stripped.split(":", 1)[0].strip() if ":" in stripped else ""
        if key in IDENTITY_FIELDS or key == "Role":
            logger.warning(
                "%s: rejected identity-field change in role update: %r",
                role.agent_id,
                stripped,
            )
            continue
        if stripped:
            kept_lines.append(stripped)
    if not kept_lines:
        return False
    role.mutable_aspects.append(" ".join(kept_lines))
    return True


def _parse_profile_response(kind: RoleKind, response: str) -> dict[str, str]:
    lookup = _field_lookup(kind)
    attributes: dict[str, str] = {}
    current: str | None = None
    for raw in response.splitlines():
        line = raw.strip().lstrip("-*").strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        canonical = lookup.get(_normalize_field(key)) if sep else None
        if canonical is not None:
            attributes[canonical] = value.strip()
            current = canonical
        elif current is not None:
            # Continuation of a multi-line field value.
            attributes[current] = f"{attributes[current]} {line}".strip()
    return attributes


def generate_role(
    provider: Provider,
    kind: RoleKind,
    subject_or_grade: str,
    agent_id: str = "",
) -> RoleSetting:
    """Generate a role profile through the provider and parse it.

    Teachers require a subject from the five-subject curriculum; the value is
    recorded as the class assignment (subjects taught for teachers, class id
    for students).
    """
    if kind is RoleKind.TEACHER:
        if subject_or_grade not in TEACHER_SUBJECTS:
            raise ValueError(
                f"subject must be one of {', '.join(TEACHER_SUBJECTS)}; "
                f"got {subject_or_grade!r}"
            )
        prompt = ROLE_GENERATION_TEACHER.format(subject=subject_or_grade)
    else:
        prompt = ROLE_GENERATION_STUDENT
    response = provider.complete([ChatMessage("user", prompt)])
    attributes = _parse_profile_response(kind, response)
    missing = [name for name in fields_for(kind) if not attributes.get(name, "").strip()]
    if missing:
        raise RoleParseError(
            f"profile response missing fields: {', '.join(missing)}", missing=missing
        )
    return RoleSetting(
        agent_id=agent_id,
        kind=kind,
        attributes={name: attributes[name] for name in fields_for(kind)},
        class_assignment=subject_or_grade,
    )
