from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schoolsim.agent import (
    RoleKind,
    RoleSetting,
    STUDENT_FIELDS,
    TEACHER_FIELDS,
    WorkingMemory,
    apply_role_update,
    assemble_prompt,
    generate_role,
    load_role,
    parse_role_text,
    role_update_request,
    save_role,
    serialize_role,
    system_message,
)
from schoolsim.errors import EmptyTextError, RoleParseError
from schoolsim.llm import ScriptedProvider
from schoolsim.prompts import ROLE_GENERATION_STUDENT, ROLE_GENERATION_TEACHER


def make_teacher(agent_id: str = "t01") -> RoleSetting:
    attributes = {name: f"value for {name.lower()}" for name in TEACHER_FIELDS}
    attributes["Full Name"] = "Wang Lihua"
    attributes["Gender"] = "female"
    attributes["Age"] = "41"
    return RoleSetting(
        agent_id=agent_id,
        kind=RoleKind.TEACHER,
        attributes=attributes,
        class_assignment="Math",
    )


def test_working_memory_sliding_window():
    wm = WorkingMemory(window=2)
    wm.append_turn("u1", "a1")
    wm.append_turn("u2", "a2")
    wm.append_turn("u3", "a3")
    assert [m.content for m in wm.messages] == ["u2", "a2", "u3", "a3"]


def test_working_memory_rejects_empty():
    wm = WorkingMemory()
    with pytest.raises(EmptyTextError):
        wm.append_turn("", "a")
    with pytest.raises(EmptyTextError):
        wm.append_turn("u", "  ")


def test_working_memory_preserves_order():
    wm = WorkingMemory()
    wm.append_turn("A", "ra")
    wm.append_turn("B", "rb")
    assert [(m.role, m.content) for m in wm.messages] == [
        ("user", "A"), ("assistant", "ra"), ("user", "B"), ("assistant", "rb")
    ]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.just("u"), st.just("a")), max_size=30), st.integers(1, 8))
def test_working_memory_never_exceeds_window(turns, window):
    wm = WorkingMemory(window=window)
    for u, a in turns:
        wm.append_turn(u, a)
    assert len(wm.messages) <= 2 * window


def test_prompt_with_empty_history_and_no_memories():
    messages = assemble_prompt(
        system_message(make_teacher()), WorkingMemory(), "Day 1, Period 1 | text"
    )
    assert len(messages) == 2
    assert [m.role for m in messages] == ["system", "user"]
    assert "Relevant memories" not in messages[-1].content


def test_prompt_counts_with_history():
    wm = WorkingMemory()
    for i in range(3):
        wm.append_turn(f"u{i}", f"a{i}")
    messages = assemble_prompt(system_message(make_teacher()), wm, "situation text")
    assert len(messages) == 8
    roles = [m.role for m in messages]
    assert roles[0] == "system"
    assert roles[1:] == ["user", "assistant"] * 3 + ["user"]


class _FakeRecord:
    def __init__(self, text: str):
        self.text = text


def test_prompt_memory_block_preserves_retrieval_order():
    retrieved = [(_FakeRecord("short-term fact"), 0.9), (_FakeRecord("long-term fact"), 0.8)]
    messages = assemble_prompt(
        system_message(make_teacher()), WorkingMemory(), "situation", retrieved
    )
    final = messages[-1].content
    assert final.startswith("situation")
    block = final.split("Relevant memories:\n")[1]
    assert block.splitlines() == ["- short-term fact", "- long-term fact"]


def test_role_serialization_roundtrip():
    role = make_teacher()
    role.mutable_aspects.append("now pairs stronger students with strugglers")
    parsed = parse_role_text(serialize_role(role))
    assert parsed == role


def test_role_file_roundtrip(tmp_path):
    role = make_teacher()
    path = tmp_path / "t01.txt"
    save_role(role, path)
    assert load_role(path) == role


def test_role_text_field_names_are_exact():
    text = serialize_role(make_teacher())
    for name in TEACHER_FIELDS:
        assert f"{name}:" in text


def test_update_role_unchanged_marker_case_insensitive():
    role = make_teacher()
    provider = ScriptedProvider({}, fallback="The role setting REMAINS LARGELY UNCHANGED.")
    request = role_update_request(role, "steady day")
    changed = apply_role_update(role, provider.complete(request))
    assert changed is False
    assert role.mutable_aspects == []


def test_update_role_appends_aspect():
    role = make_teacher()
    provider = ScriptedProvider({}, fallback="Became more patient with slower groups.")
    request = role_update_request(role, "reflection")
    changed = apply_role_update(role, provider.complete(request))
    assert changed is True
    assert role.mutable_aspects == ["Became more patient with slower groups."]


def test_update_role_rejects_identity_changes():
    role = make_teacher()
    provider = ScriptedProvider(
        {}, fallback="Full Name: Someone Else\nMore open to group work."
    )
    request = role_update_request(role, "reflection")
    changed = apply_role_update(role, provider.complete(request))
    assert changed is True
    assert role.attributes["Full Name"] == "Wang Lihua"
    assert role.mutable_aspects == ["More open to group work."]


def test_update_role_requires_summary():
    with pytest.raises(EmptyTextError):
        role_update_request(make_teacher(), "   ")


def _profile_text(fields) -> str:
    return "\n".join(f"- {name}: sample {name.lower()}" for name in fields)


def test_generate_teacher_role_happy_path():
    provider = ScriptedProvider(
        {ROLE_GENERATION_TEACHER.format(subject="Math"): _profile_text(TEACHER_FIELDS)}
    )
    role = generate_role(provider, RoleKind.TEACHER, "Math", agent_id="t09")
    assert role.kind is RoleKind.TEACHER
    assert set(role.attributes) == set(TEACHER_FIELDS)
    assert role.class_assignment == "Math"


def test_generate_student_role_includes_social_tendencies():
    provider = ScriptedProvider(
        {ROLE_GENERATION_STUDENT: _profile_text(STUDENT_FIELDS)}
    )
    role = generate_role(provider, RoleKind.STUDENT, "Class 2", agent_id="s41")
    assert "Social Tendencies" in role.attributes


def test_generate_role_missing_field_is_named():
    partial = "\n".join(
        f"- {name}: x" for name in TEACHER_FIELDS if name != "Weaknesses as a Teacher"
    )
    provider = ScriptedProvider({}, fallback=partial)
    with pytest.raises(RoleParseError) as excinfo:
        generate_role(provider, RoleKind.TEACHER, "Math")
    assert "Weaknesses as a Teacher" in str(excinfo.value)


def test_generate_role_rejects_unknown_subject():
    provider = ScriptedProvider({}, fallback="anything")
    with pytest.raises(ValueError, match="Biology"):
        generate_role(provider, RoleKind.TEACHER, "Biology")


def test_identity_fields_fixed_across_update_sequences():
    role = make_teacher()
    responses = [
        "Adopted a new questioning routine.",
        "the role setting remains largely unchanged",
        "Age: 99\nKeeps a tighter pace in labs.",
    ]
    for text in responses:
        request = role_update_request(role, "day summary")
        apply_role_update(role, ScriptedProvider({}, fallback=text).complete(request))
    assert role.attributes["Full Name"] == "Wang Lihua"
    assert role.attributes["Gender"] == "female"
    assert role.attributes["Age"] == "41"
    assert role.kind is RoleKind.TEACHER
