from __future__ import annotations

import json

import pytest

from schoolsim.agent import RoleKind
from schoolsim.dataset import (
    load_standard_group,
    parse_action_footer,
    summarize,
)
from schoolsim.environment import ActionCategory
from schoolsim.errors import AlternationError, MissingSystemError, SchemaError

SYSTEM = "Agent ID: s01\nRole: Student\nFull Name: Li Xiaoming"


def write_transcript(path, messages) -> None:
    path.write_text(json.dumps(messages, ensure_ascii=False), encoding="utf-8")


def valid_messages():
    return [
        {"role": "system", "content": SYSTEM},
        {
            "role": "user",
            "content": "Day 1, Period 1 (8:00-8:40) | Location: Class 1 Classroom\nbody",
        },
        {"role": "assistant", "content": "answer one\nACTION: Classroom Learning"},
        {
            "role": "user",
            "content": "Day 1, Period 2 (9:00-9:40) | Location: Class 1 Classroom\nbody",
        },
        {"role": "assistant", "content": "answer two\nACTION: Classroom Learning"},
    ]


def test_wellformed_transcript_yields_two_pairs(tmp_path):
    write_transcript(tmp_path / "s01.json", valid_messages())
    dataset = load_standard_group(tmp_path)
    assert dataset.qa_count == 2
    assert dataset.kinds["s01"] is RoleKind.STUDENT
    assert dataset.steps[0].reference.startswith("answer one")
    assert dataset.steps[0].location == "Class 1 Classroom"


def test_transcript_must_start_with_system(tmp_path):
    write_transcript(tmp_path / "s01.json", valid_messages()[1:])
    with pytest.raises(MissingSystemError):
        load_standard_group(tmp_path)


def test_alternation_violation_reports_position(tmp_path):
    messages = valid_messages()
    messages.insert(2, {"role": "user", "content": "Day 1, Period 1\nextra user"})
    write_transcript(tmp_path / "s01.json", messages)
    with pytest.raises(AlternationError) as excinfo:
        load_standard_group(tmp_path)
    assert excinfo.value.position == 2


def test_dangling_user_message_rejected(tmp_path):
    messages = valid_messages()[:-1]
    write_transcript(tmp_path / "s01.json", messages)
    with pytest.raises(AlternationError):
        load_standard_group(tmp_path)


def test_empty_content_rejected(tmp_path):
    messages = valid_messages()
    messages[2]["content"] = "   "
    write_transcript(tmp_path / "s01.json", messages)
    with pytest.raises(SchemaError) as excinfo:
        load_standard_group(tmp_path)
    assert excinfo.value.position == 2


def test_invalid_json_reports_file(tmp_path):
    (tmp_path / "s01.json").write_text("{nope", encoding="utf-8")
    with pytest.raises(SchemaError, match="invalid JSON"):
        load_standard_group(tmp_path)


def test_bad_header_rejected(tmp_path):
    messages = valid_messages()
    messages[1]["content"] = "no header here"
    write_transcript(tmp_path / "s01.json", messages)
    with pytest.raises(SchemaError, match="header"):
        load_standard_group(tmp_path)


def test_system_without_role_line_rejected(tmp_path):
    messages = valid_messages()
    messages[0]["content"] = "just a persona"
    write_transcript(tmp_path / "s01.json", messages)
    with pytest.raises(SchemaError, match="Role"):
        load_standard_group(tmp_path)


def test_bad_action_footer_rejected(tmp_path):
    messages = valid_messages()
    messages[2]["content"] = "answer\nACTION: Teaching Practice"  # student transcript
    write_transcript(tmp_path / "s01.json", messages)
    with pytest.raises(SchemaError, match="action footer"):
        load_standard_group(tmp_path)


def test_footer_parsing():
    assert parse_action_footer("text\nACTION: Guidance\nMOVE: Library") == (
        "Guidance",
        "Library",
    )
    assert parse_action_footer("no footer at all") == (None, None)
    assert parse_action_footer("text\nMOVE: Cafeteria") == (None, "Cafeteria")


def test_global_order_is_stable_by_time_then_agent(mini_dataset):
    ordinals = [step.time.ordinal for step in mini_dataset.steps]
    assert ordinals == sorted(ordinals)
    for a, b in zip(mini_dataset.steps, mini_dataset.steps[1:]):
        if a.time.ordinal == b.time.ordinal:
            assert a.agent_id <= b.agent_id


def test_fixture_counts(full_dataset):
    stats = summarize(full_dataset)
    assert stats.agent_counts[RoleKind.TEACHER] == 10
    assert stats.agent_counts[RoleKind.STUDENT] == 40
    assert stats.qa_count == 50 * 5 * 5
    assert stats.unlabeled == 0
    assert sum(stats.category_counts.values()) == stats.qa_count
    assert ActionCategory.TEACHING_PRACTICE in stats.category_counts


def test_empty_dataset_summary(tmp_path):
    dataset = load_standard_group(tmp_path)
    stats = summarize(dataset)
    assert stats.qa_count == 0
    assert sum(stats.agent_counts.values()) == 0
