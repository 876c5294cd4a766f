from __future__ import annotations

import csv
import io
import json
import re
import sys
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_roles_dir
from schoolsim.config import config_by_id
from schoolsim import _kernels, lcs_length
from schoolsim.errors import LengthMismatchError
from schoolsim.evaluation import (
    CheckpointReport,
    RougeScore,
    _strip_punctuation,
    _tokens,
    checkpoints,
    evaluate_run,
    export_human_eval_sample,
    recover_tallies,
    render_matrix_report,
    rouge_l,
    save_human_eval,
    score_responses,
    tokenize,
)
from schoolsim.fixtures import MemoryGatedProvider
from schoolsim.simulation import ReplayBundle, run_simulation


def test_tokenize_lowercases_and_strips_edge_punctuation():
    assert tokenize('He said: "Hello, world!"') == ["he", "said", "hello", "world"]


def test_tokenize_keeps_interior_punctuation():
    assert tokenize("peer learning/interaction") == ["peer", "learning/interaction"]


def test_tokenize_splits_cjk_per_character():
    assert tokenize("复习了分数 again") == ["复", "习", "了", "分", "数", "again"]


def test_tokenize_cjk_range_edges():
    # One whitespace chunk; each CJK range's first and last code point is
    # its own token, and its neighbours outside the range stay in the
    # surrounding non-CJK run. NFC maps the compatibility ideograph U+F900
    # to U+8C48, which is itself CJK.
    text = (
        "(A\u33ff\u3400b\u4dbf\u4dc0,c\u4dff\u4e00D"
        "\u9fff\ua000e\uf8ff\uf900f\ufaff\ufb00!) 分x"
    )
    assert tokenize(text) == [
        "a\u33ff",
        "\u3400",
        "b",
        "\u4dbf",
        "\u4dc0,c\u4dff",
        "\u4e00",
        "d",
        "\u9fff",
        "\ua000e\uf8ff",
        "\u8c48",
        "f",
        "\ufaff",
        "\ufb00",
        "分",
        "x",
    ]


def _strip_punctuation_slow(token: str) -> str:
    """The strip rule one edge character at a time, with no fast path."""
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def test_strip_punctuation_every_code_point():
    chars = map(chr, range(sys.maxunicode + 1))
    assert [
        hex(ord(char))
        for char in chars
        if _strip_punctuation(char) != _strip_punctuation_slow(char)
    ] == []


@settings(max_examples=300, deadline=None)
@given(
    st.text(
        st.one_of(
            st.sampled_from("a9Zé一١.,!?'\"()。「—-_"),
            st.characters(),
        ),
        max_size=8,
    )
)
def test_strip_punctuation_matches_the_slow_loop(token):
    assert _strip_punctuation(token) == _strip_punctuation_slow(token)


_CJK_RUNS = "[\u3400-\u4dbf\u4e00-\u9fff\uf900-\ufaff]"


def _tokenize_slow(text: str) -> list[str]:
    """The module docstring's rule step by step, with no ASCII fast path."""
    tokens: list[str] = []
    for chunk in unicodedata.normalize("NFC", text).lower().split():
        chunk = _strip_punctuation_slow(chunk)
        if chunk:
            tokens.extend(re.findall(f"{_CJK_RUNS}|(?:(?!{_CJK_RUNS}).)+", chunk))
    return tokens


def test_tokenize_every_ascii_code_point():
    # Includes the separators str.split() treats as whitespace (\x1c-\x1f),
    # the underscore (P*) and the S* symbols $+<=>^`|~, which are kept.
    for char in map(chr, range(128)):
        for text in (char, f"{char}a{char}", f"A{char}b", f"{char}{char}x y{char} {char}z"):
            assert tokenize(text) == _tokenize_slow(text), repr(text)


@settings(max_examples=300, deadline=None)
@given(st.text(st.characters(max_codepoint=127), max_size=40))
def test_tokenize_matches_the_slow_rule_on_ascii_text(text):
    assert tokenize(text) == _tokenize_slow(text)


def test_tokenize_non_ascii_text_matches_the_slow_rule():
    text = "«Bonjour», dit-il: 复习了 été… ok"
    assert tokenize(text) == _tokenize_slow(text)


# Pieces of text around the tokenizer's edges: each CJK range's first and
# last code point with their outside neighbours, full-width and ASCII
# punctuation, Latin letters, digits, whitespace, decomposed pairs that NFC
# composes, and characters whose NFC or lowercase form differs in length.
_EDGE_PIECES = [
    *"\u33ff\u3400\u3401\u4dbe\u4dbf\u4dc0\u4dff\u4e00\u4e01\u9ffe\u9fff\ua000",
    *"\uf8ff\uf900\uf901\ufafe\ufaff\ufb00复习了分数",
    *"。，、「」！？（）：；…—.,!?'\"()-_:;",
    *"aZé09١ \t\n\u3000",
    "e\u0301",
    "A\u030a",
    "\u0130",
    "\u212a",
]
_edge_texts = st.lists(st.sampled_from(_EDGE_PIECES), max_size=30).map("".join)


@settings(max_examples=500, deadline=None)
@given(_edge_texts)
def test_scoring_tokens_are_the_tokenizer_tokens(text):
    tokens = _tokens(text)
    assert list(tokens) == tokenize(text) == _tokenize_slow(text)
    one_character = all(len(token) == 1 for token in tokenize(text))
    assert isinstance(tokens, str) == (not text.isascii() and one_character)


def _rouge_from_token_lists(candidate: str, reference: str, beta: float = 1.0) -> RougeScore:
    """rouge_l's formula on the tokenize lists."""
    cand, ref = tokenize(candidate), tokenize(reference)
    if not cand and not ref:
        return RougeScore(lcs_len=0, precision=1.0, recall=1.0, f=1.0, beta=beta)
    if not cand or not ref:
        return RougeScore(lcs_len=0, precision=0.0, recall=0.0, f=0.0, beta=beta)
    lcs = _kernels.lcs_length(cand, ref)
    precision, recall = lcs / len(cand), lcs / len(ref)
    f = 0.0
    if precision or recall:
        f = (1 + beta**2) * precision * recall / (recall + beta**2 * precision)
    return RougeScore(lcs_len=lcs, precision=precision, recall=recall, f=f, beta=beta)


@pytest.mark.parametrize(
    "candidate, reference, kinds",
    [
        ("复习了分数。", "「分数」复习", (str, str)),
        ("复习了 fractions", "复习了分数", (list, str)),
        ("复习了分数", "复习 the fractions", (str, list)),
        ("we reviewed fractions", "fractions, reviewed", (list, list)),
        # One-letter words are one-character tokens too.
        ("复习了 a b", "a 复习", (str, str)),
    ],
)
def test_rouge_matches_the_token_list_reference_on_each_form(candidate, reference, kinds):
    assert (type(_tokens(candidate)), type(_tokens(reference))) == kinds
    assert rouge_l(candidate, reference) == _rouge_from_token_lists(candidate, reference)


@settings(max_examples=300, deadline=None)
@given(_edge_texts, _edge_texts, st.sampled_from([0.5, 1.0, 2.0]))
def test_rouge_matches_the_token_list_reference(candidate, reference, beta):
    got = rouge_l(candidate, reference, beta=beta)
    assert got == _rouge_from_token_lists(candidate, reference, beta=beta)


def _report_from_rouge_loop(responses, references, config_id, beta):
    """score_responses's report built from one rouge_l call per pair."""
    scores = [rouge_l(c, r, beta=beta).f for c, r in zip(responses, references)]
    mean_f, counts = [], []
    for window in checkpoints(len(scores)):
        part = scores[window.start : window.stop]
        counts.append(len(part))
        mean_f.append(sum(part) / len(part) if part else 0.0)
    return CheckpointReport(
        config_id=config_id,
        interval_percent=5,
        percents=[5 * (j + 1) for j in range(20)],
        mean_f=mean_f,
        counts=counts,
        beta=beta,
    )


@settings(deadline=None)
@given(
    st.sampled_from(["chinese", "ascii", "mixed"]),
    st.sampled_from([1.0, 2.0]),
    st.data(),
)
def test_score_responses_equals_a_rouge_l_loop(kind, beta, data):
    pieces = {
        "chinese": [*"复习了分数我们今天。，！", "\U00020000"],
        "ascii": ["we ", "reviewed ", "fractions", ", ", "a ", "b"],
        "mixed": _EDGE_PIECES,
    }[kind]
    text = st.lists(st.sampled_from(pieces), max_size=60).map("".join)
    n = data.draw(st.integers(1, 45), label="pairs")
    responses = data.draw(st.lists(text, min_size=n, max_size=n), label="responses")
    references = data.draw(st.lists(text, min_size=n, max_size=n), label="references")
    got = score_responses(responses, references, config_id=4, beta=beta)
    assert got == _report_from_rouge_loop(responses, references, 4, beta)


def test_rouge_hand_value():
    score = rouge_l("the cat sat", "the dog sat")
    assert score.lcs_len == 2
    assert score.precision == pytest.approx(2 / 3)
    assert score.recall == pytest.approx(2 / 3)
    assert score.f == pytest.approx(2 / 3, abs=1e-9)


def test_rouge_identical_and_disjoint():
    assert rouge_l("same words here", "same words here").f == 1.0
    assert rouge_l("alpha beta", "gamma delta").f == 0.0


def test_rouge_degenerate_conventions():
    assert rouge_l("", "").f == 1.0
    assert rouge_l("something", "").f == 0.0
    assert rouge_l("", "something").f == 0.0
    assert rouge_l("!!!", "???").f == 1.0  # both tokenize to nothing


def test_rouge_beta_validation():
    for beta in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            rouge_l("a", "a", beta=beta)
        with pytest.raises(ValueError):
            score_responses(["a"], ["a"], config_id=1, beta=beta)


def test_rouge_beta_weighting_favors_recall():
    # candidate covers half the reference perfectly
    heavy = rouge_l("a b", "a b c d", beta=2.0)
    balanced = rouge_l("a b", "a b c d", beta=1.0)
    assert heavy.f < balanced.f  # recall is low, high beta punishes it


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from("abcde"), max_size=12),
    st.lists(st.sampled_from("abcde"), max_size=12),
)
def test_rouge_symmetry_and_bounds_at_beta_one(xs, ys):
    a, b = " ".join(xs), " ".join(ys)
    fwd = rouge_l(a, b)
    rev = rouge_l(b, a)
    assert 0.0 <= fwd.f <= 1.0
    assert fwd.f == pytest.approx(rev.f, abs=1e-12)
    if xs:
        assert rouge_l(a, a).f == 1.0


def test_checkpoints_even_split():
    ranges = checkpoints(100, 5)
    assert len(ranges) == 20
    assert all(len(r) == 5 for r in ranges)


def test_checkpoints_uneven_split_floor_rule():
    ranges = checkpoints(103, 5)
    assert len(ranges) == 20
    assert len(ranges[0]) == 5
    assert set(map(len, ranges)) == {5, 6}
    assert sum(map(len, ranges)) == 103


def test_checkpoints_fifty_per_bucket():
    ranges = checkpoints(500, 10)
    assert len(ranges) == 10
    assert all(len(r) == 50 for r in ranges)


def test_checkpoints_partition_property():
    for n in (1, 7, 100, 103, 500, 12345):
        for interval in (5, 10):
            ranges = checkpoints(n, interval)
            flat = [i for r in ranges for i in r]
            assert flat == list(range(n))


def test_checkpoints_validation():
    with pytest.raises(ValueError):
        checkpoints(0, 5)
    with pytest.raises(ValueError):
        checkpoints(10, 7)


def test_replay_log_scores_one_everywhere(mini_dataset, mini_fixture):
    roles = load_roles_dir(mini_fixture.roles_dir)
    log = run_simulation(
        mini_dataset, roles, ReplayBundle.from_dataset(mini_dataset), config_by_id(1)
    )
    report = evaluate_run(log, mini_dataset)
    assert report.mean_f == [1.0] * 20
    assert sum(report.counts) == mini_dataset.qa_count


def test_all_empty_responses_score_zero(mini_dataset):
    report = score_responses(
        ["..." for _ in range(mini_dataset.qa_count)],
        mini_dataset.reference_answers(),
        config_id=0,
    )
    assert report.mean_f == [0.0] * 20


def test_length_mismatch_rejected(mini_dataset):
    with pytest.raises(LengthMismatchError):
        score_responses(["a"], mini_dataset.reference_answers(), config_id=1)


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def test_render_csv_roundtrip():
    report = score_responses(["a b c", "a x c"], ["a b c", "a b c"], config_id=3)
    header, *rows = _csv_rows(render_matrix_report([report], format="csv"))
    assert header == ["config_id"] + [f"{p}%" for p in report.percents]
    assert len(rows) == 1
    assert rows[0][0] == "3"
    # Exact float round-trip: every cell parses back to the same bits.
    assert [float(cell) for cell in rows[0][1:]] == report.mean_f
    assert any(0 < value < 1 for value in report.mean_f)


def test_render_markdown_column_count():
    report = score_responses(["a"], ["a"], config_id=1)
    lines = render_matrix_report([report], format="markdown").splitlines()
    assert lines[0].count("|") == 22  # 21 columns -> 22 pipes
    assert len(lines) == 3


def test_render_matrix_report_includes_failure_notes():
    report = score_responses(["a"], ["a"], config_id=1)
    text = render_matrix_report([report], format="csv", failures={5: "boom"})
    assert "# config 5 failed: boom" in text
    rows = [row for row in _csv_rows(text) if not row[0].startswith("#")]
    assert [row[0] for row in rows[1:]] == ["1"]


def test_render_unknown_format():
    report = score_responses(["a"], ["a"], config_id=1)
    with pytest.raises(ValueError):
        render_matrix_report([report], format="xml")


def _groups_for(dataset, answers_value="fixed answer"):
    n = dataset.qa_count
    return {
        0: dataset.reference_answers(),
        1: [f"{answers_value} one"] * n,
        4: [f"{answers_value} four"] * n,
        9: [f"{answers_value} nine"] * n,
    }


def test_export_block_structure(mini_dataset):
    export = export_human_eval_sample(_groups_for(mini_dataset), mini_dataset, seed=3)
    agents = len(mini_dataset.agent_ids)
    assert len(export.blocks) == 10 * agents
    for block in export.blocks:
        assert len(block["answers"]) == 4
    percents = sorted({b["checkpoint_percent"] for b in export.blocks})
    assert percents == [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]


def test_export_same_seed_identical_shuffle(mini_dataset):
    groups = _groups_for(mini_dataset)
    a = export_human_eval_sample(groups, mini_dataset, seed=5)
    b = export_human_eval_sample(groups, mini_dataset, seed=5)
    assert a.blocks == b.blocks
    assert a.key == b.key
    c = export_human_eval_sample(groups, mini_dataset, seed=6)
    assert c.key != a.key


def test_export_length_mismatch(mini_dataset):
    groups = _groups_for(mini_dataset)
    groups[1] = groups[1][:-1]
    with pytest.raises(LengthMismatchError):
        export_human_eval_sample(groups, mini_dataset, seed=0)


def test_key_roundtrip_recovers_tallies(mini_dataset, tmp_path):
    export = export_human_eval_sample(_groups_for(mini_dataset), mini_dataset, seed=1)
    out = tmp_path / "blocks.jsonl"
    key_path = tmp_path / "key.json"
    save_human_eval(export, out, key_path)
    key = json.loads(key_path.read_text())

    # Every voter picks the answer produced by group 4.
    votes = {
        block_id: order.index(4) for block_id, order in key["blocks"].items()
    }
    tallies = recover_tallies(key, votes)
    assert tallies == {0: 0, 1: 0, 4: len(export.blocks), 9: 0}


def test_tally_rejects_unknown_block(mini_dataset):
    export = export_human_eval_sample(_groups_for(mini_dataset), mini_dataset, seed=1)
    with pytest.raises(KeyError):
        recover_tallies(export.key, {"not-a-block": 0})
    block_id = export.blocks[0]["block_id"]
    with pytest.raises(ValueError):
        recover_tallies(export.key, {block_id: 99})


def test_blinding_blocks_carry_no_group_ids(mini_dataset):
    export = export_human_eval_sample(_groups_for(mini_dataset), mini_dataset, seed=2)
    for block in export.blocks:
        assert "group" not in json.dumps(sorted(block.keys()))


def test_lcs_length_public_wrapper():
    assert lcs_length(["a", "b", "c"], ["a", "c"]) == 2
