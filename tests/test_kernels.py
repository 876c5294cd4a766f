from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schoolsim import _kernels


def oracle_lcs(x: list[str], y: list[str]) -> int:
    """Brute-force subsequence enumeration; independent of the kernel."""
    if len(x) > len(y):
        x, y = y, x
    n = len(x)
    best = 0
    for mask in range(1 << n):
        if mask.bit_count() <= best:
            continue
        sub = [x[i] for i in range(n) if mask >> i & 1]
        it = iter(y)
        if all(token in it for token in sub):
            best = len(sub)
    return best


def dp_lcs(x: list[str], y: list[str]) -> int:
    """Textbook O(len(x) * len(y)) dynamic program over the full table."""
    table = [[0] * (len(y) + 1) for _ in range(len(x) + 1)]
    for i, a in enumerate(x, start=1):
        for j, b in enumerate(y, start=1):
            if a == b:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(x)][len(y)]


def test_lcs_of_sequence_with_itself_is_its_length():
    tokens = "a b c d e f".split()
    assert _kernels.lcs_length(tokens, tokens) == len(tokens)


def test_lcs_hand_value():
    assert _kernels.lcs_length("the cat sat".split(), "the dog sat".split()) == 2


def test_lcs_disjoint_vocabularies():
    assert _kernels.lcs_length(["a", "b"], ["c", "d"]) == 0


def test_lcs_empty_inputs():
    assert _kernels.lcs_length([], ["a"]) == 0
    assert _kernels.lcs_length(["a"], []) == 0
    assert _kernels.lcs_length([], []) == 0


def test_kernel_matches_bruteforce_oracle_small():
    rng = random.Random(11)
    vocab = ["a", "b", "c", "d", "e"]
    for _ in range(200):
        x = [rng.choice(vocab) for _ in range(rng.randint(0, 10))]
        y = [rng.choice(vocab) for _ in range(rng.randint(0, 10))]
        assert _kernels.lcs_length(x, y) == oracle_lcs(x, y)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from("abcde"), max_size=10),
    st.lists(st.sampled_from("abcde"), max_size=10),
)
def test_lcs_bounds_and_symmetry(x, y):
    value = _kernels.lcs_length(x, y)
    assert 0 <= value <= min(len(x), len(y))
    assert value == _kernels.lcs_length(y, x)


@pytest.mark.parametrize("alphabet", [2, 400])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lcs_matches_textbook_dp(alphabet, data):
    # Up to 200 tokens, so the bit masks span several of CPython's 30-bit
    # int digits; the 2-symbol alphabet makes long runs of set bits and so
    # long carry chains.
    vocab = [f"w{i}" for i in range(alphabet)]
    sequence = st.integers(0, 200).flatmap(
        lambda n: st.lists(st.sampled_from(vocab), min_size=n, max_size=n)
    )
    x = data.draw(sequence, label="x")
    y = data.draw(sequence, label="y")
    assert _kernels.lcs_length(x, y) == dp_lcs(x, y)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_lcs_on_strings_matches_textbook_dp(data):
    # A str is the sequence of its one-character tokens, and may be paired
    # with a list of tokens of any length.
    text = st.text(st.sampled_from("复习了分数ab,"), max_size=150)
    x = data.draw(text, label="x")
    y = data.draw(st.one_of(text, st.lists(st.sampled_from(["复", "习", "a", "ab"]))), label="y")
    assert _kernels.lcs_length(x, y) == dp_lcs(list(x), list(y))
    assert _kernels.lcs_length(y, x) == dp_lcs(list(y), list(x))


def test_lcs_carry_across_digit_boundaries():
    run = ["a"] * 150
    assert _kernels.lcs_length(run, run) == 150
    assert _kernels.lcs_length(run + ["b"], ["b"] + run) == 150
    assert _kernels.lcs_length(["a", "b"] * 100, ["b", "a"] * 100) == 199


# Characters for the batched kernel: CJK, ASCII, full-width punctuation,
# U+0000, a lone surrogate and astral characters (above U+FFFF).
_BATCH_ALPHABET = "复习了分数ab。\0\ud800\U0001F600\U00020000\U0010FFFF"
# Segment edges (7 real bits and a spare fill one byte) and 64-bit edges.
_EDGE_LENGTHS = [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65]


@st.composite
def _batches(draw):
    def text(n):
        return draw(st.text(st.sampled_from(_BATCH_ALPHABET), min_size=n, max_size=n))

    def length():
        return draw(st.one_of(st.sampled_from(_EDGE_LENGTHS), st.integers(0, 90)))

    pairs = []
    for _ in range(draw(st.integers(0, 24))):
        x, y = text(length()), text(length())
        kind = draw(st.sampled_from(["str/str", "str/str", "str/list", "list/str", "list/list"]))
        if kind in ("list/str", "list/list"):
            x = list(x)
        if kind in ("str/list", "list/list"):
            y = list(y)
        pairs.append((x, y))
    if pairs and draw(st.booleans()):
        pairs.append(pairs[draw(st.integers(0, len(pairs) - 1))])
    return pairs


@settings(deadline=None)
@given(_batches(), st.sampled_from([1, 2, 8, 9, 24, 2048]))
def test_lcs_lengths_matches_textbook_dp_pair_by_pair(pairs, chunk_bytes):
    # Small chunk budgets put chunk edges between the drawn pairs: one pair
    # wider than the budget, a chunk filled exactly, one pair past it.
    with mock.patch.object(_kernels, "_CHUNK_BYTES", chunk_bytes):
        got = _kernels.lcs_lengths(pairs)
    assert got == [dp_lcs(list(x), list(y)) for x, y in pairs]


@pytest.mark.parametrize("count", [255, 256, 257])
def test_lcs_lengths_at_the_default_chunk_edge(count):
    # A y of 63 characters takes an 8-byte segment, so 256 such pairs fill
    # one default chunk and the 257th starts another.
    rng = random.Random(count)
    pairs = [
        ("".join(rng.choices("复习了分数ab", k=rng.randint(63, 70))),
         "".join(rng.choices("复习了分数ab", k=63)))
        for _ in range(count)
    ]
    assert _kernels.lcs_lengths(pairs) == [_kernels.lcs_length(x, y) for x, y in pairs]


def test_lcs_lengths_of_a_pair_wider_than_a_chunk():
    rng = random.Random(5)
    long = "".join(rng.choices("复习了分数", k=8 * _kernels._CHUNK_BYTES + 3))
    pairs = [(long, long[::-1]), ("复习", "习复"), (long[1:], long)]
    assert _kernels.lcs_lengths(pairs) == [_kernels.lcs_length(x, y) for x, y in pairs]


@pytest.mark.parametrize("length", [7, 8, 16, 64])
def test_lcs_lengths_keeps_a_carry_out_of_its_segment(length):
    # Matching the last character of y carries out of its top bit; with y a
    # whole number of bytes long, only the spare bit keeps that carry from
    # the next pair's segment.
    text = "".join("复习了分数ab"[i % 7] for i in range(length))
    pairs = [(text, text), (text + "了", text), (text, text[::-1]), (text, text)]
    assert _kernels.lcs_lengths(pairs) == [_kernels.lcs_length(x, y) for x, y in pairs]


def test_lcs_lengths_reads_a_generator_once():
    pairs = [("复习了", "习了"), (["a", "b"], ["b"]), ("", "a")]
    assert _kernels.lcs_lengths(iter(pairs)) == [2, 1, 0]


def test_active_backend_is_pure():
    assert _kernels.active_backend() == "pure"
