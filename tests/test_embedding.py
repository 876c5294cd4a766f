from __future__ import annotations

import hashlib
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schoolsim.embedding import HashedBagEmbedder, cosine, split_tokens
from schoolsim.errors import DimensionMismatchError, EmptyTextError, ZeroVectorError


@pytest.fixture(scope="module")
def embedder():
    return HashedBagEmbedder()


def test_embed_is_deterministic(embedder):
    a = embedder.embed("hello")
    b = embedder.embed("hello")
    assert a.tobytes() == b.tobytes()


def test_embed_rejects_empty_text(embedder):
    with pytest.raises(EmptyTextError):
        embedder.embed("")
    with pytest.raises(EmptyTextError):
        embedder.embed("   \n\t ")


def test_distinct_tokens_yield_non_identical_vectors(embedder):
    assert cosine(embedder.embed("hello"), embedder.embed("world")) < 1.0


def test_embed_has_unit_norm_and_configured_dim(embedder):
    vec = embedder.embed("the quick brown fox jumps over the lazy dog")
    assert vec.shape == (256,)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_seed_and_dim_change_the_vector():
    base = HashedBagEmbedder().embed("hello there")
    other_seed = HashedBagEmbedder(seed=1).embed("hello there")
    other_dim = HashedBagEmbedder(dim=64).embed("hello there")
    assert base.tobytes() != other_seed.tobytes()
    assert other_dim.shape == (64,)


def test_punctuation_only_text_still_embeds(embedder):
    vec = embedder.embed("!!! ???")
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_token_split_is_alphanumeric_runs():
    assert split_tokens("Hello, world_two 3rd") == ["hello", "world", "two", "3rd"]


def split_tokens_slow(text: str) -> list[str]:
    """The split rule as one Unicode regex, with no ASCII fast path."""
    return re.findall(r"[^\W_]+", text.lower())


def test_split_tokens_every_ascii_code_point():
    # Includes the separators str.split() treats as whitespace (\x1c-\x1f),
    # the underscore and the S* symbols $+<=>^`|~.
    for char in map(chr, range(128)):
        for text in (char, f"a{char}B", f"{char}x9{char}{char}Y {char}", f"_{char}_"):
            assert split_tokens(text) == split_tokens_slow(text), repr(text)


@settings(max_examples=300, deadline=None)
@given(st.text(st.characters(max_codepoint=127), max_size=40))
def test_split_tokens_matches_the_regex_on_ascii_text(text):
    assert split_tokens(text) == split_tokens_slow(text)


def test_cosine_hand_value():
    value = cosine(np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0]))
    assert value == pytest.approx(10 / 14, abs=1e-12)


def test_cosine_orthogonal_and_identity():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    v = np.array([0.3, -0.4, 1.2])
    assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)


def test_cosine_errors():
    with pytest.raises(DimensionMismatchError):
        cosine(np.ones(3), np.ones(4))
    with pytest.raises(ZeroVectorError):
        cosine(np.zeros(3), np.ones(3))


@settings(max_examples=100, deadline=None)
@given(st.text(min_size=1).filter(lambda s: s.strip()), st.text(min_size=1).filter(lambda s: s.strip()))
def test_cosine_symmetric_over_embeddings(a, b):
    embedder = HashedBagEmbedder(dim=32)
    va, vb = embedder.embed(a), embedder.embed(b)
    assert abs(cosine(va, vb) - cosine(vb, va)) < 1e-12
    assert -1.0 <= cosine(va, vb) <= 1.0


@settings(max_examples=50, deadline=None)
@given(
    st.text(min_size=1).filter(lambda s: s.strip()),
    st.floats(min_value=0.1, max_value=100.0),
)
def test_cosine_scale_invariant(text, scale):
    embedder = HashedBagEmbedder(dim=32)
    v = embedder.embed(text)
    assert abs(cosine(scale * v, v) - 1.0) < 1e-12


def token_hash(seed: int, token: str) -> int:
    key = seed.to_bytes(8, "little", signed=True)
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=key)
    return int.from_bytes(digest.digest(), "little")


def reference_embed(dim: int, seed: int, text: str) -> np.ndarray:
    """The embedder as first written: one uncached hash and add per token."""
    tokens = split_tokens(text) or [text.strip()]
    vec = np.zeros(dim, dtype=np.float64)
    for token in tokens:
        h = token_hash(seed, token)
        vec[h % dim] += 1.0 if (h >> 63) & 1 else -1.0
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        for token in tokens:
            vec[token_hash(seed, token) % dim] += 1.0
        norm = float(np.linalg.norm(vec))
    return vec / norm


_WORDS = st.sampled_from(["alpha", "beta", "gamma", "delta", "x", "7", "数学", "Übung"])


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.text(min_size=1).filter(lambda s: s.strip()),
        st.lists(_WORDS, min_size=1, max_size=30).map(" ".join),
    ),
    st.sampled_from([1, 2, 4, 32, 256]),
    st.integers(min_value=-3, max_value=3),
)
def test_embed_equals_the_uncached_loop_bit_for_bit(text, dim, seed):
    embedder = HashedBagEmbedder(dim=dim, seed=seed)
    expected = reference_embed(dim, seed, text).tobytes()
    assert embedder.embed(text).tobytes() == expected
    # A second call reads every token from the cache.
    assert embedder.embed(text).tobytes() == expected


def _cancelling_text(dim: int, seed: int) -> str:
    """Two pairs of words, each pair in one bucket with opposite signs, so
    the signed sum is 0 and the unsigned bag has two unequal buckets."""
    seen: dict[int, tuple[str, bool]] = {}
    pairs: dict[int, tuple[str, str]] = {}
    for i in range(1000):
        word = f"w{i}"
        h = token_hash(seed, word)
        bucket, positive = h % dim, bool((h >> 63) & 1)
        if bucket not in seen:
            seen[bucket] = (word, positive)
        elif seen[bucket][1] != positive and bucket not in pairs:
            pairs[bucket] = (seen[bucket][0], word)
            if len(pairs) == 2:
                (a, b), (c, d) = pairs.values()
                return f"{a} {b} {a} {b} {c} {d}"
    raise AssertionError("no two cancelling pairs among 1000 words")


@pytest.mark.parametrize("dim,seed", [(4, 0), (32, 1), (256, 0)])
def test_cancelling_signs_fall_back_to_the_unsigned_bag(dim, seed):
    text = _cancelling_text(dim, seed)
    embedder = HashedBagEmbedder(dim=dim, seed=seed)
    vec = embedder.embed(text)
    assert vec.tobytes() == reference_embed(dim, seed, text).tobytes()
    assert sorted(vec[vec != 0] ** 2 * 20) == pytest.approx([4.0, 16.0])


def test_embedders_with_other_seeds_or_dims_share_no_cache():
    text = "the quick brown fox jumps over the lazy dog the end"
    warm = HashedBagEmbedder(dim=256, seed=0)
    warm.embed(text)
    for dim, seed in [(256, 1), (64, 0), (64, 1)]:
        other = HashedBagEmbedder(dim=dim, seed=seed)
        assert other.embed(text).tobytes() == reference_embed(dim, seed, text).tobytes()
        assert other.embed(text).tobytes() != warm.embed(text).tobytes()
    assert warm.embed(text).tobytes() == reference_embed(256, 0, text).tobytes()


def test_threads_sharing_one_embedder_get_the_reference_vectors():
    texts = [f"w{i % 7} w{i % 11} shared words {i % 13} and more" for i in range(60)]
    expected = [reference_embed(64, 0, text).tobytes() for text in texts]
    embedder = HashedBagEmbedder(dim=64)
    results: list[list[bytes]] = [[] for _ in range(6)]

    def work(out: list[bytes]) -> None:
        out.extend(embedder.embed(text).tobytes() for text in texts)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in results]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(out == expected for out in results)
