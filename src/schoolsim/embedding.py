"""Deterministic text embedding and cosine similarity.

The reference embedder is a hashed bag-of-tokens: lowercase the text, split
it into alphanumeric runs, hash each token with a seeded 64-bit hash into one
of ``dim`` buckets with a sign taken from a second hash bit, then L2-normalize.
It is a pure function of (text, dim, seed), which is what replayable retrieval
tests need.
"""

from __future__ import annotations

import hashlib
import math
import re
from typing import Protocol

import numpy as np

from .errors import DimensionMismatchError, EmptyTextError, ZeroVectorError

DEFAULT_DIM = 256
DEFAULT_SEED = 0

# Unicode alphanumeric runs; underscore is treated as a separator.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# On lowered ASCII text the runs are [a-z0-9]+, so every other ASCII
# character can become a space and str.split() finds the same runs.
_ASCII_SEPARATORS = str.maketrans(
    {c: " " for c in map(chr, range(128)) if not c.isalnum()}
)


def split_tokens(text: str) -> list[str]:
    """Lowercase and split into alphanumeric runs."""
    if text.isascii():
        return text.lower().translate(_ASCII_SEPARATORS).split()
    return _TOKEN_RE.findall(text.lower())


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two equal-dimension, non-zero vectors.

    Returns a float clipped to [-1, 1]; symmetric in its arguments.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dims differ: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ZeroVectorError("cosine undefined for an all-zero vector")
    value = float(np.dot(a, b)) / (na * nb)
    return max(-1.0, min(1.0, value))


class Embedder(Protocol):
    """Anything that turns text into a fixed-dimension vector."""

    dim: int

    def embed(self, text: str) -> np.ndarray: ...


class HashedBagEmbedder:
    """Deterministic offline embedder (hashed bag-of-tokens, unit L2 norm)."""

    def __init__(self, dim: int = DEFAULT_DIM, seed: int = DEFAULT_SEED):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.seed = seed
        self._key = seed.to_bytes(8, "little", signed=True)
        self._codes: dict[str, tuple[int, float]] = {}

    def _token_code(self, token: str) -> tuple[int, float]:
        """(bucket, sign) of a token, memoised per embedder.

        Worker threads share one embedder; two that miss on the same token
        store the same value, so the cache needs no lock.
        """
        code = self._codes.get(token)
        if code is None:
            digest = hashlib.blake2b(
                token.encode("utf-8"), digest_size=8, key=self._key
            )
            h = int.from_bytes(digest.digest(), "little")
            code = (h % self.dim, 1.0 if (h >> 63) & 1 else -1.0)
            self._codes[token] = code
        return code

    def embed(self, text: str) -> np.ndarray:
        if not text or not text.strip():
            raise EmptyTextError("cannot embed empty or whitespace-only text")
        tokens = split_tokens(text)
        if not tokens:
            # Non-empty text made purely of separators still gets a vector so
            # the unit-norm invariant holds; hash the trimmed text whole.
            tokens = [text.strip()]
        codes = [self._token_code(token) for token in tokens]
        buckets = [bucket for bucket, _ in codes]
        # Sums of +-1.0 are exact in any order, so this equals adding the
        # signs one token at a time.
        vec = np.bincount(
            buckets, weights=[sign for _, sign in codes], minlength=self.dim
        )
        # np.linalg.norm's own expression for a vector, so the same bits.
        norm = math.sqrt(vec.dot(vec))
        if norm == 0.0:
            # Signed counts of repeated tokens can cancel; fall back to the
            # unsigned bag so the output is never the zero vector.
            vec = np.bincount(buckets, minlength=self.dim).astype(np.float64)
            norm = math.sqrt(vec.dot(vec))
        return vec / norm
