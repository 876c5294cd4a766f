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
        self._codes: dict[str, int] = {}

    def _token_code(self, token: str) -> int:
        """Hash a token to its signed code and memoise it: its bucket when its
        sign is +1, ``dim + bucket`` when it is -1.

        Worker threads share one embedder; two that miss on the same token
        store the same value, so the cache needs no lock.
        """
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=self._key)
        h = int.from_bytes(digest.digest(), "little")
        code = h % self.dim if (h >> 63) & 1 else self.dim + h % self.dim
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
        codes = self._codes
        try:
            token_codes = [codes[token] for token in tokens]
        except KeyError:
            token_codes = [
                codes[token] if token in codes else self._token_code(token)
                for token in tokens
            ]
        # Per-code token counts; the signed count of a bucket is its +1
        # count minus its -1 count, all in exact integers.
        counts = np.bincount(token_codes, minlength=2 * self.dim)
        vec = counts[: self.dim] - counts[self.dim :]
        square = int(vec.dot(vec))
        if not square:
            # Signed counts of repeated tokens can cancel; fall back to the
            # unsigned bag so the output is never the zero vector.
            vec = counts[: self.dim] + counts[self.dim :]
            square = int(vec.dot(vec))
        # The integer square is exact, so its root is np.linalg.norm of the
        # float vector bit for bit, and so is the quotient.
        return vec / math.sqrt(square)
