"""Hot-loop kernel: longest common subsequence length, bit-parallel.

The LCS of ``x`` and ``y`` is computed with the bit-vector recurrence of
Allison & Dix (1986) in the form given by Hyyrö (2004), "Bit-parallel
LCS-length computation revisited". A Python int ``v`` holds one bit per
token of the shorter sequence ``y``; a bit is cleared once that position
has been matched by the prefix of ``x`` read so far. For each token ``t``
of ``x``, with ``M[t]`` the positions where ``t`` occurs in ``y``::

    u = v & M[t]
    v = ((v + u) | (v - u)) & full

and the LCS length is the number of cleared bits. Each step is a few
operations on a len(y)-bit int, which CPython stores in 30-bit digits, so
the whole call costs O(len(x) * len(y) / 30) digit operations against
O(len(x) * len(y)) for the textbook dynamic program. The result is the
same exact integer.

A token is any hashable item of a sequence, so a ``str`` is read as the
sequence of its characters: the scorer passes a text whose tokens are all
one character as one ``str``, and may pair it with a list of tokens.

``lcs_lengths`` scores many pairs at once. Pairs whose two sides are both
non-empty ``str`` are sorted by length and cut into chunks of about
``_CHUNK_BYTES`` bytes of bit-vector. Each pair of a chunk owns a
byte-aligned segment of one Python int, with at least one spare bit above
its ``len(y)`` real bits, and the recurrence runs once per token of the
chunk's longest ``x`` rather than once per token per pair. Segments do not
disturb each other: ``u`` is a subset of ``v``, so ``v - u`` borrows
nothing, and a carry out of a segment's real bits lands in its spare bit,
which ``& full`` clears. numpy builds each step's mask from code points;
the big-int arithmetic stays in Python ints. Every other pair (a list of
tokens on either side, or an empty side) goes through ``lcs_length``.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Sequence

import numpy as np

# Bytes of bit-vector per chunk of all-character pairs. Larger chunks cut
# the per-step interpreter cost; smaller ones hold fewer temporaries.
_CHUNK_BYTES = 2048
# Steps whose masks are gathered into bytes at a time, so a chunk holds
# _GATHER_STEPS of its rows rather than one per step of its longest x.
_GATHER_STEPS = 32


def active_backend() -> str:
    """Name of the LCS implementation; there is only one."""
    return "pure"


def lcs_length(x: Sequence[Hashable], y: Sequence[Hashable]) -> int:
    """Longest common subsequence length of two token sequences."""
    if len(x) < len(y):
        x, y = y, x
    if not y:
        return 0
    masks: dict[Hashable, int] = {}
    bit = 1
    for token in y:
        masks[token] = masks.get(token, 0) | bit
        bit <<= 1
    full = bit - 1
    v = full
    for token in x:
        # A token absent from y leaves v unchanged (u == 0).
        match = masks.get(token)
        if match:
            u = v & match
            v = ((v + u) | (v - u)) & full
    return len(y) - v.bit_count()


def lcs_lengths(
    pairs: Iterable[tuple[Sequence[Hashable], Sequence[Hashable]]],
) -> list[int]:
    """``lcs_length`` of each pair, in order; see the module docstring.

    ``pairs`` is read once, so it may be a generator. A pair with a list or
    an empty side is scored as it is read; the two strings of every other
    pair are held until all pairs are read.
    """
    lengths: list[int] = []
    batched: list[tuple[int, int, str, str]] = []
    for x, y in pairs:
        if len(x) < len(y):
            x, y = y, x
        if y and isinstance(x, str) and isinstance(y, str):
            batched.append((len(y), len(lengths), x, y))
            lengths.append(0)
        else:
            lengths.append(lcs_length(x, y))
    batched.sort(key=lambda item: item[0])
    for chunk in _chunks(batched):
        found = _chunk_lcs([item[2] for item in chunk], [item[3] for item in chunk])
        for item, lcs in zip(chunk, found):
            lengths[item[1]] = lcs
    return lengths


def _segment_bytes(n_bits: int) -> int:
    """Bytes of a segment holding ``n_bits`` real bits and a spare one."""
    return n_bits // 8 + 1


def _chunks(batched: list[tuple[int, int, str, str]]) -> Iterator[list[tuple[int, int, str, str]]]:
    """Runs of the pairs, sorted by len(y), whose segments fill at most
    ``_CHUNK_BYTES``; a pair wider than that is a run of its own."""
    chunk: list[tuple[int, int, str, str]] = []
    for item in batched:
        # The newest pair has the widest segment, and every pair gets that width.
        if chunk and (len(chunk) + 1) * _segment_bytes(item[0]) > _CHUNK_BYTES:
            yield chunk
            chunk = []
        chunk.append(item)
    if chunk:
        yield chunk


def _codes(texts: list[str], length: int, pad: str | None) -> np.ndarray:
    """Code points of ``texts``, one row each, padded to ``length`` with
    ``pad`` (or with each text's first character)."""
    data = "".join(text.ljust(length, pad or text[0]) for text in texts)
    # surrogatepass keeps a lone surrogate as its own code point.
    data = data.encode("utf-32-le", "surrogatepass")
    return np.frombuffer(data, dtype=np.uint32).reshape(len(texts), length)


def _number(keys: np.ndarray, lut: np.ndarray, first: int) -> tuple[np.ndarray, int]:
    """Number the distinct values of ``keys`` first+1, first+2, ... in ``lut``.

    ``lut`` is indexed by key value and starts as zeros; afterwards it maps
    each value of ``keys`` to its number and every other value to 0.
    Returns the numbers of ``keys`` and how many distinct values there were.
    """
    index = np.arange(len(keys), dtype=lut.dtype)
    # With repeated values one of the writes wins; its index marks the value.
    lut[keys] = index
    distinct = keys[np.flatnonzero(lut.take(keys) == index)]
    lut[distinct] = np.arange(first + 1, first + len(distinct) + 1, dtype=lut.dtype)
    return lut.take(keys), len(distinct)


def _chunk_lcs(xs: list[str], ys: list[str]) -> list[int]:
    """LCS lengths of the pairs (xs[i], ys[i]), where len(ys[i]) <= len(xs[i])
    and the ys are non-empty and sorted by length."""
    n = len(ys)
    width = _segment_bytes(len(ys[-1]))
    bits = width * 8
    steps = max(map(len, xs))
    # Number the characters of the ys 1, 2, ...; a character of the xs that
    # no y holds, and the padding past each x, get 0. The ys are padded with
    # their own first character: bits past len(y) are never set in v, so
    # they match nothing.
    y_codes = _codes(ys, bits, None)
    low = int(y_codes.min())
    span = int(y_codes.max()) - low + 1
    # One slot past the span stays 0, for x codes outside it.
    char_lut = np.zeros(span + 1, dtype=np.int32)
    char_y, n_chars = _number((y_codes - np.uint32(low)).ravel(), char_lut, 0)
    char_y = char_y.reshape(n, bits)
    del y_codes
    x_codes = _codes(xs, steps, "\0") - np.uint32(low)
    np.minimum(x_codes, span, out=x_codes)
    char_x = char_lut.take(x_codes)
    del x_codes, char_lut
    char_x[np.arange(steps) >= np.array([len(x) for x in xs])[:, None]] = 0
    # Number the (pair, character) keys of the ys 1, 2, ... and look the xs'
    # keys up, a group of pairs at a time, so that the key table has no more
    # entries than the ys have positions.
    stride = n_chars + 1
    group = max(1, n * bits // stride)
    offset = (np.arange(group, dtype=np.int32) * stride)[:, None]
    key_y = np.empty_like(char_y)
    key_x = np.empty_like(char_x)
    n_keys = 0
    for first in range(0, n, group):
        rows = slice(first, first + group)
        size = len(char_y[rows])
        key_lut = np.zeros(size * stride, dtype=np.int32)
        numbers, count = _number((char_y[rows] + offset[:size]).ravel(), key_lut, n_keys)
        key_y[rows] = numbers.reshape(size, bits)
        key_x[rows] = key_lut.take(char_x[rows] + offset[:size])
        n_keys += count
    del char_y, char_x, key_lut
    # masks[k] is the segment of key k: the bits of its positions in its y.
    # Each (key, position) occurs once, so adding the bits ors them.
    position = np.arange(bits)
    slots = key_y.astype(np.intp)
    del key_y
    slots *= width
    slots += position >> 3
    masks = np.zeros((n_keys + 1) * width, dtype=np.uint8)
    np.add.at(masks, slots.ravel(), np.tile((1 << (position & 7)).astype(np.uint8), n))
    del slots
    masks = masks.view(f"V{width}")
    row = n * width
    full = int.from_bytes(
        b"".join(((1 << len(y)) - 1).to_bytes(width, "little") for y in ys), "little"
    )
    v = full
    for first in range(0, steps, _GATHER_STEPS):
        # Row t of the gather is step t's mask: segment i is the mask of
        # xs[i][t] in ys[i], or zeros once xs[i] has ended.
        gathered = memoryview(masks.take(key_x[:, first : first + _GATHER_STEPS].T)).cast("B")
        for start in range(0, len(gathered), row):
            u = v & int.from_bytes(gathered[start : start + row], "little")
            v = ((v + u) | (v - u)) & full
    left = v.to_bytes(row, "little")
    return [
        len(y) - int.from_bytes(left[i * width : (i + 1) * width], "little").bit_count()
        for i, y in enumerate(ys)
    ]
