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
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence


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
