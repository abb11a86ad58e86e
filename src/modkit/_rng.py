"""Seeded, platform-independent randomness for sampling and splitting.

A splitmix64 stream drives Fisher-Yates shuffles over lexicographically
sorted ids, so every sampling decision in the toolkit is reproducible
byte-for-byte from a single 64-bit seed, independent of Python hash
randomization or numpy version.
"""

from __future__ import annotations

from typing import Iterable, Iterator, TypeVar

_MASK64 = (1 << 64) - 1

T = TypeVar("T")


def _splitmix64(seed: int) -> Iterator[int]:
    """The splitmix64 stream (Steele, Lea & Flood mixing constants), with
    its state in a local: drawing from it makes no method call."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def shuffled(items: Iterable[T], seed: int) -> list[T]:
    """Fisher-Yates shuffle of ``sorted(items)`` driven by the seeded
    splitmix64 stream: step i swaps in the element at ``draw % (i + 1)``.
    The modulo bias of a step is below ``(i + 1) / 2**64``, and deterministic.

    Items are sorted first so the result depends only on the set of items
    and the seed, never on input order.
    """
    out = sorted(items)  # type: ignore[type-var]
    for i, draw in zip(range(len(out) - 1, 0, -1), _splitmix64(seed)):
        j = draw % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out

