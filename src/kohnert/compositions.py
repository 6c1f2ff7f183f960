"""Helpers for weak compositions (tuples of nonnegative integers)."""

from __future__ import annotations

from itertools import combinations

Composition = tuple[int, ...]


def check_composition(a) -> Composition:
    """Validate and normalise a weak composition to a tuple."""
    a = tuple(a)
    if not all(isinstance(x, int) and x >= 0 for x in a):
        raise ValueError(f"not a weak composition: {a!r}")
    return a


def strip_trailing_zeros(a) -> Composition:
    a = tuple(a)
    n = len(a)
    while n > 0 and a[n - 1] == 0:
        n -= 1
    return a[:n]


def pad(a, n: int) -> Composition:
    """Extend with trailing zeros to length n."""
    a = tuple(a)
    if len(a) > n:
        if any(a[n:]):
            raise ValueError(f"cannot shorten {a} to length {n}")
        return a[:n]
    return a + (0,) * (n - len(a))


def flatten(a) -> Composition:
    """Drop zero parts, keeping the order of the rest."""
    return tuple(x for x in a if x > 0)


def compositions_of(total: int, length: int):
    """Yield all weak compositions of ``total`` into ``length`` parts."""
    if length == 0:
        if total == 0:
            yield ()
        return
    # stars and bars over bar positions
    for bars in combinations(range(total + length - 1), length - 1):
        prev = -1
        parts = []
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(total + length - 2 - prev)
        yield tuple(parts)


def compositions_up_to(max_size: int, max_parts: int):
    """Yield all weak compositions with at most max_parts parts and size at most max_size."""
    for length in range(max_parts + 1):
        for total in range(max_size + 1):
            yield from compositions_of(total, length)
