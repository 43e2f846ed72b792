"""A fixed piece of interpreter work that tells how fast this CPU runs now.

It imports nothing but ``time``, so a fresh interpreter can time it before
importing anything that set-up time is meant to count.
"""

import time

REFERENCE_REPEATS = 3


def _reference_loop() -> int:
    """Fixed interpreter work: dict updates, tuples, string building."""
    table: dict = {}
    parts = []
    for i in range(6000):
        key = (i % 61, "k")
        table[key] = table.get(key, 0) + i
        parts.append(f"{i}:{len(parts)}")
    return len("".join(parts)) + len(table)


def reference_seconds() -> float:
    """Median time of the reference loop: how fast this CPU runs Python now.

    The machine's speed drifts by tens of percent over seconds when other
    tenants load it; the benchmark divides each phase's time by this
    reading, taken next to the phase, to report the program's own speed.
    """
    samples = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        _reference_loop()
        samples.append(time.perf_counter() - start)
    return sorted(samples)[REFERENCE_REPEATS // 2]
