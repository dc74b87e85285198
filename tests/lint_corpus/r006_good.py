# repro-lint-corpus: src/repro/core/r006_example_good.py
# expect: none
"""Known-good: injected seed, monotonic timing only."""

import random
import time


def shuffled(blocks, seed):
    rng = random.Random(seed)
    rng.shuffle(blocks)
    return blocks


def timed(work):
    start = time.perf_counter()
    work()
    return time.perf_counter() - start
