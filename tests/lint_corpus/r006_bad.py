# repro-lint-corpus: src/repro/core/r006_example_bad.py
# expect: R006:10
# expect: R006:14
# expect: R006:18
# expect: R006:22
# expect: R006:26
# expect: R006:32
"""Known-bad: ambient entropy and wall clock in the sort core."""

from random import randint


def shuffled(blocks):
    random.shuffle(blocks)


def self_seeded():
    return random.Random()


def stamped():
    return time.time()


def aliased(clock):
    return clock.time_ns()


def uptime(loop, started_at):
    # An event loop's clock is no exception: timestamps come from
    # time.monotonic().
    return loop.time() - started_at
