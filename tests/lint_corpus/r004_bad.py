# repro-lint-corpus: src/repro/service/r004_example_bad.py
# expect: R004:10
# expect: R004:15
# expect: R004:23
# expect: R004:31
"""Known-bad pairing: leaked grants and happy-path-only releases."""


def never_released(broker, owner, amount):
    broker.try_allocate(owner, amount)
    sort_with(amount)


def happy_path_release(broker, owner, amount):
    broker.try_allocate(owner, amount)
    sort_with(amount)
    broker.release(owner, amount)


class Scheduler:
    def _run(self, state):
        # The release sits after the work, not in a finally.
        granted = self._acquire(state)
        run_job(state, granted)
        self._release(state, granted)

    def _run_wrong_release(self, state):
        # A broker release does not return a scheduler grant.
        granted = 0
        try:
            granted = self._acquire(state)
            run_job(state, granted)
        finally:
            self.release(state, granted)
