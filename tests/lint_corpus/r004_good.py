# repro-lint-corpus: src/repro/service/r004_example_good.py
# expect: none
"""Known-good pairing: finally-guarded releases; acquisition helpers."""


def paired(broker, owner, amount):
    if not broker.try_allocate(owner, amount):
        return
    try:
        sort_with(amount)
    finally:
        broker.release(owner, amount)


def released_on_error(broker, owner, amount):
    broker.try_allocate(owner, amount)
    try:
        sort_with(amount)
    except BaseException:
        broker.release(owner, amount)
        raise
    broker.release(owner, amount)


def acquire(broker, owner, amount):
    return broker.try_allocate(owner, amount)


class Scheduler:
    def _run(self, state):
        # The shape of JobScheduler._run: the grant goes back in the
        # finally, whether the job finished, failed or was cancelled.
        granted = 0
        try:
            granted = self._acquire(state)
            run_job(state, granted)
        finally:
            if granted:
                self._release(state, granted)

    def _admit(self, state):
        granted = self._acquire(state)
        return granted
