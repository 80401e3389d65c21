"""``run_tasks``: the ordered fan-out that fleet cells and verify cases ride on."""

from __future__ import annotations

from repro.jobs import run_tasks


def _square(x):
    return x * x


class TestRunTasks:
    def test_preserves_item_order(self):
        items = [5, 3, 9, 1, 7, 2]
        assert run_tasks(_square, items, workers=1) == [x * x for x in items]

    def test_parallel_matches_serial(self):
        items = list(range(40))
        serial = run_tasks(_square, items, workers=1)
        parallel = run_tasks(_square, items, workers=4)
        assert parallel == serial

    def test_empty_and_singleton(self):
        assert run_tasks(_square, [], workers=8) == []
        assert run_tasks(_square, [6], workers=8) == [36]

    def test_serial_bypass_sees_monkeypatching(self, monkeypatch):
        # workers <= 1 must run in-process: the verify mutation tests
        # depend on patched functions staying visible to the workers.
        import tests.jobs.test_run_tasks as self_mod

        monkeypatch.setattr(self_mod, "_square", lambda x: -x)
        assert run_tasks(self_mod._square, [1, 2], workers=1) == [-1, -2]
