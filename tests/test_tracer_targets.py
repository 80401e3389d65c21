"""Every target of the benchmark tracer resolves to code under ``src/repro``.

``perfbench/tracing.py`` patches ``repro`` callables by name: each span
and counter names a module and a ``function`` or ``Class.method``.  A
method that no longer exists on the class or any subclass is patched
nowhere and silently reads 0 calls, and a missing module function
raises only inside a ``--trace 1`` run.  So a refactor that renames or
deletes a target must fail here first.  The test only reads
``perfbench/``.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.serve.batching import BatchPolicy

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"


def _load_tracing():
    """``perfbench/tracing.py`` as a module, without touching ``sys.path``."""
    name = "_perfbench_tracing_under_test"
    spec = importlib.util.spec_from_file_location(
        name, REPO / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their annotations through sys.modules.
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


_TRACING = _load_tracing()
TARGETS = sorted(
    {(span.module, attr) for span in _TRACING.SPANS for attr in span.attrs}
    | {(counter.module, counter.attr) for counter in _TRACING.COUNTERS}
)


def _under_src(module) -> bool:
    path = getattr(module, "__file__", None)
    return path is not None and Path(path).resolve().is_relative_to(SRC)


def _defined_under_src(fn) -> bool:
    return _under_src(sys.modules.get(getattr(fn, "__module__", None) or ""))


def _repro_subclasses(cls: type) -> list[type]:
    """``cls`` and every subclass defined under ``src/repro``.

    Those are the classes the tracer patches in the benchmark, which
    imports only ``repro``.  A subclass some other module defines (a
    test-local policy, say) exists only once that module is imported,
    so it is skipped with everything below it.
    """
    found, pending = [], [cls]
    while pending:
        klass = pending.pop()
        if klass not in found and _under_src(sys.modules.get(klass.__module__)):
            found.append(klass)
            pending.extend(klass.__subclasses__())
    return found


class _TestLocalPolicy(BatchPolicy):
    """A subclass of a traced class defined outside ``src/repro``."""

    def next_batch(self, queue, now_s, draining):
        return []

    def only_here(self):
        return None


def test_a_test_local_subclass_is_not_walked():
    # It overrides a traced method, which still resolves ...
    assert ("repro.serve.batching", "BatchPolicy.next_batch") in TARGETS
    test_tracer_target_resolves("repro.serve.batching", "BatchPolicy.next_batch")
    # ... and it does not own a target for repro.
    with pytest.raises(AssertionError, match="neither BatchPolicy"):
        test_tracer_target_resolves("repro.serve.batching", "BatchPolicy.only_here")


@pytest.mark.parametrize(
    "module_name, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS]
)
def test_tracer_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    assert _under_src(module), f"{module_name} is not under {SRC}"
    cls_name, _, name = attr.rpartition(".")
    if not cls_name:
        fn = getattr(module, name, None)
        assert callable(fn), f"{module_name}.{name} does not exist"
        assert _defined_under_src(fn), f"{module_name}.{name} is not repro code"
        return
    cls = getattr(module, cls_name, None)
    assert isinstance(cls, type), f"{module_name}.{cls_name} is not a class"
    owners = [klass for klass in _repro_subclasses(cls) if name in vars(klass)]
    assert owners, f"neither {cls_name} nor a subclass defines {name}"
    for klass in owners:
        raw = vars(klass)[name]
        fn = getattr(raw, "__func__", raw)  # unwrap class/static methods
        assert callable(fn), f"{klass.__name__}.{name} is not a method"
        assert _defined_under_src(fn), f"{klass.__name__}.{name} is not repro code"
