"""The scheme registry: specs by code, plus late-bound provider hooks.

Registration is the module-import side effect of :mod:`.paper` and
:mod:`.zoo` (wired up by the package ``__init__``), so every consumer of
``repro.schemes`` sees the full zoo.  Hook *providers* sit above this
package in the layer graph: ``repro.hw.pe_cost`` binds the ``pe_cost``
slot and ``repro.core.pe`` binds ``pe_factory``, each at its own import
time.  :func:`resolve_hook` imports the declared provider module on
first use, so a spec's hooks work even when nothing imported the
provider yet — the sanctioned plugin pattern that keeps the dependency
arrow pointing upward.

Serialisation stability: lookups are by ``code`` string and specs
serialise by code, so registration *order* never leaks into ledgers.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable

from .errors import SchemeCapabilityError, UnknownSchemeError
from .spec import SchemeSpec

__all__ = [
    "register_scheme",
    "get_scheme",
    "registered_codes",
    "bind_hook",
    "resolve_hook",
]

_SPECS: dict[str, SchemeSpec] = {}
_HOOKS: dict[tuple[str, str], Callable[..., Any]] = {}

#: hook slot -> SchemeSpec attribute naming its provider module.
_PROVIDER_FIELDS = {
    "pe_cost": "pe_cost_provider",
    "pe_factory": "pe_factory_provider",
}


def register_scheme(spec: SchemeSpec) -> SchemeSpec:
    """Add ``spec`` to the registry; re-registering a code is an error."""
    if spec.code in _SPECS:
        raise ValueError(f"scheme {spec.code!r} is already registered")
    _SPECS[spec.code] = spec
    return spec


def get_scheme(key: Any) -> SchemeSpec:
    """Look up a spec by code string or by any object with a ``.value``."""
    code = getattr(key, "value", key)
    try:
        # Import-time registry: workers re-import the same .paper/.zoo
        # modules, so the lookup is reproducible across processes.
        return _SPECS[code]  # repro-lint: ignore[conc]
    except KeyError:
        known = ", ".join(registered_codes())
        raise UnknownSchemeError(
            f"unknown compute scheme {code!r}; registered: {known}"
        ) from None


def registered_codes() -> tuple[str, ...]:
    """Codes of every registered scheme, sorted (order-independent)."""
    return tuple(sorted(_SPECS))


def bind_hook(code: str, slot: str, fn: Callable[..., Any]) -> None:
    """Bind provider function ``fn`` to a spec's hook ``slot``.

    Called by provider modules (``repro.hw.pe_cost``, ``repro.core.pe``)
    at import time.  Rebinding is allowed so a provider module may be
    reloaded.
    """
    if slot not in _PROVIDER_FIELDS:
        raise ValueError(f"unknown hook slot {slot!r}")
    get_scheme(code)  # validates the code
    _HOOKS[(code, slot)] = fn


def resolve_hook(code: str, slot: str) -> Callable[..., Any]:
    """Return the bound hook, importing the provider module if needed."""
    if slot not in _PROVIDER_FIELDS:
        raise ValueError(f"unknown hook slot {slot!r}")
    hook = _HOOKS.get((code, slot))
    if hook is not None:
        return hook
    spec = get_scheme(code)
    provider = getattr(spec, _PROVIDER_FIELDS[slot])
    if provider is not None:
        importlib.import_module(provider)
        hook = _HOOKS.get((code, slot))
        if hook is not None:
            return hook
    raise SchemeCapabilityError(
        f"scheme {code!r} has no {slot!r} hook bound "
        f"(provider: {provider!r})"
    )
