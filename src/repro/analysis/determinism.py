"""Determinism lint (``DET*``).

Every stochastic quantity in the reproduction — fault injection, synthetic
datasets, weight init — must flow from an explicitly seeded
``np.random.Generator`` so the Figure 9-14 numbers are bit-reproducible.
This pass flags the three ways hidden global state sneaks in:

- ``DET001`` — NumPy legacy global-state API (``np.random.rand``,
  ``np.random.seed``, ``np.random.shuffle``, ...);
- ``DET002`` — the stdlib ``random`` module (global Mersenne state, or the
  intentionally nondeterministic ``SystemRandom``);
- ``DET003`` — an RNG constructed *without* a seed
  (``np.random.default_rng()``, ``np.random.PCG64()``,
  ``random.Random()``), which silently pulls OS entropy.

``DET004`` guards the repo's caching discipline instead of its
randomness: ``functools.lru_cache`` on an *instance method* keeps every
``self`` alive in the cache forever (a leak, and cross-instance state
that survives reconfiguration), and on a function whose parameters are
annotated as numpy arrays it raises ``TypeError`` at call time because
arrays are unhashable.  Cacheable work belongs on module-level functions
of hashable config values.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding
from .visitor import Checker, SourceFile

__all__ = ["DeterminismChecker"]

#: np.random constructors that are fine *when seeded*.
_SEEDED_CONSTRUCTORS = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}


class DeterminismChecker(Checker):
    """Flag global-state and unseeded randomness."""

    name = "det"
    codes = {
        "DET001": "numpy legacy global-state RNG call (np.random.*)",
        "DET002": "stdlib 'random' module usage (hidden global state)",
        "DET003": "RNG constructed without an explicit seed",
        "DET004": "functools.lru_cache on an instance method or "
        "array-annotated function",
    }

    def check(self, source: SourceFile) -> Iterator[Finding]:
        numpy_aliases, nprandom_aliases, stdlib_aliases, from_imports = (
            self._collect_imports(source.tree)
        )
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            finding = self._check_call(
                source,
                node,
                numpy_aliases,
                nprandom_aliases,
                stdlib_aliases,
                from_imports,
            )
            if finding is not None:
                yield finding
        yield from self._check_caches(source)

    @staticmethod
    def _collect_imports(tree: ast.Module):
        """Map local names to their randomness-relevant origins."""
        numpy_aliases: set[str] = set()
        nprandom_aliases: set[str] = set()
        stdlib_aliases: set[str] = set()
        #: local name -> ("numpy.random" | "random", original name)
        from_imports: dict[str, tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.name == "numpy":
                        numpy_aliases.add(local)
                    elif alias.name == "numpy.random":
                        if alias.asname:
                            nprandom_aliases.add(alias.asname)
                        else:
                            numpy_aliases.add("numpy")
                    elif alias.name == "random":
                        stdlib_aliases.add(local)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            nprandom_aliases.add(alias.asname or "random")
                elif node.module == "numpy.random":
                    for alias in node.names:
                        from_imports[alias.asname or alias.name] = (
                            "numpy.random",
                            alias.name,
                        )
                elif node.module == "random":
                    for alias in node.names:
                        from_imports[alias.asname or alias.name] = (
                            "random",
                            alias.name,
                        )
        return numpy_aliases, nprandom_aliases, stdlib_aliases, from_imports

    def _check_call(
        self,
        source,
        node: ast.Call,
        numpy_aliases,
        nprandom_aliases,
        stdlib_aliases,
        from_imports,
    ) -> Finding | None:
        func = node.func
        # np.random.X(...) / numpy.random.X(...)
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "random"
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in numpy_aliases
        ):
            return self._numpy_random_finding(source, node, func.attr)
        # npr.X(...) where npr aliases numpy.random
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in nprandom_aliases
        ):
            return self._numpy_random_finding(source, node, func.attr)
        # random.X(...) on the stdlib module
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in stdlib_aliases
        ):
            return self._stdlib_finding(source, node, func.attr)
        # Bare names imported from numpy.random / random
        if isinstance(func, ast.Name) and func.id in from_imports:
            origin, original = from_imports[func.id]
            if origin == "numpy.random":
                return self._numpy_random_finding(source, node, original)
            return self._stdlib_finding(source, node, original)
        return None

    def _numpy_random_finding(self, source, node, attr: str) -> Finding | None:
        if attr in _SEEDED_CONSTRUCTORS:
            if self._has_seed_argument(node):
                return None
            return self.finding(
                source,
                node,
                "DET003",
                f"np.random.{attr}() without an explicit seed pulls OS "
                "entropy; pass a seed",
            )
        return self.finding(
            source,
            node,
            "DET001",
            f"np.random.{attr} uses hidden global RNG state; use a seeded "
            "np.random.default_rng(seed) instead",
        )

    def _stdlib_finding(self, source, node, attr: str) -> Finding | None:
        if attr == "Random":
            if self._has_seed_argument(node):
                return None
            return self.finding(
                source,
                node,
                "DET003",
                "random.Random() without an explicit seed pulls OS entropy; "
                "pass a seed",
            )
        return self.finding(
            source,
            node,
            "DET002",
            f"stdlib random.{attr} relies on hidden global state; use a "
            "seeded np.random.default_rng(seed) instead",
        )

    # ------------------------------------------------------------------
    # DET004: lru_cache misuse
    # ------------------------------------------------------------------
    def _check_caches(self, source: SourceFile) -> Iterator[Finding]:
        """Flag ``functools.lru_cache`` where it leaks or cannot hash."""
        functools_aliases, cache_names = self._collect_cache_imports(source.tree)
        if not functools_aliases and not cache_names:
            return
        methods = {
            func
            for node in ast.walk(source.tree)
            if isinstance(node, ast.ClassDef)
            for func in node.body
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cache_decorator = next(
                (
                    dec
                    for dec in node.decorator_list
                    if self._is_cache_decorator(
                        dec, functools_aliases, cache_names
                    )
                ),
                None,
            )
            if cache_decorator is None:
                continue
            if (
                node in methods
                and not self._is_static(node)
                and node.args.args
                and node.args.args[0].arg == "self"
            ):
                yield self.finding(
                    source,
                    cache_decorator,
                    "DET004",
                    f"lru_cache on instance method {node.name!r} keeps every "
                    "self alive in the cache; hoist the cached work to a "
                    "module-level function of hashable config values",
                )
                continue
            array_params = [
                arg.arg
                for arg in (
                    node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                )
                if arg.annotation is not None
                and self._is_array_annotation(arg.annotation)
            ]
            if array_params:
                yield self.finding(
                    source,
                    cache_decorator,
                    "DET004",
                    f"lru_cache on {node.name!r} whose parameter(s) "
                    f"{', '.join(array_params)} are numpy arrays — arrays "
                    "are unhashable, so the cache raises TypeError at call "
                    "time; key on hashable scalars instead",
                )

    @staticmethod
    def _collect_cache_imports(tree: ast.Module) -> tuple[set[str], set[str]]:
        """Local aliases of the functools module and its cache decorators."""
        functools_aliases: set[str] = set()
        cache_names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "functools":
                        functools_aliases.add(alias.asname or "functools")
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                for alias in node.names:
                    if alias.name in ("lru_cache", "cache"):
                        cache_names.add(alias.asname or alias.name)
        return functools_aliases, cache_names

    @staticmethod
    def _is_cache_decorator(
        dec: ast.expr, functools_aliases: set[str], cache_names: set[str]
    ) -> bool:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (
            isinstance(target, ast.Attribute)
            and target.attr in ("lru_cache", "cache")
            and isinstance(target.value, ast.Name)
            and target.value.id in functools_aliases
        ):
            return True
        return isinstance(target, ast.Name) and target.id in cache_names

    @staticmethod
    def _is_static(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = target.attr if isinstance(target, ast.Attribute) else (
                target.id if isinstance(target, ast.Name) else None
            )
            if name == "staticmethod":
                return True
        return False

    @staticmethod
    def _is_array_annotation(annotation: ast.expr) -> bool:
        """True for annotations naming numpy arrays (ndarray / NDArray)."""
        text = ast.unparse(annotation)
        return "ndarray" in text or "NDArray" in text

    @staticmethod
    def _has_seed_argument(node: ast.Call) -> bool:
        """True when the call passes any non-None positional/keyword seed."""
        for arg in node.args:
            if not (isinstance(arg, ast.Constant) and arg.value is None):
                return True
        for kw in node.keywords:
            if kw.arg is None:  # **kwargs: assume the caller knows
                return True
            if not (
                isinstance(kw.value, ast.Constant) and kw.value.value is None
            ):
                return True
        return False
