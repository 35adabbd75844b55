"""Per-layer counters and timers, installed from outside the program.

``Tracer.install`` replaces public functions of the ``dunklpoly`` modules
with wrappers that count calls and time them.  A module that imported a
function with ``from .x import f`` holds its own reference, so every
reference is replaced: module attributes, values of module-level dicts
(``suites.ALL_SUITES``) and class attributes (``LaurentPoly.__rmul__`` is
the same function as ``__mul__``).  ``uninstall`` puts the originals back.

``busy_s`` of a name is the time inside its outermost active call; its
``self_s`` is ``busy_s`` minus the time spent in wrapped calls it made.
The program itself carries no tracing code.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

perf_counter = time.perf_counter
PACKAGE = "dunklpoly"


@dataclass
class Stat:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    active: int = 0
    useful: int = 0        # poly_gcd: gcds of positive degree
    items: int = 0         # gauss_rule: nodes; emit: records
    keys: Set[Any] = field(default_factory=set)   # gauss_rule: distinct rules


# (module, attribute path, layer name, what to record).  ``timed`` wrappers
# time the call; ``count`` wrappers only count it, for calls so frequent
# that timing them would dominate the traced run.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("exactnum", "RatFunc.__post_init__", "exactnum.ratfunc", "timed"),
    ("exactnum", "poly_gcd", "exactnum.poly_gcd", "gcd"),
    ("exactnum", "poly_divmod", "exactnum.poly_divmod", "timed"),
    ("exactnum", "LaurentPoly.__mul__", "exactnum.laurent_mul", "count"),
    ("dunklop", "DunklOperator.apply", "dunklop.apply", "timed"),
    ("dunklop", "DunklOperator.apply_gaussian", "dunklop.apply_gaussian", "timed"),
    ("dunklop", "build_operator", "dunklop.build_operator", "timed"),
    ("dunklop", "verify_algebra", "dunklop.verify_algebra", "timed"),
    ("families", "generate_monic", "families.generate_monic", "timed"),
    ("families", "explicit_poly", "families.explicit_poly", "timed"),
    ("transforms", "christoffel", "transforms.christoffel", "timed"),
    ("transforms", "geronimus", "transforms.geronimus", "timed"),
    ("transforms", "kernel_to_chihara", "transforms.kernel_to_chihara", "timed"),
    ("quad", "gauss_rule", "quad.gauss_rule", "rule"),
    ("quad", "symtridiag_eigen", "quad.symtridiag_eigen", "timed"),
    ("quad", "gram_matrix", "quad.gram_matrix", "timed"),
    ("quad", "norm_ratio_check", "quad.norm_ratio_check", "timed"),
    ("quad", "verify_pearson", "quad.verify_pearson", "timed"),
    ("limits", "run_limit", "limits.run_limit", "timed"),
    ("report", "emit", "report.emit", "emit"),
    ("cli", "run", "cli.run", "timed"),
)


class Tracer:
    """Wraps the layer functions of the imported ``dunklpoly`` package."""

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        self._stack: List[List[float]] = []
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    # -- wrappers -------------------------------------------------------------

    def _timed(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack

        def wrapper(*args, **kwargs):
            stat.calls += 1
            stat.active += 1
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stat.active -= 1
                if not stat.active:
                    stat.busy += elapsed
                stat.self_time += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                hook(stat, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(name, Stat())

        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _make(self, name: str, kind: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(name, Stat())
        if kind == "count":
            return self._counted(name, fn)
        if kind == "gcd":
            def hook(stat, args, result):
                if result.degree:
                    stat.useful += 1
            return self._timed(name, fn, hook)
        if kind == "rule":
            def rule(weight_class, n):
                stat.items += n
                stat.keys.add((tuple(weight_class), n))
                return fn(weight_class, n)
            return self._timed(name, rule)
        if kind == "emit":
            inner = self._timed(name, fn)

            def emit(records, *args, **kwargs):
                records = list(records)
                stat.items += len(records)
                return inner(records, *args, **kwargs)
            return emit
        return self._timed(name, fn)

    # -- installation ---------------------------------------------------------

    def _modules(self) -> List[Any]:
        return [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]

    def _replace_everywhere(self, old: Any, new: Any) -> int:
        """Point every reference the package holds to ``old`` at ``new``."""
        replaced = 0
        for module in self._modules():
            for key, value in list(vars(module).items()):
                if value is old:
                    self._undo.append((module, key, old, False))
                    setattr(module, key, new)
                    replaced += 1
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is old:
                            self._undo.append((value, dkey, old, True))
                            value[dkey] = new
                            replaced += 1
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    for ckey, cvalue in list(vars(value).items()):
                        if cvalue is old:
                            self._undo.append((value, ckey, old, False))
                            setattr(value, ckey, new)
                            replaced += 1
        return replaced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for module_name, path, name, kind in TARGETS:
            owner: Any = sys.modules[f"{PACKAGE}.{module_name}"]
            for part in path.split("."):
                owner = getattr(owner, part)
            if not self._replace_everywhere(owner, self._make(name, kind, owner)):
                raise RuntimeError(f"no reference to {module_name}.{path} found")
        suites = sys.modules[f"{PACKAGE}.suites"]
        for suite, fn in list(suites.ALL_SUITES.items()):
            self._replace_everywhere(fn, self._timed(f"suites.{suite}", fn))

    def uninstall(self) -> None:
        for owner, key, old, is_dict in reversed(self._undo):
            if is_dict:
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())
