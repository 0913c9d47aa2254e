"""In-process tracing of hypdiv, installed from outside the package.

``Tracer.install`` records a span wherever a call crosses from one hypdiv
module into another, and counts work by inspecting the arguments and
results of a few public functions.  Nothing under ``src/`` is edited:

* A module that reaches another one through a module binding
  (``from . import basis as B``) gets a proxy in place of that binding,
  whose public functions open a span.  The package attributes are proxied
  too, so imports made inside functions see the proxy.  Calls a module
  makes to its own functions go through its own globals, which are left
  alone, so they cost nothing and make no span.
* A function bound by name from another module
  (``from .x import f``) is replaced by a span-opening wrapper in the
  importer's namespace.
* Public methods of the package's classes are wrapped in place; the wrapper
  opens a span only when its caller lives in another module.

``uninstall`` puts every binding back.  Spans are kept in memory as
``(name, layer, start, end, parent)`` tuples, parent being the index of the
enclosing span or -1.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import types
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "closedform", "solver", "families", "surfcalc", "basis", "exactlin")


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class _LayerProxy:
    """Stands in for a module; its public functions open spans."""

    def __init__(self, tracer: "Tracer", layer: str, module: types.ModuleType):
        self.__dict__["_tracer"] = tracer
        self.__dict__["_layer"] = layer
        self.__dict__["_module"] = module

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if _is_own_function(self._module, name, value):
            value = self._tracer.span_wrapper(self._layer, name, value)
        self.__dict__[name] = value
        return value


def _is_own_function(module, name, value) -> bool:
    return (
        not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
    )


class Tracer:
    """Span recorder and work counters for one hypdiv package."""

    def __init__(self, package: types.ModuleType):
        self.package = package
        self.modules = {
            layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS
        }
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self.counts = Counter()

    def span_wrapper(self, layer: str, name: str, func):
        label = f"{layer}.{name}"
        tracer = self

        @functools.wraps(func)
        def span(*args, **kwargs):
            spans = tracer.spans
            stack = tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (label, layer, start, end, parent)

        return span

    def call(self, layer: str, name: str, func, *args):
        """Call ``func`` as a root span of ``layer``."""
        return self.span_wrapper(layer, name, func)(*args)

    # -- installing ------------------------------------------------------------

    def _set(self, owner, name, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _rebind(self, original, replacement) -> None:
        """Replace every binding of ``original`` in the package's namespaces."""
        for owner in (self.package, *self.modules.values()):
            for name, value in list(vars(owner).items()):
                if value is original:
                    self._set(owner, name, replacement)

    def _count_hook(self, layer: str, name: str, record) -> None:
        """Rebind ``layer.name`` so that ``record(arguments, result)`` sees
        every call; ``arguments()`` maps parameter names to the values
        passed."""
        original = getattr(self.modules[layer], name)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def hook(*args, **kwargs):
            result = original(*args, **kwargs)
            record(lambda: signature.bind(*args, **kwargs).arguments, result)
            return result

        self._rebind(original, hook)

    def _install_counters(self) -> None:
        counts = self.counts
        families = self.modules["families"]

        def elimination(arguments, result):
            system = arguments()["sys"]
            counts["exactlin.calls"] += 1
            counts["exactlin.rows"] += len(system.rows)
            counts["exactlin.unknowns"] += len(system.variables)
            counts["exactlin.nnz"] += sum(len(row) for row, _ in system.rows)
            counts["exactlin.redundant"] += len(getattr(result, "redundant_rows", ()))
            values = getattr(result, "assignment", None) or getattr(result, "particular", {})
            bits = max((_bits(v) for v in values.values()), default=0)
            counts["exactlin.max_bits"] = max(counts["exactlin.max_bits"], bits)

        def assembly(arguments, result):
            counts["solver.assemblies"] += 1
            counts["solver.relations"] += len(result)

        def solve(arguments, result):
            counts["solver.solves"] += 1

        def blowups(arguments, result):
            counts["surfcalc.blowups"] += arguments()["blowup_count"]

        def vector(arguments, result):
            if isinstance(result, families.DegreeVector):
                counts["families.vectors"] += 1

        def formal_position(arguments, result):
            counts["basis.formal_position_calls"] += 1

        self._count_hook("exactlin", "solve", elimination)
        self._count_hook("exactlin", "rank", lambda a, r: elimination(a, None))
        self._count_hook("solver", "assemble_system", assembly)
        self._count_hook("solver", "solve_coefficients", solve)
        self._count_hook("surfcalc", "branch_section_self_intersection", blowups)
        self._count_hook("surfcalc", "section_after_blowups", blowups)
        self._count_hook("basis", "formal_position", formal_position)
        for name, value in list(vars(families).items()):
            if _is_own_function(families, name, value):
                self._count_hook("families", name, vector)

    def _install_methods(self) -> None:
        for layer, module in self.modules.items():
            home = vars(module)
            for cls in list(home.values()):
                if not (isinstance(cls, type) and cls.__module__ == module.__name__):
                    continue
                for name, attr in list(vars(cls).items()):
                    if name.startswith("_"):
                        continue
                    kind = type(attr) if isinstance(attr, (classmethod, staticmethod)) else None
                    func = attr.__func__ if kind else attr
                    if not inspect.isfunction(func):
                        continue
                    wrapped = self._method_wrapper(layer, f"{cls.__name__}.{name}", func, home)
                    self._set(cls, name, kind(wrapped) if kind else wrapped)

    def _method_wrapper(self, layer, name, func, home):
        span = self.span_wrapper(layer, name, func)

        @functools.wraps(func)
        def method(*args, **kwargs):
            if sys._getframe(1).f_globals is home:
                return func(*args, **kwargs)
            return span(*args, **kwargs)

        return method

    def _install_boundaries(self) -> None:
        by_module = {module: layer for layer, module in self.modules.items()}
        proxies = {
            module: _LayerProxy(self, layer, module) for module, layer in by_module.items()
        }
        for importer in self.modules.values():
            for name, value in list(vars(importer).items()):
                if isinstance(value, types.ModuleType) and value in proxies:
                    if value is not importer:
                        self._set(importer, name, proxies[value])
                elif inspect.isfunction(value) and not name.startswith("_"):
                    home = sys.modules.get(value.__module__)
                    if home in by_module and home is not importer:
                        self._set(importer, name, self.span_wrapper(by_module[home], name, value))
        for module, proxy in proxies.items():
            self._set(self.package, by_module[module], proxy)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        self._install_counters()
        self._install_methods()
        self._install_boundaries()

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- summarising -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per-layer span time minus the time its child spans cover."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (_, layer, start, end, _), child in zip(spans, covered):
            out[layer] += end - start - child
        return out

    def root_time(self) -> float:
        return sum(end - start for _, _, start, end, parent in self.spans if parent < 0)
