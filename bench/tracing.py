"""Spans and counters wrapped around fusionkit's public functions.

The wrappers are installed from here, at run time, into every fusionkit
module namespace that holds a reference to the wrapped function (the
package imports names with ``from .x import y``), and onto the classes for
methods.  ``uninstall`` puts the originals back, so one process can run an
untraced pass and a traced pass of the same commands.

A span records (id, name, start, end, parent id, command index).  Self
time is a span's duration minus the time of its direct child spans.
Spans and counters are kept in memory and written out by the caller.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

# (module, attribute path, span name); a method is "Class.method"
SPANS = [
    ("fusionkit.cli", "main", "cli.main"),
    ("fusionkit.serialize", "load_doc", "serialize.load"),
    ("fusionkit.serialize", "load", "serialize.load"),
    ("fusionkit.serialize", "canonical_json", "serialize.emit"),
    ("fusionkit.serialize", "ProductCache.load_into", "serialize.cache"),
    ("fusionkit.serialize", "ProductCache.flush", "serialize.cache"),
    ("fusionkit.rings", "check_ring_axioms", "rings.check_ring_axioms"),
    ("fusionkit.rings", "check_dimension", "rings.check_dimension"),
    ("fusionkit.rings", "BasedRing.basis_up_to_depth", "rings.window"),
    ("fusionkit.constructions", "rep_ring", "constructions.rep_ring"),
    ("fusionkit.constructions", "CharacterTable.__init__",
     "constructions.character_table"),
    ("fusionkit.cyclotomic", "Cyclo.__mul__", "cyclotomic.mul"),
    ("fusionkit.subrings", "verify_subring", "subrings.verify_subring"),
    ("fusionkit.subrings", "coset_classes", "subrings.coset_classes"),
    ("fusionkit.subrings", "find_divisibility_certificate",
     "subrings.find_certificate"),
    ("fusionkit.subrings", "verify_certificate", "subrings.verify_certificate"),
    ("fusionkit.induction", "induce", "induction.induce"),
    ("fusionkit.induction", "restrict", "induction.restrict"),
    ("fusionkit.induction", "restrict_and_decompose", "induction.restrict"),
    ("fusionkit.induction", "standardize_from_induced", "induction.standardize"),
    ("fusionkit.modules", "check_module_axioms", "modules.check_module_axioms"),
    ("fusionkit.modules", "find_intertwiner", "modules.find_intertwiner"),
    ("fusionkit.modules", "is_torsion", "modules.is_torsion"),
    ("fusionkit.census", "enumerate_torsion_modules", "census.enumerate"),
]

# hot calls that are counted, not timed
COUNTS = [
    ("fusionkit.rings", "BasedRing.product", "rings.product.calls"),
    ("fusionkit.rings", "tensor", "rings.tensor.calls"),
    ("fusionkit.elements", "Element.__init__", "elements.created"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, Optional[int], int]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.request = -1
        self._stack: List[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._restore: List[Tuple[Any, str, Any]] = []

    # --- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn: Callable,
              after: Optional[Callable[[Any, tuple], None]] = None) -> Callable:
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                self.spans.append((span_id, name, start, end, parent, self.request))
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        window = importlib.import_module("fusionkit.rings").BasedRing.basis_up_to_depth

        def ring_triples(_, args):
            ring, depth = args[0], (args[1] if len(args) > 1 else 4)
            self.counters["rings.assoc_triples"] += len(window(ring, depth)) ** 3

        def module_triples(_, args):
            m, depth = args[0], (args[1] if len(args) > 1 else 4)
            self.counters["modules.action_triples"] += (
                len(window(m.ring, depth)) ** 2 * len(m.basis_up_to_depth(depth)))

        def records(key):
            def after(result, _):
                self.counters[key] += result
            return after

        def loads(_, __):
            self.counters["serialize.load.calls"] += 1

        hooks = {
            "check_ring_axioms": ring_triples,
            "check_module_axioms": module_triples,
            "ProductCache.load_into": records("serialize.cache_records_read"),
            "ProductCache.flush": records("serialize.cache_records_written"),
            "load_doc": loads,
        }
        for module, path, name in SPANS:
            original = _resolve(module, path)
            self._patch(module, path, original,
                        self._span(name, original, hooks.get(path)))
        for module, path, name in COUNTS:
            original = _resolve(module, path)
            self._patch(module, path, original, self._count(name, original))

    def _patch(self, module: str, path: str, original: Any, wrapper: Any) -> None:
        if "." in path:
            owner_name, attr = path.split(".")
            owner = getattr(sys.modules[module], owner_name)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "fusionkit" or mod_name.startswith("fusionkit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def _resolve(module: str, path: str) -> Any:
    obj: Any = importlib.import_module(module)
    for part in path.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj
