"""Outside-in tracer: wraps the engine's public functions and methods.

Each engine module is a layer.  While a :class:`Tracer` is active, every
named function is replaced in every ``ringstruct.*`` namespace that holds it
(``classify``, ``radical`` and ``idempotents`` bind names at import time),
and named methods are replaced on their classes.  Each call becomes a span
with a parent link; a span's self time is its duration minus the time its
child spans cover.  Leaving the ``with`` block restores every original.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

WRAPPER_MARK = "__perfbench_wrapper__"


def _tall(tracer: "Tracer", rows: int, cols: int) -> None:
    tracer.counters["linalg.cells"] += rows * cols
    if rows > 2 * cols:
        tracer.counters["linalg.tall_calls"] += 1


def _subspace_init(tracer, args, kwargs):
    # Subspace(ambient_dim, vectors): materialize the vectors to count them
    args = list(args)
    if len(args) > 2:
        args[2] = list(args[2])
        vectors = args[2]
    else:
        vectors = kwargs["vectors"] = list(kwargs.get("vectors", ()))
    _tall(tracer, len(vectors), args[1])
    return tuple(args), kwargs


def _subspace_pair(tracer, args, kwargs):
    this, other = args[0], args[1]
    _tall(tracer, this.dim + other.dim, this.ambient_dim)
    return args, kwargs


def _matrix(tracer, args, kwargs):
    m = args[0]
    _tall(tracer, m.rows, m.cols)
    return args, kwargs


# group -> [(module, qualified name, probe)]; a probe counts work and may
# rewrite the arguments, e.g. to materialize an iterator it must measure.
LAYERS: Dict[str, List[Tuple[str, str, Optional[Callable]]]] = {
    "linalg": [
        ("ringstruct.linalg", "Subspace.__init__", _subspace_init),
        ("ringstruct.linalg", "Subspace.intersect", _subspace_pair),
        ("ringstruct.linalg", "Subspace.complement_in", _subspace_pair),
        ("ringstruct.linalg", "rref", _matrix),
        ("ringstruct.linalg", "solve", _matrix),
        ("ringstruct.linalg", "kernel_basis", _matrix),
    ],
    "algebra.multiply": [("ringstruct.algebra", "AlgebraPresentation.multiply_coords", None)],
    "algebra.validate": [("ringstruct.algebra", "AlgebraPresentation.__init__", None)],
    "algebra.subalgebra": [("ringstruct.algebra", "AlgebraPresentation.subalgebra", None)],
    "algebra.ideal_check": [("ringstruct.algebra", "IdealSpace.__init__", None)],
    "algebra.operators": [
        ("ringstruct.algebra", name, None)
        for name in ("annihilators", "center", "centralizer", "find_unity",
                     "generated_subring", "power_span", "product_span")
    ],
    "radical.jacobson": [("ringstruct.radical", "jacobson_radical", None)],
    "radical.complement": [("ringstruct.radical", "radical_complement", None)],
    "radical.nilpotency": [
        ("ringstruct.radical", name, None)
        for name in ("is_nilpotent", "element_nilpotency", "nilpotent_flag")
    ],
    "radical.quotient": [("ringstruct.radical", "quotient_algebra", None)],
    "idempotents.principal_ideal": [("ringstruct.idempotents", "principal_ideal", None)],
    "idempotents.minimal_ideal": [("ringstruct.idempotents", "minimal_one_sided_ideal", None)],
    "idempotents.brauer": [("ringstruct.idempotents", "brauer_idempotent", None)],
    "idempotents.find": [
        ("ringstruct.idempotents", "find_idempotent", None),
        ("ringstruct.idempotents", "lift_idempotent", None),
    ],
    "idempotents.pierce": [("ringstruct.idempotents", "pierce_decomposition", None)],
    "classify.classify": [("ringstruct.classify", "classify", None)],
    "classify.semisimple": [("ringstruct.classify", "semisimple_decompose", None)],
    "classify.central_split": [("ringstruct.classify", "central_primitive_idempotents", None)],
    "classify.minpoly": [("ringstruct.classify", "minimal_polynomial", None)],
    "classify.corner": [
        ("ringstruct.classify", "frobenius_type", None),
        ("ringstruct.classify", "corner_division_check", None),
    ],
    "classify.unitization": [
        ("ringstruct.classify", "minimal_unitization", None),
        ("ringstruct.classify", "dorroh_unitization", None),
    ],
    "finite.validate": [("ringstruct.finite", "FiniteRing.__init__", None)],
    "finite.structure": [("ringstruct.finite", "finite_structure", None)],
    "finite.jacobson": [("ringstruct.finite", "jacobson_definitional", None)],
    "finite.ideals": [
        ("ringstruct.finite", "all_ideals", None),
        ("ringstruct.finite", "largest_nilpotent_ideal", None),
    ],
    "mixed.validate": [("ringstruct.mixed", "MixedRing.__init__", None)],
    "mixed.torsion": [("ringstruct.mixed", "torsion_ideal", None)],
    "mixed.split": [("ringstruct.mixed", "finite_connected_split", None)],
    "documents.parse": [("ringstruct.documents", "parse", None)],
    "documents.load": [("ringstruct.documents", "to_object", None)],
    "reports.run": [("ringstruct.reports", "run_report", None)],
    "reports.render": [("ringstruct.reports", "render", None)],
    "verification": [
        ("ringstruct.verification", f"verify_{cmd}_report", None)
        for cmd in ("classify", "radical", "idempotents", "unitize", "oracle")
    ],
}

# Spans of these groups are opaque: calls made inside them are not traced,
# so the benchmark's own checks do not count as work of the layers below.
OPAQUE = frozenset({"verification"})
# tracemalloc peak, in MB, taken only around calls of these groups
MEMORY = frozenset({"finite.validate"})


class Tracer:
    """Install with ``with tracer:``; read ``stats``, ``counters`` and
    ``spans`` afterwards.  Entering again adds to the same records."""

    def __init__(self):
        self.spans: List[list] = []  # [group, parent span index or -1, start, end]
        self.stats: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []  # open frames: [span index, child seconds]
        self._opaque_depth = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for group, targets in LAYERS.items():
                for module_name, qualname, probe in targets:
                    self._install(group, module_name, qualname, probe)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _install(self, group, module_name, qualname, probe):
        module = sys.modules[module_name]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            self._patch(owner, attr, original, self._wrap(group, original, probe))
            return
        original = getattr(module, qualname)
        wrapper = self._wrap(group, original, probe)
        for name, mod in list(sys.modules.items()):
            if name != "ringstruct" and not name.startswith("ringstruct."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, group, fn, probe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._opaque_depth:
                return fn(*args, **kwargs)
            if probe is not None:
                args, kwargs = probe(tracer, args, kwargs)
            return tracer._call(group, fn, args, kwargs)

        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper

    # -- spans --------------------------------------------------------------

    def span(self, group: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as a span of ``group`` (for the benchmark's own spans)."""
        return self._call(group, fn, args, kwargs)

    def _call(self, group, fn, args, kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        record = [group, parent, 0.0, 0.0]
        self.spans.append(record)
        frame = [index, 0.0]
        self._stack.append(frame)
        opaque = group in OPAQUE
        if opaque:
            self._opaque_depth += 1
        memory = group in MEMORY and not tracemalloc.is_tracing()
        if memory:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if memory:
                peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                key = f"{group}_peak_mb"
                self.counters[key] = max(self.counters[key], peak_mb)
            if opaque:
                self._opaque_depth -= 1
            self._stack.pop()
            duration = end - start
            record[2], record[3] = start, end
            entry = self.stats[group]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
