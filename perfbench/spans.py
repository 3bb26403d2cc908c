"""In-memory spans around the program's public functions.

A :class:`Tracer` replaces each traced function with a wrapper in every
namespace of the package that holds it, so calls made through a name
imported elsewhere (``from .tensor import rho_matrix`` in ``decomp``, for
instance) are recorded too.  Each span is ``[name, start, end, parent,
value]``, with ``parent`` the index of the enclosing span or -1 and
``value`` a per-call count (probes drawn, bytes written) or None.  A layer's self
time is its spans' duration minus the time covered by their direct
children.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import os
from time import perf_counter

#: (module, attribute, span name) for every traced function.  Names are
#: ``<module>.<layer>`` so the layer is the first dotted component.
TRACED_FUNCTIONS = (
    ("tensor", "rho_matrix", "tensor.rho_matrix"),
    ("tensor", "build_tri_vector", "tensor.build_tri_vector"),
    ("subspace", "collinear_pairs", "subspace.collinear_pairs"),
    ("subspace", "rank_and_independence", "subspace.rank_and_independence"),
    ("purification", "purify", "purification.purify"),
    ("purification", "relating_unitary", "purification.relating_unitary"),
    ("decomp", "check_product_hypotheses", "decomp.check_hypotheses"),
    ("decomp", "check_tri_hypotheses", "decomp.check_hypotheses"),
    ("decomp", "generate_instance", "decomp.generate"),
    ("decomp", "generate_tri_instance", "decomp.generate"),
    ("decomp", "match_bidecomposition", "decomp.match_bi"),
    ("decomp", "match_tridecomposition", "decomp.match_tri"),
    ("decomp", "extract_decomposition", "decomp.extract"),
    ("fileio", "save_decomposition", "fileio.save"),
    ("fileio", "save_operator", "fileio.save"),
    ("fileio", "load_decomposition", "fileio.load"),
    ("fileio", "load_operator", "fileio.load"),
    ("cli", "main", "cli.main"),
)

#: Span names whose self time is reported, in report order.
LAYER_NAMES = tuple(dict.fromkeys(name for _, _, name in TRACED_FUNCTIONS)) + ("tensor.validate",)


#: Per-call values recorded in a span's fifth field: probes drawn, bytes written.
_MEASURES = {
    "decomp.extract": lambda args, out: out.probes_used,
    "fileio.save": lambda args, out: os.path.getsize(args[0]),
}


class Tracer:
    """Records spans around the package's public functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, value]
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        measure = _MEASURES.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if measure is not None:
                span[4] = measure(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap every traced function wherever the package's modules hold it."""
        import importlib

        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m}")
            for m in ("tensor", "subspace", "purification", "decomp", "fileio", "cli")
        ]
        for mod_name, attr, name in TRACED_FUNCTIONS:
            original = getattr(getattr(package, mod_name), attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        op_cls = package.tensor.StateOperator
        self._undo.append((op_cls, "__post_init__", op_cls.__dict__["__post_init__"]))
        op_cls.__post_init__ = self._wrap("tensor.validate", op_cls.__post_init__)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def summary(self, ranges=None) -> dict[str, dict[str, float]]:
        """Per span name: summed self time in seconds, calls, and summed recorded values.

        ``ranges`` lists ``(first, stop)`` span-index ranges to count; by
        default every span counts.  Only calls that returned record a value.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, value in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for first, stop in ranges if ranges is not None else [(0, len(self.spans))]:
            for i in range(first, stop):
                name, start, end, _, value = self.spans[i]
                row = out.setdefault(name, {"self_s": 0.0, "calls": 0, "value": 0, "returned": 0})
                row["self_s"] += end - start - child[i]
                row["calls"] += 1
                if value is not None:
                    row["value"] += value
                    row["returned"] += 1
        return out

    def write(self, path: str) -> None:
        """Write spans as tab-separated ``name start end parent value`` lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, value in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{'' if value is None else value}\n")
