"""JSON file formats for decompositions and operators (format_version "1").

Decomposition files carry per-term kets as parallel re/im arrays plus either
a positive real weight ("w", operator form) or a complex coefficient
("coeff", vector form).  Operator files carry a row-major dense matrix.
Numbers are written with 17 significant digits so parse -> serialize is
byte-stable and floats round-trip exactly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, FileError
from .tensor import (
    FactoredDims,
    Ket,
    ProductDecomposition,
    StateOperator,
    TriDecomposition,
    _expansion,
)

FORMAT_VERSION = "1"


# ---------------------------------------------------------------------------
# canonical JSON writing


def _fmt_number(x: float) -> str:
    if isinstance(x, bool) or not math.isfinite(x):
        raise FileError(f"cannot serialize number {x!r}")
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def dumps_canonical(obj, indent: int = 0) -> str:
    """Deterministic JSON text: insertion-ordered keys, 17-digit floats, and
    a complex number as the object {"re": ..., "im": ...}."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{inner}{json.dumps(str(k))}: {dumps_canonical(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {float} and all(map(math.isfinite, obj)):
            rows = map("{:.17g}".format, obj)  # a float array: one pass, no recursion
        else:
            rows = (dumps_canonical(v, indent + 1) for v in obj)
        return "[\n" + inner + (",\n" + inner).join(rows) + "\n" + pad + "]"
    if isinstance(obj, complex):
        return dumps_canonical({"re": obj.real, "im": obj.imag}, indent)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, float)):
        return _fmt_number(obj)
    if obj is None:
        return "null"
    raise FileError(f"cannot serialize object of type {type(obj).__name__}")


def _write(path: str, payload: dict) -> None:
    text = dumps_canonical(payload) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FileError(f"{path}: cannot write ({exc})") from exc


def _ket_json(amplitudes: np.ndarray) -> dict:
    return {"re": amplitudes.real.tolist(), "im": amplitudes.imag.tolist()}


# ---------------------------------------------------------------------------
# saving


def decomposition_payload(obj: ProductDecomposition | TriDecomposition) -> dict:
    if not isinstance(obj, (ProductDecomposition, TriDecomposition)):
        raise FileError(f"cannot serialize decomposition of type {type(obj).__name__}")
    key = "w" if isinstance(obj, ProductDecomposition) else "coeff"
    return {
        "format_version": FORMAT_VERSION,
        "kind": "decomposition",
        "dims": list(obj.dims.dims),
        "terms": [
            {key: v, "kets": [_ket_json(k) for k in kets]}
            for v, *kets in zip(obj.values.tolist(), *(s.T for s in obj.stacks))
        ],
    }


def save_decomposition(path: str, obj: ProductDecomposition | TriDecomposition) -> None:
    _write(path, decomposition_payload(obj))


def operator_payload(op: StateOperator) -> dict:
    flat = op.matrix.reshape(-1)
    return {
        "format_version": FORMAT_VERSION,
        "kind": "operator",
        "dims": list(op.dims.dims),
        "matrix": {"re": flat.real.tolist(), "im": flat.imag.tolist()},
    }


def save_operator(path: str, op: StateOperator) -> None:
    _write(path, operator_payload(op))


# ---------------------------------------------------------------------------
# loading


def _load_json(path: str) -> dict:
    if not os.path.exists(path):
        raise FileError(f"no such file: {path}")

    def reject_constant(literal: str):
        raise FileError(f"{path}: non-finite number {literal} is not allowed")

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_constant=reject_constant)
    except (OSError, json.JSONDecodeError) as exc:
        raise FileError(f"{path}: cannot parse JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise FileError(f"{path}: top-level value must be an object")
    if data.get("format_version") != FORMAT_VERSION:
        raise FileError(f"{path}: unsupported format_version {data.get('format_version')!r}")
    return data


def _parse_dims(data: dict, path: str, lengths: tuple[int, ...]) -> FactoredDims:
    dims = data.get("dims")
    if not isinstance(dims, list) or len(dims) not in lengths or not all(
        isinstance(d, int) and d >= 1 for d in dims
    ):
        raise FileError(f"{path}: dims must be a list of {lengths} positive integers, got {dims!r}")
    try:
        return FactoredDims(tuple(dims))
    except DimensionMismatch as exc:
        raise FileError(f"{path}: {exc}") from exc


def _numeric_arrays(re, im, length: int) -> bool:
    """Whether re and im are lists of JSON numbers (not booleans) of the given length."""
    return (
        isinstance(re, list)
        and isinstance(im, list)
        and len(re) == length == len(im)
        and set(map(type, re)) | set(map(type, im)) <= {int, float}
    )


def _parse_ket(raw, path: str, where: str, dim: int) -> Ket:
    if not isinstance(raw, dict) or set(raw) != {"re", "im"}:
        raise FileError(f"{path}: {where} must be an object with re/im arrays")
    re, im = raw["re"], raw["im"]
    if not _numeric_arrays(re, im, dim):
        raise FileError(f"{path}: {where} re/im must be numeric arrays of length {dim}")
    try:
        return Ket(np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float))
    except (DegenerateInput, DimensionMismatch) as exc:
        raise FileError(f"{path}: {where}: {exc}") from exc


def _parse_value(term: dict, path: str, where: str) -> tuple[str, complex]:
    has_w = "w" in term
    has_coeff = "coeff" in term
    if has_w == has_coeff:
        raise FileError(f"{path}: {where} must carry exactly one of 'w' or 'coeff'")
    if has_w:
        w = term["w"]
        if not isinstance(w, (int, float)) or isinstance(w, bool) or not w > 0:
            raise FileError(f"{path}: {where} weight must be a positive number, got {w!r}")
        return "weight", complex(float(w))
    z = term["coeff"]
    if isinstance(z, (int, float)) and not isinstance(z, bool):
        val = complex(float(z))
    elif isinstance(z, dict) and set(z) == {"re", "im"}:
        re, im = z["re"], z["im"]
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (re, im)):
            raise FileError(f"{path}: {where} coeff re/im must be numbers")
        val = complex(float(re), float(im))
    else:
        raise FileError(f"{path}: {where} coeff must be a number or a re/im object")
    if abs(val) == 0.0:
        raise FileError(f"{path}: {where} coefficient must be nonzero")
    return "coeff", val


@dataclass(frozen=True, eq=False)
class LoadedDecomposition:
    """Schema-validated decomposition file, not yet committed to a core type."""

    dims: FactoredDims
    form: str  # "weight" | "coeff"
    values: tuple[complex, ...]
    kets: tuple[tuple[Ket, ...], ...]  # terms x factors

    @property
    def n(self) -> int:
        return len(self.values)

    def product(self) -> ProductDecomposition:
        """Interpret as a weighted product-projector decomposition (2 factors)."""
        if len(self.dims) != 2:
            raise FileError(f"expected a 2-factor decomposition, file has {len(self.dims)} factors")
        if self.form != "weight":
            raise FileError("expected weight-form terms ('w'), file carries coefficients")
        return ProductDecomposition._from_stacks(self.dims, self._stacks(), np.array(self.values).real)

    def tri(self) -> TriDecomposition:
        """Interpret as a coefficient tridecomposition (3 factors)."""
        if len(self.dims) != 3:
            raise FileError(f"expected a 3-factor decomposition, file has {len(self.dims)} factors")
        if self.form != "coeff":
            raise FileError("expected coefficient-form terms ('coeff'), file carries weights")
        return TriDecomposition._from_stacks(self.dims, self._stacks(), self.values)

    def vector(self) -> tuple[np.ndarray, float]:
        """Raw global vector sum_j value_j (x)kets_j and its norm (coeff form
        only); a cancelled vector raises DegenerateInput (``tensor._expansion``)."""
        if self.form != "coeff":
            raise FileError("only coefficient-form files define a global vector")
        return _expansion(self._stacks(), np.array(self.values))

    def _stacks(self) -> list[np.ndarray]:
        return [np.array([ks[s].amplitudes for ks in self.kets]).T for s in range(len(self.dims))]


def load_decomposition(path: str) -> LoadedDecomposition:
    data = _load_json(path)
    if data.get("kind") != "decomposition":
        raise FileError(f"{path}: expected kind 'decomposition', got {data.get('kind')!r}")
    dims = _parse_dims(data, path, (2, 3))
    raw_terms = data.get("terms")
    if not isinstance(raw_terms, list) or not raw_terms:
        raise FileError(f"{path}: terms must be a nonempty list")
    forms, values, kets = set(), [], []
    for i, term in enumerate(raw_terms):
        if not isinstance(term, dict):
            raise FileError(f"{path}: term {i} must be an object")
        form, value = _parse_value(term, path, f"term {i}")
        forms.add(form)
        raw_kets = term.get("kets")
        if not isinstance(raw_kets, list) or len(raw_kets) != len(dims):
            raise FileError(f"{path}: term {i} must carry one ket per factor ({len(dims)})")
        values.append(value)
        kets.append(
            tuple(
                _parse_ket(raw, path, f"term {i} factor {f}", dims[f])
                for f, raw in enumerate(raw_kets)
            )
        )
    if len(forms) != 1:
        raise FileError(f"{path}: terms mix 'w' and 'coeff' forms")
    return LoadedDecomposition(dims, forms.pop(), tuple(values), tuple(kets))


def load_operator(path: str) -> StateOperator:
    data = _load_json(path)
    if data.get("kind") != "operator":
        raise FileError(f"{path}: expected kind 'operator', got {data.get('kind')!r}")
    dims = _parse_dims(data, path, (1, 2, 3))
    raw = data.get("matrix")
    size = dims.total * dims.total
    if not isinstance(raw, dict) or set(raw) != {"re", "im"}:
        raise FileError(f"{path}: matrix must be an object with re/im arrays")
    re, im = raw["re"], raw["im"]
    if not _numeric_arrays(re, im, size):
        raise FileError(f"{path}: matrix re/im must be numeric arrays of length {size}")
    m = (np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)).reshape(
        dims.total, dims.total
    )
    try:
        return StateOperator(dims, m)
    except (DegenerateInput, DimensionMismatch) as exc:
        raise FileError(f"{path}: {exc}") from exc


def detect_kind(path: str) -> str:
    """'decomposition' or 'operator' per the file's kind field."""
    kind = _load_json(path).get("kind")
    if kind not in ("decomposition", "operator"):
        raise FileError(f"{path}: unknown kind {kind!r}")
    return str(kind)
