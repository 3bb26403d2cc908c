"""JSON file formats for decompositions and operators (format_version "1").

Decomposition files carry per-term kets as parallel re/im arrays plus either
a positive real weight ("w", operator form) or a complex coefficient
("coeff", vector form).  Operator files carry a row-major dense matrix.
Numbers are written with 17 significant digits so parse -> serialize is
byte-stable and floats round-trip exactly.  A list of finite floats (every
ket and matrix array) is written by one ``%`` format over the whole list,
``"%.17g"`` per number, which is the same text as ``format(x, ".17g")``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, FileError
from .tensor import (
    FactoredDims,
    ProductDecomposition,
    StateOperator,
    TriDecomposition,
    _checked_coeffs,
    _checked_weights,
    _expansion,
    _freeze,
    _non_unit_column,
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
        sep = ",\n" + inner
        if set(map(type, obj)) == {float} and all(map(math.isfinite, obj)):
            # a float array: one %-format over the whole list, the same text as
            # format(x, ".17g") per number, with no recursion
            body = sep.join(["%.17g"] * len(obj)) % tuple(obj)
        else:
            body = sep.join(dumps_canonical(v, indent + 1) for v in obj)
        return "[\n" + inner + body + "\n" + pad + "]"
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
    # ValueError covers a JSONDecodeError, bytes that are not UTF-8 and an
    # integer literal over Python's digit limit
    except (OSError, ValueError) as exc:
        raise FileError(f"{path}: cannot parse JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise FileError(f"{path}: top-level value must be an object")
    if data.get("format_version") != FORMAT_VERSION:
        raise FileError(f"{path}: unsupported format_version {data.get('format_version')!r}")
    return data


def _parse_dims(data: dict, path: str, lengths: tuple[int, ...]) -> FactoredDims:
    dims = data.get("dims")
    if not isinstance(dims, list) or len(dims) not in lengths or not all(
        type(d) is int and d >= 1 for d in dims  # a JSON true is an int too
    ):
        raise FileError(f"{path}: dims must be a list of {lengths} positive integers, got {dims!r}")
    try:
        return FactoredDims(tuple(dims))
    except DimensionMismatch as exc:
        raise FileError(f"{path}: {exc}") from exc


def _complex_array(raw, path: str, where: str, length: int) -> np.ndarray:
    """The complex array re + 1j*im of a {"re": [...], "im": [...]} object of JSON numbers
    (not booleans), each array of the given length and each literal finite as a float."""
    if not isinstance(raw, dict) or set(raw) != {"re", "im"}:
        raise FileError(f"{path}: {where} must be an object with re/im arrays")
    re, im = raw["re"], raw["im"]
    arrays = isinstance(re, list) and isinstance(im, list) and len(re) == length == len(im)
    if not arrays or not set(map(type, re)) | set(map(type, im)) <= {int, float}:
        raise FileError(f"{path}: {where} re/im must be numeric arrays of length {length}")
    try:  # an integer literal beyond the float range overflows here; 1e400 parses as inf
        z = np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)
        finite = np.isfinite(z).all()
    except OverflowError:
        finite = False
    if not finite:
        raise FileError(f"{path}: {where} re/im must be finite, got a literal beyond the float range")
    return z


def _finite(x: int | float) -> bool:
    """Whether a JSON number is finite as a float: ``json`` parses the literal
    1e400 as inf, and an integer literal can lie beyond the float range."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _parse_value(term: dict, path: str, where: str) -> tuple[str, float | complex]:
    """The term's form and value, checked here to be finite numbers, where the file and the
    term can still be named; the rules on their values are the decompositions' own."""
    if ("w" in term) == ("coeff" in term):
        raise FileError(f"{path}: {where} must carry exactly one of 'w' or 'coeff'")
    if "w" in term:
        w = term["w"]
        if not isinstance(w, (int, float)) or isinstance(w, bool):
            raise FileError(f"{path}: {where} weight must be a number, got {w!r}")
        if not _finite(w):
            raise FileError(f"{path}: {where} weight must be finite, got {w!r}")
        return "weight", float(w)
    z = term["coeff"]
    if isinstance(z, (int, float)) and not isinstance(z, bool):
        if not _finite(z):
            raise FileError(f"{path}: {where} coeff must be finite, got {z!r}")
        return "coeff", complex(float(z))
    if isinstance(z, dict) and set(z) == {"re", "im"}:
        re, im = z["re"], z["im"]
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (re, im)):
            raise FileError(f"{path}: {where} coeff re/im must be numbers")
        if not (_finite(re) and _finite(im)):
            raise FileError(f"{path}: {where} coeff re/im must be finite, got {re!r}, {im!r}")
        return "coeff", complex(float(re), float(im))
    raise FileError(f"{path}: {where} coeff must be a number or a re/im object")


@dataclass(frozen=True, eq=False)
class LoadedDecomposition:
    """The checked decomposition file at ``path`` in the decompositions' stored form, not yet
    committed to a core type: read-only ``stacks`` (d_s x n, kets as columns) and ``values``,
    float weights (``form`` "weight") or complex coefficients ("coeff")."""

    path: str
    dims: FactoredDims
    form: str  # "weight" | "coeff"
    stacks: tuple[np.ndarray, ...] = field(repr=False)
    values: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.values.size

    def product(self) -> ProductDecomposition:
        """Interpret as a weighted product-projector decomposition (2 factors)."""
        if len(self.dims) != 2:
            raise FileError(f"{self.path}: expected a 2-factor decomposition, file has {len(self.dims)} factors")
        if self.form != "weight":
            raise FileError(f"{self.path}: expected weight-form terms ('w'), file carries coefficients")
        return ProductDecomposition._from_stacks(self.dims, self.stacks, self.values)

    def tri(self) -> TriDecomposition:
        """Interpret as a coefficient tridecomposition (3 factors)."""
        if len(self.dims) != 3:
            raise FileError(f"{self.path}: expected a 3-factor decomposition, file has {len(self.dims)} factors")
        if self.form != "coeff":
            raise FileError(f"{self.path}: expected coefficient-form terms ('coeff'), file carries weights")
        return TriDecomposition._from_stacks(self.dims, self.stacks, self.values)

    def vector(self) -> tuple[np.ndarray, float]:
        """Raw global vector sum_j value_j (x)kets_j and its norm (coeff form only); DegenerateInput if cancelled."""
        if self.form != "coeff":
            raise FileError(f"{self.path}: only coefficient-form files define a global vector")
        return _expansion(self.stacks, self.values)


def _decomposition(data: dict, path: str) -> LoadedDecomposition:
    """Check the schema here and the kets and values by the decompositions' own rules."""
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
        kets.append([_complex_array(raw, path, f"term {i} factor {f}", dims[f]) for f, raw in enumerate(raw_kets)])
    if len(forms) != 1:
        raise FileError(f"{path}: terms mix 'w' and 'coeff' forms")
    form = forms.pop()
    stacks = tuple(_freeze(np.array(columns).T) for columns in zip(*kets))  # F order, as stored
    try:
        values = _checked_weights(values) if form == "weight" else _checked_coeffs(values)
    except DegenerateInput as exc:
        raise FileError(f"{path}: {exc}") from exc
    if bad := _non_unit_column(stacks):
        raise FileError(f"{path}: term {bad[1]} factor {bad[0]} ket has norm {bad[2]!r}, not 1")
    return LoadedDecomposition(path, dims, form, stacks, _freeze(values))


def _operator(data: dict, path: str) -> StateOperator:
    dims = _parse_dims(data, path, (1, 2, 3))
    m = _complex_array(data.get("matrix"), path, "matrix", dims.total * dims.total)
    try:
        return StateOperator(dims, m.reshape(dims.total, dims.total))
    except (DegenerateInput, DimensionMismatch) as exc:
        raise FileError(f"{path}: {exc}") from exc


def _read(path: str, *kinds: str):
    data = _load_json(path)
    kind = data.get("kind")
    if kind not in kinds:
        raise FileError(f"{path}: expected kind {' or '.join(map(repr, kinds))}, got {kind!r}")
    return _operator(data, path) if kind == "operator" else _decomposition(data, path)


def load(path: str) -> StateOperator | LoadedDecomposition:
    """The operator or the decomposition a file holds, per its kind field, from one parse."""
    return _read(path, "decomposition", "operator")


def load_decomposition(path: str) -> LoadedDecomposition:
    return _read(path, "decomposition")


def load_operator(path: str) -> StateOperator:
    return _read(path, "operator")
