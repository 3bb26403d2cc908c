"""JSON file formats for decompositions and operators (format_version "1").

Decomposition files carry per-term kets as parallel re/im arrays plus either
a positive real weight ("w", operator form) or a complex coefficient
("coeff", vector form).  Operator files carry a row-major dense matrix.
Every float is written as ``"%.17g"``, the same text as
``format(x, ".17g")``, so parse -> serialize is byte-stable and floats
round-trip exactly, the sign of a zero included (the literal ``-0`` reloads
as -0.0).  An operator's matrix is formatted once per Hermitian pair: each
entry on or above the diagonal gets its own text, and a strict-lower entry
reuses its partner's text wherever its part mirrors the partner's bits.
The writer collects its text in pieces and writes them only once the whole
payload has serialized; one ``%`` formats each float list.  The reader
converts a decomposition file one factor slot at a time, every ket of the
slot in one pass, and an operator's matrix in the same way.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import chain

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


def _finite(x: int | float) -> bool:
    """Whether a number is finite as a float: ``json`` parses the literal
    1e400 as inf, and an integer can lie beyond the float range."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _float_texts(values: list[float]) -> list[str]:
    """``"%.17g"`` of each float in ``values``, the text of every float array: one ``%`` formats
    the whole list through a repeated template, and the result is split at its line breaks."""
    return ("%.17g\n" * len(values) % tuple(values)).splitlines()


def _fmt_number(x: int | float) -> str:
    if not _finite(x):
        raise FileError("cannot serialize number " + (repr(x) if isinstance(x, float) else "beyond the float range"))
    return str(x) if isinstance(x, int) else format(x, ".17g")


def _square_rows(part: np.ndarray, negate: bool):
    """Yield, row by row, the texts of the entries of the real square matrix ``part``.

    Entries on and above the diagonal are formatted.  A strict-lower entry
    whose bits equal its partner's (``negate`` False, the real part of a
    Hermitian matrix) or its partner's negated (``negate`` True, the
    imaginary part) reuses the partner's text, sign-flipped when ``negate``;
    "%.17g" of -x is "%.17g" of x with its sign flipped, "0" <-> "-0"
    included.  Any other entry is formatted.
    """
    n = len(part)
    bits = part.view(np.uint64)
    partner = bits.T ^ np.uint64(1 << 63) if negate else bits.T
    unmirrored = np.tril(bits != partner, -1)
    upper = [_float_texts(part[i, i:].tolist()) for i in range(n)]
    for i in range(n):
        lower = [upper[j][i - j] for j in range(i)]
        if negate:
            lower = [t[1:] if t[0] == "-" else "-" + t for t in lower]
        if unmirrored[i].any():
            cols = np.flatnonzero(unmirrored[i])
            for j, text in zip(cols.tolist(), _float_texts(part[i, cols].tolist())):
                lower[j] = text
        lower += upper[i]
        yield lower


def _pieces(obj, indent: int, out: list[str]) -> None:
    """Append the canonical text of ``obj`` at nesting depth ``indent`` to ``out``."""
    pad = "  " * indent
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        for k, (key, value) in enumerate(obj.items()):
            key = str(key)
            quoted = '"' + key + '"' if key.isascii() and key.isidentifier() else json.dumps(key)
            out.append((",\n" if k else "{\n") + inner + quoted + ": ")
            _pieces(value, indent + 1, out)
        out.append("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        if set(map(type, obj)) == {float} and all(map(math.isfinite, obj)):
            out += ("[\n" + inner, (",\n" + inner).join(_float_texts(obj)), "\n" + pad + "]")
            return
        for k, value in enumerate(obj):
            out.append((",\n" if k else "[\n") + inner)
            _pieces(value, indent + 1, out)
        out.append("\n" + pad + "]")
    elif isinstance(obj, np.ndarray):
        _matrix_pieces(obj, indent, out)
    elif isinstance(obj, complex):
        _pieces({"re": obj.real, "im": obj.imag}, indent, out)
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, float)):
        out.append(_fmt_number(obj))
    elif obj is None:
        out.append("null")
    else:
        raise FileError(f"cannot serialize object of type {type(obj).__name__}")


def _matrix_pieces(m: np.ndarray, indent: int, out: list[str]) -> None:
    """A nonempty square complex array as the object {"re": [...], "im": [...]} of its
    row-major entries, one piece per row of text."""
    if m.dtype != complex or m.ndim != 2 or not 0 < len(m) == m.shape[1]:
        raise FileError(f"cannot serialize a {m.dtype} array of shape {m.shape}; only a square complex one")
    if not np.isfinite(m).all():
        raise FileError(f"cannot serialize number {complex(m[~np.isfinite(m)][0])!r}")
    inner = "  " * (indent + 1)
    sep = ",\n" + inner + "  "
    for lead, key, part, negate in (("{\n", "re", m.real, False), (",\n", "im", m.imag, True)):
        out.append(f'{lead}{inner}"{key}": [\n{inner}  ')
        for i, texts in enumerate(_square_rows(part, negate)):
            if i:
                out.append(sep)
            out.append(sep.join(texts))
        out.append("\n" + inner + "]")
    out.append("\n" + "  " * indent + "}")


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: insertion-ordered keys, ``"%.17g"`` floats, a
    complex number as the object {"re": ..., "im": ...}, and a nonempty square
    complex array as the object {"re": [...], "im": [...]} of its row-major
    entries, the same text as for those two lists of floats.

    Only finite numbers serialize; anything else raises :class:`FileError`,
    an integer beyond the float range included."""
    out: list[str] = []
    _pieces(obj, 0, out)
    return "".join(out)


def _write(path: str, payload: dict) -> None:
    """Write ``payload``'s canonical text and a newline; nothing is opened until it has serialized."""
    out: list[str] = []
    _pieces(payload, 0, out)
    out.append("\n")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(out)
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
    """The operator file's payload, holding the N x N complex matrix itself: :func:`dumps_canonical`
    writes it as the row-major {"re": [...], "im": [...]} lists, formatting each Hermitian pair once."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "operator",
        "dims": list(op.dims.dims),
        "matrix": op.matrix,
    }


def save_operator(path: str, op: StateOperator) -> None:
    """Write the operator file: N(N+1)/2 numbers per part are formatted for an exactly Hermitian
    matrix, and the text goes to the file row by row, with no copy of the whole file's text."""
    _write(path, operator_payload(op))


# ---------------------------------------------------------------------------
# loading


def _load_json(path: str) -> dict:
    if not os.path.exists(path):
        raise FileError(f"no such file: {path}")

    def reject_constant(literal: str):
        raise FileError(f"{path}: non-finite number {literal} is not allowed")

    def parse_int(literal: str) -> int | float:
        return -0.0 if literal == "-0" else int(literal)  # the writer's text of -0.0

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_constant=reject_constant, parse_int=parse_int)
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


def _complex_arrays(raws: list, path: str, where: Callable[[int], str], length: int) -> np.ndarray:
    """The len(raws) x length complex array whose row i has the parts re and im of raws[i].

    Each raw must be a {"re": [...], "im": [...]} object of two arrays of the given length, whose
    entries are JSON numbers (not booleans), each literal finite as a float.  The keys and lengths
    are checked object by object; then one type test runs over all the lists, one ``np.fromiter``
    per part fills every row and one finiteness test covers the array.  A refusal names
    ``where(i)`` for the first object i that fails, shapes before types before finiteness."""
    res, ims = [], []
    for i, raw in enumerate(raws):
        if not isinstance(raw, dict) or raw.keys() != {"re", "im"}:
            raise FileError(f"{path}: {where(i)} must be an object with re/im arrays")
        re, im = raw["re"], raw["im"]
        if not (isinstance(re, list) and isinstance(im, list) and len(re) == length == len(im)):
            raise FileError(f"{path}: {where(i)} re/im must be numeric arrays of length {length}")
        res.append(re)
        ims.append(im)

    def first_failing(ok) -> str:
        return where(next(i for i, parts in enumerate(zip(res, ims)) if not ok(chain(*parts))))

    if not set(map(type, chain.from_iterable(res + ims))) <= {int, float}:
        bad = first_failing(lambda values: set(map(type, values)) <= {int, float})
        raise FileError(f"{path}: {bad} re/im must be numeric arrays of length {length}")
    shape = (len(raws), length)
    z = np.empty(shape, dtype=complex)  # filled part by part: re + 1j*im would drop the sign of a zero
    try:  # an integer literal beyond the float range overflows here; 1e400 parses as inf
        z.real = np.fromiter(chain.from_iterable(res), float, z.size).reshape(shape)
        z.imag = np.fromiter(chain.from_iterable(ims), float, z.size).reshape(shape)
        finite = np.isfinite(z).all()
    except OverflowError:
        finite = False
    if not finite:
        bad = first_failing(lambda values: all(map(_finite, values)))
        raise FileError(f"{path}: {bad} re/im must be finite, got a literal beyond the float range")
    return z


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
        """Raw global vector sum_j value_j (x)kets_j and its norm (coeff form only); an
        expansion that cancels or overflows is DegenerateInput naming the file."""
        if self.form != "coeff":
            raise FileError(f"{self.path}: only coefficient-form files define a global vector")
        try:
            return _expansion(self.stacks, self.values)
        except DegenerateInput as exc:
            raise DegenerateInput(f"{self.path}: {exc}") from exc


def _decomposition(data: dict, path: str) -> LoadedDecomposition:
    """Check the schema here and the kets and values by the decompositions' own rules.

    Each factor slot's kets are read in one pass by :func:`_complex_arrays`.  A file with several
    defects is refused for the first in this order: every term's value and ket count, in term
    order; then slot by slot, the slot's kets' keys and lengths, the types of their numbers and
    their finiteness, each in term order; last, the values' own rules and the kets' norms.  So a
    defect in any term's value is named before a defect in any ket's numbers."""
    dims = _parse_dims(data, path, (2, 3))
    raw_terms = data.get("terms")
    if not isinstance(raw_terms, list) or not raw_terms:
        raise FileError(f"{path}: terms must be a nonempty list")
    forms, values, raw_kets = set(), [], []
    for i, term in enumerate(raw_terms):
        if not isinstance(term, dict):
            raise FileError(f"{path}: term {i} must be an object")
        form, value = _parse_value(term, path, f"term {i}")
        forms.add(form)
        kets = term.get("kets")
        if not isinstance(kets, list) or len(kets) != len(dims):
            raise FileError(f"{path}: term {i} must carry one ket per factor ({len(dims)})")
        values.append(value)
        raw_kets.append(kets)
    if len(forms) != 1:
        raise FileError(f"{path}: terms mix 'w' and 'coeff' forms")
    form = forms.pop()
    stacks = tuple(  # d_f x n, the kets as columns: F order, as stored
        _freeze(_complex_arrays(slot, path, lambda i, f=f: f"term {i} factor {f}", dims[f]).T)
        for f, slot in enumerate(zip(*raw_kets))
    )
    try:
        values = _checked_weights(values) if form == "weight" else _checked_coeffs(values)
    except DegenerateInput as exc:
        raise FileError(f"{path}: {exc}") from exc
    if bad := _non_unit_column(stacks):
        raise FileError(f"{path}: term {bad[1]} factor {bad[0]} ket has norm {bad[2]!r}, not 1")
    return LoadedDecomposition(path, dims, form, stacks, _freeze(values))


def _operator(data: dict, path: str) -> StateOperator:
    dims = _parse_dims(data, path, (1, 2, 3))
    m = _complex_arrays([data.get("matrix")], path, lambda i: "matrix", dims.total * dims.total)
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
