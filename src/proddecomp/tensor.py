"""Dense kets and state operators on factored finite-dimensional complex spaces."""

from __future__ import annotations

import cmath
import math
from dataclasses import FrozenInstanceError, dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, _nonconvergence

#: Ambient-dimension cap for operators of both forms (a dense one stores N^2 entries).
MAX_AMBIENT_DIM = 4096

#: Dimension cap for bare vectors; purified vectors live on an ambient
#: larger than their operator's by the term count, so this is looser.
MAX_VECTOR_DIM = 1 << 20

KET_NORM_ATOL = 1e-12
HERMITICITY_RTOL = 1e-10
PSD_RTOL = 1e-10

#: The smallest normal float: a product below it has lost bits to gradual underflow.
_TINY = float(np.finfo(float).tiny)

#: A coefficient expansion sum_j c_j (x)kets_j whose norm is at most this
#: times sum_j |c_j| has cancelled: degenerate input.
_TRI_CANCEL_RTOL = 1e-8


def frobenius(a: np.ndarray) -> float | np.ndarray:
    """Frobenius norm as a plain float, safe against overflow and underflow; for
    a stack of matrices (``ndim`` 3), one such norm per matrix, as a float array.

    One ``np.linalg.norm`` per matrix, all inside one ``np.errstate``, decides
    when its result lies in [1e-150, 1e150] or the matrix is exactly zero.
    Otherwise the plain sum of squares may have overflowed or underflowed, so
    that matrix is divided by its largest |entry| first.  Non-finite entries
    give a non-finite result.
    """
    a = np.asarray(a)
    mats = a if a.ndim > 2 else (a,)
    with np.errstate(over="ignore"):  # an overflow is caught by the range test
        norms = [float(np.linalg.norm(m)) for m in mats]
    for i, norm in enumerate(norms):
        if not 1e-150 <= norm <= 1e150 and (norm != 0.0 or np.any(mats[i])):
            mags = np.abs(mats[i])  # real, so the division below cannot overflow
            big = float(np.max(mags))
            norms[i] = big * float(np.linalg.norm(mags / big)) if math.isfinite(big) else big
    return np.array(norms) if a.ndim > 2 else norms[0]


def _weight_exponent(*weights: Sequence[float]) -> int:
    """The exponent e of ``frexp`` of the largest of all ``weights`` (short arrays or
    lists of nonnegative floats): ``np.ldexp(w, -e)`` scales them exactly, the largest
    into [0.5, 1), so that sums and norms of the scaled weights stay finite."""
    return math.frexp(max(map(max, weights)))[1]


def _times_pow2(a: np.ndarray, e: int) -> np.ndarray:
    """``a`` times 2^e, exact where no entry leaves the float range: two factors, since 2^e itself can overflow."""
    return a * 2.0 ** (e // 2) * 2.0 ** (e - e // 2)


def _unit(v: np.ndarray, norm: float) -> np.ndarray:
    """``v / norm`` for a complex vector v and its norm > 0: the one normalization of a raw vector.

    numpy divides a complex array by multiplying with 1/norm, which overflows
    for a subnormal norm; there v and norm are first scaled by the same exact
    power of two.  Every other norm divides as it is, bit for bit.
    """
    if norm < _TINY:
        e = -math.frexp(norm)[1]
        v, norm = _times_pow2(v, e), math.ldexp(norm, e)
    return v / norm


def _complex(values, what: str, order: str = "K") -> np.ndarray:
    """A complex copy of ``values`` in ``order``; anything but numbers (booleans, strings) is DegenerateInput."""
    try:
        dtype = _source_dtype(values)
        if dtype.kind not in "iufc":
            raise DegenerateInput(f"{what} must be numbers, not booleans or strings (got dtype {dtype})")
        return np.array(values, dtype=complex, order=order)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DegenerateInput(f"{what} must be numbers: {exc}") from exc


def _index(x, what: str) -> int:
    """``x`` as an int, the rule of dims, factor indices and term counts: a bool or non-integer is DimensionMismatch."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise DimensionMismatch(f"{what} must be an integer, got {x!r}")
    return int(x)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Ket:
    """Unit-norm complex amplitude vector in a finite-dimensional space.

    The constructor rejects vectors whose Euclidean norm deviates from 1
    by more than ``KET_NORM_ATOL``; use :meth:`normalize` to rescale raw
    amplitudes.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = _complex(self.amplitudes, "amplitudes").reshape(-1)
        if amps.size < 1:
            raise DimensionMismatch("a ket needs at least one amplitude")
        if amps.size > MAX_VECTOR_DIM:
            raise DimensionMismatch(f"ket dimension {amps.size} exceeds cap {MAX_VECTOR_DIM}")
        if bad := _non_unit_column((amps[:, None],)):
            raise DegenerateInput(f"ket norm {bad[2]!r} differs from 1 by more than {KET_NORM_ATOL}")
        object.__setattr__(self, "amplitudes", _freeze(amps))

    @classmethod
    def normalize(cls, amplitudes) -> "Ket":
        """Scale amplitudes to unit norm at any finite scale; a zero or
        non-finite vector is rejected."""
        amps = _complex(amplitudes, "amplitudes").reshape(-1)
        norm = frobenius(amps)
        if not 0.0 < norm < math.inf:  # NaN fails too
            raise DegenerateInput(f"cannot normalize a vector of norm {norm!r}")
        return cls(_unit(amps, norm))

    @classmethod
    def basis(cls, dim: int, index: int) -> "Ket":
        """Standard basis ket with a single unit amplitude at ``index``."""
        dim, index = _index(dim, "dim"), _index(index, "basis index")
        if not 0 <= index < dim:
            raise DimensionMismatch(f"basis index {index} out of range for dim {dim}")
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    @property
    def dim(self) -> int:
        return int(self.amplitudes.size)

    def overlap(self, other: "Ket") -> complex:
        """Inner product <self|other> (conjugate-linear in self)."""
        if other.dim != self.dim:
            raise DimensionMismatch(f"ket dims differ: {self.dim} vs {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def projector(self) -> np.ndarray:
        """Rank-1 projector |self><self|."""
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def phased(self, phase: complex) -> "Ket":
        """Multiply by a unit-magnitude scalar phase."""
        if abs(abs(phase) - 1.0) > KET_NORM_ATOL:
            raise DegenerateInput(f"phase magnitude {abs(phase)!r} is not 1")
        return Ket(self.amplitudes * phase)

    def __repr__(self) -> str:  # keep reprs short; amplitudes can be large
        return f"Ket(dim={self.dim})"


@dataclass(frozen=True)
class FactoredDims:
    """Factor dimensions of a tensor-product space H1 (x) H2 (x H3).

    Reduced operators may live on a single factor, so lengths 1..3 are
    accepted; decompositions themselves require 2 or 3 factors.
    """

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            dims = tuple(self.dims)
        except TypeError:
            raise DimensionMismatch(f"factor dimensions must be a sequence of integers, got {self.dims!r}") from None
        dims = tuple(_index(d, "factor dimension") for d in dims)
        if not 1 <= len(dims) <= 3:
            raise DimensionMismatch(f"1 to 3 factors supported, got {len(dims)}")
        if any(d < 1 for d in dims):
            raise DimensionMismatch(f"factor dimensions must be positive, got {dims}")
        if math.prod(dims) > MAX_VECTOR_DIM:
            raise DimensionMismatch(f"ambient dimension {math.prod(dims)} exceeds cap {MAX_VECTOR_DIM}")
        object.__setattr__(self, "dims", dims)

    @property
    def total(self) -> int:
        return math.prod(self.dims)

    def __len__(self) -> int:
        return len(self.dims)

    def __iter__(self) -> Iterator[int]:
        return iter(self.dims)

    def __getitem__(self, i) -> int:
        return self.dims[i]


#: Below this bound on every |entry| of m, m + m^H cannot overflow.
_HALF_SUM_BOUND = 2.0**1022


def _hermitian_part(m: np.ndarray, out: np.ndarray, big: float) -> np.ndarray:
    """(m + m^H)/2 written into ``out``: the one Hermitian part of an operator matrix.

    ``big`` bounds every |entry| of m: a Frobenius norm, or the largest
    diagonal entry of a PSD matrix.  Below ``_HALF_SUM_BOUND`` the sum cannot
    overflow, and the result is bit-identical to the out-of-place
    (m + m^H)/2.  Otherwise (NaN too) m/2 + m^H/2 is taken: it cannot
    overflow, and it rounds as the sum would have wherever no half is subnormal.
    """
    np.conjugate(m.T, out=out)
    if big < _HALF_SUM_BOUND:
        out += m
        out *= 0.5
    else:
        out *= 0.5
        out += m * 0.5
    return out


def _diagonal_max(m: np.ndarray) -> float:
    """The largest real diagonal entry: for a PSD matrix, a bound on every |entry|."""
    return max(m.diagonal().real.tolist())  # plain floats: cheaper than a reduction on a small matrix


@_nonconvergence("eigenvalues of the matrix")
def _check_psd(m: np.ndarray, work: np.ndarray, scale: float) -> None:
    """Raise DegenerateInput unless lambda_min(h) >= -PSD_RTOL * max(lambda_max(h), 0)
    for h = (m + m^H)/2; ``work`` is an N x N scratch array, and ``scale`` is ||m||_F.

    Where PSD_RTOL times the largest diagonal entry of h is not a normal float,
    the shift and the bound would underflow and the factorization would run in
    subnormal arithmetic.  There the test runs on a copy of m times 4^k, an
    exact power of four that brings ||m||_F into [1/4, 1) (:func:`_times_pow2`);
    the Hermitian part is formed after the scaling, because halving
    a subnormal rounds, and the decision is made in those units.  Converted
    back, both numbers of that refusal round to about -5e-324, so its message
    adds lambda_min/lambda_max.  Every other matrix is tested as it is.
    """
    h = _hermitian_part(m, work, scale)
    top = max(0.0, float(h.diagonal().real.max()))
    k = 0
    if 0.0 < top and PSD_RTOL * top < _TINY:
        k = -math.frexp(scale)[1] // 2
        m, scale = _times_pow2(m, 2 * k), math.ldexp(scale, 2 * k)
        h = _hermitian_part(m, work, scale)
        top = float(h.diagonal().real.max())
    h.flat[:: h.shape[0] + 1] += PSD_RTOL * top
    try:
        np.linalg.cholesky(h)
        return  # the factor exists: lambda_min(h) >= -shift >= the bound
    except np.linalg.LinAlgError:
        pass
    evals = np.linalg.eigvalsh(_hermitian_part(m, work, scale))  # not certified; unshifted again, eigvalsh decides
    lowest, highest = float(evals[0]), float(evals[-1])
    bound = -PSD_RTOL * max(highest, 0.0)
    if lowest < bound:
        ratio = f"; lambda_min/lambda_max = {lowest / highest:.3e}" if k else ""
        raise DegenerateInput(
            f"matrix is not positive semidefinite: min eigenvalue {math.ldexp(lowest, -2 * k)!r} is below "
            f"the bound {math.ldexp(bound, -2 * k)!r} (-PSD_RTOL * max eigenvalue){ratio}"
        )


class StateOperator:
    """Hermitian positive-semidefinite operator on a factored space, in one of two forms.

    Dense: ``StateOperator(dims, m)`` accepts a finite matrix m when
    ``||m - m^H||_F <= HERMITICITY_RTOL * ||m||_F`` and the Hermitian part
    h = (m + m^H)/2 has ``lambda_min >= -PSD_RTOL * max(lambda_max, 0)``.
    Positivity is certified by a Cholesky factor of h + delta*I with
    delta = ``PSD_RTOL * max(0, max diag h)``: since max diag h <= lambda_max,
    the factor exists only inside the accepted band.  When it does not
    exist, ``eigvalsh`` of h decides and names the eigenvalue that failed.
    The stored matrix is m itself, not h.

    Factored: :meth:`from_columns` stores rho = V diag(w) V^H for N x k
    columns V and k weights w, and checks it in O(N k).  ``factor`` holds
    the read-only pair (columns, weights), None for a dense operator;
    ``matrix`` assembles the N x N array on first use, and ``trace`` and
    :func:`partial_trace` never do.

    Both forms run one ``__post_init__``, which enforces ``MAX_AMBIENT_DIM``.
    Instances are immutable.
    """

    dims: FactoredDims
    factor: tuple[np.ndarray, np.ndarray] | None

    def __init__(self, dims: FactoredDims, matrix: np.ndarray) -> None:
        self._set(dims, matrix, None)

    @classmethod
    def _reduction(cls, dims: FactoredDims, matrix: np.ndarray) -> "StateOperator":
        """The dense operator ``matrix``, stored without the dense check: it is
        the package's own :func:`_reduced` of an accepted operator (see :func:`partial_trace`)."""
        op = cls.__new__(cls)
        object.__setattr__(op, "dims", dims)
        object.__setattr__(op, "_matrix", _freeze(matrix))
        object.__setattr__(op, "factor", None)
        return op

    @classmethod
    def from_columns(cls, dims: FactoredDims, columns: np.ndarray, weights: np.ndarray) -> "StateOperator":
        """The operator V diag(w) V^H, stored as its factor.

        V must be N x k with k >= 1 and finite entries, and w must hold k
        finite weights > 0.  Hermiticity and positivity need no check: for
        every x, <x|V diag(w) V^H|x> = sum_j w_j |<v_j|x>|^2 >= 0, and the
        operator equals its own adjoint term by term.  The trace
        sum_j w_j ||v_j||^2 must be finite; it bounds every entry
        (|rho_il| <= sqrt(rho_ii rho_ll)) and the Frobenius norm.
        """
        op = cls.__new__(cls)
        op._set(dims, None, (columns, weights))
        return op

    def _set(self, dims, matrix, factor) -> None:
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_matrix", matrix)
        object.__setattr__(self, "factor", factor)
        self.__post_init__()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __post_init__(self) -> None:
        n = self.dims.total
        if n > MAX_AMBIENT_DIM:
            raise DimensionMismatch(f"operator ambient dimension {n} exceeds cap {MAX_AMBIENT_DIM}")
        if self.factor is None:
            object.__setattr__(self, "_matrix", _freeze(_checked_matrix(self._matrix, n)))
        else:
            object.__setattr__(self, "factor", tuple(map(_freeze, _checked_factor(*self.factor, n))))

    @property
    def matrix(self) -> np.ndarray:
        """The N x N matrix, read-only; a factored operator assembles it once, on first use."""
        if self._matrix is None:
            object.__setattr__(self, "_matrix", _freeze(_assemble(*self.factor)))
        return self._matrix

    @property
    def trace(self) -> float:
        if self.factor is None:
            return float(np.trace(self._matrix).real)
        return _factor_trace(*self.factor)

    def __repr__(self) -> str:
        return f"StateOperator(dims={self.dims.dims}, trace={self.trace:.6g})"


def _checked_matrix(matrix, n: int) -> np.ndarray:
    """A copy of ``matrix`` as a validated dense operator (see :class:`StateOperator`)."""
    m = _complex(matrix, "matrix entries")
    if m.shape != (n, n):
        raise DimensionMismatch(f"matrix shape {m.shape} does not match ambient dim {n}")
    scale = frobenius(m)
    if not math.isfinite(scale):
        raise DegenerateInput(_norm_overflow(m, "matrix") or f"matrix has non-finite entries (Frobenius norm {scale!r})")
    # the one N x N work array, in m's layout so the elementwise passes run
    # contiguously: m^H, then m - m^H, then the Hermitian part
    work = np.conjugate(m.T, out=np.empty_like(m))
    with np.errstate(over="ignore"):  # an overflow is an asymmetry past any bound: refused below
        np.subtract(m, work, out=work)
    asymmetry = frobenius(work)
    if asymmetry > HERMITICITY_RTOL * scale:
        raise DegenerateInput(
            f"matrix is not Hermitian within tolerance: ||m - m^H||_F = {asymmetry:.3e} "
            f"exceeds HERMITICITY_RTOL * ||m||_F = {HERMITICITY_RTOL * scale:.3e}"
        )
    _check_psd(m, work, scale)
    return m


def _checked_factor(columns, weights, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Copies of ``columns`` and ``weights`` as a validated factor (see
    :meth:`StateOperator.from_columns`); O(N k)."""
    v = _complex(columns, "columns")
    if v.ndim != 2 or v.shape[0] != n:
        raise DimensionMismatch(f"columns shape {v.shape} is not {n} x k for ambient dim {n}")
    k = v.shape[1]
    if k < 1:
        raise DegenerateInput("a factored operator needs at least one column")
    w = _checked_weights(weights)
    if w.shape != (k,):
        raise DimensionMismatch(f"weights shape {w.shape} does not match {k} columns")
    scale = frobenius(v)
    if not math.isfinite(scale):
        raise DegenerateInput(_norm_overflow(v, "column") or f"columns have non-finite entries (Frobenius norm {scale!r})")
    trace = _factor_trace(v, w)
    if not math.isfinite(trace):
        raise DegenerateInput(f"operator trace overflows ({trace!r})")
    return v, w


def _norm_overflow(a: np.ndarray, what: str) -> str | None:
    """Why ``a``, whose Frobenius norm is not finite, is refused when every entry is
    finite and only the norm overflows; None when an entry is not finite.  Only
    this refusal path tests the entries."""
    if not np.isfinite(a).all():
        return None
    with np.errstate(over="ignore"):  # an |entry| past the float maximum reads inf
        big = float(np.abs(a).max())
    return f"{what} entries are finite but the Frobenius norm overflows (largest |entry| {big!r})"


def _source_dtype(values) -> np.dtype:
    """The dtype of ``np.asarray(values)``, but bool for a list or tuple that holds a bool, which
    asarray casts to a number; an ndarray or a scalar takes no extra pass."""
    if isinstance(values, (list, tuple)):
        if any(isinstance(x, (bool, np.bool_)) for x in np.asarray(values, object).flat):
            return np.dtype(bool)
    return np.asarray(values).dtype


def _checked_weights(weights) -> np.ndarray:
    """A float copy of ``weights``, each real, positive and finite (factors, decompositions and their terms)."""
    dtype = _source_dtype(weights)
    if dtype.kind not in "iuf":
        raise DegenerateInput(f"weights must be real numbers, got dtype {dtype}")
    w = np.array(weights, dtype=float)
    for j, x in enumerate(w.ravel().tolist()):
        if not 0.0 < x < math.inf:  # NaN fails too
            raise DegenerateInput(f"weight {j} must be positive and finite, got {x!r}")
    return w


def _checked_coeffs(values) -> np.ndarray:
    """A complex copy of ``values``, each a nonzero finite number (tridecompositions and their terms)."""
    z = _complex(values, "coefficients")
    for j, x in enumerate(z.ravel().tolist()):
        if not (cmath.isfinite(x) and x != 0):
            raise DegenerateInput(f"coefficient {j} must be nonzero and finite, got {x!r}")
    return z


def _non_unit_column(stacks: Sequence[np.ndarray]) -> tuple[int, int, float] | None:
    """The first (stack, column, norm) whose norm is not within ``KET_NORM_ATOL`` of 1 (NaN included),
    or None: the unit rule of every ket, for complex d x n stacks in F order (columns are float rows).

    A column with a real or imaginary part above 2 in magnitude is not unit.  It is never squared,
    and :func:`frobenius` reads its norm, so an entry of 1e200 is reported as a norm of 1e200.
    """
    for s, a in enumerate(stacks):
        f = a.T.view(float)
        huge = ()
        if not np.abs(f).max(initial=0.0) <= 2.0:  # NaN too; fmax below lets no NaN hide a huge part
            huge = np.flatnonzero(np.fmax.reduce(np.abs(f), axis=1) > 2.0).tolist()
            f = f.copy()
            f[huge] = 0.0
        for j, sq in enumerate(np.add.reduce(f * f, axis=1).tolist()):
            norm = frobenius(a[:, j]) if j in huge else math.sqrt(sq)
            if not abs(norm - 1.0) <= KET_NORM_ATOL:  # NaN fails too
                return s, j, norm
    return None


def _root_tensor(rho: StateOperator) -> np.ndarray:
    """W = V diag(w)^{1/2} of a factored operator, shaped (*dims, k): rho = W W^dagger."""
    v, w = rho.factor
    return (v * np.sqrt(w)).reshape(*rho.dims, w.size)


def _factor_trace(v: np.ndarray, w: np.ndarray) -> float:
    """Trace of V diag(w) V^H: sum_j w_j ||v_j||^2."""
    with np.errstate(over="ignore"):  # an overflow is reported by the caller's check
        return float(w @ np.einsum("ij,ij->j", v.conj(), v).real)


@dataclass(frozen=True, eq=False)
class ProductTerm:
    """One weighted product term w |a><a| (x) |b><b|."""

    weight: float
    a: Ket
    b: Ket

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", float(_checked_weights(self.weight)))

    @property
    def kets(self) -> tuple[Ket, Ket]:
        return (self.a, self.b)


@dataclass(frozen=True, eq=False)
class TriTerm:
    """One coefficient-weighted product term coeff |a b c>."""

    coeff: complex
    a: Ket
    b: Ket
    c: Ket

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeff", complex(_checked_coeffs(self.coeff)))

    @property
    def kets(self) -> tuple[Ket, Ket, Ket]:
        return (self.a, self.b, self.c)


def _column_ket(column: np.ndarray) -> Ket:
    """A ``Ket`` over a read-only stack column as it is: ``_store`` checked its norm as ``Ket`` does."""
    ket = object.__new__(Ket)
    object.__setattr__(ket, "amplitudes", column)
    return ket


@dataclass(frozen=True, eq=False, init=False)
class _Decomposition:
    """The one stored form of both decomposition types: ``stacks``, one read-only d_s x n
    matrix per factor whose columns are its kets in term order, and ``values``, the read-only
    n term values; ``terms`` is derived.  ``cls(dims, terms)`` stacks its terms, the private
    array door :meth:`_from_stacks` takes arrays, and both go through :meth:`_store`."""

    dims: FactoredDims
    stacks: tuple[np.ndarray, ...] = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __init__(self, dims: FactoredDims, terms: Sequence) -> None:
        # with the wrong factor count no term is read, so _store names the count first
        terms = tuple(terms) if len(dims) == self._nfac else ()
        for i, t in enumerate(terms):
            got = tuple(k.dim for k in t.kets)
            if got != dims.dims:
                raise DimensionMismatch(f"term {i} ket dims {got} do not match factors {dims.dims}")
        stacks = [np.array([t.kets[s].amplitudes for t in terms]).T for s in range(len(dims))]
        self._store(dims, stacks, np.array([getattr(t, self._value) for t in terms]))

    @classmethod
    def _from_stacks(cls, dims: FactoredDims, stacks: Sequence[np.ndarray], values) -> "_Decomposition":
        return cls.__new__(cls)._store(dims, stacks, values)

    def _store(self, dims: FactoredDims, stacks: Sequence[np.ndarray], values) -> "_Decomposition":
        """Check the factor count, n >= 1 valid values, d_s x n stacks and unit columns, as ``Ket`` does."""
        if len(dims) != self._nfac:
            raise DimensionMismatch(f"{self._noun} needs exactly {self._nfac} factors")
        if not np.size(values):
            raise DegenerateInput("a decomposition needs at least one term")
        values = self._checked_values(values)
        stacks = [_complex(a, "ket stacks", order="F") for a in stacks]  # the layout stacked terms had
        shapes = [a.shape for a in stacks]
        if values.ndim != 1 or shapes != [(d, values.size) for d in dims]:
            raise DimensionMismatch(f"ket stacks {shapes} do not match factors {dims.dims} x {values.size} terms")
        if bad := _non_unit_column(stacks):
            raise DegenerateInput("stack {} column {} has norm {!r}, not 1".format(*bad))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "stacks", tuple(map(_freeze, stacks)))
        object.__setattr__(self, "values", _freeze(values))
        return self

    @cached_property
    def terms(self) -> tuple:
        """One ``ProductTerm``/``TriTerm`` of ``Ket``\\ s per term, built from the stack columns on first read."""
        columns = (s.T for s in self.stacks)
        return tuple(self._term(v, *map(_column_ket, kets)) for v, *kets in zip(self.values.tolist(), *columns))

    @property
    def n(self) -> int:
        return self.values.size


class ProductDecomposition(_Decomposition):
    """Weighted sum of products of rank-1 projectors on a two-factor space.

    The constructors enforce the structural invariants (positive weights,
    matching dimensions).  The geometric hypotheses behind uniqueness
    (non-collinear ket sets, at least one set linearly independent) are
    tolerance-dependent and are checked by :func:`proddecomp.decomp.check_product_hypotheses`.
    ``stacks`` holds the a- and b-kets, ``values`` the weights.
    """

    _nfac, _noun, _term, _value = 2, "a product decomposition", ProductTerm, "weight"
    _checked_values = staticmethod(_checked_weights)

    @property
    def weight_sum(self) -> float:
        """The sum of the weights; inf, with no warning, past the float maximum."""
        with np.errstate(over="ignore"):
            return float(self.values.sum())

    def normalized(self) -> "ProductDecomposition":
        """Rescale weights to sum to 1 (a presentation choice, not required).  They are summed
        in units of 2^e (:func:`_weight_exponent`), so a sum past the float maximum normalizes too."""
        scaled = np.ldexp(self.values, -_weight_exponent(self.values))
        return ProductDecomposition._from_stacks(self.dims, self.stacks, scaled / scaled.sum())


class TriDecomposition(_Decomposition):
    """Coefficient-weighted sum of product kets on a three-factor space.

    Structural invariants only; the tolerance-dependent hypotheses (per-slot non-collinearity,
    two independent slots) are checked by :func:`proddecomp.decomp.check_tri_hypotheses`.
    ``stacks`` holds the a-, b- and c-kets, ``values`` the complex coefficients.
    """

    _nfac, _noun, _term, _value = 3, "a tridecomposition", TriTerm, "coeff"
    _checked_values = staticmethod(_checked_coeffs)


def _expect(kind: type, *decs) -> None:
    """DimensionMismatch unless each of ``decs`` is a ``kind``: the other type's stacks would be misread."""
    for d in decs:
        if not isinstance(d, kind):
            raise DimensionMismatch(f"expected {kind._noun}, got {type(d).__name__}")


def tensor_product(x: Ket, y: Ket) -> Ket:
    """Kronecker product with row-major convention out[j*dim(y)+k] = x[j]*y[k]."""
    return Ket(np.kron(x.amplitudes, y.amplitudes))


def column_stack(kets: Sequence[Ket]) -> np.ndarray:
    """Stack kets as the columns of a dense matrix."""
    if not kets:
        raise DegenerateInput("empty ket set")
    dim = kets[0].dim
    if any(k.dim != dim for k in kets):
        raise DimensionMismatch("kets in a set must share one dimension")
    return np.array([k.amplitudes for k in kets]).T


def product_columns(d: ProductDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Stacked product kets a_j (x) b_j as the columns of an N x n matrix, and a copy of the weights."""
    _expect(ProductDecomposition, d)
    a, b = d.stacks
    return np.einsum("in,kn->ikn", a, b).reshape(-1, d.n), d.values.copy()


def _assemble(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Symmetrized matrix (V w) V^dagger: the one way a factor becomes an N x N array."""
    m = (v * w) @ v.conj().T
    return _hermitian_part(m, np.empty_like(m), _diagonal_max(m))


def rho_matrix(d: ProductDecomposition) -> np.ndarray:
    """Bare symmetrized matrix (V w) V^dagger of the weighted sum of product
    projectors.  Hermitian PSD by construction; bit-identical to
    ``build_rho(d).matrix``.
    """
    return _assemble(*product_columns(d))


def build_rho(d: ProductDecomposition) -> StateOperator:
    """The weighted sum of product projectors as a factored operator.

    It stores the product kets a_j (x) b_j and the weights
    (:meth:`StateOperator.from_columns`), so building costs O(N n) and no
    N x N array exists until ``.matrix`` is read; that array is
    :func:`rho_matrix`, symmetrized to suppress rounding drift.  The trace
    equals the sum of the weights.
    """
    return StateOperator.from_columns(d.dims, *product_columns(d))


def partial_trace(rho: StateOperator, keep: Sequence[int]) -> StateOperator:
    """Trace out all factors not listed in ``keep`` (kept factors stay in order).

    ``keep`` must be a sequence holding a nonempty proper subset of the
    factor indices; anything else is DimensionMismatch.  The
    result is the dense operator :func:`_reduced`, stored without the dense
    check, since the reduction of an accepted operator is positive up to a
    band that follows from rho's own check.

    The band: write h for the Hermitian part of rho, N = d_K d_T for the
    ambient dimension (kept times traced), eps = PSD_RTOL and R = Tr_T h.
    R is the sum of d_T compressions of h, so lambda_min(R) >= d_T
    lambda_min(h) >= -d_T eps lambda_max(h).  And Tr R = Tr h >=
    lambda_max(h) + (N - 1) lambda_min(h) >= lambda_max(h) (1 - eps (N - 1)),
    while Tr R <= d_K lambda_max(R).  Together, lambda_min(R) >=
    -eps N / (1 - eps (N - 1)) lambda_max(R).  The trace adds up the small
    negative eigenvalues that rho's check allows, so R can fall outside the
    band -PSD_RTOL lambda_max(R) of a user's matrix: such a reduction is
    returned here, but :class:`StateOperator` refuses its matrix, and so
    does :func:`~proddecomp.fileio.load_operator` once it is saved.
    """
    dims = rho.dims.dims
    nfac = len(dims)
    try:
        entries = tuple(keep)
    except TypeError:
        raise DimensionMismatch(f"keep must be a sequence of factor indices, got {keep!r}") from None
    kept = tuple(sorted({_index(k, "factor index") for k in entries}))
    if not kept or len(kept) >= nfac:
        raise DimensionMismatch(f"keep must be a nonempty proper subset of factors, got {keep}")
    if any(k < 0 or k >= nfac for k in kept):
        raise DimensionMismatch(f"invalid subsystem indices {keep} for {nfac} factors")
    return StateOperator._reduction(FactoredDims(tuple(dims[i] for i in kept)), _reduced(rho, kept))


def _reduced(rho: StateOperator, kept: tuple[int, ...]) -> np.ndarray:
    """The symmetrized reduced matrix of ``rho`` on the sorted factor indices ``kept``, unvalidated.

    A factored operator is reduced from its factor, O(N k d) for k columns
    and kept dimension d, without its N x N matrix.
    """
    dims = rho.dims.dims
    nfac = len(dims)
    size = math.prod(dims[i] for i in kept)
    if rho.factor is None:
        letters = "abcdef"
        row = list(letters[:nfac])
        col = [letters[nfac + i] if i in kept else row[i] for i in range(nfac)]
        out = [row[i] for i in kept] + [col[i] for i in kept]
        subscripts = "".join(row) + "".join(col) + "->" + "".join(out)
        reduced = np.einsum(subscripts, rho.matrix.reshape(*dims, *dims)).reshape(size, size)
    else:
        # rho = W W^H for W = V diag(w)^{1/2}: with W's kept indices as rows
        # and the traced and term indices as columns, the reduction is M M^H
        traced = tuple(i for i in range(nfac) if i not in kept)
        m = _root_tensor(rho).transpose(*kept, *traced, nfac).reshape(size, -1)
        reduced = m @ m.conj().T
    return _hermitian_part(reduced, np.empty_like(reduced), _diagonal_max(reduced))


def _expansion(stacks: Sequence[np.ndarray], values: np.ndarray) -> tuple[np.ndarray, float]:
    """Raw vector sum_j values_j (x)_s stacks_s[:, j] over 2 or 3 slots, and its norm.

    The slots are combined pairwise (one ``einsum``) and the last one by a
    GEMM, in row-major Kronecker order.  A vector whose norm is at most
    ``_TRI_CANCEL_RTOL`` times sum_j |values_j| has cancelled and raises
    DegenerateInput; both sides of that rule are scale-safe.  An overflowing norm or sum
    raises before it, as an overflow.
    """
    n = values.size
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        total = float(np.abs(values).sum())
        acc = stacks[0] * values
        for s in stacks[1:-1]:
            acc = np.einsum("in,jn->ijn", acc, s).reshape(-1, n)
        v = (acc @ stacks[-1].T).reshape(-1)
    raw = frobenius(v)
    if not (math.isfinite(raw) and math.isfinite(total)):
        raise DegenerateInput(f"expansion vector overflows: norm {raw!r}, sum of coefficient magnitudes {total!r}")
    bound = _TRI_CANCEL_RTOL * total
    if raw <= bound:
        raise DegenerateInput(
            f"expansion vector cancels: norm {raw!r} is at most {bound!r} "
            f"(_TRI_CANCEL_RTOL * sum of coefficient magnitudes); degenerate input"
        )
    return v, raw


def build_tri_vector(t: TriDecomposition) -> tuple[Ket, float]:
    """Sum coeff_j * a_j (x) b_j (x) c_j; return the normalized ket and the raw norm.

    Callers needing the unnormalized vector multiply the ket amplitudes by
    the returned raw norm.  A cancelled sum signals degenerate input
    (:func:`_expansion`).
    """
    _expect(TriDecomposition, t)
    v, raw = _expansion(t.stacks, t.values)
    return Ket(_unit(v, raw)), raw


def bipartite_matrix(x: Ket, split: FactoredDims) -> np.ndarray:
    """Reshape a ket on a two-factor space to its d1 x d2 coefficient matrix."""
    if len(split) != 2 or split.total != x.dim:
        raise DimensionMismatch(f"split {split.dims} does not factor a dim-{x.dim} ket")
    return x.amplitudes.reshape(split[0], split[1])
