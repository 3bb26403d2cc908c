"""Collinearity, rank and support/null-space numerics."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, _nonconvergence
from .tensor import Ket, StateOperator, _expect, _freeze, _index, _reduced, column_stack

_MACHINE_EPS = float(np.finfo(float).eps)

#: Pairwise orthogonality tolerance for stored orthonormal bases.
ORTHO_ATOL = 1e-10


@dataclass(frozen=True)
class ToleranceConfig:
    """The one settable threshold (the CLI's ``--tol``), and the one table of the fixed ones.

    eps       the theorem's three decisions.  Collinear: unit kets with |<x|y>| >= 1 - eps,
              all through ``_collinear`` (the hypothesis checks' pairs in ``_slot_verdicts``
              and every paired overlap of a certified match).  Rank: the values of a spectrum
              > 0 and >= eps times its largest, counted by ``_support_count`` (ket stack ranks
              in ``_slot_verdicts``, support ranks in ``support_and_null``, Schmidt verdicts);
              extraction's n, the rank its Equal gate certifies, is the least with
              ||(lambda_{n+1}, ...)||_2 <= eps/2 * ||lambda(rho)||_2; Schmidt factors and
              extracted kets phase with ``fix_phase(eps=eps)``.
              Equal: operators or vectors with ||x - y|| <= eps * max(||x||, ||y||), relative at
              every scale, all through ``_equal`` (both matchers' gates, a match certificate's
              paired weights or |coefficients| against the two inputs' sums, ``relating_unitary``'s
              reduced operators and its residual, extraction's candidate against rho).

    Fixed, with the decision each makes and why no setting reads it:
    SKETCH_OVERSAMPLING 8     dense range finder columns beyond max(d1, d2): sampling, not a decision
    UNITARITY_ATOL 1e-8       what a ``UnitaryMatrix`` is: part of its input contract
    ORTHO_ATOL 1e-10          ``SubspaceBasis`` orthogonality, met by eigh's eigenvectors to rounding
    KET_NORM_ATOL 1e-12       a ``Ket`` has unit norm: part of the input contract
    HERMITICITY_RTOL, PSD_RTOL 1e-10  what a valid operator (or file) is, whatever ``--tol``
    _TRI_CANCEL_RTOL 1e-8     an expansion of norm <= it x sum |c_j| has cancelled to noise
    ``fix_phase`` eps 1e-8    the default phase pivot, the first |entry| above it, of a direct
                              call: ``_schmidt`` and extraction pass ``eps``
    generator margins         overlap <= 1 - 1e-3, condition <= 1e4, 200 draws: inside DEFAULT_TOL
    _BLOCK 8                  the verdict core pads a stack's rows to a multiple of it: array shape,
                              not a decision (zero rows change no verdict)
    gate rounding intervals   the three Equal gates' intervals, one rule (``decomp._decided``): not a
                              threshold; where it straddles eps or the _TRI_CANCEL_RTOL bound, the gate's
                              fallback decides (bipartite match ``_product_gap``, tripartite match
                              ``_expansion_gap``, factored extraction ``_factored_gap``), so it decides
                              nothing eps and that bound do not
    """

    eps: float = 1e-8

    def __post_init__(self) -> None:
        # below 100x machine epsilon, rank decisions would be noise
        if not (isinstance(self.eps, numbers.Real) and 100.0 * _MACHINE_EPS <= self.eps < 1.0):
            raise DegenerateInput(f"eps must be a number in [{100.0 * _MACHINE_EPS:.3g}, 1), got {self.eps!r}")
        object.__setattr__(self, "eps", float(self.eps))


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Orthonormal set of kets spanning a subspace of a factor space.

    The constructor stacks the validated vectors once, as the columns of
    a read-only ambient_dim x dim matrix that :meth:`columns` returns and
    :meth:`projector` reads.
    """

    ambient_dim: int
    vectors: tuple[Ket, ...]
    _columns: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if _index(self.ambient_dim, "ambient dimension") < 1:
            raise DimensionMismatch(f"ambient dimension must be positive, got {self.ambient_dim}")
        vecs = tuple(self.vectors)
        if len(vecs) > self.ambient_dim:
            raise DimensionMismatch(
                f"{len(vecs)} vectors cannot be orthonormal in dim {self.ambient_dim}"
            )
        for i, v in enumerate(vecs):
            if v.dim != self.ambient_dim:
                raise DimensionMismatch(f"vector {i} has dim {v.dim}, ambient is {self.ambient_dim}")
        m = np.array([v.amplitudes for v in vecs], dtype=complex).reshape(-1, self.ambient_dim)
        # row-major over the lower triangle: the first pair (j, i), j < i, by i
        rows, cols = np.nonzero(np.abs(m.conj() @ m.T) >= ORTHO_ATOL)
        pairs = [(j, i) for i, j in zip(rows.tolist(), cols.tolist()) if j < i]
        if pairs:
            raise DegenerateInput(f"basis vectors {pairs[0]} are not orthogonal")
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "_columns", _freeze(m.T))

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def columns(self) -> np.ndarray:
        """The basis vectors as the columns of a read-only ambient_dim x dim matrix."""
        return self._columns

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the spanned subspace."""
        m = self._columns
        return m @ m.conj().T


def fix_phase(v: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """Rotate a vector by a global phase so its first entry of magnitude above
    ``eps`` is real positive, that entry exactly |entry|; a vector with no such
    entry is returned as it is.

    A d x n stack has each column rotated, bit for bit as that column alone.
    """
    v = np.asarray(v, dtype=complex)
    if not v.size:
        return v.copy()
    m = v.reshape(len(v), -1)  # a lone vector as one column
    cols = np.arange(m.shape[1])
    big = np.abs(m) > eps
    at = big.argmax(axis=0)
    found = big[at, cols]
    pivot = np.where(found, m[at, cols], 1.0)
    # hypot, not np.abs: numpy's complex abs of an array can differ in the last
    # bit from abs() of one of its entries
    mag = np.hypot(pivot.real, pivot.imag)
    out = m * (mag / pivot)
    out[at, cols] = mag
    return np.where(found, out, m).reshape(v.shape)


def is_collinear(x: Ket, y: Ket, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when x and y agree up to a global phase: |<x|y>| >= 1 - eps.

    Equivalently min_alpha ||x - e^{i alpha} y|| <= sqrt(2 eps).  Two
    unit kets are collinear exactly when their rank-1 projectors coincide,
    so this predicate also decides equality of 1-projectors.  It has no
    rule of its own: it is ``not is_noncollinear_set((x, y), tol)``, the
    verdict of :func:`_slot_verdicts` on the pair.
    """
    return not is_noncollinear_set((x, y), tol)


def collinear_pairs(kets: Sequence[Ket], tol: ToleranceConfig = DEFAULT_TOL) -> list[tuple[int, int]]:
    """All unordered index pairs (i, j), i < j, that fail non-collinearity,
    in lexicographic order (:func:`_slot_verdicts` of the stacked set)."""
    _expect(ToleranceConfig, tol)
    if len(kets) < 2:
        return []
    return [(i, j) for _, i, j in _slot_verdicts([column_stack(kets)], tol)[0]]


def is_noncollinear_set(kets: Sequence[Ket], tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when no pair of the set is collinear."""
    if not kets:
        raise DegenerateInput("empty ket set")
    return not collinear_pairs(kets, tol)


def rank_and_independence(kets: Sequence[Ket], tol: ToleranceConfig = DEFAULT_TOL) -> tuple[int, bool]:
    """Numerical rank of the stacked set (:func:`_slot_verdicts`) and whether it
    is linearly independent."""
    rank = _slot_verdicts([column_stack(kets)], tol)[1][0]
    return rank, rank == len(kets)


def _collinear(overlap, tol: ToleranceConfig):
    """The Collinear decision on unit kets x and y from ``overlap`` = |<x|y>|, a float or
    an array of them: |<x|y>| >= 1 - eps.  The one collinearity rule: the hypothesis
    checks' collinear pairs (:func:`_slot_verdicts`) and a match certificate's paired
    overlaps (``decomp._certify``) both read it."""
    return overlap >= 1.0 - tol.eps


def _equal(gap: float, norm1: float, norm2: float, tol: ToleranceConfig) -> bool:
    """The Equal decision on x and y from ``gap`` = ||x - y|| and their norms:
    gap <= eps * max(||x||, ||y||).  A NaN or infinite gap (an overflow) reads as unequal."""
    return gap < np.inf and gap <= tol.eps * max(norm1, norm2)


def _support_count(values: Sequence[float], tol: ToleranceConfig) -> int:
    """The significance count of a short spectrum of plain floats: the values
    > 0 and >= eps times the largest, so an all-zero spectrum counts none.
    Ket-stack ranks (:func:`_slot_verdicts`), support ranks (:func:`support_and_null`)
    and Schmidt verdicts all read it."""
    cut = tol.eps * max(values, default=0.0)
    return len([v for v in values if v >= cut and v > 0.0])


#: The row block of the verdict core's canonical shapes: a d x n stack is zero-padded to d rounded
#: up to a multiple of it, n kept (:func:`_slot_verdicts`).  It shapes arrays and decides nothing.
_BLOCK = 8


@_nonconvergence("rank SVD")
def _slot_verdicts(
    stacks: Sequence[np.ndarray], tol: ToleranceConfig
) -> tuple[list[tuple[int, int, int]], list[int]]:
    """The collinear pairs and the numerical rank of every d_i x n_i stack of unit columns.

    Each stack is zero-padded to its canonical shape, which depends on its own
    shape only: d_i rounded up to a multiple of ``_BLOCK``, n_i kept.  The
    stacks of one canonical shape take one Gram pass and one SVD.  In exact
    arithmetic zero rows add no Gram entry and no singular value > 0, so they
    change no verdict.  numpy's stacked matmul and SVD run each matrix of a
    stack through the same BLAS and LAPACK call it gets alone, so a stack's
    verdicts do not depend on what it is batched with.  Pairs are the
    (stack, i, j) with i < j whose |<a_i|a_j>| :func:`_collinear` calls
    collinear, in lexicographic order.  A stack's rank is
    :func:`_support_count` of its singular values, counted in plain floats
    because the spectra are short.  It is not taken from the Gram eigenvalues,
    because a relative singular value of 1e-8 is a relative Gram eigenvalue
    of 1e-16, below double precision.  A ``tol`` that is no ToleranceConfig is
    DimensionMismatch, for every door that reaches this core.
    """
    _expect(ToleranceConfig, tol)
    groups: dict[tuple[int, int], list[int]] = {}
    for k, (d, n) in enumerate(a.shape for a in stacks):
        groups.setdefault((-(-d // _BLOCK) * _BLOCK, n), []).append(k)
    pairs, ranks = [], [0] * len(stacks)
    for shape, members in groups.items():
        x = np.zeros((len(members), *shape), dtype=complex)
        for i, k in enumerate(members):
            x[i, : len(stacks[k])] = stacks[k]
        hits = np.nonzero(_collinear(np.abs(x.conj().transpose(0, 2, 1) @ x), tol))
        pairs += [(members[s], i, j) for s, i, j in zip(*(h.tolist() for h in hits)) if i < j]
        for k, s in zip(members, np.linalg.svd(x, compute_uv=False).tolist()):
            ranks[k] = _support_count(s, tol)
    return sorted(pairs), ranks


@_nonconvergence("support eigendecomposition")
def support_and_null(
    rho: StateOperator, subsystem: int, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[SubspaceBasis, SubspaceBasis]:
    """Support and null space of an operator on one of its factors.

    Both are computed from the reduced operator h on that factor, the
    Hermitian part of the reduction (:func:`~proddecomp.tensor._reduced`)
    for every factor count, by one ``eigh``.  Its support rank r is
    :func:`_support_count` of those eigenvalues, so the support of the zero
    operator is empty.  The r eigenvectors with the largest eigenvalues span
    the support, in descending-eigenvalue order (ties in ascending index), and
    the remaining ones, ascending, the null space.
    """
    _expect(StateOperator, rho)
    _expect(ToleranceConfig, tol)
    nfac, subsystem = len(rho.dims), _index(subsystem, "subsystem")
    if not 0 <= subsystem < nfac:
        raise DimensionMismatch(f"subsystem {subsystem} out of range for {nfac} factors")
    evals, evecs = np.linalg.eigh(_reduced(rho, (subsystem,)))
    cut = evals.size - _support_count(evals.tolist(), tol)
    supp_idx = cut + np.argsort(-evals[cut:], kind="stable")
    ambient = rho.dims[subsystem]
    support = SubspaceBasis(ambient, tuple(Ket(evecs[:, i]) for i in supp_idx.tolist()))
    null = SubspaceBasis(ambient, tuple(Ket(evecs[:, i]) for i in range(cut)))
    return support, null

