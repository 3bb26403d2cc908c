"""Lifting weighted product decompositions to tripartite vectors, and the
unitary acting on the auxiliary factor that relates two co-purifications."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, OperatorMismatch
from .subspace import DEFAULT_TOL, ToleranceConfig
from .tensor import (
    FactoredDims,
    Ket,
    ProductDecomposition,
    TriDecomposition,
    _freeze,
    bipartite_matrix,
    frobenius,
)

UNITARITY_ATOL = 1e-8
RESIDUAL_ATOL = 1e-8


def _reshape_convention_holds() -> bool:
    # row-major composite indexing: a product ket reshapes to an outer product
    a = np.array([0.6, 0.8])
    b = np.array([0.0, 1.0])
    return bool(np.array_equal(np.kron(a, b).reshape(2, 2), np.outer(a, b)))


assert _reshape_convention_holds(), "kron/reshape index conventions disagree"


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """Dense unitary, checked at construction: ||U^dagger U - I||_F <= 1e-8."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        u = np.array(self.matrix, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise DimensionMismatch(f"unitary must be square, got shape {u.shape}")
        defect = frobenius(u.conj().T @ u - np.eye(u.shape[0]))
        if defect > UNITARITY_ATOL:
            raise DegenerateInput(f"matrix is not unitary: ||U^H U - I||_F = {defect:.3e}")
        object.__setattr__(self, "matrix", _freeze(u))

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])


def purify(d: ProductDecomposition, dim3: int) -> TriDecomposition:
    """Lift to a tripartite vector sum_j sqrt(w_j) |a_j b_j e_j>.

    The auxiliary kets are the first n standard-basis kets of a third
    factor of dimension ``dim3`` (which must be at least the term count).
    Tracing the purified projector over the third factor reproduces the
    operator built from ``d``.
    """
    n = d.n
    if dim3 < n:
        raise DimensionMismatch(f"auxiliary dimension {dim3} is below the term count {n}")
    dims = FactoredDims((d.dims[0], d.dims[1], int(dim3)))
    return TriDecomposition._from_stacks(dims, (*d.stacks, np.eye(dim3, n)), np.sqrt(d.values))


def relating_unitary(
    psi: Ket, phi: Ket, split: FactoredDims, tol: ToleranceConfig = DEFAULT_TOL
) -> UnitaryMatrix:
    """Unitary U on the second factor with psi = (I (x) U) phi.

    Both kets must have equal reduced operators on the first factor
    (co-purifications).  For their d1 x d2 coefficient matrices,
    M_psi = M_phi U^T, and the unitary U^T minimizing ||M_psi - M_phi U^T||_F
    is the polar factor of M_phi^dagger M_psi: one SVD (orthogonal
    Procrustes, Schonemann 1966).  Only the action on the support is
    contract-bearing.  A residual above RESIDUAL_ATOL raises
    OperatorMismatch.  That can happen on valid pairs whose M_phi has a
    singular value in about [10^-8.5, 10^-7.5], whose square is then at
    rounding level in M_phi^dagger M_psi.
    """
    if len(split) != 2:
        raise DimensionMismatch("relating_unitary needs a two-factor split")
    if psi.dim != phi.dim or psi.dim != split.total:
        raise DimensionMismatch(
            f"kets of dim {psi.dim} and {phi.dim} do not fit split {split.dims}"
        )
    m_psi = bipartite_matrix(psi, split)
    m_phi = bipartite_matrix(phi, split)

    red_psi = m_psi @ m_psi.conj().T
    red_phi = m_phi @ m_phi.conj().T
    gap = frobenius(red_psi - red_phi)
    if gap > tol.eps_eq * max(1.0, frobenius(red_psi), frobenius(red_phi)):
        raise OperatorMismatch(
            f"not co-purifications: reduced operators differ by {gap:.3e} in Frobenius norm"
        )

    a, _, bh = np.linalg.svd(m_phi.conj().T @ m_psi)
    u_t = a @ bh
    residual = float(np.linalg.norm(psi.amplitudes - (m_phi @ u_t).reshape(-1)))
    if residual > RESIDUAL_ATOL:
        raise OperatorMismatch(
            f"unitary completion failed (residual {residual:.3e}); co-purification precondition violated"
        )
    return UnitaryMatrix(u_t.T)


def apply_on_factor(u: UnitaryMatrix, x: Ket, split: FactoredDims, factor: int) -> Ket:
    """Apply a unitary to one tensor factor: (I (x) ... U ... (x) I) x."""
    if not 0 <= factor < len(split):
        raise DimensionMismatch(f"factor {factor} out of range for split {split.dims}")
    if split.total != x.dim:
        raise DimensionMismatch(f"split {split.dims} does not factor a dim-{x.dim} ket")
    if u.dim != split[factor]:
        raise DimensionMismatch(f"unitary dim {u.dim} does not match factor dim {split[factor]}")
    t = x.amplitudes.reshape(split.dims)
    out = np.moveaxis(np.tensordot(u.matrix, t, axes=([1], [factor])), 0, factor)
    return Ket(out.reshape(-1))
