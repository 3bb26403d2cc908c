"""Lifting weighted product decompositions to tripartite vectors, and the
unitary acting on the auxiliary factor that relates two co-purifications."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, OperatorMismatch, _nonconvergence
from .subspace import DEFAULT_TOL, ToleranceConfig, _equal
from .tensor import (
    FactoredDims,
    Ket,
    ProductDecomposition,
    TriDecomposition,
    _complex,
    _expect,
    _freeze,
    _index,
    bipartite_matrix,
    frobenius,
)

UNITARITY_ATOL = 1e-8


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """Dense unitary, checked at construction: ||U^dagger U - I||_F <= 1e-8."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        u = _complex(self.matrix, "unitary entries")
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise DimensionMismatch(f"unitary must be square, got shape {u.shape}")
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry gives a NaN or inf defect
            defect = frobenius(u.conj().T @ u - np.eye(u.shape[0]))
        if not defect <= UNITARITY_ATOL:  # NaN fails too
            raise DegenerateInput(f"matrix is not unitary: ||U^H U - I||_F = {defect:.3e}")
        object.__setattr__(self, "matrix", _freeze(u))

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])


def purify(d: ProductDecomposition, dim3: int) -> TriDecomposition:
    """Lift to a tripartite vector sum_j sqrt(w_j) |a_j b_j e_j>.

    The auxiliary kets are the first n standard-basis kets of a third
    factor of dimension ``dim3`` (an integer at least the term count).
    Tracing the purified projector over the third factor reproduces the
    operator built from ``d``.
    """
    _expect(ProductDecomposition, d)
    n, dims = d.n, FactoredDims((*d.dims, dim3))
    if dims[2] < n:
        raise DimensionMismatch(f"auxiliary dimension {dims[2]} is below the term count {n}")
    return TriDecomposition._from_stacks(dims, (*d.stacks, np.eye(dims[2], n)), np.sqrt(d.values))


@_nonconvergence("relating_unitary: its SVD")
def relating_unitary(
    psi: Ket, phi: Ket, split: FactoredDims, tol: ToleranceConfig = DEFAULT_TOL
) -> UnitaryMatrix:
    """Unitary U on the second factor with psi = (I (x) U) phi.

    Both kets must have equal reduced operators on the first factor
    (co-purifications): ||rho_psi - rho_phi||_F <= eps * max(||rho_psi||_F,
    ||rho_phi||_F).  For their d1 x d2 coefficient matrices,
    M_psi = M_phi U^T, and the unitary U^T minimizing ||M_psi - M_phi U^T||_F
    is the polar factor of M_phi^dagger M_psi: one SVD (orthogonal
    Procrustes, Schonemann 1966).  Only the action on the support is
    contract-bearing.  The result is decided by the same Equal rule
    (:func:`~proddecomp.subspace._equal`): unless ||psi - (I (x) U) phi|| <=
    eps * max(||psi||, ||(I (x) U) phi||), OperatorMismatch is raised, so
    ``tol`` sets both gates.  That can happen on valid pairs whose M_phi has
    a singular value in about [10^-8.5, 10^-7.5] at the default eps, whose
    square is then at rounding level in M_phi^dagger M_psi.
    """
    _expect(FactoredDims, split)
    _expect(ToleranceConfig, tol)
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
    if not _equal(gap, frobenius(red_psi), frobenius(red_phi), tol):
        raise OperatorMismatch(
            f"not co-purifications: reduced operators differ by {gap:.3e} in Frobenius norm"
        )

    a, _, bh = np.linalg.svd(m_phi.conj().T @ m_psi)
    u_t = a @ bh
    image = (m_phi @ u_t).reshape(-1)
    residual = frobenius(psi.amplitudes - image)
    if not _equal(residual, frobenius(psi.amplitudes), frobenius(image), tol):
        raise OperatorMismatch(
            f"unitary completion failed (residual {residual:.3e}); co-purification precondition violated"
        )
    return UnitaryMatrix(u_t.T)


def apply_on_factor(u: UnitaryMatrix, x: Ket, split: FactoredDims, factor: int) -> Ket:
    """Apply a unitary to one tensor factor: (I (x) ... U ... (x) I) x."""
    _expect(FactoredDims, split)
    factor = _index(factor, "factor")
    if not 0 <= factor < len(split):
        raise DimensionMismatch(f"factor {factor} out of range for split {split.dims}")
    if split.total != x.dim:
        raise DimensionMismatch(f"split {split.dims} does not factor a dim-{x.dim} ket")
    if u.dim != split[factor]:
        raise DimensionMismatch(f"unitary dim {u.dim} does not match factor dim {split[factor]}")
    t = x.amplitudes.reshape(split.dims)
    out = np.moveaxis(np.tensordot(u.matrix, t, axes=([1], [factor])), 0, factor)
    return Ket(out.reshape(-1))
