"""Factorability testing, decomposition matching, blind extraction, instance
generation, and the degenerate-eigenbasis demonstration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateInput,
    DimensionMismatch,
    HypothesisViolation,
    NotExtractable,
    OperatorMismatch,
)
from .subspace import (
    DEFAULT_TOL,
    ToleranceConfig,
    _support_mask,
    fix_phase,
    stack_collinear_pairs,
    stack_rank,
)
from .tensor import (
    FactoredDims,
    Ket,
    ProductDecomposition,
    StateOperator,
    TriDecomposition,
    TriTerm,
    _expansion,
    _root_tensor,
    bipartite_matrix,
    build_rho,
    frobenius,
    partial_trace,
    product_columns,
    rho_matrix,  # noqa: F401 -- unused here; perfbench's tracer test looks it up as decomp.rho_matrix
    tensor_product,
)

#: Absolute tolerance for matched weights / coefficient magnitudes
#: (applied on the normalized-weight scale).
WEIGHT_ATOL = 1e-6

#: Relative reconstruction error required for a successful extraction.
RECONSTRUCTION_RTOL = 1e-6

#: Probes drawn before extraction gives up (one probe per attempt).
EXTRACTION_RETRIES = 8

#: Redraw a probe with two whitened eigenvalues closer than this times eps_rank times
#: max(1, largest magnitude).
RATIO_GAP_FACTOR = 1e3

#: Sketch columns drawn beyond the support rank n in the randomized range finder.
SKETCH_OVERSAMPLING = 8

_SLOT_NAMES = ("a", "b", "c")


@dataclass(frozen=True)
class TermCertificate:
    """Per-term evidence for a matched pair of decomposition terms.

    ``overlap_*`` are the inner products between the paired kets in each
    factor slot (unit magnitude up to tolerance when the match holds);
    ``overlap_c`` is None for bipartite matches.  Weights are the raw
    weights (or coefficient magnitudes) of the paired terms.
    """

    overlap_a: complex
    overlap_b: complex
    overlap_c: complex | None
    weight_first: float
    weight_second: float


@dataclass(frozen=True)
class MatchResult:
    """Certified equivalence between two decompositions.

    ``permutation[j]`` is the index of the first decomposition's term that
    the second decomposition's term ``j`` matches.  ``residual`` is the
    largest constraint violation observed while certifying.
    """

    n: int
    permutation: tuple[int, ...]
    per_term: tuple[TermCertificate, ...]
    residual: float

    def __post_init__(self) -> None:
        if sorted(self.permutation) != list(range(self.n)):
            raise HypothesisViolation(f"permutation {self.permutation} is not a bijection on 0..{self.n - 1}")
        if len(self.per_term) != self.n:
            raise DimensionMismatch("per-term certificates do not match the term count")


@dataclass(frozen=True)
class ExtractionReport:
    """Outcome of a successful blind extraction."""

    decomposition: ProductDecomposition
    reconstruction_error: float
    probes_used: int
    side: int  # factor with the larger reduced support rank (0 on a tie): its ket set is independent


@dataclass(frozen=True)
class DegeneracyReport:
    """Numbers behind the degenerate-eigenbasis demonstration."""

    eigenvalues: tuple[float, float, float, float]
    qform_residual: float
    q1_schmidt: tuple[float, float]
    q2_schmidt: tuple[float, float]
    q1_factorable: bool
    q2_factorable: bool
    tri_qform_residual: float
    notes: tuple[str, ...]


# ---------------------------------------------------------------------------
# hypothesis checks


def _slot_independence(
    d: ProductDecomposition | TriDecomposition, tol: ToleranceConfig, label: str
) -> tuple[bool, ...]:
    """Per-slot independence flags read off the decomposition's ``stacks``.

    Every slot is first checked for collinear pairs, from one Gram matrix
    per slot, raising on the first slot that has one and naming its first
    pair; then each slot's rank is taken from the singular values of its
    stack (:func:`~proddecomp.subspace.stack_rank`).
    """
    for s, a in enumerate(d.stacks):
        pairs = stack_collinear_pairs(a, tol)
        if pairs:
            raise HypothesisViolation(f"{label}: {_SLOT_NAMES[s]}-set collinear pair {pairs[0]}")
    return tuple(stack_rank(a, tol) == d.n for a in d.stacks)


def check_product_hypotheses(
    d: ProductDecomposition, tol: ToleranceConfig = DEFAULT_TOL, label: str = "decomposition"
) -> tuple[bool, bool]:
    """Check the uniqueness hypotheses of a weighted product decomposition.

    Each ket set must be non-collinear and at least one of them linearly
    independent.  Returns the (a_independent, b_independent) flags; raises
    HypothesisViolation naming the offending set and pair otherwise.
    """
    flags = _slot_independence(d, tol, label)
    if not any(flags):
        raise HypothesisViolation(f"{label}: neither ket set is linearly independent")
    return flags  # type: ignore[return-value]


def check_tri_hypotheses(
    t: TriDecomposition, tol: ToleranceConfig = DEFAULT_TOL, label: str = "tridecomposition"
) -> tuple[bool, bool, bool]:
    """Check the tridecomposition hypotheses.

    Every slot's ket set must be non-collinear and at least two of the
    three sets linearly independent.  Returns per-slot independence flags.
    """
    flags = _slot_independence(t, tol, label)
    if sum(flags) < 2:
        independent = [_SLOT_NAMES[s] for s in range(3) if flags[s]]
        raise HypothesisViolation(
            f"{label}: fewer than two linearly independent ket sets (independent: {independent})"
        )
    return flags  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# factorability (Schmidt rank 1)


def schmidt_values(x: Ket, split: FactoredDims) -> np.ndarray:
    """Singular values of the ket's coefficient matrix under the split."""
    return np.linalg.svd(bipartite_matrix(x, split), compute_uv=False)


def is_factorable(
    x: Ket, split: FactoredDims, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[bool, tuple[Ket, Ket] | None]:
    """Decide whether a bipartite ket is a single tensor product.

    The ket is factorable when its second Schmidt value is below
    eps_rank times the first.  On success the principal left/right
    singular vectors are returned as the factors, each phased so that its
    first significant component is real positive.
    """
    u, s, vh = np.linalg.svd(bipartite_matrix(x, split))
    second = float(s[1]) if s.size > 1 else 0.0
    if second >= tol.eps_rank * float(s[0]):
        return False, None
    left = Ket(fix_phase(u[:, 0], tol.eps_rank))
    right = Ket(fix_phase(vh[0, :], tol.eps_rank))
    return True, (left, right)


def split_pair_terms(
    coeffs: Sequence[complex],
    pair_kets: Sequence[Ket],
    third_kets: Sequence[Ket],
    split: FactoredDims,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> TriDecomposition:
    """Recast sum_k coeff_k |q_k d_k> with q_k on a two-factor space into a
    tridecomposition by factoring each q_k across ``split``.

    A non-factorable q_k is a hypothesis violation: the expansion cannot
    be compared term-by-term against genuine product-ket decompositions.
    """
    if not (len(coeffs) == len(pair_kets) == len(third_kets)):
        raise DimensionMismatch("coeffs, pair kets, and third kets must have equal lengths")
    terms = []
    for k, (z, q, d) in enumerate(zip(coeffs, pair_kets, third_kets)):
        ok, factors = is_factorable(q, split, tol)
        if not ok:
            sv = schmidt_values(q, split)
            raise HypothesisViolation(
                f"factorability hypothesis violated: term {k} first-slot ket is not a product "
                f"across factors {split.dims} (schmidt values {sv[0]:.6g}, {sv[1]:.6g})"
            )
        a, b = factors
        lam = complex(np.vdot(np.kron(a.amplitudes, b.amplitudes), q.amplitudes))
        terms.append(TriTerm(complex(z) * lam, a, b, d))
    dims = FactoredDims((split[0], split[1], third_kets[0].dim))
    return TriDecomposition(dims, tuple(terms))


# ---------------------------------------------------------------------------
# matching


def _certify_in_slot(
    d1: ProductDecomposition | TriDecomposition,
    d2: ProductDecomposition | TriDecomposition,
    slot: int,
    tol: ToleranceConfig,
    wscale=1.0,
    what="coefficient magnitude",
) -> MatchResult:
    """Certify term-wise equivalence by expansion in one independent slot.

    Reads only the decompositions' ``stacks`` and ``values``.  Expand the
    first decomposition's kets in ``slot`` over the second's by least
    squares on the two stored stacks; threshold each expansion column to
    its single significant coefficient, which defines the permutation; then
    certify collinearity in every slot and equality of the paired
    magnitudes |values| (weights or coefficient magnitudes) to
    WEIGHT_ATOL * max(wscale, w1, w2).  Each slot's overlaps
    <first_perm[k]|second_k> are one column-wise product over the permuted
    first stack.  Failures name the first failing term k of the second
    decomposition and, within it, check the expansion coefficient, then
    the overlaps slot by slot, then the magnitudes.  The residual is the
    largest violation observed across all certified constraints, with each
    weight difference taken relative to max(wscale, w1, w2), so it does not
    grow with the weight scale.
    """
    if d1.n != d2.n:
        raise HypothesisViolation(f"term-count mismatch after rank analysis: {d1.n} vs {d2.n}")
    n = d1.n
    name = _SLOT_NAMES[slot]

    first, second = d1.stacks[slot], d2.stacks[slot]
    sol, *_ = np.linalg.lstsq(second, first, rcond=None)
    residual = float(np.linalg.norm(second @ sol - first))

    # row k of |sol| is column k of |gamma| for first_j = sum_k gamma[j, k] second_k;
    # n is small, so these checks run on Python floats, not on tiny arrays
    perm: list[int] = []
    tops: list[float] = []
    for k, col in enumerate(np.abs(sol).tolist()):
        top = max(col)
        j = col.index(top)
        if top == 0.0:
            raise HypothesisViolation(
                f"factorability hypothesis violated: {name}-slot expansion column {k} vanishes"
            )
        significant = sum(x >= tol.eps_rank * top for x in col)
        if significant != 1:
            raise HypothesisViolation(
                f"factorability hypothesis violated: {name}-slot expansion column {k} "
                f"has {significant} significant coefficients"
            )
        residual = max([residual, *col[:j], *col[j + 1 :]])
        perm.append(j)
        tops.append(top)
    if len(set(perm)) != n:
        raise HypothesisViolation(f"candidate permutation {perm} is not a bijection")

    overlaps = [np.einsum("ij,ij->j", a1[:, perm].conj(), a2).tolist() for a1, a2 in zip(d1.stacks, d2.stacks)]
    mags1, mags2 = ([abs(v) for v in d.values.tolist()] for d in (d1, d2))
    certs = []
    for k, j in enumerate(perm):
        gdev = abs(tops[k] - 1.0)
        if gdev > tol.eps_col:
            raise HypothesisViolation(
                f"{name}-slot expansion coefficient for term pair ({j}, {k}) "
                f"has magnitude {tops[k]:.12g}, expected 1"
            )
        residual = max(residual, gdev)
        for s, o in enumerate(overlaps):
            deviation = abs(abs(o[k]) - 1.0)
            if deviation > tol.eps_col:
                raise HypothesisViolation(
                    f"collinearity certificate failed in slot {_SLOT_NAMES[s]} for term pair "
                    f"({j}, {k}): overlap magnitude {abs(o[k]):.12g}"
                )
            residual = max(residual, deviation)
        w1, w2 = mags1[j], mags2[k]
        dw, wbound = abs(w1 - w2), max(wscale, w1, w2)
        if dw > WEIGHT_ATOL * wbound:
            raise HypothesisViolation(f"{what} mismatch for term pair ({j}, {k}): {w1!r} vs {w2!r}")
        residual = max(residual, dw / wbound)
        certs.append(TermCertificate(*(o[k] for o in overlaps), *[None] * (3 - len(overlaps)), w1, w2))
    return MatchResult(n, tuple(perm), tuple(certs), residual)


def match_tridecomposition(
    t1: TriDecomposition, t2: TriDecomposition, tol: ToleranceConfig = DEFAULT_TOL
) -> MatchResult:
    """Certify that two tridecompositions of the same vector are term-wise
    collinear up to a permutation, with equal coefficient magnitudes.

    Pipeline: verify hypotheses on both inputs and that the two global
    vectors agree (including coefficient phases); pick a factor slot whose
    ket sets are independent in both inputs (search order c, a, b); then
    certify in that slot (:func:`_certify_in_slot`).
    """
    if t1.dims != t2.dims:
        raise DimensionMismatch(f"factor dims differ: {t1.dims.dims} vs {t2.dims.dims}")
    ind1 = check_tri_hypotheses(t1, tol, label="first tridecomposition")
    ind2 = check_tri_hypotheses(t2, tol, label="second tridecomposition")

    (v1, norm1), (v2, norm2) = _expansion(t1.stacks, t1.values), _expansion(t2.stacks, t2.values)
    gap = frobenius(v1 - v2)
    if gap > tol.eps_eq * max(1.0, norm1, norm2):
        raise OperatorMismatch(f"tripartite vectors differ by {gap:.3e} (coefficient phases included)")

    slot = next((s for s in (2, 0, 1) if ind1[s] and ind2[s]), None)
    if slot is None:
        raise HypothesisViolation("no factor slot is linearly independent in both tridecompositions")
    return _certify_in_slot(t1, t2, slot, tol)


def _factored_gap(
    first: tuple[np.ndarray, np.ndarray], second: tuple[np.ndarray, np.ndarray]
) -> tuple[float, float, float]:
    """||rho1 - rho2||_F, ||rho1||_F and ||rho2||_F for rho_i = V_i diag(w_i) V_i^dagger,
    given as (columns, weights) pairs, without forming either operator.

    With [V1 V2] = Q R, rho1 - rho2 = Q R diag(w1, -w2) R^dagger Q^dagger,
    so every norm is that of a small matrix from R: O(N k^2) time and
    O(N k) memory for k columns in all.  The Gram expansion of
    ||rho1 - rho2||_F^2 would instead cancel to rounding noise, losing half
    the digits, when rho1 = rho2.
    """
    (v1, w1), (v2, w2) = first, second
    r = np.linalg.qr(np.hstack([v1, v2]), mode="r")
    r1, r2 = r[:, : w1.size], r[:, w1.size :]
    gap = frobenius((r * np.concatenate([w1, -w2])) @ r.conj().T)
    return gap, frobenius((r1 * w1) @ r1.conj().T), frobenius((r2 * w2) @ r2.conj().T)


def match_bidecomposition(
    d1: ProductDecomposition, d2: ProductDecomposition, tol: ToleranceConfig = DEFAULT_TOL
) -> MatchResult:
    """Certify that two weighted product decompositions of the same operator
    are term-wise collinear up to a permutation, with equal weights.

    Pipeline: check hypotheses on both inputs; gate operator equality
    without forming either operator (:func:`_factored_gap`: O(N n^2) time,
    O(N n) memory, so not bound by ``MAX_AMBIENT_DIM``); pick the ket slot
    independent in both inputs (a, else b), which exists when the operators
    agree, since the a-set is independent exactly when rank Tr_B rho =
    rank rho; certify in that slot as :func:`match_tridecomposition` does,
    with weights compared to WEIGHT_ATOL times the larger weight sum (at
    least 1).  Certificates carry ``overlap_c = None``.
    """
    if d1.dims != d2.dims:
        raise DimensionMismatch(f"factor dims differ: {d1.dims.dims} vs {d2.dims.dims}")
    ind1 = check_product_hypotheses(d1, tol, label="first decomposition")
    ind2 = check_product_hypotheses(d2, tol, label="second decomposition")

    gap, norm1, norm2 = _factored_gap(product_columns(d1), product_columns(d2))
    if gap > tol.eps_eq * max(1.0, norm1, norm2):
        raise OperatorMismatch(f"operators differ by {gap:.3e} in Frobenius norm")

    slot = next((s for s in (0, 1) if ind1[s] and ind2[s]), None)
    if slot is None:
        raise HypothesisViolation("no ket set is linearly independent in both decompositions")
    wscale = max(1.0, d1.weight_sum, d2.weight_sum)
    return _certify_in_slot(d1, d2, slot, tol, wscale, "weight")


# ---------------------------------------------------------------------------
# blind extraction


def _rank_n_factor(rho: StateOperator, n: int, rng: np.random.Generator) -> np.ndarray:
    """A d1 x d2 x n tensor W with W W^dagger = rho on its top n eigenpairs.

    Randomized range finder (Halko, Martinsson & Tropp 2011): sketch
    Y = rho Omega with an N x (n + SKETCH_OVERSAMPLING) Gaussian Omega,
    Q = qr(Y), B = Q^dagger rho Q, and W = Q U Lambda^{1/2} from the top n
    eigenpairs of B.  Two GEMMs on the N x N matrix; nothing cubic in N.
    """
    big = rho.dims.total
    k = min(n + SKETCH_OVERSAMPLING, big)
    omega = rng.standard_normal((big, k)) + 1j * rng.standard_normal((big, k))
    q = np.linalg.qr(rho.matrix @ omega)[0]
    lam, u = np.linalg.eigh(q.conj().T @ rho.matrix @ q)
    return (q @ (u[:, -n:] * np.sqrt(np.maximum(lam[-n:], 0.0)))).reshape(*rho.dims, n)


def extract_decomposition(
    rho: StateOperator,
    tol: ToleranceConfig = DEFAULT_TOL,
    seed: int = 0,
    max_error: float = RECONSTRUCTION_RTOL,
) -> ExtractionReport:
    """Recover a weighted product decomposition from the operator alone.

    For rho = sum_j w_j |a_j b_j><a_j b_j| with w_j > 0, rank rho = n and
    the reduced operator on a factor has the rank of that factor's ket set,
    so the independent set the hypotheses ask for lies on the factor whose
    reduced operator has the larger support rank n (factor 0 on a tie,
    where both sets are independent).  Only that factor is tried.  Call its
    kets a_j and the other factor's b_j.

    Extraction runs on a factor W of rho (rho = W W^dagger, d_side x
    d_other x k), taken from the operator's form.  A factored operator
    (:meth:`StateOperator.from_columns`, which :func:`build_rho` returns)
    gives W = V diag(w)^{1/2} with k its column count, and no N x N array
    is formed, validated or read.  A dense one is sketched to rank k = n
    (:func:`_rank_n_factor`).  Everything below depends on rho only, not on
    which factor W is.  The reduced operator
    rho_A = A diag(w) A^dagger is whitened by W_A = U_A Lambda_A^{-1/2}
    (Anandkumar et al. 2014, applied to the Leurgans, Ross & Abel 1993
    scheme): for one random Hermitian probe X on the other factor,
    T = W_A^dagger Tr_other[rho (I (x) X)] W_A is an n x n Hermitian matrix
    with eigenvalues <b_j|X|b_j> and orthonormal eigenvectors v_t.  One
    ``eigh`` gives the a-directions rho_A W_A v_t and the duals W_A v_t,
    each rescaled so that <dual_t|a_t> = 1; the slice
    G_t = (<dual_t| (x) I) W has ||G_t||_F^2 = w_t and top left singular
    vector b_t.  A probe with nearly degenerate eigenvalues is redrawn, up
    to EXTRACTION_RETRIES probes, so ``probes_used`` counts one probe per
    attempt.  Success requires relative Frobenius reconstruction error at
    most ``max_error`` and a hypothesis-clean decomposition.  The error is
    measured against the stored matrix of a dense operator, and exactly,
    from one QR factor of the stacked columns (:func:`_factored_gap`), for
    a factored one.  Otherwise NotExtractable names the factor, both
    support ranks, the probes drawn and the best error reached.  The zero
    operator is rejected as rank 0 before any sketch.

    The support ranks count eigenvalues lambda > 0 with
    lambda >= eps_rank * lambda_max of each reduced operator, and build no
    ``Ket`` or ``SubspaceBasis``.  A factored operator takes them from the
    singular values s of W reshaped each way (lambda = s^2); the SVD of
    factor 0 is the one the probe step needs when factor 0 is the side, so
    the other factor costs one ``compute_uv=False`` call.  A dense operator
    takes them from ``eigvalsh`` of its two d x d partial traces.
    """
    if len(rho.dims) != 2:
        raise DimensionMismatch("extraction needs an operator on exactly 2 factors")
    if rho.factor is None:
        lams = [np.linalg.eigvalsh(partial_trace(rho, (s,)).matrix) for s in (0, 1)]
    else:
        # the singular values of W reshaped each way are the square roots of
        # the reduced operators' eigenvalues; factor 0's SVD is kept for its
        # vectors, used below when it is the side
        w = _root_tensor(rho)
        d1, d2, k = w.shape
        side_svd = np.linalg.svd(w.reshape(d1, d2 * k), full_matrices=False)
        s1 = np.linalg.svd(w.transpose(1, 0, 2).reshape(d2, d1 * k), compute_uv=False)
        lams = [s * s for s in (side_svd[1], s1)]
    ranks = [int(np.count_nonzero(_support_mask(lam, tol))) for lam in lams]
    side = int(ranks[1] > ranks[0])
    n = ranks[side]
    probes, best = 0, np.inf

    def account() -> str:  # what was tried, for the failure message
        if np.isfinite(best):
            reached = f"best reconstruction error {best:.3e}"
        else:
            reached = "every probe redrawn" if probes else "no probe drawn"
        return f"factor {side}, support ranks {ranks[0]} and {ranks[1]}, {probes} probes, {reached}"

    if n == 0:
        raise NotExtractable(f"not extractable under hypotheses: the operator has rank 0 ({account()})")
    rng = np.random.default_rng(seed)
    if rho.factor is None:
        w, scale = _rank_n_factor(rho, n, rng), frobenius(rho.matrix)
    w = w.transpose(1, 0, 2) if side == 1 else w
    da, db, k = w.shape
    # rho_A = W W^dagger over the b and factor indices: its eigenvectors and
    # square-root eigenvalues are the SVD of W, and Z = W_A^dagger W is vh
    if rho.factor is None or side == 1:
        side_svd = np.linalg.svd(w.reshape(da, db * k), full_matrices=False)
    u_a, s_a, vh = side_svd
    r = int(np.count_nonzero(s_a[:n] >= np.sqrt(tol.eps_rank) * s_a[0]))
    u_a, s_a, z = u_a[:, :r], s_a[:r], vh[:r]

    for _ in range(EXTRACTION_RETRIES):
        g = rng.standard_normal((db, db)) + 1j * rng.standard_normal((db, db))
        probe = (g + g.conj().T) / 2.0
        probes += 1
        # T = W_A^dagger Tr_other[rho (I (x) X)] W_A = sum_m Z_m X^T Z_m^dagger
        responses, v = np.linalg.eigh((probe @ z.reshape(r, db, k)).reshape(r, db * k) @ z.conj().T)
        gap = np.diff(responses).min(initial=np.inf)  # eigh sorts, so adjacent gaps suffice
        if gap < RATIO_GAP_FACTOR * tol.eps_rank * max(1.0, float(np.abs(responses).max())):
            continue  # nearly degenerate probe responses: redraw

        a_cols = (u_a * s_a) @ v
        a_cols /= np.linalg.norm(a_cols, axis=0, keepdims=True)
        a_cols = np.column_stack([fix_phase(a, tol.eps_rank) for a in a_cols.T])
        duals = (u_a / s_a) @ v
        # G_t = (<dual_t| (x) I) W / conj(<dual_t|a_t>), and <dual_t| W = v_t^dagger Z
        slices = (v.conj().T @ z) / np.einsum("jt,jt->t", duals.conj(), a_cols)[:, None]
        slices = slices.reshape(r, db, k)
        weights = np.einsum("tkm,tkm->t", slices.conj(), slices).real
        if min(weights) <= 0.0:
            continue
        b_cols = np.linalg.svd(slices, full_matrices=False)[0][:, :, 0]

        # heaviest term first; each ket divided by its own frobenius norm, as Ket.normalize does
        order = sorted(range(r), key=lambda t: -weights[t])
        kets = ([a_cols[:, t] for t in order], [fix_phase(b_cols[t], tol.eps_rank) for t in order])
        stacks = [np.array([c / frobenius(c) for c in cols]).T for cols in (kets if side == 0 else kets[::-1])]
        dec = ProductDecomposition._from_stacks(rho.dims, stacks, weights[order])
        if rho.factor is None:
            cols, wts = product_columns(dec)
            residual = (cols * wts) @ cols.conj().T  # the one N x N array of the extraction
            residual -= rho.matrix
            err = frobenius(residual) / scale
            del residual  # so that a redraw never holds two N x N arrays
        else:
            gap, norm, _ = _factored_gap(rho.factor, product_columns(dec))
            err = gap / norm
        best = min(best, err)
        if err <= max_error:
            try:
                check_product_hypotheses(dec, tol, label="extracted decomposition")
            except HypothesisViolation as exc:
                raise NotExtractable(f"not extractable under hypotheses: {exc} ({account()})") from exc
            return ExtractionReport(dec, err, probes, side)
    raise NotExtractable(
        f"not extractable under hypotheses: no reconstruction within {max_error:g} ({account()})"
    )


# ---------------------------------------------------------------------------
# instance generation

_GEN_MAX_OVERLAP = 1e-3  # pairwise |<x|y>| <= 1 - this margin
_GEN_MAX_COND = 1e4  # condition number bound for independent sets
_GEN_ATTEMPTS = 200


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _independent_kets(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """Well-conditioned, well-separated, linearly independent unit columns of a dim x count matrix."""
    for _ in range(_GEN_ATTEMPTS):
        g = rng.standard_normal((dim, count)) + 1j * rng.standard_normal((dim, count))
        q, _ = np.linalg.qr(g)
        mix = np.eye(count) + 0.3 * (
            rng.standard_normal((count, count)) + 1j * rng.standard_normal((count, count))
        )
        a = q[:, :count] @ mix
        a /= np.linalg.norm(a, axis=0, keepdims=True)
        sv = np.linalg.svd(a, compute_uv=False)
        if sv[-1] <= 0 or sv[0] / sv[-1] > _GEN_MAX_COND:
            continue
        gram = np.abs(a.conj().T @ a - np.eye(count))
        if count > 1 and gram.max() > 1.0 - _GEN_MAX_OVERLAP:
            continue
        return a
    raise DegenerateInput(f"failed to generate {count} independent kets in dim {dim}")


def _dependent_noncollinear_kets(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """Non-collinear unit columns of a dim x count matrix, necessarily linearly dependent.

    The kets span a subspace of dimension min(dim, count - 1), at least 2
    for count >= 3 and dim >= 2 (the caller's feasibility check), so
    dependence is forced while every pair stays well separated.
    """
    span = min(dim, count - 1)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, span)) + 1j * rng.standard_normal((dim, span)))
    for _ in range(_GEN_ATTEMPTS):
        a = np.column_stack([basis[:, :span] @ _random_unit(rng, span) for _ in range(count)])
        a /= np.linalg.norm(a, axis=0, keepdims=True)
        gram = np.abs(a.conj().T @ a - np.eye(count))
        if gram.max() > 1.0 - _GEN_MAX_OVERLAP:
            continue
        return a
    raise DegenerateInput(f"failed to generate {count} dependent non-collinear kets in dim {dim}")


BI_PROFILES = ("both-independent", "a-independent-only", "b-independent-only")
TRI_PROFILES = ("all-independent", "a-dependent", "b-dependent", "c-dependent")

#: The one slot whose ket set each profile makes dependent (None: every set independent).
_DEPENDENT_SLOT = {
    "both-independent": None,
    "a-independent-only": 1,
    "b-independent-only": 0,
    "all-independent": None,
    "a-dependent": 0,
    "b-dependent": 1,
    "c-dependent": 2,
}


def _slot_kets(
    n: int, dims: tuple[int, ...], seed: int, profile: str, profiles: tuple[str, ...]
) -> tuple[np.random.Generator, list[np.ndarray]]:
    """The seeded generator and a d_s x n ket stack per slot of ``dims``: dependent
    non-collinear ones in the profile's dependent slot, independent ones in
    every other.  Every slot is checked feasible before the first draw; the
    sets are drawn in slot order, and the caller draws the values next."""
    if profile not in profiles:
        raise ValueError(f"unknown profile {profile!r}; choose from {profiles}")
    if n < 1:
        raise ValueError(f"term count must be positive, got {n}")
    rng = np.random.default_rng(seed)
    dep = _DEPENDENT_SLOT[profile]
    for s, dim in enumerate(dims):
        if s == dep:
            if n < 3 or dim < 2:
                raise ValueError(
                    f"infeasible: a dependent non-collinear {_SLOT_NAMES[s]}-set needs n >= 3 and dim >= 2"
                )
        elif n > dim:
            raise ValueError(f"infeasible: {n} independent kets do not fit {_SLOT_NAMES[s]}-slot dim {dim}")
    return rng, [
        (_dependent_noncollinear_kets if s == dep else _independent_kets)(rng, dim, n) for s, dim in enumerate(dims)
    ]


def generate_instance(
    n: int,
    d1: int,
    d2: int,
    seed: int = 0,
    profile: str = "both-independent",
    tol: ToleranceConfig = DEFAULT_TOL,
) -> ProductDecomposition:
    """Random hypothesis-satisfying product decomposition, deterministic under seed.

    Profiles pin which ket sets are linearly independent; a
    "...-independent-only" profile makes the other set non-collinear but
    necessarily dependent (requires n >= 3).  Weights are positive and
    normalized to sum 1.  Generated sets keep safety margins (pairwise
    overlap and conditioning) well inside the default tolerances.
    """
    rng, stacks = _slot_kets(n, (d1, d2), seed, profile, BI_PROFILES)
    weights = rng.uniform(0.5, 1.5, n)
    weights /= weights.sum()
    dec = ProductDecomposition._from_stacks(FactoredDims((d1, d2)), stacks, weights)
    check_product_hypotheses(dec, tol, label="generated decomposition")
    return dec


def generate_tri_instance(
    n: int,
    d1: int,
    d2: int,
    d3: int,
    seed: int = 0,
    profile: str = "all-independent",
    tol: ToleranceConfig = DEFAULT_TOL,
) -> TriDecomposition:
    """Random hypothesis-satisfying tridecomposition, deterministic under seed.

    A "<slot>-dependent" profile makes that slot's set non-collinear but
    dependent (requires n >= 3) while the other two stay independent.
    Coefficients are nonzero complex with random phases.
    """
    dims = (d1, d2, d3)
    rng, stacks = _slot_kets(n, dims, seed, profile, TRI_PROFILES)
    mags = rng.uniform(0.5, 1.2, n)
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    tri = TriDecomposition._from_stacks(FactoredDims(dims), stacks, mags * phases)
    check_tri_hypotheses(tri, tol, label="generated tridecomposition")
    return tri


def phase_permuted_twin(
    dec: ProductDecomposition | TriDecomposition, seed: int = 0
) -> tuple[ProductDecomposition | TriDecomposition, tuple[int, ...]]:
    """Equivalent twin: terms permuted and each ket multiplied by a random phase.

    Returns (twin, perm) with twin term j built from term perm[j] of dec,
    so matching the twin (second) against the original (first) recovers
    exactly ``perm``.  A bipartite twin keeps each weight; a tripartite
    twin's coefficient absorbs the inverse of the product of its ket
    phases, keeping the global vector fixed including its phase.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dec.n)
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, (dec.n, len(dec.stacks))))
    # each ket times its phase as a row of the transposed stack: Ket.phased's product, bit for bit
    stacks = [(s.T[perm] * p[:, None]).T for s, p in zip(dec.stacks, phases.T)]
    values = dec.values[perm] / np.prod(phases, axis=1) if isinstance(dec, TriDecomposition) else dec.values[perm]
    return type(dec)._from_stacks(dec.dims, stacks, values), tuple(int(i) for i in perm)


# ---------------------------------------------------------------------------
# degenerate-eigenbasis demonstration


def demo_degeneracy(tol: ToleranceConfig = DEFAULT_TOL) -> DegeneracyReport:
    """Why a degenerate eigenbasis does not break uniqueness.

    Build the two-term half/half operator over orthonormal pairs, whose
    eigenvalues are (1/2, 1/2, 0, 0).  The degenerate eigenvectors can be
    rotated into q_{1,2} = (|a1 b1> +/- |a2 b2>)/sqrt(2), which reproduce
    the operator exactly, but both q kets fail factorability (Schmidt
    values 1/sqrt(2) each), so the rotated form is not a competing
    weighted product decomposition.  The same rotation applied to the
    tripartite lift hits the same obstruction.
    """
    a = [Ket.basis(2, 0), Ket.basis(2, 1)]
    b = [Ket.basis(2, 0), Ket.basis(2, 1)]
    dims = FactoredDims((2, 2))
    dec = ProductDecomposition._from_stacks(dims, (np.eye(2), np.eye(2)), [0.5, 0.5])
    rho = build_rho(dec)
    evals = tuple(float(v) for v in sorted(np.linalg.eigvalsh(rho.matrix), reverse=True))

    ab1 = tensor_product(a[0], b[0])
    ab2 = tensor_product(a[1], b[1])
    q1 = Ket.normalize(ab1.amplitudes + ab2.amplitudes)
    q2 = Ket.normalize(ab1.amplitudes - ab2.amplitudes)
    qform = 0.5 * q1.projector() + 0.5 * q2.projector()
    qform_residual = frobenius(qform - rho.matrix)

    q1_fact, _ = is_factorable(q1, dims, tol)
    q2_fact, _ = is_factorable(q2, dims, tol)
    q1_schmidt = tuple(float(v) for v in schmidt_values(q1, dims))
    q2_schmidt = tuple(float(v) for v in schmidt_values(q2, dims))

    c = [Ket.basis(2, 0), Ket.basis(2, 1)]
    psi = Ket.normalize(
        np.kron(ab1.amplitudes, c[0].amplitudes) + np.kron(ab2.amplitudes, c[1].amplitudes)
    )
    dplus = Ket.normalize(c[0].amplitudes + c[1].amplitudes)
    dminus = Ket.normalize(c[0].amplitudes - c[1].amplitudes)
    psi_q = Ket.normalize(
        np.kron(q1.amplitudes, dplus.amplitudes) + np.kron(q2.amplitudes, dminus.amplitudes)
    )
    tri_qform_residual = float(np.linalg.norm(psi.amplitudes - psi_q.amplitudes))

    notes = (
        "the rotated eigenvectors q1, q2 reproduce the operator but are entangled across "
        "the fixed factoring, so the q-form is not a competing weighted product decomposition",
        "the tripartite rotation onto (q1 d1, q2 d2) meets the same factorability obstruction; "
        "uniqueness is always relative to the chosen factoring",
    )
    return DegeneracyReport(
        eigenvalues=evals,  # type: ignore[arg-type]
        qform_residual=qform_residual,
        q1_schmidt=q1_schmidt,  # type: ignore[arg-type]
        q2_schmidt=q2_schmidt,  # type: ignore[arg-type]
        q1_factorable=q1_fact,
        q2_factorable=q2_fact,
        tri_qform_residual=tri_qform_residual,
        notes=notes,
    )
