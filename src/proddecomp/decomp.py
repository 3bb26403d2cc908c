"""Factorability testing, decomposition matching, blind extraction, instance
generation, and the degenerate-eigenbasis demonstration."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateInput,
    DimensionMismatch,
    HypothesisViolation,
    NotExtractable,
    OperatorMismatch,
    _nonconvergence,
)
from .subspace import (
    _MACHINE_EPS,
    DEFAULT_TOL,
    ToleranceConfig,
    _collinear,
    _equal,
    _slot_verdicts,
    _support_count,
    fix_phase,
)
from .tensor import (
    _TRI_CANCEL_RTOL,
    FactoredDims,
    Ket,
    ProductDecomposition,
    StateOperator,
    TriDecomposition,
    _checked_coeffs,
    _diagonal_max,
    _expansion,
    _expect,
    _index,
    _root_tensor,
    _weight_exponent,
    build_rho,
    column_stack,
    frobenius,
    product_columns,
    rho_matrix,  # noqa: F401 -- unused here; perfbench's tracer test looks it up as decomp.rho_matrix
)

SKETCH_OVERSAMPLING = 8  # sketch columns beyond max(d1, d2); fixed, as ToleranceConfig's table says

_SLOT_NAMES = ("a", "b", "c")

_Interval = tuple[float, float, float]  # (value, low, high) of a norm that a gate decides on


def _rng(seed) -> np.random.Generator:
    """numpy's generator for ``seed``, a Python or numpy integer >= 0 (the rule of
    :func:`~proddecomp.tensor._index`, so a bool is none).  Anything else is DegenerateInput:
    numpy would also take None, a generator, a ``SeedSequence`` or a sequence of integers,
    and the first two give a different stream on every call."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DegenerateInput(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(int(seed))


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
    """Certified equivalence between two decompositions: term ``j`` of the second
    is collinear, slot by slot, with term ``permutation[j]`` of the first, and
    their weights (or coefficient magnitudes) agree.

    ``residual`` is the largest |1 - |paired overlap|| or paired weight
    difference over the larger of the two inputs' sums of |values| (``_certify``).
    A permutation that is not a bijection is refused.
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
    probes_used: int  # always 1: extraction draws one probe
    side: int  # factor with the larger sigma_n / sigma_1 of W (0 on a tie): its ket set is independent


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


def _hypotheses(
    checked: Sequence[tuple[ProductDecomposition | TriDecomposition, str]], tol: ToleranceConfig
) -> list[tuple[bool, ...]]:
    """Per-slot independence flags of each (decomposition, label) pair, from one
    :func:`~proddecomp.subspace._slot_verdicts` call over all their stacks.

    The inputs are judged in order, each first for collinear pairs (naming its
    first slot that has one and that slot's first pair), then by rank: a
    product decomposition needs one independent ket set, a tridecomposition
    two.  The first failure raises HypothesisViolation under its input's label.
    The pairs come in lexicographic (stack, i, j) order, so an input's first
    pair in the list is the first pair of its first slot that has one.
    """
    pairs, ranks = _slot_verdicts([a for d, _ in checked for a in d.stacks], tol)
    verdicts, start = [], 0
    for d, label in checked:
        slots = len(d.stacks)
        for s, i, j in pairs:
            if start <= s < start + slots:
                raise HypothesisViolation(f"{label}: {_SLOT_NAMES[s - start]}-set collinear pair {(i, j)}")
        flags = tuple(r == d.n for r in ranks[start : start + slots])
        if slots == 2 and not any(flags):
            raise HypothesisViolation(f"{label}: neither ket set is linearly independent")
        if slots == 3 and sum(flags) < 2:
            independent = [_SLOT_NAMES[s] for s in range(3) if flags[s]]
            raise HypothesisViolation(
                f"{label}: fewer than two linearly independent ket sets (independent: {independent})"
            )
        verdicts.append(flags)
        start += slots
    return verdicts


def check_product_hypotheses(
    d: ProductDecomposition, tol: ToleranceConfig = DEFAULT_TOL, label: str = "decomposition"
) -> tuple[bool, bool]:
    """Check the uniqueness hypotheses of a weighted product decomposition.

    Each ket set must be non-collinear and at least one of them linearly
    independent (:func:`_hypotheses`).  Returns the (a_independent,
    b_independent) flags; raises HypothesisViolation naming the offending
    set and pair otherwise.
    """
    _expect(ProductDecomposition, d)
    return _hypotheses(((d, label),), tol)[0]  # type: ignore[return-value]


def check_tri_hypotheses(
    t: TriDecomposition, tol: ToleranceConfig = DEFAULT_TOL, label: str = "tridecomposition"
) -> tuple[bool, bool, bool]:
    """Check the tridecomposition hypotheses.

    Every slot's ket set must be non-collinear and at least two of the
    three sets linearly independent (:func:`_hypotheses`).  Returns per-slot
    independence flags.
    """
    _expect(TriDecomposition, t)
    return _hypotheses(((t, label),), tol)[0]  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# factorability (Schmidt rank 1)


@_nonconvergence("Schmidt decomposition")
def _schmidt(q: np.ndarray, split: FactoredDims, tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Schmidt values, product mask and leading factors of the n kets of an N x n stack.

    One batched SVD of the n d1 x d2 coefficient matrices gives the n x min(d1, d2)
    Schmidt values s; ket k is a product when :func:`~proddecomp.subspace._support_count`
    of s[k] is 1, i.e. s[k, 1] < eps * s[k, 0].  The
    principal left and right singular vectors come back as d1 x n and d2 x n stacks,
    each column phased by :func:`~proddecomp.subspace.fix_phase`.  An SVD that does
    not converge raises DegenerateInput.
    """
    _expect(FactoredDims, split)
    _expect(ToleranceConfig, tol)
    if len(split) != 2 or split.total != q.shape[0]:
        raise DimensionMismatch(f"split {split.dims} does not factor a dim-{q.shape[0]} ket")
    u, s, vh = np.linalg.svd(q.T.reshape(-1, *split))
    factors = (fix_phase(u[:, :, 0].T, tol.eps), fix_phase(vh[:, 0].T, tol.eps))
    return s, np.array([_support_count(row, tol) == 1 for row in s.tolist()], dtype=bool), factors


def schmidt_values(x: Ket, split: FactoredDims) -> np.ndarray:
    """Singular values of the ket's coefficient matrix under the split (:func:`_schmidt`)."""
    return _schmidt(x.amplitudes[:, None], split, DEFAULT_TOL)[0][0]


def is_factorable(
    x: Ket, split: FactoredDims, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[bool, tuple[Ket, Ket] | None]:
    """Decide whether a bipartite ket is a single tensor product (:func:`_schmidt`).

    The ket is factorable when its second Schmidt value is below
    eps times the first.  On success the principal left/right
    singular vectors are returned as the factors, each phased so that its
    first significant component is real positive.
    """
    _, product, factors = _schmidt(x.amplitudes[:, None], split, tol)
    return (True, tuple(Ket(f[:, 0]) for f in factors)) if product[0] else (False, None)


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
    The ket lists are stacked and recast by :func:`_split_pairs`.
    """
    if not (len(coeffs) == len(pair_kets) == len(third_kets)):
        raise DimensionMismatch("coeffs, pair kets, and third kets must have equal lengths")
    stacks = (column_stack(pair_kets), column_stack(third_kets))
    return _split_pairs(stacks, _checked_coeffs(coeffs), split, tol)


def _split_pairs(stacks, values: np.ndarray, split: FactoredDims, tol: ToleranceConfig) -> TriDecomposition:
    """:func:`split_pair_terms` on an N x n pair stack q and a d x n third stack: one :func:`_schmidt`
    call factors every q_k into a_k (x) b_k, coefficient k becomes values_k <a_k (x) b_k|q_k>, and a
    failure quotes the Schmidt values that the verdict compared."""
    q, d = stacks
    s, product, (a, b) = _schmidt(q, split, tol)
    if not product.all():
        k = int(np.argmin(product))
        raise HypothesisViolation(
            f"factorability hypothesis violated: term {k} first-slot ket is not a product "
            f"across factors {split.dims} (schmidt values {s[k, 0]:.6g}, {s[k, 1]:.6g})"
        )
    overlaps = np.einsum("ik,jk,ijk->k", a.conj(), b.conj(), q.reshape(*split, -1))
    return TriDecomposition._from_stacks(FactoredDims((*split, d.shape[0])), (a, b, d), values * overlaps)


# ---------------------------------------------------------------------------
# matching


def _pairing(
    d1: ProductDecomposition | TriDecomposition, d2: ProductDecomposition | TriDecomposition
) -> tuple[np.ndarray, np.ndarray]:
    """The pairing perm and the paired overlaps, from the n1 x n2 cross-Gram matrix
    S1^H S2 of each slot: term k of the second input pairs with the term perm[k] of the
    first that maximizes the product over slots of |<first_j|second_k>|, and row s of the
    slots x n2 overlaps holds entries (perm[k], k) of slot s's Gram, <first_perm[k]|second_k>."""
    grams = np.array([a1.conj().T @ a2 for a1, a2 in zip(d1.stacks, d2.stacks)])
    perm = np.abs(grams).prod(0).argmax(0)  # prod multiplies the slots left to right
    return perm, grams[:, perm, np.arange(d2.n)]


def _certify(
    d1: ProductDecomposition | TriDecomposition,
    d2: ProductDecomposition | TriDecomposition,
    pairing: tuple[np.ndarray, np.ndarray],
    exponent: int,
    tol: ToleranceConfig,
) -> MatchResult:
    """Certify that the two decompositions agree term by term: the claim a
    :class:`MatchResult` makes, decided from the ``stacks`` and ``values`` alone.

    ``pairing`` is :func:`_pairing` of the two inputs: term k of the second
    input pairs with the term perm[k] of the first, and each slot's paired
    overlaps <first_perm[k]|second_k> are entries (perm[k], k) of its
    cross-Gram, which the pairing reads once.  Every one of them must pass the one Collinear rule
    (:func:`~proddecomp.subspace._collinear`) that the hypothesis checks
    read.  The paired magnitudes |values| (weights of a
    product decomposition, coefficient magnitudes of a tridecomposition,
    named so in the message) must pass the one Equal rule
    (:func:`~proddecomp.subspace._equal`) on their difference and the two
    inputs' sums of |values|: |w1 - w2| <= eps * max(sum1, sum2), relative
    at every scale.  The magnitudes and both sums are read in units of
    2^exponent, the exponent of the inputs' largest |value|
    (:func:`~proddecomp.tensor._weight_exponent`) that the matcher's gate
    already read: exact scalings that keep
    a sum past the float maximum finite and leave every comparison and ratio
    as it is; certificates and messages carry the magnitudes as stored.
    Inputs with different term counts are refused first, naming both counts;
    each matcher calls this only once its equality gate has passed.
    Failures name the first failing term k of the second decomposition and,
    within it, check the overlaps slot by slot, then the magnitudes; a
    pairing that is not a bijection is refused by :class:`MatchResult`.  The
    residual is the largest |1 - |paired overlap|| or weight difference over
    max(sum1, sum2), so it does not grow or shrink with the weight scale.
    """
    what, gated = (
        ("weight", "operators") if isinstance(d1, ProductDecomposition) else ("coefficient magnitude", "vectors")
    )
    if d1.n != d2.n:
        raise HypothesisViolation(f"term counts differ, {d1.n} vs {d2.n}, although the {gated} agree within eps")
    perm, paired = pairing
    perm = perm.tolist()
    # row k holds term k's overlaps; n is small, so the checks run on Python floats, not on tiny arrays
    overlaps = paired.T.tolist()
    mags1, mags2 = ([abs(v) for v in d.values.tolist()] for d in (d1, d2))
    sum1, sum2 = (float(np.ldexp(np.abs(d.values), -exponent).sum()) for d in (d1, d2))
    pad = (None,) * (3 - len(d1.stacks))
    residual, certs = 0.0, []
    for k, (j, row, w2) in enumerate(zip(perm, overlaps, mags2)):
        for s, o in enumerate(row):
            if not _collinear(abs(o), tol):
                raise HypothesisViolation(
                    f"collinearity certificate failed in slot {_SLOT_NAMES[s]} for term pair "
                    f"({j}, {k}): overlap magnitude {abs(o):.12g}"
                )
        w1 = mags1[j]
        dw = abs(math.ldexp(w1, -exponent) - math.ldexp(w2, -exponent))
        if not _equal(dw, sum1, sum2, tol):
            raise HypothesisViolation(f"{what} mismatch for term pair ({j}, {k}): {w1!r} vs {w2!r}")
        residual = max(residual, *(abs(1.0 - abs(o)) for o in row), dw / max(sum1, sum2))
        certs.append(TermCertificate(*row, *pad, w1, w2))
    return MatchResult(d1.n, tuple(perm), tuple(certs), residual)


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u the unit roundoff: the relative bound on k roundings in a
    row, from which every interval of :func:`_decided` is built."""
    u = _MACHINE_EPS / 2.0
    return k * u / (1.0 - k * u)


def _root_interval(q: float, slack2: float, err: float, rel: float) -> _Interval:
    """The interval of a norm from its computed square ``q``: q is within ``slack2`` of the
    squared norm of what the computed quantities represent, that lies within ``err`` of the
    norm sought, and a relative ``rel`` covers the rest (0 where nothing is left)."""
    low, high = math.sqrt(max(q - slack2, 0.0)) - err, math.sqrt(max(q + slack2, 0.0)) + err
    return math.sqrt(max(q, 0.0)), low * (1.0 - rel), high * (1.0 + rel)


def _decided(
    gap: _Interval, norm1: _Interval, norm2: _Interval, tol: ToleranceConfig, rel: float
) -> tuple[float, float, float] | None:
    """The values of the (value, low, high) triples of ||x - y||, ||x|| and ||y|| when their
    intervals decide the Equal rule at ``tol``; None when they do not.  The one decision rule of
    the three equality gates (:func:`_paired_gap`, :func:`_paired_tri_gap`, :func:`_residual_gap`).

    Each interval is a rounding bound, not a tolerance (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, section 3.1, through :func:`_gamma`): it holds the exact value,
    and the one the gate's fallback computes.  The values are returned only when the gap's
    interval lies wholly on one side of eps * max(||x||, ||y||) over the norms' intervals, with
    a relative margin ``rel`` for the rounding of the norms past their intervals.  So
    :func:`~proddecomp.subspace._equal` of the result is the exact decision, and the
    fallback's; where the interval straddles the threshold, the gate's fallback decides, so the
    bound decides nothing eps does not.
    """
    eps = tol.eps
    if gap[2] <= eps * max(norm1[1], norm2[1]) * (1.0 - rel) or gap[1] > eps * max(norm1[2], norm2[2]) * (1.0 + rel):
        return gap[0], norm1[0], norm2[0]
    return None


def _slot_gram(
    d1: ProductDecomposition | TriDecomposition,
    d2: ProductDecomposition | TriDecomposition,
    pairing: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The Hadamard Gram G = G_1 o ... o G_S of the product columns of the paired slot
    differences of two 2- or 3-slot decompositions, and the S slot Grams G_s, each m x m for
    m = n1 + S n2.

    ``pairing`` is :func:`_pairing` of the two inputs.  For term k of the second input, j =
    perm[k] and slot s, o_s = <s1_j|s2_k> is its paired overlap and ds_k = s2_k - o_s s1_j its
    slot difference.  Replacing the slots' second kets one at a time, last slot first, telescopes
    the product of the second input's term exactly (alpha, beta and gamma the a-, b- and c-slot
    overlaps; j and k dropped):
    a2 (x) b2 = alpha beta a1 (x) b1 + alpha a1 (x) db + da (x) b2, and
    a2 (x) b2 (x) c2 = alpha beta gamma a1 (x) b1 (x) c1 + alpha beta a1 (x) b1 (x) dc
    + alpha a1 (x) db (x) c2 + da (x) b2 (x) c2.
    The columns are the first input's n1 product kets, then one block of n2 per term of the
    sum, in that order: slot s holds its first input's stack, then s1_perm[k] in the blocks
    before its difference, ds_k, and s2_k after it.  The Gram of product columns is the Hadamard
    product of the slot Grams (Kolda & Bader, SIAM Rev. 51, 2009, section 2.6), taken slot by
    slot from the left.  Where the inputs agree the differences are small, so no term cancels
    as the plain Gram expansion of the gap does.
    """
    rows, overlaps = pairing
    cols = []
    for s, (first, second, o) in enumerate(zip(d1.stacks, d2.stacks, overlaps)):
        paired = first.take(rows, 1)
        cols.append(np.concatenate((first, *[paired] * (len(overlaps) - 1 - s), second - paired * o, *[second] * s), 1))
    grams = [p.conj().T @ p for p in cols]
    return math.prod(grams[1:], start=grams[0]), grams


def _factored_gap(
    first: tuple[np.ndarray, np.ndarray], second: tuple[np.ndarray, np.ndarray]
) -> tuple[float, float, float]:
    """||rho1 - rho2||_F, ||rho1||_F and ||rho2||_F for rho_i = V_i diag(w_i) V_i^dagger, given
    as (columns, weights) pairs (V_i, w_i): factored extraction's fallback, which decides where
    :func:`_residual_gap` cannot, and the last step of :func:`_product_gap`.

    With [V1 V2] = Q [R1 R2] from one ``qr(mode="r")`` (O(N k^2) time and O(N k) memory for
    k columns in all, and no operator formed), rho_i = Q R_i diag(w_i) R_i^dagger Q^dagger, so
    every norm is that of a small matrix: the two products R_i diag(w_i) R_i^dagger and their
    difference, one :func:`frobenius` call each.  The Gram expansion of ||rho1 - rho2||_F^2
    would instead cancel to rounding noise, losing half the digits, when rho1 = rho2.
    """
    (v1, w1), (v2, w2) = first, second
    r = np.linalg.qr(np.hstack([v1, v2]), mode="r")
    m1, m2 = ((r_i * w_i) @ r_i.conj().T for r_i, w_i in ((r[:, : w1.size], w1), (r[:, w1.size :], w2)))
    return frobenius(m1 - m2), frobenius(m1), frobenius(m2)


def _product_gap(d1: ProductDecomposition, d2: ProductDecomposition, exponent: int = 0) -> tuple[float, float, float]:
    """:func:`_factored_gap` for the operators of two product decompositions, read
    off their d_s x n stacks alone, with no N-row array: the bipartite gate's
    fallback, which decides where :func:`_paired_gap` cannot.

    For k = n1 + n2, one batched ``qr(mode="r")`` of the two slots' d_s x k
    blocks [S2_s S1_s], zero-padded to one shape, gives [S2_s S1_s] = Q_s R_s;
    R_s keeps its min(d_s, k) rows, since zero rows add nothing to an R
    factor.  The product columns are then
    [V2 V1] = (Q_a (x) Q_b)(R_a (.) R_b), with (.) the column-wise Kronecker
    (Khatri-Rao) product; Q_a (x) Q_b has orthonormal columns, so the
    min(d_a, k) min(d_b, k) x k columns R_a (.) R_b, split as [V2 V1] is, give
    :func:`_factored_gap` the norms of [V2 V1]'s operators (the Gram matrix of
    Khatri-Rao columns is the Hadamard product of the slot Grams; Kolda & Bader,
    SIAM Rev. 51, 2009, section 2.6).  The gap is symmetric, and the two
    operator norms come back in argument order.  The weights, and so the three
    norms, are taken in units of 2^exponent.
    """
    k = d1.n + d2.n
    x = np.zeros((2, max(d1.dims), k), dtype=complex)
    for s, dim in enumerate(d1.dims):
        x[s, :dim, : d2.n] = d2.stacks[s]
        x[s, :dim, d2.n :] = d1.stacks[s]
    r = np.linalg.qr(x, mode="r")
    r_a, r_b = (r[s, : min(dim, k)] for s, dim in enumerate(d1.dims))
    khatri_rao = (r_a[:, None] * r_b).reshape(-1, k)
    w1, w2 = (np.ldexp(d.values, -exponent) for d in (d1, d2))
    gap, norm2, norm1 = _factored_gap((khatri_rao[:, : d2.n], w2), (khatri_rao[:, d2.n :], w1))
    return gap, norm1, norm2


def _paired_gap(
    d1: ProductDecomposition,
    d2: ProductDecomposition,
    pairing: tuple[np.ndarray, np.ndarray],
    exponent: int,
    tol: ToleranceConfig,
) -> tuple[float, float, float] | None:
    """||rho1 - rho2||_F, ||rho1||_F and ||rho2||_F, in units of 2^exponent, where their
    rounding bounds decide the Equal rule at ``tol`` (:func:`_decided`); None where they do not.

    In the m = n1 + 2 n2 product columns P of :func:`_slot_gram` and their Gram G,
    rho1 - rho2 = P C P^H for a Hermitian m x m C: diag(w1) minus sum_k w2_k c_k c_k^H,
    c_k holding alpha_k beta_k, alpha_k and 1 at the three columns of term k.  Then
    ||rho1 - rho2||_F^2 = tr(C G C G), and ||rho_i||_F^2 = w_i^T (|A_i^H A_i|^2 o |B_i^H B_i|^2) w_i,
    a form of nonnegative terms.

    Bounds (nu_i = sqrt(G_ii)): the squared gap is within 2 gamma_L (nu^T |C| nu)^2,
    L = m^2 + 2(m + d_a + d_b) + 64, of that of the operators the computed P and C represent
    (C taken as its Hermitian part, which is exactly Hermitian in floating point, so that
    tr(CGCG) is the squared norm of P C P^H: the GEMM that forms C leaves rounding on its
    imaginary diagonal, and that can take the trace of a twin below zero), and those lie within
    gamma_{n2+64} sum w2 <= gamma_{n2+64} sqrt(n2) ||rho2||_F of rho1 - rho2, the rounding of the
    differences and of C's first diagonal block (the kets are unit, to 1e-12).  The norms enter
    as points, each within the margin, a relative gamma_{4 n (d_a + d_b + 16)}.  No ``linalg``
    routine runs, and no array has more than max(d_a, d_b, m) rows.
    """
    rows, (alpha, beta) = pairing
    n1, n2 = d1.n, d2.n
    m, cols = n1 + 2 * n2, np.arange(n2)
    g, (_, gram_b) = _slot_gram(d1, d2, pairing)
    w1, w2 = (np.ldexp(d.values, -exponent) for d in (d1, d2))
    coeffs = np.zeros((m, n2), dtype=complex)  # column k is c_k
    coeffs[rows, cols] = alpha * beta
    coeffs[n1 + cols, cols] = alpha
    coeffs[n1 + n2 + cols, cols] = 1.0
    c = (coeffs * -w2) @ coeffs.conj().T
    c.ravel()[: n1 * (m + 1) : m + 1] += w1  # the first block's diagonal, through a view
    c = (c + c.conj().T) * 0.5
    cg = c @ g
    gap2 = float(np.einsum("ij,ji->", cg, cg).real)
    nu = np.sqrt(g.diagonal().real)
    spread = float(nu @ np.abs(c) @ nu)
    slack2 = 2.0 * _gamma(m * m + 2 * (m + sum(d1.dims)) + 64) * spread * spread
    a2 = d2.stacks[0]
    blocks = ((w1, g[:n1, :n1]), (w2, (a2.conj().T @ a2) * gram_b[n1 + n2 :, n1 + n2 :]))
    norm1, norm2 = (math.sqrt(float(w @ (abs(x) ** 2) @ w)) for w, x in blocks)
    err = _gamma(n2 + 64) * math.sqrt(n2) * norm2
    rel = _gamma(4 * max(n1, n2) * (sum(d1.dims) + 16))
    # the norms enter as points, (value, value, value)
    return _decided(_root_interval(gap2, slack2, err, 0.0), (norm1,) * 3, (norm2,) * 3, tol, rel)


@_nonconvergence("matching: a linear-algebra routine")
def match_bidecomposition(
    d1: ProductDecomposition, d2: ProductDecomposition, tol: ToleranceConfig = DEFAULT_TOL
) -> MatchResult:
    """Certify that two weighted product decompositions of the same operator
    are term-wise collinear up to a permutation, with equal weights.

    Pipeline: check hypotheses on both inputs (:func:`_hypotheses`, one
    batch for both); pair the terms (:func:`_pairing`, one n1 x n2
    cross-Gram per slot); gate operator equality, ||rho1 - rho2||_F <=
    eps * max(||rho1||_F, ||rho2||_F), from the stacks alone: in the basis
    of the pairing's slot differences (:func:`_paired_gap`: two m x m slot
    Grams for m = n1 + 2 n2, O((d_a + d_b) m^2 + m^3) time, no ``linalg``
    routine and no N-row array, so not bound by ``MAX_AMBIENT_DIM``),
    and, only where that gate's rounding bound straddles the threshold,
    by :func:`_product_gap` (two small QRs); then certify every pair as
    :func:`match_tridecomposition` does (:func:`_certify`, on the same
    pairing), with paired weights compared by the gate's Equal
    rule, to eps times the larger weight sum.  Both rules are relative,
    so a match does not depend on the weight scale, and both read the
    weights in units of 2^e, e the exponent of the largest
    (:func:`~proddecomp.tensor._weight_exponent`, read once), so that sums and norms
    past the float maximum stay finite.  The mismatch
    message gives the gate's gap in the caller's units.  Certificates carry
    ``overlap_c = None``.
    """
    _expect(ProductDecomposition, d1, d2)
    if d1.dims != d2.dims:
        raise DimensionMismatch(f"factor dims differ: {d1.dims.dims} vs {d2.dims.dims}")
    _hypotheses(((d1, "first decomposition"), (d2, "second decomposition")), tol)

    e = _weight_exponent(d1.values, d2.values)
    pairing = _pairing(d1, d2)
    gap, norm1, norm2 = _paired_gap(d1, d2, pairing, e, tol) or _product_gap(d1, d2, e)
    if not _equal(gap, norm1, norm2, tol):
        with np.errstate(over="ignore"):  # a gap past the float maximum reads inf
            raise OperatorMismatch(f"operators differ by {np.ldexp(gap, e):.3e} in Frobenius norm")
    return _certify(d1, d2, pairing, e, tol)


def _expansion_gap(t1: TriDecomposition, t2: TriDecomposition, exponent: int) -> tuple[float, float, float]:
    """||v1 - v2||, ||v1|| and ||v2|| of the two expanded vectors, in units of 2^exponent
    (:func:`~proddecomp.tensor._expansion`, which refuses a cancelled or overflowing vector):
    the tripartite gate's fallback, which decides where :func:`_paired_tri_gap` cannot."""
    (v1, norm1), (v2, norm2) = (_expansion(t.stacks, t.values, exponent) for t in (t1, t2))
    return frobenius(v1 - v2), norm1, norm2


def _paired_tri_gap(
    t1: TriDecomposition,
    t2: TriDecomposition,
    pairing: tuple[np.ndarray, np.ndarray],
    exponent: int,
    tol: ToleranceConfig,
) -> tuple[float, float, float] | None:
    """||v1 - v2||, ||v1|| and ||v2||, in units of 2^exponent, where their rounding bounds
    decide the fallback's cancellation rule and the Equal rule at ``tol`` (:func:`_decided`);
    None where they do not.

    In the m = n1 + 3 n2 product columns P of :func:`_slot_gram` and their Gram G, v1 - v2,
    v1 and v2 are P y for the three rows y of one 3 x m array, x_i the coefficients in units
    of 2^exponent: v2's holds x2_k alpha_k beta_k gamma_k, summed into column perm[k] of the
    first block, then x2 alpha beta, x2 alpha and x2; v1's holds x1 in the first block;
    v1 - v2's is their difference.  Each squared norm is y^H G y.

    Bounds (nu_i = sqrt(G_ii)): each y^H G y is within 2 gamma_L (nu^T |y|)^2,
    L = 2 m + d_a + d_b + d_c + 64, of the squared norm of the vector the computed P and y
    represent; that vector, and the one :func:`~proddecomp.tensor._expansion` computes, each
    lie within gamma_{n1 + 2 n2 + 64} (sum |x1| + sum |x2|), together, of the exact one (the
    rounding of the differences, of y and of the expansion; the kets are unit, to 1e-12); and
    :func:`~proddecomp.tensor.frobenius` of N = d_a d_b d_c entries adds a relative
    gamma_{N+64}, on each interval and as the margin.  The rule is asked only when each norm's
    interval lies above ``_TRI_CANCEL_RTOL`` times its sum of |coefficients|, so the fallback
    would not refuse.  No ``linalg`` routine runs, and no array has more than
    max(d_a, d_b, d_c, m) rows.
    """
    rows, overlaps = pairing
    n1, n2 = t1.n, t2.n
    m = n1 + 3 * n2
    g = _slot_gram(t1, t2, pairing)[0]
    # the coefficients times 2^-exponent, exactly, through the real and imaginary parts
    x = np.ldexp(np.concatenate((t1.values, t2.values)).view(float), -exponent).view(complex)
    mags = np.abs(x).tolist()
    total1, total2 = sum(mags[:n1]), sum(mags[n1:])
    chain = np.concatenate((x[None, n1:], overlaps)).cumprod(0)  # x2, x2 alpha, x2 alpha beta, x2 alpha beta gamma
    y = np.zeros((3, m), dtype=complex)  # rows: v1 - v2, v1 and v2 in the columns of P
    y[1, :n1] = x[:n1]
    y[2, n1:] = chain[2::-1].ravel()
    np.add.at(y[2, :n1], rows, chain[3])
    np.subtract(y[1], y[2], out=y[0])
    forms = ((y.conj() @ g) * y).real.sum(1).tolist()
    spreads = (np.abs(y) @ np.sqrt(g.diagonal().real)).tolist()
    quad = 2.0 * _gamma(2 * m + sum(t1.dims) + 64)
    err = _gamma(n1 + 2 * n2 + 64) * (total1 + total2)
    rel = _gamma(t1.dims.total + 64)
    gap, norm1, norm2 = (_root_interval(q, quad * s * s, err, rel) for q, s in zip(forms, spreads))
    cancel = _TRI_CANCEL_RTOL * (1.0 + rel)  # the fallback's bound, over the rounding of its sum
    clear = norm1[1] > cancel * total1 and norm2[1] > cancel * total2  # so the fallback would not refuse
    return _decided(gap, norm1, norm2, tol, rel) if clear else None


def match_tridecomposition(
    t1: TriDecomposition, t2: TriDecomposition, tol: ToleranceConfig = DEFAULT_TOL
) -> MatchResult:
    """Certify that two tridecompositions of the same vector are term-wise
    collinear up to a permutation, with equal coefficient magnitudes.

    Pipeline, as :func:`match_bidecomposition`'s: check hypotheses on both
    inputs (:func:`_hypotheses`, one batch for both); read e, the exponent of
    the larger |coefficient| of both inputs, once
    (:func:`~proddecomp.tensor._weight_exponent`); pair the terms
    (:func:`_pairing`, one n1 x n2 cross-Gram per slot); gate vector equality,
    coefficient phases included, ||v1 - v2|| <= eps * max(||v1||, ||v2||),
    from the stacks alone: in the basis of the pairing's slot differences
    (:func:`_paired_tri_gap`: three m x m slot Grams for m = n1 + 3 n2,
    O((d_a + d_b + d_c) m^2) time, no ``linalg`` routine and no N-length
    vector), and, only where that gate's rounding bound straddles the
    threshold or the cancellation bound, by expanding both vectors
    (:func:`_expansion_gap`), which refuses a cancelled vector as
    DegenerateInput; then certify every pair (:func:`_certify`, on the same
    pairing).  The gate and the certificate both read the coefficients in
    units of 2^e, so that coefficients whose sum lies past the float maximum
    still match.  The mismatch message gives the gap in the caller's units.
    ``residual`` is the certificate's.
    """
    _expect(TriDecomposition, t1, t2)
    if t1.dims != t2.dims:
        raise DimensionMismatch(f"factor dims differ: {t1.dims.dims} vs {t2.dims.dims}")
    _hypotheses(((t1, "first tridecomposition"), (t2, "second tridecomposition")), tol)

    e = _weight_exponent(np.abs(t1.values).tolist(), np.abs(t2.values).tolist())
    pairing = _pairing(t1, t2)
    gap, norm1, norm2 = _paired_tri_gap(t1, t2, pairing, e, tol) or _expansion_gap(t1, t2, e)
    if not _equal(gap, norm1, norm2, tol):
        with np.errstate(over="ignore"):  # a gap past the float maximum reads inf
            raise OperatorMismatch(f"tripartite vectors differ by {np.ldexp(gap, e):.3e} (coefficient phases included)")
    return _certify(t1, t2, pairing, e, tol)


# ---------------------------------------------------------------------------
# blind extraction


def _rank_n_factor(rho: StateOperator, rng: np.random.Generator) -> np.ndarray:
    """A d1 x d2 x k tensor W with W W^dagger = rho on its k Ritz pairs, k = max(d1, d2) +
    SKETCH_OVERSAMPLING (at most N): more than the hypotheses' largest term count, max(d1, d2).

    Randomized range finder (Halko, Martinsson & Tropp 2011): sketch Y = rho Omega with an
    N x k Gaussian Omega, Q = qr(Y), B = Q^dagger rho Q, and W = Q U Lambda^{1/2} from all k
    eigenpairs of B, so extraction reads rho's spectral tail off W.  Two GEMMs on the N x N matrix.

    Every partial sum of rho Omega is at most 2 N r g in magnitude, for r the
    largest diagonal entry of rho (which bounds every |entry| of a PSD
    matrix) and g the largest |real or imaginary part| of Omega.  Omega is
    scaled by 2^-s, s the excess over 1023 of the binary exponent of that
    bound, so the sketch cannot overflow at the top of the float range;
    s = 0 wherever the bound is already below 2^1023.  Q does not depend on s.
    """
    big = rho.dims.total
    k = min(max(rho.dims) + SKETCH_OVERSAMPLING, big)
    omega = rng.standard_normal((big, k)) + 1j * rng.standard_normal((big, k))
    bits = sum(math.frexp(x)[1] for x in (_diagonal_max(rho.matrix), float(np.abs(omega.view(float)).max())))
    omega *= 2.0 ** -max(0, bits + (2 * big).bit_length() - 1023)
    q = np.linalg.qr(rho.matrix @ omega)[0]
    lam, u = np.linalg.eigh(q.conj().T @ rho.matrix @ q)
    return (q @ (u * np.sqrt(np.maximum(lam, 0.0)))).reshape(*rho.dims, k)


def _certifiable_rank(lam: np.ndarray, tol: ToleranceConfig) -> int:
    """The smallest n with ||(lambda_{n+1}, ...)||_2 <= eps/2 * ||lambda||_2 for an ascending
    spectrum lambda (0 if none is positive): an n-term candidate within eps of rho bounds that
    tail by eps * ||rho||_F (Eckart & Young 1936), so this is the rank extraction's gate can
    certify, with half of eps left for the candidate.  Read relative to the largest value,
    the squares cannot overflow."""
    if not (lam.size and lam[-1] > 0.0):
        return 0
    tails = np.cumsum((lam / lam[-1]) ** 2)  # tails[i]: the squared norm of the i + 1 smallest
    return lam.size - int(np.count_nonzero(tails <= (tol.eps / 2.0) ** 2 * tails[-1]))


def _leading_left(slices: np.ndarray) -> np.ndarray:
    """Unit leading left vectors of r slices G_t (r x d x k), as a d x r stack.

    One power step G_t G_t^dagger e_i from each slice's heaviest row i: exact
    when G_t has rank 1.  The start row is normalized before the product, so
    the product carries the slice scale once, not squared.
    """
    rows = np.einsum("tkm,tkm->tk", slices.conj(), slices).real.argmax(axis=1)
    start = slices[np.arange(len(slices)), rows].conj()
    cols = (slices @ (start / np.linalg.norm(start, axis=1)[:, None])[:, :, None])[:, :, 0].T
    return cols / np.linalg.norm(cols, axis=0)


def _residual_bounds(
    x: np.ndarray, a: np.ndarray, b: np.ndarray, slices: np.ndarray, ratio: np.ndarray, gram: np.ndarray
) -> tuple[_Interval, _Interval, _Interval]:
    """(value, low, high) of ||rho - rho_hat||_F, ||rho||_F and ||rho_hat||_F for a factored
    extraction, in the units of ``x``, read off what the construction holds.

    ``x`` is the root tensor at unit scale, its side factor first (d_a x d_b x k);
    ``a`` holds the a-directions a~_t = U_A S_A v_t, of norms sqrt(w_t); ``b`` the unit
    b_t of :func:`_leading_left`, before phasing; ``slices`` the d_b x k slices
    G_t = v_t^H Z; ``ratio`` each returned weight, in the units of ``x``, over w_t (1
    unless that weight is subnormal); ``gram`` the k x k Gram matrix of x that
    lambda reads.  For c_t = G_t^H b_t, the columns of a k x n C, and the n product
    columns P = [a~_t (x) b_t], the construction's residual E = X - P C^H gives
    exactly X = P C^H + E, and the candidate's operator is P D P^H, D = diag(ratio).
    So rho - rho_hat = Q M Q^H for Q = [P | E] and M = [[C^H C - D, C^H], [C, I_k]],
    and ||rho - rho_hat||_F^2 = tr(M G M^H G), G = Q^H Q built from three pieces:
    (a~^H a~) o (b^H b) (Kolda & Bader, SIAM Rev. 51, 2009, section 2.6), the
    n x k contraction of a~^H E with conj(b), and E^H E.  That trace is the
    squared norm of Q M Q^H for any M, so neither the computed M nor G needs
    its Hermitian part.
    ||rho||_F is the Frobenius norm of ``gram``, and ||rho_hat||_F^2 =
    ratio^T |G_PP|^2 ratio, a form of nonnegative terms.  On a clean operator E and
    C^H C - D are rounding-sized, so no term cancels as the plain Gram expansion of
    the gap does.

    Bounds (nu_i = sqrt(G_ii), s = n + k, N = d_a d_b and tau = tr(gram)): the
    squared gap is within 2 gamma_L (nu^T |M| nu)^2, L = s^2 + 2(s + N) + 64, of that
    of the operator Q M Q^H that the computed Q and M represent, and that
    operator lies within the sum of four terms of rho - rho_hat:
    2 gamma_4 tau for the rounding of x = V diag(w)^{1/2}; delta (2 r + 3 delta), r
    a bound on ||x||_2, for that of E, delta = gamma_{n+8} (sum_t nu_t ||c_t|| + ||E||_F);
    (gamma_{k+4} tr(C^H C) + gamma_2 max ratio) ||G_PP||_2 for that of C^H C - D; and
    gamma_40 sum_t ratio_t nu_t^2 for the normalization and phasing of the returned
    kets and the rounding of ratio.  ||rho||_F is within
    (2 gamma_4 + gamma_{N+8}) tau + gamma_{k^2+4} ||rho||_F, and ||rho_hat||_F within
    (gamma_{d_a+d_b+8} + gamma_40) sum_t ratio_t nu_t^2 + gamma_{n^2+4} ||rho_hat||_F.
    Both 2-norms are bounded by the smaller of a largest row sum of |entries| and a
    Frobenius norm.  No ``linalg`` routine runs, and no array has more than N rows
    or s columns.
    """
    da, db, k = x.shape
    n = a.shape[1]
    big, s = da * db, n + k
    ah, bh = a.conj().T, b.conj().T
    ch = (bh[:, None] @ slices)[:, 0]  # row t: c_t^H = b_t^H G_t
    resid = x.reshape(da, db * k) - a @ (b.T[:, :, None] * ch[:, None]).reshape(n, db * k)
    g = np.empty((s, s), dtype=complex)
    g[:n, :n] = (ah @ a) * (bh @ b)
    g[:n, n:] = (bh[:, None] @ (ah @ resid).reshape(n, db, k))[:, 0]
    g[n:, :n] = g[:n, n:].conj().T
    resid = resid.reshape(big, k)
    g[n:, n:] = resid.conj().T @ resid
    m = np.zeros((s, s), dtype=complex)
    m[n:, :n] = ch.conj().T
    m[:n, :n] = ch @ m[n:, :n]
    c_norms2 = m.diagonal()[:n].real.copy()  # ||c_t||^2
    m.ravel()[: n * (s + 1) : s + 1] -= ratio  # the first block's diagonal, through a view
    m[:n, n:] = ch
    m.ravel()[n * (s + 1) :: s + 1] = 1.0
    gap2 = float(np.vdot(g @ m, m @ g).real)  # tr(M G M^H G), the squared norm of Q M Q^H
    gd = g.diagonal().real
    nu = np.sqrt(gd)
    spread = float(nu @ np.abs(m) @ nu)
    slack2 = 2.0 * _gamma(s * s + 2 * (s + big) + 64) * spread * spread
    tau = float(gram.trace().real)
    norm = math.sqrt(np.vdot(gram, gram).real)
    mags = np.abs(g[:n, :n])
    mags2 = mags * mags
    norm_hat = math.sqrt(float(ratio @ mags2 @ ratio))
    sigma = float(ratio @ gd[:n])
    rounding_x = 2.0 * _gamma(4) * tau
    phasing = _gamma(40) * sigma
    norm_err = rounding_x + _gamma(big + 8) * tau + _gamma(k * k + 4) * norm
    hat_err = _gamma(da + db + 8) * sigma + _gamma(n * n + 4) * norm_hat + phasing
    delta = _gamma(n + 8) * (float(nu[:n] @ np.sqrt(c_norms2)) + math.sqrt(float(gd[n:].sum())))
    # ||x||_2^2 and ||P||_2 are bounded by the smaller of a largest row sum of |entries| and a Frobenius norm
    root = math.sqrt(min(float(np.abs(gram).sum(1).max()), norm) + norm_err)
    p_norm2 = min(float(mags.sum(1).max()), math.sqrt(float(mags2.sum())))
    diag = _gamma(k + 4) * float(c_norms2.sum()) + _gamma(2) * float(ratio.max())
    slack = rounding_x + delta * (2.0 * root + 3.0 * delta) + diag * p_norm2 + phasing
    hat = (norm_hat, norm_hat - hat_err, norm_hat + hat_err)
    return _root_interval(gap2, slack2, slack, 0.0), (norm, norm - norm_err, norm + norm_err), hat


def _residual_gap(
    x: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    slices: np.ndarray,
    ratio: np.ndarray,
    gram: np.ndarray,
    tol: ToleranceConfig,
) -> tuple[float, float, float] | None:
    """||rho - rho_hat||_F, ||rho||_F and ||rho_hat||_F of a factored extraction, in the
    units of ``x``, where their rounding intervals (:func:`_residual_bounds`, on the
    same arguments) decide the Equal rule at ``tol`` (:func:`_decided`, margin gamma_4);
    None where they do not.  The decision holds in the caller's units too, since x is
    2^-e W exactly."""
    return _decided(*_residual_bounds(x, a, b, slices, ratio, gram), tol, _gamma(4))


@_nonconvergence("extraction failed: a linear-algebra routine")
def extract_decomposition(rho: StateOperator, tol: ToleranceConfig = DEFAULT_TOL, seed: int = 0) -> ExtractionReport:
    """Recover a weighted product decomposition from the operator alone.

    Extraction runs on a factor W of rho (rho = W W^dagger, d1 x d2 x k) taken
    from the operator's form: W = V diag(w)^{1/2} of a factored operator
    (:meth:`StateOperator.from_columns`, which :func:`build_rho` returns), k
    its column count, with no N x N array formed, validated or read, taken at
    unit scale: 2^-e W exactly, e the binary exponent of its largest real or
    imaginary part, with the weights returned as ldexp(., 2e), so that no Gram
    of W is subnormal or overflows; or a sketch of a dense one with all k Ritz
    pairs (:func:`_rank_n_factor`).
    From W on both forms run the same code, and every spectrum is read off a
    Gram matrix of W, one GEMM and one ``eigvalsh`` each.  W^dagger W has the
    spectrum lambda of rho, and the term count n is the rank the gate can
    certify (:func:`_certifiable_rank`), capped at max(d1, d2) so that a rank
    no factor can whiten still goes to the gate.  W_s W_s^dagger, W_s the
    d_s x (d_other k) reshape, is the reduced operator on factor s, of the
    rank of that factor's ket set, so the side, the one factor tried, is the
    better-conditioned whitening: the larger sigma_n / sigma_1 of W_s (factor
    0 on a tie; a factor of dim < n is never taken).  Call its kets a_j and
    the other factor's b_j.  W_side is wide; its SVD
    U_A S_A Z is read off that of its tall conjugate transpose,
    W^dagger = Z^dagger S_A U_A^dagger.  The reduced operator
    rho_A = A diag(w) A^dagger = U_A S_A^2 U_A^dagger is whitened by
    W_A = U_A S_A^{-1} (Anandkumar et al. 2014, applied to the Leurgans,
    Ross & Abel 1993 scheme), and Z = W_A^dagger W: for one random
    Hermitian probe X on the other factor,
    T = W_A^dagger Tr_other[rho (I (x) X)] W_A is an n x n Hermitian matrix
    with eigenvalues <b_j|X|b_j> and orthonormal eigenvectors v_t.  One
    ``eigh`` gives the a-directions a_t = rho_A W_A v_t = U_A S_A v_t.  The
    slice of W along the dual of a_t / ||a_t|| is ||a_t|| v_t^dagger Z up
    to a phase, and the rows of V^dagger Z are orthonormal, so
    w_t = ||a_t||^2: no dual is formed and no singular value divided by.
    For a clean operator v_t^dagger Z, as a d_b x k slice, has rank 1 with
    left vector b_t, so one power step from its heaviest row
    (:func:`_leading_left`) reads b_t exactly; a slice that is not rank 1 is
    left to the gates below.  The terms come out heaviest first, each ket
    phased by :func:`~proddecomp.subspace.fix_phase`.

    One probe is drawn (``probes_used`` is 1): the scheme works with
    probability one on a generic probe.  The candidate is accepted when its
    operator rho_hat equals rho by the one Equal rule,
    ||rho - rho_hat||_F <= eps * max(||rho||_F, ||rho_hat||_F)
    (:func:`~proddecomp.subspace._equal`, the matchers' rule), and it
    passes the hypothesis check, which by the uniqueness theorem makes it
    the decomposition, so the probe's eigenvalues are not tested; the gate
    certifies n too.  A dense operator's ||rho_hat||_F and gap are taken from
    the N x N rho_hat by :func:`~proddecomp.tensor.frobenius`, in the caller's
    units.  A factored one's are read off what the construction holds: for
    the product columns P = [a_t (x) b_t] of the unnormalized a_t, and
    c_t = G_t^dagger b_t for the slice G_t = v_t^dagger Z, W_side = P C^H + E
    exactly, E the construction's residual, so the gap is a trace over the
    (k + n)-square Gram matrix of [P | E] (:func:`_residual_gap`: no ``linalg`` routine and
    no N x (k + n) array), decided where its rounding interval lies wholly on
    one side of eps; inside that band the QR factor of the stacked columns of
    W and of the candidate decides (:func:`_factored_gap`, at the same unit
    scale).  ``reconstruction_error`` is the gap over
    ||rho||_F.  A zero-weight slice, a failed gate or a failed hypothesis
    check raises NotExtractable at once, naming what decided: the factor, n,
    the certifiable rank where the max(d1, d2) cap cut it, both factors'
    (sigma_n / sigma_1)^2 that the side rule compared (a factor of dim < n
    named as such) and the error reached.  The zero operator is refused as
    rank 0 before any sketch, naming only the rank, and a linear-algebra
    routine that does not converge raises DegenerateInput.
    """
    _expect(StateOperator, rho)
    _expect(ToleranceConfig, tol)
    if len(rho.dims) != 2:
        raise DimensionMismatch("extraction needs an operator on exactly 2 factors")
    rng = _rng(seed)
    e = 0
    if rho.factor is None:
        scale = frobenius(rho.matrix)  # the zero operator has no range to sketch
        w = _rank_n_factor(rho, rng) if scale else np.zeros((*rho.dims, 0), dtype=complex)
    else:
        parts = _root_tensor(rho).reshape(-1).view(float)  # a fresh array: W's real and imaginary parts
        # at unit scale: 2^-e W exactly, e the exponent of its largest real or imaginary part
        e = math.frexp(float(np.abs(parts).max()))[1]
        w = np.ldexp(parts, -e, out=parts).view(complex).reshape(*rho.dims, -1)
    d0, d1, k = w.shape
    sides = (w.reshape(d0, d1 * k), w.transpose(1, 0, 2).reshape(d1, d0 * k))
    # W^T's Gram is conj(W^dagger W), of spectrum lambda(rho); W_s's is the reduced operator on s
    grams = [m @ m.conj().T for m in (w.reshape(d0 * d1, k).T, *sides)]
    lam, *spectra = map(np.linalg.eigvalsh, grams)
    certifiable = _certifiable_rank(lam, tol)
    n = min(certifiable, max(d0, d1))
    if n == 0:
        raise NotExtractable("not extractable under hypotheses: the operator has rank 0 (0 probes)")
    r0, r1 = (s[-n] / s[-1] if n <= s.size else -math.inf for s in spectra)  # (sigma_n / sigma_1)^2
    side = int(r1 > r0)
    cut = f" of certifiable {certifiable}" if certifiable > n else ""
    conds = " and ".join(f"{r:.3g}" if n <= d else f"dim {d} < n" for r, d in ((r0, d0), (r1, d1)))
    where = f"factor {side}, rank {n}{cut}, (sigma_n/sigma_1)^2 {conds}"  # what decided n and the side
    da, db = (d0, d1) if side == 0 else (d1, d0)
    # rho_A = W_side W_side^dagger: with W_side = U_A S_A Z, the SVD of its tall conjugate is (Z^dagger, S_A, U_A^dagger)
    zh, s_a, u_ah = np.linalg.svd(sides[side].conj().T, full_matrices=False)
    u_a, s_a, z = u_ah[:n].conj().T, s_a[:n], zh[:, :n].conj().T

    g = rng.standard_normal((db, db)) + 1j * rng.standard_normal((db, db))
    probe = (g + g.conj().T) / 2.0
    # T = W_A^dagger Tr_other[rho (I (x) X)] W_A = sum_m Z_m X^T Z_m^dagger
    v = np.linalg.eigh((probe @ z.reshape(n, db, k)).reshape(n, db * k) @ z.conj().T)[1]
    a_cols = (u_a * s_a) @ v
    # the slice along the dual of a_t / ||a_t|| is ||a_t|| v_t^dagger Z up to a phase, and the
    # rows of V^dagger Z are orthonormal, so w_t = ||a_t||^2 and no dual is formed
    norms = np.linalg.norm(a_cols, axis=0)
    squares = norms**2
    weights = np.ldexp(squares, 2 * e)  # in the caller's units
    if not weights.min() > 0.0:  # NaN fails too
        raise NotExtractable(f"not extractable under hypotheses: a zero-weight slice ({where}, 1 probe)")
    slices = (v.conj().T @ z).reshape(n, db, k)
    left = _leading_left(slices)
    a_units, b_cols = fix_phase(a_cols / norms, tol.eps), fix_phase(left, tol.eps)

    order = np.argsort(-weights, kind="stable")  # heaviest term first, ties in eigenvalue order
    stacks = [c[:, order] for c in ((a_units, b_cols) if side == 0 else (b_cols, a_units))]
    dec = ProductDecomposition._from_stacks(rho.dims, stacks, weights[order])
    if rho.factor is None:
        cols, wts = product_columns(dec)
        residual = (cols * wts) @ cols.conj().T  # the one N x N array of the extraction: rho_hat
        norm, norm_hat = scale, frobenius(residual)
        residual -= rho.matrix
        gap = frobenius(residual)
    else:
        # each returned weight at unit scale over w_t: 1 unless the returned weight is subnormal
        ratio = np.ldexp(weights, -2 * e) / squares
        gate = _residual_gap(sides[side].reshape(da, db, k), a_cols, left, slices, ratio, grams[0], tol)
        if gate is None:  # the operator and the candidate at unit scale, as the gate reads them
            cols, wts = product_columns(dec)
            gate = _factored_gap((w.reshape(d0 * d1, k), np.ones(k)), (cols, np.ldexp(wts, -2 * e)))
        gap, norm, norm_hat = gate
    err = gap / norm
    reached = f"{where}, 1 probe, reconstruction error {err:.3e}"
    if not _equal(gap, norm, norm_hat, tol):
        raise NotExtractable(
            f"not extractable under hypotheses: no reconstruction within eps = {tol.eps:g} ({reached})"
        )
    try:
        check_product_hypotheses(dec, tol, label="extracted decomposition")
    except HypothesisViolation as exc:
        raise NotExtractable(f"not extractable under hypotheses: {exc} ({reached})") from exc
    return ExtractionReport(dec, err, 1, side)


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
    n: int, dims: FactoredDims, seed: int, profile: str, profiles: tuple[str, ...]
) -> tuple[np.random.Generator, list[np.ndarray]]:
    """The seeded generator and a d_s x n ket stack per slot of ``dims``: dependent
    non-collinear ones in the profile's dependent slot, independent ones in
    every other.  Every slot is checked feasible before the first draw; the
    sets are drawn in slot order, and the caller draws the values next."""
    if profile not in profiles:
        raise DimensionMismatch(f"unknown profile {profile!r}; choose from {profiles}")
    n = _index(n, "term count")
    if n < 1:
        raise DimensionMismatch(f"term count must be positive, got {n}")
    rng = _rng(seed)
    dep = _DEPENDENT_SLOT[profile]
    for s, dim in enumerate(dims):
        if s == dep:
            if n < 3 or dim < 2:
                raise DimensionMismatch(
                    f"infeasible: a dependent non-collinear {_SLOT_NAMES[s]}-set needs n >= 3 and dim >= 2"
                )
        elif n > dim:
            raise DimensionMismatch(f"infeasible: {n} independent kets do not fit {_SLOT_NAMES[s]}-slot dim {dim}")
    return rng, [
        (_dependent_noncollinear_kets if s == dep else _independent_kets)(rng, dim, n) for s, dim in enumerate(dims)
    ]


@_nonconvergence("generation: a linear-algebra routine")
def generate_instance(
    n: int,
    d1: int,
    d2: int,
    seed: int = 0,
    profile: str = "both-independent",
) -> ProductDecomposition:
    """Random hypothesis-satisfying product decomposition, deterministic under seed.

    Profiles pin which ket sets are linearly independent; a
    "...-independent-only" profile makes the other set non-collinear but
    necessarily dependent (requires n >= 3).  Weights are positive and
    normalized to sum 1.  Generated sets keep safety margins (pairwise
    overlap and conditioning) well inside the default tolerances, and the
    hypothesis check at DEFAULT_TOL is a post-condition.  An unknown profile
    or a non-integral or infeasible size raises DimensionMismatch, a seed
    that is not a non-negative integer DegenerateInput (:func:`_rng`).
    """
    dims = FactoredDims((d1, d2))
    rng, stacks = _slot_kets(n, dims, seed, profile, BI_PROFILES)
    weights = rng.uniform(0.5, 1.5, n)
    weights /= weights.sum()
    dec = ProductDecomposition._from_stacks(dims, stacks, weights)
    check_product_hypotheses(dec, label="generated decomposition")
    return dec


@_nonconvergence("generation: a linear-algebra routine")
def generate_tri_instance(
    n: int,
    d1: int,
    d2: int,
    d3: int,
    seed: int = 0,
    profile: str = "all-independent",
) -> TriDecomposition:
    """Random hypothesis-satisfying tridecomposition, deterministic under seed.

    A "<slot>-dependent" profile makes that slot's set non-collinear but
    dependent (requires n >= 3) while the other two stay independent.
    Coefficients are nonzero complex with random phases.  Margins, the
    post-condition and the refusals are those of :func:`generate_instance`.
    """
    dims = FactoredDims((d1, d2, d3))
    rng, stacks = _slot_kets(n, dims, seed, profile, TRI_PROFILES)
    mags = rng.uniform(0.5, 1.2, n)
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    tri = TriDecomposition._from_stacks(dims, stacks, mags * phases)
    check_tri_hypotheses(tri, label="generated tridecomposition")
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
    rng = _rng(seed)
    perm = rng.permutation(dec.n)
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, (dec.n, len(dec.stacks))))
    # each ket times its phase as a row of the transposed stack: Ket.phased's product, bit for bit
    stacks = [(s.T[perm] * p[:, None]).T for s, p in zip(dec.stacks, phases.T)]
    values = dec.values[perm] / np.prod(phases, axis=1) if isinstance(dec, TriDecomposition) else dec.values[perm]
    return type(dec)._from_stacks(dec.dims, stacks, values), tuple(int(i) for i in perm)


# ---------------------------------------------------------------------------
# degenerate-eigenbasis demonstration


@_nonconvergence("demonstration: a linear-algebra routine")
def demo_degeneracy() -> DegeneracyReport:
    """Why a degenerate eigenbasis does not break uniqueness.

    Build the two-term half/half operator over orthonormal pairs, whose
    eigenvalues are (1/2, 1/2, 0, 0).  The degenerate eigenvectors can be
    rotated into q_{1,2} = (|a1 b1> +/- |a2 b2>)/sqrt(2), which reproduce
    the operator exactly, but both q kets fail factorability (Schmidt
    values 1/sqrt(2) each), so the rotated form is not a competing
    weighted product decomposition.  The same rotation applied to the
    tripartite lift hits the same obstruction.
    """
    dims = FactoredDims((2, 2))
    dec = ProductDecomposition._from_stacks(dims, (np.eye(2), np.eye(2)), [0.5, 0.5])
    rho = build_rho(dec)
    evals = tuple(float(v) for v in sorted(np.linalg.eigvalsh(rho.matrix), reverse=True))

    # the columns |a1 b1>, |a2 b2> of ab, rotated into the columns q1, q2 of q
    ab = product_columns(dec)[0]
    rotation = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    q = ab @ rotation
    qform_residual = frobenius(0.5 * (q @ q.conj().T) - rho.matrix)

    schmidt, product, _ = _schmidt(q, dims, DEFAULT_TOL)
    q1_fact, q2_fact = product.tolist()
    q1_schmidt, q2_schmidt = (tuple(row) for row in schmidt.tolist())

    # the lift (|a1 b1 c1> + |a2 b2 c2>)/sqrt(2) against (|q1 d1> + |q2 d2>)/sqrt(2), d = c rotated
    c = np.eye(2)
    psi = (ab @ c.T).reshape(-1) / np.sqrt(2.0)
    psi_q = (q @ (c @ rotation).T).reshape(-1) / np.sqrt(2.0)
    tri_qform_residual = float(np.linalg.norm(psi - psi_q))

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
