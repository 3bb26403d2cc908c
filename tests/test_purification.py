"""Purification lifts and the unitary relating two co-purifications."""

import numpy as np
import pytest

import proddecomp as pd
from proddecomp.purification import UNITARITY_ATOL


def _random_ket(rng, dim):
    return pd.Ket.normalize(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def _random_unitary(rng, dim):
    # derived-case generator: QR of a complex Gaussian matrix, phases fixed
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _half_half_decomposition():
    e = [pd.Ket.basis(2, 0), pd.Ket.basis(2, 1)]
    return pd.ProductDecomposition(
        pd.FactoredDims((2, 2)),
        (pd.ProductTerm(0.5, e[0], e[0]), pd.ProductTerm(0.5, e[1], e[1])),
    )


class TestUnitaryMatrix:
    def test_accepts_unitary(self):
        u = pd.UnitaryMatrix(np.eye(3, dtype=complex))
        assert u.dim == 3

    def test_rejects_non_unitary(self):
        with pytest.raises(pd.DegenerateInput):
            pd.UnitaryMatrix(np.diag([1.0, 2.0]).astype(complex))

    def test_rejects_non_square(self):
        with pytest.raises(pd.DimensionMismatch):
            pd.UnitaryMatrix(np.ones((2, 3), dtype=complex))

    @pytest.mark.parametrize(
        "m, message",
        [
            (np.full((2, 2), np.nan), "not unitary"),
            (np.diag([np.inf, 1.0]), "not unitary"),
            (np.eye(2, dtype=bool), "not booleans"),
            (np.eye(2).astype(str), "not booleans or strings"),
        ],
        ids=["nan", "inf", "bool", "str"],
    )
    def test_rejects_what_is_not_a_finite_number(self, m, message):
        # a numpy warning would fail the test too
        with pytest.raises(pd.DegenerateInput, match=message):
            pd.UnitaryMatrix(m)


class TestPurify:
    def test_half_half_instance(self):
        tri = pd.purify(_half_half_decomposition(), 2)
        psi, norm = pd.build_tri_vector(tri)
        s = 1 / np.sqrt(2)
        expected = np.zeros(8, dtype=complex)
        expected[0] = s  # |a1 b1 e1> -> index (0,0,0)
        expected[7] = s  # |a2 b2 e2> -> index (1,1,1)
        assert abs(norm - 1.0) < 1e-12
        assert np.allclose(psi.amplitudes, expected, atol=1e-14)

    def test_single_term_is_product_vector(self):
        rng = np.random.default_rng(1)
        a, b = _random_ket(rng, 3), _random_ket(rng, 2)
        dec = pd.ProductDecomposition(pd.FactoredDims((3, 2)), (pd.ProductTerm(1.0, a, b),))
        tri = pd.purify(dec, 1)
        psi, _ = pd.build_tri_vector(tri)
        chain = np.kron(np.kron(a.amplitudes, b.amplitudes), [1.0])
        assert np.allclose(psi.amplitudes, chain, atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_partial_trace_round_trip(self, seed):
        dec = pd.generate_instance(3, 4, 3, seed=seed)
        tri = pd.purify(dec, 3 + seed % 2)  # auxiliary dim may exceed the term count
        psi, norm = pd.build_tri_vector(tri)
        proj = pd.StateOperator(tri.dims, norm**2 * psi.projector())
        reduced = pd.partial_trace(proj, (0, 1))
        assert pd.frobenius(reduced.matrix - pd.build_rho(dec).matrix) < 1e-12

    def test_auxiliary_dim_below_term_count(self):
        with pytest.raises(pd.DimensionMismatch):
            pd.purify(_half_half_decomposition(), 1)

    def test_auxiliary_kets_are_standard_basis(self):
        tri = pd.purify(_half_half_decomposition(), 3)
        for j, term in enumerate(tri.terms):
            assert np.array_equal(term.c.amplitudes, pd.Ket.basis(3, j).amplitudes)


class TestRelatingUnitary:
    def test_identity_case(self):
        rng = np.random.default_rng(2)
        psi = _random_ket(rng, 12)
        split = pd.FactoredDims((3, 4))
        u = pd.relating_unitary(psi, psi, split)
        mapped = pd.apply_on_factor(u, psi, split, 1)
        assert np.linalg.norm(psi.amplitudes - mapped.amplitudes) < 1e-12

    def test_composed_with_apply_keeps_ket_fixed(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            psi = _random_ket(rng, 12)
            split = pd.FactoredDims((4, 3))
            u = pd.relating_unitary(psi, psi, split)
            mapped = pd.apply_on_factor(u, psi, split, 1)
            assert np.linalg.norm(psi.amplitudes - mapped.amplitudes) < 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_recovers_action_of_random_unitary(self, seed):
        rng = np.random.default_rng(seed)
        d1, d2 = 3, 4
        split = pd.FactoredDims((d1, d2))
        phi = _random_ket(rng, d1 * d2)
        v = _random_unitary(rng, d2)
        psi = pd.apply_on_factor(pd.UnitaryMatrix(v), phi, split, 1)
        u = pd.relating_unitary(psi, phi, split)
        residual = np.linalg.norm(
            psi.amplitudes - pd.apply_on_factor(u, phi, split, 1).amplitudes
        )
        assert residual < pd.DEFAULT_TOL.eps
        defect = pd.frobenius(u.matrix.conj().T @ u.matrix - np.eye(d2))
        assert defect < UNITARITY_ATOL

    def test_rank_deficient_case(self):
        # product vector: reduced operator has rank 1, so the completion matters
        rng = np.random.default_rng(42)
        a, b = _random_ket(rng, 3), _random_ket(rng, 3)
        phi = pd.tensor_product(a, b)
        v = _random_unitary(rng, 3)
        split = pd.FactoredDims((3, 3))
        psi = pd.apply_on_factor(pd.UnitaryMatrix(v), phi, split, 1)
        u = pd.relating_unitary(psi, phi, split)
        residual = np.linalg.norm(
            psi.amplitudes - pd.apply_on_factor(u, phi, split, 1).amplitudes
        )
        assert residual < pd.DEFAULT_TOL.eps

    def test_rejects_different_reduced_operators(self):
        product = pd.tensor_product(pd.Ket.basis(2, 0), pd.Ket.basis(2, 0))
        entangled = pd.Ket.normalize([1, 0, 0, 1])
        with pytest.raises(pd.OperatorMismatch, match="not co-purifications"):
            pd.relating_unitary(product, entangled, pd.FactoredDims((2, 2)))

    def test_dimension_checks(self):
        psi = pd.Ket.basis(4, 0)
        with pytest.raises(pd.DimensionMismatch):
            pd.relating_unitary(psi, psi, pd.FactoredDims((3, 2)))

    def test_tol_sets_the_residual_gate_too(self):
        # a co-purification pair perturbed by 1e-6: within eps = 1e-4 in both gates, so
        # the unitary is returned (a fixed residual bound of 1e-8 refused it); the default
        # eps refuses the pair
        rng = np.random.default_rng(7)
        split = pd.FactoredDims((3, 4))
        phi = _random_ket(rng, 12)
        psi = pd.apply_on_factor(pd.UnitaryMatrix(_random_unitary(rng, 4)), phi, split, 1)
        noise = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        psi = pd.Ket.normalize(psi.amplitudes + 1e-6 * noise / np.linalg.norm(noise))
        u = pd.relating_unitary(psi, phi, split, pd.ToleranceConfig(1e-4))
        residual = np.linalg.norm(psi.amplitudes - pd.apply_on_factor(u, phi, split, 1).amplitudes)
        assert 1e-8 < residual <= 1e-4
        with pytest.raises(pd.OperatorMismatch):
            pd.relating_unitary(psi, phi, split)


class TestApplyOnFactor:
    def test_identity_leaves_ket_unchanged(self):
        rng = np.random.default_rng(5)
        x = _random_ket(rng, 6)
        u = pd.UnitaryMatrix(np.eye(2, dtype=complex))
        out = pd.apply_on_factor(u, x, pd.FactoredDims((3, 2)), 1)
        assert np.allclose(out.amplitudes, x.amplitudes, atol=1e-14)

    def test_diagonal_phase_on_second_factor(self):
        theta = 0.7
        u = pd.UnitaryMatrix(np.diag([1.0, np.exp(1j * theta)]))
        x = pd.tensor_product(pd.Ket.basis(2, 0), pd.Ket.basis(2, 1))
        out = pd.apply_on_factor(u, x, pd.FactoredDims((2, 2)), 1)
        assert np.allclose(out.amplitudes, np.exp(1j * theta) * x.amplitudes, atol=1e-14)

    @pytest.mark.parametrize("factor", [0, 1, 2])
    def test_norm_preserved_on_random_inputs(self, factor):
        rng = np.random.default_rng(6)
        dims = (2, 3, 2)
        split = pd.FactoredDims(dims)
        for _ in range(5):
            x = _random_ket(rng, split.total)
            u = pd.UnitaryMatrix(_random_unitary(rng, dims[factor]))
            out = pd.apply_on_factor(u, x, split, factor)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        u = pd.UnitaryMatrix(np.eye(3, dtype=complex))
        x = pd.Ket.basis(4, 0)
        with pytest.raises(pd.DimensionMismatch):
            pd.apply_on_factor(u, x, pd.FactoredDims((2, 2)), 1)

    @pytest.mark.parametrize("factor", [0.5, True, "1"])
    def test_factor_must_be_an_integer(self, factor):
        u = pd.UnitaryMatrix(np.eye(2, dtype=complex))
        with pytest.raises(pd.DimensionMismatch, match="factor must be an integer"):
            pd.apply_on_factor(u, pd.Ket.basis(4, 0), pd.FactoredDims((2, 2)), factor)


class TestTwoLabelings:
    @pytest.mark.parametrize("seed", range(10))
    def test_relating_unitary_between_two_auxiliary_labelings(self, seed):
        # same decomposition purified against two different orthonormal
        # labelings of the auxiliary factor must be related by a unitary there
        rng = np.random.default_rng(100 + seed)
        dec = pd.generate_instance(3, 4, 3, seed=seed)
        tri = pd.purify(dec, 3)
        psi, _ = pd.build_tri_vector(tri)
        w = _random_unitary(rng, 3)
        split = pd.FactoredDims((12, 3))
        phi = pd.apply_on_factor(pd.UnitaryMatrix(w), psi, split, 1)
        u = pd.relating_unitary(psi, phi, split)
        residual = np.linalg.norm(
            psi.amplitudes - pd.apply_on_factor(u, phi, split, 1).amplitudes
        )
        assert residual < pd.DEFAULT_TOL.eps


def _reference_relating_unitary(psi, phi, split, tol=pd.DEFAULT_TOL):
    """The four-step construction the Procrustes factor replaced: a pinv solve
    on the row support, a rank comparison, two complement QRs and a polar
    projection, with the same gates."""
    m_psi, m_phi = pd.bipartite_matrix(psi, split), pd.bipartite_matrix(phi, split)
    red_psi, red_phi = m_psi @ m_psi.conj().T, m_phi @ m_phi.conj().T
    gap = pd.frobenius(red_psi - red_phi)
    if gap > tol.eps * max(pd.frobenius(red_psi), pd.frobenius(red_phi)):
        raise pd.OperatorMismatch("not co-purifications: reduced operators differ")
    _, s_psi, vh_psi = np.linalg.svd(m_psi)
    _, s_phi, vh_phi = np.linalg.svd(m_phi)
    r_psi = int(np.count_nonzero(s_psi >= tol.eps * s_psi[0]))
    r_phi = int(np.count_nonzero(s_phi >= tol.eps * s_phi[0]))
    if r_psi != r_phi:
        raise pd.OperatorMismatch("not co-purifications: support ranks differ")
    d2 = split[1]

    def complement(v):
        return np.linalg.qr(v, mode="complete")[0][:, v.shape[1] :] if v.shape[1] else np.eye(d2, dtype=complex)

    restricted = np.linalg.pinv(m_phi, rcond=tol.eps) @ m_psi
    completed = restricted + complement(vh_phi[:r_phi].conj().T) @ complement(vh_psi[:r_psi].conj().T).conj().T
    a, _, bh = np.linalg.svd(completed)
    u_t = a @ bh
    if np.linalg.norm(psi.amplitudes - (m_phi @ u_t).reshape(-1)) > pd.DEFAULT_TOL.eps:
        raise pd.OperatorMismatch("unitary completion failed")
    return pd.UnitaryMatrix(u_t.T)


def _copurification_pair(rng, sigma_min, flat):
    """psi = (I (x) U) phi for a random unitary U, where M_phi has rank r and
    smallest nonzero singular value ``sigma_min``.  ``flat``: r in [14, 26]
    with near-equal singular values, so the largest lies below 10^-0.5;
    otherwise r in [2, 5] with singular values spread over a decade."""
    if flat:
        r = int(rng.integers(14, 27))
        others = rng.uniform(0.9, 1.0, r - 1)
    else:
        r = int(rng.integers(2, 6))
        others = 10.0 ** rng.uniform(-1.0, 0.0, r - 1)
    d1, d2 = r + int(rng.integers(0, 3)), r + int(rng.integers(0, 3))
    others *= np.sqrt(1.0 - sigma_min**2) / np.linalg.norm(others)
    s = np.append(others, sigma_min)
    m_phi = (_random_unitary(rng, d1)[:, :r] * s) @ _random_unitary(rng, d2)[:, :r].conj().T
    m_psi = m_phi @ _random_unitary(rng, d2).T
    return pd.Ket(m_psi.reshape(-1)), pd.Ket(m_phi.reshape(-1)), pd.FactoredDims((d1, d2))


def _pairs(band, count, seed):
    lo, hi = band
    rng = np.random.default_rng(seed)
    for i in range(count):
        yield _copurification_pair(rng, 10.0 ** rng.uniform(lo, hi), flat=i % 2 == 1)


def _certified(u, psi, phi, split):
    """Residual and unitarity defect of ``u``, each below 1e-8."""
    residual = np.linalg.norm(psi.amplitudes - pd.apply_on_factor(u, phi, split, 1).amplitudes)
    defect = pd.frobenius(u.matrix.conj().T @ u.matrix - np.eye(u.dim))
    return residual < 1e-8 and defect < 1e-8


class TestRelatingUnitaryConditioning:
    """Bands of sigma_min, the smallest nonzero singular value of M_phi.  In
    [10^-8.5, 10^-7.5] sigma_min^2 is at rounding level in M_phi^dagger M_psi."""

    @pytest.mark.parametrize(
        "band, count, seed",
        [((-14.0, -9.5), 200, 11), ((-9.5, -8.5), 2000, 12), ((-7.5, -6.5), 600, 13), ((-6.5, -1.0), 200, 14)],
    )
    def test_every_pair_outside_the_rounding_band_certifies(self, band, count, seed):
        for psi, phi, split in _pairs(band, count, seed):
            assert _certified(pd.relating_unitary(psi, phi, split), psi, phi, split)

    def test_inside_the_band_every_outcome_is_certified_or_refused(self):
        refused = reference_refused = 0
        for psi, phi, split in _pairs((-8.5, -7.5), 600, 15):
            try:
                assert _certified(pd.relating_unitary(psi, phi, split), psi, phi, split)
            except pd.OperatorMismatch:
                refused += 1
            try:
                _reference_relating_unitary(psi, phi, split)
            except pd.OperatorMismatch:
                reference_refused += 1
        assert refused <= reference_refused
