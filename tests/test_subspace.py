"""Collinearity, rank, support/null-space, and dual-basis predicates."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import proddecomp as pd
from proddecomp.subspace import ORTHO_ATOL, column_stack


def _random_ket(rng, dim):
    return pd.Ket.normalize(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def _random_unitary(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _span_projector(kets):
    # independent oracle: orthogonal projector onto the column space via pinv
    a = np.column_stack([k.amplitudes for k in kets])
    return a @ np.linalg.pinv(a)


@st.composite
def unit_vectors(draw, dim=3):
    parts = st.lists(
        st.floats(-1, 1, allow_nan=False, allow_infinity=False), min_size=dim, max_size=dim
    )
    v = np.asarray(draw(parts)) + 1j * np.asarray(draw(parts))
    assume(np.linalg.norm(v) > 1e-2)
    return v / np.linalg.norm(v)


class TestToleranceConfig:
    def test_defaults(self):
        tol = pd.ToleranceConfig()
        assert tol.eps_col == 1e-8 and tol.eps_rank == 1e-8 and tol.eps_eq == 1e-8

    @pytest.mark.parametrize("bad", [0.0, 1.0, -1e-8, 2.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(pd.DegenerateInput):
            pd.ToleranceConfig(eps_col=bad)

    def test_rejects_rank_cutoff_below_machine_noise(self):
        with pytest.raises(pd.DegenerateInput):
            pd.ToleranceConfig(eps_rank=1e-15)


class TestIsCollinear:
    def test_pure_phase_is_collinear(self):
        x = pd.Ket((1, 0))
        y = pd.Ket((np.exp(1j * np.pi / 3), 0))
        assert pd.is_collinear(x, y)

    def test_orthogonal_is_not(self):
        assert not pd.is_collinear(pd.Ket((1, 0)), pd.Ket((0, 1)))

    def test_overlap_at_twice_threshold_is_not_collinear(self):
        # derived from the threshold definition: choose delta so that
        # |<x|y>| = sqrt(1 - delta^2) = 1 - 2 eps_col, below the 1 - eps_col cut
        eps = pd.DEFAULT_TOL.eps_col
        delta = np.sqrt(1.0 - (1.0 - 2.0 * eps) ** 2)
        x = pd.Ket((1, 0))
        y = pd.Ket((np.sqrt(1.0 - delta**2), delta))
        assert abs(abs(x.overlap(y)) - (1.0 - 2.0 * eps)) < 1e-12
        assert not pd.is_collinear(x, y)

    def test_overlap_at_half_threshold_is_collinear(self):
        eps = pd.DEFAULT_TOL.eps_col
        delta = np.sqrt(1.0 - (1.0 - 0.5 * eps) ** 2)
        x = pd.Ket((1, 0))
        y = pd.Ket((np.sqrt(1.0 - delta**2), delta))
        assert pd.is_collinear(x, y)

    def test_dimension_mismatch(self):
        with pytest.raises(pd.DimensionMismatch):
            pd.is_collinear(pd.Ket.basis(2, 0), pd.Ket.basis(3, 0))

    @settings(deadline=None)
    @given(unit_vectors(), st.floats(0, 2 * np.pi, allow_nan=False))
    def test_phase_invariant_and_reflexive(self, v, alpha):
        x = pd.Ket(v)
        y = pd.Ket(v * np.exp(1j * alpha))
        assert pd.is_collinear(x, x)
        assert pd.is_collinear(x, y)
        assert pd.is_collinear(y, x)  # symmetry

    @settings(deadline=None)
    @given(unit_vectors(), unit_vectors())
    def test_symmetric(self, u, v):
        x, y = pd.Ket(u), pd.Ket(v)
        assert pd.is_collinear(x, y) == pd.is_collinear(y, x)

    def test_distance_form_of_threshold(self):
        # |<x|y>| >= 1 - eps  iff  min_alpha ||x - e^{i alpha} y|| <= sqrt(2 eps)
        rng = np.random.default_rng(7)
        for _ in range(50):
            x, y = _random_ket(rng, 3), _random_ket(rng, 3)
            ov = x.overlap(y)
            dist = np.sqrt(max(0.0, 2.0 - 2.0 * abs(ov)))
            eps = pd.DEFAULT_TOL.eps_col
            assert pd.is_collinear(x, y) == (dist <= np.sqrt(2.0 * eps) + 1e-15)


class TestNoncollinearSet:
    def test_orthonormal_pair(self):
        assert pd.is_noncollinear_set([pd.Ket((1, 0)), pd.Ket((0, 1))])

    def test_phase_pair_fails(self):
        assert not pd.is_noncollinear_set([pd.Ket((1, 0)), pd.Ket((1j, 0))])

    def test_overlapping_but_distinct_triple(self):
        s = 1 / np.sqrt(2)
        assert pd.is_noncollinear_set([pd.Ket((1, 0)), pd.Ket((0, 1)), pd.Ket((s, s))])


class TestRankAndIndependence:
    def test_orthonormal_pair(self):
        assert pd.rank_and_independence([pd.Ket((1, 0)), pd.Ket((0, 1))]) == (2, True)

    def test_duplicate(self):
        assert pd.rank_and_independence([pd.Ket((1, 0)), pd.Ket((1, 0))]) == (1, False)

    def test_linear_combination(self):
        s = 1 / np.sqrt(2)
        kets = [pd.Ket((1, 0, 0)), pd.Ket((0, 1, 0)), pd.Ket((s, s, 0))]
        assert pd.rank_and_independence(kets) == (2, False)

    def test_rank_invariant_under_phases_and_unitaries(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            kets = [_random_ket(rng, 4) for _ in range(3)]
            rank, ind = pd.rank_and_independence(kets)
            phased = [k.phased(np.exp(2j * np.pi * rng.uniform())) for k in kets]
            assert pd.rank_and_independence(phased) == (rank, ind)
            u = _random_unitary(rng, 4)
            rotated = [pd.Ket.normalize(u @ k.amplitudes) for k in kets]
            assert pd.rank_and_independence(rotated) == (rank, ind)


class TestSupportAndNull:
    def test_half_half_operator_has_full_support(self):
        e = [pd.Ket.basis(2, 0), pd.Ket.basis(2, 1)]
        dec = pd.ProductDecomposition(
            pd.FactoredDims((2, 2)),
            (pd.ProductTerm(0.5, e[0], e[0]), pd.ProductTerm(0.5, e[1], e[1])),
        )
        rho = pd.build_rho(dec)
        for factor in (0, 1):
            support, null = pd.support_and_null(rho, factor)
            assert support.dim == 2 and null.dim == 0

    def test_two_terms_in_dim_three_leave_one_null_direction(self):
        # a-set confined to a known 2-plane of C^3; oracle projector from pinv
        rng = np.random.default_rng(13)
        plane = np.eye(3, dtype=complex)[:, :2]
        a1 = pd.Ket.normalize(plane @ _random_ket(rng, 2).amplitudes)
        a2 = pd.Ket.normalize(plane @ _random_ket(rng, 2).amplitudes)
        assert not pd.is_collinear(a1, a2)
        b1, b2 = _random_ket(rng, 2), _random_ket(rng, 2)
        dec = pd.ProductDecomposition(
            pd.FactoredDims((3, 2)),
            (pd.ProductTerm(0.6, a1, b1), pd.ProductTerm(0.4, a2, b2)),
        )
        rho = pd.build_rho(dec)
        support, null = pd.support_and_null(rho, 0)
        assert support.dim == 2 and null.dim == 1
        assert pd.frobenius(support.projector() - _span_projector([a1, a2])) < 1e-8

    def test_rank_one_product_projector(self):
        rng = np.random.default_rng(17)
        a, b = _random_ket(rng, 3), _random_ket(rng, 4)
        rho = pd.StateOperator(
            pd.FactoredDims((3, 4)), pd.tensor_product(a, b).projector()
        )
        for factor in (0, 1):
            support, _ = pd.support_and_null(rho, factor)
            assert support.dim == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_support_matches_planted_span(self, seed):
        profile = pd.BI_PROFILES[seed % 3]
        n = 3 if profile != "both-independent" else 2 + seed % 2
        dec = pd.generate_instance(n, 4, 3, seed=seed, profile=profile)
        rho = pd.build_rho(dec)
        support, _ = pd.support_and_null(rho, 0)
        oracle = _span_projector([t.a for t in dec.terms])
        assert pd.frobenius(support.projector() - oracle) < 1e-8

    def test_null_vectors_are_annihilated(self):
        dec = pd.generate_instance(2, 4, 3, seed=23)
        rho = pd.build_rho(dec)
        _, null = pd.support_and_null(rho, 0)
        assert null.dim == 2
        for v in null.vectors:
            for w in range(3):
                probe = np.kron(v.amplitudes, pd.Ket.basis(3, w).amplitudes)
                assert np.linalg.norm(rho.matrix @ probe) < 1e-8

    def test_dims_add_up(self):
        dec = pd.generate_instance(2, 5, 4, seed=29)
        rho = pd.build_rho(dec)
        for factor, dim in ((0, 5), (1, 4)):
            support, null = pd.support_and_null(rho, factor)
            assert support.dim + null.dim == dim

    def test_invalid_subsystem(self):
        rho = pd.StateOperator(pd.FactoredDims((2, 2)), np.eye(4, dtype=complex) / 4)
        with pytest.raises(pd.DimensionMismatch):
            pd.support_and_null(rho, 2)

    def test_zero_operator_has_empty_support(self):
        rho = pd.StateOperator(pd.FactoredDims((2, 3)), np.zeros((6, 6), dtype=complex))
        for factor, dim in ((0, 2), (1, 3)):
            support, null = pd.support_and_null(rho, factor)
            assert (support.dim, null.dim) == (0, dim)


class TestDualBasis:
    def test_orthonormal_set_is_self_dual(self):
        kets = [pd.Ket.basis(3, 0), pd.Ket.basis(3, 1)]
        duals = pd.dual_basis(kets)
        for i, d in enumerate(duals):
            assert np.allclose(d, kets[i].amplitudes, atol=1e-12)

    def test_gram_inverse_oracle(self):
        # hand oracle: S = {(1,0), (1/sqrt2, 1/sqrt2)}, Gram G = [[1, s],[s, 1]]
        # with s = 1/sqrt2; G^{-1} = [[2, -sqrt2], [-sqrt2, 2]], so the duals
        # A G^{-1} are (1, -1) and (0, sqrt2).
        s = 1 / np.sqrt(2)
        kets = [pd.Ket((1, 0)), pd.Ket((s, s))]
        duals = pd.dual_basis(kets)
        assert np.allclose(duals[0], [1.0, -1.0], atol=1e-10)
        assert np.allclose(duals[1], [0.0, np.sqrt(2)], atol=1e-10)
        assert abs(np.vdot(duals[0], kets[1].amplitudes)) < 1e-10
        assert abs(np.vdot(duals[1], kets[0].amplitudes)) < 1e-10

    def test_biorthogonality_on_random_sets(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            kets = [_random_ket(rng, 5) for _ in range(3)]
            if not pd.rank_and_independence(kets)[1]:
                continue
            duals = pd.dual_basis(kets)
            gram = np.array([[np.vdot(d, k.amplitudes) for k in kets] for d in duals])
            assert np.allclose(gram, np.eye(3), atol=1e-8)
            # duals lie in span(kets)
            p = _span_projector(kets)
            for d in duals:
                assert np.linalg.norm(p @ d - d) < 1e-8

    def test_dependent_set_has_no_dual(self):
        kets = [pd.Ket((1, 0)), pd.Ket((1, 0))]
        with pytest.raises(pd.DegenerateInput, match="no dual basis"):
            pd.dual_basis(kets)


class TestSubspaceBasis:
    def test_rejects_non_orthogonal(self):
        s = 1 / np.sqrt(2)
        with pytest.raises(pd.DegenerateInput):
            pd.SubspaceBasis(2, (pd.Ket((1, 0)), pd.Ket((s, s))))

    def test_names_first_non_orthogonal_pair(self):
        # pairs (1, 2) and (0, 3) both fail; the check reports by the later index first
        s = 1 / np.sqrt(2)
        e = np.eye(4)
        vecs = (e[0], e[1], s * (e[1] + e[2]), s * (e[0] + e[3]))
        with pytest.raises(pd.DegenerateInput, match=r"basis vectors \(1, 2\) are not orthogonal"):
            pd.SubspaceBasis(4, tuple(pd.Ket(v) for v in vecs))

    def test_rejects_overfull(self):
        with pytest.raises(pd.DimensionMismatch):
            pd.SubspaceBasis(1, (pd.Ket((1,)), pd.Ket((1,))))

    def test_projector_of_empty_basis_is_zero(self):
        basis = pd.SubspaceBasis(3, ())
        assert np.array_equal(basis.projector(), np.zeros((3, 3), dtype=complex))

    def test_orthonormality_tolerance_matches_contract(self):
        assert ORTHO_ATOL == 1e-10

    def test_column_stack_requires_common_dim(self):
        with pytest.raises(pd.DimensionMismatch):
            column_stack([pd.Ket.basis(2, 0), pd.Ket.basis(3, 0)])
