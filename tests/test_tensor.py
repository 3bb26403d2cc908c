"""Core tensor algebra: kets, operators, products, partial traces."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import proddecomp as pd
from proddecomp import fileio, tensor


def _random_ket(rng, dim):
    return pd.Ket.normalize(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def _half_half_decomposition():
    e = [pd.Ket.basis(2, 0), pd.Ket.basis(2, 1)]
    return pd.ProductDecomposition(
        pd.FactoredDims((2, 2)),
        (pd.ProductTerm(0.5, e[0], e[0]), pd.ProductTerm(0.5, e[1], e[1])),
    )


@st.composite
def unit_vectors(draw, max_dim=5):
    dim = draw(st.integers(1, max_dim))
    parts = st.lists(
        st.floats(-1, 1, allow_nan=False, allow_infinity=False), min_size=dim, max_size=dim
    )
    v = np.asarray(draw(parts)) + 1j * np.asarray(draw(parts))
    assume(np.linalg.norm(v) > 1e-2)
    return v / np.linalg.norm(v)


class TestKet:
    def test_requires_unit_norm(self):
        with pytest.raises(pd.DegenerateInput):
            pd.Ket((1.0, 1.0))

    def test_rejects_nan_amplitudes(self):
        with pytest.raises(pd.DegenerateInput, match="norm"):
            pd.Ket(np.array([np.nan, 0.0]))

    def test_normalize_rejects_zero(self):
        with pytest.raises(pd.DegenerateInput):
            pd.Ket.normalize(np.zeros(3))

    @pytest.mark.parametrize("k", range(-300, 301, 50))
    def test_normalize_at_every_finite_scale(self, k):
        # a plain sum of squares underflows below ~1e-154 and overflows above ~1e154
        ket = pd.Ket.normalize(10.0**k * np.array([3.0, 4.0j]))
        assert np.abs(ket.amplitudes - np.array([0.6, 0.8j])).max() <= 1e-15

    def test_normalize_a_subnormal_vector(self):
        # numpy divides by multiplying with 1/norm, which overflows for a subnormal norm
        ket = pd.Ket.normalize(1e-320 * np.array([3.0, 4.0j]))
        assert np.abs(ket.amplitudes - np.array([0.6, 0.8j])).max() <= 1e-3

    @pytest.mark.parametrize("bad", [np.zeros(2), [np.nan, 1.0], [np.inf, 1.0], [1.0, 1j * np.inf]])
    def test_normalize_rejects_zero_and_non_finite(self, bad):
        with pytest.raises(pd.DegenerateInput, match="cannot normalize a vector of norm"):
            pd.Ket.normalize(bad)

    def test_amplitudes_are_immutable(self):
        k = pd.Ket.basis(3, 0)
        with pytest.raises(ValueError):
            k.amplitudes[0] = 0.0

    def test_overlap_dimension_mismatch(self):
        with pytest.raises(pd.DimensionMismatch):
            pd.Ket.basis(2, 0).overlap(pd.Ket.basis(3, 0))

    @pytest.mark.parametrize("dim, index", [(2, 0.5), (2, True), (2.0, 1)])
    def test_basis_takes_integers(self, dim, index):
        with pytest.raises(pd.DimensionMismatch, match="must be an integer"):
            pd.Ket.basis(dim, index)

    def test_a_huge_amplitude_is_reported_as_its_true_norm(self):
        # 1e200 squared overflows, so its norm must be read without squaring
        with pytest.raises(pd.DegenerateInput, match=r"ket norm 1e\+200 differs from 1"):
            pd.Ket([1e200, 0])

    @pytest.mark.parametrize("first, named", [(0.5, "column 0 has norm 0.5"), (1.0, "column 1 has norm 1e+200")])
    def test_a_huge_column_keeps_the_first_offending_column_named(self, first, named):
        stack = np.array([[first, 1e200], [0.0, 0.0]])
        with pytest.raises(pd.DegenerateInput, match=re.escape(f"stack 0 {named}, not 1")):
            pd.ProductDecomposition._from_stacks(pd.FactoredDims((2, 2)), (stack, np.eye(2)), [1.0, 1.0])


class TestFactoredDims:
    def test_rejects_bad_lengths(self):
        with pytest.raises(pd.DimensionMismatch):
            pd.FactoredDims(())
        with pytest.raises(pd.DimensionMismatch):
            pd.FactoredDims((2, 2, 2, 2))

    def test_rejects_ambient_above_vector_cap(self):
        with pytest.raises(pd.DimensionMismatch):
            pd.FactoredDims((2000, 2000))

    def test_total(self):
        assert pd.FactoredDims((2, 3, 4)).total == 24

    @pytest.mark.parametrize("bad", [2, None])
    def test_rejects_a_value_that_is_not_a_sequence(self, bad):
        with pytest.raises(pd.DimensionMismatch, match=f"sequence of integers, got {bad!r}"):
            pd.FactoredDims(bad)


class TestBooleanArrays:
    """Every array door refuses booleans, as weights, coefficients and file arrays do."""

    @pytest.mark.parametrize("amps", [[True], np.array([True, False])])
    def test_ket(self, amps):
        with pytest.raises(pd.DegenerateInput, match="amplitudes .* not booleans"):
            pd.Ket(amps)

    @pytest.mark.parametrize("amps", [[True, True], np.array([True, False])])
    def test_ket_normalize(self, amps):
        with pytest.raises(pd.DegenerateInput, match="amplitudes .* not booleans"):
            pd.Ket.normalize(amps)

    @pytest.mark.parametrize("m", [[[True]], [[1.0, False], [0.0, 1.0]], np.array([[True]])])
    def test_dense_operator(self, m):
        dims = pd.FactoredDims((len(m),))
        with pytest.raises(pd.DegenerateInput, match="matrix entries .* not booleans"):
            pd.StateOperator(dims, m)

    @pytest.mark.parametrize("columns", [[[True]], np.array([[True]])])
    def test_factored_operator(self, columns):
        with pytest.raises(pd.DegenerateInput, match="columns .* not booleans"):
            pd.StateOperator.from_columns(pd.FactoredDims((1,)), columns, [1.0])


class TestStringArrays:
    """Every array door refuses strings, which numpy would parse as numbers; the ket stacks refuse booleans too."""

    def test_ket(self):
        with pytest.raises(pd.DegenerateInput, match="amplitudes .* not booleans or strings"):
            pd.Ket(["1"])

    def test_dense_operator(self):
        with pytest.raises(pd.DegenerateInput, match="matrix entries .* not booleans or strings"):
            pd.StateOperator(pd.FactoredDims((2,)), [["1", "0"], ["0", "0"]])

    def test_factored_operator(self):
        with pytest.raises(pd.DegenerateInput, match="columns .* not booleans or strings"):
            pd.StateOperator.from_columns(pd.FactoredDims((2,)), [["1"], ["0"]], [1.0])

    @pytest.mark.parametrize("kind", [bool, str])
    def test_decomposition_stacks(self, kind):
        dims = pd.FactoredDims((2, 2))
        with pytest.raises(pd.DegenerateInput, match="ket stacks .* not booleans or strings"):
            pd.ProductDecomposition._from_stacks(dims, (np.eye(2).astype(kind), np.eye(2)), [0.5, 0.5])

    def test_stacks_keep_column_order_and_bits(self):
        dec = pd.generate_instance(3, 4, 5, seed=2)
        c_order = [np.ascontiguousarray(s) for s in dec.stacks]
        again = pd.ProductDecomposition._from_stacks(dec.dims, c_order, dec.values)
        for ours, theirs in zip(again.stacks, dec.stacks):
            assert ours.flags.f_contiguous and np.array_equal(ours, theirs)


class TestStateOperator:
    def test_rejects_non_hermitian(self):
        # ||m - m^H||_F = sqrt(2) against HERMITICITY_RTOL * ||m||_F = 1e-10
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(pd.DegenerateInput, match=r"= 1\.414e\+00 exceeds .* = 1\.000e-10"):
            pd.StateOperator(pd.FactoredDims((2, 1)), m)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.0, -0.5]).astype(complex)
        with pytest.raises(pd.DegenerateInput, match=r"min eigenvalue -0\.5 is below the bound -1e-10"):
            pd.StateOperator(pd.FactoredDims((2, 1)), m)

    def test_an_asymmetry_past_the_float_maximum_is_refused(self):
        # m - m^H overflows: the refusal names it, with no numpy warning
        m = np.array([[1.0, 1e308], [-1e308, 1.0]])
        with pytest.raises(pd.DegenerateInput, match=r"not Hermitian within tolerance: \|\|m - m\^H\|\|_F = inf"):
            pd.StateOperator(pd.FactoredDims((2,)), m)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(pd.DimensionMismatch):
            pd.StateOperator(pd.FactoredDims((2, 2)), np.eye(3, dtype=complex))

    def test_rejects_infinite_entry(self):
        with pytest.raises(pd.DegenerateInput, match="non-finite"):
            pd.StateOperator(pd.FactoredDims((2, 1)), np.diag([np.inf, 0.0]).astype(complex))

    def test_rejects_nan_entry(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = m[1, 0] = np.nan
        with pytest.raises(pd.DegenerateInput, match="non-finite"):
            pd.StateOperator(pd.FactoredDims((2, 1)), m)

    def test_rejects_ambient_above_operator_cap(self):
        # the cap check precedes any matrix work, so a placeholder suffices
        with pytest.raises(pd.DimensionMismatch, match="cap"):
            pd.StateOperator(pd.FactoredDims((4096, 2)), np.eye(2, dtype=complex))


def _spectrum_matrix(n, lowest, seed=0):
    """Hermitian n x n matrix with eigenvalues 1 (largest), ``lowest`` and the rest in
    (0, 0.1), in a random basis: its largest diagonal entry is well below 1."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    evals = np.concatenate(([lowest, 1.0], rng.uniform(0.0, 0.1, n - 2)))
    return (q * evals) @ q.conj().T


def _counting_eigvalsh(monkeypatch):
    calls = []
    original = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


class TestValidationBand:
    """The accepted band is lambda_min >= -PSD_RTOL * lambda_max; the Cholesky
    certificate decides inside it and eigvalsh decides everything else."""

    @pytest.mark.parametrize("n", [4, 64])
    def test_just_inside_the_band_is_accepted(self, n):
        m = _spectrum_matrix(n, -0.5 * pd.tensor.PSD_RTOL)
        op = pd.StateOperator(pd.FactoredDims((n,)), m)
        assert np.array_equal(op.matrix, m)

    @pytest.mark.parametrize("n", [4, 64])
    def test_just_outside_the_band_is_rejected(self, n):
        m = _spectrum_matrix(n, -2.0 * pd.tensor.PSD_RTOL)
        with pytest.raises(pd.DegenerateInput, match="not positive semidefinite"):
            pd.StateOperator(pd.FactoredDims((n,)), m)

    def test_inside_the_band_below_the_shift_goes_through_eigvalsh(self, monkeypatch):
        # max diag < lambda_max, so the shift PSD_RTOL * max diag is smaller than
        # -lambda_min: no Cholesky factor exists, and eigvalsh accepts
        m = _spectrum_matrix(64, -0.5 * pd.tensor.PSD_RTOL)
        assert m.diagonal().real.max() < 0.5
        calls = _counting_eigvalsh(monkeypatch)
        pd.StateOperator(pd.FactoredDims((64,)), m)
        assert calls == [(64, 64)]

    def test_zero_matrix_is_accepted_through_eigvalsh(self, monkeypatch):
        calls = _counting_eigvalsh(monkeypatch)
        op = pd.StateOperator(pd.FactoredDims((2, 2)), np.zeros((4, 4), dtype=complex))
        assert op.trace == 0.0
        assert calls == [(4, 4)]

    def test_built_operator_needs_no_eigvalsh(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh ran on an operator that is PSD by construction")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        dec = pd.generate_instance(16, 32, 32, seed=3)
        rho = pd.StateOperator(dec.dims, pd.rho_matrix(dec))
        assert rho.matrix.shape == (1024, 1024)

    def test_eigvalsh_non_convergence_is_degenerate_input(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(pd.DegenerateInput, match="did not converge"):
            pd.StateOperator(pd.FactoredDims((2, 1)), np.diag([1.0, -0.5]).astype(complex))

    def test_stores_the_unsymmetrized_matrix(self):
        m = np.asfortranarray(_spectrum_matrix(4, 0.25))
        m[0, 1] += 1e-13  # within HERMITICITY_RTOL
        op = pd.StateOperator(pd.FactoredDims((2, 2)), m)
        assert np.array_equal(op.matrix, m)


def _factor(n=3, dims=(4, 3), seed=0):
    dec = pd.generate_instance(n, *dims, seed=seed)
    return dec, *pd.tensor.product_columns(dec)


class TestFactoredOperator:
    """``StateOperator.from_columns``: the form ``build_rho`` returns."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_columns(self, bad):
        dec, v, w = _factor()
        v[5, 1] = bad
        with pytest.raises(pd.DegenerateInput, match="non-finite"):
            pd.StateOperator.from_columns(dec.dims, v, w)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -0.25])
    def test_rejects_weights_that_are_not_positive_and_finite(self, bad):
        dec, v, w = _factor()
        w[2] = bad
        with pytest.raises(pd.DegenerateInput, match="weight 2"):
            pd.StateOperator.from_columns(dec.dims, v, w)

    def test_rejects_complex_weights(self):
        dec, v, w = _factor()
        with pytest.raises(pd.DegenerateInput, match="real"):
            pd.StateOperator.from_columns(dec.dims, v, w + 1j)

    def test_rejects_an_empty_factor(self):
        with pytest.raises(pd.DegenerateInput, match="at least one column"):
            pd.StateOperator.from_columns(pd.FactoredDims((2, 2)), np.zeros((4, 0)), np.zeros(0))

    def test_rejects_a_trace_that_overflows(self):
        dec, v, w = _factor()
        with pytest.raises(pd.DegenerateInput, match="overflows"):
            pd.StateOperator.from_columns(dec.dims, v * 1e160, w)

    @pytest.mark.parametrize(
        "columns, weights",
        [((11, 3), (3,)), ((12,), (1,)), ((12, 3), (2,)), ((12, 3), (3, 1))],
    )
    def test_rejects_shape_mismatches(self, columns, weights):
        with pytest.raises(pd.DimensionMismatch):
            pd.StateOperator.from_columns(pd.FactoredDims((4, 3)), np.ones(columns), np.ones(weights))

    def test_rejects_ambient_above_operator_cap(self):
        with pytest.raises(pd.DimensionMismatch, match="cap"):
            pd.StateOperator.from_columns(pd.FactoredDims((4096, 2)), np.ones((8192, 1)), np.ones(1))

    @pytest.mark.parametrize("dims", [(4, 4), (16, 16)])
    def test_matrix_is_rho_matrix_and_read_only(self, dims):
        for profile in pd.BI_PROFILES:
            dec = pd.generate_instance(3, *dims, seed=8, profile=profile)
            rho = pd.build_rho(dec)
            assert np.array_equal(rho.matrix, pd.rho_matrix(dec))
            assert rho.matrix is rho.matrix  # assembled once
            with pytest.raises(ValueError):
                rho.matrix[0, 0] = 0.0

    def test_stores_read_only_copies(self):
        dec, v, w = _factor()
        rho = pd.StateOperator.from_columns(dec.dims, v, w)
        v[0, 0] = w[0] = 7.0
        columns, weights = rho.factor
        assert columns[0, 0] != 7.0 and weights[0] != 7.0
        with pytest.raises(ValueError):
            columns[0, 0] = 0.0
        with pytest.raises(ValueError):
            weights[0] = 0.0

    def test_trace_and_repr_do_not_assemble(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("assembled the N x N matrix")

        monkeypatch.setattr(pd.tensor, "_assemble", forbidden)
        dec = pd.generate_instance(3, 4, 3, seed=1)
        rho = pd.build_rho(dec)
        assert rho.trace == pytest.approx(dec.weight_sum, rel=1e-14)
        assert repr(rho) == "StateOperator(dims=(4, 3), trace=1)"

    def test_is_immutable(self):
        rho = pd.build_rho(pd.generate_instance(2, 3, 3, seed=1))
        with pytest.raises(AttributeError):
            rho.dims = pd.FactoredDims((9,))

    @pytest.mark.parametrize("profile", pd.BI_PROFILES)
    def test_partial_trace_equals_the_dense_one(self, profile):
        dec = pd.generate_instance(4, 5, 6, seed=2, profile=profile)
        dense = pd.StateOperator(dec.dims, pd.rho_matrix(dec))
        for keep in ((0,), (1,)):
            reduced = pd.partial_trace(pd.build_rho(dec), keep)
            assert np.abs(reduced.matrix - pd.partial_trace(dense, keep).matrix).max() < 1e-14

    @pytest.mark.parametrize("keep", [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2)])
    def test_partial_trace_of_a_three_factor_factor(self, keep):
        tri = pd.generate_tri_instance(3, 3, 4, 3, seed=6)
        psi, norm = pd.build_tri_vector(tri)
        factored = pd.StateOperator.from_columns(tri.dims, psi.amplitudes[:, None], np.array([norm**2]))
        dense = pd.StateOperator(tri.dims, norm**2 * psi.projector())
        reduced = pd.partial_trace(factored, keep)
        assert np.abs(reduced.matrix - pd.partial_trace(dense, keep).matrix).max() < 1e-14


class TestTensorProduct:
    def test_standard_basis(self):
        out = pd.tensor_product(pd.Ket((1, 0)), pd.Ket((0, 1)))
        assert np.array_equal(out.amplitudes, np.array([0, 1, 0, 0], dtype=complex))

    def test_linearity_in_first_slot(self):
        s = 1 / np.sqrt(2)
        out = pd.tensor_product(pd.Ket((s, s)), pd.Ket((1, 0)))
        assert np.allclose(out.amplitudes, [s, 0, s, 0], atol=1e-15)

    def test_scalar_phase_carries_through(self):
        out = pd.tensor_product(pd.Ket((1j, 0)), pd.Ket((1, 0)))
        assert np.allclose(out.amplitudes, [1j, 0, 0, 0], atol=1e-15)

    def test_bilinear(self):
        rng = np.random.default_rng(0)
        x = _random_ket(rng, 3)
        y = _random_ket(rng, 4)
        z = _random_ket(rng, 4)
        alpha, beta = 0.3 + 0.1j, -0.7 + 0.2j
        comb = alpha * y.amplitudes + beta * z.amplitudes
        norm = np.linalg.norm(comb)
        lhs = norm * pd.tensor_product(x, pd.Ket.normalize(comb)).amplitudes
        rhs = alpha * pd.tensor_product(x, y).amplitudes + beta * pd.tensor_product(x, z).amplitudes
        assert np.allclose(lhs, rhs, atol=1e-12)

    @settings(deadline=None)
    @given(unit_vectors(), unit_vectors())
    def test_norm_multiplicative(self, x, y):
        out = pd.tensor_product(pd.Ket(x), pd.Ket(y))
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12

    def test_product_ket_reshapes_to_rank_one(self):
        # row-major composite indexing: a product ket reshapes to the outer product of its factors
        rng = np.random.default_rng(5)
        x = _random_ket(rng, 3)
        y = _random_ket(rng, 4)
        m = pd.bipartite_matrix(pd.tensor_product(x, y), pd.FactoredDims((3, 4)))
        assert np.array_equal(m, np.outer(x.amplitudes, y.amplitudes))
        s = np.linalg.svd(m, compute_uv=False)
        assert abs(s[0] - 1.0) < 1e-12
        assert s[1] < 1e-14


class TestBuildRho:
    def test_half_half_eigenvalues(self):
        rho = pd.build_rho(_half_half_decomposition())
        evals = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1]
        assert np.allclose(evals, [0.5, 0.5, 0.0, 0.0], atol=1e-12)

    def test_single_term_is_rank_one_projector(self):
        rng = np.random.default_rng(1)
        a = _random_ket(rng, 3)
        b = _random_ket(rng, 2)
        dec = pd.ProductDecomposition(pd.FactoredDims((3, 2)), (pd.ProductTerm(1.0, a, b),))
        rho = pd.build_rho(dec)
        ab = pd.tensor_product(a, b)
        assert np.allclose(rho.matrix, ab.projector(), atol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trace_equals_weight_sum(self, seed):
        dec = pd.generate_instance(3, 4, 3, seed=seed)
        rho = pd.build_rho(dec)
        assert abs(rho.trace - dec.weight_sum) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_term_outer_product_sum(self, seed):
        dec = pd.generate_instance(4, 5, 6, seed=seed, profile=pd.BI_PROFILES[seed % 3])
        loop = np.zeros((30, 30), dtype=complex)
        for t in dec.terms:
            v = np.kron(t.a.amplitudes, t.b.amplitudes)
            loop += t.weight * np.outer(v, v.conj())
        # summation order differs from the loop: a few ulps per entry
        assert np.abs(pd.rho_matrix(dec) - loop).max() < 1e-15

    def test_builds_at_extreme_weight_scales(self):
        # the plain sum of squares overflows at 1e300; every entry is finite
        dec = pd.generate_instance(3, 4, 4, seed=2)
        for scale in (1e200, 1e300):
            scaled = pd.ProductDecomposition(
                dec.dims, tuple(pd.ProductTerm(t.weight * scale, t.a, t.b) for t in dec.terms)
            )
            for rho in (pd.build_rho(scaled), pd.StateOperator(scaled.dims, pd.rho_matrix(scaled))):
                assert rho.trace == pytest.approx(scaled.weight_sum, rel=1e-12)

    def test_rejects_nonpositive_weight(self):
        a = pd.Ket.basis(2, 0)
        with pytest.raises(pd.DegenerateInput):
            pd.ProductTerm(0.0, a, a)
        with pytest.raises(pd.DegenerateInput):
            pd.ProductTerm(-0.3, a, a)

    def test_rejects_dimension_mismatch(self):
        a = pd.Ket.basis(2, 0)
        b = pd.Ket.basis(3, 0)
        with pytest.raises(pd.DimensionMismatch):
            pd.ProductDecomposition(pd.FactoredDims((2, 2)), (pd.ProductTerm(1.0, a, b),))


def _top_of_the_range():
    # diag(1e308, 0, 0, 5e307) as a decomposition: m + m^H of its matrix overflows
    return pd.ProductDecomposition._from_stacks(pd.FactoredDims((2, 2)), (np.eye(2), np.eye(2)), [1e308, 5e307])


class TestTopOfTheFloatRange:
    """Operators with entries above 2^1022, where (m + m^H)/2 overflows and
    m/2 + m^H/2 does not.  Any numpy warning fails these tests (``pyproject.toml``)."""

    def test_assembly_and_reductions_are_finite(self):
        dec = _top_of_the_range()
        rho = pd.build_rho(dec)
        expected = np.diag([1e308, 0.0, 0.0, 5e307])
        assert np.array_equal(rho.matrix, expected)
        assert np.array_equal(pd.rho_matrix(dec), expected)
        for keep in ((0,), (1,)):
            reduced = pd.partial_trace(rho, keep).matrix
            assert np.allclose(reduced, np.diag([1e308, 5e307]), rtol=1e-15, atol=0.0)

    def test_support_ranks_and_extraction_read_both_terms(self):
        rho = pd.build_rho(_top_of_the_range())
        assert [pd.support_and_null(rho, s)[0].dim for s in (0, 1)] == [2, 2]
        report = pd.extract_decomposition(rho, seed=0)
        assert report.decomposition.n == 2
        assert report.reconstruction_error <= 1e-15
        assert report.decomposition.values.tolist() == pytest.approx([1e308, 5e307], rel=1e-15)

    def test_a_non_psd_matrix_is_refused(self):
        # lambda_min = -1e300 is below -PSD_RTOL * 1.5e308, and m + m^H overflows
        m = np.diag([1.5e308, -1e300, 1.0, 1.0]).astype(complex)
        with pytest.raises(pd.DegenerateInput, match=r"not positive semidefinite: min eigenvalue -1e\+300 is below"):
            pd.StateOperator(pd.FactoredDims((2, 2)), m)

    def test_finite_entries_whose_norm_overflows_are_not_called_non_finite(self):
        overflow = r"entries are finite but the Frobenius norm overflows \(largest \|entry\| 1\.5e\+308\)"
        with pytest.raises(pd.DegenerateInput, match="^matrix " + overflow):
            pd.StateOperator(pd.FactoredDims((2, 2)), np.diag([1.5e308, 1.5e308, 0.0, 0.0]))
        with pytest.raises(pd.DegenerateInput, match="^column " + overflow):
            pd.StateOperator.from_columns(pd.FactoredDims((2,)), np.array([[1.5e308], [1.5e308]]), np.ones(1))
        with pytest.raises(pd.DegenerateInput, match=r"^matrix has non-finite entries \(Frobenius norm inf\)"):
            pd.StateOperator(pd.FactoredDims((2,)), np.diag([np.inf, 1.0]))

    def test_a_weight_sum_past_the_float_maximum_is_inf(self):
        assert _top_of_the_range().weight_sum == 1.5e308
        e = np.eye(2)
        dec = pd.ProductDecomposition._from_stacks(pd.FactoredDims((2, 2)), (e, e), [1.5e308, 1.2e308])
        assert dec.weight_sum == math.inf

    def test_a_dense_operator_near_the_float_maximum_extracts(self):
        # the sketch rho Omega overflowed: Omega is scaled by an exact power of two
        dec = pd.generate_instance(3, 3, 3, seed=4)
        m = pd.rho_matrix(dec)
        top = float(np.abs(m).max())
        rho = pd.StateOperator(dec.dims, m / top * 5e307)
        report = pd.extract_decomposition(rho)
        assert report.decomposition.n == 3 and report.reconstruction_error < 1e-13
        source = pd.ProductDecomposition._from_stacks(dec.dims, dec.stacks, dec.values / top * 5e307)
        assert pd.match_bidecomposition(source, report.decomposition).residual < 1e-13


class TestBottomOfTheFloatRange:
    """The dense operator of a 3 x 3, n = 3 instance times 10^k.  Stored as
    subnormals, its entries move by up to 1.4e-9 relative; where PSD_RTOL times
    its largest diagonal entry is not a normal float, the PSD test runs in
    units of a power of four and reads the stored matrix's lambda_min/lambda_max."""

    @pytest.mark.parametrize(
        "k, ratio", [(-310, None), (-312, None), (-313, "-1.208e-10"), (-314, "-1.304e-09"), (-316, "-1.016e-07")]
    )
    def test_the_stored_ratio_decides(self, k, ratio):
        dec = pd.generate_instance(3, 3, 3, seed=4)
        m = pd.rho_matrix(dec) * 10.0**k
        if ratio is None:
            assert pd.StateOperator(dec.dims, m).trace > 0.0
        else:
            with pytest.raises(pd.DegenerateInput, match=rf"not positive semidefinite: .*lambda_min/lambda_max = {ratio}$"):
                pd.StateOperator(dec.dims, m)

    def test_messages_in_the_normal_range_are_unchanged(self):
        with pytest.raises(pd.DegenerateInput) as caught:
            pd.StateOperator(pd.FactoredDims((2,)), np.diag([1.0, -1e-3]))
        assert str(caught.value) == (
            "matrix is not positive semidefinite: min eigenvalue -0.001 is below "
            "the bound -1e-10 (-PSD_RTOL * max eigenvalue)"
        )


class TestPartialTrace:
    @pytest.mark.parametrize("keep", [["a"], [True], [0.5]])
    def test_factor_indices_must_be_integers(self, keep):
        rho = pd.build_rho(pd.generate_instance(2, 2, 3, seed=1))
        with pytest.raises(pd.DimensionMismatch, match="factor index must be an integer"):
            pd.partial_trace(rho, keep)

    @pytest.mark.parametrize("keep", [0, np.int64(1), 0.5, None])
    def test_keep_must_be_a_sequence(self, keep):
        # a bare index used to fail as "'int' object is not iterable"
        rho = pd.build_rho(pd.generate_instance(2, 2, 3, seed=1))
        with pytest.raises(pd.DimensionMismatch, match="keep must be a sequence of factor indices"):
            pd.partial_trace(rho, keep)

    def test_product_state_reduction(self):
        rng = np.random.default_rng(2)
        a = _random_ket(rng, 3)
        b = _random_ket(rng, 4)
        ab = pd.tensor_product(a, b)
        rho = pd.StateOperator(pd.FactoredDims((3, 4)), ab.projector())
        reduced = pd.partial_trace(rho, (0,))
        assert np.allclose(reduced.matrix, a.projector(), atol=1e-14)
        reduced_b = pd.partial_trace(rho, (1,))
        assert np.allclose(reduced_b.matrix, b.projector(), atol=1e-14)

    def test_purified_projector_reduces_to_rho(self):
        dec = pd.generate_instance(3, 4, 3, seed=9)
        tri = pd.purify(dec, 3)
        psi, norm = pd.build_tri_vector(tri)
        proj = pd.StateOperator(tri.dims, norm**2 * psi.projector())
        reduced = pd.partial_trace(proj, (0, 1))
        rho = pd.build_rho(dec)
        assert pd.frobenius(reduced.matrix - rho.matrix) < 1e-12

    @pytest.mark.parametrize("keep", [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2)])
    def test_trace_preserved(self, keep):
        dec = pd.generate_tri_instance(2, 2, 3, 2, seed=4)
        psi, _ = pd.build_tri_vector(dec)
        rho = pd.StateOperator(dec.dims, psi.projector())
        reduced = pd.partial_trace(rho, keep)
        assert abs(reduced.trace - rho.trace) < 1e-12

    def test_reduction_of_an_accepted_edge_operator_is_returned(self):
        # accepted (lambda_min = -0.8e-10 >= -PSD_RTOL), but the trace over B
        # adds the two negative eigenvalues: the reduction's lambda_min is -1.6e-10
        rho = pd.StateOperator(pd.FactoredDims((2, 2)), np.diag([1.0, 0.0, -8e-11, -8e-11]).astype(complex))
        reduced = pd.partial_trace(rho, (0,))
        assert np.array_equal(reduced.matrix, pd.tensor._reduced(rho, (0,)))
        assert np.linalg.eigvalsh(reduced.matrix)[0] == pytest.approx(-1.6e-10, rel=1e-6)

    def test_a_users_matrix_keeps_the_operator_band(self):
        with pytest.raises(pd.DegenerateInput, match="-PSD_RTOL"):
            pd.StateOperator(pd.FactoredDims((2,)), np.diag([1.0, -1.6e-10]).astype(complex))

    @pytest.mark.parametrize("keep", [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2)])
    def test_reductions_at_the_edge_of_the_band_are_returned(self, keep):
        # every eigenvalue but the largest at -0.99 PSD_RTOL * lambda_max: the
        # reduction's lambda_min is d_T times that, outside the operator band
        dims = pd.FactoredDims((2, 3, 2))
        m = np.diag([1.0] + [-0.99 * pd.tensor.PSD_RTOL] * (dims.total - 1)).astype(complex)
        rho = pd.StateOperator(dims, m)
        reduced = pd.partial_trace(rho, keep)
        assert np.array_equal(reduced.matrix, pd.tensor._reduced(rho, keep))
        with pytest.raises(pd.DegenerateInput, match="not positive semidefinite"):
            pd.StateOperator(reduced.dims, reduced.matrix)

    def test_an_edge_reduction_does_not_survive_a_save_and_load(self, tmp_path):
        # the file holds a plain dense operator, which the loader checks at PSD_RTOL
        rho = pd.StateOperator(pd.FactoredDims((2, 2)), np.diag([1.0, 0.0, -8e-11, -8e-11]).astype(complex))
        path = str(tmp_path / "reduced.json")
        fileio.save_operator(path, pd.partial_trace(rho, (0,)))
        with pytest.raises(pd.FileError, match="not positive semidefinite"):
            fileio.load_operator(path)

    def test_rejects_invalid_subsets(self):
        rho = pd.StateOperator(pd.FactoredDims((2, 2)), np.eye(4, dtype=complex) / 4)
        with pytest.raises(pd.DimensionMismatch):
            pd.partial_trace(rho, ())
        with pytest.raises(pd.DimensionMismatch):
            pd.partial_trace(rho, (0, 1))
        with pytest.raises(pd.DimensionMismatch):
            pd.partial_trace(rho, (2,))


class TestBuildTriVector:
    def test_single_term_is_tensor_chain(self):
        rng = np.random.default_rng(3)
        a, b, c = (_random_ket(rng, d) for d in (2, 3, 2))
        tri = pd.TriDecomposition(pd.FactoredDims((2, 3, 2)), (pd.TriTerm(1.0, a, b, c),))
        ket, norm = pd.build_tri_vector(tri)
        chain = pd.tensor_product(pd.tensor_product(a, b), c)
        assert abs(norm - 1.0) < 1e-12
        assert np.allclose(ket.amplitudes, chain.amplitudes, atol=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_term_kron_sum(self, seed):
        tri = pd.generate_tri_instance(3, 4, 3, 5, seed=seed, profile=pd.TRI_PROFILES[seed])
        loop = sum(
            t.coeff * np.kron(np.kron(t.a.amplitudes, t.b.amplitudes), t.c.amplitudes) for t in tri.terms
        )
        ket, norm = pd.build_tri_vector(tri)
        assert np.abs(norm * ket.amplitudes - loop).max() < 1e-14

    def test_orthonormal_pair_sum_has_unit_norm(self):
        e = [pd.Ket.basis(2, 0), pd.Ket.basis(2, 1)]
        s = 1 / np.sqrt(2)
        tri = pd.TriDecomposition(
            pd.FactoredDims((2, 2, 2)),
            (pd.TriTerm(s, e[0], e[0], e[0]), pd.TriTerm(s, e[1], e[1], e[1])),
        )
        _, norm = pd.build_tri_vector(tri)
        assert abs(norm - 1.0) < 1e-12

    def test_cancelling_terms_raise(self):
        rng = np.random.default_rng(4)
        a, b, c = (_random_ket(rng, 2) for _ in range(3))
        tri = pd.TriDecomposition(
            pd.FactoredDims((2, 2, 2)),
            (pd.TriTerm(1.0, a, b, c), pd.TriTerm(-1.0, a, b, c)),
        )
        with pytest.raises(pd.DegenerateInput):
            pd.build_tri_vector(tri)


class TestExpansion:
    """``tensor._expansion``, the one core for coefficient-form vectors."""

    @pytest.mark.parametrize("dims", [(3, 4), (2, 5), (3, 2, 4)])
    def test_matches_per_term_kron_sum(self, dims):
        rng = np.random.default_rng(len(dims))
        stacks = [np.column_stack([_random_ket(rng, d).amplitudes for _ in range(3)]) for d in dims]
        values = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        loop = 0
        for j in range(3):
            term = values[j]
            for stack in stacks:
                term = np.kron(term, stack[:, j])
            loop = loop + term
        v, norm = tensor._expansion(stacks, values)
        assert np.abs(v - loop).max() < 1e-14
        assert norm == pytest.approx(np.linalg.norm(loop), rel=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_is_build_tri_vector_bit_for_bit(self, seed):
        tri = pd.generate_tri_instance(3, 4, 3, 5, seed=seed, profile=pd.TRI_PROFILES[seed])
        v, norm = tensor._expansion(tri.stacks, tri.values)
        ket, raw = pd.build_tri_vector(tri)
        assert raw == norm
        assert np.array_equal(ket.amplitudes, v / norm)

    @pytest.mark.parametrize("k", [-300, -170, 170, 300])
    def test_norm_is_scale_safe(self, k):
        e = np.eye(2)
        v, norm = tensor._expansion([e, e], 10.0**k * np.ones(2))
        assert norm == pytest.approx(10.0**k * np.sqrt(2), rel=1e-15)

    @pytest.mark.parametrize("ratio, cancels", [(0.5, True), (2.0, False)])
    def test_one_rule_names_the_norm_and_the_bound(self, ratio, cancels):
        # c|00> - c|00> + eps|11>: norm eps against the bound RTOL * (2c + eps)
        e = np.eye(2)
        stacks = [e[:, [0, 0, 1]]] * 2
        eps = ratio * tensor._TRI_CANCEL_RTOL * 2.0
        values = np.array([1.0, -1.0, eps])
        if cancels:
            bound = tensor._TRI_CANCEL_RTOL * (2.0 + eps)
            with pytest.raises(pd.DegenerateInput, match=re.escape(f"norm {eps!r} is at most {bound!r}")):
                tensor._expansion(stacks, values)
        else:
            assert tensor._expansion(stacks, values)[1] == eps

    @pytest.mark.parametrize("nfac", [2, 3])
    @pytest.mark.parametrize("signs, norm", [((1, 1), "inf"), ((1, -1), "0.0")])
    def test_overflow_is_refused_as_an_overflow(self, nfac, signs, norm):
        # two coefficients of 1.5e308 on |0..0> and |1..1> (signs 1, 1), or twice
        # on |0..0> with opposite signs: their magnitudes sum past the largest float
        e = np.eye(2)[:, [0, 1 if signs[1] > 0 else 0]]
        message = f"expansion vector overflows: norm {norm}, sum of coefficient magnitudes inf"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy warning on the way
            with pytest.raises(pd.DegenerateInput, match=re.escape(message)):
                tensor._expansion([e] * nfac, 1.5e308 * np.array(signs, dtype=float))


class TestFrobeniusStacks:
    """``frobenius`` of a stack: one norm per matrix, each as the lone matrix gets it."""

    def test_each_norm_is_the_lone_matrix_norm_bit_for_bit(self):
        rng = np.random.default_rng(2)
        for shape in [(3, 4, 4), (2, 5, 3), (1, 1, 7)]:
            stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            norms = pd.frobenius(stack)
            assert norms.shape == shape[:1]
            assert norms.tolist() == [pd.frobenius(m) for m in stack] == [float(np.linalg.norm(m)) for m in stack]

    def test_every_matrix_is_rescued_on_its_own(self):
        # squares that overflow, squares that underflow, a zero matrix and a
        # matrix of ordinary scale, in one stack and inside one errstate
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = pd.frobenius(np.stack([m * 1e200, m * 1e-200, 0 * m, m]))
        ref = np.linalg.norm(m)
        assert norms[0] == pytest.approx(ref * 1e200, rel=1e-14)
        assert norms[1] == pytest.approx(ref * 1e-200, rel=1e-14)
        assert norms[2:].tolist() == [0.0, pd.frobenius(m)]

    def test_non_finite_matrices_stay_non_finite(self):
        m = np.ones((2, 2, 2), dtype=complex)
        m[0, 0, 0], m[1, 1, 1] = np.inf, np.nan
        norms = pd.frobenius(m)
        assert norms[0] == np.inf and np.isnan(norms[1])
