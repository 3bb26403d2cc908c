"""Blind extraction of weighted product decompositions from operators."""

import numpy as np
import pytest

import proddecomp as pd


def _random_ket(rng, dim):
    return pd.Ket.normalize(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def _half_half_decomposition():
    e = [pd.Ket.basis(2, 0), pd.Ket.basis(2, 1)]
    return pd.ProductDecomposition(
        pd.FactoredDims((2, 2)),
        (pd.ProductTerm(0.5, e[0], e[0]), pd.ProductTerm(0.5, e[1], e[1])),
    )


class TestExtraction:
    def test_half_half_operator(self):
        dec = _half_half_decomposition()
        report = pd.extract_decomposition(pd.build_rho(dec), seed=0)
        assert report.decomposition.n == 2
        assert report.reconstruction_error < 1e-6
        result = pd.match_bidecomposition(dec, report.decomposition)
        assert result.residual < 1e-8

    def test_rank_one_product_projector(self):
        rng = np.random.default_rng(1)
        a, b = _random_ket(rng, 3), _random_ket(rng, 2)
        dec = pd.ProductDecomposition(pd.FactoredDims((3, 2)), (pd.ProductTerm(1.0, a, b),))
        report = pd.extract_decomposition(pd.build_rho(dec), seed=0)
        assert report.decomposition.n == 1
        term = report.decomposition.terms[0]
        assert abs(term.weight - 1.0) < 1e-10
        assert abs(term.a.overlap(a)) > 1 - 1e-8
        assert abs(term.b.overlap(b)) > 1 - 1e-8

    @pytest.mark.parametrize("seed", range(10))
    def test_oracle_equivalence_on_random_instances(self, seed):
        # oracle: the generator's planted decomposition and its operator
        profile = pd.BI_PROFILES[seed % 3]
        n = 3 if profile != "both-independent" else 2 + seed % 3
        dec = pd.generate_instance(n, 5, 4, seed=seed, profile=profile)
        rho = pd.build_rho(dec)
        report = pd.extract_decomposition(rho, seed=seed + 1)
        assert report.reconstruction_error < 1e-6
        recon = pd.build_rho(report.decomposition)
        assert pd.frobenius(recon.matrix - rho.matrix) / pd.frobenius(rho.matrix) < 1e-6
        result = pd.match_bidecomposition(dec, report.decomposition)
        assert result.n == n

    def test_two_seeds_agree_up_to_permutation(self):
        dec = pd.generate_instance(4, 5, 5, seed=42)
        rho = pd.build_rho(dec)
        r1 = pd.extract_decomposition(rho, seed=1)
        r2 = pd.extract_decomposition(rho, seed=2)
        result = pd.match_bidecomposition(r1.decomposition, r2.decomposition)
        assert result.residual < 1e-8

    @pytest.mark.parametrize(
        "profile, side", [("both-independent", 0), ("a-independent-only", 0), ("b-independent-only", 1)]
    )
    def test_side_is_the_larger_support_rank(self, profile, side):
        # the factor with the larger reduced support rank carries the
        # independent set (factor 0 on a tie); one probe pair suffices there
        dec = pd.generate_instance(4, 5, 5, seed=21, profile=profile)
        report = pd.extract_decomposition(pd.build_rho(dec), seed=1)
        assert report.side == side
        assert report.probes_used == 2
        assert pd.match_bidecomposition(dec, report.decomposition).residual < 1e-8

    def test_weights_are_sorted_descending(self):
        dec = pd.generate_instance(3, 4, 4, seed=7)
        report = pd.extract_decomposition(pd.build_rho(dec), seed=0)
        weights = [t.weight for t in report.decomposition.terms]
        assert weights == sorted(weights, reverse=True)

    def test_maximally_mixed_is_not_extractable(self):
        # no side can be linearly independent with rank-deficient structure:
        # any two-term reconstruction has rank 2 < 4
        rho = pd.StateOperator(pd.FactoredDims((2, 2)), np.eye(4, dtype=complex) / 4)
        with pytest.raises(pd.NotExtractable) as info:
            pd.extract_decomposition(rho, seed=0)
        message = str(info.value)
        assert "factor 0" in message
        assert "support ranks 2 and 2" in message
        assert "16 probes" in message

    def test_needs_two_factors(self):
        rho = pd.StateOperator(pd.FactoredDims((4,)), np.eye(4, dtype=complex) / 4)
        with pytest.raises(pd.DimensionMismatch):
            pd.extract_decomposition(rho, seed=0)

    def test_deterministic_under_seed(self):
        dec = pd.generate_instance(3, 4, 3, seed=3)
        rho = pd.build_rho(dec)
        r1 = pd.extract_decomposition(rho, seed=9)
        r2 = pd.extract_decomposition(rho, seed=9)
        assert r1.probes_used == r2.probes_used
        for t1, t2 in zip(r1.decomposition.terms, r2.decomposition.terms):
            assert t1.weight == t2.weight
            assert np.array_equal(t1.a.amplitudes, t2.a.amplitudes)

    def test_report_fields(self):
        dec = pd.generate_instance(2, 3, 3, seed=4)
        report = pd.extract_decomposition(pd.build_rho(dec), seed=0)
        assert report.side in (0, 1)
        assert report.probes_used >= 2
        assert report.reconstruction_error >= 0.0
