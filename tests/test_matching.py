"""Decomposition matchers, instance generators, and their error paths."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proddecomp as pd
from proddecomp import decomp, purification, subspace, tensor
from test_subspace import _near_rank_set, _with_slot, near_threshold_decompositions, random_decompositions


def _random_ket(rng, dim):
    return pd.Ket.normalize(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def _half_half_decomposition():
    e = [pd.Ket.basis(2, 0), pd.Ket.basis(2, 1)]
    return pd.ProductDecomposition(
        pd.FactoredDims((2, 2)),
        (pd.ProductTerm(0.5, e[0], e[0]), pd.ProductTerm(0.5, e[1], e[1])),
    )


def _balanced_tri_forms():
    """The balanced tripartite vector and its rotated pair form."""
    e = [pd.Ket.basis(2, 0), pd.Ket.basis(2, 1)]
    s = 1 / math.sqrt(2)
    abc = pd.TriDecomposition(
        pd.FactoredDims((2, 2, 2)),
        (pd.TriTerm(s, e[0], e[0], e[0]), pd.TriTerm(s, e[1], e[1], e[1])),
    )
    ab1 = np.kron(e[0].amplitudes, e[0].amplitudes)
    ab2 = np.kron(e[1].amplitudes, e[1].amplitudes)
    q = [pd.Ket.normalize(ab1 + ab2), pd.Ket.normalize(ab1 - ab2)]
    d = [
        pd.Ket.normalize(e[0].amplitudes + e[1].amplitudes),
        pd.Ket.normalize(e[0].amplitudes - e[1].amplitudes),
    ]
    return abc, q, d


class TestGenerators:
    def test_both_independent_profile(self):
        dec = pd.generate_instance(2, 2, 2, seed=0)
        a_ind, b_ind = pd.check_product_hypotheses(dec)
        assert a_ind and b_ind
        assert abs(dec.weight_sum - 1.0) < 1e-12

    def test_a_independent_only_profile(self):
        dec = pd.generate_instance(3, 3, 2, seed=1, profile="a-independent-only")
        a_kets = [t.a for t in dec.terms]
        b_kets = [t.b for t in dec.terms]
        assert pd.rank_and_independence(a_kets) == (3, True)
        rank, independent = pd.rank_and_independence(b_kets)
        assert not independent and rank == 2
        assert pd.is_noncollinear_set(b_kets)

    def test_b_independent_only_profile(self):
        dec = pd.generate_instance(4, 3, 5, seed=2, profile="b-independent-only")
        assert pd.rank_and_independence([t.b for t in dec.terms])[1]
        rank, independent = pd.rank_and_independence([t.a for t in dec.terms])
        assert not independent and rank == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=3, d1=2, d2=2, profile="both-independent"),
            dict(n=2, d1=4, d2=4, profile="a-independent-only"),  # dependent pair impossible
            dict(n=4, d1=3, d2=3, profile="b-independent-only"),  # n > d2
            dict(n=0, d1=2, d2=2),
            dict(n=2, d1=2, d2=2, profile="no-such-profile"),
        ],
    )
    def test_infeasible_combinations(self, kwargs):
        with pytest.raises(pd.DimensionMismatch):
            pd.generate_instance(kwargs.pop("n"), kwargs.pop("d1"), kwargs.pop("d2"), seed=0, **kwargs)

    def test_deterministic_under_seed(self):
        d1 = pd.generate_instance(3, 4, 3, seed=77)
        d2 = pd.generate_instance(3, 4, 3, seed=77)
        for t1, t2 in zip(d1.terms, d2.terms):
            assert t1.weight == t2.weight
            assert np.array_equal(t1.a.amplitudes, t2.a.amplitudes)
            assert np.array_equal(t1.b.amplitudes, t2.b.amplitudes)

    @pytest.mark.parametrize("profile", pd.TRI_PROFILES)
    def test_tri_profiles(self, profile):
        n = 2 if profile == "all-independent" else 3
        tri = pd.generate_tri_instance(n, 4, 4, 4, seed=5, profile=profile)
        flags = pd.check_tri_hypotheses(tri)
        dep = {"all-independent": None, "a-dependent": 0, "b-dependent": 1, "c-dependent": 2}[profile]
        for s in range(3):
            assert flags[s] == (s != dep)

    def test_tri_infeasible(self):
        with pytest.raises(pd.DimensionMismatch):
            pd.generate_tri_instance(4, 3, 4, 4, seed=0)  # n > d1 for independent slot
        with pytest.raises(pd.DimensionMismatch):
            pd.generate_tri_instance(2, 4, 4, 4, seed=0, profile="c-dependent")


class TestMatchTridecomposition:
    def test_identical_inputs_give_identity(self):
        tri = pd.generate_tri_instance(3, 4, 3, 4, seed=0)
        result = pd.match_tridecomposition(tri, tri)
        assert result.permutation == (0, 1, 2)
        assert result.residual < 1e-10
        for cert in result.per_term:
            assert cert.weight_first == cert.weight_second

    @pytest.mark.parametrize("seed", range(12))
    def test_recovers_planted_permutation_and_phases(self, seed):
        profile = pd.TRI_PROFILES[seed % len(pd.TRI_PROFILES)]
        n = 3 + seed % 2 if profile != "all-independent" else 2 + seed % 3
        tri = pd.generate_tri_instance(n, 6, 5, 6, seed=seed, profile=profile)
        twin, perm = pd.phase_permuted_twin(tri, seed=seed + 100)
        result = pd.match_tridecomposition(tri, twin)
        assert result.permutation == perm
        assert result.residual < 1e-8
        for cert in result.per_term:
            assert abs(abs(cert.overlap_a) - 1.0) < 1e-8
            assert abs(abs(cert.overlap_b) - 1.0) < 1e-8
            assert abs(abs(cert.overlap_c) - 1.0) < 1e-8
            assert abs(cert.weight_first - cert.weight_second) < 1e-8

    def test_coefficient_magnitude_multiset_preserved(self):
        tri = pd.generate_tri_instance(4, 5, 5, 5, seed=3)
        twin, _ = pd.phase_permuted_twin(tri, seed=4)
        result = pd.match_tridecomposition(tri, twin)
        first = sorted(abs(t.coeff) for t in tri.terms)
        second = sorted(abs(t.coeff) for t in twin.terms)
        assert np.allclose(first, second, atol=1e-8)
        assert result.n == 4

    def test_rotated_pair_form_violates_factorability(self):
        # the rotated two-term pair form of the balanced vector cannot be
        # recast as a tridecomposition: its first-slot kets are entangled
        abc, q, d = _balanced_tri_forms()
        s = 1 / math.sqrt(2)
        with pytest.raises(pd.HypothesisViolation, match="factorability hypothesis violated"):
            pd.split_pair_terms([s, s], q, d, pd.FactoredDims((2, 2)))
        # sanity: the two global vectors do agree, so only factorability fails
        psi, norm = pd.build_tri_vector(abc)
        pair_vec = s * (
            np.kron(q[0].amplitudes, d[0].amplitudes) + np.kron(q[1].amplitudes, d[1].amplitudes)
        )
        assert np.linalg.norm(norm * psi.amplitudes - pair_vec) < 1e-12

    def test_phased_product_pairs_split_into_the_same_tridecomposition(self):
        tri = pd.generate_tri_instance(4, 5, 4, 5, seed=6)
        a, b, c = tri.stacks
        phases = np.exp(2j * np.pi * np.random.default_rng(0).uniform(size=4))
        pair_kets = [pd.Ket(np.kron(a[:, j], b[:, j]) * phases[j]) for j in range(4)]
        third = [pd.Ket(c[:, j]) for j in range(4)]
        split = pd.split_pair_terms(tri.values / phases, pair_kets, third, pd.FactoredDims((5, 4)))
        assert split.dims == tri.dims
        assert np.abs(split.stacks[2] - c).max() == 0.0
        assert pd.match_tridecomposition(tri, split).permutation == (0, 1, 2, 3)
        with pytest.raises(pd.DimensionMismatch):
            pd.split_pair_terms(tri.values, pair_kets, third[:3] + [pd.Ket.basis(4, 0)], pd.FactoredDims((5, 4)))

    def test_different_vectors_rejected(self):
        t1 = pd.generate_tri_instance(3, 4, 4, 4, seed=10)
        t2 = pd.generate_tri_instance(3, 4, 4, 4, seed=11)
        with pytest.raises(pd.OperatorMismatch):
            pd.match_tridecomposition(t1, t2)

    def test_collinear_pair_is_named(self):
        rng = np.random.default_rng(6)
        a = _random_ket(rng, 3)
        b = [_random_ket(rng, 3) for _ in range(2)]
        c = [_random_ket(rng, 3) for _ in range(2)]
        tri = pd.TriDecomposition(
            pd.FactoredDims((3, 3, 3)),
            (pd.TriTerm(1.0, a, b[0], c[0]), pd.TriTerm(1.0, a, b[1], c[1])),
        )
        with pytest.raises(pd.HypothesisViolation, match=r"a-set collinear pair \(0, 1\)"):
            pd.match_tridecomposition(tri, tri)

    def test_zero_coefficient_rejected_at_construction(self):
        a = pd.Ket.basis(2, 0)
        with pytest.raises(pd.DegenerateInput):
            pd.TriTerm(0.0, a, a, a)

    def test_dims_mismatch(self):
        t1 = pd.generate_tri_instance(2, 2, 2, 2, seed=0)
        t2 = pd.generate_tri_instance(2, 2, 2, 3, seed=0)
        with pytest.raises(pd.DimensionMismatch):
            pd.match_tridecomposition(t1, t2)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
    def test_certifies_at_extreme_coefficient_scales(self, scale):
        # the plain sum of squares of the tri vector underflows or overflows here
        tri = pd.generate_tri_instance(4, 4, 5, 4, seed=3, profile="b-dependent")
        scaled = pd.TriDecomposition(
            tri.dims, tuple(pd.TriTerm(t.coeff * scale, t.a, t.b, t.c) for t in tri.terms)
        )
        twin, perm = pd.phase_permuted_twin(scaled, seed=9)
        result = pd.match_tridecomposition(scaled, twin)
        assert result.permutation == perm
        assert result.residual < 1e-8
        _, norm = pd.build_tri_vector(scaled)
        assert norm == pytest.approx(pd.build_tri_vector(tri)[1] * scale, rel=1e-12)


class TestMatchBidecomposition:
    def test_half_half_identity_match(self):
        dec = _half_half_decomposition()
        result = pd.match_bidecomposition(dec, dec)
        assert result.permutation == (0, 1)
        assert result.residual < 1e-10
        assert [c.weight_first for c in result.per_term] == [0.5, 0.5]
        for cert in result.per_term:
            assert cert.overlap_c is None

    @pytest.mark.parametrize("seed", range(12))
    def test_recovers_planted_permutation(self, seed):
        profile = pd.BI_PROFILES[seed % 3]
        n = 3 + seed % 3 if profile != "both-independent" else 2 + seed % 4
        d1 = max(n, 3) + 1
        d2 = max(n, 2)
        dec = pd.generate_instance(n, d1, d2, seed=seed, profile=profile)
        twin, perm = pd.phase_permuted_twin(dec, seed=seed + 50)
        result = pd.match_bidecomposition(dec, twin)
        assert result.permutation == perm
        assert result.residual < 1e-8
        for cert in result.per_term:
            assert abs(cert.weight_first - cert.weight_second) < 1e-6

    def test_self_match_has_tiny_residual(self):
        for seed in range(5):
            dec = pd.generate_instance(3, 4, 4, seed=seed)
            result = pd.match_bidecomposition(dec, dec)
            assert result.permutation == (0, 1, 2)
            assert result.residual < 1e-10

    def test_residual_does_not_grow_with_the_weight_scale(self):
        dec = pd.generate_instance(4, 5, 5, seed=12)
        twin, _ = pd.phase_permuted_twin(dec, seed=13)

        def scaled(d, factor):
            return pd.ProductDecomposition(d.dims, tuple(pd.ProductTerm(t.weight * factor, t.a, t.b) for t in d.terms))

        # the twin's weights drift by 1e-9 relative, inside eps times the weight sum
        residuals = [
            pd.match_bidecomposition(scaled(dec, s), scaled(twin, s * (1 + 1e-9))).residual for s in (1.0, 1e100)
        ]
        assert residuals[0] < 1e-8
        assert residuals[1] == pytest.approx(residuals[0], abs=1e-12)

    def test_different_operators_rejected(self):
        d1 = pd.generate_instance(3, 4, 3, seed=1)
        d2 = pd.generate_instance(3, 4, 3, seed=2)
        with pytest.raises(pd.OperatorMismatch, match="operators differ"):
            pd.match_bidecomposition(d1, d2)

    def test_collinear_pair_is_named(self):
        rng = np.random.default_rng(8)
        a = _random_ket(rng, 2)
        b = [_random_ket(rng, 2) for _ in range(2)]
        dec = pd.ProductDecomposition(
            pd.FactoredDims((2, 2)),
            (pd.ProductTerm(0.5, a, b[0]), pd.ProductTerm(0.5, a, b[1])),
        )
        with pytest.raises(pd.HypothesisViolation, match=r"a-set collinear pair \(0, 1\)"):
            pd.match_bidecomposition(dec, dec)

    def test_neither_side_independent_rejected(self):
        # four terms on 2x2 cannot have an independent side
        rng = np.random.default_rng(9)
        while True:
            a_kets = [_random_ket(rng, 2) for _ in range(4)]
            b_kets = [_random_ket(rng, 2) for _ in range(4)]
            if pd.is_noncollinear_set(a_kets) and pd.is_noncollinear_set(b_kets):
                break
        dec = pd.ProductDecomposition(
            pd.FactoredDims((2, 2)),
            tuple(pd.ProductTerm(0.25, a, b) for a, b in zip(a_kets, b_kets)),
        )
        with pytest.raises(pd.HypothesisViolation, match="neither ket set"):
            pd.match_bidecomposition(dec, dec)

    def test_single_term_instances(self):
        rng = np.random.default_rng(10)
        a, b = _random_ket(rng, 3), _random_ket(rng, 2)
        dec = pd.ProductDecomposition(pd.FactoredDims((3, 2)), (pd.ProductTerm(2.0, a, b),))
        result = pd.match_bidecomposition(dec, dec)
        assert result.permutation == (0,)
        assert result.per_term[0].weight_first == 2.0


class TestWrongDecompositionType:
    """Each entry point names the decomposition type it reads; the other type's stacks would be misread."""

    @staticmethod
    def _pair():
        dec = pd.generate_instance(2, 2, 2, seed=1)
        return dec, pd.purify(dec, 2)

    @pytest.mark.parametrize(
        "call, expected",
        [
            (lambda dec, tri: pd.match_bidecomposition(tri, tri), "a product decomposition"),
            (lambda dec, tri: pd.match_bidecomposition(dec, tri), "a product decomposition"),
            (lambda dec, tri: pd.match_tridecomposition(dec, dec), "a tridecomposition"),
            (lambda dec, tri: pd.build_rho(tri), "a product decomposition"),
            (lambda dec, tri: pd.rho_matrix(tri), "a product decomposition"),
            (lambda dec, tri: pd.check_product_hypotheses(tri), "a product decomposition"),
            (lambda dec, tri: pd.check_tri_hypotheses(dec), "a tridecomposition"),
            (lambda dec, tri: pd.purify(tri, 3), "a product decomposition"),
            (lambda dec, tri: pd.build_tri_vector(dec), "a tridecomposition"),
        ],
    )
    def test_refused_naming_the_expected_type(self, call, expected):
        with pytest.raises(pd.DimensionMismatch, match=f"expected {expected}, got"):
            call(*self._pair())


class TestUniquenessProperty:
    @pytest.mark.parametrize("seed", range(6))
    def test_twin_accepted_and_unrelated_rejected(self, seed):
        dec = pd.generate_instance(3, 5, 4, seed=seed)
        twin, perm = pd.phase_permuted_twin(dec, seed=seed + 7)
        assert pd.match_bidecomposition(dec, twin).permutation == perm
        other = pd.generate_instance(3, 5, 4, seed=seed + 1000)
        with pytest.raises(pd.OperatorMismatch):
            pd.match_bidecomposition(dec, other)


def _certify(d1, d2, tol):
    """``decomp._certify`` on the pairing and the magnitude exponent that its matchers pass it."""
    exponent = tensor._weight_exponent(*([abs(v) for v in d.values.tolist()] for d in (d1, d2)))
    return decomp._certify(d1, d2, decomp._pairing(d1, d2), exponent, tol)


def _rescaled(dec, factor, first=1.0):
    """``dec`` with every weight or coefficient times ``factor``, and term 0's times ``first`` too."""
    values = dec.values * factor
    values[0] *= first
    return type(dec)._from_stacks(dec.dims, dec.stacks, values)


def _forbid(monkeypatch, *fns):
    """Make every name of each of ``fns`` in the package's modules raise."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a forbidden routine ran on the match path")

    for fn in fns:
        for mod in (pd, tensor, subspace, purification, decomp):
            for name, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, name, forbidden)


#: Weight and coefficient scales 10^k of the scale-free rule's tests.
SCALE_EXPONENTS = (-300, -200, -12, -9, 0, 100, 300)


class TestScaleFreeEquality:
    """Equality is relative at every scale: ||x - y|| <= eps * max(||x||, ||y||) for
    operators and vectors, and matched weights within eps times the larger
    weight sum.  With an absolute floor of 1 below norm 1, a weight shifted
    by half certified once all weights were small."""

    @staticmethod
    def _instance(arity):
        """A decomposition of either arity, and its matcher."""
        if arity == "bi":
            return pd.generate_instance(4, 5, 5, seed=12), pd.match_bidecomposition
        return pd.generate_tri_instance(4, 4, 5, 4, seed=3, profile="b-dependent"), pd.match_tridecomposition

    @pytest.mark.parametrize("k", SCALE_EXPONENTS)
    @pytest.mark.parametrize("arity", ["bi", "tri"])
    def test_twins_certify_and_a_shifted_weight_is_refused(self, k, arity):
        dec, match = self._instance(arity)
        twin, perm = pd.phase_permuted_twin(dec, seed=13)
        scaled, twin = _rescaled(dec, 10.0**k), _rescaled(twin, 10.0**k)
        result = match(scaled, twin)
        assert result.permutation == perm
        assert result.residual < 1e-8
        with pytest.raises(pd.OperatorMismatch):
            match(scaled, _rescaled(twin, 1.0, first=1.5))

    @pytest.mark.parametrize("eps, shift", [(1e-2, 1e-3), (1e-4, 1e-5)])
    @pytest.mark.parametrize("arity", ["bi", "tri"])
    def test_a_weight_shifted_inside_eps_certifies(self, arity, eps, shift):
        # the paired weights pass the gate's Equal rule at eps, so the tolerance that
        # lets the operators through lets their weights through; a fixed 1e-6 refused them
        dec, match = self._instance(arity)
        twin, perm = pd.phase_permuted_twin(dec, seed=13)
        shifted = _rescaled(twin, 1.0, first=1 + shift)
        result = match(dec, shifted, pd.ToleranceConfig(eps))
        assert result.permutation == perm
        cert, larger_sum = result.per_term[0], max(np.abs(d.values).sum() for d in (dec, shifted))
        assert cert.weight_second == pytest.approx(abs(twin.values[0]) * (1 + shift), rel=1e-15)
        assert result.residual == pytest.approx(abs(cert.weight_first - cert.weight_second) / larger_sum, rel=1e-6)

    @pytest.mark.parametrize("arity", ["bi", "tri"])
    def test_a_weight_shifted_past_the_default_eps_is_refused_by_the_gate(self, arity):
        dec, match = self._instance(arity)
        twin, _ = pd.phase_permuted_twin(dec, seed=13)
        with pytest.raises(pd.OperatorMismatch):
            match(dec, _rescaled(twin, 1.0, first=1 + 1e-7))

    def test_relating_unitary_gate_is_relative(self):
        # reduced operators of unit kets have norm <= 1, so a floor of 1 was absolute
        split = pd.FactoredDims((8, 8))
        psi = pd.Ket.normalize(np.eye(8).reshape(-1))  # reduced operator I/8, norm 8^-1/2
        tilt = np.eye(8)
        tilt[0, 0] += 3e-8  # moves the reduced operator by 7e-9: below 1e-8, above 1e-8 * 8^-1/2
        phi = pd.Ket.normalize(tilt.reshape(-1))
        with pytest.raises(pd.OperatorMismatch, match="not co-purifications"):
            pd.relating_unitary(psi, phi, split)


class TestOneEqualRoutine:
    """Every gate that asks whether two operators or vectors are equal calls
    ``subspace._equal``: ||x - y|| <= eps * max(||x||, ||y||), NaN unequal."""

    def test_the_rule(self):
        tol = pd.DEFAULT_TOL
        assert subspace._equal(1e-8, 1.0, 0.5, tol) and not subspace._equal(1.01e-8, 0.5, 1.0, tol)
        assert subspace._equal(1e292, 1e300, 1e299, tol) and not subspace._equal(1e-300, 0.0, 0.0, tol)
        assert not subspace._equal(float("nan"), 1.0, 1.0, tol)

    def test_an_infinite_gap_is_unequal(self):
        # an overflow makes both the gap and a norm inf, and inf <= eps * inf would pass
        tol, inf = pd.DEFAULT_TOL, float("inf")
        assert not subspace._equal(inf, 1.0, inf, tol) and not subspace._equal(inf, inf, inf, tol)

    def test_every_gate_reads_it(self, monkeypatch):
        # with an Equal routine that never holds, each gate, and the match certificate's
        # weight test, refuses an input equal to itself
        dec = pd.generate_instance(3, 4, 4, seed=1)
        tri = pd.generate_tri_instance(3, 4, 4, 4, seed=1)
        psi = pd.Ket.normalize(np.random.default_rng(1).standard_normal(16))
        for module in (decomp, purification):
            monkeypatch.setattr(module, "_equal", lambda *args: False)
        with pytest.raises(pd.OperatorMismatch, match="operators differ"):
            pd.match_bidecomposition(dec, dec)
        with pytest.raises(pd.OperatorMismatch, match="tripartite vectors differ"):
            pd.match_tridecomposition(tri, tri)
        with pytest.raises(pd.OperatorMismatch, match="not co-purifications"):
            pd.relating_unitary(psi, psi, pd.FactoredDims((4, 4)))
        with pytest.raises(pd.NotExtractable, match="no reconstruction within eps"):
            pd.extract_decomposition(pd.build_rho(dec), seed=0)
        with pytest.raises(pd.HypothesisViolation, match=r"^weight mismatch for term pair \(0, 0\)"):
            _certify(dec, dec, pd.DEFAULT_TOL)
        with pytest.raises(pd.HypothesisViolation, match=r"^coefficient magnitude mismatch for term pair \(0, 0\)"):
            _certify(tri, tri, pd.DEFAULT_TOL)

    @pytest.mark.parametrize("eps", [1e-8, 1e-4])
    def test_the_certificate_decides_paired_weights_by_it_to_the_last_bit(self, eps):
        # term 0's weight stepped ulp by ulp across |w1 - w2| = eps * (larger weight sum):
        # the certificate refuses exactly where the rule, fed the same difference and sums, does
        tol, dec = pd.ToleranceConfig(eps), pd.generate_instance(4, 5, 5, seed=12)
        w0, total = dec.values[0], dec.values.sum()
        edge = w0 + eps * total / (1 - eps)
        verdicts = []
        for step in range(-6, 7):
            values = dec.values.copy()
            values[0] = edge + step * math.ulp(edge)
            moved = pd.ProductDecomposition._from_stacks(dec.dims, dec.stacks, values)
            expected = subspace._equal(abs(values[0] - w0), total, values.sum(), tol)
            try:
                _certify(dec, moved, tol)
                verdicts.append(True)
            except pd.HypothesisViolation as exc:
                assert str(exc).startswith("weight mismatch for term pair (0, 0)")
                verdicts.append(False)
            assert verdicts[-1] == expected
        assert verdicts[0] and not verdicts[-1]


class TestOneCollinearRule:
    """The hypothesis checks' collinear pairs and a certificate's paired overlaps
    both call ``subspace._collinear``: |<x|y>| >= 1 - eps."""

    def test_the_rule(self):
        tol = pd.DEFAULT_TOL
        edge = 1.0 - tol.eps
        assert subspace._collinear(edge, tol) and not subspace._collinear(np.nextafter(edge, 0.0), tol)
        assert subspace._collinear(np.array([1.0, edge, 0.5]), tol).tolist() == [True, True, False]
        assert not subspace._collinear(float("nan"), tol)

    def test_the_certificate_reads_is_collinear_at_the_threshold(self):
        # y = c e_p + sqrt(1 - c^2) e_q for c within 4 ulps of 1 - eps, so every
        # path computes <e_p|y> = c exactly; the one-term certificate (called past
        # the equality gate, which such a pair fails) agrees with is_collinear
        rng = np.random.default_rng(29)
        eps = pd.DEFAULT_TOL.eps
        verdicts, split = set(), []
        for d in (2, 3, 8):
            for k in range(-4, 5):
                c = (1.0 - eps) * (1.0 + k * 2.0**-52)
                p, q = rng.choice(d, 2, replace=False).tolist()
                x, y = pd.Ket.basis(d, p), np.zeros(d)
                y[p], y[q] = c, math.sqrt(1.0 - c * c)
                y = pd.Ket(y)
                other = pd.Ket.basis(2, 0)
                for arity in ("bi", "tri"):
                    if arity == "bi":
                        first = pd.ProductDecomposition(pd.FactoredDims((2, d)), (pd.ProductTerm(1.0, other, x),))
                        second = pd.ProductDecomposition(first.dims, (pd.ProductTerm(1.0, other, y),))
                    else:
                        dims = pd.FactoredDims((2, 2, d))
                        first = pd.TriDecomposition(dims, (pd.TriTerm(1.0, other, other, x),))
                        second = pd.TriDecomposition(dims, (pd.TriTerm(1.0, other, other, y),))
                    try:
                        certified = _certify(first, second, pd.DEFAULT_TOL).n == 1
                    except pd.HypothesisViolation as exc:
                        assert "collinearity certificate failed" in str(exc)
                        certified = False
                    verdicts.add(certified)
                    if certified != pd.is_collinear(x, y):
                        split.append((d, k, arity))
        assert not split and verdicts == {True, False}


class TestWeightsPastTheFloatMaximum:
    """Weights whose sum, or whose operator's norm, lies past the float maximum:
    the gate and the weight test read them in units of a power of two, and
    report gaps and weights in the caller's units."""

    @staticmethod
    def _top(first=1.5e308):
        e = np.eye(2)
        return pd.ProductDecomposition._from_stacks(pd.FactoredDims((2, 2)), (e, e), [first, 1.2e308])

    def test_a_halved_weight_is_a_mismatch(self):
        # the parent's sums and norms overflowed to inf, and the pair certified
        with pytest.raises(pd.OperatorMismatch, match=r"operators differ by 7\.500e\+307 in Frobenius norm"):
            pd.match_bidecomposition(self._top(), self._top(0.75e308))

    def test_a_twin_certifies_with_the_weights_as_stored(self):
        dec = self._top()
        twin, perm = pd.phase_permuted_twin(dec, seed=4)
        result = pd.match_bidecomposition(dec, twin)
        assert result.permutation == perm and result.residual < 1e-12
        assert [(c.weight_first, c.weight_second) for c in result.per_term] == [
            (w, w) for w in twin.values.tolist()
        ]

    def test_the_weight_test_reads_units_of_a_power_of_two(self):
        # the gate refuses such a pair first; in the caller's units the larger sum is inf,
        # and a weight test against it could never fail
        d1, d2 = self._top(), self._top(1.5e308 * (1 + 1e-5))
        with pytest.raises(pd.HypothesisViolation, match=r"weight mismatch for term pair \(0, 0\): 1\.5e\+308 vs"):
            _certify(d1, d2, pd.DEFAULT_TOL)

    def test_normalized_sums_to_one(self):
        normalized = self._top().normalized()
        assert normalized.values.tolist() == pytest.approx([1.5 / 2.7, 1.2 / 2.7], rel=1e-15)


class TestCoefficientsPastTheFloatMaximum:
    """Coefficients whose sum of magnitudes lies past the float maximum: the
    tripartite gate expands both vectors in units of a power of two, as the
    bipartite gate reads its weights, and reports the gap in the caller's units."""

    @staticmethod
    def _top(first=1.5e308):
        e = np.eye(2)
        return pd.TriDecomposition._from_stacks(pd.FactoredDims((2, 2, 2)), (e, e, e), [first, -1.2e308j])

    def test_a_twin_certifies_with_the_magnitudes_as_stored(self):
        # the parent's expansion overflowed: "expansion vector overflows: norm inf" (exit 2)
        t = self._top()
        twin, perm = pd.phase_permuted_twin(t, seed=4)
        result = pd.match_tridecomposition(t, twin)
        assert result.permutation == perm and result.residual < 1e-12
        assert [(c.weight_first, c.weight_second) for c in result.per_term] == [
            (abs(v), abs(v)) for v in twin.values.tolist()
        ]

    def test_a_halved_coefficient_is_a_mismatch(self):
        with pytest.raises(pd.OperatorMismatch, match=r"^tripartite vectors differ by 7\.500e\+307 "):
            pd.match_tridecomposition(self._top(), self._top(0.75e308))

    def test_a_cancellation_is_quoted_in_the_callers_units(self):
        e0 = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        values = np.array([1.0, -1.0], dtype=complex)
        messages = []
        for exponent in (0, 5, -7):
            with pytest.raises(pd.DegenerateInput, match="expansion vector cancels") as info:
                tensor._expansion((e0, e0, e0), values, exponent)
            messages.append(str(info.value))
        assert messages == [messages[0]] * 3 and "norm 0.0 is at most 2e-08 " in messages[0]


class TestDenseFreeBipartiteMatching:
    def test_factored_gate_is_exact_on_twins(self):
        # the Gram expansion of ||rho1 - rho2||_F^2 cancels to ~1e-16 here,
        # a relative gap near 1e-8; the QR-factored gate and the paired gate stay at rounding
        worst = 0.0
        for dec, twin, perm in _twin_instances():
            assert pd.match_bidecomposition(dec, twin).permutation == perm
            for gap, norm1, norm2 in (decomp._product_gap(dec, twin), _paired(dec, twin, pd.DEFAULT_TOL)[0]):
                worst = max(worst, gap / max(norm1, norm2))
        assert worst <= 1e-12

    @pytest.mark.parametrize(
        "first, second, dims",
        [
            ((3, "both-independent"), (4, "both-independent"), (4, 5)),  # n1 != n2, slot dims below n1 + n2
            ((2, "both-independent"), (3, "both-independent"), (9, 8)),  # slot dims above n1 + n2
            ((3, "both-independent"), (5, "a-independent-only"), (12, 3)),  # one above, one below
            ((4, "b-independent-only"), (1, "both-independent"), (2, 11)),
        ],
    )
    def test_factored_gate_measures_the_dense_distance(self, first, second, dims):
        for seed in range(4):
            (n1, p1), (n2, p2) = first, second
            d1 = pd.generate_instance(n1, *dims, seed=seed, profile=p1)
            d2 = pd.generate_instance(n2, *dims, seed=seed + 50, profile=p2)
            m1, m2 = pd.rho_matrix(d1), pd.rho_matrix(d2)
            gap, norm1, norm2 = decomp._product_gap(d1, d2)
            assert gap == pytest.approx(np.linalg.norm(m1 - m2), rel=1e-12)
            assert norm1 == pytest.approx(np.linalg.norm(m1), rel=1e-12)
            assert norm2 == pytest.approx(np.linalg.norm(m2), rel=1e-12)
            # the column QR that extraction's residual reads gives the same three norms
            column = decomp._factored_gap(tensor.product_columns(d1), tensor.product_columns(d2))
            assert (gap, norm1, norm2) == pytest.approx(column, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_structured_gate_is_scale_safe(self, scale):
        # a plain sum of squares of these norms underflows or overflows
        dec = pd.generate_instance(4, 5, 5, seed=12)
        twin, _ = pd.phase_permuted_twin(dec, seed=13)
        shifted = _rescaled(twin, 1.0, first=1.5)
        want = np.array(decomp._product_gap(dec, shifted)) * scale
        got = decomp._product_gap(_rescaled(dec, scale), _rescaled(shifted, scale))
        assert got == pytest.approx(want, rel=1e-12)
        with pytest.raises(pd.OperatorMismatch, match="operators differ"):
            pd.match_bidecomposition(_rescaled(dec, scale), _rescaled(shifted, scale))

    @pytest.mark.parametrize(
        "n, dim, bound",
        [
            (4, 96, 64 * 2**20),  # one dense operator here would take 1.4 GB
            (16, 128, 2 * 2**20),  # N = 16384: the column gate's N x 2n block alone is 8 MB here
        ],
    )
    def test_matches_beyond_the_dense_operator_cap(self, monkeypatch, n, dim, bound):
        dec = pd.generate_instance(n, dim, dim, seed=3)
        assert dec.dims.total > tensor.MAX_AMBIENT_DIM
        twin, perm = pd.phase_permuted_twin(dec, seed=4)
        shifted = _rescaled(twin, 1.0, first=1.2)
        _forbid(monkeypatch, tensor.product_columns)  # no N-row array either
        tracemalloc.start()
        try:
            assert pd.match_bidecomposition(dec, twin).permutation == perm
            with pytest.raises(pd.OperatorMismatch, match="operators differ"):
                pd.match_bidecomposition(dec, shifted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("profile", pd.BI_PROFILES)
    def test_match_path_uses_no_operator_or_purification(self, monkeypatch, profile):
        _forbid(
            monkeypatch,
            tensor.rho_matrix,
            tensor.product_columns,
            tensor.build_tri_vector,
            purification.purify,
            purification.relating_unitary,
        )
        dec = pd.generate_instance(4, 5, 5, seed=7, profile=profile)
        twin, perm = pd.phase_permuted_twin(dec, seed=8)
        assert pd.match_bidecomposition(dec, twin).permutation == perm

    def test_no_shared_independent_slot_certifies_at_a_loose_tolerance(self):
        # equal operators share their independent slot, so only a loose tolerance
        # lets two decompositions without one through.  The b-set's pairwise
        # overlaps are -0.09 (Gram eigenvalues 0.82, 1.09, 1.09): at 0.9 it is
        # non-collinear (0.09 < 1 - 0.9) but dependent (sqrt(0.82 / 1.09) < 0.9);
        # the twin swaps the two sets, and the operators differ by 0.107 < 0.9 * 0.577,
        # 0.577 being the norm of each.  The certificate needs no independent slot:
        # term k pairs with term k, whose kets in either slot are e_k and the k-th
        # skewed column, with overlap its diagonal entry 1, 0.996 or 0.991, all
        # collinear at 0.9 (|<x|y>| >= 0.1), and the weights are equal.  So the
        # claim of the result holds at that tolerance, and the pair certifies.
        gram = 1.09 * np.eye(3) - 0.09 * np.ones((3, 3))
        skewed = np.linalg.cholesky(gram).conj().T
        dims, weights = pd.FactoredDims((3, 3)), np.full(3, 1.0 / 3.0)
        a_only = pd.ProductDecomposition._from_stacks(dims, (np.eye(3), skewed), weights)
        b_only = pd.ProductDecomposition._from_stacks(dims, (skewed, np.eye(3)), weights)
        result = pd.match_bidecomposition(a_only, b_only, pd.ToleranceConfig(0.9))
        assert result.permutation == (0, 1, 2)
        overlaps = [abs(o) for c in result.per_term for o in (c.overlap_a, c.overlap_b)]
        assert overlaps == pytest.approx([1.0, 1.0, 0.99594, 0.99594, 0.99106, 0.99106], abs=1e-5)
        assert result.residual == pytest.approx(1.0 - 0.99106, abs=1e-5)


def _twin_instances():
    """The 300 small and 3 dense (32 x 32, n = 16) (decomposition, twin, permutation) triples
    of the gate precision test."""
    triples = []
    for i in range(300):
        dec = pd.generate_instance(3 + i % 4, 8, 8, seed=i, profile=pd.BI_PROFILES[i % 3])
        triples.append((dec, *pd.phase_permuted_twin(dec, seed=i + 1000)))
    for k, profile in enumerate(pd.BI_PROFILES):
        dec = pd.generate_instance(16, 32, 32, seed=k, profile=profile)
        triples.append((dec, *pd.phase_permuted_twin(dec, seed=k + 2000)))
    return triples


def _ill_report_pairs():
    """Each ill-grid report against its source, in both orders: generate_instance(6, 8, 8, seed=i),
    i < 60, restacked with weights geomspace(1, spread, 6), extracted from both operator forms."""
    pairs = []
    for spread in (1e-7, 3e-8, 1e-8):
        for i in range(60):
            base = pd.generate_instance(6, 8, 8, seed=i, profile=pd.BI_PROFILES[i % 3])
            dec = pd.ProductDecomposition._from_stacks(base.dims, base.stacks, np.geomspace(1, spread, 6))
            for rho in (pd.build_rho(dec), pd.StateOperator(dec.dims, pd.rho_matrix(dec))):
                try:
                    report = pd.extract_decomposition(rho, seed=i).decomposition
                except pd.NotExtractable:
                    continue
                pairs += [(dec, report), (report, dec)]
    return pairs


def _gate_cases():
    """The twins, copies of them with one weight x (1 + 1e-9 ... 1e-3), the ill-grid reports
    against their sources, and twins and shifted copies at weight scales 1e-300 and 1e300."""
    twins = [(dec, twin) for dec, twin, _ in _twin_instances()]
    factors = 1.0 + np.geomspace(1e-9, 1e-3, 7)
    shifted = []
    for i, (dec, twin) in enumerate(twins):
        values = twin.values.copy()
        values[i % twin.n] *= factors[i % 7]
        shifted.append((dec, pd.ProductDecomposition._from_stacks(twin.dims, twin.stacks, values)))
    scaled = [
        (_rescaled(dec, scale), _rescaled(other, scale))
        for scale in (1e-300, 1e300)
        for dec, other in twins[:21:3] + shifted[:21:3] + twins[-1:] + shifted[-1:]
    ]
    return twins + shifted + _ill_report_pairs() + scaled


def _edge_pair(step=0):
    """A twin pair whose gap is eps * the larger norm to within rounding, at the default eps:
    term 0's weight moved by the fixed point of shift = eps * max(||rho1||_F, ||rho2||_F),
    then by ``step`` ulps of the weight."""
    dec = pd.generate_instance(4, 5, 6, seed=3)
    twin, _ = pd.phase_permuted_twin(dec, seed=4)
    values, shift = twin.values.copy(), 0.0
    for _ in range(3):
        values[0] = twin.values[0] + shift
        moved = pd.ProductDecomposition._from_stacks(dec.dims, twin.stacks, values)
        shift = pd.DEFAULT_TOL.eps * max(decomp._product_gap(dec, moved)[1:])
    values[0] = twin.values[0] + shift + step * math.ulp(twin.values[0])
    return dec, pd.ProductDecomposition._from_stacks(dec.dims, twin.stacks, values)


def _paired(d1, d2, tol):
    """``decomp._paired_gap`` with the exponent and pairing that the matcher passes it."""
    e = tensor._weight_exponent(d1.values, d2.values)
    return decomp._paired_gap(d1, d2, decomp._pairing(d1, d2), e, tol), e


class TestPairedGate:
    """The bipartite gate in the basis of paired differences decides only outside its
    rounding interval, and there as the exact gate does; ``_product_gap`` decides the rest."""

    @pytest.fixture(scope="class")
    def cases(self):
        """Each pair with its Khatri-Rao gap and norms, which do not depend on eps."""
        return [(d1, d2, decomp._product_gap(d1, d2, _paired(d1, d2, pd.DEFAULT_TOL)[1])) for d1, d2 in _gate_cases()]

    @pytest.mark.parametrize("eps", [1e-13, 1e-8, 1e-4, 0.9])
    def test_decides_as_the_khatri_rao_gate(self, cases, eps):
        tol, undecided, verdicts = pd.ToleranceConfig(eps), 0, set()
        for d1, d2, exact in cases:
            got, _ = _paired(d1, d2, tol)
            want = subspace._equal(*exact, tol)
            if got is None:
                undecided += 1
            else:
                assert subspace._equal(*got, tol) == want
                verdicts.add(want)
        # the interval is narrow: all but the few pairs whose gap lies within it of eps decide
        assert undecided <= len(cases) // 100
        assert verdicts == ({True} if eps == 0.9 else {True, False})

    def test_a_gap_within_the_bound_of_eps_falls_back_to_the_khatri_rao_gate(self, monkeypatch):
        calls, product_gap = [], decomp._product_gap

        def spy(*args):
            calls.append(product_gap(*args))
            return calls[-1]

        monkeypatch.setattr(decomp, "_product_gap", spy)
        verdicts = []
        for step in range(-6, 7):
            d1, d2 = _edge_pair(step)
            assert _paired(d1, d2, pd.DEFAULT_TOL)[0] is None
            calls.clear()
            try:
                pd.match_bidecomposition(d1, d2)
                verdicts.append(True)
            except pd.OperatorMismatch:
                verdicts.append(False)
            assert len(calls) == 1 and verdicts[-1] == subspace._equal(*calls[0], pd.DEFAULT_TOL)
        assert verdicts[0] and not verdicts[-1]

    @pytest.mark.parametrize("n, d1, d2, seed", [(2, 2, 2, 637000192), (2, 3, 4, 1100794654)])
    def test_a_twin_whose_gap_is_rounding_alone_matches(self, n, d1, d2, seed):
        # two uniqueness-battery twins (master seeds 2 and 3): the GEMM that forms C left
        # rounding on its imaginary diagonal, tr(CGCG) read -2.2e-33, below -slack2, and
        # the gate's sqrt raised a raw ValueError; C's Hermitian part keeps the trace
        # the squared norm of an operator, and the gap inside its rounding bound
        dec = pd.generate_instance(n, d1, d2, seed=seed)
        twin, perm = pd.phase_permuted_twin(dec, seed=seed + 1)
        gap, norm1, norm2 = _paired(dec, twin, pd.DEFAULT_TOL)[0]
        assert 0.0 < gap <= 1e-15 * max(norm1, norm2)
        assert pd.match_bidecomposition(dec, twin).permutation == perm

    def test_a_dense_size_match_runs_no_qr(self, monkeypatch):
        def failing(*args, **kwargs):
            raise AssertionError("a QR ran on the decided match path")

        dec = pd.generate_instance(16, 32, 32, seed=1)
        twin, perm = pd.phase_permuted_twin(dec, seed=2)
        monkeypatch.setattr(np.linalg, "qr", failing)
        assert pd.match_bidecomposition(dec, twin).permutation == perm
        with pytest.raises(pd.OperatorMismatch, match="operators differ"):
            pd.match_bidecomposition(dec, _rescaled(twin, 1.0, first=1.5))


def _tri_twin_pairs():
    """300 small tripartite instances (n = 3 ... 6 on 6 x 6 x 6, the profiles in rotation) and
    the purifications of the three 32 x 32, n = 16 decompositions of the gate precision test,
    each with its twin."""
    tris = [pd.generate_tri_instance(3 + i % 4, 6, 6, 6, seed=i, profile=pd.TRI_PROFILES[i % 4]) for i in range(300)]
    tris += [pd.purify(pd.generate_instance(16, 32, 32, seed=k, profile=p), 16) for k, p in enumerate(pd.BI_PROFILES)]
    return [(t, pd.phase_permuted_twin(t, seed=i + 1000)[0]) for i, t in enumerate(tris)]


def _phased(dec):
    """``dec`` with every ket phased by ``subspace.fix_phase``."""
    return type(dec)._from_stacks(dec.dims, [subspace.fix_phase(a) for a in dec.stacks], dec.values)


def _tri_gate_cases():
    """The tripartite twins, copies of them with one coefficient x (1 + 1e-9 ... 1e-3), the
    purifications of the ill-grid reports and their sources (each ket phased by ``fix_phase``
    first, as the reports' are, so that a purification depends on the operator alone), and
    twins and shifted copies at coefficient scales 1e-300 and 1e300."""
    twins = _tri_twin_pairs()
    factors = 1.0 + np.geomspace(1e-9, 1e-3, 7)
    shifted = []
    for i, (tri, twin) in enumerate(twins):
        values = twin.values.copy()
        values[i % twin.n] *= factors[i % 7]
        shifted.append((tri, pd.TriDecomposition._from_stacks(twin.dims, twin.stacks, values)))
    purified = [tuple(pd.purify(_phased(d), 6) for d in pair) for pair in _ill_report_pairs()]
    scaled = [
        (_rescaled(tri, scale), _rescaled(other, scale))
        for scale in (1e-300, 1e300)
        for tri, other in twins[:21:3] + shifted[:21:3] + twins[-1:] + shifted[-1:]
    ]
    return twins + shifted + purified + scaled


def _tri_edge_pair(step=0):
    """An instance and a copy whose vectors differ by eps * the larger norm to within rounding, at
    the default eps: coefficient 0 moved along its own phase by the fixed point of shift =
    eps * max(||v1||, ||v2||), then by ``8 * step`` ulps of its magnitude."""
    tri = pd.generate_tri_instance(4, 5, 6, 4, seed=3)
    x0, shift = complex(tri.values[0]), 0.0
    phase = x0 / abs(x0)
    values = tri.values.copy()
    for _ in range(3):
        values[0] = x0 + shift * phase
        moved = pd.TriDecomposition._from_stacks(tri.dims, tri.stacks, values)
        shift = pd.DEFAULT_TOL.eps * max(decomp._expansion_gap(tri, moved, 0)[1:])
    values[0] = x0 + (shift + 8 * step * math.ulp(abs(x0))) * phase
    return tri, pd.TriDecomposition._from_stacks(tri.dims, tri.stacks, values)


def _paired_tri(t1, t2, tol):
    """``decomp._paired_tri_gap`` with the exponent and pairing that the matcher passes it."""
    e = tensor._weight_exponent(*([abs(x) for x in t.values.tolist()] for t in (t1, t2)))
    return decomp._paired_tri_gap(t1, t2, decomp._pairing(t1, t2), e, tol), e


class TestPairedTriGate:
    """The tripartite gate in the basis of paired differences decides only outside its
    rounding interval, and there as the expansion gate does; ``_expansion_gap`` decides the rest."""

    @pytest.fixture(scope="class")
    def cases(self):
        """Each pair with its expansion gap and norms, which do not depend on eps."""
        cases = _tri_gate_cases()
        return [(t1, t2, decomp._expansion_gap(t1, t2, _paired_tri(t1, t2, pd.DEFAULT_TOL)[1])) for t1, t2 in cases]

    @pytest.mark.parametrize("eps", [1e-13, 1e-8, 1e-4, 0.9])
    def test_decides_as_the_expansion_gate(self, cases, eps):
        tol, undecided, verdicts = pd.ToleranceConfig(eps), 0, set()
        for t1, t2, exact in cases:
            got, _ = _paired_tri(t1, t2, tol)
            want = subspace._equal(*exact, tol)
            if got is None:
                undecided += 1
            else:
                assert subspace._equal(*got, tol) == want
                verdicts.add(want)
        # the interval is narrow: all but the few pairs whose gap lies within it of eps decide
        assert undecided <= len(cases) // 100
        assert verdicts == ({True} if eps == 0.9 else {True, False})

    def test_a_gap_within_the_bound_of_eps_falls_back_to_the_expansion_gate(self, monkeypatch):
        calls, expansion_gap = [], decomp._expansion_gap

        def spy(*args):
            calls.append(expansion_gap(*args))
            return calls[-1]

        monkeypatch.setattr(decomp, "_expansion_gap", spy)
        verdicts = []
        for step in range(-6, 7):
            t1, t2 = _tri_edge_pair(step)
            assert _paired_tri(t1, t2, pd.DEFAULT_TOL)[0] is None
            calls.clear()
            try:
                pd.match_tridecomposition(t1, t2)
                verdicts.append(True)
            except pd.OperatorMismatch:
                verdicts.append(False)
            assert len(calls) == 1 and verdicts[-1] == subspace._equal(*calls[0], pd.DEFAULT_TOL)
        assert verdicts[0] and not verdicts[-1]

    def test_a_dense_size_match_expands_no_vector(self, monkeypatch):
        def failing(*args, **kwargs):
            raise AssertionError("an expansion ran on the decided match path")

        tri = pd.purify(pd.generate_instance(16, 32, 32, seed=1), 16)
        twin, perm = pd.phase_permuted_twin(tri, seed=2)
        monkeypatch.setattr(decomp, "_expansion", failing)
        assert pd.match_tridecomposition(tri, twin).permutation == perm
        with pytest.raises(pd.OperatorMismatch, match="tripartite vectors differ"):
            pd.match_tridecomposition(tri, _rescaled(twin, 1.0, first=1.5))


def _handover_calls():
    """(kind, call) for a small mixed set: bipartite twins and copies with one weight moved,
    tripartite twins and copies with one coefficient moved, and factored extractions, one of a
    rank-4 operator on 3 x 3 factors, which no three terms reproduce, refused by the gate."""
    calls = []
    for i in range(4):
        dec = pd.generate_instance(3 + i % 2, 4, 5, seed=i, profile=pd.BI_PROFILES[i % 3])
        twin = pd.phase_permuted_twin(dec, seed=i + 10)[0]
        tri = pd.generate_tri_instance(3 + i % 2, 4, 4, 5, seed=i, profile=pd.TRI_PROFILES[i % 4])
        tritwin = pd.phase_permuted_twin(tri, seed=i + 20)[0]
        for first in (1.0, 1.0 + 10.0 ** -(3 + i)):
            calls.append(("bi", lambda d=dec, t=_rescaled(twin, 1.0, first): pd.match_bidecomposition(d, t)))
            calls.append(("tri", lambda d=tri, t=_rescaled(tritwin, 1.0, first): pd.match_tridecomposition(d, t)))
        calls.append(("extract", lambda rho=pd.build_rho(dec), i=i: pd.extract_decomposition(rho, seed=i)))
    mixed = pd.StateOperator.from_columns(pd.FactoredDims((3, 3)), np.eye(9)[:, :4], np.ones(4))
    calls.append(("extract", lambda: pd.extract_decomposition(mixed, seed=0)))
    return calls


def _outcome(call):
    """The verdict of ``call``: the permutation or the extracted stacks and weights, or the
    refusal's class and text."""
    try:
        result = call()
    except pd.ProddecompError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, decomp.MatchResult):
        return result.permutation
    return [a.tolist() for a in result.decomposition.stacks], result.decomposition.values.tolist()


class TestOneDecisionRule:
    """The three equality gates decide through one rule, ``decomp._decided``, which only hands
    over: where it decides nothing, each gate's fallback decides, once per decision, and every
    verdict and refusal stays the same."""

    def test_the_fallbacks_decide_as_the_rule_does(self, monkeypatch):
        calls, log = _handover_calls(), []

        def counting(name, fn):
            def spy(*args):
                log.append(name)
                return fn(*args)

            return spy

        for name in ("_product_gap", "_expansion_gap", "_factored_gap"):
            monkeypatch.setattr(decomp, name, counting(name, getattr(decomp, name)))

        def run():
            outcomes, fallbacks = [], []
            for _, call in calls:
                log.clear()
                outcomes.append(_outcome(call))
                fallbacks.append(sorted(log))
            return outcomes, fallbacks

        decided, decided_fallbacks = run()
        monkeypatch.setattr(decomp, "_decided", lambda *args: None)
        handed, handed_fallbacks = run()
        assert handed == decided
        # the bipartite fallback takes the column QR gap of its Khatri-Rao columns
        once = {"bi": ["_factored_gap", "_product_gap"], "tri": ["_expansion_gap"], "extract": ["_factored_gap"]}
        assert handed_fallbacks == [once[kind] for kind, _ in calls]
        assert decided_fallbacks == [[]] * len(calls)
        refusals = [o[0] for o in decided if isinstance(o[0], str)]
        assert refusals == ["OperatorMismatch"] * 8 + ["NotExtractable"]


@st.composite
def _ket_sets(draw):
    """Kets drawn from a small pool with random phases and tiny perturbations,
    so exactly and nearly collinear pairs are common."""
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(draw(st.integers(1, 4)))]
    kets = []
    for _ in range(draw(st.integers(0, 7))):
        v = pool[draw(st.integers(0, len(pool) - 1))] * np.exp(1j * draw(st.floats(0, 2 * np.pi)))
        v = v + draw(st.sampled_from([0.0, 1e-9, 1e-5, 1e-2])) * rng.standard_normal(dim)
        kets.append(pd.Ket.normalize(v))
    return kets


class TestCollinearPairs:
    @settings(deadline=None, max_examples=200)
    @given(_ket_sets(), st.sampled_from([1e-8, 1e-4, 0.1, 0.5]))
    def test_vectorized_equals_pairwise_loop(self, kets, eps):
        tol = pd.ToleranceConfig(eps)
        loop = [
            (i, j)
            for i in range(len(kets))
            for j in range(i + 1, len(kets))
            if pd.is_collinear(kets[i], kets[j], tol)
        ]
        assert subspace.collinear_pairs(kets, tol) == loop


def _reference_certify(terms1, terms2, mags1, mags2, tol, wscale, what):
    """The per-Ket certification loop: term k of the second list pairs with the
    term of the first whose ``Ket.overlap``s have the largest product of
    magnitudes; each pair's overlaps must have magnitude >= 1 - eps, and its
    weights agree to eps x wscale, the larger weight sum."""
    n = len(terms1)
    perm = []
    for second in terms2:
        scores = [math.prod(abs(x.overlap(y)) for x, y in zip(first.kets, second.kets)) for first in terms1]
        perm.append(scores.index(max(scores)))
    residual, rows = 0.0, []
    for k, j in enumerate(perm):
        row = []
        for s, (x, y) in enumerate(zip(terms1[j].kets, terms2[k].kets)):
            o = x.overlap(y)
            if abs(o) < 1.0 - tol.eps:
                raise pd.HypothesisViolation(
                    f"collinearity certificate failed in slot {'abc'[s]} for term pair "
                    f"({j}, {k}): overlap magnitude {abs(o):.12g}"
                )
            residual = max(residual, abs(1.0 - abs(o)))
            row.append(o)
        w1, w2 = float(mags1[j]), float(mags2[k])
        dw = abs(w1 - w2)
        if dw > tol.eps * wscale:
            raise pd.HypothesisViolation(f"{what} mismatch for term pair ({j}, {k}): {w1!r} vs {w2!r}")
        residual = max(residual, dw / wscale)
        rows.append(row + [w1, w2])
    if sorted(perm) != list(range(n)):
        raise pd.HypothesisViolation(f"permutation {tuple(perm)} is not a bijection on 0..{n - 1}")
    return tuple(perm), rows, residual


def _certify_both(d1, d2, tol=pd.DEFAULT_TOL):
    """(stacked result, reference result), each a tuple or the raised message."""
    if isinstance(d1, pd.ProductDecomposition):
        mags = [[t.weight for t in d.terms] for d in (d1, d2)]
        what = "weight"
    else:
        mags = [[abs(t.coeff) for t in d.terms] for d in (d1, d2)]
        what = "coefficient magnitude"
    try:
        # weights compare relative to the larger weight sum at every scale
        ref = _reference_certify(d1.terms, d2.terms, *mags, tol, max(map(sum, mags)), what)
    except pd.HypothesisViolation as exc:
        ref = str(exc)
    try:
        got = _certify(d1, d2, tol)
    except pd.HypothesisViolation as exc:
        return str(exc), ref
    rows = [
        [o for o in (c.overlap_a, c.overlap_b, c.overlap_c) if o is not None] + [c.weight_first, c.weight_second]
        for c in got.per_term
    ]
    return (got.permutation, rows, got.residual), ref


def _assert_same_certificate(got, ref):
    """Same message, or same permutation, overlaps and weights, and residuals
    within 1e-14 of each other."""
    if isinstance(ref, str):
        assert got == ref
        return
    assert not isinstance(got, str), got
    assert got[0] == ref[0]
    assert np.abs(np.array(got[1]) - np.array(ref[1])).max() <= 1e-14
    assert got[2] == pytest.approx(ref[2], abs=1e-14)


def _replace(dec, j, slot=None, ket=None, scale=1.0):
    """``dec`` with term j's ket in ``slot`` replaced, or its weight / coefficient scaled."""
    term = dec.terms[j]
    parts = list(term.kets)
    if ket is not None:
        parts[slot] = ket
    if isinstance(dec, pd.ProductDecomposition):
        new = pd.ProductTerm(term.weight * scale, *parts)
    else:
        new = pd.TriTerm(term.coeff * scale, *parts)
    return type(dec)(dec.dims, dec.terms[:j] + (new,) + dec.terms[j + 1 :])


#: Condition numbers of the near-dependent slot in :func:`_conditioned_decompositions`.
CERTIFIED_CONDS = (1e2, 1e4, 1e6)


def _conditioned_decompositions():
    """A bipartite and a tripartite decomposition per condition number in CERTIFIED_CONDS,
    slot a (bipartite), resp. c (tripartite), holding a near-dependent triple."""
    rng = np.random.default_rng(11)
    out = []
    for i, cond in enumerate(CERTIFIED_CONDS):
        bases = ((pd.generate_instance(4, 5, 6, seed=i), 0), (pd.generate_tri_instance(4, 5, 6, 4, seed=i), 2))
        for base, slot in bases:
            dec = _with_slot(base, slot, _near_rank_set(rng, base.dims[slot], 1.0, 1.0 / cond))
            assert cond / 2 < np.linalg.cond(dec.stacks[slot]) < 2 * cond
            out.append(dec)
    return out


class TestStackedCertification:
    """``_certify`` reads the stored stacks and values; the per-Ket loop is the oracle."""

    @staticmethod
    def _cases():
        """The random and near-threshold cases, then those of :func:`_conditioned_decompositions`."""
        near = [case[0] for case in near_threshold_decompositions(seed=5)]
        return random_decompositions(seed=5) + near + _conditioned_decompositions()

    @staticmethod
    def _match(dec, twin):
        match = pd.match_bidecomposition if isinstance(dec, pd.ProductDecomposition) else pd.match_tridecomposition
        return match(dec, twin)

    def test_twins_certify_as_the_per_ket_loop(self):
        for i, dec in enumerate(self._cases()):
            twin, perm = pd.phase_permuted_twin(dec, seed=i)
            got, ref = _certify_both(dec, twin)
            _assert_same_certificate(got, ref)
            assert got[0] == perm

    def test_matchers_certify_the_conditioned_twins_at_rounding_level(self, monkeypatch):
        # the paired overlaps are read directly, so no slot's condition number
        # amplifies the residual; each matcher's result is the certificate's
        seen = []
        certify = decomp._certify

        def spy(*args):
            seen.append(certify(*args))
            return seen[-1]

        monkeypatch.setattr(decomp, "_certify", spy)
        for i, dec in enumerate(_conditioned_decompositions()):
            twin, perm = pd.phase_permuted_twin(dec, seed=i)
            seen.clear()
            result = self._match(dec, twin)
            assert [result] == seen
            assert result.permutation == perm
            assert result.residual <= 1e-14

    def test_mutations_raise_the_per_ket_messages(self):
        # a shifted weight, and a ket rotated towards another term's in the
        # last slot, on twins of every profile
        seen = set()
        for i, dec in enumerate(self._cases()):
            twin, _ = pd.phase_permuted_twin(dec, seed=i)
            k, last = i % dec.n, len(dec.dims) - 1
            mutants = [_replace(twin, k, scale=1.5)]
            if dec.n > 1:
                towards = twin.terms[(k + 1) % dec.n].kets[last].amplitudes
                rotated = pd.Ket.normalize(twin.terms[k].kets[last].amplitudes + 1e-3 * (1 + i % 3) * towards)
                mutants.append(_replace(twin, k, slot=last, ket=rotated))
            for mutant in mutants:
                got, ref = _certify_both(dec, mutant)
                _assert_same_certificate(got, ref)
                if isinstance(ref, str):
                    seen.add(ref.split(" for term pair")[0])
        assert {"weight mismatch", "coefficient magnitude mismatch"} <= seen
        assert {"collinearity certificate failed in slot b", "collinearity certificate failed in slot c"} <= seen

        # an a-ket orthogonal to every a-ket of the other input, and one halfway
        # between two of them: the pairing finds no collinear partner
        e = [pd.Ket.basis(3, i) for i in range(3)]
        b = [pd.Ket.basis(2, i) for i in range(2)]
        plus = pd.Ket.normalize(e[0].amplitudes + e[1].amplitudes)
        first = pd.ProductDecomposition(
            pd.FactoredDims((3, 2)), (pd.ProductTerm(1.0, e[0], b[0]), pd.ProductTerm(1.0, e[1], b[1]))
        )
        mutations = (
            ((e[0], e[2]), "slot a for term pair (0, 1): overlap magnitude 0"),
            ((e[0], plus), "slot a for term pair (1, 1): overlap magnitude 0.707106781187"),
        )
        for kets, expected in mutations:
            second = pd.ProductDecomposition(
                first.dims, tuple(pd.ProductTerm(1.0, a, t.b) for a, t in zip(kets, first.terms))
            )
            got, ref = _certify_both(second, first)
            assert got == ref and ref.endswith(expected), (got, ref)

        # every term of the second input collinear with one term of the first: each
        # pair passes, and the result refuses the pairing that is not a bijection
        e2 = [pd.Ket.basis(2, i) for i in range(2)]
        first = pd.ProductDecomposition(
            pd.FactoredDims((2, 2)), (pd.ProductTerm(1.0, e2[0], e2[0]), pd.ProductTerm(1.0, e2[1], e2[1]))
        )
        # both tilted kets lie closer to e_0 (overlaps 0.958 and 0.894) than to e_1
        tilted = [pd.Ket.normalize([1.0, t]) for t in (0.3, 0.5)]
        second = pd.ProductDecomposition(first.dims, tuple(pd.ProductTerm(1.0, x, x) for x in tilted))
        got, ref = _certify_both(first, second, pd.ToleranceConfig(0.5))
        assert got == ref == "permutation (0, 0) is not a bijection on 0..1", (got, ref)

    def test_stacks_and_values_are_read_only_copies_of_the_terms(self):
        for dec in self._cases():
            assert len(dec.stacks) == len(dec.dims)
            for s, stack in enumerate(dec.stacks):
                assert np.array_equal(stack, np.column_stack([t.kets[s].amplitudes for t in dec.terms]))
                assert not stack.flags.writeable
            raw = [t.weight if isinstance(dec, pd.ProductDecomposition) else t.coeff for t in dec.terms]
            assert np.array_equal(dec.values, np.array(raw)) and not dec.values.flags.writeable
            with pytest.raises(ValueError):
                dec.values[0] = 1.0


class TestLinAlgFailures:
    """A linear-algebra routine that does not converge inside a public entry
    point is DegenerateInput naming the non-convergence, not a raw ``LinAlgError``."""

    @staticmethod
    def _calls():
        dec = pd.generate_instance(3, 4, 4, seed=1)
        tri = pd.generate_tri_instance(3, 3, 3, 3, seed=1)
        psi = _random_ket(np.random.default_rng(3), 4)
        edge = _edge_pair()  # its gap lies within the paired gate's bound of eps: it reaches the QR fallback
        return {
            "match_bidecomposition": lambda: pd.match_bidecomposition(*edge),
            "match_tridecomposition": lambda: pd.match_tridecomposition(tri, pd.phase_permuted_twin(tri, seed=2)[0]),
            "check_product_hypotheses": lambda: pd.check_product_hypotheses(dec),
            "check_tri_hypotheses": lambda: pd.check_tri_hypotheses(tri),
            "relating_unitary": lambda: pd.relating_unitary(psi, psi, pd.FactoredDims((2, 2))),
            "generate_instance": lambda: pd.generate_instance(3, 4, 4, seed=1),
            "generate_tri_instance": lambda: pd.generate_tri_instance(3, 3, 3, 3, seed=1),
            "support_and_null": lambda: pd.support_and_null(pd.build_rho(dec), 0),
            "demo_degeneracy": pd.demo_degeneracy,
        }

    @staticmethod
    def _failing(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge in the test")

    @pytest.mark.parametrize(
        "entry, routine",
        [
            ("match_bidecomposition", "svd"),
            ("match_bidecomposition", "qr"),
            ("match_tridecomposition", "svd"),
            ("check_product_hypotheses", "svd"),
            ("check_tri_hypotheses", "svd"),
            ("relating_unitary", "svd"),
            ("generate_instance", "svd"),
            ("generate_instance", "qr"),
            ("generate_tri_instance", "svd"),
            ("generate_tri_instance", "qr"),
            ("support_and_null", "eigh"),
            ("demo_degeneracy", "eigvalsh"),
        ],
    )
    def test_maps_to_degenerate_input(self, monkeypatch, entry, routine):
        call = self._calls()[entry]
        monkeypatch.setattr(np.linalg, routine, self._failing)
        with pytest.raises(pd.DegenerateInput, match="did not converge") as info:
            call()
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_matchers_run_no_least_squares_and_qr_only_in_the_fallback(self, monkeypatch):
        # the certificate reads overlaps, not a factorization, and the paired gate decides
        # a twin with no QR: the fallback's batched slot QR and its Khatri-Rao QR are the
        # bipartite match's only QRs, and the tripartite match takes none
        for routine in ("lstsq", "solve"):
            monkeypatch.setattr(np.linalg, routine, self._failing)
        qr, calls = np.linalg.qr, []

        def counted(*args, **kwargs):
            calls.append(1)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted)
        dec, tri = pd.generate_instance(4, 5, 6, seed=3), pd.generate_tri_instance(4, 4, 5, 4, seed=3)
        for first, match in ((dec, pd.match_bidecomposition), (tri, pd.match_tridecomposition)):
            twin, perm = pd.phase_permuted_twin(first, seed=4)
            calls.clear()
            assert match(first, twin).permutation == perm
            assert not calls
        edge = _edge_pair()
        calls.clear()
        with pytest.raises(pd.OperatorMismatch):
            pd.match_bidecomposition(*edge)
        assert len(calls) == 2
