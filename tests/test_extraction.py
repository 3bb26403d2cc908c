"""Blind extraction of weighted product decompositions from operators."""

import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import proddecomp as pd
from proddecomp import decomp, fileio
from proddecomp.cli import main
from test_acceptance import _bi_cases

ROOT = Path(__file__).resolve().parent.parent


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
        "profile, side", [("both-independent", 1), ("a-independent-only", 0), ("b-independent-only", 1)]
    )
    def test_side_is_the_better_conditioned_factor(self, profile, side):
        # the factor with the larger sigma_n / sigma_1 of its ket stack times
        # diag(w)^{1/2} (rho_s's square root) is whitened; a dependent set has
        # sigma_n = 0, so it is never taken; one probe suffices there
        dec = pd.generate_instance(4, 5, 5, seed=21, profile=profile)
        sv = [np.linalg.svd(a * np.sqrt(dec.values), compute_uv=False) for a in dec.stacks]
        ratios = [s[-1] / s[0] for s in sv]
        assert side == int(ratios[1] > ratios[0])
        report = pd.extract_decomposition(pd.build_rho(dec), seed=1)
        assert report.side == side
        assert report.probes_used == 1
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
        # the certifiable rank exceeds what either factor can whiten
        assert "rank 2 of certifiable 4, (sigma_n/sigma_1)^2 1 and 1" in message
        assert "1 probe, reconstruction error" in message

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
        assert report.probes_used == 1
        assert report.reconstruction_error >= 0.0

    def test_zero_operator_is_rank_0_before_any_sketch(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("sketched the zero operator")

        monkeypatch.setattr(decomp, "_rank_n_factor", forbidden)
        rho = pd.StateOperator(pd.FactoredDims((2, 2)), np.zeros((4, 4), dtype=complex))
        with pytest.raises(pd.NotExtractable) as info:
            pd.extract_decomposition(rho, seed=0)
        message = str(info.value)
        assert "rank 0" in message
        assert "factor" not in message and "sigma" not in message  # only the rank is named
        assert "0 probes" in message

    @pytest.mark.parametrize("k", [-200, -100, 100, 200])
    def test_scaled_operator_extracts_scaled_weights(self, k):
        dec = pd.generate_instance(3, 4, 4, seed=11)
        scaled = pd.ProductDecomposition(
            dec.dims, tuple(pd.ProductTerm(t.weight * 10.0**k, t.a, t.b) for t in dec.terms)
        )
        report = pd.extract_decomposition(pd.build_rho(scaled), seed=1)
        assert report.reconstruction_error < 1e-6
        got = sorted(t.weight for t in report.decomposition.terms)
        want = sorted(t.weight for t in scaled.terms)
        assert all(abs(g - w) <= 1e-6 * w for g, w in zip(got, want))
        assert pd.match_bidecomposition(scaled, report.decomposition).n == 3

    def test_extraction_allocates_no_second_dense_operator(self):
        # one complex 1024 x 1024 array is 16.8 MB: the candidate residual
        # fits under the bound, the symmetrized copy and 4-index probe
        # contractions of earlier versions did not
        dec = pd.generate_instance(16, 32, 32, seed=5)
        rho = pd.StateOperator(dec.dims, pd.rho_matrix(dec))
        tracemalloc.start()
        try:
            pd.extract_decomposition(rho, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6


def _dense(dec):
    return pd.StateOperator(dec.dims, pd.rho_matrix(dec))


def _random_unitary(rng, k):
    return np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]


class TestFactoredExtraction:
    """``build_rho`` gives a factored operator: extraction runs on its stored
    columns and measures the residual from a QR factor, never from an N x N array."""

    def test_dense_and_factored_forms_agree(self):
        # the criterion-4 case list of the acceptance suite, generator and seeds included
        for n, d1, d2, profile, seed in _bi_cases(200, master_seed=40_000):
            dec = pd.generate_instance(n, d1, d2, seed=seed, profile=profile)
            factored = pd.extract_decomposition(pd.build_rho(dec), seed=seed + 1)
            dense = pd.extract_decomposition(_dense(dec), seed=seed + 1)
            assert factored.side == dense.side
            assert pd.match_bidecomposition(dec, factored.decomposition).n == n
            assert pd.match_bidecomposition(dec, dense.decomposition).n == n
            assert pd.match_bidecomposition(factored.decomposition, dense.decomposition).residual < 1e-8

    def test_allocates_no_dense_operator(self):
        # one complex 1024 x 1024 array is 16.8 MB
        dec = pd.generate_instance(16, 32, 32, seed=5)
        tracemalloc.start()
        try:
            report = pd.extract_decomposition(pd.build_rho(dec), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert report.reconstruction_error < 1e-12

    def test_never_assembles_the_matrix(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("assembled an N x N operator")

        monkeypatch.setattr(pd.tensor, "_assemble", forbidden)
        monkeypatch.setattr(pd.tensor, "rho_matrix", forbidden)
        monkeypatch.setattr(decomp, "rho_matrix", forbidden)
        dec = pd.generate_instance(16, 32, 32, seed=5)
        report = pd.extract_decomposition(pd.build_rho(dec), seed=0)
        assert pd.match_bidecomposition(dec, report.decomposition).n == 16

    @pytest.mark.parametrize("profile", pd.BI_PROFILES)
    @pytest.mark.parametrize("pad", [0, 3])
    def test_reads_only_the_operator_off_the_factor(self, profile, pad):
        # F U and [F 0] U are factors of the same operator as F = V diag(w)^{1/2}
        # but carry none of its product kets as columns
        rng = np.random.default_rng(pad)
        for i in range(20):
            n = 3 + i % 4
            dec = pd.generate_instance(n, 7, 7, seed=i, profile=profile)
            v, w = pd.tensor.product_columns(dec)
            f = np.hstack([v * np.sqrt(w), np.zeros((v.shape[0], pad))])
            rho = pd.StateOperator.from_columns(dec.dims, f @ _random_unitary(rng, n + pad), np.ones(n + pad))
            report = pd.extract_decomposition(rho, seed=i)
            assert report.reconstruction_error < 1e-12
            assert pd.match_bidecomposition(dec, report.decomposition).n == n

    @pytest.mark.parametrize("k", [-300, -200, -100, 100, 200, 300])
    @pytest.mark.parametrize("form", [pd.build_rho, _dense])
    def test_extreme_weight_scales_extract_in_both_forms(self, k, form):
        for profile in pd.BI_PROFILES:
            dec = pd.generate_instance(4, 5, 5, seed=11, profile=profile)
            scaled = pd.ProductDecomposition(
                dec.dims, tuple(pd.ProductTerm(t.weight * 10.0**k, t.a, t.b) for t in dec.terms)
            )
            report = pd.extract_decomposition(form(scaled), seed=1)
            assert report.reconstruction_error < 1e-12
            got = sorted(t.weight for t in report.decomposition.terms)
            want = sorted(t.weight for t in scaled.terms)
            assert all(abs(g - w) <= 1e-12 * w for g, w in zip(got, want))
            assert pd.match_bidecomposition(scaled, report.decomposition).n == 4

    @pytest.mark.parametrize("k", [-320, -315])
    def test_subnormal_weights_extract_their_source(self, k):
        # W runs at unit scale: on W as given, these weights' Grams are subnormal, and the
        # returned b-kets missed unit norm (DegenerateInput naming a stack column)
        for profile in pd.BI_PROFILES:
            dec = pd.generate_instance(3, 4, 4, seed=1, profile=profile)
            scaled = _restacked(dec, dec.values * 10.0**k)
            report = pd.extract_decomposition(pd.build_rho(scaled), seed=0)
            assert report.reconstruction_error < 1e-12
            assert pd.match_bidecomposition(scaled, report.decomposition).n == 3

    @pytest.mark.parametrize(
        "scale, refusal",
        [
            (1e-159, r"no reconstruction within eps = 1e-08 \(.*, reconstruction error \d\.\d{3}e-06\)"),
            (1e-161, r"no reconstruction within eps = 1e-08 \(.*, reconstruction error \d\.\d{3}e-02\)"),
            (1e-162, r"a zero-weight slice"),
        ],
        ids=["error-4e-6", "error-6e-2", "underflow"],
    )
    def test_weights_that_cannot_hold_the_candidate_are_not_extractable(self, scale, refusal):
        # columns of norm ~1e-160 give weights ~1e-320, whose subnormal spacing misses the
        # candidate by more than eps, or which underflow: the gate refuses, not the stack check
        dec = pd.generate_instance(3, 4, 4, seed=1)
        v, w = pd.tensor.product_columns(dec)
        rho = pd.StateOperator.from_columns(dec.dims, v * np.sqrt(w) * scale, np.ones(3))
        with pytest.raises(pd.NotExtractable, match=refusal):
            pd.extract_decomposition(rho, seed=0)


def _bench_cases():
    """The benchmark's N = 1024 ``dense`` cases for seeds 1, 3 and 7."""
    path = str(ROOT / "perfbench")
    if path not in sys.path:
        sys.path.append(path)
    import workloads

    return [case for seed in (1, 3, 7) for case in workloads.dense_cases(pd, seed)]


def _gate_edge(step=0):
    """A factored operator that its candidate misses by eps * the larger norm, to within rounding,
    at the default eps: three product terms on 3 x 3 factors, the most a candidate holds there,
    and a fourth of weight t that none of them holds.  t is moved to the fixed point of
    gap = eps * max(||rho||_F, ||rho_hat||_F), the QR gap of the candidate at a loose eps (eps
    moves neither n, capped at 3, nor the candidate's operator), then by ``step`` x 2e-8 of itself."""
    dec = pd.generate_instance(3, 3, 3, seed=2)
    cols = np.hstack([pd.tensor.product_columns(d)[0] for d in (dec, pd.generate_instance(1, 3, 3, seed=3))])
    loose, t = pd.ToleranceConfig(1e-4), pd.DEFAULT_TOL.eps
    for _ in range(3):
        rho = pd.StateOperator.from_columns(dec.dims, cols, [*dec.values, t])
        candidate = pd.extract_decomposition(rho, loose, seed=0).decomposition
        gap, *norms = decomp._factored_gap(rho.factor, pd.tensor.product_columns(candidate))
        t *= pd.DEFAULT_TOL.eps * max(norms) / gap
    return pd.StateOperator.from_columns(dec.dims, cols, [*dec.values, t * (1.0 + 2e-8 * step)])


def _gate_operators():
    """(operator, extraction seed): the ill grid (weights geomspace(1, spread, 6)) at spreads
    1e-5 ... 1e-10, the benchmark's N = 1024 operators, and weights times 1e-300, 1e300, 1e-315
    and 1e-320, whose operators have subnormal weights."""
    ops = []
    for spread in (1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
        for i in range(150):
            base = pd.generate_instance(6, 8, 8, seed=i, profile=pd.BI_PROFILES[i % 3])
            ops.append((pd.build_rho(_restacked(base, np.geomspace(1, spread, 6))), i))
    ops += [(pd.build_rho(case.bi), case.extract_seed) for case in _bench_cases()]
    for scale in (1e-300, 1e300, 1e-315, 1e-320):
        for i, profile in enumerate(pd.BI_PROFILES):
            dec = pd.generate_instance(4, 5, 5, seed=11 + i, profile=profile)
            ops.append((pd.build_rho(_restacked(dec, dec.values * scale)), i))
    return ops


def _restacked(dec, values):
    return pd.ProductDecomposition._from_stacks(dec.dims, dec.stacks, values)


def _gate_inputs(rho, seed):
    """What a factored extraction of ``rho`` passes its gate (``args``, tol left out) and, since
    the gate is told to fall back, the ``candidate`` and the fallback's gap and norms (``qr``)."""
    seen, factored_gap, product_columns = {}, decomp._factored_gap, decomp.product_columns

    def record(*args):
        seen["args"] = args[:-1]
        return None

    def fallback(*args):
        seen["qr"] = factored_gap(*args)
        return seen["qr"]

    def candidate(dec):
        seen["candidate"] = dec
        return product_columns(dec)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(decomp, "_residual_gap", record)
        m.setattr(decomp, "_factored_gap", fallback)
        m.setattr(decomp, "product_columns", candidate)
        try:
            pd.extract_decomposition(rho, seed=seed)
        except pd.NotExtractable:
            pass
    return seen


def _extended_gap(rho, dec):
    """||rho - rho_hat||_F, ||rho||_F and ||rho_hat||_F in np.clongdouble from the stored factor
    and the candidate's stacks and weights, in the units of W at unit scale: 2^-2e for e the
    exponent of the largest real or imaginary part of W = V diag(w)^{1/2}."""
    x = pd.tensor._root_tensor(rho)
    e = math.frexp(max(np.abs(x.real).max(), np.abs(x.imag).max()))[1]
    v, w = rho.factor
    a, b = (s.astype(np.clongdouble) for s in dec.stacks)
    operators = [
        (c * np.ldexp(u.astype(np.longdouble), -2 * e)) @ c.conj().T
        for c, u in ((v.astype(np.clongdouble), w), ((a[:, None] * b).reshape(-1, dec.n), dec.values))
    ]
    return [np.sqrt((np.abs(m) ** 2).sum()) for m in (operators[0] - operators[1], *operators)]


class TestResidualGate:
    """Factored extraction decides its Equal gate from the construction's own residual
    (``_residual_gap``) only outside its rounding interval, and there as the QR gap
    (``_factored_gap``) does; the QR gap decides the rest."""

    @pytest.fixture(scope="class")
    def cases(self):
        """Each operator's gate arguments and the QR gap and norms, which do not depend on eps."""
        seen = [_gate_inputs(rho, seed) for rho, seed in _gate_operators()]
        return [(s["args"], s["qr"]) for s in seen]

    @pytest.mark.parametrize("eps", [1e-13, 1e-8, 1e-4, 0.9])
    def test_decides_as_the_qr_gap(self, cases, eps):
        tol, undecided, verdicts = pd.ToleranceConfig(eps), 0, set()
        for args, exact in cases:
            got = decomp._residual_gap(*args, tol)
            want = pd.subspace._equal(*exact, tol)
            if got is None:
                undecided += 1
            else:
                assert pd.subspace._equal(*got, tol) == want
                assert abs(got[0] - exact[0]) <= 2e-15 * exact[1]
                verdicts.add(want)
        # the interval is narrow: all but the few operators whose gap lies within it of eps decide
        assert undecided <= len(cases) // 100
        assert verdicts == ({True, False} if eps <= 1e-8 else {True})

    def test_a_gap_within_the_bound_of_eps_falls_back_to_the_qr_gap(self, monkeypatch):
        calls, factored_gap = [], decomp._factored_gap

        def spy(*args):
            calls.append(factored_gap(*args))
            return calls[-1]

        verdicts = []
        for step in range(-6, 7):
            rho = _gate_edge(step)  # before the spy: the edge is found with the QR gap
            with monkeypatch.context() as m:
                m.setattr(decomp, "_factored_gap", spy)
                calls.clear()
                try:
                    pd.extract_decomposition(rho, seed=0)
                    verdicts.append(True)
                except pd.NotExtractable:
                    verdicts.append(False)
            assert len(calls) == 1 and verdicts[-1] == pd.subspace._equal(*calls[0], pd.DEFAULT_TOL)
        assert verdicts[0] and not verdicts[-1]

    def test_a_dense_size_extraction_runs_no_qr(self, monkeypatch):
        def failing(*args, **kwargs):
            raise AssertionError("the decided gate ran a QR or formed the candidate's columns")

        cases = _bench_cases()[:3]
        mixed = pd.StateOperator.from_columns(pd.FactoredDims((32, 32)), np.eye(1024)[:, :40], np.ones(40))
        with monkeypatch.context() as m:
            for name in ("_factored_gap", "product_columns"):
                m.setattr(decomp, name, failing)
            m.setattr(np.linalg, "qr", failing)
            reports = [pd.extract_decomposition(pd.build_rho(c.bi), seed=c.extract_seed) for c in cases]
            with pytest.raises(pd.NotExtractable, match="no reconstruction within eps"):
                pd.extract_decomposition(mixed, seed=0)
        for case, report in zip(cases, reports):
            assert pd.match_bidecomposition(case.bi, report.decomposition).n == 16

    def test_the_interval_holds_an_extended_precision_reference(self):
        rng = np.random.default_rng(7)
        ops = []
        for i in range(120):
            dec = pd.generate_instance(3 + i % 4, 6 + i % 3, 6, seed=i, profile=pd.BI_PROFILES[i % 3])
            ops.append((pd.build_rho(dec), i))
        for spread in (1e-5, 1e-7, 1e-9, 1e-10):
            for i in range(30):
                base = pd.generate_instance(6, 8, 8, seed=i, profile=pd.BI_PROFILES[i % 3])
                ops.append((pd.build_rho(_restacked(base, np.geomspace(1, spread, 6))), i))
        for i in range(40):
            # a factor F U of a decomposition's operator, padded with two columns of weight up to 1e-11
            n = 3 + i % 3
            v, w = pd.tensor.product_columns(pd.generate_instance(n, 5, 6, seed=i))
            pad = 1e-6 * (i % 4) * (rng.standard_normal((30, 2)) + 1j * rng.standard_normal((30, 2)))
            f = np.hstack([v * np.sqrt(w), pad]) @ _random_unitary(rng, n + 2)
            ops.append((pd.StateOperator.from_columns(pd.FactoredDims((5, 6)), f, np.ones(n + 2)), i))
        for scale in (1e-320, 1e-315, 1e-300, 1e300):
            for i in range(10):
                dec = pd.generate_instance(4, 5, 5, seed=i)
                ops.append((pd.build_rho(_restacked(dec, dec.values * scale)), i))
        for rho, seed in ops:
            seen = _gate_inputs(rho, seed)
            bounds = decomp._residual_bounds(*seen["args"])
            for (_, low, high), exact in zip(bounds, _extended_gap(rho, seen["candidate"])):
                assert low <= exact <= high


class TestIllConditionedWeights:
    """Weights spread over five to eight decades, a grid on which whitening by the
    eigenvectors of a Gram matrix refuses cases that the SVD certifies, and on
    which an expansion certificate refused light terms that every paired overlap
    and weight certifies."""

    def test_every_case_matches_its_source_in_both_forms(self):
        # every case certifies: extraction takes the rank its gate can certify, where the
        # support-rank rule refused some at spreads 1e-6 and 1e-7
        failures = []
        for spread, seeds in ((1e-5, 150), (1e-6, 120), (1e-7, 120)):
            for i in range(seeds):
                base = pd.generate_instance(6, 8, 8, seed=i, profile=pd.BI_PROFILES[i % 3])
                dec = pd.ProductDecomposition._from_stacks(base.dims, base.stacks, np.geomspace(1, spread, 6))
                for rho in (pd.build_rho(dec), _dense(dec)):
                    try:
                        pd.match_bidecomposition(dec, pd.extract_decomposition(rho, seed=i).decomposition)
                    except pd.ProddecompError as exc:
                        failures.append((spread, i, "dense" if rho.factor is None else "factored", str(exc)))
        assert failures == []

    def test_a_report_a_term_short_is_refused_naming_both_counts(self):
        # the lightest of six weights, 1e-9, is below eps: the first five terms reproduce rho
        # within eps, and the certificate refuses them as a hypothesis violation (exit 4) that
        # names the two counts; no extraction returns such a report on the grid any more
        base = pd.generate_instance(6, 8, 8, seed=111, profile=pd.BI_PROFILES[111 % 3])
        dec = pd.ProductDecomposition._from_stacks(base.dims, base.stacks, np.geomspace(1, 1e-9, 6))
        five = pd.ProductDecomposition._from_stacks(dec.dims, [a[:, :5] for a in dec.stacks], dec.values[:5])
        with pytest.raises(pd.HypothesisViolation) as info:
            pd.match_bidecomposition(dec, five)
        assert str(info.value) == "term counts differ, 6 vs 5, although the operators agree within eps"

    @pytest.mark.parametrize("form", [pd.build_rho, _dense])
    def test_the_lightest_term_above_eps_is_extracted(self, form):
        # at spread 1e-8 the dense form of seed 111 returned five terms, one short of its source
        base = pd.generate_instance(6, 8, 8, seed=111, profile=pd.BI_PROFILES[111 % 3])
        dec = pd.ProductDecomposition._from_stacks(base.dims, base.stacks, np.geomspace(1, 1e-8, 6))
        report = pd.extract_decomposition(form(dec), seed=111)
        assert report.decomposition.n == 6 and report.reconstruction_error < 1e-12
        assert pd.match_bidecomposition(dec, report.decomposition).n == 6

    def test_every_outcome_is_its_source_and_both_forms_agree(self):
        # the dense form of seed 55 at spread 1e-8 returned five terms where the factored form
        # refused; every outcome now certifies, where the support-rank rule refused 49 of 400
        # at 1e-7 and 244 of 400 at 3e-8 on the wider grid
        outcomes = {}
        for spread in (1e-7, 3e-8, 1e-8):
            for i in range(60):
                base = pd.generate_instance(6, 8, 8, seed=i, profile=pd.BI_PROFILES[i % 3])
                dec = pd.ProductDecomposition._from_stacks(base.dims, base.stacks, np.geomspace(1, spread, 6))
                for form in (pd.build_rho, _dense):
                    try:
                        pd.match_bidecomposition(dec, pd.extract_decomposition(form(dec), seed=i).decomposition)
                        out = "certified"
                    except pd.NotExtractable:
                        out = "refused"
                    except pd.ProddecompError as exc:  # a returned report that is not its source
                        out = f"{type(exc).__name__}: {exc}"
                    outcomes[spread, i, form.__name__] = out
        assert {key: out for key, out in outcomes.items() if out != "certified"} == {}
        assert [key[:2] for key, out in outcomes.items() if out != outcomes[(*key[:2], "_dense")]] == []


class TestOneProbe:
    """Extraction draws one probe: a refusal comes at once, and no redraw lets a wrong candidate through."""

    @pytest.mark.parametrize("form, calls", [("factored", 1), ("dense", 2)])
    def test_a_refusal_draws_one_probe(self, monkeypatch, form, calls):
        # the maximally mixed 2 x 2 operator; the dense form's sketch takes one eigh more
        rho = pd.StateOperator.from_columns(pd.FactoredDims((2, 2)), np.eye(4), np.full(4, 0.25))
        if form == "dense":
            rho = pd.StateOperator(rho.dims, rho.matrix)
        seen = []
        original = np.linalg.eigh

        def counted(*args, **kwargs):
            seen.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        refusal = r"rank 2 of certifiable 4, \(sigma_n/sigma_1\)\^2 1 and 1, 1 probe, reconstruction error"
        with pytest.raises(pd.NotExtractable, match=refusal):
            pd.extract_decomposition(rho, seed=0)
        assert len(seen) == calls

    def test_a_nan_error_fails_the_gate(self, monkeypatch):
        # the factored gate decides from the construction's residual, and the QR gap only in its band
        monkeypatch.setattr(decomp, "_residual_gap", lambda *args: (np.nan, 1.0, 1.0))
        rho = pd.build_rho(pd.generate_instance(3, 4, 4, seed=1))
        with pytest.raises(pd.NotExtractable, match=r"within eps = 1e-08 \(.*, 1 probe, reconstruction error nan\)"):
            pd.extract_decomposition(rho, seed=0)

    def test_nan_eigenvectors_are_a_zero_weight_slice(self, monkeypatch):
        # a weight is ||a_t||^2, zero only when v_t lies on zero singular values or the norm
        # underflows; a NaN fails the same test.  On a factored operator only the probe calls eigh
        original = np.linalg.eigh

        def nan_vectors(*args, **kwargs):
            lam, v = original(*args, **kwargs)
            return lam, np.full_like(v, np.nan)

        monkeypatch.setattr(np.linalg, "eigh", nan_vectors)
        rho = pd.build_rho(pd.generate_instance(3, 4, 4, seed=1))
        with pytest.raises(pd.NotExtractable, match=r"a zero-weight slice \(factor \d, rank 3, .*, 1 probe\)$"):
            pd.extract_decomposition(rho, seed=0)

    @pytest.mark.parametrize(
        "form, seed", [("factored", 2), ("factored", 22), ("factored", 31), ("dense", 17), ("dense", 76), ("dense", 142)]
    )
    def test_ill_conditioned_cases_extract_their_source(self, form, seed):
        # weights over seven decades, where a redrawn probe returned a 5-term candidate that
        # reconstructed rho within the gate and did not match the 6-term source; the one probe
        # extracts all six terms, the rank the gate certifies
        base = pd.generate_instance(6, 8, 8, seed=seed, profile=pd.BI_PROFILES[seed % 3])
        dec = pd.ProductDecomposition._from_stacks(base.dims, base.stacks, np.geomspace(1, 1e-7, 6))
        rho = pd.build_rho(dec) if form == "factored" else _dense(dec)
        report = pd.extract_decomposition(rho, seed=seed)
        assert report.decomposition.n == 6
        assert pd.match_bidecomposition(dec, report.decomposition).n == 6


class TestLinAlgFailures:
    """A linear-algebra routine that does not converge is DegenerateInput, not
    a raw ``LinAlgError``, in both forms."""

    @staticmethod
    def _failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    @pytest.mark.parametrize("routine", ["svd", "eigh", "eigvalsh", "qr"])
    @pytest.mark.parametrize("form", [pd.build_rho, _dense])
    def test_maps_to_degenerate_input(self, monkeypatch, routine, form):
        # a factored extraction takes a QR only where the residual gate falls back, as at its edge
        if (routine, form) == ("qr", pd.build_rho):
            rho = _gate_edge()
        else:
            rho = form(pd.generate_instance(3, 4, 4, seed=1))
        monkeypatch.setattr(np.linalg, routine, self._failing)
        with pytest.raises(pd.DegenerateInput, match="did not converge") as info:
            pd.extract_decomposition(rho, seed=0)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_cli_extract_exits_2_with_one_error_line(self, tmp_path, monkeypatch, capsys):
        op_path = str(tmp_path / "op.json")
        fileio.save_operator(op_path, pd.build_rho(pd.generate_instance(3, 4, 4, seed=1)))
        monkeypatch.setattr(np.linalg, "eigh", self._failing)
        assert main(["extract", op_path, "--out", str(tmp_path / "out.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "did not converge" in captured.err
        assert captured.err.count("\n") == 1


class TestNoisyInput:
    @staticmethod
    def _noisy(dec, level, seed):
        rho = pd.build_rho(dec).matrix
        rng = np.random.default_rng(seed)
        g = rng.standard_normal(rho.shape) + 1j * rng.standard_normal(rho.shape)
        wishart = g @ g.conj().T
        noisy = rho + level * np.linalg.norm(rho) / np.linalg.norm(wishart) * wishart
        return pd.StateOperator(dec.dims, (noisy + noisy.conj().T) / 2.0)

    @pytest.mark.parametrize("level", [1e-10, 1e-6, 1e-4])
    @pytest.mark.parametrize("n, dim", [(3, 4), (8, 16)])
    def test_ends_in_a_certified_report_or_an_explained_refusal(self, n, dim, level):
        dec = pd.generate_instance(n, dim, dim, seed=n)
        rho = self._noisy(dec, level, seed=dim)
        rank = _conditioning(rho)[0]
        try:
            report = pd.extract_decomposition(rho, seed=2)
        except pd.NotExtractable as exc:
            message = str(exc)
            assert re.search(rf"\(factor [01], rank {rank}\b", message)
            assert "1 probe, reconstruction error" in message
            return
        # the gate is gap <= eps * max(||rho||, ||rho_hat||), and ||rho_hat|| <= ||rho|| + gap
        eps = pd.DEFAULT_TOL.eps
        assert report.reconstruction_error <= eps / (1.0 - eps)
        assert all(np.isfinite(t.weight) for t in report.decomposition.terms)
        pd.check_product_hypotheses(report.decomposition)


def _factored_zero(dims):
    return pd.StateOperator.from_columns(dims, np.zeros((dims.total, 2)), np.ones(2))


def _rank_deficient_factor(dec):
    # four columns spanning two product kets: repeated and zero columns
    v, w = pd.tensor.product_columns(dec)
    columns = np.column_stack([v, v[:, :1], np.zeros(v.shape[0])])
    return pd.StateOperator.from_columns(dec.dims, columns, [*w, 0.5, 1.0])


def _conditioning(rho, tol=pd.DEFAULT_TOL):
    """n, the rank the extraction gate can certify (capped at max(d1, d2)), and (sigma_n /
    sigma_1)^2 of each factor's reshape of a factor of rho, read off rho's own spectra
    rather than off a factor W: n from eigvalsh of the N x N matrix, the reduced spectra
    from ``partial_trace``."""
    lam = np.linalg.eigvalsh(rho.matrix)
    tails = np.cumsum(lam**2)
    n = min(lam.size - int(np.count_nonzero(tails <= (tol.eps / 2) ** 2 * tails[-1])), max(rho.dims))
    spectra = [np.linalg.eigvalsh(pd.partial_trace(rho, [s]).matrix) for s in (0, 1)]
    return n, [ev[-n] / ev[-1] if 0 < n <= ev.size else -np.inf for ev in spectra]


class TestSupportRanks:
    """Extraction reads no support rank: a refusal names n, the rank the gate can
    certify, and the side, the better-conditioned factor, both read off Gram
    matrices of its factor W in either form, not from ``support_and_null``."""

    @pytest.mark.parametrize("form", [pd.build_rho, _dense])
    def test_extracts_without_support_and_null(self, monkeypatch, form):
        def forbidden(*args, **kwargs):
            raise AssertionError("support_and_null on the extraction path")

        original = pd.subspace.support_and_null
        for mod in (pd, pd.subspace, decomp):
            for name, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, name, forbidden)
        for profile in pd.BI_PROFILES:
            dec = pd.generate_instance(4, 5, 5, seed=21, profile=profile)
            report = pd.extract_decomposition(form(dec), seed=1)
            assert pd.match_bidecomposition(dec, report.decomposition).n == 4

    @pytest.mark.parametrize("form", [pd.build_rho, _dense])
    def test_reads_no_support_count_product_gap_or_weight_exponent(self, monkeypatch, form):
        # neither a returned report nor a refusal (the maximally mixed 2 x 2 operator, the gate;
        # a collinear pair, the hypothesis check; the zero operator, rank 0) computes a support
        # count, or reads ||rho_hat||_F through the bipartite gate in units of 2^e
        def forbidden(*args, **kwargs):
            raise AssertionError("read on the extraction path")

        base = pd.generate_instance(3, 4, 4, seed=1)
        a_pair = base.stacks[0][:, [0, 0, 1]]  # terms 0 and 1 share their a-ket
        pair = pd.ProductDecomposition._from_stacks(base.dims, (a_pair, base.stacks[1]), base.values)
        mixed = pd.StateOperator.from_columns(pd.FactoredDims((2, 2)), np.eye(4), np.full(4, 0.25))
        refused = (
            ("no reconstruction within eps", mixed),
            ("collinear pair", pd.build_rho(pair)),
            ("has rank 0", _factored_zero(base.dims)),
        )
        for name in ("_support_count", "_product_gap", "_weight_exponent"):
            monkeypatch.setattr(decomp, name, forbidden)
        for profile in pd.BI_PROFILES:
            dec = pd.generate_instance(4, 5, 5, seed=21, profile=profile)
            assert pd.extract_decomposition(form(dec), seed=1).decomposition.n == 4
        for refusal, rho in refused:
            if form is _dense:
                rho = pd.StateOperator(rho.dims, rho.matrix)
            with pytest.raises(pd.NotExtractable, match=refusal):
                pd.extract_decomposition(rho, seed=0)

    @staticmethod
    def _reported(monkeypatch, rho):
        # with a hypothesis check that always fails, every candidate is refused after its one probe,
        # and the refusal names the side and n (rank 0 names no side); undone at once, since later
        # cases generate instances
        def violated(*args, **kwargs):
            raise pd.HypothesisViolation("forced")

        with monkeypatch.context() as m, pytest.raises(pd.NotExtractable) as info:
            m.setattr(decomp, "check_product_hypotheses", violated)
            pd.extract_decomposition(rho, seed=0)
        message = str(info.value)
        if message.endswith("the operator has rank 0 (0 probes)"):
            return None, 0
        named = re.search(r"\(factor (\d), rank (\d+)(?: of certifiable \d+)?, \(sigma_n/sigma_1\)\^2 ", message)
        return int(named[1]), int(named[2])

    def _check(self, monkeypatch, rho):
        side, n = self._reported(monkeypatch, rho)
        want, ratios = _conditioning(rho)
        assert n == want
        if n:
            # the named factor has the larger sigma_n / sigma_1; factor 0 takes an exact tie,
            # which rounding in W's Grams can break either way, so a tie passes to within 1e-12
            assert ratios[side] >= ratios[1 - side] - 1e-12

    @pytest.mark.parametrize("master_seed", [20_000, 40_000])
    @pytest.mark.parametrize("form", [pd.build_rho, _dense])
    def test_named_rank_and_side_on_the_acceptance_cases(self, monkeypatch, master_seed, form):
        # the criterion-2 and criterion-4 case lists of the acceptance suite
        for n, d1, d2, profile, seed in _bi_cases(200, master_seed=master_seed):
            self._check(monkeypatch, form(pd.generate_instance(n, d1, d2, seed=seed, profile=profile)))

    def test_named_rank_and_side_on_edge_operators(self, monkeypatch):
        dims = pd.FactoredDims((3, 4))
        dec = pd.generate_instance(2, 3, 4, seed=8)
        for rho in (
            pd.StateOperator(dims, np.zeros((12, 12), dtype=complex)),
            _factored_zero(dims),
            _rank_deficient_factor(dec),
            _dense(dec),
            pd.StateOperator(dims, np.eye(12, dtype=complex) / 12),
        ):
            self._check(monkeypatch, rho)

    def test_the_support_count_threshold_decides_no_extraction(self):
        # 4 x 4 factors, kets from random unitaries, the lightest weight within 8 ulps of
        # eps * lambda_max, where rounding decides the support counts (so the ones a refusal
        # names can differ there from support_and_null's): n is the rank the gate certifies,
        # 4, far from its own cut, so every case extracts its source
        rng = np.random.default_rng(26)
        dims = pd.FactoredDims((4, 4))
        for k in range(-8, 9):
            weights = [1.0, 0.7, 0.6, pd.DEFAULT_TOL.eps * (1.0 + k * 2.0**-52)]
            for _ in range(6):
                stacks = (_random_unitary(rng, 4), _random_unitary(rng, 4))
                dec = pd.ProductDecomposition._from_stacks(dims, stacks, weights)
                for form in (pd.build_rho, _dense):
                    report = pd.extract_decomposition(form(dec), seed=0)
                    assert pd.match_bidecomposition(dec, report.decomposition).n == 4

    @staticmethod
    def _edge_operator():
        # accepted (lambda_min = -0.8e-10 >= -PSD_RTOL * lambda_max), but its trace
        # over B adds the two negative eigenvalues: -1.6e-10 would fail a second check
        return pd.StateOperator(pd.FactoredDims((2, 2)), np.diag([1.0, 0.0, -8e-11, -8e-11]).astype(complex))

    def test_accepted_edge_operator_extracts_one_term(self):
        report = pd.extract_decomposition(self._edge_operator(), seed=0)
        assert report.decomposition.n == 1
        assert report.reconstruction_error < 1e-9

    def test_the_gate_reads_eps_on_the_edge_operator(self):
        # its one-term candidate misses rho by 1.13e-10: within eps = 1e-8, not within eps = 1e-10
        assert pd.extract_decomposition(self._edge_operator(), seed=0).decomposition.n == 1
        with pytest.raises(pd.NotExtractable, match=r"within eps = 1e-10 \(.*, reconstruction error 1.131e-10\)"):
            pd.extract_decomposition(self._edge_operator(), pd.ToleranceConfig(1e-10), seed=0)

    def test_returned_reports_keep_the_certifiable_rank_at_the_threshold(self):
        # kets from random unitaries, so rho's eigenvalues are the weights; the lightest sits at
        # the tail cut eps/2 * ||w||_2 (8 ulps either side, where rounding decides n, and a
        # relative 1e-6 either side, where the rule does): four terms above the cut, three at
        # or below it, which reproduce rho within eps and which the match refuses a term short
        rng = np.random.default_rng(26)
        dims = pd.FactoredDims((4, 4))
        heavy = np.array([1.0, 0.7, 0.6])
        cut = pd.DEFAULT_TOL.eps / 2 * np.sqrt(heavy @ heavy / (1.0 - (pd.DEFAULT_TOL.eps / 2) ** 2))
        short = "term counts differ, 4 vs 3, although the operators agree within eps"
        factors = {1.0 - 1e-6: (3,), **{1.0 + k * 2.0**-52: (3, 4) for k in range(-8, 9)}, 1.0 + 1e-6: (4,)}
        wrong = []
        for factor, counts in factors.items():
            for _ in range(6):
                stacks = (_random_unitary(rng, 4), _random_unitary(rng, 4))
                dec = pd.ProductDecomposition._from_stacks(dims, stacks, [*heavy, cut * factor])
                for form in (pd.build_rho, _dense):
                    report = pd.extract_decomposition(form(dec), seed=0)
                    n = report.decomposition.n
                    try:
                        pd.match_bidecomposition(dec, report.decomposition)
                        verdict = "certified"
                    except pd.HypothesisViolation as exc:
                        verdict = str(exc)
                    if n not in counts or verdict != (short if n == 3 else "certified"):
                        wrong.append((factor, form.__name__, n, verdict))
        assert wrong == []

    def test_accepted_edge_operator_has_support_rank_1_on_each_factor(self):
        rho = self._edge_operator()
        assert [pd.support_and_null(rho, s)[0].dim for s in (0, 1)] == [1, 1]

    def test_one_rank_rule_for_both_sides_and_forms(self, monkeypatch):
        # a first-probe extraction costs the same linear algebra whichever form
        # the operator has and whichever factor is the side
        counts = {}
        for routine in ("svd", "eigvalsh"):
            original = getattr(np.linalg, routine)

            def counted(*args, _routine=routine, _original=original, **kwargs):
                counts[_routine] = counts.get(_routine, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, routine, counted)
        seen = {}
        for profile, side in (("a-independent-only", 0), ("b-independent-only", 1)):
            dec = pd.generate_instance(4, 5, 5, seed=21, profile=profile)
            for form in (pd.build_rho, _dense):
                rho = form(dec)
                counts.clear()
                report = pd.extract_decomposition(rho, seed=1)
                assert (report.side, report.probes_used) == (side, 1)
                seen[profile, form.__name__] = dict(counts)
        assert len({tuple(sorted(c.items())) for c in seen.values()}) == 1, seen
        # the three Grams of W: W^dagger W and one per factor
        assert next(iter(seen.values()))["eigvalsh"] == 3
        # the side SVD and the final check's one batched rank SVD; no SVD of the slices
        assert next(iter(seen.values()))["svd"] == 2

    def test_factored_zero_operator_is_rank_0(self):
        with pytest.raises(pd.NotExtractable, match=r"has rank 0 \(0 probes\)$"):
            pd.extract_decomposition(_factored_zero(pd.FactoredDims((2, 3))), seed=0)

    def test_rank_deficient_factor_extracts(self):
        dec = pd.generate_instance(2, 3, 4, seed=8)
        report = pd.extract_decomposition(_rank_deficient_factor(dec), seed=0)
        assert report.decomposition.n == 2
        assert report.reconstruction_error < 1e-12


class TestOneEqualGate:
    """Extraction accepts a candidate by the matchers' Equal rule at eps, so a
    returned report reproduces rho to eps: a candidate that drops a light term
    is refused, and none is left for ``match`` to refuse against its source."""

    @pytest.mark.parametrize("spread", [1e-7, 3e-8])
    def test_no_returned_report_differs_from_its_source(self, spread):
        differ = []
        for i in range(100):
            base = pd.generate_instance(6, 8, 8, seed=i, profile=pd.BI_PROFILES[i % 3])
            dec = pd.ProductDecomposition._from_stacks(base.dims, base.stacks, np.geomspace(1, spread, 6))
            for rho in (pd.build_rho(dec), _dense(dec)):
                try:
                    report = pd.extract_decomposition(rho, seed=i)
                except pd.NotExtractable:
                    continue
                try:
                    pd.match_bidecomposition(dec, report.decomposition)
                except pd.OperatorMismatch as exc:
                    differ.append((i, "dense" if rho.factor is None else "factored", str(exc)))
                except pd.HypothesisViolation:
                    pass  # a six-term report whose light terms are off: not an Equal decision
        assert differ == []

    @staticmethod
    def _bell():
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        return np.outer(psi, psi)

    @pytest.mark.parametrize(
        "matrix",
        [_bell(), np.diag([1.0, 1e-7, 1e-7, 1e-7]), np.diag([1.0, 5e-8, 5e-8, 5e-8])],
        ids=["bell", "tail-1e-7", "tail-5e-8"],
    )
    @pytest.mark.parametrize("form", ["factored", "dense"])
    def test_a_two_term_candidate_of_a_higher_rank_operator_is_refused(self, matrix, form):
        # bell has rank 1, and a tail t a certifiable rank of 4 cut to n = 2, with (sigma_2/sigma_1)^2
        # = 2t / (1 + t) on each factor; no n-term candidate reproduces rho to eps (warnings are
        # errors); both reduced operators are equal, so the sides tie in exact arithmetic: the factored
        # form's exact tie takes factor 0, and the dense sketch's rounding breaks the tie of
        # tail-1e-7 the other way, pinned here as it falls
        factor = 1 if form == "dense" and matrix[1, 1] == 1e-7 else 0
        dims = pd.FactoredDims((2, 2))
        if form == "dense":
            rho = pd.StateOperator(dims, matrix)
        else:
            lam, vec = np.linalg.eigh(matrix)
            rho = pd.StateOperator.from_columns(dims, vec[:, lam > 0], lam[lam > 0])
        t = matrix[1, 1]  # 0 for bell
        if t:
            named = rf"rank 2 of certifiable 4, \(sigma_n/sigma_1\)\^2 {2 * t:.3g} and {2 * t:.3g}"
        else:
            named = r"rank 1, \(sigma_n/sigma_1\)\^2 1 and 1"
        refusal = rf"within eps = 1e-08 \(factor {factor}, {named}, 1 probe"
        with pytest.raises(pd.NotExtractable, match=refusal):
            pd.extract_decomposition(rho, seed=0)

    @pytest.mark.parametrize("form", [pd.build_rho, _dense])
    def test_an_operator_no_factor_can_whiten_reaches_the_gate(self, form):
        # three terms whose kets span 2 dimensions on each factor: rank 3, so sigma_3 = 0 on both
        # factors, and the whitening's inverse singular values are not finite (warnings are errors)
        e0, e1 = np.eye(3, dtype=complex)[:2]
        a = np.column_stack([e0, e1, (e0 + e1) / np.sqrt(2.0)])
        b = np.column_stack([e0, e1, (e0 - e1) / np.sqrt(2.0)])
        dec = pd.ProductDecomposition._from_stacks(pd.FactoredDims((3, 3)), (a, b), np.array([0.5, 0.3, 0.2]))
        with pytest.raises(pd.NotExtractable, match=r"no reconstruction within eps = 1e-08 \(factor ., rank 3, "):
            pd.extract_decomposition(form(dec), seed=0)


def _top_left_singular(slices):
    # the rule the power step replaced: each slice's top left singular vector, unit norm
    return np.linalg.svd(slices, full_matrices=False)[0][:, :, 0].T


class TestLeadingLeftVectors:
    """One power step per slice reads the b-kets that the top left singular
    vectors of the slices give."""

    @pytest.mark.parametrize("form", [pd.build_rho, _dense])
    def test_agrees_with_the_singular_vectors_on_the_criterion_4_list(self, monkeypatch, form):
        worst = 0.0
        for n, d1, d2, profile, seed in _bi_cases(200, master_seed=40_000):
            rho = form(pd.generate_instance(n, d1, d2, seed=seed, profile=profile))
            with monkeypatch.context() as patched:
                patched.setattr(decomp, "_leading_left", _top_left_singular)
                reference = pd.extract_decomposition(rho, seed=seed + 1)
            report = pd.extract_decomposition(rho, seed=seed + 1)
            assert (report.side, report.probes_used) == (reference.side, reference.probes_used)
            assert np.array_equal(report.decomposition.values, reference.decomposition.values)
            for ours, theirs in zip(report.decomposition.stacks, reference.decomposition.stacks):
                worst = max(worst, float(np.abs(ours - theirs).max()))
        assert worst < 1e-12

    def test_rank_one_slices_are_read_exactly(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        x = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        slices = np.einsum("tk,tm->tkm", b, x) * np.array([1e-150, 1e-3, 1.0, 1e150])[:, None, None]
        cols = decomp._leading_left(slices)
        assert np.allclose(np.linalg.norm(cols, axis=0), 1.0, rtol=0, atol=1e-15)
        for t in range(4):
            assert abs(abs(np.vdot(cols[:, t], b[t])) / np.linalg.norm(b[t]) - 1.0) < 1e-14
