"""Factorability (Schmidt rank 1) and its brute-force equivalences."""

import contextlib
import itertools

import numpy as np
import pytest

import proddecomp as pd
from proddecomp import fileio
from proddecomp.cli import main


def _random_ket(rng, dim):
    return pd.Ket.normalize(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def _max_minor(m):
    # independent oracle: a matrix has rank <= 1 iff every 2x2 minor vanishes
    d1, d2 = m.shape
    worst = 0.0
    for i, k in itertools.combinations(range(d1), 2):
        for j, l in itertools.combinations(range(d2), 2):
            worst = max(worst, abs(m[i, j] * m[k, l] - m[i, l] * m[k, j]))
    return worst


def _noncollinear_kets(rng, dim, count):
    while True:
        kets = [_random_ket(rng, dim) for _ in range(count)]
        if pd.is_noncollinear_set(kets):
            return kets


class TestIsFactorable:
    def test_standard_product(self):
        x = pd.tensor_product(pd.Ket.basis(2, 0), pd.Ket.basis(2, 1))
        ok, factors = pd.is_factorable(x, pd.FactoredDims((2, 2)))
        assert ok
        left, right = factors
        assert abs(abs(left.overlap(pd.Ket.basis(2, 0)))) > 1 - 1e-12
        assert abs(abs(right.overlap(pd.Ket.basis(2, 1)))) > 1 - 1e-12

    def test_two_term_superposition_is_not_factorable(self):
        x = pd.Ket.normalize([1, 0, 0, 1])
        ok, factors = pd.is_factorable(x, pd.FactoredDims((2, 2)))
        assert not ok and factors is None
        assert _max_minor(x.amplitudes.reshape(2, 2)) > 0.4

    @pytest.mark.parametrize("seed", range(10))
    def test_single_nonzero_coefficient_is_factorable(self, seed):
        # one nonzero coefficient over an independent a-set and a
        # non-collinear b-set; cross-checked against the 2x2-minor oracle
        rng = np.random.default_rng(seed)
        n, d1, d2 = 3, 4, 3
        dec = pd.generate_instance(n, d1, d2, seed=seed)
        j = seed % n
        coeff = 0.8 - 0.6j
        vec = coeff * np.kron(dec.terms[j].a.amplitudes, dec.terms[j].b.amplitudes)
        x = pd.Ket.normalize(vec)
        ok, factors = pd.is_factorable(x, pd.FactoredDims((d1, d2)))
        assert ok
        assert _max_minor(x.amplitudes.reshape(d1, d2)) < 1e-12
        left, right = factors
        assert abs(left.overlap(dec.terms[j].a)) > 1 - 1e-10
        assert abs(right.overlap(dec.terms[j].b)) > 1 - 1e-10

    def test_returned_factors_have_positive_leading_phase(self):
        rng = np.random.default_rng(3)
        a, b = _random_ket(rng, 3), _random_ket(rng, 2)
        x = pd.tensor_product(a, b)
        _, factors = pd.is_factorable(x, pd.FactoredDims((3, 2)))
        for f in factors:
            lead = f.amplitudes[np.abs(f.amplitudes) > 1e-8][0]
            assert abs(lead.imag) < 1e-12 and lead.real > 0

    def test_trivial_split_with_unit_factor(self):
        rng = np.random.default_rng(4)
        x = _random_ket(rng, 3)
        ok, factors = pd.is_factorable(x, pd.FactoredDims((3, 1)))
        assert ok
        assert abs(abs(factors[0].overlap(x))) > 1 - 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(pd.DimensionMismatch):
            pd.is_factorable(pd.Ket.basis(4, 0), pd.FactoredDims((3, 2)))


class TestSchmidtValues:
    def test_product_has_single_value(self):
        x = pd.tensor_product(pd.Ket.basis(2, 0), pd.Ket.basis(2, 0))
        s = pd.schmidt_values(x, pd.FactoredDims((2, 2)))
        assert np.allclose(s, [1.0, 0.0], atol=1e-14)

    def test_balanced_superposition(self):
        x = pd.Ket.normalize([1, 0, 0, 1])
        s = pd.schmidt_values(x, pd.FactoredDims((2, 2)))
        assert np.allclose(s, [1 / np.sqrt(2)] * 2, atol=1e-14)


class TestFactorabilityRuleExhaustive:
    def test_all_small_coefficient_patterns(self):
        # exhaustive over n <= 3, dims <= 3 and every nonzero-support pattern:
        # the sum over an independent a-set and non-collinear b-set is
        # factorable exactly when one coefficient is nonzero
        values = (0.9 + 0.2j, -0.55 + 0.71j, 0.3 - 1.1j)
        checked = 0
        for n in (1, 2, 3):
            for d1 in range(n, 4):
                d2_range = (1, 2, 3) if n == 1 else (2, 3)
                for d2 in d2_range:
                    rng = np.random.default_rng(1000 * n + 100 * d1 + d2)
                    a_kets = (
                        [_random_ket(rng, d1)]
                        if n == 1
                        else [
                            pd.Ket(col)
                            for col in np.linalg.qr(
                                rng.standard_normal((d1, n)) + 1j * rng.standard_normal((d1, n))
                            )[0][:, :n].T
                        ]
                    )
                    b_kets = _noncollinear_kets(rng, d2, n)
                    for size in range(1, n + 1):
                        for support in itertools.combinations(range(n), size):
                            vec = np.zeros(d1 * d2, dtype=complex)
                            for j in support:
                                vec += values[j] * np.kron(
                                    a_kets[j].amplitudes, b_kets[j].amplitudes
                                )
                            x = pd.Ket.normalize(vec)
                            verdict, _ = pd.is_factorable(x, pd.FactoredDims((d1, d2)))
                            assert verdict == (size == 1), (n, d1, d2, support)
                            checked += 1
        assert checked == 35  # 9 (n=1) + 12 (n=2) + 14 (n=3) cases


def _reference_split(coeffs, pair_amps, split):
    """The per-term recast the Schmidt core replaced: one full SVD per pair ket, its leading
    vectors phased alone, and coefficient z_k <a_k (x) b_k|q_k> from ``np.vdot``."""
    a_cols, b_cols, values = [], [], []
    for z, q in zip(coeffs, pair_amps):
        u, _, vh = np.linalg.svd(q.reshape(split))
        a, b = pd.fix_phase(u[:, 0]), pd.fix_phase(vh[0, :])
        a_cols.append(a)
        b_cols.append(b)
        values.append(complex(z) * complex(np.vdot(np.kron(a, b), q)))
    return np.array(a_cols).T, np.array(b_cols).T, np.array(values)


class TestSchmidtCore:
    @pytest.mark.parametrize("profile", pd.TRI_PROFILES)
    def test_recast_matches_the_per_term_reference(self, profile):
        # the stacks are the reference's bit for bit; the coefficients sum in another order
        for seed in range(6):
            tri = pd.generate_tri_instance(4, 4, 5, 4, seed=seed, profile=profile)
            a, b, c = tri.stacks
            phases = np.exp(2j * np.pi * np.random.default_rng(seed).uniform(size=4))
            pair_amps = [np.kron(a[:, j], b[:, j]) * phases[j] for j in range(4)]
            coeffs, third = tri.values / phases, [pd.Ket(x) for x in c.T]
            got = pd.split_pair_terms(coeffs, [pd.Ket(q) for q in pair_amps], third, pd.FactoredDims((4, 5)))
            ref_a, ref_b, ref_values = _reference_split(coeffs, pair_amps, (4, 5))
            assert got.stacks[0].tobytes() == np.asfortranarray(ref_a).tobytes()
            assert got.stacks[1].tobytes() == np.asfortranarray(ref_b).tobytes()
            assert np.array_equal(got.stacks[2], c)
            assert np.abs(got.values - ref_values).max() <= 1e-15 * np.abs(ref_values).min()
            for j, q in enumerate(pair_amps):
                _, factors = pd.is_factorable(pd.Ket(q), pd.FactoredDims((4, 5)))
                assert [f.amplitudes.tobytes() for f in factors] == [ref_a[:, j].tobytes(), ref_b[:, j].tobytes()]


    @pytest.mark.parametrize("eps", [1e-8, 1e-4])
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_verdict_flips_at_the_rank_cutoff(self, eps, factor):
        # Schmidt values proportional to (1, factor * eps), in random local bases
        rng = np.random.default_rng(7)
        u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        v = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        x = pd.Ket.normalize((u @ np.diag([1.0, factor * eps]) @ v[:2]).reshape(-1))
        split, tol = pd.FactoredDims((2, 3)), pd.ToleranceConfig(eps)
        s = pd.schmidt_values(x, split)
        assert abs(s[1] / s[0] / (factor * eps) - 1.0) < 1e-6
        assert pd.is_factorable(x, split, tol)[0] is (factor < 1.0)
        refused = pytest.raises(pd.HypothesisViolation, match="not a product")
        with refused if factor > 1.0 else contextlib.nullcontext():
            pd.split_pair_terms([1.0], [x], [pd.Ket.basis(2, 0)], split, tol)


class TestLinAlgFailures:
    """A Schmidt SVD that does not converge is DegenerateInput, not a raw ``LinAlgError``."""

    @staticmethod
    def _failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    @pytest.mark.parametrize(
        "call",
        [
            lambda x, split: pd.is_factorable(x, split),
            lambda x, split: pd.schmidt_values(x, split),
            lambda x, split: pd.split_pair_terms([1.0], [x], [pd.Ket.basis(3, 0)], split),
        ],
        ids=["is_factorable", "schmidt_values", "split_pair_terms"],
    )
    def test_maps_to_degenerate_input(self, monkeypatch, call):
        x = pd.tensor_product(pd.Ket.basis(2, 0), pd.Ket.basis(2, 1))
        monkeypatch.setattr(np.linalg, "svd", self._failing)
        with pytest.raises(pd.DegenerateInput, match="did not converge") as info:
            call(x, pd.FactoredDims((2, 2)))
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_cli_factorable_exits_2_with_one_error_line(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "pair.json"
        ket = {"re": [1.0, 0.0], "im": [0.0, 0.0]}
        payload = {"format_version": "1", "kind": "decomposition", "dims": [2, 2]}
        path.write_text(fileio.dumps_canonical({**payload, "terms": [{"coeff": 1.0, "kets": [ket, ket]}]}))
        monkeypatch.setattr(np.linalg, "svd", self._failing)
        assert main(["factorable", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "did not converge" in captured.err
