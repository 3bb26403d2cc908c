"""The tolerances that stay live.  At ``ToleranceConfig(1e-4)`` a
planted pair at |<x|y>| = 1 - eps (1 -/+ 0.5), or a set whose smallest
relative singular value is eps (1 -/+ 0.5), certifies inside the cutoff
and is refused, naming the pair or the set, outside it: in matching, in blind
extraction, and through each CLI subcommand that takes ``--tol``.  Blind
extraction also succeeds at the loose tolerances 1e-3 and 1e-2, and ``check``
refuses a ``--tol`` for a file kind whose checks read none."""

import json
import re

import numpy as np
import pytest

import proddecomp as pd
from proddecomp import decomp, fileio
from proddecomp.cli import main
from test_cli import _coeff_file
from test_subspace import _near_collinear_pair, _near_rank_set, _with_slot, near_threshold_decompositions

TOL = pd.ToleranceConfig(1e-4)
FACTORS = (0.5, 1.5)  # outside, inside the cutoff


def _matched(match, dec, tol):
    """``match(dec, twin)`` at ``tol`` for a phased, permuted twin of ``dec``, which must recover the permutation."""
    twin, perm = pd.phase_permuted_twin(dec, seed=2)
    assert match(dec, twin, tol).permutation == perm


def _relative_smallest_sv(stack):
    sv = np.linalg.svd(stack, compute_uv=False)
    return sv[-1] / sv[0]


NEAR = near_threshold_decompositions(tol=TOL)


class TestMatching:
    @pytest.mark.parametrize(
        "case", range(len(NEAR)), ids=[f"{len(d.dims)}-slot-{s}-{kind}-{f}" for d, s, kind, f in NEAR]
    )
    def test_near_threshold_slot(self, case):
        # a near-rank set certifies either way here: every other set of these
        # bases is independent, so the dependent-profile cases below decide by rank
        dec, slot, kind, factor = NEAR[case]
        bi = isinstance(dec, pd.ProductDecomposition)
        match = pd.match_bidecomposition if bi else pd.match_tridecomposition
        if kind == "pair" and factor < 1.0:
            label = "decomposition" if bi else "tridecomposition"
            message = rf"^first {label}: {'abc'[slot]}-set collinear pair \(0, 1\)$"
            with pytest.raises(pd.HypothesisViolation, match=message):
                _matched(match, dec, TOL)
        else:
            _matched(match, dec, TOL)

    @pytest.mark.parametrize("factor", FACTORS)
    @pytest.mark.parametrize("slot", [0, 1])
    def test_bi_rank(self, slot, factor):
        # the other slot's set is dependent, so this one decides the hypotheses
        rng = np.random.default_rng(slot)
        dims, profile = ((4, 2), "a-independent-only") if slot == 0 else ((2, 4), "b-independent-only")
        base = pd.generate_instance(3, *dims, seed=1, profile=profile)
        dec = _with_slot(base, slot, _near_rank_set(rng, 4, factor, TOL.eps))
        assert _relative_smallest_sv(dec.stacks[slot]) == pytest.approx(factor * TOL.eps, rel=1e-3)
        if factor > 1.0:
            _matched(pd.match_bidecomposition, dec, TOL)
        else:
            message = "^first decomposition: neither ket set is linearly independent$"
            with pytest.raises(pd.HypothesisViolation, match=message):
                _matched(pd.match_bidecomposition, dec, TOL)

    @pytest.mark.parametrize("factor", FACTORS)
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_tri_rank(self, slot, factor):
        # the next slot's set is dependent, so this one decides the hypotheses
        rng = np.random.default_rng(slot)
        dep = (slot + 1) % 3
        dims = [2 if s == dep else 4 for s in range(3)]
        base = pd.generate_tri_instance(3, *dims, seed=1, profile=pd.TRI_PROFILES[dep + 1])
        dec = _with_slot(base, slot, _near_rank_set(rng, 4, factor, TOL.eps))
        assert _relative_smallest_sv(dec.stacks[slot]) == pytest.approx(factor * TOL.eps, rel=1e-3)
        if factor > 1.0:
            _matched(pd.match_tridecomposition, dec, TOL)
        else:
            left = "abc"[3 - slot - dep]
            with pytest.raises(pd.HypothesisViolation, match=rf"independent ket sets \(independent: \['{left}'\]\)$"):
                _matched(pd.match_tridecomposition, dec, TOL)


def _spectrum_set(rng, dim, t):
    """Three unit kets in ``dim`` whose equal-weight reduced operator has
    eigenvalues proportional to (1, 1, t): U diag(s) F^dagger for orthonormal
    U, the unitary 3 x 3 DFT F (|F_jk|^2 = 1/3) and sum_k s_k^2 = 3."""
    u = np.linalg.qr(rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3)))[0]
    dft = np.exp(2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3) / np.sqrt(3.0)
    s = np.sqrt(3.0 * np.array([1.0, 1.0, t]) / (2.0 + t))
    return (u * s) @ dft.conj().T


def _rank_case(slot, t, seed=0):
    """Three equal-weight terms: the ``slot`` set from :func:`_spectrum_set`
    with ratio ``t`` in dim 4, the other set dependent in dim 2."""
    rng = np.random.default_rng(seed)
    own, other = _spectrum_set(rng, 4, t), decomp._dependent_noncollinear_kets(rng, 2, 3)
    stacks, dims = ((own, other), (4, 2)) if slot == 0 else ((other, own), (2, 4))
    return pd.ProductDecomposition._from_stacks(pd.FactoredDims(dims), stacks, np.full(3, 1.0 / 3.0))


def _forms(dec):
    rho = pd.build_rho(dec)
    return {"factored": rho, "dense": pd.StateOperator(rho.dims, rho.matrix)}


class TestExtraction:
    @pytest.mark.parametrize("form", ["factored", "dense"])
    @pytest.mark.parametrize("factor", FACTORS)
    @pytest.mark.parametrize("slot", [0, 1])
    def test_support_rank(self, slot, factor, form):
        # the reduced operator's smallest relative eigenvalue at eps (1 -/+ 0.5), a relative
        # singular value of the set near 1e-2: independent at eps, whatever the support count
        # reads; the other set is dependent, so no other side can be taken
        dec = _rank_case(slot, factor * TOL.eps)
        rho = _forms(dec)[form]
        evals = np.linalg.eigvalsh(pd.tensor._reduced(rho, (slot,)))
        assert evals[1] / evals[-1] == pytest.approx(factor * TOL.eps, rel=1e-9)
        report = pd.extract_decomposition(rho, TOL, seed=3)
        assert report.side == slot
        assert pd.match_bidecomposition(dec, report.decomposition, TOL).n == 3

    @pytest.mark.parametrize("form", ["factored", "dense"])
    @pytest.mark.parametrize("factor", FACTORS)
    @pytest.mark.parametrize("slot", [0, 1])
    def test_set_rank(self, slot, factor, form):
        # the set's smallest relative singular value at eps (1 -/+ 0.5), the scale the
        # hypothesis check reads: extraction decides on it too
        dec = _rank_case(slot, (factor * TOL.eps) ** 2)
        assert _relative_smallest_sv(dec.stacks[slot]) == pytest.approx(factor * TOL.eps, rel=1e-6)
        rho = _forms(dec)[form]
        if factor > 1.0:
            report = pd.extract_decomposition(rho, TOL, seed=3)
            assert report.side == slot
            assert pd.match_bidecomposition(dec, report.decomposition, TOL).n == 3
        else:
            # the side's (sigma_3/sigma_1)^2 is the set's squared relative singular value, (0.5 eps)^2;
            # the other factor, of dim 2, cannot hold 3 independent kets
            conds = "2.5e-09 and dim 2 < n" if slot == 0 else "dim 2 < n and 2.5e-09"
            named = rf"rank 3, \(sigma_n/sigma_1\)\^2 {conds}"
            refusal = rf"neither ket set is linearly independent \(factor {slot}, {named}, 1 probe"
            with pytest.raises(pd.NotExtractable, match=refusal):
                pd.extract_decomposition(rho, TOL, seed=3)

    @pytest.mark.parametrize("form", ["factored", "dense"])
    @pytest.mark.parametrize("factor", FACTORS)
    @pytest.mark.parametrize("slot", [0, 1])
    def test_pair_in_the_recovered_set(self, slot, factor, form):
        # the pair sits in the dependent set, which extraction recovers from the slices
        rng = np.random.default_rng(slot)
        dims = (2, 4) if slot == 0 else (4, 2)
        base = pd.generate_instance(3, *dims, seed=1, profile=pd.BI_PROFILES[2 - slot])
        dec = _with_slot(base, slot, _near_collinear_pair(rng, 2, factor, TOL.eps))
        rho = _forms(dec)[form]
        if factor > 1.0:
            report = pd.extract_decomposition(rho, TOL, seed=3)
            assert report.side == 1 - slot
            assert pd.match_bidecomposition(dec, report.decomposition, TOL).n == 3
        else:
            # extraction puts the heaviest term first
            pair = tuple(sorted(np.argsort(np.argsort(-dec.values, kind="stable"))[:2].tolist()))
            message = rf"extracted decomposition: {'ab'[slot]}-set collinear pair {re.escape(str(pair))}"
            with pytest.raises(pd.NotExtractable, match=message):
                pd.extract_decomposition(rho, TOL, seed=3)

    @pytest.mark.parametrize("form", ["factored", "dense"])
    @pytest.mark.parametrize("t", [1e-3, 1e-2])
    def test_loose_tolerances_extract(self, t, form):
        # nothing on the probe's eigenvalues refuses a candidate: the reconstruction
        # gate and the hypothesis check decide at every tolerance
        tol = pd.ToleranceConfig(t)
        for seed in range(20):
            dec = pd.generate_instance(4, 5, 5, seed=seed)
            report = pd.extract_decomposition(_forms(dec)[form], tol, seed=seed)
            assert pd.match_bidecomposition(dec, report.decomposition, tol).n == 4


class TestCliFlag:
    """--tol reaches a decision in each subcommand that takes it, and the others refuse it."""

    @staticmethod
    def _pair_file(tmp_path):
        # a-set pair at |<x|y>| = 1 - 1e-6: collinear at 1e-4, not at 1e-8
        pair = _near_collinear_pair(np.random.default_rng(0), 4, 100.0, 1e-8)
        path = str(tmp_path / "pair.json")
        fileio.save_decomposition(path, _with_slot(pd.generate_instance(3, 4, 4, seed=1), 0, pair))
        return path

    def test_check(self, tmp_path):
        path = self._pair_file(tmp_path)
        assert main(["check", path, "--tol", "1e-8"]) == 0
        assert main(["check", path, "--tol", "1e-4"]) == 4

    def test_match(self, tmp_path):
        path, twin = self._pair_file(tmp_path), str(tmp_path / "twin.json")
        assert main(["generate", "--twin-of", path, "--seed", "2", "--out", twin]) == 0
        assert main(["match", path, twin, "--mode", "bi", "--tol", "1e-8"]) == 0
        assert main(["match", path, twin, "--mode", "bi", "--tol", "1e-4"]) == 4

    def test_extract(self, tmp_path, capsys):
        # the reduced operator's smallest relative eigenvalue is 1e-6, the set's smallest relative
        # singular value 1e-3: independent at 1e-8 and 1e-4, dependent at 1e-2
        op, out = str(tmp_path / "op.json"), str(tmp_path / "out.json")
        fileio.save_operator(op, pd.build_rho(_rank_case(0, 1e-6)))
        for tol in ("1e-8", "1e-4"):
            assert main(["extract", op, "--tol", tol, "--out", out]) == 0
            assert fileio.load_decomposition(out).n == 3
        assert main(["extract", op, "--tol", "1e-2", "--out", out]) == 3
        assert "neither ket set is linearly independent (factor 0, rank 3, (sigma_n/sigma_1)^2 1e-06 and dim 2 < n" in (
            capsys.readouterr().err
        )

    def test_extract_at_a_loose_tolerance(self, tmp_path):
        dec, op, out = (str(tmp_path / name) for name in ("dec.json", "op.json", "out.json"))
        assert main(["generate", "--n", "3", "--dims", "4,3", "--seed", "7", "--out", dec]) == 0
        assert main(["build", dec, "--out", op]) == 0
        assert main(["extract", op, "--tol", "1e-3", "--out", out]) == 0
        assert main(["match", dec, out, "--mode", "bi"]) == 0

    def test_factorable(self, tmp_path, capsys):
        # Schmidt values (1, 1e-6) up to normalization
        path = _coeff_file(tmp_path, 2, [(1.0, 0), (1e-6, 1)])
        assert main(["factorable", path, "--tol", "1e-8"]) == 0
        assert "factorable: no" in capsys.readouterr().out
        assert main(["factorable", path, "--tol", "1e-4"]) == 0
        assert "factorable: yes" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command",
        [
            ["generate", "--n", "2", "--dims", "2,2", "--out", "{out}"],
            ["build", "{dec}", "--out", "{out}"],
            ["purify", "{dec}", "--out", "{out}"],
            ["demo"],
        ],
    )
    def test_the_other_subcommands_refuse_it(self, tmp_path, capsys, command):
        paths = {"dec": str(tmp_path / "dec.json"), "out": str(tmp_path / "out.json")}
        assert main(["generate", "--n", "2", "--dims", "2,2", "--out", paths["dec"]]) == 0
        capsys.readouterr()
        assert main([part.format(**paths) for part in command] + ["--tol", "1e-6"]) == 2
        assert "error: unrecognized arguments: --tol 1e-6" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, reads_tol",
        [("operator", False), ("2-weight", True), ("2-coeff", False), ("3-weight", False), ("3-coeff", True)],
    )
    def test_check_refuses_it_where_nothing_reads_it(self, tmp_path, capsys, kind, reads_tol):
        path = tmp_path / f"{kind}.json"
        if kind == "operator":
            fileio.save_operator(str(path), pd.build_rho(pd.generate_instance(2, 2, 2)))
        else:  # 0.6 |0..0> + 0.8 |1..1>, each value a weight "w" or a coefficient "coeff"
            nfac, form = kind.split("-")
            e = [{"re": [1.0, 0.0], "im": [0.0, 0.0]}, {"re": [0.0, 1.0], "im": [0.0, 0.0]}]
            key, nfac = "w" if form == "weight" else "coeff", int(nfac)
            terms = [{key: v, "kets": [e[i]] * nfac} for v, i in ((0.6, 0), (0.8, 1))]
            payload = {"format_version": "1", "kind": "decomposition", "dims": [2] * nfac, "terms": terms}
            path.write_text(json.dumps(payload))
        for tol in ([], ["--tol", "1e-8"], ["--tol", "0.5"]):
            code = main(["check", str(path), *tol])
            err = capsys.readouterr().err
            if reads_tol or not tol:
                assert code == 0, (tol, err)
            else:
                assert code == 2
                assert err.splitlines() == [
                    f"error: {path}: --tol applies only to a 2-factor weight file or a 3-factor coefficient file"
                ]


def _door_calls():
    """Each public door that takes a ``tol``, as a call of that ``tol`` on valid other arguments."""
    dec = pd.generate_instance(2, 2, 2, seed=1)
    tri, ket, split, rho = pd.purify(dec, 2), pd.Ket.basis(4, 0), pd.FactoredDims((2, 2)), pd.build_rho(dec)
    third = pd.Ket.basis(2, 0)
    return {
        "check_product_hypotheses": lambda tol: pd.check_product_hypotheses(dec, tol),
        "check_tri_hypotheses": lambda tol: pd.check_tri_hypotheses(tri, tol),
        "is_factorable": lambda tol: pd.is_factorable(ket, split, tol),
        "split_pair_terms": lambda tol: pd.split_pair_terms([1.0], [ket], [third], split, tol),
        "match_bidecomposition": lambda tol: pd.match_bidecomposition(dec, dec, tol),
        "match_tridecomposition": lambda tol: pd.match_tridecomposition(tri, tri, tol),
        "extract_decomposition": lambda tol: pd.extract_decomposition(rho, tol),
        "relating_unitary": lambda tol: pd.relating_unitary(ket, ket, split, tol),
        "support_and_null": lambda tol: pd.support_and_null(rho, 0, tol),
        "is_collinear": lambda tol: pd.is_collinear(ket, ket, tol),
        "collinear_pairs": lambda tol: pd.subspace.collinear_pairs([ket], tol),
        "is_noncollinear_set": lambda tol: pd.is_noncollinear_set([ket], tol),
        "rank_and_independence": lambda tol: pd.rank_and_independence([ket], tol),
    }


class TestToleranceType:
    """A ``tol`` that is no ToleranceConfig is refused by type at every door that takes one,
    before anything reads it, as every other argument of the wrong type is."""

    @pytest.mark.parametrize("tol", [1e-6, None, "1e-6"], ids=["float", "None", "str"])
    @pytest.mark.parametrize("door", list(_door_calls()))
    def test_refused_as_dimension_mismatch(self, door, tol):
        call = _door_calls()[door]
        call(pd.DEFAULT_TOL)  # the other arguments are valid
        with pytest.raises(pd.DimensionMismatch, match=f"^expected ToleranceConfig, got {type(tol).__name__}$"):
            call(tol)
