"""Command-line interface: exit codes, round trips, deterministic output."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import proddecomp as pd
from proddecomp import fileio
from proddecomp.cli import build_parser, main


def _ket_json(k):
    return {"re": [float(v) for v in k.amplitudes.real], "im": [float(v) for v in k.amplitudes.imag]}


def _write_payload(path, payload):
    path.write_text(fileio.dumps_canonical(payload) + "\n")
    return str(path)


def _rotated_pair_file(tmp_path):
    """Rotated pair form of the balanced tripartite vector, dims (4, 2)."""
    e = [pd.Ket.basis(2, 0), pd.Ket.basis(2, 1)]
    ab1 = np.kron(e[0].amplitudes, e[0].amplitudes)
    ab2 = np.kron(e[1].amplitudes, e[1].amplitudes)
    q = [pd.Ket.normalize(ab1 + ab2), pd.Ket.normalize(ab1 - ab2)]
    d = [
        pd.Ket.normalize(e[0].amplitudes + e[1].amplitudes),
        pd.Ket.normalize(e[0].amplitudes - e[1].amplitudes),
    ]
    s = 1 / math.sqrt(2)
    payload = {
        "format_version": "1",
        "kind": "decomposition",
        "dims": [4, 2],
        "terms": [
            {"coeff": {"re": s, "im": 0.0}, "kets": [_ket_json(q[i]), _ket_json(d[i])]}
            for i in range(2)
        ],
    }
    return _write_payload(tmp_path / "qform.json", payload)


def _balanced_abc_file(tmp_path):
    e = [pd.Ket.basis(2, 0), pd.Ket.basis(2, 1)]
    s = 1 / math.sqrt(2)
    tri = pd.TriDecomposition(
        pd.FactoredDims((2, 2, 2)),
        (pd.TriTerm(s, e[0], e[0], e[0]), pd.TriTerm(s, e[1], e[1], e[1])),
    )
    path = tmp_path / "abc.json"
    fileio.save_decomposition(str(path), tri)
    return str(path)


class TestGenerate:
    def test_same_seed_gives_identical_files(self, tmp_path):
        f1, f2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["generate", "--n", "2", "--dims", "2,2", "--seed", "7", "--out", f1]) == 0
        assert main(["generate", "--n", "2", "--dims", "2,2", "--seed", "7", "--out", f2]) == 0
        assert open(f1, "rb").read() == open(f2, "rb").read()
        loaded = fileio.load_decomposition(f1).product()
        pd.check_product_hypotheses(loaded)

    def test_infeasible_parameters_exit_2(self, tmp_path):
        out = str(tmp_path / "x.json")
        assert main(["generate", "--n", "3", "--dims", "2,2", "--out", out]) == 2

    def test_tri_generation(self, tmp_path):
        out = str(tmp_path / "t.json")
        code = main(
            ["generate", "--n", "3", "--dims", "4,4,4", "--profile", "c-dependent", "--out", out]
        )
        assert code == 0
        tri = fileio.load_decomposition(out).tri()
        flags = pd.check_tri_hypotheses(tri)
        assert flags == (True, True, False)

    def test_bad_dims_argument_exit_2(self, tmp_path):
        assert main(["generate", "--dims", "2", "--out", str(tmp_path / "x.json")]) == 2


class TestWriteFailures:
    """An --out in a missing directory is an input error: exit 2 and one
    ``error:`` line, not a traceback."""

    @pytest.mark.parametrize(
        "command",
        [
            ["generate", "--n", "2", "--dims", "2,2"],
            ["generate", "--twin-of", "{dec}"],
            ["build", "{dec}"],
            ["extract", "{op}"],
            ["purify", "{dec}"],
        ],
    )
    def test_missing_output_directory_exits_2(self, tmp_path, capsys, command):
        paths = {"dec": str(tmp_path / "dec.json"), "op": str(tmp_path / "op.json")}
        assert main(["generate", "--n", "2", "--dims", "3,3", "--out", paths["dec"]]) == 0
        assert main(["build", paths["dec"], "--out", paths["op"]]) == 0
        capsys.readouterr()
        out = str(tmp_path / "missing" / "x.json")
        assert main([part.format(**paths) for part in command] + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}: cannot write") and err.count("\n") == 1


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_build_extract_match_cycle(self, tmp_path, seed):
        dec_path = str(tmp_path / "dec.json")
        op_path = str(tmp_path / "op.json")
        back_path = str(tmp_path / "back.json")
        assert (
            main(["generate", "--n", "3", "--dims", "4,3", "--seed", str(seed), "--out", dec_path])
            == 0
        )
        assert main(["build", dec_path, "--out", op_path]) == 0
        assert main(["extract", op_path, "--seed", "1", "--out", back_path]) == 0
        assert main(["match", dec_path, back_path, "--mode", "bi"]) == 0

    def test_twin_round_trip_recovers_permutation(self, tmp_path, capsys):
        dec_path = str(tmp_path / "dec.json")
        twin_path = str(tmp_path / "twin.json")
        main(["generate", "--n", "4", "--dims", "5,4", "--seed", "2", "--out", dec_path])
        capsys.readouterr()
        assert (
            main(["generate", "--twin-of", dec_path, "--seed", "5", "--out", twin_path, "--json"])
            == 0
        )
        applied = json.loads(capsys.readouterr().out)["permutation"]
        assert main(["match", dec_path, twin_path, "--mode", "bi", "--json"]) == 0
        reported = json.loads(capsys.readouterr().out)
        assert reported["permutation"] == applied
        assert reported["residual"] < 1e-8

    def test_purify_then_check(self, tmp_path):
        dec_path = str(tmp_path / "dec.json")
        tri_path = str(tmp_path / "tri.json")
        main(["generate", "--n", "2", "--dims", "3,3", "--seed", "4", "--out", dec_path])
        assert main(["purify", dec_path, "--dim3", "3", "--out", tri_path]) == 0
        assert main(["check", tri_path]) == 0
        tri = fileio.load_decomposition(tri_path).tri()
        assert tri.dims.dims == (3, 3, 3)


class TestBuildCommand:
    def test_normalize_flag_rescales_trace_to_one(self, tmp_path):
        dec = pd.generate_instance(2, 3, 3, seed=13)
        scaled = pd.ProductDecomposition(
            dec.dims, tuple(pd.ProductTerm(4.0 * t.weight, t.a, t.b) for t in dec.terms)
        )
        dec_path = str(tmp_path / "d.json")
        fileio.save_decomposition(dec_path, scaled)
        raw_path = str(tmp_path / "raw.json")
        norm_path = str(tmp_path / "norm.json")
        assert main(["build", dec_path, "--out", raw_path]) == 0
        assert main(["build", dec_path, "--normalize", "--out", norm_path]) == 0
        assert abs(fileio.load_operator(raw_path).trace - 4.0) < 1e-10
        assert abs(fileio.load_operator(norm_path).trace - 1.0) < 1e-10

    @pytest.mark.parametrize("n, dims", [(3, (4, 4)), (8, (16, 16))])
    @pytest.mark.parametrize("profile", pd.BI_PROFILES)
    def test_operator_file_bytes_are_those_of_the_dense_operator(self, tmp_path, capsys, n, dims, profile):
        # build stores a factor and assembles the matrix only to write it, by
        # the arithmetic of rho_matrix, so the file is unchanged byte for byte
        # and the reported trace is that of the dense matrix
        dec = pd.generate_instance(n, *dims, seed=17, profile=profile)
        dec_path, out, ref = (str(tmp_path / name) for name in ("d.json", "out.json", "ref.json"))
        fileio.save_decomposition(dec_path, dec)
        assert main(["build", dec_path, "--out", out, "--json"]) == 0
        loaded = fileio.load_decomposition(dec_path).product()
        dense = pd.StateOperator(dec.dims, pd.rho_matrix(loaded))
        fileio.save_operator(ref, dense)
        assert (tmp_path / "out.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
        assert json.loads(capsys.readouterr().out)["trace"] == dense.trace

    def test_coeff_file_builds_projector(self, tmp_path):
        tri = pd.generate_tri_instance(2, 2, 2, 2, seed=3)
        tri_path = str(tmp_path / "t.json")
        fileio.save_decomposition(tri_path, tri)
        op_path = str(tmp_path / "p.json")
        assert main(["build", tri_path, "--out", op_path]) == 0
        op = fileio.load_operator(op_path)
        evals = np.linalg.eigvalsh(op.matrix)
        assert abs(evals[-1] - 1.0) < 1e-10  # rank-1 projector onto the global vector
        assert abs(op.trace - 1.0) < 1e-10


class TestMatchErrors:
    def test_operator_mismatch_exits_5(self, tmp_path):
        f1, f2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        main(["generate", "--n", "2", "--dims", "3,3", "--seed", "1", "--out", f1])
        main(["generate", "--n", "2", "--dims", "3,3", "--seed", "2", "--out", f2])
        assert main(["match", f1, f2, "--mode", "bi"]) == 5

    def test_collinear_pair_exits_4_and_names_pair(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        a = pd.Ket.normalize(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        b1 = pd.Ket.basis(2, 0)
        b2 = pd.Ket.basis(2, 1)
        path = _write_payload(
            tmp_path / "collinear.json",
            {
                "format_version": "1",
                "kind": "decomposition",
                "dims": [2, 2],
                "terms": [
                    {"w": 0.5, "kets": [_ket_json(a), _ket_json(b1)]},
                    {"w": 0.5, "kets": [_ket_json(a), _ket_json(b2)]},
                ],
            },
        )
        assert main(["match", path, path, "--mode", "bi"]) == 4
        err = capsys.readouterr().err
        assert "collinear pair (0, 1)" in err

    def test_pair_form_recast_exits_4_with_factorability_message(self, tmp_path, capsys):
        abc = _balanced_abc_file(tmp_path)
        qform = _rotated_pair_file(tmp_path)
        assert main(["match", abc, qform, "--mode", "tri"]) == 4
        assert "factorability hypothesis violated" in capsys.readouterr().err

    def test_tri_match_of_twins(self, tmp_path, capsys):
        t_path = str(tmp_path / "t.json")
        tw_path = str(tmp_path / "tw.json")
        main(["generate", "--n", "3", "--dims", "4,3,4", "--seed", "6", "--out", t_path])
        capsys.readouterr()
        main(["generate", "--twin-of", t_path, "--seed", "8", "--out", tw_path, "--json"])
        applied = json.loads(capsys.readouterr().out)["permutation"]
        assert main(["match", t_path, tw_path, "--mode", "tri", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["permutation"] == applied

    def test_parse_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["match", str(bad), str(bad), "--mode", "bi"]) == 2


class TestExtractCommand:
    def test_maximally_mixed_exits_3(self, tmp_path):
        # recorded branch: reconstruction from the rank-2 reduced support
        # cannot reach the tolerance, so extraction reports not-extractable
        op_path = str(tmp_path / "mixed.json")
        rho = pd.StateOperator(pd.FactoredDims((2, 2)), np.eye(4, dtype=complex) / 4)
        fileio.save_operator(op_path, rho)
        assert main(["extract", op_path, "--out", str(tmp_path / "d.json")]) == 3

    def test_half_half_operator_extracts_two_terms(self, tmp_path, capsys):
        e = [pd.Ket.basis(2, 0), pd.Ket.basis(2, 1)]
        dec = pd.ProductDecomposition(
            pd.FactoredDims((2, 2)),
            (pd.ProductTerm(0.5, e[0], e[0]), pd.ProductTerm(0.5, e[1], e[1])),
        )
        dec_path = str(tmp_path / "dec.json")
        op_path = str(tmp_path / "op.json")
        out_path = str(tmp_path / "out.json")
        fileio.save_decomposition(dec_path, dec)
        fileio.save_operator(op_path, pd.build_rho(dec))
        assert main(["extract", op_path, "--out", out_path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 2
        assert report["reconstruction_error"] < 1e-6
        assert main(["match", dec_path, out_path, "--mode", "bi"]) == 0

    def test_b_independent_input_reports_side_1_after_one_probe_pair(self, tmp_path, capsys):
        dec_path = str(tmp_path / "dec.json")
        op_path = str(tmp_path / "op.json")
        gen = ["generate", "--n", "4", "--dims", "3,5", "--profile", "b-independent-only", "--seed", "2"]
        assert main(gen + ["--out", dec_path]) == 0
        assert main(["build", dec_path, "--out", op_path]) == 0
        capsys.readouterr()
        assert main(["extract", op_path, "--out", str(tmp_path / "out.json"), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["side"] == 1
        assert report["probes_used"] == 1

    def test_rank_one_operator_gives_single_term(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        a = pd.Ket.normalize(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        b = pd.Ket.normalize(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        dec = pd.ProductDecomposition(pd.FactoredDims((3, 2)), (pd.ProductTerm(1.0, a, b),))
        op_path = str(tmp_path / "op.json")
        fileio.save_operator(op_path, pd.build_rho(dec))
        out_path = str(tmp_path / "out.json")
        assert main(["extract", op_path, "--out", out_path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 1
        assert report["reconstruction_error"] < 1e-6


class TestFactorableCommand:
    def test_product_file_is_factorable(self, tmp_path, capsys):
        k = _ket_json(pd.Ket.basis(2, 0))
        path = _write_payload(
            tmp_path / "prod.json",
            {
                "format_version": "1",
                "kind": "decomposition",
                "dims": [2, 2],
                "terms": [{"coeff": 1.0, "kets": [k, _ket_json(pd.Ket.basis(2, 1))]}],
            },
        )
        assert main(["factorable", path]) == 0
        assert "factorable: yes" in capsys.readouterr().out

    def test_entangled_file_is_not(self, tmp_path, capsys):
        qform = _rotated_pair_file(tmp_path)
        # reuse the first q ket alone as a 2,2 coefficient file
        loaded = fileio.load_decomposition(qform)
        q1 = loaded.kets[0][0]
        path = _write_payload(
            tmp_path / "ent.json",
            {
                "format_version": "1",
                "kind": "decomposition",
                "dims": [2, 2],
                "terms": [{"coeff": 1.0, "kets": [_ket_json(pd.Ket.basis(2, 0)), _ket_json(pd.Ket.basis(2, 0))]},
                          {"coeff": 1.0, "kets": [_ket_json(pd.Ket.basis(2, 1)), _ket_json(pd.Ket.basis(2, 1))]}],
            },
        )
        assert main(["factorable", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["factorable"] is False
        assert abs(report["schmidt_values"][0] - 1 / math.sqrt(2)) < 1e-12
        assert q1.dim == 4  # sanity on the fixture


class TestDemoCommand:
    def test_contains_contract_lines(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "eigenvalues: 0.5 0.5 0 0" in out
        assert "0.70710678 0.70710678" in out
        assert "q1 factorable: no" in out

    def test_output_is_byte_identical_across_runs(self, capsys):
        main(["demo"])
        first = capsys.readouterr().out
        main(["demo"])
        second = capsys.readouterr().out
        assert first == second

    def test_json_mode(self, capsys):
        assert main(["demo", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["eigenvalues"] == [0.5, 0.5, 0.0, 0.0]

    def test_module_entry_point(self):
        # the package as imported here, found by the child through PYTHONPATH
        src = str(Path(pd.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "proddecomp", "demo"], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert "eigenvalues: 0.5 0.5 0 0" in done.stdout
        assert "0.70710678 0.70710678" in done.stdout
        assert "q1 factorable: no" in done.stdout


class TestCheckCommand:
    def test_valid_files_pass(self, tmp_path):
        dec_path = str(tmp_path / "d.json")
        op_path = str(tmp_path / "o.json")
        main(["generate", "--n", "2", "--dims", "2,2", "--seed", "0", "--out", dec_path])
        main(["build", dec_path, "--out", op_path])
        assert main(["check", dec_path]) == 0
        assert main(["check", op_path]) == 0

    def test_collinear_file_exits_4(self, tmp_path):
        a = pd.Ket.basis(2, 0)
        path = _write_payload(
            tmp_path / "bad.json",
            {
                "format_version": "1",
                "kind": "decomposition",
                "dims": [2, 2],
                "terms": [
                    {"w": 0.5, "kets": [_ket_json(a), _ket_json(a)]},
                    {"w": 0.5, "kets": [_ket_json(a), _ket_json(pd.Ket.basis(2, 1))]},
                ],
            },
        )
        assert main(["check", path]) == 4

    def test_missing_file_exits_2(self):
        assert main(["check", "/nonexistent.json"]) == 2


class TestParser:
    def test_built_once_and_keeps_no_state_between_calls(self):
        assert build_parser() is build_parser()
        first = build_parser().parse_args(["demo", "--json", "--tol", "1e-6"])
        second = build_parser().parse_args(["demo"])
        assert (first.json, first.tol) == (True, 1e-6)
        assert (second.json, second.tol) == (False, 1e-8)



def _coeff_file(tmp_path, nfac, terms):
    """A coefficient file on nfac qubits with one term coeff |i..i> per (coeff, i) pair."""
    e = [_ket_json(pd.Ket.basis(2, i)) for i in range(2)]
    payload = {
        "format_version": "1",
        "kind": "decomposition",
        "dims": [2] * nfac,
        "terms": [{"coeff": z, "kets": [e[i]] * nfac} for z, i in terms],
    }
    return _write_payload(tmp_path / f"coeff{nfac}.json", payload)


def _balanced(scale=1.0):
    return [(scale / math.sqrt(2), 0), (scale / math.sqrt(2), 1)]


class TestCancellationRule:
    """One rule for coefficient files: a global vector of norm at most
    _TRI_CANCEL_RTOL * sum_j |c_j| has cancelled (exit 2), at any scale."""

    @staticmethod
    def _build(tmp_path, path):
        out = str(tmp_path / "op.json")
        code = main(["build", path, "--out", out])
        return code, (fileio.load_operator(out).matrix if code == 0 else None)

    @pytest.mark.parametrize("nfac", [2, 3])
    @pytest.mark.parametrize("k", [-200, -170, 170, 200])
    def test_build_at_every_scale(self, tmp_path, nfac, k):
        _, reference = self._build(tmp_path, _coeff_file(tmp_path, nfac, _balanced()))
        code, m = self._build(tmp_path, _coeff_file(tmp_path, nfac, _balanced(10.0**k)))
        assert code == 0
        assert np.abs(m - reference).max() <= 1e-15

    @pytest.mark.parametrize("k", [-200, -170, 0, 170, 200])
    def test_factorable_at_every_scale(self, tmp_path, capsys, k):
        assert main(["factorable", _coeff_file(tmp_path, 2, _balanced(10.0**k)), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["factorable"] is False
        assert np.abs(np.array(report["schmidt_values"]) - 1 / math.sqrt(2)).max() <= 1e-15

    @pytest.mark.parametrize("nfac", [2, 3])
    def test_exact_cancellation_exits_2(self, tmp_path, capsys, nfac):
        path = _coeff_file(tmp_path, nfac, _balanced() + _balanced(-1.0))
        assert self._build(tmp_path, path)[0] == 2
        assert "cancels: norm 0.0" in capsys.readouterr().err
        if nfac == 2:
            assert main(["factorable", path]) == 2

    @pytest.mark.parametrize("nfac", [2, 3])
    def test_overflow_exits_2_with_one_error_line(self, tmp_path, capsys, nfac):
        path = _coeff_file(tmp_path, nfac, [(1.5e308, 0), (1.5e308, 1)])
        commands = [["build", path, "--out", str(tmp_path / "op.json")]] + [["factorable", path]] * (nfac == 2)
        for argv in commands:
            capsys.readouterr()
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: expansion vector overflows: norm inf, sum of coefficient magnitudes inf\n"

    @pytest.mark.parametrize("nfac", [2, 3])
    @pytest.mark.parametrize("ratio, code", [(0.5, 2), (2.0, 0)])
    def test_either_side_of_the_bound(self, tmp_path, nfac, ratio, code):
        # c|0..0> + |1..1> - |1..1> has norm c and sum of magnitudes 2 + c, so
        # c = ratio * RTOL * (2 + c) puts it at ratio times the bound
        rtol = pd.tensor._TRI_CANCEL_RTOL
        c = 2.0 * ratio * rtol / (1.0 - ratio * rtol)
        path = _coeff_file(tmp_path, nfac, [(c, 0), (1.0, 1), (-1.0, 1)])
        assert self._build(tmp_path, path)[0] == code
        if nfac == 2:
            assert main(["factorable", path]) == code


# The writers that restated each record field by field; kept as the oracles
# for dumps_canonical writing the records and complex numbers as they are.
def _reference_complex(z):
    return {"re": float(z.real), "im": float(z.imag)}


def _reference_match_payload(result):
    return {
        "n": result.n,
        "permutation": list(result.permutation),
        "per_term": [
            {
                "overlap_a": _reference_complex(c.overlap_a),
                "overlap_b": _reference_complex(c.overlap_b),
                "overlap_c": None if c.overlap_c is None else _reference_complex(c.overlap_c),
                "weight_first": c.weight_first,
                "weight_second": c.weight_second,
            }
            for c in result.per_term
        ],
        "residual": result.residual,
    }


def _reference_demo_payload(report):
    return {
        "eigenvalues": list(report.eigenvalues),
        "qform_residual": report.qform_residual,
        "q1_schmidt": list(report.q1_schmidt),
        "q2_schmidt": list(report.q2_schmidt),
        "q1_factorable": report.q1_factorable,
        "q2_factorable": report.q2_factorable,
        "tri_qform_residual": report.tri_qform_residual,
        "notes": list(report.notes),
    }


def _reference_decomposition_payload(obj):
    if isinstance(obj, pd.ProductDecomposition):
        terms = [{"w": t.weight, "kets": [_ket_json(t.a), _ket_json(t.b)]} for t in obj.terms]
    else:
        terms = [{"coeff": _reference_complex(t.coeff), "kets": [_ket_json(k) for k in t.kets]} for t in obj.terms]
    return {"format_version": "1", "kind": "decomposition", "dims": list(obj.dims.dims), "terms": terms}


class TestJsonRecords:
    @pytest.mark.parametrize(
        "profile, dims", [(p, "5,4") for p in pd.BI_PROFILES] + [(p, "4,5,4") for p in pd.TRI_PROFILES]
    )
    @pytest.mark.parametrize("seed", [1, 2])
    def test_match_json_is_the_reference_payload(self, tmp_path, capsys, profile, dims, seed):
        first, second = str(tmp_path / "first.json"), str(tmp_path / "second.json")
        base = ["--n", "3", "--dims", dims, "--profile", profile, "--seed", str(seed)]
        assert main(["generate", *base, "--out", first]) == 0
        assert main(["generate", "--twin-of", first, "--seed", str(seed + 10), "--out", second]) == 0
        mode = "bi" if dims.count(",") == 1 else "tri"
        capsys.readouterr()
        assert main(["match", first, second, "--mode", mode, "--json"]) == 0
        out = capsys.readouterr().out
        d1, d2 = fileio.load_decomposition(first), fileio.load_decomposition(second)
        if mode == "bi":  # the default --tol 1e-8 is the default ToleranceConfig
            result = pd.match_bidecomposition(d1.product(), d2.product())
        else:
            result = pd.match_tridecomposition(d1.tri(), d2.tri())
        assert out == fileio.dumps_canonical(_reference_match_payload(result)) + "\n"

    def test_demo_json_is_the_reference_payload(self, capsys):
        assert main(["demo", "--json"]) == 0
        expected = fileio.dumps_canonical(_reference_demo_payload(pd.demo_degeneracy())) + "\n"
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("profile", pd.TRI_PROFILES)
    def test_complex_coefficient_files_are_the_reference_bytes(self, tmp_path, profile):
        for seed in range(3):
            tri = pd.generate_tri_instance(4, 4, 5, 4, seed=seed, profile=profile)
            twin, _ = pd.phase_permuted_twin(tri, seed=seed + 1)  # coefficients with phases
            purified = pd.purify(pd.generate_instance(3, 4, 4, seed=seed), 3)
            for dec in (tri, twin, purified):
                path = tmp_path / "d.json"
                fileio.save_decomposition(str(path), dec)
                expected = fileio.dumps_canonical(_reference_decomposition_payload(dec)) + "\n"
                assert path.read_text() == expected

    def test_weight_files_are_the_reference_bytes(self, tmp_path):
        for profile in pd.BI_PROFILES:
            dec = pd.generate_instance(4, 5, 5, seed=3, profile=profile)
            path = tmp_path / "d.json"
            fileio.save_decomposition(str(path), dec)
            assert path.read_text() == fileio.dumps_canonical(_reference_decomposition_payload(dec)) + "\n"

    def test_factorable_factors_are_the_reference_kets(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        a = pd.Ket.normalize(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        b = pd.Ket.normalize(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        path = _write_payload(
            tmp_path / "prod.json",
            {
                "format_version": "1",
                "kind": "decomposition",
                "dims": [3, 2],
                "terms": [{"coeff": {"re": 0.5, "im": -0.25}, "kets": [_ket_json(a), _ket_json(b)]}],
            },
        )
        assert main(["factorable", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        loaded = fileio.load_decomposition(path)
        vec, norm = loaded.vector()
        _, factors = pd.is_factorable(pd.Ket(vec / norm), loaded.dims, pd.ToleranceConfig())
        assert report["factors"] == [_ket_json(f) for f in factors]

    def test_complex_numbers_are_written_as_re_im_objects(self):
        z = complex(-0.0, 1e-300)
        assert fileio.dumps_canonical([z]) == fileio.dumps_canonical([_reference_complex(z)])
        assert fileio.dumps_canonical(np.complex128(z)) == fileio.dumps_canonical(_reference_complex(z))


class TestCoefficientBuild:
    @pytest.mark.parametrize("nfac", [2, 3])
    def test_projector_is_factored_and_skips_dense_validation(self, tmp_path, monkeypatch, nfac):
        def forbidden(*args, **kwargs):
            raise AssertionError("validated an N x N matrix")

        tri = pd.generate_tri_instance(3, 4, 3, 4, seed=2)
        path = str(tmp_path / "t.json")
        if nfac == 3:
            fileio.save_decomposition(path, tri)
        else:  # the same vector as a 2-factor file, pairing the first two slots
            path = _write_payload(
                tmp_path / "pair.json",
                {
                    "format_version": "1",
                    "kind": "decomposition",
                    "dims": [12, 4],
                    "terms": [
                        {
                            "coeff": {"re": t.coeff.real, "im": t.coeff.imag},
                            "kets": [_ket_json(pd.tensor_product(t.a, t.b)), _ket_json(t.c)],
                        }
                        for t in tri.terms
                    ],
                },
            )
        ket, _ = pd.build_tri_vector(tri)
        monkeypatch.setattr(pd.tensor, "_checked_matrix", forbidden)
        out = str(tmp_path / "op.json")
        assert main(["build", path, "--out", out]) == 0
        monkeypatch.undo()
        m = fileio.load_operator(out).matrix
        assert np.abs(m - np.outer(ket.amplitudes, ket.amplitudes.conj())).max() <= 1e-15
