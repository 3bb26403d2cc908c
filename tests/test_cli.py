"""Command-line interface: exit codes, round trips, deterministic output."""

import dataclasses
import io
import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import proddecomp as pd
from proddecomp import cli, fileio
from proddecomp.cli import build_parser, main


def _ket_json(k):
    return {"re": [float(v) for v in k.amplitudes.real], "im": [float(v) for v in k.amplitudes.imag]}


def _write_payload(path, payload):
    path.write_text(fileio.dumps_canonical(payload) + "\n")
    return str(path)


def _decomposition_text(dims, terms):
    return json.dumps({"format_version": "1", "kind": "decomposition", "dims": dims, "terms": terms})


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
        # a wrong count and a non-integer: argparse refuses both and prints its usage
        for dims in ("2", "2,x"):
            assert main(["generate", "--dims", dims, "--out", str(tmp_path / "x.json")]) == 2


def _basis_kets(*dims):
    return [_ket_json(pd.Ket.basis(d, 0)) for d in dims]


#: Input files of TestOneRefusalChannel's table, by placeholder name, as JSON text.
_REFUSAL_FILES = {
    "pair": _decomposition_text([4, 2], [{"coeff": 1.0, "kets": _basis_kets(4, 2)}]),
    "tri": _decomposition_text([2, 2, 3], [{"coeff": 1.0, "kets": _basis_kets(2, 2, 3)}]),
    "w3": _decomposition_text([2, 2, 2], [{"w": 1.0, "kets": _basis_kets(2, 2, 2)}]),
    "reim": _decomposition_text([1, 1], [{"coeff": {"re": "1", "im": 0}, "kets": _basis_kets(1, 1)}]),
    "huge": _decomposition_text([2048, 1024], []),
    "array": "[]",
}


class TestOneRefusalChannel:
    """Every refusal of a size, a profile, a seed or a file is a ProddecompError
    in the library, and one ``error:`` line with exit 2 at the command line."""

    @pytest.mark.parametrize(
        "command, message",
        [
            (["generate", "--n", "0", "--dims", "2,2", "--out", "{out}"], "term count must be positive, got 0"),
            (
                ["generate", "--n", "3", "--dims", "2,2", "--out", "{out}"],
                "infeasible: 3 independent kets do not fit a-slot dim 2",
            ),
            (
                ["generate", "--n", "2", "--dims", "4,4", "--profile", "c-dependent", "--out", "{out}"],
                "unknown profile 'c-dependent'; choose from "
                "('both-independent', 'a-independent-only', 'b-independent-only')",
            ),
            (
                ["generate", "--n", "2", "--dims", "2,2", "--seed", "-1", "--out", "{out}"],
                "seed must be a non-negative integer, got -1",
            ),
            (
                ["generate", "--twin-of", "{dec}", "--seed", "-1", "--out", "{out}"],
                "seed must be a non-negative integer, got -1",
            ),
            (["extract", "{op}", "--seed", "-1", "--out", "{out}"], "seed must be a non-negative integer, got -1"),
            (["match", "{pair}", "{pair}", "--mode", "tri"], "{pair}, {pair}: tri mode needs at least one 3-factor file"),
            (
                ["match", "{pair}", "{tri}", "--mode", "tri"],
                "{pair}: cannot recast dims (4, 2) against (2, 2, 3): factor sizes disagree",
            ),
            (
                ["match", "{w3}", "{w3}", "--mode", "tri"],
                "{w3}: expected coefficient-form terms ('coeff'), file carries weights",
            ),
            (["check", "{reim}"], "{reim}: term 0 coeff re/im must be numbers"),
            (["check", "{huge}"], "{huge}: ambient dimension 2097152 exceeds cap 1048576"),
            (["check", "{array}"], "{array}: top-level value must be an object"),
        ],
    )
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, command, message):
        paths = {"dec": str(tmp_path / "dec.json"), "op": str(tmp_path / "op.json"), "out": str(tmp_path / "x.json")}
        assert main(["generate", "--n", "2", "--dims", "3,3", "--out", paths["dec"]]) == 0
        assert main(["build", paths["dec"], "--out", paths["op"]]) == 0
        for name, text in _REFUSAL_FILES.items():
            paths[name] = str(tmp_path / f"{name}.json")
            Path(paths[name]).write_text(text)
        capsys.readouterr()
        assert main([part.format(**paths) for part in command]) == 2
        assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b'{"format_version": "1", "kind": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
            (b'{"format_version": "1", "n": ' + b"7" * 5000 + b"}", "Exceeds the limit"),
        ],
        ids=["byte-0xff", "5000-digit-integer"],
    )
    @pytest.mark.parametrize("subcommand", ["check", "build"])
    def test_an_unreadable_file_exits_2_with_one_error_line(self, tmp_path, capsys, subcommand, content, reason):
        # json.load raises a ValueError that is not a JSONDecodeError for both
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        extra = ["--out", str(tmp_path / "x.json")] if subcommand == "build" else []
        assert main([subcommand, str(path)] + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: cannot parse JSON (") and reason in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: pd.FactoredDims((2.5, 2)), pd.DimensionMismatch),
            (lambda: pd.FactoredDims((True, 2)), pd.DimensionMismatch),
            (lambda: pd.FactoredDims(("a",)), pd.DimensionMismatch),
            (lambda: pd.generate_instance(2, 2.5, 2), pd.DimensionMismatch),
            (lambda: pd.generate_tri_instance(2, 2, 2, 2.5), pd.DimensionMismatch),
            (lambda: pd.generate_instance(2.5, 3, 3), pd.DimensionMismatch),
            (lambda: pd.generate_tri_instance(True, 3, 3, 3), pd.DimensionMismatch),
            (lambda: pd.purify(pd.generate_instance(2, 2, 2), 2.5), pd.DimensionMismatch),
            (lambda: pd.Ket([10**400, 0]), pd.DegenerateInput),
            (lambda: pd.Ket(["a", "b"]), pd.DegenerateInput),
            (lambda: pd.Ket.normalize(["a", "b"]), pd.DegenerateInput),
            (lambda: pd.StateOperator(pd.FactoredDims((1,)), [[10**400]]), pd.DegenerateInput),
            (lambda: pd.StateOperator.from_columns(pd.FactoredDims((1,)), [[10**400]], [1.0]), pd.DegenerateInput),
            (lambda: pd.ToleranceConfig("x"), pd.DegenerateInput),
            (lambda: pd.ToleranceConfig("1e-8"), pd.DegenerateInput),
            (lambda: pd.ToleranceConfig(None), pd.DegenerateInput),
            (lambda: pd.FactoredDims((0, 2)), pd.DimensionMismatch),
            (lambda: pd.Ket([]), pd.DimensionMismatch),
            (lambda: pd.Ket(np.ones(pd.tensor.MAX_VECTOR_DIM + 1)), pd.DimensionMismatch),
            (lambda: pd.Ket.basis(2, 2), pd.DimensionMismatch),
            (lambda: pd.Ket.basis(2, 0).phased(2.0), pd.DegenerateInput),
            (lambda: pd.tensor.column_stack([]), pd.DegenerateInput),
            (lambda: pd.bipartite_matrix(pd.Ket.basis(4, 0), pd.FactoredDims((2, 3))), pd.DimensionMismatch),
            (lambda: pd.SubspaceBasis(3, (pd.Ket.basis(2, 0),)), pd.DimensionMismatch),
            (lambda: pd.is_noncollinear_set([]), pd.DegenerateInput),
            (lambda: pd.split_pair_terms([1.0], [], [], pd.FactoredDims((2, 2))), pd.DimensionMismatch),
            (
                lambda: pd.relating_unitary(pd.Ket.basis(8, 0), pd.Ket.basis(8, 0), pd.FactoredDims((2, 2, 2))),
                pd.DimensionMismatch,
            ),
            (
                lambda: pd.apply_on_factor(pd.UnitaryMatrix(np.eye(2)), pd.Ket.basis(4, 0), pd.FactoredDims((2, 2)), 2),
                pd.DimensionMismatch,
            ),
            (
                lambda: pd.apply_on_factor(pd.UnitaryMatrix(np.eye(2)), pd.Ket.basis(6, 0), pd.FactoredDims((2, 2)), 0),
                pd.DimensionMismatch,
            ),
        ],
        ids=[
            "dims-2.5",
            "dims-bool",
            "dims-str",
            "generate-2.5",
            "generate-tri-2.5",
            "generate-n-2.5",
            "generate-tri-n-bool",
            "purify-2.5",
            "ket-10**400",
            "ket-str",
            "normalize-str",
            "dense-10**400",
            "columns-10**400",
            "tol-x",
            "tol-str",
            "tol-None",
            "dims-0",
            "ket-empty",
            "ket-past-cap",
            "basis-index",
            "phase-2",
            "stack-empty",
            "bipartite-split",
            "basis-dim",
            "noncollinear-empty",
            "split-lengths",
            "relating-3-factors",
            "apply-factor-2",
            "apply-split",
        ],
    )
    def test_a_wrong_value_at_a_library_door_is_a_named_error(self, call, error):
        # a non-integral or boolean size, a value complex() cannot read, a tolerance that is no
        # number, a size or index out of range, an empty set, and dims that do not fit together
        with pytest.raises(error):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: pd.generate_tri_instance(2, 2, 2, 2, seed=-1),
            lambda: pd.phase_permuted_twin(pd.generate_instance(2, 2, 2), seed=-1),
            lambda: pd.extract_decomposition(pd.build_rho(pd.generate_instance(2, 2, 2)), seed=-1),
            lambda: pd.extract_decomposition(pd.build_rho(pd.generate_instance(2, 2, 2)), seed=0.5),
        ],
    )
    def test_a_seed_numpy_refuses_is_degenerate_input(self, call):
        # the generators' size and profile refusals are TestOracle's reference cases
        with pytest.raises(pd.DegenerateInput, match="^seed must be a non-negative integer, got "):
            call()


    @pytest.mark.parametrize(
        "call",
        [
            lambda: pd.StateOperator((2,), np.eye(2)),
            lambda: pd.StateOperator.from_columns([2], np.eye(2), [1.0, 1.0]),
            lambda: pd.ProductDecomposition((2, 2), pd.generate_instance(2, 2, 2).terms),
            lambda: pd.TriDecomposition((2, 2, 2), pd.generate_tri_instance(2, 2, 2, 2).terms),
            lambda: pd.is_factorable(pd.Ket.basis(4, 0), (2, 2)),
            lambda: pd.schmidt_values(pd.Ket.basis(4, 0), [2, 2]),
            lambda: pd.split_pair_terms([1.0], [pd.Ket.basis(4, 0)], [pd.Ket.basis(2, 0)], (2, 2)),
            lambda: pd.bipartite_matrix(pd.Ket.basis(4, 0), (2, 2)),
            lambda: pd.relating_unitary(pd.Ket.basis(4, 0), pd.Ket.basis(4, 0), (2, 2)),
            lambda: pd.apply_on_factor(pd.UnitaryMatrix(np.eye(2)), pd.Ket.basis(4, 0), 4, 0),
            lambda: pd.extract_decomposition(pd.rho_matrix(pd.generate_instance(2, 2, 2))),
            lambda: pd.partial_trace(pd.generate_instance(2, 2, 2), [0]),
            lambda: pd.support_and_null(np.eye(4), 0),
            lambda: pd.build_rho(None),
            lambda: pd.SubspaceBasis("2", (pd.Ket.basis(2, 0),)),
        ],
        ids=[
            "operator-dims-tuple",
            "columns-dims-list",
            "product-dims-tuple",
            "tri-dims-tuple",
            "factorable-split-tuple",
            "schmidt-split-list",
            "split-pairs-split-tuple",
            "bipartite-split-tuple",
            "relating-split-tuple",
            "apply-split-int",
            "extract-array",
            "partial-trace-decomposition",
            "support-array",
            "build-rho-None",
            "basis-dim-str",
        ],
    )
    def test_an_argument_of_the_wrong_type_is_dimension_mismatch(self, call):
        # dims or a split that is no FactoredDims, an operator that is no StateOperator, a
        # decomposition that is none, and an ambient dimension that is no integer: refused
        # by type before any attribute is read, with nothing coerced
        with pytest.raises(pd.DimensionMismatch, match="^(expected |ambient dimension must be an integer)"):
            call()

    @pytest.mark.parametrize("seed", [True, False, np.True_])
    @pytest.mark.parametrize(
        "call",
        [
            lambda seed: pd.generate_instance(2, 2, 2, seed=seed),
            lambda seed: pd.generate_tri_instance(2, 2, 2, 2, seed=seed),
            lambda seed: pd.phase_permuted_twin(pd.generate_instance(2, 2, 2), seed=seed),
            lambda seed: pd.extract_decomposition(pd.build_rho(pd.generate_instance(2, 2, 2)), seed=seed),
        ],
        ids=["generate", "generate-tri", "twin", "extract"],
    )
    def test_a_bool_seed_is_degenerate_input(self, call, seed):
        # the rule of every other integer input: a Python bool is not read as 0 or 1
        with pytest.raises(pd.DegenerateInput, match="^seed must be a non-negative integer, got "):
            call(seed)

    @pytest.mark.parametrize(
        "seed",
        [None, np.random.default_rng(1), np.random.SeedSequence(1), [1, 2]],
        ids=["None", "generator", "seed-sequence", "list"],
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda seed: pd.generate_instance(2, 2, 2, seed=seed),
            lambda seed: pd.generate_tri_instance(2, 2, 2, 2, seed=seed),
            lambda seed: pd.phase_permuted_twin(pd.generate_instance(2, 2, 2), seed=seed),
            lambda seed: pd.extract_decomposition(pd.build_rho(pd.generate_instance(2, 2, 2)), seed=seed),
        ],
        ids=["generate", "generate-tri", "twin", "extract"],
    )
    def test_a_seed_that_is_no_integer_is_degenerate_input(self, call, seed):
        # numpy would take each of them, and None or a generator gives another instance on
        # every call, so "deterministic under seed" would not hold
        with pytest.raises(pd.DegenerateInput, match="^seed must be a non-negative integer, got "):
            call(seed)

    def test_a_numpy_integer_seed_reads_as_the_python_integer(self):
        first, second = (pd.generate_tri_instance(3, 3, 3, 3, seed=s) for s in (7, np.uint16(7)))
        assert all(np.array_equal(a, b) for a, b in zip((*first.stacks, first.values), (*second.stacks, second.values)))


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

    @pytest.mark.parametrize("k", [-300, -200, -12, -9, 0, 100, 300])
    def test_a_shifted_weight_exits_5_at_every_scale(self, tmp_path, k):
        # equality is relative: all weights times 10^k, then term 0's times 1.5
        dec = pd.generate_instance(3, 4, 4, seed=5)
        twin, _ = pd.phase_permuted_twin(dec, seed=6)
        paths = []
        for name, d, first in (("dec", dec, 1.0), ("twin", twin, 1.0), ("shifted", twin, 1.5)):
            values = d.values * 10.0**k
            values[0] *= first
            paths.append(str(tmp_path / f"{name}.json"))
            fileio.save_decomposition(paths[-1], pd.ProductDecomposition._from_stacks(d.dims, d.stacks, values))
        assert main(["match", paths[0], paths[1], "--mode", "bi"]) == 0
        assert main(["match", paths[0], paths[2], "--mode", "bi"]) == 5

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

    @pytest.mark.parametrize("mode", ["bi", "tri"])
    def test_a_file_of_the_wrong_kind_is_named(self, tmp_path, capsys, mode):
        pair, tri = str(tmp_path / "pair.json"), str(tmp_path / "tri.json")
        main(["generate", "--n", "2", "--dims", "2,2", "--out", pair])
        main(["generate", "--n", "2", "--dims", "2,2,2", "--out", tri])
        capsys.readouterr()
        assert main(["match", pair, tri, "--mode", mode]) == 2
        assert capsys.readouterr().err.startswith(f"error: {tri if mode == 'bi' else pair}: ")
        assert main(["factorable", tri]) == 2
        assert capsys.readouterr().err.startswith(f"error: {tri}: ")


class TestOverflowingLiterals:
    """A weight or coefficient literal beyond the float range is an input
    error naming the file: exit 2 and one ``error:`` line."""

    @pytest.mark.parametrize("value", ['"w": 1e400', '"coeff": 1e400', '"coeff": {"re": 0, "im": 1e400}'])
    def test_build_exits_2_naming_the_file(self, tmp_path, capsys, value):
        k = _ket_json(pd.Ket.basis(2, 0))
        term = {"w": 1.0, "kets": [k, k]}
        payload = {"format_version": "1", "kind": "decomposition", "dims": [2, 2], "terms": [term]}
        path = tmp_path / "dec.json"
        path.write_text(json.dumps(payload).replace('"w": 1.0', value))
        assert main(["build", str(path), "--out", str(tmp_path / "op.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: term 0 ") and "must be finite" in captured.err
        assert captured.err.count("\n") == 1


    def test_integer_ket_literal_beyond_the_float_range_exits_2(self, tmp_path, capsys):
        k = _ket_json(pd.Ket.basis(2, 0))
        term = {"w": 1.0, "kets": [k, k]}
        payload = {"format_version": "1", "kind": "decomposition", "dims": [2, 2], "terms": [term]}
        path = tmp_path / "dec.json"
        path.write_text(json.dumps(payload).replace('"re": [1.0, 0.0]', '"re": [1' + "0" * 400 + ", 0.0]", 1))
        assert main(["build", str(path), "--out", str(tmp_path / "op.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {path}: term 0 factor 0 re/im must be finite")

    @pytest.mark.parametrize("command", ["check", "extract"])
    def test_integer_matrix_literal_beyond_the_float_range_exits_2(self, tmp_path, capsys, command):
        payload = {
            "format_version": "1",
            "kind": "operator",
            "dims": [2, 1],
            "matrix": {"re": [1, 0, 0, 0], "im": [0] * 4},
        }
        path = tmp_path / "op.json"
        path.write_text(json.dumps(payload).replace("[1, 0, 0, 0]", "[1" + "0" * 400 + ", 0, 0, 0]"))
        argv = [command, str(path)] + (["--out", str(tmp_path / "dec.json")] if command == "extract" else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {path}: matrix re/im must be finite")


def _decomposition_file(path, terms):
    return _write_payload(path, {"format_version": "1", "kind": "decomposition", "dims": [2, 2], "terms": terms})


class TestTopOfTheFloatRange:
    """Files at the top of the float range end in an answer or in one
    ``error:`` line, with no numpy warning on stderr."""

    def test_a_weight_file_at_the_top_of_the_range_builds_and_checks(self, tmp_path, capsys):
        # its matrix is diag(1e308, 0, 0, 5e307), and m + m^H overflows
        e = [_ket_json(pd.Ket.basis(2, i)) for i in (0, 1)]
        path = _decomposition_file(
            tmp_path / "top.json", [{"w": 1e308, "kets": [e[0], e[0]]}, {"w": 5e307, "kets": [e[1], e[1]]}]
        )
        op = str(tmp_path / "top-op.json")
        assert main(["build", path, "--out", op]) == 0
        assert main(["check", op]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["check", "extract"])
    def test_a_non_psd_operator_at_the_top_of_the_range_exits_2(self, tmp_path, capsys, command):
        m = np.diag([1.5e308, -1e300, 1.0, 1.0])
        matrix = {"re": m.ravel().tolist(), "im": [0.0] * 16}
        payload = {"format_version": "1", "kind": "operator", "dims": [2, 2], "matrix": matrix}
        path = _write_payload(tmp_path / "nonpsd.json", payload)
        argv = [command, path] + (["--out", str(tmp_path / "dec.json")] if command == "extract" else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {path}: matrix is not positive semidefinite: min eigenvalue -1e+300 ")

    def test_a_huge_ket_entry_is_named_by_its_true_norm(self, tmp_path, capsys):
        ket = {"re": [1e200, 0.0], "im": [0.0, 0.0]}
        path = _decomposition_file(tmp_path / "bigket.json", [{"w": 1.0, "kets": [ket, _ket_json(pd.Ket.basis(2, 0))]}])
        assert main(["build", path, "--out", str(tmp_path / "op.json")]) == 2
        assert capsys.readouterr().err == f"error: {path}: term 0 factor 0 ket has norm 1e+200, not 1\n"


    def test_weights_summing_past_the_float_maximum(self, tmp_path, capsys):
        # 1.5e308 + 1.2e308 overflows: a copy with the first weight halved certified, and
        # build --normalize refused weight 0 as 0.0, each after a numpy overflow warning
        e = [_ket_json(pd.Ket.basis(2, i)) for i in (0, 1)]

        def weights(name, first):
            terms = [{"w": first, "kets": [e[0], e[0]]}, {"w": 1.2e308, "kets": [e[1], e[1]]}]
            return _decomposition_file(tmp_path / name, terms)

        a, half, twin = weights("a.json", 1.5e308), weights("half.json", 0.75e308), str(tmp_path / "twin.json")
        assert main(["match", a, half, "--mode", "bi"]) == 5
        assert capsys.readouterr().err == "error: operators differ by 7.500e+307 in Frobenius norm\n"
        assert main(["generate", "--twin-of", a, "--seed", "3", "--out", twin]) == 0
        assert main(["match", a, twin, "--mode", "bi"]) == 0
        assert main(["build", a, "--normalize", "--out", str(tmp_path / "op.json")]) == 0
        assert capsys.readouterr().err == ""

    def test_weights_summing_past_the_float_maximum_do_not_build_as_they_stand(self, tmp_path, capsys):
        # the contract: such a file matches and builds with --normalize, but its
        # operator's trace is past the float maximum, so it does not build as it is;
        # the refusal names the file, as every refusal of a file does
        e = [_ket_json(pd.Ket.basis(2, i)) for i in (0, 1)]
        terms = [{"w": 1.5e308, "kets": [e[0], e[0]]}, {"w": 1.2e308, "kets": [e[1], e[1]]}]
        path, out = _decomposition_file(tmp_path / "a.json", terms), tmp_path / "op.json"
        assert main(["build", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}: operator trace overflows (inf)\n"
        assert not out.exists()

    def test_a_finite_operator_whose_norm_overflows_is_not_called_non_finite(self, tmp_path, capsys):
        m = np.diag([1.5e308, 1.5e308, 0.0, 0.0])
        payload = {"format_version": "1", "kind": "operator", "dims": [2, 2]}
        path = _write_payload(tmp_path / "wide.json", {**payload, "matrix": {"re": m.ravel().tolist(), "im": [0.0] * 16}})
        assert main(["check", path]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: matrix entries are finite but the Frobenius norm overflows (largest |entry| 1.5e+308)\n"
        )

    def test_a_dense_operator_near_the_float_maximum_extracts(self, tmp_path, capsys):
        dec = pd.generate_instance(3, 3, 3, seed=4)
        m = pd.rho_matrix(dec)
        path = str(tmp_path / "top-op.json")
        fileio.save_operator(path, pd.StateOperator(dec.dims, m / float(np.abs(m).max()) * 5e307))
        assert main(["extract", path, "--out", str(tmp_path / "top-dec.json")]) == 0
        assert capsys.readouterr().err == ""


class TestBottomOfTheFloatRange:
    def test_an_operator_outside_the_psd_band_in_subnormals_is_refused(self, tmp_path, capsys):
        # 10^-313 times a valid operator: stored as subnormals, lambda_min/lambda_max reads -1.2e-10
        dec = pd.generate_instance(3, 3, 3, seed=4)
        flat = (pd.rho_matrix(dec) * 1e-313).reshape(-1)
        payload = {"format_version": "1", "kind": "operator", "dims": [3, 3]}
        path = _write_payload(tmp_path / "low.json", {**payload, "matrix": {"re": flat.real.tolist(), "im": flat.imag.tolist()}})
        assert main(["check", path]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {path}: matrix is not positive semidefinite: ")
        assert err.endswith("lambda_min/lambda_max = -1.208e-10\n")


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises ``BrokenPipeError``."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._fd


class TestClosedStdout:
    """A reader that closes stdout early (``| head -1``) leaves the command's own
    exit code and an empty stderr: the result and its ``--out`` file exist."""

    @pytest.fixture
    def operator_file(self, tmp_path):
        path = str(tmp_path / "r.json")
        fileio.save_operator(path, pd.build_rho(pd.generate_instance(3, 4, 4, seed=1)))
        return path

    def test_in_process(self, tmp_path, monkeypatch, capsys, operator_file):
        out = tmp_path / "e.json"
        with open(tmp_path / "stdout.txt", "w") as target:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(target.fileno()))
            assert main(["extract", operator_file, "--out", str(out), "--json"]) == 0
        assert capsys.readouterr().err == ""
        assert fileio.load_decomposition(str(out)).n == 3

    def test_a_child_whose_stdout_pipe_is_closed_before_it_writes(self, tmp_path, operator_file):
        src = str(Path(pd.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / "e.json"
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "proddecomp", "extract", operator_file, "--out", str(out), "--json"],
                stdout=write,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (0, "")
        assert fileio.load_decomposition(str(out)).n == 3


class TestCheckParsesOnce:
    """``check`` reads its file with one ``json.load``, whatever its kind."""

    def test_one_parse_per_kind(self, tmp_path, monkeypatch, capsys):
        dec = pd.generate_instance(3, 4, 3, seed=7)
        dec_path, op_path = str(tmp_path / "dec.json"), str(tmp_path / "op.json")
        fileio.save_decomposition(dec_path, dec)
        fileio.save_operator(op_path, pd.build_rho(dec))
        calls, load = [], json.load

        def counted(*args, **kwargs):
            calls.append(1)
            return load(*args, **kwargs)

        monkeypatch.setattr(json, "load", counted)
        for path in (op_path, dec_path):
            calls.clear()
            assert main(["check", path]) == 0
            assert len(calls) == 1, path
        assert "file ok" in capsys.readouterr().out


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
        q1 = pd.Ket(loaded.stacks[0][:, 0])
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


class TestEntryPoints:
    """``python -m proddecomp`` and the console script, run in this process: each exits with main's code."""

    def test_module_main_exits_with_mains_code(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["proddecomp", "demo"])
        with pytest.raises(SystemExit) as info:
            runpy.run_module("proddecomp", run_name="__main__")
        assert info.value.code == 0
        assert "q1 factorable: no" in capsys.readouterr().out

    def test_console_script_exits_with_mains_code(self, monkeypatch, capsys, tmp_path):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "argv", ["proddecomp", "check", "missing.json"])
        with pytest.raises(SystemExit) as info:
            cli.entry()
        assert info.value.code == 2
        assert capsys.readouterr().err == "error: no such file: missing.json\n"


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

    @pytest.mark.parametrize(
        "payload",
        [
            {
                "kind": "decomposition",
                "dims": [True, 2],
                "terms": [{"w": 1.0, "kets": [_ket_json(pd.Ket.basis(1, 0)), _ket_json(pd.Ket.basis(2, 0))]}],
            },
            {"kind": "operator", "dims": [True], "matrix": {"re": [1.0], "im": [0.0]}},
        ],
        ids=["decomposition", "operator"],
    )
    def test_a_boolean_dim_exits_2(self, tmp_path, capsys, payload):
        # a JSON true is a Python int, which once read as dim 1
        path = _write_payload(tmp_path / "bool.json", {"format_version": "1", **payload})
        assert main(["check", path]) == 2
        dims = payload["dims"]
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: dims must be a list of {(2, 3) if len(dims) == 2 else (1, 2, 3)} "
            f"positive integers, got {dims!r}"
        ]


class TestParser:
    def test_built_once_and_keeps_no_state_between_calls(self):
        assert build_parser() is build_parser()
        first = build_parser().parse_args(["check", "f.json", "--json", "--tol", "1e-6"])
        second = build_parser().parse_args(["check", "f.json"])
        assert (first.json, first.tol) == (True, 1e-6)
        assert (second.json, second.tol) == (False, None)  # None: --tol not given, DEFAULT_TOL



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
    def test_a_cancelled_expansion_names_its_file(self, tmp_path, capsys, nfac):
        path = _coeff_file(tmp_path, nfac, _balanced() + _balanced(-1.0))
        commands = [["build", path, "--out", str(tmp_path / "op.json")]] + [["factorable", path]] * (nfac == 2)
        for argv in commands:
            capsys.readouterr()
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {path}: expansion vector cancels: norm 0.0 is at most ")
            assert captured.err.count("\n") == 1
        assert not (tmp_path / "op.json").exists()

    @pytest.mark.parametrize("nfac", [2, 3])
    def test_overflow_exits_2_with_one_error_line(self, tmp_path, capsys, nfac):
        path = _coeff_file(tmp_path, nfac, [(1.5e308, 0), (1.5e308, 1)])
        commands = [["build", path, "--out", str(tmp_path / "op.json")]] + [["factorable", path]] * (nfac == 2)
        for argv in commands:
            capsys.readouterr()
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            message = "expansion vector overflows: norm inf, sum of coefficient magnitudes inf"
            assert captured.err == f"error: {path}: {message}\n"

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

    @pytest.mark.parametrize("mode", ["bi", "tri"])
    def test_records_become_dicts_only_under_json(self, tmp_path, capsys, monkeypatch, mode):
        first, second = str(tmp_path / "first.json"), str(tmp_path / "second.json")
        dims = "4,5" if mode == "bi" else "4,5,4"
        assert main(["generate", "--n", "3", "--dims", dims, "--seed", "4", "--out", first]) == 0
        assert main(["generate", "--twin-of", first, "--seed", "5", "--out", second]) == 0
        calls, asdict = [], dataclasses.asdict
        monkeypatch.setattr(dataclasses, "asdict", lambda obj: calls.append(type(obj).__name__) or asdict(obj))
        capsys.readouterr()
        assert main(["match", first, second, "--mode", mode]) == 0
        assert main(["demo"]) == 0
        assert capsys.readouterr().out.startswith("match: n=3 ")
        assert calls == []
        assert main(["match", first, second, "--mode", mode, "--json"]) == 0
        assert main(["demo", "--json"]) == 0
        d1, d2 = fileio.load_decomposition(first), fileio.load_decomposition(second)
        if mode == "bi":
            result = pd.match_bidecomposition(d1.product(), d2.product())
        else:
            result = pd.match_tridecomposition(d1.tri(), d2.tri())
        expected = [_reference_match_payload(result), _reference_demo_payload(pd.demo_degeneracy())]
        assert capsys.readouterr().out == "".join(fileio.dumps_canonical(p) + "\n" for p in expected)
        assert calls == ["MatchResult", "DegeneracyReport"]


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
