"""File format round-trips and schema validation."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import proddecomp as pd
from proddecomp import fileio


def _ket_json(k):
    return {"re": [float(v) for v in k.amplitudes.real], "im": [float(v) for v in k.amplitudes.imag]}


def _reference_dumps(obj, indent=0):
    """The canonical writer as one recursive call and one format per number."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, dict):
        rows = [f"{inner}{json.dumps(str(k))}: {_reference_dumps(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}" if obj else "{}"
    if isinstance(obj, list):
        rows = [f"{inner}{_reference_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]" if obj else "[]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    return format(float(obj), ".17g")


def _reference_operator_text(op):
    flat = op.matrix.reshape(-1)
    payload = {
        "format_version": "1",
        "kind": "operator",
        "dims": list(op.dims.dims),
        "matrix": {"re": [float(v) for v in flat.real], "im": [float(v) for v in flat.imag]},
    }
    return _reference_dumps(payload) + "\n"


@pytest.fixture
def product_file(tmp_path):
    dec = pd.generate_instance(3, 4, 3, seed=7)
    path = tmp_path / "dec.json"
    fileio.save_decomposition(str(path), dec)
    return str(path), dec


class TestRoundTrips:
    def test_product_round_trip_is_exact(self, product_file):
        path, dec = product_file
        loaded = fileio.load_decomposition(path).product()
        assert loaded.dims == dec.dims
        for orig, back in zip(dec.terms, loaded.terms):
            assert back.weight == orig.weight
            assert np.array_equal(back.a.amplitudes, orig.a.amplitudes)
            assert np.array_equal(back.b.amplitudes, orig.b.amplitudes)

    def test_tri_round_trip_is_exact(self, tmp_path):
        tri = pd.generate_tri_instance(3, 3, 4, 3, seed=5)
        path = tmp_path / "tri.json"
        fileio.save_decomposition(str(path), tri)
        loaded = fileio.load_decomposition(str(path)).tri()
        for orig, back in zip(tri.terms, loaded.terms):
            assert back.coeff == orig.coeff
            for k_orig, k_back in zip(orig.kets, back.kets):
                assert np.array_equal(k_back.amplitudes, k_orig.amplitudes)

    def test_operator_round_trip_is_exact(self, tmp_path):
        rho = pd.build_rho(pd.generate_instance(2, 3, 3, seed=11))
        path = tmp_path / "op.json"
        fileio.save_operator(str(path), rho)
        loaded = fileio.load_operator(str(path))
        assert np.array_equal(loaded.matrix, rho.matrix)
        assert loaded.dims == rho.dims

    def test_save_load_save_is_byte_stable(self, product_file, tmp_path):
        path, _ = product_file
        first = open(path, "rb").read()
        reloaded = fileio.load_decomposition(path).product()
        second_path = tmp_path / "again.json"
        fileio.save_decomposition(str(second_path), reloaded)
        assert open(second_path, "rb").read() == first

    def test_operator_save_load_save_is_byte_stable(self, tmp_path):
        rho = pd.build_rho(pd.generate_instance(8, 16, 16, seed=3))  # N = 256
        first, second = tmp_path / "op.json", tmp_path / "again.json"
        fileio.save_operator(str(first), rho)
        fileio.save_operator(str(second), fileio.load_operator(str(first)))
        assert first.read_bytes() == second.read_bytes()

    def test_numbers_carry_full_precision(self, tmp_path):
        third = 1.0 / 3.0
        dec = pd.ProductDecomposition(
            pd.FactoredDims((2, 2)),
            (
                pd.ProductTerm(third, pd.Ket.basis(2, 0), pd.Ket.basis(2, 0)),
                pd.ProductTerm(1 - third, pd.Ket.basis(2, 1), pd.Ket.basis(2, 1)),
            ),
        )
        path = tmp_path / "p.json"
        fileio.save_decomposition(str(path), dec)
        assert "0.33333333333333331" in open(path).read()
        assert fileio.load_decomposition(str(path)).product().terms[0].weight == third

    @pytest.mark.parametrize("d", [3, 16])
    def test_operator_file_matches_the_per_number_writer(self, tmp_path, d):
        rho = pd.build_rho(pd.generate_instance(d // 2 + 1, d, d, seed=d))
        path = tmp_path / "op.json"
        fileio.save_operator(str(path), rho)
        assert path.read_text() == _reference_operator_text(rho)

    def test_special_values_match_the_per_number_writer(self, tmp_path):
        m = np.array([[1.0, -0.0 + 1e-300j], [-0.0 - 1e-300j, 5e-324]], dtype=complex)
        op = pd.StateOperator(pd.FactoredDims((2,)), m)
        path = tmp_path / "op.json"
        fileio.save_operator(str(path), op)
        text = path.read_text()
        assert text == _reference_operator_text(op)
        assert "-0," in text and "4.9406564584124654e-324" in text

    @pytest.mark.parametrize(
        "values",
        [
            [1e-5, 1e-4, 1e16, 1e17, 123456789012345678.0],  # where %g switches to exponents
            [2.0**53, 2.0**53 + 2],
            [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308],
            [1.0, -2.0, 3e10, 1 / 3],
            [0.1],
        ],
    )
    def test_float_lists_match_the_per_number_writer(self, values):
        assert fileio.dumps_canonical(values) == _reference_dumps(values)
        assert fileio.dumps_canonical({"x": {"a": values}}) == _reference_dumps({"x": {"a": values}})

    def test_random_bit_patterns_match_the_per_number_writer(self):
        bits = np.random.default_rng(20).integers(0, 2**64, size=100_000, dtype=np.uint64)
        values = bits.view(float)[np.isfinite(bits.view(float))].tolist()
        assert fileio.dumps_canonical(values) == _reference_dumps(values)

    def test_mixed_and_non_finite_lists(self):
        assert fileio.dumps_canonical([1, 2.5, [0.1]]) == _reference_dumps([1, 2.5, [0.1]])
        with pytest.raises(pd.FileError, match="cannot serialize number inf"):
            fileio.dumps_canonical([0.5, math.inf])

    def test_canonical_writer_output_parses_as_json(self):
        payload = {"a": [1, 2.5], "b": {"c": "x"}, "d": True, "e": None}
        assert json.loads(fileio.dumps_canonical(payload)) == payload


def _flipped(text):
    return text[1:] if text.startswith("-") else "-" + text


def _near_hermitian(n, seed):
    """A dense positive definite n x n operator whose strict-lower entries mirror their partners to the bit."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.eye(n) + 0.01 * (a + a.conj().T)


class TestHermitianMirror:
    """An operator's matrix is formatted once per Hermitian pair, with the bytes of the per-number writer."""

    @staticmethod
    def _spy(monkeypatch):
        """Count the numbers the writer formats."""
        formatted, texts = [], fileio._float_texts

        def counting(values):
            formatted.append(len(values))
            return texts(values)

        monkeypatch.setattr(fileio, "_float_texts", counting)
        return formatted

    def test_entries_that_do_not_mirror_get_their_own_text(self, tmp_path, monkeypatch):
        m = _near_hermitian(6, seed=4)
        m[2, 0] = complex(np.nextafter(m[2, 0].real, 2.0), m[2, 0].imag)  # one ulp off, real part
        m[3, 1] = complex(m[3, 1].real, np.nextafter(m[3, 1].imag, 2.0))  # one ulp off, imaginary part
        m[0, 4] = m[4, 0] = complex(0.25, 0.0)  # +0 twice in the imaginary part: "0" and "0"
        m[1, 5], m[5, 1] = complex(0.0, 0.125), complex(-0.0, -0.125)  # +0 against -0 in the real part
        m[3, 3] += 1e-13j  # a nonzero imaginary diagonal
        m[5, 2] = np.conj(m[2, 5]) * (1 + 1e-12)  # off in both parts
        op = pd.StateOperator(pd.FactoredDims((2, 3)), m)
        formatted = self._spy(monkeypatch)
        path = tmp_path / "op.json"
        fileio.save_operator(str(path), op)
        assert path.read_text() == _reference_operator_text(op)
        assert sum(formatted) == 6 * 7 + 6  # the upper triangles, and one number per part that does not mirror

    def test_an_exactly_hermitian_matrix_formats_each_pair_once(self, tmp_path, monkeypatch):
        op = pd.StateOperator(pd.FactoredDims((2, 4)), _near_hermitian(8, seed=5))
        formatted = self._spy(monkeypatch)
        path = tmp_path / "op.json"
        fileio.save_operator(str(path), op)
        assert path.read_text() == _reference_operator_text(op)
        assert sum(formatted) == 8 * 9

    @pytest.mark.parametrize("z", [2.0, 2.0 - 1e-12j])
    def test_a_one_by_one_operator(self, tmp_path, z):
        op = pd.StateOperator(pd.FactoredDims((1,)), np.array([[z]]))
        path = tmp_path / "op.json"
        fileio.save_operator(str(path), op)
        assert path.read_text() == _reference_operator_text(op)

    def test_negating_a_float_flips_the_sign_of_its_text(self):
        bits = np.random.default_rng(20).integers(0, 2**64, size=100_000, dtype=np.uint64)
        values = bits.view(float)[np.isfinite(bits.view(float))].tolist()
        assert [format(-v, ".17g") for v in values] == [_flipped(format(v, ".17g")) for v in values]
        assert _flipped(format(0.0, ".17g")) == format(-0.0, ".17g") == "-0"

    def test_saving_an_operator_holds_at_most_three_and_a_half_file_sizes(self, tmp_path):
        rho = pd.build_rho(pd.generate_instance(8, 16, 16, seed=3))  # N = 256
        rho.matrix  # assembled before tracing
        path = tmp_path / "op.json"
        tracemalloc.start()
        try:
            fileio.save_operator(str(path), rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * path.stat().st_size

    @pytest.mark.parametrize(
        "payload",
        [
            {"a": [0.5, math.inf]},
            {"a": 1.0, "b": math.nan},
            {"matrix": np.array([[1.0, 0.0], [0.0, np.inf]], dtype=complex)},
            {"matrix": np.array([[1.0, complex(0.0, np.nan)], [0.0, 1.0]])},
        ],
        ids=["list", "number", "matrix-re", "matrix-im"],
    )
    def test_a_non_finite_number_leaves_no_file(self, tmp_path, payload):
        path = tmp_path / "f.json"
        with pytest.raises(pd.FileError, match="cannot serialize number"):
            fileio._write(str(path), payload)
        assert not path.exists()

    @pytest.mark.parametrize(
        "array", [np.zeros((2, 3), dtype=complex), np.zeros((0, 0), dtype=complex), np.eye(2), np.ones(4, dtype=complex)]
    )
    def test_only_a_nonempty_square_complex_array_serializes(self, array):
        with pytest.raises(pd.FileError, match="only a square complex one"):
            fileio.dumps_canonical({"matrix": array})

    def test_an_integer_beyond_the_float_range_is_a_file_error(self):
        for obj in (10**400, [1.0, 10**400], {"w": -(10**400)}, 10**5000):
            with pytest.raises(pd.FileError, match="cannot serialize number beyond the float range"):
                fileio.dumps_canonical(obj)
        assert fileio.dumps_canonical([1.0, 10**300]) == _reference_dumps([1.0, 10**300])


class TestSignedZeros:
    """The writer's ``-0`` reloads as -0.0, so every file survives save -> load -> save byte for byte."""

    def test_special_values_operator_survives_save_load_save(self, tmp_path):
        m = np.array([[1.0, -0.0 + 1e-300j], [-0.0 - 1e-300j, 5e-324]], dtype=complex)
        first, second = tmp_path / "op.json", tmp_path / "again.json"
        fileio.save_operator(str(first), pd.StateOperator(pd.FactoredDims((2,)), m))
        loaded = fileio.load_operator(str(first))
        fileio.save_operator(str(second), loaded)
        assert second.read_bytes() == first.read_bytes()
        assert loaded.matrix.view(np.uint64).tolist() == m.view(np.uint64).tolist()

    def test_ket_with_each_signed_zero_pair_survives_save_load_save(self, tmp_path):
        zeros = [complex(-0.0, 0.0), complex(-0.0, -0.0), complex(0.0, -0.0), complex(0.0, 0.0)]
        a = pd.Ket(np.array([1.0, *zeros]))
        dec = pd.ProductDecomposition(pd.FactoredDims((5, 2)), (pd.ProductTerm(1.0, a, pd.Ket.basis(2, 0)),))
        first, second = tmp_path / "dec.json", tmp_path / "again.json"
        fileio.save_decomposition(str(first), dec)
        loaded = fileio.load_decomposition(str(first))
        fileio.save_decomposition(str(second), loaded.product())
        assert second.read_bytes() == first.read_bytes()
        assert loaded.stacks[0].view(np.uint64).tolist() == dec.stacks[0].view(np.uint64).tolist()

    def test_the_literal_minus_zero_loads_as_minus_zero(self, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(
            '{"format_version": "1", "kind": "operator", "dims": [2], "matrix": {"re": [2, -0, -0, 1], "im": [0, -0, 0, -0]}}'
        )
        m = fileio.load_operator(str(path)).matrix
        assert np.signbit(m.real).tolist() == [[False, True], [True, False]]
        assert np.signbit(m.imag).tolist() == [[False, True], [False, True]]


class TestSchemaValidation:
    def _write(self, tmp_path, payload):
        path = tmp_path / "f.json"
        path.write_text(fileio.dumps_canonical(payload) + "\n")
        return str(path)

    def _minimal(self):
        k = _ket_json(pd.Ket.basis(2, 0))
        return {
            "format_version": "1",
            "kind": "decomposition",
            "dims": [2, 2],
            "terms": [{"w": 1.0, "kets": [k, k]}],
        }

    def test_missing_file(self):
        with pytest.raises(pd.FileError, match="no such file"):
            fileio.load_decomposition("/nonexistent/file.json")

    def test_unwritable_path(self, product_file, tmp_path):
        path = str(tmp_path / "missing" / "dec.json")
        with pytest.raises(pd.FileError, match="cannot write") as info:
            fileio.save_decomposition(path, product_file[1])
        assert str(info.value).startswith(path)
        with pytest.raises(pd.FileError, match="cannot write"):
            fileio.save_operator(str(tmp_path), pd.build_rho(product_file[1]))  # a directory

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(pd.FileError, match="cannot parse"):
            fileio.load_decomposition(str(path))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal(self, tmp_path, literal):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(self._minimal()).replace("1.0", literal, 1))
        with pytest.raises(pd.FileError, match=f"non-finite number {literal}"):
            fileio.load_decomposition(str(path))

    @pytest.mark.parametrize(
        "value, what",
        [
            ('"w": 1e400', "weight"),
            ('"w": 1' + "0" * 400, "weight"),
            ('"coeff": 1e400', "coeff"),
            ('"coeff": -1e400', "coeff"),
            ('"coeff": {"re": 0.5, "im": -1e400}', "coeff re/im"),
            ('"coeff": {"re": 1e400, "im": 0}', "coeff re/im"),
        ],
    )
    def test_overflowing_literal_names_file_and_term(self, tmp_path, value, what):
        # json parses 1e400 as inf, so no non-finite constant is seen
        path = tmp_path / "f.json"
        path.write_text(json.dumps(self._minimal()).replace('"w": 1.0', value, 1))
        with pytest.raises(pd.FileError) as info:
            fileio.load_decomposition(str(path))
        assert str(info.value).startswith(f"{path}: term 0 {what} must be finite, got ")

    @pytest.mark.parametrize("literal", ["1" + "0" * 400, "-1" + "0" * 400, "1e400"], ids=["int", "-int", "1e400"])
    def test_ket_literal_beyond_the_float_range_names_file_and_place(self, tmp_path, literal):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(self._minimal()).replace('"re": [1.0, 0.0]', f'"re": [{literal}, 0.0]', 1))
        with pytest.raises(pd.FileError) as info:
            fileio.load_decomposition(str(path))
        assert str(info.value).startswith(f"{path}: term 0 factor 0 re/im must be finite")

    @pytest.mark.parametrize("literal", ["1" + "0" * 400, "-1" + "0" * 400, "1e400"], ids=["int", "-int", "1e400"])
    def test_matrix_literal_beyond_the_float_range_names_file(self, tmp_path, literal):
        path = tmp_path / "op.json"
        payload = {
            "format_version": "1",
            "kind": "operator",
            "dims": [2, 1],
            "matrix": {"re": [1, 0, 0, 0], "im": [0] * 4},
        }
        path.write_text(json.dumps(payload).replace("[1, 0, 0, 0]", f"[{literal}, 0, 0, 0]"))
        with pytest.raises(pd.FileError) as info:
            fileio.load_operator(str(path))
        assert str(info.value).startswith(f"{path}: matrix re/im must be finite")

    def test_wrong_format_version(self, tmp_path):
        payload = self._minimal()
        payload["format_version"] = "2"
        with pytest.raises(pd.FileError, match="format_version"):
            fileio.load_decomposition(self._write(tmp_path, payload))

    def test_wrong_kind(self, product_file):
        path, _ = product_file
        with pytest.raises(pd.FileError, match="expected kind 'operator'"):
            fileio.load_operator(path)

    def test_mixed_weight_and_coeff_terms(self, tmp_path):
        payload = self._minimal()
        k = _ket_json(pd.Ket.basis(2, 1))
        payload["terms"].append({"coeff": {"re": 1.0, "im": 0.0}, "kets": [k, k]})
        with pytest.raises(pd.FileError, match="mix"):
            fileio.load_decomposition(self._write(tmp_path, payload))

    def test_negative_weight(self, tmp_path):
        payload = self._minimal()
        payload["terms"][0]["w"] = -0.5
        with pytest.raises(pd.FileError, match="positive"):
            fileio.load_decomposition(self._write(tmp_path, payload))

    def test_zero_coefficient(self, tmp_path):
        payload = self._minimal()
        payload["terms"][0] = {"coeff": 0.0, "kets": payload["terms"][0]["kets"]}
        with pytest.raises(pd.FileError, match="nonzero"):
            fileio.load_decomposition(self._write(tmp_path, payload))

    def test_non_normalized_ket(self, tmp_path):
        payload = self._minimal()
        payload["terms"][0]["kets"][0] = {"re": [1.0, 1.0], "im": [0.0, 0.0]}
        with pytest.raises(pd.FileError, match="norm"):
            fileio.load_decomposition(self._write(tmp_path, payload))

    def test_wrong_ket_length(self, tmp_path):
        payload = self._minimal()
        payload["terms"][0]["kets"][0] = {"re": [1.0], "im": [0.0]}
        with pytest.raises(pd.FileError, match="length"):
            fileio.load_decomposition(self._write(tmp_path, payload))

    def test_both_value_keys(self, tmp_path):
        payload = self._minimal()
        payload["terms"][0]["coeff"] = 1.0
        with pytest.raises(pd.FileError, match="exactly one"):
            fileio.load_decomposition(self._write(tmp_path, payload))

    def test_non_hermitian_operator_file(self, tmp_path):
        payload = {
            "format_version": "1",
            "kind": "operator",
            "dims": [2, 1],
            "matrix": {"re": [0.0, 1.0, 0.0, 0.0], "im": [0.0] * 4},
        }
        with pytest.raises(pd.FileError, match="Hermitian"):
            fileio.load_operator(self._write(tmp_path, payload))

    @pytest.mark.parametrize("bad", [True, "1", None])
    def test_non_numeric_operator_entry(self, tmp_path, bad):
        payload = {
            "format_version": "1",
            "kind": "operator",
            "dims": [2, 1],
            "matrix": {"re": [1.0, 0.0, 0.0, bad], "im": [0.0] * 4},
        }
        with pytest.raises(pd.FileError, match="numeric arrays"):
            fileio.load_operator(self._write(tmp_path, payload))

    @pytest.mark.parametrize("bad", [False, "0", None])
    def test_non_numeric_ket_entry(self, tmp_path, bad):
        payload = self._minimal()
        payload["terms"][0]["kets"][0] = {"re": [1.0, 0.0], "im": [0, bad]}
        with pytest.raises(pd.FileError, match="numeric arrays"):
            fileio.load_decomposition(self._write(tmp_path, payload))

    def test_integer_operator_entries_load(self, tmp_path):
        payload = {
            "format_version": "1",
            "kind": "operator",
            "dims": [2, 1],
            "matrix": {"re": [1, 0, 0, 0], "im": [0, 0, 0, 0]},
        }
        op = fileio.load_operator(self._write(tmp_path, payload))
        assert op.trace == 1.0

    def test_product_view_of_coeff_file(self, tmp_path):
        k = _ket_json(pd.Ket.basis(2, 0))
        payload = {
            "format_version": "1",
            "kind": "decomposition",
            "dims": [2, 2],
            "terms": [{"coeff": 1.0, "kets": [k, k]}],
        }
        loaded = fileio.load_decomposition(self._write(tmp_path, payload))
        with pytest.raises(pd.FileError, match="weight-form"):
            loaded.product()
        vec, norm = loaded.vector()
        assert abs(norm - 1.0) < 1e-12
        assert np.allclose(vec, [1, 0, 0, 0], atol=1e-15)

    def test_coeff_accepts_plain_real_number(self, tmp_path):
        k = _ket_json(pd.Ket.basis(2, 0))
        payload = {
            "format_version": "1",
            "kind": "decomposition",
            "dims": [2, 2],
            "terms": [{"coeff": 1 / math.sqrt(2), "kets": [k, k]}],
        }
        loaded = fileio.load_decomposition(self._write(tmp_path, payload))
        assert loaded.values[0] == complex(1 / math.sqrt(2))


class TestLoadByKind:
    """``fileio.load`` reads either kind of file from one parse."""

    def test_returns_what_the_kind_names(self, product_file, tmp_path):
        path, dec = product_file
        loaded = fileio.load(path)
        assert isinstance(loaded, fileio.LoadedDecomposition) and loaded.path == path and loaded.form == "weight"
        for got, want in zip(loaded.stacks + (loaded.values,), dec.stacks + (dec.values,), strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            with pytest.raises(ValueError):
                got[0] = 0.0
        op_path = str(tmp_path / "op.json")
        fileio.save_operator(op_path, pd.build_rho(dec))
        op = fileio.load(op_path)
        assert isinstance(op, pd.StateOperator) and np.array_equal(op.matrix, fileio.load_operator(op_path).matrix)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"format_version": "1", "kind": "spectrum"}')
        with pytest.raises(pd.FileError, match="expected kind 'decomposition' or 'operator', got 'spectrum'"):
            fileio.load(str(path))

    def test_errors_after_loading_name_the_file(self, product_file):
        path, _ = product_file
        loaded = fileio.load_decomposition(path)
        for view in (loaded.tri, loaded.vector):
            with pytest.raises(pd.FileError) as info:
                view()
            assert str(info.value).startswith(f"{path}: ")


class TestGlobalVector:
    """``LoadedDecomposition.vector`` runs the expansion core of ``build_tri_vector``."""

    @pytest.mark.parametrize("profile", pd.TRI_PROFILES)
    def test_equals_build_tri_vector_on_three_factor_files(self, tmp_path, profile):
        for seed in range(5):
            tri = pd.generate_tri_instance(4, 5, 4, 6, seed=seed, profile=profile)
            path = str(tmp_path / f"t{seed}.json")
            fileio.save_decomposition(path, tri)
            vec, norm = fileio.load_decomposition(path).vector()
            ket, raw = pd.build_tri_vector(tri)
            assert abs(norm - raw) <= 1e-15 * raw
            assert np.abs(vec - raw * ket.amplitudes).max() <= 1e-15 * raw

    def test_two_factor_vector_is_the_kron_sum(self, tmp_path):
        rng = np.random.default_rng(11)
        kets = [(pd.Ket.normalize(rng.standard_normal(3)), pd.Ket.normalize(rng.standard_normal(4))) for _ in range(3)]
        coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        payload = {
            "format_version": "1",
            "kind": "decomposition",
            "dims": [3, 4],
            "terms": [
                {"coeff": {"re": z.real, "im": z.imag}, "kets": [_ket_json(a), _ket_json(b)]}
                for z, (a, b) in zip(coeffs, kets)
            ],
        }
        path = tmp_path / "pair.json"
        path.write_text(fileio.dumps_canonical(payload) + "\n")
        vec, norm = fileio.load_decomposition(str(path)).vector()
        loop = sum(z * np.kron(a.amplitudes, b.amplitudes) for z, (a, b) in zip(coeffs, kets))
        assert np.abs(vec - loop).max() <= 1e-15 * norm
        assert norm == pytest.approx(np.linalg.norm(loop), rel=1e-15)

    @pytest.mark.parametrize("k", [-200, -170, 170, 200])
    def test_norm_is_scale_safe(self, tmp_path, k):
        e = [_ket_json(pd.Ket.basis(2, i)) for i in range(2)]
        payload = {
            "format_version": "1",
            "kind": "decomposition",
            "dims": [2, 2],
            "terms": [{"coeff": 10.0**k, "kets": [e[i], e[i]]} for i in range(2)],
        }
        path = tmp_path / "scaled.json"
        path.write_text(fileio.dumps_canonical(payload) + "\n")
        _, norm = fileio.load_decomposition(str(path)).vector()
        assert norm == pytest.approx(10.0**k * math.sqrt(2), rel=1e-15)

    def test_cancelled_vector_is_degenerate_input(self, tmp_path):
        e = _ket_json(pd.Ket.basis(2, 0))
        payload = {
            "format_version": "1",
            "kind": "decomposition",
            "dims": [2, 2, 2],
            "terms": [{"coeff": z, "kets": [e, e, e]} for z in (1.0, -1.0)],
        }
        path = tmp_path / "zero.json"
        path.write_text(fileio.dumps_canonical(payload) + "\n")
        with pytest.raises(pd.DegenerateInput, match="cancels: norm 0.0 is at most 2e-08"):
            fileio.load_decomposition(str(path)).vector()


_BIG = "1" + "0" * 400  # an integer literal beyond the float range
_SHAPE = "must be an object with re/im arrays"
_TYPE = "re/im must be numeric arrays of length 3"
_FINITE = "re/im must be finite, got a literal beyond the float range"


def _slot_file(tmp_path, nfac, defects):
    """A 3-term file on dims (2, 3) or (2, 3, 2), weight form for 2 factors and coefficient form
    for 3, with the JSON text ``defects[(term, factor)]`` in place of those kets and
    ``defects[term]`` in place of that term's value."""
    dims = [2, 3, 2][:nfac]
    key = "w" if nfac == 2 else "coeff"
    terms = [
        {key: "@value%d" % i, "kets": ["@ket%d.%d" % (i, f) for f in range(nfac)]}
        for i in range(3)
    ]
    text = json.dumps({"format_version": "1", "kind": "decomposition", "dims": dims, "terms": terms})
    for i in range(3):
        text = text.replace('"@value%d"' % i, defects.get(i, "0.5"))
        for f, d in enumerate(dims):
            basis = json.dumps(_ket_json(pd.Ket.basis(d, i % d)))
            text = text.replace('"@ket%d.%d"' % (i, f), defects.get((i, f), basis))
    path = tmp_path / "slots.json"
    path.write_text(text)
    return str(path)


class TestSlotReads:
    """Each factor slot's kets are read in one pass, and a refusal still names the term and factor."""

    @pytest.mark.parametrize("nfac", [2, 3], ids=["weights", "coefficients"])
    @pytest.mark.parametrize(
        "ket, message",
        [
            ("[1, 0, 0]", _SHAPE),
            ('{"re": [1, 0, 0], "im": [0, 0, 0], "x": 0}', _SHAPE),
            ('{"re": [1, 0, 0]}', _SHAPE),
            ('{"re": [1, 0], "im": [0, 0]}', _TYPE),
            ('{"re": [1, 0, 0], "im": 0}', _TYPE),
            ('{"re": [true, 0, 0], "im": [0, 0, 0]}', _TYPE),
            ('{"re": [1, 0, 0], "im": [0, "0", 0]}', _TYPE),
            ('{"re": [1, 0, null], "im": [0, 0, 0]}', _TYPE),
            ('{"re": [%s, 0, 0], "im": [0, 0, 0]}' % _BIG, _FINITE),
            ('{"re": [1, 0, 0], "im": [0, 0, -%s]}' % _BIG, _FINITE),
            ('{"re": [1, 0, 0], "im": [1e400, 0, 0]}', _FINITE),
        ],
        ids=["list", "extra-key", "missing-key", "length", "scalar", "true", "string", "null", "int", "-int", "1e400"],
    )
    def test_a_defect_at_term_2_factor_1_is_named(self, tmp_path, nfac, ket, message):
        path = _slot_file(tmp_path, nfac, {(2, 1): ket})
        with pytest.raises(pd.FileError) as info:
            fileio.load_decomposition(path)
        assert str(info.value) == f"{path}: term 2 factor 1 {message}"

    @pytest.mark.parametrize("nfac", [2, 3], ids=["weights", "coefficients"])
    def test_the_defect_free_file_loads(self, tmp_path, nfac):
        loaded = fileio.load_decomposition(_slot_file(tmp_path, nfac, {}))
        assert [s.shape for s in loaded.stacks] == [(2, 3), (3, 3), (2, 3)][:nfac]
        assert all(s.flags.f_contiguous and not s.flags.writeable for s in loaded.stacks)
        assert np.array_equal(loaded.stacks[1], np.eye(3))

    @pytest.mark.parametrize(
        "defects, named",
        [
            ({(0, 1): '{"re": [true, 0, 0], "im": [0, 0, 0]}', 1: '"x"'}, "term 1 weight must be a number"),
            ({(0, 1): "[]", 2: "-1e400"}, "term 2 weight must be finite"),
            ({(1, 0): '{"re": [true, 0], "im": [0, 0]}', (2, 0): "{}"}, f"term 2 factor 0 {_SHAPE}"),
            ({(0, 0): '{"re": [1e400, 0], "im": [0, 0]}', (1, 0): '{"re": [1, null], "im": [0, 0]}'},
             "term 1 factor 0 re/im must be numeric arrays of length 2"),
            ({(0, 1): "[]", (1, 0): '{"re": [1, "0"], "im": [0, 0]}'},
             "term 1 factor 0 re/im must be numeric arrays of length 2"),
            ({(0, 1): '{"re": [1, 1, 0], "im": [0, 0, 0]}', (1, 1): "[]"}, f"term 1 factor 1 {_SHAPE}"),
            ({0: "-0.5", (1, 1): '{"re": [1e400, 0, 0], "im": [0, 0, 0]}'}, f"term 1 factor 1 {_FINITE}"),
        ],
        ids=["value-before-ket", "value-before-shape", "shape-before-type", "type-before-finite",
             "slot-0-before-slot-1", "shape-before-norm", "finite-before-sign"],
    )
    def test_several_defects_are_refused_in_the_documented_order(self, tmp_path, defects, named):
        path = _slot_file(tmp_path, 2, defects)
        with pytest.raises(pd.FileError) as info:
            fileio.load_decomposition(path)
        assert str(info.value).startswith(f"{path}: {named}")

    def test_one_fromiter_per_part_and_slot(self, tmp_path, monkeypatch):
        tri = pd.purify(pd.generate_instance(8, 16, 16, seed=3), 8)  # n = 8: 24 kets in 3 slots
        path = str(tmp_path / "tri.json")
        fileio.save_decomposition(path, tri)
        calls, fromiter = [], np.fromiter
        monkeypatch.setattr(np, "fromiter", lambda *args: calls.append(args[2]) or fromiter(*args))
        loaded = fileio.load_decomposition(path)
        assert calls == [8 * 16, 8 * 16, 8 * 16, 8 * 16, 8 * 8, 8 * 8]
        for stored, back in zip(tri.stacks, loaded.stacks):
            assert np.array_equal(stored, back)

    @pytest.mark.parametrize("key", ["re", "weight_first", "_x1", "a-b", "1a", "ü", 'a"b', "a\tb", ""])
    def test_keys_are_quoted_as_json_quotes_them(self, key):
        assert fileio.dumps_canonical({key: 1}) == "{\n  " + json.dumps(key) + ": 1\n}"

    def test_an_empty_and_a_one_element_float_list(self):
        assert fileio._float_texts([]) == []
        assert fileio._float_texts([-0.0]) == ["-0"]
