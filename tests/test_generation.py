"""Instance generation and twins: the slot-generic core against the
per-profile generators and the two-branch twin it replaced, kept here as
the oracle."""

import json
import re

import numpy as np
import pytest

import proddecomp as pd
from proddecomp import decomp, fileio
from proddecomp.cli import main
from proddecomp.tensor import _checked_coeffs


# The generators' draws, as the lists of Kets the reference generators build from
def _independent_kets(rng, dim, count):
    return [pd.Ket(c) for c in decomp._independent_kets(rng, dim, count).T]


def _dependent_noncollinear_kets(rng, dim, count):
    return [pd.Ket(c) for c in decomp._dependent_noncollinear_kets(rng, dim, count).T]


def _reference_generate_instance(n, d1, d2, seed=0, profile="both-independent"):
    if profile not in pd.BI_PROFILES:
        raise ValueError(f"unknown profile {profile!r}; choose from {pd.BI_PROFILES}")
    if n < 1:
        raise ValueError(f"term count must be positive, got {n}")
    rng = np.random.default_rng(seed)
    if profile == "both-independent":
        if n > min(d1, d2):
            raise ValueError(f"infeasible: {n} independent kets do not fit dims ({d1}, {d2})")
        a_kets = _independent_kets(rng, d1, n)
        b_kets = _independent_kets(rng, d2, n)
    elif profile == "a-independent-only":
        if n > d1:
            raise ValueError(f"infeasible: {n} independent kets do not fit dim {d1}")
        if n < 3 or d2 < 2:
            raise ValueError("infeasible: a dependent non-collinear b-set needs n >= 3 and d2 >= 2")
        a_kets = _independent_kets(rng, d1, n)
        b_kets = _dependent_noncollinear_kets(rng, d2, n)
    else:  # b-independent-only
        if n > d2:
            raise ValueError(f"infeasible: {n} independent kets do not fit dim {d2}")
        if n < 3 or d1 < 2:
            raise ValueError("infeasible: a dependent non-collinear a-set needs n >= 3 and d1 >= 2")
        a_kets = _dependent_noncollinear_kets(rng, d1, n)
        b_kets = _independent_kets(rng, d2, n)
    weights = rng.uniform(0.5, 1.5, n)
    weights /= weights.sum()
    dec = pd.ProductDecomposition(
        pd.FactoredDims((d1, d2)),
        tuple(pd.ProductTerm(float(w), a, b) for w, a, b in zip(weights, a_kets, b_kets)),
    )
    pd.check_product_hypotheses(dec, label="generated decomposition")
    return dec


def _reference_generate_tri_instance(n, d1, d2, d3, seed=0, profile="all-independent"):
    if profile not in pd.TRI_PROFILES:
        raise ValueError(f"unknown profile {profile!r}; choose from {pd.TRI_PROFILES}")
    if n < 1:
        raise ValueError(f"term count must be positive, got {n}")
    rng = np.random.default_rng(seed)
    dims = (d1, d2, d3)
    dep_slot = {"all-independent": None, "a-dependent": 0, "b-dependent": 1, "c-dependent": 2}[profile]
    slot_kets = []
    for s in range(3):
        if s == dep_slot:
            if n < 3 or dims[s] < 2:
                raise ValueError("infeasible: a dependent non-collinear set needs n >= 3 and dim >= 2")
            slot_kets.append(_dependent_noncollinear_kets(rng, dims[s], n))
        else:
            if n > dims[s]:
                raise ValueError(f"infeasible: {n} independent kets do not fit dim {dims[s]}")
            slot_kets.append(_independent_kets(rng, dims[s], n))
    mags = rng.uniform(0.5, 1.2, n)
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    tri = pd.TriDecomposition(
        pd.FactoredDims(dims),
        tuple(
            pd.TriTerm(complex(m * p), slot_kets[0][j], slot_kets[1][j], slot_kets[2][j])
            for j, (m, p) in enumerate(zip(mags, phases))
        ),
    )
    pd.check_tri_hypotheses(tri, label="generated tridecomposition")
    return tri


def _reference_twin(dec, seed=0):
    rng = np.random.default_rng(seed)
    n = dec.n
    perm = tuple(int(i) for i in rng.permutation(n))
    if isinstance(dec, pd.ProductDecomposition):
        terms = []
        for j in range(n):
            src = dec.terms[perm[j]]
            pa, pb = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 2))
            terms.append(pd.ProductTerm(src.weight, src.a.phased(pa), src.b.phased(pb)))
        return pd.ProductDecomposition(dec.dims, tuple(terms)), perm
    terms = []
    for j in range(n):
        src = dec.terms[perm[j]]
        pa, pb, pc = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 3))
        terms.append(pd.TriTerm(src.coeff / (pa * pb * pc), src.a.phased(pa), src.b.phased(pb), src.c.phased(pc)))
    return pd.TriDecomposition(dec.dims, tuple(terms)), perm


def _pair_form_file(path, tri):
    """``tri`` written as a 2-factor coefficient file whose term j pairs a_j (x) b_j with c_j."""
    a, b, c = tri.stacks
    terms = [
        {"coeff": z, "kets": [fileio._ket_json(np.kron(a[:, j], b[:, j])), fileio._ket_json(c[:, j])]}
        for j, z in enumerate(tri.values.tolist())
    ]
    payload = {"format_version": "1", "kind": "decomposition", "dims": [a.shape[0] * b.shape[0], c.shape[0]]}
    path.write_text(fileio.dumps_canonical({**payload, "terms": terms}) + "\n")
    return str(path)


def _outcome(make, *args, **kwargs):
    """The decomposition ``make`` returns, or the type of the error it raises."""
    try:
        return make(*args, **kwargs)
    except Exception as exc:  # the oracle compares error types, whatever they are
        return type(exc)


def _reference_outcome(make, *args, seed=0, **kwargs):
    """``_outcome`` of a reference generator, with its ValueError read as the
    library's refusal of the same case: DegenerateInput for a negative seed,
    DimensionMismatch for every other."""
    got = _outcome(make, *args, seed=seed, **kwargs)
    if got is ValueError:
        return pd.DegenerateInput if seed < 0 else pd.DimensionMismatch
    return got


def _assert_bit_identical(got, ref):
    if isinstance(ref, type):
        assert got is ref, (got, ref)
        return
    assert type(got) is type(ref) and got.dims == ref.dims
    for g, r in zip(got.stacks + (got.values,), ref.stacks + (ref.values,), strict=True):
        assert g.dtype == r.dtype and g.shape == r.shape and g.tobytes() == r.tobytes()


BI_SIZES = [(1, 1, 1), (2, 2, 2), (3, 3, 2), (3, 2, 3), (3, 4, 4), (4, 3, 5), (4, 5, 3), (5, 6, 6), (3, 1, 4)]
TRI_SIZES = [(1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 2), (3, 2, 4, 3), (3, 4, 4, 4), (4, 5, 3, 5), (5, 6, 6, 6), (3, 3, 1, 3)]
SEEDS = range(20)


class TestOracle:
    @pytest.mark.parametrize("profile", pd.BI_PROFILES)
    def test_bipartite_instances_and_twins_are_bit_identical(self, profile):
        generated = 0
        for size in BI_SIZES:
            for seed in SEEDS:
                got = _outcome(pd.generate_instance, *size, seed=seed, profile=profile)
                ref = _reference_outcome(_reference_generate_instance, *size, seed=seed, profile=profile)
                _assert_bit_identical(got, ref)
                if not isinstance(ref, type):
                    generated += 1
                    (twin, perm), (ref_twin, ref_perm) = pd.phase_permuted_twin(got, seed), _reference_twin(ref, seed)
                    assert perm == ref_perm
                    _assert_bit_identical(twin, ref_twin)
        assert generated >= 3 * len(SEEDS)  # at least three feasible sizes per profile

    @pytest.mark.parametrize("profile", pd.TRI_PROFILES)
    def test_tripartite_instances_and_twins_are_bit_identical(self, profile):
        generated = 0
        for size in TRI_SIZES:
            for seed in SEEDS:
                got = _outcome(pd.generate_tri_instance, *size, seed=seed, profile=profile)
                ref = _reference_outcome(_reference_generate_tri_instance, *size, seed=seed, profile=profile)
                _assert_bit_identical(got, ref)
                if not isinstance(ref, type):
                    generated += 1
                    (twin, perm), (ref_twin, ref_perm) = pd.phase_permuted_twin(got, seed), _reference_twin(ref, seed)
                    assert perm == ref_perm
                    _assert_bit_identical(twin, ref_twin)
        assert generated >= 3 * len(SEEDS)  # at least three feasible sizes per profile

    @pytest.mark.parametrize(
        "make, ref, args, kwargs",
        [
            # the cases of TestGenerators.test_infeasible_combinations and test_tri_infeasible
            (pd.generate_instance, _reference_generate_instance, (3, 2, 2), dict(profile="both-independent")),
            (pd.generate_instance, _reference_generate_instance, (2, 4, 4), dict(profile="a-independent-only")),
            (pd.generate_instance, _reference_generate_instance, (4, 3, 3), dict(profile="b-independent-only")),
            (pd.generate_instance, _reference_generate_instance, (0, 2, 2), {}),
            (pd.generate_instance, _reference_generate_instance, (2, 2, 2), dict(profile="no-such-profile")),
            (pd.generate_tri_instance, _reference_generate_tri_instance, (4, 3, 4, 4), {}),
            (pd.generate_tri_instance, _reference_generate_tri_instance, (2, 4, 4, 4), dict(profile="c-dependent")),
            # a profile of the other arity, and a negative seed
            (pd.generate_instance, _reference_generate_instance, (2, 2, 2), dict(profile="all-independent")),
            (pd.generate_tri_instance, _reference_generate_tri_instance, (2, 2, 2, 2), dict(profile="both-independent")),
            (pd.generate_instance, _reference_generate_instance, (2, 2, 2), dict(seed=-1)),
        ],
    )
    def test_infeasible_cases_raise_the_reference_error_type(self, make, ref, args, kwargs):
        kwargs.setdefault("seed", 0)
        assert _outcome(ref, *args, **kwargs) is ValueError
        expected = _reference_outcome(ref, *args, **kwargs)
        assert issubclass(expected, pd.ProddecompError)
        assert _outcome(make, *args, **kwargs) is expected


#: (class, fault) cases of ``TestSharedConstructor._case`` that every door refuses
_FAULTS = [
    (cls, fault)
    for cls in (pd.ProductDecomposition, pd.TriDecomposition)
    for fault in [
        "no terms", "wrong slot dims", "non-unit column", "nan column", "inf column",
        "stack count", "factor count", 0.0, np.nan, np.inf, complex(np.inf, 1.0), "0.5", True,
        "True in a list",
    ]
] + [(pd.ProductDecomposition, fault) for fault in (-0.25, -np.inf, 0.25 + 0.5j, 0.25 + 0j)]


class TestSharedConstructor:
    @pytest.mark.parametrize("dims, terms_of", [((2, 3), "bi"), ((2, 3, 2), "tri")])
    def test_structure_errors(self, dims, terms_of):
        cls = pd.ProductDecomposition if terms_of == "bi" else pd.TriDecomposition
        with pytest.raises(pd.DegenerateInput, match="at least one term"):
            cls(pd.FactoredDims(dims), ())
        wrong = [pd.Ket.basis(d + 1, 0) for d in dims]
        term = pd.ProductTerm(1.0, *wrong) if terms_of == "bi" else pd.TriTerm(1.0, *wrong)
        message = f"term 0 ket dims {tuple(d + 1 for d in dims)} do not match factors {dims}"
        with pytest.raises(pd.DimensionMismatch, match=re.escape(message)):
            cls(pd.FactoredDims(dims), (term,))

    def test_a_term_of_the_other_kind_is_a_dimension_error(self):
        e = pd.Ket.basis(2, 0)
        with pytest.raises(pd.DimensionMismatch):
            pd.TriDecomposition(pd.FactoredDims((2, 2, 2)), (pd.ProductTerm(1.0, e, e),))
        with pytest.raises(pd.DimensionMismatch):
            pd.ProductDecomposition(pd.FactoredDims((2, 2)), (pd.TriTerm(1.0, e, e, e),))

    @staticmethod
    def _case(cls, fault):
        """(dims, stacks, values) of a valid two-term decomposition of ``cls``, with one fault."""
        bipartite = cls is pd.ProductDecomposition
        dims = (2, 3) if bipartite else (2, 3, 2)
        stacks = [np.eye(d, 2, dtype=complex) for d in dims]
        values = np.array([0.5, 0.25]) if bipartite else np.array([0.5j, -0.25])
        if fault == "no terms":
            stacks, values = [s[:, :0] for s in stacks], values[:0]
        elif fault == "wrong slot dims":
            stacks[1] = np.eye(dims[1] + 1, 2, dtype=complex)
        elif fault in ("non-unit column", "nan column", "inf column"):
            stacks[-1][1, 1] = {"non-unit": 2.0, "nan": np.nan, "inf": np.inf}[fault.split()[0]]
        elif fault == "stack count":  # the kets of a term of the other kind
            values = np.array([0.5, 0.25])
            stacks = stacks + [np.eye(2, 2, dtype=complex)] if bipartite else stacks[:-1]
        elif fault == "factor count":
            dims = (2, 3, 2) if bipartite else (2, 3)
            values, stacks = np.array([0.5, 0.25]), [np.eye(d, 2, dtype=complex) for d in dims]
        elif fault == "True in a list":  # np.asarray casts the list to numbers
            values = values.tolist()
            values[1] = True
        elif isinstance(fault, (str, bool)):  # a value in term 1 that is not a number
            values = values.astype(object)
            values[1] = fault
        elif fault is not None:  # a bad value in term 1
            values = values.astype(complex if np.iscomplexobj(fault) else values.dtype)
            values[1] = fault
        return pd.FactoredDims(dims), stacks, values

    @staticmethod
    def _via_terms(cls, dims, stacks, values):
        term = pd.ProductTerm if len(stacks) == 2 else pd.TriTerm
        kets = [[pd.Ket(c) for c in s.T] for s in stacks]
        return cls(dims, [term(v, *ks) for v, *ks in zip(values, *kets)])

    @staticmethod
    def _via_file(cls, dims, stacks, values, path):
        """Write the case by hand as a decomposition file, JSON's NaN and Infinity included, and load it as ``cls``."""
        key = "w" if cls is pd.ProductDecomposition else "coeff"
        payload = {
            "format_version": "1",
            "kind": "decomposition",
            "dims": list(dims),
            "terms": [
                {
                    key: {"re": v.real, "im": v.imag} if isinstance(v, complex) else v,
                    "kets": [{"re": c.real.tolist(), "im": c.imag.tolist()} for c in columns],
                }
                for v, *columns in zip(values, *(s.T for s in stacks))
            ],
        }
        path.write_text(json.dumps(payload))
        loaded = fileio.load_decomposition(str(path))
        return loaded.product() if cls is pd.ProductDecomposition else loaded.tri()

    @pytest.mark.parametrize("cls, fault", _FAULTS)
    def test_both_doors_reject_alike(self, cls, fault):
        dims, stacks, values = self._case(cls, fault)
        via_terms = _outcome(self._via_terms, cls, dims, stacks, values)
        via_arrays = _outcome(cls._from_stacks, dims, stacks, values)
        assert isinstance(via_terms, type) and issubclass(via_terms, pd.ProddecompError), via_terms
        assert via_arrays is via_terms

    def test_a_bool_in_a_list_is_refused_by_every_value_rule(self):
        # np.asarray casts [0.5, True] to floats; a bool array is refused, and so is this list
        for weights in ([0.5, True], (0.5, np.True_), [[0.5, True]]):
            with pytest.raises(pd.DegenerateInput, match="dtype bool"):
                pd.StateOperator.from_columns(pd.FactoredDims((2,)), np.eye(2), weights)
        with pytest.raises(pd.DegenerateInput, match="dtype bool"):
            _checked_coeffs([1j, True])
        # the Ket-list door of the tri-mode recast takes its coefficients by the same rule
        x, e = pd.tensor_product(pd.Ket.basis(2, 0), pd.Ket.basis(2, 1)), pd.Ket.basis(2, 0)
        for coeffs in ([1.0, True], [1.0, "1"]):
            with pytest.raises(pd.DegenerateInput, match="coefficients must be numbers"):
                pd.split_pair_terms(coeffs, [x, x], [e, e], pd.FactoredDims((2, 2)))

    @pytest.mark.parametrize("cls, fault", _FAULTS)
    def test_a_file_is_refused_naming_its_path(self, tmp_path, cls, fault):
        path = tmp_path / "case.json"
        with pytest.raises(pd.FileError) as info:
            self._via_file(cls, *self._case(cls, fault), path)
        assert str(info.value).startswith(f"{path}: "), str(info.value)

    @pytest.mark.parametrize("cls", [pd.ProductDecomposition, pd.TriDecomposition])
    def test_a_file_stores_what_the_array_door_stores(self, tmp_path, cls):
        dims, stacks, values = self._case(cls, None)
        via_file = self._via_file(cls, dims, stacks, values, tmp_path / "case.json")
        _assert_bit_identical(via_file, cls._from_stacks(dims, stacks, values))

    @pytest.mark.parametrize("cls", [pd.ProductDecomposition, pd.TriDecomposition])
    def test_both_doors_store_the_same_read_only_copies(self, cls):
        dims, stacks, values = self._case(cls, None)
        dec = cls._from_stacks(dims, stacks, values)
        _assert_bit_identical(dec, self._via_terms(cls, dims, stacks, values))
        first, value = dec.stacks[0].copy(), dec.values[0]
        stacks[0][:] = 0.0
        values[0] = 7.0
        assert np.array_equal(dec.stacks[0], first) and dec.values[0] == value
        for a in (*dec.stacks, dec.values):
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert dec.terms is dec.terms  # built once, on first read


class TestArrayPaths:
    """Generation, twins, build and extraction, matching and purification run
    on the stored arrays alone."""

    def test_hot_paths_build_no_kets_or_terms(self, monkeypatch):
        def forbidden(self):
            raise AssertionError(f"built a {type(self).__name__}")

        for cls in (pd.Ket, pd.ProductTerm, pd.TriTerm):
            monkeypatch.setattr(cls, "__post_init__", forbidden)
        made = []
        for profile in pd.BI_PROFILES:
            dec = pd.generate_instance(4, 5, 5, seed=1, profile=profile)
            twin, _ = pd.phase_permuted_twin(dec, seed=2)
            pd.match_bidecomposition(dec, twin)
            report = pd.extract_decomposition(pd.build_rho(dec), seed=3)
            pd.match_bidecomposition(dec, report.decomposition)
            purified = pd.purify(dec, 5)
            tri_twin, _ = pd.phase_permuted_twin(purified, seed=4)
            pd.match_tridecomposition(purified, tri_twin)
            made += [dec, twin, report.decomposition, purified, tri_twin]
        for profile in pd.TRI_PROFILES:
            tri = pd.generate_tri_instance(4, 5, 5, 5, seed=1, profile=profile)
            twin, _ = pd.phase_permuted_twin(tri, seed=2)
            pd.match_tridecomposition(tri, twin)
            made += [tri, twin]
        monkeypatch.undo()
        for dec in made:
            for j, term in enumerate(dec.terms):
                assert (term.weight if isinstance(term, pd.ProductTerm) else term.coeff) == dec.values[j]
                for s, ket in enumerate(term.kets):
                    assert ket.amplitudes.tobytes() == dec.stacks[s][:, j].tobytes()

    def test_file_paths_build_no_kets_or_terms(self, tmp_path, monkeypatch):
        def forbidden(self):
            raise AssertionError(f"built a {type(self).__name__}")

        files = {}
        for mode, dec in [
            ("bi", pd.generate_instance(4, 5, 5, seed=1)),
            ("tri", pd.generate_tri_instance(4, 5, 5, 5, seed=1)),
        ]:
            files[mode] = [str(tmp_path / f"{mode}{i}.json") for i in range(2)]
            fileio.save_decomposition(files[mode][0], dec)
            fileio.save_decomposition(files[mode][1], pd.phase_permuted_twin(dec, seed=2)[0])
        pair = _pair_form_file(tmp_path / "pair.json", pd.generate_tri_instance(4, 5, 5, 5, seed=1))
        for cls in (pd.Ket, pd.ProductTerm, pd.TriTerm):
            monkeypatch.setattr(cls, "__post_init__", forbidden)
        fileio.load_decomposition(files["bi"][0]).product()
        tri = fileio.load_decomposition(files["tri"][0])
        tri.tri()
        tri.vector()
        for mode, (source, twin) in files.items():
            assert main(["build", source, "--out", str(tmp_path / f"{mode}-op.json")]) == 0
            assert main(["match", source, twin, "--mode", mode]) == 0
        # the tri-mode recast of a 2-factor coefficient file, and the factorability verdict
        assert main(["match", pair, files["tri"][1], "--mode", "tri"]) == 0
        assert main(["factorable", pair]) == 0

    def test_each_factorability_job_makes_one_svd(self, tmp_path, monkeypatch):
        tri = pd.generate_tri_instance(4, 5, 5, 5, seed=1)
        pair, source = _pair_form_file(tmp_path / "pair.json", tri), str(tmp_path / "tri.json")
        fileio.save_decomposition(source, tri)
        svd, calls = np.linalg.svd, []

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        def forbidden(self):
            raise AssertionError("built a Ket")

        monkeypatch.setattr(np.linalg, "svd", counted)
        monkeypatch.setattr(pd.Ket, "__post_init__", forbidden)
        counts = {}
        for job, run in [
            ("factorable", lambda: main(["factorable", pair])),
            ("match tri", lambda: main(["match", source, source, "--mode", "tri"])),
            ("match recast", lambda: main(["match", pair, source, "--mode", "tri"])),
            ("demo", lambda: main(["demo"])),
        ]:
            calls.clear()
            assert run() == 0, job
            counts[job] = len(calls)
        # the recast adds one SVD of all 4 terms to the rank checks of a 3-factor match
        assert counts.pop("match recast") - counts.pop("match tri") == 1
        assert counts == {"factorable": 1, "demo": 1}
