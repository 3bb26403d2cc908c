"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The batteries are seeded and deterministic; the whole module stays well
under a minute on a laptop.
"""

import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np

import proddecomp as pd
from proddecomp import fileio
from proddecomp.cli import main

# the case generators shared with the battery script, loaded as tests/test_scripts.py loads it
_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "uniqueness_battery.py"
_spec = importlib.util.spec_from_file_location("uniqueness_battery", _SCRIPT)
_battery = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_battery)
_bi_cases, _tri_cases = _battery.bi_cases, _battery.tri_cases


def _report(num: int, description: str, ok: bool) -> None:
    print(f"criterion {num} [{'PASS' if ok else 'FAIL'}]: {description}")
    assert ok, f"criterion {num} failed: {description}"


def _random_ket(rng, dim):
    return pd.Ket.normalize(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def _span_projector(kets):
    a = np.column_stack([k.amplitudes for k in kets])
    return a @ np.linalg.pinv(a)


def test_criterion_1_degenerate_eigenbasis_reproduction():
    report = pd.demo_degeneracy()
    ok = (
        np.allclose(report.eigenvalues, [0.5, 0.5, 0.0, 0.0], atol=1e-12)
        and report.qform_residual < 1e-12
        and not report.q1_factorable
        and not report.q2_factorable
        and np.allclose(report.q1_schmidt, [1 / math.sqrt(2)] * 2, atol=1e-12)
        and np.allclose(report.q2_schmidt, [1 / math.sqrt(2)] * 2, atol=1e-12)
        and report.tri_qform_residual < 1e-12
    )
    _report(1, "eigenvalues (1/2,1/2,0,0), q-form equality, q kets non-factorable", ok)


def test_criterion_2_bidecomposition_uniqueness_battery():
    cases = _bi_cases(200, master_seed=20_000)
    failures = 0
    for k, (n, d1, d2, profile, seed) in enumerate(cases):
        dec = pd.generate_instance(n, d1, d2, seed=seed, profile=profile)
        twin, perm = pd.phase_permuted_twin(dec, seed=seed + 1)
        result = pd.match_bidecomposition(dec, twin)
        if result.permutation != perm or result.residual >= 1e-8:
            failures += 1
            continue
        if any(abs(c.weight_first - c.weight_second) >= 1e-6 for c in result.per_term):
            failures += 1
    _report(2, f"planted permutation recovered on {len(cases)} bipartite instances", failures == 0)


def test_criterion_3_tridecomposition_uniqueness_battery():
    cases = _tri_cases(200, master_seed=30_000)
    failures = 0
    for n, dims, profile, seed in cases:
        tri = pd.generate_tri_instance(n, dims[0], dims[1], dims[2], seed=seed, profile=profile)
        twin, perm = pd.phase_permuted_twin(tri, seed=seed + 1)
        result = pd.match_tridecomposition(tri, twin)
        if result.permutation != perm or result.residual >= 1e-8:
            failures += 1
            continue
        first = sorted(abs(t.coeff) for t in tri.terms)
        second = sorted(abs(t.coeff) for t in twin.terms)
        if not np.allclose(first, second, atol=1e-8):
            failures += 1
    _report(
        3,
        f"planted permutation and coefficient magnitudes recovered on {len(cases)} "
        "tripartite instances (dependent slot in every position)",
        failures == 0,
    )


def test_criterion_4_extraction_oracle_equivalence():
    cases = _bi_cases(200, master_seed=40_000)
    failures = 0
    for n, d1, d2, profile, seed in cases:
        dec = pd.generate_instance(n, d1, d2, seed=seed, profile=profile)
        rho = pd.build_rho(dec)
        try:
            first = pd.extract_decomposition(rho, seed=seed + 1)
            second = pd.extract_decomposition(rho, seed=seed + 2)
        except pd.NotExtractable:
            failures += 1
            continue
        if first.reconstruction_error >= 1e-6 or second.reconstruction_error >= 1e-6:
            failures += 1
            continue
        recon = pd.build_rho(first.decomposition)
        if pd.frobenius(recon.matrix - rho.matrix) / pd.frobenius(rho.matrix) >= 1e-6:
            failures += 1
            continue
        try:
            planted = pd.match_bidecomposition(dec, first.decomposition)
            seeds_agree = pd.match_bidecomposition(first.decomposition, second.decomposition)
        except pd.ProddecompError:
            failures += 1
            continue
        if planted.n != n or seeds_agree.residual >= 1e-8:
            failures += 1
    _report(
        4,
        f"extraction reconstructs and matches ground truth on {len(cases)} instances, "
        "two seeds matcher-equivalent",
        failures == 0,
    )


def test_criterion_5_support_equals_planted_span():
    cases = _bi_cases(200, master_seed=50_000)
    failures = 0
    for n, d1, d2, profile, seed in cases:
        dec = pd.generate_instance(n, d1, d2, seed=seed, profile=profile)
        rho = pd.build_rho(dec)
        for factor, kets in ((0, [t.a for t in dec.terms]), (1, [t.b for t in dec.terms])):
            support, null = pd.support_and_null(rho, factor)
            if support.dim + null.dim != rho.dims[factor]:
                failures += 1
                continue
            if pd.frobenius(support.projector() - _span_projector(kets)) >= 1e-8:
                failures += 1
    _report(5, f"support projector equals planted span projector on {len(cases)} instances", failures == 0)


def test_criterion_6_relating_unitary_battery():
    rng = np.random.default_rng(60_000)
    failures = 0
    pairs = 100
    for i in range(pairs):
        n = int(rng.integers(2, 5))
        d1 = int(rng.integers(n, 7))
        d2 = int(rng.integers(n, 7))
        dec = pd.generate_instance(n, d1, d2, seed=int(rng.integers(0, 2**31)))
        dim3 = n + int(rng.integers(0, 2))
        psi, _ = pd.build_tri_vector(pd.purify(dec, dim3))
        g = rng.standard_normal((dim3, dim3)) + 1j * rng.standard_normal((dim3, dim3))
        w, _ = np.linalg.qr(g)
        split = pd.FactoredDims((d1 * d2, dim3))
        phi = pd.apply_on_factor(pd.UnitaryMatrix(w), psi, split, 1)
        try:
            u = pd.relating_unitary(psi, phi, split)
        except pd.ProddecompError:
            failures += 1
            continue
        residual = np.linalg.norm(
            psi.amplitudes - pd.apply_on_factor(u, phi, split, 1).amplitudes
        )
        defect = pd.frobenius(u.matrix.conj().T @ u.matrix - np.eye(dim3))
        if residual >= 1e-8 or defect >= 1e-8:
            failures += 1
    # correct rejection: non-co-purifications must raise
    rejected = 0
    for i in range(10):
        product = pd.tensor_product(_random_ket(rng, 3), _random_ket(rng, 3))
        entangled = pd.Ket.normalize(
            np.kron(pd.Ket.basis(3, 0).amplitudes, pd.Ket.basis(3, 0).amplitudes)
            + np.kron(pd.Ket.basis(3, 1).amplitudes, pd.Ket.basis(3, 1).amplitudes)
        )
        try:
            pd.relating_unitary(product, entangled, pd.FactoredDims((3, 3)))
        except pd.OperatorMismatch:
            rejected += 1
    _report(
        6,
        f"relating unitary residual and unitarity below 1e-8 on {pairs} co-purification "
        "pairs, non-co-purifications rejected",
        failures == 0 and rejected == 10,
    )


def test_criterion_7_factorability_brute_force_equivalence():
    values = (0.9 + 0.2j, -0.55 + 0.71j, 0.3 - 1.1j)
    mismatches = 0
    checked = 0
    for n in (1, 2, 3):
        for d1 in range(n, 4):
            for d2 in (1, 2, 3) if n == 1 else (2, 3):
                rng = np.random.default_rng(7_000 + 100 * n + 10 * d1 + d2)
                if n == 1:
                    a_kets = [_random_ket(rng, d1)]
                else:
                    q, _ = np.linalg.qr(
                        rng.standard_normal((d1, n)) + 1j * rng.standard_normal((d1, n))
                    )
                    a_kets = [pd.Ket(q[:, i]) for i in range(n)]
                while True:
                    b_kets = [_random_ket(rng, d2) for _ in range(n)]
                    if pd.is_noncollinear_set(b_kets):
                        break
                for size in range(1, n + 1):
                    for support in itertools.combinations(range(n), size):
                        vec = np.zeros(d1 * d2, dtype=complex)
                        for j in support:
                            vec += values[j] * np.kron(a_kets[j].amplitudes, b_kets[j].amplitudes)
                        verdict, _ = pd.is_factorable(
                            pd.Ket.normalize(vec), pd.FactoredDims((d1, d2))
                        )
                        checked += 1
                        if verdict != (size == 1):
                            mismatches += 1
    _report(7, f"factorability iff one nonzero coefficient on all {checked} small cases", mismatches == 0)


def test_criterion_8_hypothesis_violation_paths(tmp_path, capsys):
    def ket_json(k):
        return {
            "re": [float(v) for v in k.amplitudes.real],
            "im": [float(v) for v in k.amplitudes.imag],
        }

    e = [pd.Ket.basis(2, 0), pd.Ket.basis(2, 1)]
    s = 1 / math.sqrt(2)
    abc = pd.TriDecomposition(
        pd.FactoredDims((2, 2, 2)),
        (pd.TriTerm(s, e[0], e[0], e[0]), pd.TriTerm(s, e[1], e[1], e[1])),
    )
    abc_path = str(tmp_path / "abc.json")
    fileio.save_decomposition(abc_path, abc)

    ab1 = np.kron(e[0].amplitudes, e[0].amplitudes)
    ab2 = np.kron(e[1].amplitudes, e[1].amplitudes)
    q = [pd.Ket.normalize(ab1 + ab2), pd.Ket.normalize(ab1 - ab2)]
    d = [
        pd.Ket.normalize(e[0].amplitudes + e[1].amplitudes),
        pd.Ket.normalize(e[0].amplitudes - e[1].amplitudes),
    ]
    q_path = tmp_path / "qform.json"
    q_path.write_text(
        fileio.dumps_canonical(
            {
                "format_version": "1",
                "kind": "decomposition",
                "dims": [4, 2],
                "terms": [
                    {"coeff": {"re": s, "im": 0.0}, "kets": [ket_json(q[i]), ket_json(d[i])]}
                    for i in range(2)
                ],
            }
        )
        + "\n"
    )
    code_q = main(["match", abc_path, str(q_path), "--mode", "tri"])
    err_q = capsys.readouterr().err

    rng = np.random.default_rng(8)
    shared = _random_ket(rng, 2)
    col_path = tmp_path / "collinear.json"
    col_path.write_text(
        fileio.dumps_canonical(
            {
                "format_version": "1",
                "kind": "decomposition",
                "dims": [2, 2],
                "terms": [
                    {"w": 0.5, "kets": [ket_json(shared), ket_json(e[0])]},
                    {"w": 0.5, "kets": [ket_json(shared), ket_json(e[1])]},
                ],
            }
        )
        + "\n"
    )
    code_col = main(["match", str(col_path), str(col_path), "--mode", "bi"])
    err_col = capsys.readouterr().err

    ok = (
        code_q == 4
        and "factorability hypothesis violated" in err_q
        and code_col == 4
        and "collinear pair (0, 1)" in err_col
    )
    _report(8, "q-recast rejected with factorability diagnostic, collinear pair named, exit 4", ok)
