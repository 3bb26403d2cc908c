"""Tests of the benchmark itself: its checks reject corrupted outputs, its
tracer wraps what callers look up, and every workload runs end to end.

    python3 -m pytest -q perfbench
"""

import importlib
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
import workloads

pd = run.import_program()
cli = importlib.import_module("proddecomp.cli")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def case():
    return workloads.battery_cases(pd, seed=7, count=3)[2]  # b-independent-only: side 1 extracts


def test_certificate_check_rejects_wrong_permutation(case):
    result = pd.match_bidecomposition(case.bi, case.bi_twin)
    checks.check_certificate(result, case.bi_arrays, case.bi_twin_arrays, case.bi_perm)
    perm = list(result.permutation)
    perm[0], perm[1] = perm[1], perm[0]
    swapped = replace(result, permutation=tuple(perm))
    with pytest.raises(checks.CheckFailed, match="permutation"):
        checks.check_certificate(swapped, case.bi_arrays, case.bi_twin_arrays, case.bi_perm)
    # a wrong pairing fails on the overlaps even when the expected permutation agrees with it
    with pytest.raises(checks.CheckFailed, match="overlap"):
        checks.check_certificate(swapped, case.bi_arrays, case.bi_twin_arrays, tuple(perm))


def test_certificate_check_rejects_changed_weight(case):
    result = pd.match_tridecomposition(case.tri, case.tri_twin)
    terms = list(result.per_term)
    terms[1] = replace(terms[1], weight_second=terms[1].weight_second * 1.01)
    corrupted = replace(result, per_term=tuple(terms))
    with pytest.raises(checks.CheckFailed, match="weights"):
        checks.check_certificate(corrupted, case.tri_arrays, case.tri_twin_arrays, case.tri_perm)


def test_extraction_check_rejects_changed_weight(case):
    report = pd.extract_decomposition(pd.build_rho(case.bi), seed=3)
    weights, kets = checks.arrays(report.decomposition)
    assert checks.check_extraction(case.bi_arrays, (weights, kets)) is not None
    changed = weights.copy()
    changed[0] *= 1.001
    with pytest.raises(checks.CheckFailed, match="differs from the planted"):
        checks.check_extraction(case.bi_arrays, (changed, kets))
    with pytest.raises(checks.CheckFailed, match="terms"):
        checks.check_extraction(case.bi_arrays, (weights[1:], [k[:, 1:] for k in kets]))


def test_gram_distance_equals_dense_distance(case):
    report = pd.extract_decomposition(pd.build_rho(case.bi), seed=3)
    weights, kets = checks.arrays(report.decomposition)
    weights = weights * np.linspace(1.0, 1.1, len(weights))
    other = pd.ProductDecomposition(
        case.bi.dims, tuple(pd.ProductTerm(w, t.a, t.b) for w, t in zip(weights, report.decomposition.terms))
    )
    first = pd.rho_matrix(case.bi)
    dense = np.linalg.norm(first - pd.rho_matrix(other)) / np.linalg.norm(first)
    assert checks.gram_distance(case.bi_arrays, (weights, kets)) == pytest.approx(dense, rel=1e-6)


def test_rejection_that_certifies_is_a_failed_operation(case):
    assert case.reject_matcher == "match_bidecomposition"
    tally = workloads.Tally()
    for i, pair in enumerate(((case.bi, case.bi_twin), case.reject_pair)):
        tally.begin(i)
        tally.op("reject", lambda: pd.match_bidecomposition(*pair), reject=pd.OperatorMismatch)
        tally.end()
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)
    assert "expected OperatorMismatch" in tally.errors[0]
    # the case whose rejection certified is left out of the case times
    assert tally.cases_run == 2 and list(tally.times["case"]) == [1]


def test_tracer_wraps_names_where_callers_look_them_up():
    originals = (pd.decomp.rho_matrix, cli.purify, pd.tensor.StateOperator.__post_init__)
    tracer = spans.Tracer()
    tracer.install(pd)
    try:
        assert pd.decomp.rho_matrix is not originals[0] and cli.purify is not originals[1]
        dec = pd.generate_instance(2, 2, 2, seed=1)
        pd.match_bidecomposition(dec, dec)
        pd.build_rho(dec)
    finally:
        tracer.uninstall()
    assert (pd.decomp.rho_matrix, cli.purify, pd.tensor.StateOperator.__post_init__) == originals
    names = [s[0] for s in tracer.spans]
    assert names.count("tensor.rho_matrix") == 3 and names.count("tensor.validate") == 1
    assert tracer.spans[names.index("tensor.rho_matrix")][3] == names.index("decomp.match_bi")
    summary = tracer.summary()
    total = sum(end - start for name, start, end, parent, value in tracer.spans if parent < 0)
    assert sum(row["self_s"] for row in summary.values()) == pytest.approx(total)
    assert summary["tensor.validate"]["calls"] == 1


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload,trace", [("battery", 0), ("battery", 1), ("dense", 0), ("cli", 1)])
def test_workload_runs_one_pass(workload, trace):
    proc = _bench(run.ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "battery", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
