"""The scripts: the seeded battery's exit status and the same-answers dump and compare."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import proddecomp as pd

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "uniqueness_battery.py"


@pytest.fixture
def battery(monkeypatch):
    spec = importlib.util.spec_from_file_location("uniqueness_battery", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr("sys.argv", [str(SCRIPT), "--count", "3"])
    return module


def test_exits_0_when_every_battery_matches(battery, capsys):
    assert battery.main() == 0
    assert "FAILED" not in capsys.readouterr().out


def test_exits_1_naming_the_battery_that_fell_short(battery, monkeypatch, capsys):
    monkeypatch.setattr(battery, "tri_battery", lambda count, seed: (count - 1, 0.0))
    assert battery.main() == 1
    out = capsys.readouterr().out
    assert "FAILED: tripartite twins: 2/3 instances" in out
    assert "FAILED: bipartite" not in out and "FAILED: blind" not in out


def _load_same_answers():
    spec = importlib.util.spec_from_file_location("same_answers", SCRIPT.parent / "same_answers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def same_answers():
    return _load_same_answers()


def test_compare_runs_without_the_package(monkeypatch, tmp_path, capsys):
    # a None entry in sys.modules makes every import of the package raise ModuleNotFoundError
    for name in [name for name in sys.modules if name == "proddecomp" or name.startswith("proddecomp.")]:
        monkeypatch.setitem(sys.modules, name, None)
    with pytest.raises(ModuleNotFoundError):
        import proddecomp  # noqa: F401
    module = _load_same_answers()
    first, second = str(tmp_path / "first.npz"), str(tmp_path / "second.npz")
    np.savez(first, **{"bi/0/0/factored/n": np.array(3), "cli/0/stderr": np.array("")})
    np.savez(second, **{"bi/0/0/factored/n": np.array(4), "cli/0/stderr": np.array("")})
    assert module.compare(first, first) == 0
    assert module.compare(first, second) == 1
    out = capsys.readouterr().out
    assert "bi n: 1 of 1 cases differ, largest deviation 1, relative 0.333" in out
    assert "cli stderr: identical (1 cases)" in out


def test_same_answers_compares_dumps(same_answers, tmp_path, capsys):
    module = same_answers
    first, second, moved = (str(tmp_path / name) for name in ("first.npz", "second.npz", "moved.npz"))
    for path in (first, second):
        module.dump(path, count=2, seeds=2, bench_seeds=[], cli_seeds=1)
    capsys.readouterr()
    assert module.compare(first, second) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(": identical (" in line for line in lines)
    for group, fields in [
        ("loose", ("side", "probes", "n", "error", "a", "b", "values", "certified")),
        ("twin-bi", ("perm", "residual", "overlaps", "weight_first", "weight_second")),
        ("twin-tri", ("perm", "residual", "overlaps", "weight_first", "weight_second")),
        ("cli", ("argv", "code", "stdout", "stderr", "files")),
    ]:
        for field in fields:
            assert f"{group} {field}: identical (" in "\n".join(lines)

    with np.load(first) as f:
        answers = dict(f)
    key = next(k for k in sorted(answers) if k.endswith("/b"))
    answers[key] = answers[key] + 1e-9
    answers["twin-tri/1/residual"] = answers["twin-tri/1/residual"] + 1e-9
    answers["cli/0/stdout"] = np.array("moved")
    flag = next(k for k in sorted(answers) if k.startswith("loose/") and k.endswith("/certified"))
    answers[flag] = ~answers[flag]
    np.savez(moved, **answers)
    assert module.compare(first, moved) == 1
    out = capsys.readouterr().out
    assert "bi b: 1 of " in out and "largest deviation 1e-09" in out
    assert "bi a: identical" in out and "bi values: identical" in out
    assert "twin-tri residual: 1 of 2 cases differ, largest deviation 1e-09" in out
    assert "cli stdout: 1 of " in out and "text differs in cli/0" in out
    assert "cli stderr: identical" in out
    assert "loose certified: 1 of 120 cases differ, largest deviation 1" in out


def test_a_refused_match_stores_its_class_and_message(same_answers):
    # a sixth weight of 1e-11, below eps: extraction returns the five heavy terms, within eps
    # of rho, and the match against the six-term source refuses them
    base = pd.generate_instance(6, 8, 8, seed=111, profile=pd.BI_PROFILES[111 % 3])
    weights = np.append(np.geomspace(1, 1e-3, 5), 1e-11)
    source = pd.ProductDecomposition._from_stacks(base.dims, base.stacks, weights)
    out = {}
    assert not same_answers._certified(out, "ill", source, same_answers._dense(source), 111)
    assert not out["ill/certified"] and out["ill/n"] == 5
    assert str(out["ill/refusal"]) == (
        "HypothesisViolation: term counts differ, 6 vs 5, although the operators agree within eps"
    )


def test_the_cli_grid_runs_every_subcommand_and_profile(same_answers):
    grid = [command.split() for command in same_answers.cli_grid(1)]
    subcommands = {"generate", "build", "extract", "match", "purify", "factorable", "demo", "check"}
    assert {argv[0] for argv in grid} == subcommands
    assert {argv[0] for argv in grid if "--tol" in argv} == {argv[0] for argv in grid}
    # check with a --tol it reads, and on an operator file and a 2-factor coefficient file, which read none
    checked = {argv[1] for argv in grid if argv[0] == "check" and "--tol" in argv}
    assert {"both-independent-0.json", "op-both-independent-0.json", "ent.json"} <= checked
    assert {"--twin-of", "--json"} <= {part for argv in grid for part in argv}
    profiles = {argv[argv.index("--profile") + 1] for argv in grid if "--profile" in argv}
    assert profiles == set(pd.BI_PROFILES + pd.TRI_PROFILES)
