"""The scripts: the seeded battery's exit status and the same-answers dump and compare."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

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


def test_same_answers_compares_dumps(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("same_answers", SCRIPT.parent / "same_answers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    first, second, moved = (str(tmp_path / name) for name in ("first.npz", "second.npz", "moved.npz"))
    for path in (first, second):
        module.dump(path, count=2, seeds=2, bench_seeds=[])
    capsys.readouterr()
    assert module.compare(first, second) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(": identical (" in line for line in lines)

    with np.load(first) as f:
        answers = dict(f)
    key = next(k for k in sorted(answers) if k.endswith("/b"))
    answers[key] = answers[key] + 1e-9
    np.savez(moved, **answers)
    assert module.compare(first, moved) == 1
    out = capsys.readouterr().out
    assert "bi b: 1 of " in out and "largest deviation 1e-09" in out
    assert "bi a: identical" in out and "bi values: identical" in out
