"""The seeded battery script's exit status."""

import importlib.util
from pathlib import Path

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
