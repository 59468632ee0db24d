"""Smoke runs of the scripts in scripts/, through their main()."""

import importlib.util
import pathlib
import re
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_illcond_one_angle(monkeypatch, capsys):
    script = load_script("run_illcond")
    monkeypatch.setattr(sys, "argv", ["run_illcond.py", "--angles", "44"])
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:2] == ["theta", "cond"]
    assert [line.split()[0] for line in lines[1:] if line] == ["44.0", "wall_time"]
    assert re.fullmatch(r"wall_time = \d+\.\d{3}s", lines[-1])
