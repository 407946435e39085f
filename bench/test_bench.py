"""Tests of the benchmark itself: ``python -m pytest bench``.

The smoke run exercises every workload at toy size, untraced and traced,
with every output and count check on.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_is_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert {w["name"] for w in spec["workloads"]} == {"landscape", "release", "audit"}


def test_tracer_restores_every_entry_point():
    m = run.import_privsynth()
    before = {(id(owner), attr): owner.__dict__[attr]
              for owner, attr, *_ in Tracer(m)._targets()}
    tracer = Tracer(m)
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not before[(id(owner), attr)]
                   for owner, attr, *_ in tracer._targets())
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is before[(id(owner), attr)]
               for owner, attr, *_ in tracer._targets())


@pytest.mark.parametrize("seed", ["1729", "7"])
def test_smoke_passes_every_check(seed):
    proc = _bench("--smoke", "--seed", seed)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"smoke": "ok"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "audit", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
