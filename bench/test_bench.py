"""Self-tests of the benchmark's own checks and tracer.

    python3 -m pytest -q bench/test_bench.py

Each wrong output must count as a failed operation, and the traced run must
leave quatosc exactly as it found it.
"""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import refcheck  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import quatosc  # noqa: E402
from quatosc import cli  # noqa: E402

FAMILY = [{"kind": "ho1d", "n": 0, "m": 1, "theta": 0.4},
          {"kind": "ho1d", "n": 2, "m": 1, "theta": 0.4},
          {"kind": "ho1d", "n": 3, "m": 3, "theta": 1.1}]


def failed_count(op, output) -> int:
    tally = run.Tally()
    tally.record(op, output, 0.01)
    return tally.failed


@pytest.fixture
def gram_op(tmp_path):
    return workloads.GramOp(cli, FAMILY, str(tmp_path / "family.jsonl"))


def test_correct_gram_passes(gram_op):
    output = gram_op.run()
    assert failed_count(gram_op, output) == 0
    assert min(refcheck.digits(d) for d in gram_op.check(output)) > 12


def test_gram_entry_off_by_1e8_fails(gram_op):
    code, text = gram_op.run()
    report = json.loads(text)
    report["results"]["entries"][0][1] += 1e-8
    assert failed_count(gram_op, (code, json.dumps(report))) == 1


@pytest.mark.parametrize("text", ["", "not json", '{"command": "gram"'])
def test_unparsable_report_fails(gram_op, text):
    assert failed_count(gram_op, (0, text)) == 1


def test_nonzero_exit_fails(gram_op):
    code, text = gram_op.run()
    assert failed_count(gram_op, (3, text)) == 1


def test_wrong_energy_fails():
    op = workloads.state_algebra(seed=3, workdir="")[0]
    energy, norm, values, residual = op.run()
    assert failed_count(op, (energy, norm, values, residual)) == 0
    assert failed_count(op, (energy + 1e-6, norm, values, residual)) == 1


def test_raising_operation_fails():
    op = workloads.state_algebra(seed=3, workdir="")[0]
    assert failed_count(op, ValueError("boom")) == 1


def test_cli_child_nonzero_exit_fails(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"kind": "ho1d", "n": -1, "m": 0}\n', encoding="utf-8")
    op = workloads.CliOp("gram", ["--states", str(bad)], lambda r: [], ROOT, str(tmp_path))
    output = op.run()
    assert output[0] == 2
    assert failed_count(op, output) == 1


def test_sample_reference_matches_program(tmp_path):
    ops = workloads.cli_cold(seed=5, workdir=str(tmp_path), root=ROOT)
    sample = next(op for op in ops if op.kind == "sample")
    output = sample.run()
    assert failed_count(sample, output) == 0


class _Fixed:
    kind = "fixed"

    def run(self):
        return 1.0

    def check(self, output):
        return [abs(output - 1.0)]


def test_runs_whole_rounds():
    ops = [_Fixed(), _Fixed(), _Fixed()]
    tally = run.timed_phase(ops, seconds=0.01)
    assert tally.attempted % len(ops) == 0 and tally.failed == 0
    assert tally.digits_min == 16.0
    assert len(tally.round_costs) == tally.attempted // len(ops)


def test_traced_run_counts_each_operation_once(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    args = run.parse_args(["--workload", "state-algebra", "--seed", "1", "--seconds", "0.01"])
    ops = [_Fixed(), _Fixed()]
    tally, traced, _, _ = run.traced_phase(args, ops, seconds=0.01)
    assert tally.attempted == traced.attempted
    assert tally.attempted > 0 and tally.attempted % len(ops) == 0
    assert tally.failed == traced.failed == 0


def _function_bindings():
    return {(name, attr): obj for name, m in sys.modules.items()
            if m is not None and name.startswith("quatosc")
            for attr, obj in vars(m).items() if inspect.isfunction(obj)}


def test_tracer_wraps_every_binding_and_restores(tmp_path):
    before = _function_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from quatosc import multidim, oscillator1d, quaternion, wavestate
        # by-name imports are wrapped too, all with one wrapper per function
        assert cli.gram is oscillator1d.gram is not before[("quatosc.oscillator1d", "gram")]
        assert multidim.is_parallel is quaternion.is_parallel is oscillator1d.is_parallel
        assert quatosc.inner is wavestate.inner
        op = workloads.GramOp(cli, FAMILY, str(tmp_path / "family.jsonl"))
        assert failed_count(op, op.run()) == 0
    finally:
        tracer.restore()
    after = _function_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    counts = tracing.self_times(tracer.take())
    assert counts["cli.main"][0] == 1
    # psi_nm is reached only through names bound in cli and oscillator1d
    assert counts["oscillator1d.psi_nm"][0] >= len(FAMILY)


def test_self_time_subtracts_direct_children():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("b", 5.0, 6.0, 0)]
    out = tracing.self_times(spans)
    assert out["a"] == [1, pytest.approx(6.0)]
    assert out["b"] == [2, pytest.approx(3.0)]
    assert out["c"] == [1, pytest.approx(1.0)]


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in ("run.py", "refcheck.py", "tracing.py", "workloads.py"):
        (bench / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "cli-cold",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""
