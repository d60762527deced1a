import json
import math
import re
import subprocess
import sys

import pytest

def run_cli(*args, stdin=None):
    return subprocess.run([sys.executable, "-m", "quatosc.cli", *args],
                          input=stdin, capture_output=True, timeout=120)


def body_of(output: bytes) -> bytes:
    """Report body with the run-dependent wall-time footer removed."""
    out = re.sub(rb',\n  "wall_time_s": [^\n]+', b"", output)
    return re.sub(rb"# wall_time_s [^\n]*\n", b"", out)


def write_states(path, descriptors):
    path.write_text("".join(json.dumps(d) + "\n" for d in descriptors), encoding="utf-8")
    return str(path)


HO1D = [
    {"kind": "ho1d", "n": 1, "m": 2, "theta": math.pi / 4},
    {"kind": "ho1d", "n": 0, "m": 0, "theta": 0.3},
]


class TestSpectrum:
    def test_energies_and_deltas(self, tmp_path):
        states = write_states(tmp_path / "s.jsonl", HO1D)
        proc = run_cli("spectrum", "--states", states)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        rows = report["results"]["rows"]
        assert rows[0]["energy"] == pytest.approx(2.0, abs=1e-14)
        assert rows[1]["energy"] == pytest.approx(0.5, abs=1e-14)
        assert report["checks"]["max_delta_expectation"] <= 1e-10
        assert report["checks"]["max_delta_forms"] <= 1e-14
        assert report["checks"]["within_tolerance"] is True

    def test_reads_stdin(self):
        payload = "".join(json.dumps(d) + "\n" for d in HO1D).encode()
        proc = run_cli("spectrum", "--states", "-", stdin=payload)
        assert proc.returncode == 0

    def test_empty_input_is_usage_error(self, tmp_path):
        states = write_states(tmp_path / "s.jsonl", [])
        proc = run_cli("spectrum", "--states", states)
        assert proc.returncode == 1

    def test_missing_states_flag_is_usage_error(self):
        proc = run_cli("spectrum")
        assert proc.returncode == 1

    def test_unknown_field_is_validation_error(self, tmp_path):
        states = write_states(tmp_path / "s.jsonl", [{"kind": "ho1d", "n": 0, "m": 0, "spin": 1}])
        proc = run_cli("spectrum", "--states", states)
        assert proc.returncode == 2

    def test_malformed_json_is_validation_error(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"kind": "ho1d", not json\n', encoding="utf-8")
        proc = run_cli("spectrum", "--states", str(path))
        assert proc.returncode == 2

    def test_non_ho1d_rejected(self, tmp_path):
        states = write_states(tmp_path / "s.jsonl", [{"kind": "radial", "u": 0, "v": 0, "l": 0}])
        proc = run_cli("spectrum", "--states", states)
        assert proc.returncode == 2

    def test_csv_format(self, tmp_path):
        states = write_states(tmp_path / "s.jsonl", HO1D)
        proc = run_cli("spectrum", "--states", states, "--format", "csv")
        assert proc.returncode == 0
        lines = proc.stdout.decode().splitlines()
        assert lines[0].startswith("n,m,theta,energy")
        assert len([ln for ln in lines if not ln.startswith("#")]) == 1 + len(HO1D)

    def test_low_quadrature_order_warns_in_report(self, tmp_path):
        states = write_states(tmp_path / "s.jsonl",
                              [{"kind": "ho1d", "n": 8, "m": 8, "theta": 0.5}])
        proc = run_cli("spectrum", "--states", states, "--quad-order", "3")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["checks"]["warnings"]
        assert "quadrature order" in report["checks"]["warnings"][0]


class TestGram:
    def test_identity_for_disjoint_equal_angle(self, tmp_path):
        states = write_states(tmp_path / "g.jsonl", [
            {"kind": "ho1d", "n": 0, "m": 1, "theta": 0.6},
            {"kind": "ho1d", "n": 2, "m": 3, "theta": 0.6},
        ])
        proc = run_cli("gram", "--states", states)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        entries = report["results"]["entries"]
        assert entries[0][0] == pytest.approx(1.0, abs=1e-10)
        assert entries[0][1] == pytest.approx(0.0, abs=1e-10)
        assert report["checks"]["max_closed_form_deviation"] <= 1e-10
        assert report["checks"]["non_orthogonal_closed_form"] is False
        assert report["checks"]["max_quadrature_delta"] <= 1e-9
        assert report["checks"]["within_tolerance"] is True

    def test_non_orthogonal_flagged(self, tmp_path):
        states = write_states(tmp_path / "g.jsonl", [
            {"kind": "ho1d", "n": 0, "m": 1, "theta": math.pi / 3},
            {"kind": "ho1d", "n": 0, "m": 2, "theta": math.pi / 3},
        ])
        proc = run_cli("gram", "--states", states)
        report = json.loads(proc.stdout)
        assert report["results"]["entries"][0][1] == pytest.approx(0.25, abs=1e-10)
        assert report["checks"]["non_orthogonal_closed_form"] is True

    def test_spherical_pattern(self, tmp_path):
        states = write_states(tmp_path / "g.jsonl", [
            {"kind": "spherical", "l": 1, "m1": 0, "m2": 1, "theta": 0.5},
            {"kind": "spherical", "l": 2, "m1": 0, "m2": 1, "theta": 0.5},
        ])
        proc = run_cli("gram", "--states", states)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["results"]["entries"][0][1] == pytest.approx(0.0, abs=1e-9)

    def test_radial_entries(self, tmp_path):
        states = write_states(tmp_path / "g.jsonl", [
            {"kind": "radial", "u": 0, "v": 1, "l": 0, "theta": math.pi / 3},
            {"kind": "radial", "u": 0, "v": 2, "l": 0, "theta": math.pi / 3},
        ])
        proc = run_cli("gram", "--states", states)
        report = json.loads(proc.stdout)
        assert report["results"]["entries"][0][1] == pytest.approx(0.25, abs=1e-10)
        assert report["results"]["theta_equal"] == [[True, True], [True, True]]
        assert report["results"]["parallel"][0][0] is True

    def test_low_quadrature_order_warns_in_report(self, tmp_path):
        states = write_states(tmp_path / "g.jsonl", [
            {"kind": "ho1d", "n": 8, "m": 8, "theta": 0.5},
            {"kind": "ho1d", "n": 2, "m": 1, "theta": 0.5},
        ])
        proc = run_cli("gram", "--states", states, "--quad-order", "3")
        assert proc.returncode == 0
        warned = json.loads(proc.stdout)["checks"]["warnings"]
        # one warning, naming the family's largest product degree, 8 + 8
        assert len(warned) == 1 and "quadrature order 3" in warned[0] and "degree 16" in warned[0]

    def test_mixed_kinds_rejected(self, tmp_path):
        states = write_states(tmp_path / "g.jsonl", [
            {"kind": "ho1d", "n": 0, "m": 1, "theta": 0.6},
            {"kind": "radial", "u": 0, "v": 1, "l": 0, "theta": 0.6},
        ])
        proc = run_cli("gram", "--states", states)
        assert proc.returncode == 2

    def test_mixed_radial_l_rejected(self, tmp_path):
        states = write_states(tmp_path / "g.jsonl", [
            {"kind": "radial", "u": 0, "v": 1, "l": 0},
            {"kind": "radial", "u": 0, "v": 1, "l": 1},
        ])
        proc = run_cli("gram", "--states", states)
        assert proc.returncode == 2


class TestExitCodes:
    # beyond the moment route's precision horizon: the checks fail, or the
    # state is rejected as not normalized, and the exit code says so
    @pytest.mark.parametrize("command, pairs, code", [
        ("spectrum", [(25, 26)], 3),
        ("spectrum", [(40, 41)], 2),
        ("gram", [(40, 41), (1, 2)], 3),
    ])
    def test_failed_check_or_rejected_state(self, command, pairs, code, tmp_path):
        states = write_states(tmp_path / "s.jsonl",
                              [{"kind": "ho1d", "n": n, "m": m, "theta": 0.7} for n, m in pairs])
        proc = run_cli(command, "--states", states)
        assert proc.returncode == code
        assert b"Traceback" not in proc.stderr
        if code == 3:
            assert json.loads(proc.stdout)["checks"]["within_tolerance"] is False
        else:
            assert len(proc.stderr.decode().splitlines()) == 1


class TestVerify:
    @pytest.mark.parametrize("suite", ["algebra", "residual"])
    def test_suites_pass(self, suite):
        proc = run_cli("verify", suite)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["checks"]["all_passed"] is True

    def test_impossible_tolerance_fails(self):
        proc = run_cli("verify", "ladder", "--tol", "1e-30")
        assert proc.returncode == 3
        report = json.loads(proc.stdout)
        assert report["checks"]["failed"]

    def test_unknown_suite_is_usage_error(self):
        proc = run_cli("verify", "everything")
        assert proc.returncode == 1


class TestSample:
    def test_even_state_symmetric(self, tmp_path):
        states = write_states(tmp_path / "s.jsonl", [{"kind": "ho1d", "n": 0, "m": 0, "theta": 0.0}])
        proc = run_cli("sample", "--states", states, "--grid", "-4:4:9")
        assert proc.returncode == 0
        rows = json.loads(proc.stdout)["results"]["rows"]
        assert len(rows) == 9
        mags = [r[5] for r in rows]
        assert mags == pytest.approx(mags[::-1], abs=1e-14)

    def test_pure_slot1_state(self, tmp_path):
        states = write_states(tmp_path / "s.jsonl",
                              [{"kind": "ho1d", "n": 0, "m": 1, "theta": math.pi / 2}])
        proc = run_cli("sample", "--states", states, "--grid", "-3:3:7", "--format", "csv")
        assert proc.returncode == 0
        lines = [ln for ln in proc.stdout.decode().splitlines()
                 if ln and not ln.startswith(("x,", "#"))]
        assert len(lines) == 7
        for ln in lines:
            _, re_z0, im_z0, *_ = ln.split(",")
            assert abs(float(re_z0)) <= 1e-15
            assert abs(float(im_z0)) <= 1e-15

    def test_radial_state_sampled(self, tmp_path):
        states = write_states(tmp_path / "s.jsonl",
                              [{"kind": "radial", "u": 0, "v": 1, "l": 1, "theta": 0.4}])
        proc = run_cli("sample", "--states", states, "--grid", "0.1:5:12")
        assert proc.returncode == 0
        assert len(json.loads(proc.stdout)["results"]["rows"]) == 12

    @pytest.mark.parametrize("grid", ["4:-4:9", "0:1:1", "a:b:c", "1:2"])
    def test_bad_grid_is_validation_error(self, grid, tmp_path):
        states = write_states(tmp_path / "s.jsonl", [{"kind": "ho1d", "n": 0, "m": 0}])
        proc = run_cli("sample", "--states", states, "--grid", grid)
        assert proc.returncode == 2

    def test_two_descriptors_rejected(self, tmp_path):
        states = write_states(tmp_path / "s.jsonl", HO1D)
        proc = run_cli("sample", "--states", states, "--grid", "-1:1:3")
        assert proc.returncode == 2


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("spectrum",), ("gram",), ("sample", "--grid", "-2:2:5"),
        ("sample", "--grid", "-2:2:5", "--format", "csv"),
    ])
    def test_byte_identical_bodies(self, argv, tmp_path):
        states = write_states(tmp_path / "s.jsonl",
                              [{"kind": "ho1d", "n": 1, "m": 2, "theta": 0.7}]
                              if argv[0] == "sample" else HO1D)
        first = run_cli(*argv, "--states", states)
        second = run_cli(*argv, "--states", states)
        assert first.returncode == second.returncode == 0
        assert body_of(first.stdout) == body_of(second.stdout)
        assert first.stdout != b""

    def test_report_round_trips(self, tmp_path):
        states = write_states(tmp_path / "s.jsonl", HO1D)
        proc = run_cli("spectrum", "--states", states)
        report = json.loads(proc.stdout)
        again = json.loads(json.dumps(report))
        assert again == report
        # re-serializing the parsed report reproduces the body byte for byte
        report.pop("wall_time_s")
        assert (json.dumps(report, indent=2) + "\n").encode() == body_of(proc.stdout)


class TestUnitsAndFlags:
    def test_energy_unit_follows_params(self, tmp_path):
        states = write_states(tmp_path / "s.jsonl", [{"kind": "ho1d", "n": 1, "m": 1, "theta": 0.2}])
        base = json.loads(run_cli("spectrum", "--states", states).stdout)
        scaled = json.loads(run_cli("spectrum", "--states", states,
                                    "--omega", "3.0", "--mu", "2.0").stdout)
        # energies are reported in units of hbar*omega, so the table is invariant
        assert scaled["results"]["rows"][0]["energy"] == base["results"]["rows"][0]["energy"]
        assert scaled["checks"]["max_delta_expectation"] <= 1e-10

    def test_descriptor_params_override(self, tmp_path):
        states = write_states(tmp_path / "s.jsonl", [
            {"kind": "ho1d", "n": 0, "m": 0, "theta": 0.0, "params": {"omega": 2.0}},
        ])
        proc = run_cli("spectrum", "--states", states)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["rows"][0]["energy"] == pytest.approx(0.5)

    def test_conflicting_params_in_gram(self, tmp_path):
        states = write_states(tmp_path / "g.jsonl", [
            {"kind": "ho1d", "n": 0, "m": 1, "theta": 0.2, "params": {"omega": 2.0}},
            {"kind": "ho1d", "n": 2, "m": 3, "theta": 0.2},
        ])
        proc = run_cli("gram", "--states", states)
        assert proc.returncode == 2

    def test_split_overlap_flag(self, tmp_path):
        desc = {"kind": "split", "dims": 2, "slot0_dims": [0, 1], "slot1_dims": [1],
                "n": 0, "m": 0, "theta": 0.4}
        states = write_states(tmp_path / "s.jsonl", [desc, desc])
        rejected = run_cli("gram", "--states", states)
        assert rejected.returncode == 2
