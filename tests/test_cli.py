import contextlib
import csv
import gc
import io
import json
import math
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatosc import cli, multidim, oscillator1d, specfun, wavestate

def run_cli(*args, stdin=None, rule=None):
    """quatosc in a fresh process; given rule, with a defect planted in the CLI's
    rule choice: every quadrature rule it makes has that many nodes."""
    if rule is None:
        return subprocess.run([sys.executable, "-m", "quatosc.cli", *args],
                              input=stdin, capture_output=True, timeout=120)
    plant = ("import sys; from quatosc import cli, specfun; "
             f"cli.make_rule = lambda kind, order: specfun.make_rule(kind, {rule}); "
             "sys.exit(cli.main(sys.argv[1:]))")
    return subprocess.run([sys.executable, "-c", plant, *args], input=stdin, capture_output=True, timeout=120)


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


FAMILIES = {
    "ho1d": HO1D + [{"kind": "ho1d", "n": 8, "m": 3, "theta": 0.5}],
    "radial": [{"kind": "radial", "u": 0, "v": 1, "l": 1, "theta": 0.4},
               {"kind": "radial", "u": 2, "v": 0, "l": 1, "theta": 1.1}],
    "spherical": [{"kind": "spherical", "l": 2, "m1": 1, "m2": -2, "theta": 0.4},
                  {"kind": "spherical", "l": 1, "m1": 0, "m2": 1, "theta": 0.4}],
}


def _refuse_to_build(*args, **kwargs):
    raise AssertionError("a state was built")


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

    @pytest.mark.parametrize("kind", ["ho1d", "radial", "spherical"])
    def test_gram_csv_rows_are_the_entries(self, kind, tmp_path):
        # the rows written as [[float(x) for x in row] for row in g.entries], bytes pinned
        descriptors = {
            "ho1d": HO1D + [{"kind": "ho1d", "n": 8, "m": 3, "theta": 0.5}],
            "radial": [{"kind": "radial", "u": 0, "v": 1, "l": 1, "theta": 0.4},
                       {"kind": "radial", "u": 2, "v": 0, "l": 1, "theta": 1.1}],
            "spherical": [{"kind": "spherical", "l": 2, "m1": 1, "m2": -2, "theta": 0.4},
                          {"kind": "spherical", "l": 1, "m1": 0, "m2": 1, "theta": 0.4}],
        }[kind]
        if kind == "ho1d":
            g = oscillator1d.gram([oscillator1d.QPair(d["n"], d["m"], d["theta"]) for d in descriptors])
        elif kind == "radial":
            g = multidim.radial_gram([multidim.radial_state(d["u"], d["v"], d["l"], d["theta"])
                                      for d in descriptors])
        else:
            g = multidim.angular_gram([multidim.QSphericalHarmonic(d["l"], d["m1"], d["m2"], d["theta"])
                                       for d in descriptors])
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow([f"g{j}" for j in range(len(descriptors))])
        writer.writerows([repr(v) for v in row] for row in [[float(x) for x in r] for r in g.entries])
        path = write_states(tmp_path / "s.jsonl", descriptors)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["gram", "--states", path, "--format", "csv"]) == 0
        assert body_of(out.getvalue().encode()) == want.getvalue().encode()

    def test_low_quadrature_order_warns_in_report(self, tmp_path):
        states = write_states(tmp_path / "s.jsonl",
                              [{"kind": "ho1d", "n": 8, "m": 8, "theta": 0.5}])
        proc = run_cli("spectrum", "--states", states, rule=3)
        assert proc.returncode == 3  # the quadrature route is spectrum's gate too
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
        proc = run_cli("gram", "--states", states, rule=3)
        assert proc.returncode == 3  # the quadrature route is gram's ho1d gate
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
    # a quadrature rule too coarse for the family (a planted defect) fails gram's
    # check; a level above DEGREE_CAP is rejected; every level up to the cap
    # passes both routes
    @pytest.mark.parametrize("command, pairs, rule, code", [
        pytest.param("gram", [(40, 41), (1, 2)], 20, 3, id="gram-coarse-rule-3"),
        pytest.param("spectrum", [(201, 0)], None, 2, id="spectrum-above-cap-2"),
        pytest.param("spectrum", [(40, 41)], None, 0, id="spectrum-40-41-0"),
        pytest.param("spectrum", [(200, 199)], None, 0, id="spectrum-200-199-0"),
        pytest.param("gram", [(40, 41)], None, 0, id="gram-40-41-0"),
        pytest.param("gram", [(200, 199)], None, 0, id="gram-200-199-0"),
    ])
    def test_failed_check_or_rejected_state(self, command, pairs, rule, code, tmp_path):
        states = write_states(tmp_path / "s.jsonl",
                              [{"kind": "ho1d", "n": n, "m": m, "theta": 0.7} for n, m in pairs])
        proc = run_cli(command, "--states", states, rule=rule)
        assert proc.returncode == code
        assert b"Traceback" not in proc.stderr
        if code == 2:
            assert len(proc.stderr.decode().splitlines()) == 1
        else:
            assert json.loads(proc.stdout)["checks"]["within_tolerance"] is (code == 0)

    # inputs that once ended in a traceback: a number past the double range, params
    # whose alpha underflows to 0 or overflows, and nesting past the recursion limit
    @pytest.mark.parametrize("command", ["gram", "spectrum"])
    @pytest.mark.parametrize("line, extra", [
        pytest.param('{"kind": "ho1d", "n": 1, "m": 0, "theta": 1' + "0" * 400 + "}", [], id="theta-1e400"),
        pytest.param('{"kind": "ho1d", "n": 1, "m": 0, "params": {"mu": 1e-308, "omega": 1e-308}}', [],
                     id="params-1e-308"),
        pytest.param('{"kind": "ho1d", "n": 1, "m": 0}', ["--mu", "1e-308", "--omega", "1e-308"], id="args-1e-308"),
        pytest.param('{"kind": "ho1d", "n": 1, "m": 0, "params": {"mu": 1e308, "omega": 1e308}}', [],
                     id="params-1e308"),
        pytest.param("[" * 200000 + "]" * 200000, [], id="nested-200000"),
    ])
    def test_former_traceback_input_is_validation_error(self, command, line, extra, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        proc = run_cli(command, "--states", str(path), *extra)
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr
        assert len(proc.stderr.decode().splitlines()) == 1

    # valid JSON whose field types are wrong: rejected with one line, not a
    # traceback, and never coerced
    @pytest.mark.parametrize("desc", [
        {"kind": ["ho1d"], "n": 0, "m": 0},
        {"kind": "ho1d", "n": 0, "m": 0, "params": {"mu": [1]}},
        {"kind": "ho1d", "n": 0, "m": 0, "params": {"mu": "2"}},
        {"kind": "ho1d", "n": 0, "m": 0, "params": {"mu": True}},
    ])
    def test_wrong_field_type_is_validation_error(self, desc, tmp_path):
        proc = run_cli("spectrum", "--states", write_states(tmp_path / "s.jsonl", [desc]))
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr
        assert len(proc.stderr.decode().splitlines()) == 1

    # a kind the command does not accept, or one the CLI does not know (the
    # library-only product and split), exits 2 before any state is built
    @pytest.mark.parametrize("argv", [["spectrum"], ["gram"], ["sample", "--grid", "-3:3:7"]])
    def test_unsupported_kind_is_rejected_unbuilt(self, argv, tmp_path, monkeypatch):
        for name in ("psi_nm", "radial_state", "QSphericalHarmonic"):
            monkeypatch.setattr(cli, name, _refuse_to_build)
        radial = {"kind": "radial", "u": 0, "v": 0, "l": 0}
        spherical = {"kind": "spherical", "l": 1, "m1": 0, "m2": 1}
        not_accepted = {"spectrum": [radial, spherical], "gram": [], "sample": [spherical]}[argv[0]]
        unknown = [
            {"kind": "product", "factors": [{"n": k % 3, "m": 1, "theta": 0.4} for k in range(40)]},
            {"kind": "split", "dims": 2, "slot0_dims": [0, 1], "slot1_dims": [1],
             "n": 0, "m": 0, "theta": 0.4},
        ]
        for desc in not_accepted + unknown:
            path = write_states(tmp_path / "s.jsonl", [desc])
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([*argv, "--states", path])
            assert code == 2
            assert len(err.getvalue().splitlines()) == 1
            assert ("unknown state kind" in err.getvalue()) is (desc in unknown)

    def test_mixed_gram_kinds_are_rejected_unbuilt(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "psi_nm", _refuse_to_build)
        radial = {"kind": "radial", "u": 0, "v": 0, "l": 0}
        path = write_states(tmp_path / "s.jsonl", [HO1D[0], radial])
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert cli.main(["gram", "--states", path]) == 2
        assert "homogeneous" in err.getvalue()

    @pytest.mark.parametrize("desc", [
        pytest.param({"u": 201, "v": 0, "l": 0}, id="u-201"),
        pytest.param({"u": 5, "v": 0, "l": 201}, id="l-201"),
        pytest.param({"u": 0, "v": 0, "l": 10**6}, id="l-1e6"),
    ])
    def test_radial_label_above_cap_rejected(self, desc, tmp_path):
        states = write_states(tmp_path / "s.jsonl", [{"kind": "radial", "theta": 0.3, **desc}])
        proc = run_cli("gram", "--states", states)
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr
        assert len(proc.stderr.decode().splitlines()) == 1

    def test_huge_radial_l_rejected_before_any_rule(self, tmp_path):
        # l sets the half-line rule order; l = 10**6 must not reach an eigenproblem
        states = write_states(tmp_path / "s.jsonl",
                              [{"kind": "radial", "u": 0, "v": 0, "l": 10**6, "theta": 0.3}])
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["gram", "--states", states])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and len(err.getvalue().splitlines()) == 1

    @pytest.mark.parametrize("l", [201, 10**6])
    def test_spherical_label_above_cap_rejected(self, l, tmp_path):
        # l = 10**6 must be rejected at once, not run a million-step Legendre pass
        states = write_states(tmp_path / "s.jsonl",
                              [{"kind": "spherical", "l": l, "m1": 0, "m2": 0, "theta": 0.3}])
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["gram", "--states", states])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and len(err.getvalue().splitlines()) == 1
        proc = run_cli("gram", "--states", states)
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr
        assert len(proc.stderr.decode().splitlines()) == 1

    def test_spherical_gram_at_the_cap(self, tmp_path):
        states = write_states(tmp_path / "s.jsonl", [
            {"kind": "spherical", "l": l, "m1": m1, "m2": m2, "theta": 0.7}
            for l, m1, m2 in [(200, 0, 1), (200, 200, -200), (199, 5, -7), (150, 150, 149),
                              (0, 0, 0), (1, -1, 1), (200, -3, 3)]])
        proc = run_cli("gram", "--states", states)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["checks"]["max_closed_form_deviation"] <= 1e-12
        assert report["inputs"]["quad_order"] == 201  # angular_order: l_max + 1

    def test_radial_gram_at_the_cap(self, tmp_path):
        states = write_states(tmp_path / "s.jsonl", [
            {"kind": "radial", "u": 200, "v": 199, "l": 2, "theta": 0.7},
            {"kind": "radial", "u": 198, "v": 200, "l": 2, "theta": 0.7},
            {"kind": "radial", "u": 0, "v": 1, "l": 2, "theta": 0.7},
        ])
        proc = run_cli("gram", "--states", states)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["checks"]["max_closed_form_deviation"] <= 1e-12

    # spectrum and ho1d gram take the Gauss-Hermite order of the family: top
    # level + 2 (H psi keeps psi's width, so + 1 is exact; + 2 keeps one node
    # in reserve) and + 1
    @pytest.mark.parametrize("command, pairs, order", [
        pytest.param("spectrum", [(64, 0, 0.3)], 66, id="spectrum-64-0"),
        pytest.param("spectrum", [(200, 199, 0.7)], 202, id="spectrum-200-199"),
        pytest.param("gram", [(200, 199, 0.7)], 201, id="gram-200-199"),
    ])
    def test_default_order_is_exact_for_the_family(self, command, pairs, order, tmp_path):
        states = write_states(tmp_path / "s.jsonl",
                              [{"kind": "ho1d", "n": n, "m": m, "theta": th} for n, m, th in pairs])
        proc = run_cli(command, "--states", states)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["inputs"]["quad_order"] == order
        assert report["checks"]["within_tolerance"] is True


def test_ho1d_gram_stacks_its_family_once(tmp_path, monkeypatch):
    # the parallelism values and both Gram routes share one stack of the family
    calls = []
    stacked = wavestate._stacked
    monkeypatch.setattr(wavestate, "_stacked", lambda states: calls.append(len(states)) or stacked(states))
    path = write_states(tmp_path / "s.jsonl", [{"kind": "ho1d", "n": n, "m": 3, "theta": 0.5} for n in range(6)])
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gram", "--states", path, "--time", "0.4"]) == 0
    assert calls == [6]


class TestRadialNegativeControls:
    # a defect planted in the radial values makes verify radial exit 3

    @staticmethod
    def _verify_radial():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "radial"])
        return code, json.loads(out.getvalue())

    def test_wrong_laguerre_alpha_fails(self, monkeypatch):
        laguerre = multidim.laguerre
        # alpha = l - 1/2 in place of l + 1/2, also in the derivatives' alpha + 1, alpha + 2
        monkeypatch.setattr(multidim, "laguerre", lambda u, alpha, x: laguerre(u, alpha - 1.0, x))
        code, report = self._verify_radial()
        assert code == 3
        assert "radial_gram_matches_closed_form" in report["checks"]["failed"]

    def test_dropped_sqrt2_in_norm_const_fails(self, monkeypatch):
        norm_const = multidim.laguerre_norm_const
        monkeypatch.setattr(multidim, "laguerre_norm_const",
                            lambda u, l: norm_const(u, l) / math.sqrt(2.0))
        code, report = self._verify_radial()
        assert code == 3
        assert "radial_gram_matches_closed_form" in report["checks"]["failed"]


class TestAngularNegativeControls:
    # a wrong coefficient in the Legendre degree recurrence makes the angular checks exit 3

    @pytest.fixture(autouse=True)
    def wrong_degree_step(self, monkeypatch):
        def step(k, m):  # b with (k - 1)^2 + m^2 in place of (k - 1)^2 - m^2
            a = math.sqrt((4.0 * k * k - 1.0) / (k * k - m * m))
            return a, math.sqrt(((k - 1.0) ** 2 + m * m) / (4.0 * (k - 1.0) ** 2 - 1.0))
        monkeypatch.setattr(specfun, "_degree_step", step)

    def test_verify_angular_fails(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "angular"])
        assert code == 3
        assert "angular_gram_matches_closed_form" in json.loads(out.getvalue())["checks"]["failed"]

    def test_spherical_gram_fails(self, tmp_path):
        states = write_states(tmp_path / "s.jsonl", [
            {"kind": "spherical", "l": 3, "m1": 1, "m2": -2, "theta": 0.4},
            {"kind": "spherical", "l": 5, "m1": 1, "m2": 0, "theta": 0.4}])
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["gram", "--states", states])
        assert code == 3
        assert json.loads(out.getvalue())["checks"]["within_tolerance"] is False


class TestNegativeControls:
    # a defect planted in one route makes the check that covers it exit 3

    @staticmethod
    def _report(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, json.loads(out.getvalue())

    def test_flipped_derivative_band_fails_ladder_suite(self, monkeypatch):
        band_shift = wavestate._band_shift

        def flipped(c, upper_sign):
            out = band_shift(c, upper_sign)
            # d/dX with its lower band negated; band_shift(c, 0) is that band alone
            return out - 2.0 * band_shift(c, 0.0) if upper_sign < 0 else out

        monkeypatch.setattr(wavestate, "_band_shift", flipped)
        code, report = self._report(["verify", "ladder"])
        assert code == 3
        assert "ladder_commutator_is_identity" in report["checks"]["failed"]

    @staticmethod
    def _wrong_recurrence(count, x):
        """The normalized Hermite recurrence with sqrt(2/n) for sqrt(2/(n+1)) at n = 3."""
        h = np.empty((count, x.size))
        h[0] = math.pi ** -0.25
        if count > 1:
            h[1] = math.sqrt(2.0) * x * h[0]
        for n in range(1, count - 1):
            a = math.sqrt(2.0 / (n if n == 3 else n + 1))
            h[n + 1] = a * x * h[n] - math.sqrt(n / (n + 1)) * h[n - 1]
        return h

    def test_wrong_recurrence_fails_ladder_suite(self, monkeypatch):
        monkeypatch.setattr(wavestate, "_hermite_functions", self._wrong_recurrence)
        code, report = self._report(["verify", "ladder"])
        assert code == 3
        assert report["checks"]["failed"] == ["hermite_functions_orthonormal_by_quadrature"]

    # a NaN deviation fails its check: max and min drop a NaN that follows a number
    @staticmethod
    def _nan_on_call(real, k):
        """real, but NaN on its k-th call."""
        calls = []

        def patched(*args, **kwargs):
            calls.append(args)
            return math.nan if len(calls) == k else real(*args, **kwargs)
        return patched

    def test_nan_residual_fails_residual_suite(self, monkeypatch):
        monkeypatch.setattr(cli, "schrodinger_residual", self._nan_on_call(cli.schrodinger_residual, 3))
        code, report = self._report(["verify", "residual"])
        assert code == 3
        assert report["checks"]["failed"] == ["schrodinger_residual_on_solutions"]

    def test_nan_shifted_residual_fails_radial_suite(self, monkeypatch):
        real = cli.radial_ode_residual

        def patched(state, energies=None, grid=None):
            return math.nan if state.u == 1 and energies is not None else real(state, energies, grid)

        monkeypatch.setattr(cli, "radial_ode_residual", patched)
        code, report = self._report(["verify", "radial"])
        assert code == 3
        assert report["checks"]["failed"] == ["radial_residual_detects_energy_shift"]

    def test_nan_quadrature_energy_fails_spectrum(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "inner_quad", self._nan_on_call(cli.inner_quad, 2))
        code, report = self._report(["spectrum", "--states", write_states(tmp_path / "s.jsonl", HO1D)])
        assert code == 3
        assert math.isnan(report["checks"]["max_delta_quadrature"])
        assert report["checks"]["within_tolerance"] is False

    def test_wrong_recurrence_fails_ho1d_gram(self, monkeypatch, tmp_path):
        monkeypatch.setattr(wavestate, "_hermite_functions", self._wrong_recurrence)
        path = write_states(tmp_path / "g.jsonl", [{"kind": "ho1d", "n": 5, "m": 2, "theta": 0.7},
                                                   {"kind": "ho1d", "n": 1, "m": 4, "theta": 0.7}])
        code, report = self._report(["gram", "--states", path])
        assert code == 3
        assert report["checks"]["max_closed_form_deviation"] <= 1e-10
        assert report["checks"]["max_quadrature_delta"] > 1e-10


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

    def test_zero_tolerance_is_honoured(self, capsys):
        # --tol 0 is a tolerance, not a missing one: every check bounded by --tol takes 0
        assert cli.main(["verify", "all", "--tol", "0"]) == cli.EXIT_CHECK_FAILED
        report = json.loads(capsys.readouterr().out)
        assert report["inputs"]["tol"] == 0.0
        bounded = [c for c in report["results"]["checks"] if c["comparison"] == "<="]
        assert len(bounded) == 15 and all(c["threshold"] == 0.0 for c in bounded)
        assert all(c["passed"] is (c["value"] == 0.0) for c in bounded)


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

    @pytest.mark.parametrize("count", [cli.GRID_CAP + 1, 10 ** 10])
    def test_grid_count_above_the_cap_is_rejected(self, count, tmp_path, capsys):
        # 10^10 points once ended in a memory-error traceback (exit 1)
        states = write_states(tmp_path / "s.jsonl", HO1D[:1])
        assert cli.main(["sample", "--states", states, "--grid", f"0:1:{count}"]) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and str(cli.GRID_CAP) in err
        assert len(cli._parse_grid(f"0:1:{cli.GRID_CAP}")) == cli.GRID_CAP


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


# --- report emission --------------------------------------------------------

_EDGE_TEXT = st.sampled_from(['"', '", "', '"[', "[", "]", "{}", "[]", "], [", "},\n  {",
                              ",\n    ", ": ", "\\", "\n", "", "\u03c8\u2248\u00fc"])
_TEXT = st.one_of(st.text(max_size=6), _EDGE_TEXT)
_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(-10**20, 10**20),
                    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]),
                    _TEXT)
_ROWS = st.one_of(
    st.lists(st.lists(_SCALAR, max_size=4), max_size=4),   # ragged, with empty rows
    st.lists(st.lists(st.floats(allow_nan=True), min_size=3, max_size=3), max_size=4),
    st.lists(st.dictionaries(_TEXT, _SCALAR, max_size=3), max_size=4),
    st.lists(st.tuples(_SCALAR, _SCALAR), max_size=3),
    st.lists(st.one_of(st.lists(_SCALAR, min_size=1, max_size=3),
                       st.dictionaries(_TEXT, _SCALAR, min_size=1, max_size=3)), max_size=4),
    st.lists(st.lists(st.lists(st.lists(_SCALAR, max_size=2), max_size=2), max_size=2), max_size=2),
)
_TREE = st.recursive(st.one_of(_SCALAR, _ROWS),
                     lambda kids: st.one_of(st.lists(kids, max_size=4),
                                            st.dictionaries(_TEXT, kids, max_size=4)),
                     max_leaves=16)


def _emitted(monkeypatch, argv):
    """(stdout, exit code, the report dict _finish was given) of one in-process run."""
    reports = []
    finish = cli._finish

    def spy(args, t0, report, header, rows):
        reports.append(report)
        return finish(args, t0, report, header, rows)

    monkeypatch.setattr(cli, "_finish", spy)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return out.getvalue(), code, reports[0]


class TestEmitter:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tree=_TREE)
    def test_generated_trees_match_indent_2(self, tree):
        assert cli._emit(tree) == json.dumps(tree, indent=2)

    @pytest.mark.parametrize("tree", [
        [[1, [2]], 3], [[1], {"a": 1}], [[1], (2, 3)], [[], [1]], [[1], []], [{}, {"a": 1}],
        [{"a": []}], [["x, y", "]"], ["[", "{"]], {"k": [[1.5, -0.0], [math.nan, -math.inf]]},
        [[True, False], [None, 2]], {1: [1], 2.5: {"a": None}, True: [], None: {}},
    ], ids=repr)
    def test_mixed_and_empty_rows_match_indent_2(self, tree):
        assert cli._emit(tree) == json.dumps(tree, indent=2)

    # fixed ids: gram --conjugate-angular on ho1d (flags1) and radial (flags3) is refused,
    # see TestUnitsAndFlags.test_conjugate_angular_on_a_kind_without_harmonics_is_rejected
    _REPORTS = {
        "gram-ho1d-flags0": ("gram", "ho1d", [], None),
        "gram-radial-flags2": ("gram", "radial", [], None),
        "gram-spherical-flags4": ("gram", "spherical", [], None),
        "gram-spherical-flags5": ("gram", "spherical", ["--conjugate-angular"], None),
        "gram-ho1d-flags6": ("gram", "ho1d", [], 3),  # a planted coarse rule: a failed check, with warning strings
        "spectrum-ho1d-flags7": ("spectrum", "ho1d", [], None),
        "sample-ho1d-flags8": ("sample", "ho1d", ["--grid", "-2:2:5"], None),
        "sample-radial-flags9": ("sample", "radial", ["--grid", "0.5:4:6"], None),
    }

    @pytest.mark.parametrize("command, kind, flags, rule", list(_REPORTS.values()), ids=list(_REPORTS))
    def test_command_reports_are_indent_2_bytes(self, command, kind, flags, rule, tmp_path, monkeypatch):
        if rule is not None:
            monkeypatch.setattr(cli, "make_rule", lambda rule_kind, order: specfun.make_rule(rule_kind, rule))
        states = FAMILIES[kind]
        path = write_states(tmp_path / "s.jsonl", states[:1] if command == "sample" else states)
        text, _, report = _emitted(monkeypatch, [command, "--states", path, *flags])
        wall = json.loads(text)["wall_time_s"]
        assert text == json.dumps({**report, "wall_time_s": wall}, indent=2) + "\n"

    @pytest.mark.parametrize("suite", ["algebra", "ladder", "residual", "radial", "angular", "all"])
    def test_verify_reports_are_indent_2_bytes(self, suite, monkeypatch):
        text, code, report = _emitted(monkeypatch, ["verify", suite])
        assert code == 0
        wall = json.loads(text)["wall_time_s"]
        assert text == json.dumps({**report, "wall_time_s": wall}, indent=2) + "\n"


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

    def test_each_command_registers_the_flags_it_reads(self):
        sub = next(a for a in cli.build_parser()._actions if a.choices and "gram" in a.choices)
        settable = {name: sorted(a.dest for a in p._actions if a.dest != "help") for name, p in sub.choices.items()}
        state_flags = ["format", "hbar", "mu", "omega", "states", "time"]
        assert settable == {
            "spectrum": sorted(state_flags + ["tol"]),
            "gram": sorted(state_flags + ["conjugate_angular", "tol"]),
            "verify": ["format", "suite", "tol"],
            "sample": sorted(state_flags + ["grid"]),
        }
        assert sum(map(len, settable.values())) == 25

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--conjugate-angular"],
        ["gram", "--grid", "-2:2:5"],
        ["verify", "algebra", "--mu", "7"],
        ["verify", "algebra", "--time", "3"],
        ["verify", "algebra", "--conjugate-angular"],
        ["sample", "--grid", "-2:2:5", "--tol", "1e-3"],
        ["sample", "--grid", "-2:2:5", "--quad-order", "9"],
        # every rule order follows from the family, so no command takes one
        ["spectrum", "--quad-order", "9"],
        ["gram", "--quad-order", "9"],
        ["verify", "algebra", "--quad-order", "9"],
    ], ids=" ".join)
    def test_flag_the_command_does_not_read_is_a_usage_error(self, argv, tmp_path, capsys):
        if argv[0] != "verify":
            argv = [*argv, "--states", write_states(tmp_path / "s.jsonl", HO1D[:1])]
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: ") and "unrecognized arguments" in err and "Traceback" not in err

    @pytest.mark.parametrize("flags, params", [
        (["--mu", "4"], None), (["--omega", "0.5"], None), (["--hbar", "2"], None), ([], {"mu": 4}),
    ], ids=["mu-flag", "omega-flag", "hbar-flag", "descriptor-params"])
    def test_params_on_radial_sample_are_rejected(self, flags, params, tmp_path, capsys):
        # a radial state is sampled at the dimensionless radius rho, so mu, omega and
        # hbar would be printed beside values they did not change
        desc = {"kind": "radial", "u": 1, "v": 2, "l": 1, "theta": 0.5}
        argv = ["sample", "--grid", "0.5:2:3", "--states"]
        path = write_states(tmp_path / "s.jsonl", [{**desc, "params": params} if params else desc])
        assert cli.main([*argv, path, *flags]) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "must be 1" in err
        # the default units, given or not, still sample
        path = write_states(tmp_path / "d.jsonl", [{**desc, "params": {"mu": 1}}])
        assert cli.main([*argv, path, "--omega", "1", "--hbar", "1.0"]) == cli.EXIT_OK
        assert len(json.loads(capsys.readouterr().out)["results"]["rows"]) == 3

    @pytest.mark.parametrize("command, desc", [
        ("gram", {"kind": "radial", "u": 0, "v": 1, "l": 2, "theta": 0.5}),
        ("gram", {"kind": "spherical", "l": 2, "m1": 1, "m2": -1, "theta": 0.5}),
        ("sample", {"kind": "radial", "u": 0, "v": 1, "l": 2, "theta": 0.5}),
    ])
    def test_time_on_a_kind_without_time_phase_is_rejected(self, command, desc, tmp_path, capsys):
        # radial and spherical states carry no time phase: a report at t != 0 would
        # print the t = 0 values under the requested time
        argv = [command, "--states", write_states(tmp_path / "s.jsonl", [desc])]
        argv += ["--grid", "0.5:2:3"] if command == "sample" else []
        assert cli.main([*argv, "--time", "1.3"]) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "--time must be 0" in err
        assert cli.main([*argv, "--time", "0"]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["inputs"]["time"] == 0.0

    @pytest.mark.parametrize("kind", ["ho1d", "radial"])
    def test_conjugate_angular_on_a_kind_without_harmonics_is_rejected(self, kind, tmp_path, capsys):
        # only a spherical state has a slot-1 harmonic to conjugate: a ho1d or radial
        # report would drop the flag and print the unconjugated family
        argv = ["gram", "--states", write_states(tmp_path / "s.jsonl", FAMILIES[kind])]
        assert cli.main([*argv, "--conjugate-angular"]) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "--conjugate-angular applies to spherical" in err
        assert cli.main(argv) == cli.EXIT_OK
        assert "conjugate_slot1" not in json.loads(capsys.readouterr().out)["results"]

    @pytest.mark.parametrize("argv", [
        ["gram", "--time", "nan"], ["gram", "--time", "inf"], ["spectrum", "--time", "nan"],
        ["sample", "--grid", "-1:1:3", "--time=-inf"],
        *([command, "--tol", tol] for command in ("gram", "spectrum", "verify") for tol in ("nan", "-1", "inf")),
        # a value spelled as its own argument once read as an option and exited 1
        ["sample", "--grid", "-1:1:3", "--time", "-inf"], ["gram", "--time", "-nan"],
        ["spectrum", "--time", "-Infinity"], ["gram", "--tol", "-inf"], ["verify", "--tol", "-NaN"],
    ], ids=" ".join)
    def test_non_finite_or_negative_flag_is_rejected(self, argv, tmp_path, capsys):
        # these once exited 3, some with NaN or Infinity tokens in a body that is then not JSON
        if argv[0] == "verify":
            argv = ["verify", "algebra", *argv[1:]]
        else:
            argv = [*argv, "--states", write_states(tmp_path / "s.jsonl", HO1D[:1])]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "must be finite" in err

    @pytest.mark.parametrize("argv", [["spectrum"], ["gram"], ["sample", "--grid", "-1:1:3"]], ids=" ".join)
    def test_time_whose_phase_overflows_is_rejected(self, argv, tmp_path, capsys):
        # the phases nu t of (2, 3) pass the float range at t = 1e308 (|nu| up to 3.5): these
        # once printed NaN and exited 3, or exited 2 blaming the sampled values
        over = write_states(tmp_path / "over.jsonl", [{"kind": "ho1d", "n": 2, "m": 3, "theta": 0.4}])
        proc = run_cli(*argv, "--time", "1e308", "--states", over)
        err = proc.stderr.decode()
        assert proc.returncode == 2 and proc.stdout == b"" and len(err.splitlines()) == 1
        assert "t = 1e+308 puts a time phase nu t past the float range" in err
        # those of (1, 0), |nu| <= 1.5, stay finite
        fine = write_states(tmp_path / "fine.jsonl", [{"kind": "ho1d", "n": 1, "m": 0, "theta": 0.5}])
        assert cli.main([*argv, "--time", "1e308", "--states", fine]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["inputs"]["time"] == 1e308

    @pytest.mark.parametrize("argv", [["gram", "--mu", "-inf"], ["spectrum", "--omega", "-nan"],
                                      ["sample", "--grid", "-inf:0:3"], ["sample", "--grid", "-NAN:0:3"]],
                             ids=" ".join)
    def test_space_spelled_negative_non_finite_value_is_validated(self, argv, tmp_path, capsys):
        # -inf and -nan reach the flag's own check (exit 2) as --mu=-inf does, not argparse (exit 1)
        argv = [*argv, "--states", write_states(tmp_path / "s.jsonl", HO1D[:1])]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1

    # overlapping split descriptors are still refused by gram: the CLI knows
    # no split kind, so they exit 2 with one stderr line and no traceback
    def test_split_overlap_flag(self, tmp_path):
        desc = {"kind": "split", "dims": 2, "slot0_dims": [0, 1], "slot1_dims": [1],
                "n": 0, "m": 0, "theta": 0.4}
        states = write_states(tmp_path / "s.jsonl", [desc, desc])
        rejected = run_cli("gram", "--states", states)
        assert rejected.returncode == 2
        assert b"Traceback" not in rejected.stderr
        assert len(rejected.stderr.decode().splitlines()) == 1


def test_reused_parser_keeps_no_option_between_calls(tmp_path):
    path = write_states(tmp_path / "s.jsonl", HO1D)
    tolerances = []
    for extra in (["--tol", "1e-3"], []):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["gram", "--states", path, *extra]) == 0
        tolerances.append(json.loads(out.getvalue())["checks"]["tolerance"])
    assert tolerances == [1e-3, 1e-10]


def test_cli_import_leaves_scipy_out(tmp_path):
    # scipy is a test-only dependency: importing the CLI leaves it out, and
    # every command runs with any scipy import made to fail; no command, verify
    # included, imports numpy.random
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, quatosc.cli; sys.exit('scipy' in sys.modules)"],
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    ho1d = write_states(tmp_path / "h.jsonl", HO1D)
    radial = write_states(tmp_path / "r.jsonl", [{"kind": "radial", "u": 200, "v": 3, "l": 2, "theta": 0.4},
                                                 {"kind": "radial", "u": 1, "v": 0, "l": 2, "theta": 0.4}])
    spherical = write_states(tmp_path / "y.jsonl", [{"kind": "spherical", "l": 2, "m1": 1, "m2": 0, "theta": 0.4}])
    one_ho1d = write_states(tmp_path / "h1.jsonl", HO1D[:1])
    one_radial = write_states(tmp_path / "r1.jsonl", [{"kind": "radial", "u": 3, "v": 1, "l": 2, "theta": 0.4}])
    requests = [["spectrum", "--states", ho1d], ["gram", "--states", ho1d],
                ["gram", "--states", radial], ["gram", "--states", spherical],
                ["sample", "--states", one_ho1d, "--grid", "-2:2:5"],
                ["sample", "--states", one_radial, "--grid", "0.5:4:6"], ["verify", "all"]]
    script = ("import contextlib, io, sys\n"
              "sys.modules['scipy'] = None\n"
              "from quatosc import cli\n"
              f"for argv in {requests!r}:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        code = cli.main(argv)\n"
              "    if code:\n"
              "        sys.exit(f'{argv[0]} exited {code}')\n"
              "    if 'numpy.random' in sys.modules:\n"
              "        sys.exit(f'{argv[:2]}: numpy.random imported')\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()


# --- generated descriptors ------------------------------------------------

_WRONG = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.integers(-3, -1), st.just(10**400),
                   st.floats(allow_nan=True, allow_infinity=True), st.lists(st.integers(0, 2), max_size=2))
_LEVEL = st.integers(0, 30)
_THETA = st.floats(-4.0, 4.0)
_PAIR = st.fixed_dictionaries({"n": _LEVEL, "m": _LEVEL, "theta": _THETA})
_DIMS = st.lists(st.integers(0, 2), max_size=3)
# values for each field of the CLI's kind registry
_READ = {"n": _LEVEL, "m": _LEVEL, "u": _LEVEL, "v": _LEVEL, "l": _LEVEL,
         "m1": st.integers(-30, 30), "m2": st.integers(-30, 30), "theta": _THETA}
_KINDS = {
    **{kind: st.fixed_dictionaries({name: _READ[name] for name in fields})
       for kind, (fields, _, _) in cli._KINDS.items()},
    # library-only kinds, unknown to the CLI
    "product": st.fixed_dictionaries({"factors": st.lists(_PAIR, min_size=1, max_size=3)}),
    "split": st.fixed_dictionaries({"dims": st.integers(1, 3), "slot0_dims": _DIMS,
                                    "slot1_dims": _DIMS, "n": _LEVEL, "m": _LEVEL,
                                    "theta": _THETA}),
}
_PARAMS = st.dictionaries(st.sampled_from(["mu", "omega", "hbar"]),
                          st.one_of(st.floats(0.1, 10.0), st.sampled_from([1e-308, 1e308]), _WRONG), max_size=2)


def test_kind_registry_matches_the_documented_commands():
    accepts = {command: [kind for kind, (_, commands, _) in cli._KINDS.items() if command in commands]
               for command in ("spectrum", "gram", "sample")}
    assert accepts == {"spectrum": ["ho1d"], "gram": ["ho1d", "radial", "spherical"],
                       "sample": ["ho1d", "radial"]}


@st.composite
def _requests(draw):
    """A command with one to three descriptors (one for sample) of any kind,
    registered with the CLI or not; now and then a --time (zero or not), on gram
    --conjugate-angular, a params override, and one field with a wrong type,
    value or kind."""
    command = draw(st.sampled_from(["spectrum", "gram", "sample"]))
    kind = draw(st.sampled_from(sorted(_KINDS)))
    argv = [command]
    if command == "sample":
        argv += ["--grid", "0.5:4:6" if kind == "radial" else "-3:3:7"]
    if draw(st.booleans()):
        argv += ["--time", repr(draw(st.one_of(st.just(0.0), st.floats(-5.0, 5.0))))]
    if command == "gram" and draw(st.booleans()):
        argv.append("--conjugate-angular")
    count = 1 if command == "sample" else 3
    descriptors = [{"kind": kind, **draw(_KINDS[kind])} for _ in range(draw(st.integers(1, count)))]
    if draw(st.booleans()):
        draw(st.sampled_from(descriptors))["params"] = draw(_PARAMS)
    if draw(st.booleans()):
        desc = draw(st.sampled_from(descriptors))
        desc[draw(st.sampled_from(sorted(desc)))] = draw(st.one_of(_WRONG, st.sampled_from(sorted(_KINDS))))
    return argv, descriptors


@settings(max_examples=120, deadline=None, derandomize=True)
@given(request=_requests())
def test_generated_descriptors_keep_the_exit_code_contract(request, tmp_path_factory):
    argv, descriptors = request
    path = write_states(tmp_path_factory.mktemp("desc") / "s.jsonl", descriptors)
    out, err = io.StringIO(), io.StringIO()
    # in-process, an exception escaping main fails the example as a traceback would
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--states", path])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    accepted = [kind for kind, (_, commands, _) in cli._KINDS.items() if argv[0] in commands]
    if any(d["kind"] not in accepted for d in descriptors):
        assert code == 2
        assert len(err.getvalue().splitlines()) == 1
    if code == 0:
        checks = json.loads(out.getvalue())["checks"]
        assert checks.get("within_tolerance") is not False
        assert checks.get("all_passed") is not False
        # a flag that was set is one the family's kind reads: only ho1d has a time
        # phase, only spherical has a harmonic to conjugate
        kind, = {d["kind"] for d in descriptors}
        if "--time" in argv and float(argv[argv.index("--time") + 1]):
            assert kind == "ho1d"
        if "--conjugate-angular" in argv:
            assert kind == "spherical"


class TestEntryPoints:
    # run() freezes the imported heap; main() leaves the collector alone for in-process callers
    def test_main_leaves_the_freeze_count_unchanged(self):
        frozen = gc.get_freeze_count()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "algebra"]) == 0
        assert gc.get_freeze_count() == frozen

    def test_run_freezes_the_heap_before_main(self):
        script = ("import gc, sys\n"
                  "from quatosc import cli\n"
                  "cli.main = lambda: print(gc.get_freeze_count() > 0) or 7\n"
                  "cli.run()\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (7, b"True\n", b"")

    def test_both_module_entry_points_agree(self, tmp_path):
        nope = write_states(tmp_path / "nope.jsonl", [{"kind": "nope"}])
        # one request per exit code: 0, 1 (usage), 2 (validation), 3 (check failed)
        requests = {0: ["verify", "algebra"], 1: ["verify", "nosuch"],
                    2: ["gram", "--states", nope], 3: ["verify", "algebra", "--tol", "0"]}
        for code, argv in requests.items():
            runs = [subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, timeout=120)
                    for module in ("quatosc", "quatosc.cli")]
            assert [p.returncode for p in runs] == [code, code], argv
            assert runs[0].stderr == runs[1].stderr, argv
            assert body_of(runs[0].stdout) == body_of(runs[1].stdout), argv
            assert (runs[0].stdout != b"") == (code in (0, 3)), argv

    def test_cli_import_leaves_csv_out(self):
        proc = subprocess.run([sys.executable, "-c", "import sys, quatosc.cli; sys.exit('csv' in sys.modules)"],
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
