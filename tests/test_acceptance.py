"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

import json
import math
import re
import subprocess
import sys

import numpy as np

from quatosc.multidim import (
    QSphericalHarmonic,
    angular_gram,
    cartesian_energy,
    default_radial_grid,
    product_state,
    radial_energy,
    radial_gram,
    radial_ode_residual,
    radial_state,
)
from quatosc.oscillator1d import (
    QPair,
    build_via_ladder,
    energy_nm,
    energy_nm_correction_form,
    gram,
    hamiltonian,
    ladder,
    psi_n,
    psi_nm,
    schrodinger_residual,
)
from quatosc.specfun import make_rule
from quatosc.wavestate import (
    PhysicalParams,
    WaveState,
    apply,
    evaluate,
    expectation,
    expectation_quaternionic,
    inner,
    inner_quad,
    mul_x,
    quad_gram,
    time_derivative,
)

THETAS = [0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2]
GRID = np.linspace(-6.0, 6.0, 41)
GH64 = [make_rule("gauss_hermite", 64)]


def report(name, *measurements):
    """Assert every (label, value, bound, cmp) measurement and print one line."""
    ok = True
    parts = []
    for label, value, bound, *rest in measurements:
        cmp = rest[0] if rest else "<="
        this = value <= bound if cmp == "<=" else value >= bound
        ok = ok and this
        parts.append(f"{label} {value:.2e} {cmp} {bound:.0e}")
    print(f"{'PASS' if ok else 'FAIL'}  {name}: " + "; ".join(parts))
    assert ok, f"criterion failed: {name}: " + "; ".join(parts)


def sup_diff(a, b, t=0.0):
    return max(abs(evaluate(a, x, t) - evaluate(b, x, t)) for x in GRID)


def test_criterion_01_energy_table():
    h = hamiltonian()
    exact_dev = quad_dev = form_dev = 0.0
    for n in range(6):
        for m in range(6):
            for theta in THETAS:
                q = QPair(n, m, theta)
                s = psi_nm(q)
                want = energy_nm(q)
                exact_dev = max(exact_dev, abs(expectation(h, s, 0.0) - want))
                quad_dev = max(quad_dev, abs(inner_quad(apply(h, s), s, 0.0, GH64) - want))
                form_dev = max(form_dev, abs(energy_nm_correction_form(q) - want))
    report("energy table",
           ("exact", exact_dev, 1e-10),
           ("quadrature", quad_dev, 1e-8),
           ("closed forms", form_dev, 1e-14))


def test_criterion_02_normalization_and_gram():
    norm_dev = 0.0
    for n in range(5):
        for m in range(5):
            for theta in THETAS:
                s = psi_nm(QPair(n, m, theta))
                norm_dev = max(norm_dev, abs(inner(s, s, 0.7) - 1.0))
    mixed = [QPair(n, m, THETAS[(n + 2 * m) % 5]) for n in range(5) for m in range(5)]
    closed_dev = gram(mixed, 0.4).max_closed_form_deviation()
    disjoint = [QPair(0, 1, 0.8), QPair(2, 3, 0.8), QPair(4, 0, 0.8)]
    identity_dev = gram(disjoint, 0.0).max_identity_deviation()
    g0 = gram(mixed, 0.0).entries
    g1 = gram(mixed, 1.7).entries
    time_dev = float(np.max(np.abs(g0 - g1)))
    report("normalization and gram",
           ("norm", norm_dev, 1e-12),
           ("closed form", closed_dev, 1e-10),
           ("identity", identity_dev, 1e-10),
           ("time invariance", time_dev, 1e-12))


def test_criterion_03_complex_reduction():
    sup_dev = 0.0
    for n in range(6):
        sup_dev = max(sup_dev, sup_diff(psi_nm(QPair(n, 3, 0.0)), psi_n(n), t=0.9))
    h = hamiltonian()
    energy_dev = 0.0
    for n in range(4):
        for theta in THETAS:
            e = expectation(h, psi_nm(QPair(n, n, theta)), 0.0)
            energy_dev = max(energy_dev, abs(e - (n + 0.5)))
    report("reduction to complex case",
           ("pointwise", sup_dev, 1e-13),
           ("equal-level energy", energy_dev, 1e-12))


def test_criterion_04_ladder_algebra():
    lower, raise_ = ladder("lower"), ladder("raise")
    ground = apply(lower, psi_n(0)).norm()
    comm_dev = 0.0
    for n in range(21):
        s = psi_n(n)
        comm = apply(lower, apply(raise_, s)) - apply(raise_, apply(lower, s))
        comm_dev = max(comm_dev, (comm - s).norm())
    build_dev = 0.0
    for n in range(7):
        for m in range(7):
            q = QPair(n, m, 0.7)
            build_dev = max(build_dev, sup_diff(build_via_ladder(q), psi_nm(q), t=0.4))
    report("ladder algebra",
           ("ground annihilation", ground, 1e-13),
           ("commutator", comm_dev, 1e-10),
           ("algebraic build", build_dev, 1e-10))


def test_criterion_05_pde_residuals():
    res_dev = 0.0
    samples = [QPair(k % 5, (3 * k) % 4, THETAS[k % 5]) for k in range(20)]
    for q in samples:
        res_dev = max(res_dev, schrodinger_residual(psi_nm(q), t=1.1))
    fd_dev = 0.0
    h = 1e-6
    for q in samples[:5]:
        s = psi_nm(q)
        d = time_derivative(s)
        for x, t in [(-1.4, 0.3), (0.6, 1.9)]:
            numeric = (evaluate(s, x, t + h) - evaluate(s, x, t - h)) * (0.5 / h)
            fd_dev = max(fd_dev, abs(evaluate(d, x, t) - numeric))
    report("schrodinger residuals",
           ("residual", res_dev, 1e-10),
           ("time derivative vs fd", fd_dev, 1e-6))


def test_criterion_06_hermitian_second_term_and_virial():
    second_dev = 0.0
    virial_dev = 0.0
    x2 = mul_x() * mul_x()
    ops = [hamiltonian(), mul_x(), x2]
    for n, m, theta in [(0, 0, 0.4), (1, 2, math.pi / 4), (3, 1, 1.2), (2, 4, math.pi / 2)]:
        q = QPair(n, m, theta)
        s = psi_nm(q)
        for op in ops:
            _, _, second = expectation_quaternionic(op, s, 0.5)
            second_dev = max(second_dev, abs(second))
        half = 0.5 * energy_nm(q)
        potential = 0.5 * expectation(x2, s, 0.0)
        kinetic = expectation(hamiltonian(), s, 0.0) - potential
        virial_dev = max(virial_dev, abs(potential - half), abs(kinetic - half))
    report("hermitian second term and virial",
           ("second term", second_dev, 1e-10),
           ("virial split", virial_dev, 1e-10))


def test_criterion_07_spherical_sector():
    gram_dev = 0.0
    for l in range(4):
        states = [radial_state(u, v, l, 0.7) for u in range(5) for v in range(5)]
        gram_dev = max(gram_dev, radial_gram(states).max_closed_form_deviation())
    res_true = 0.0
    res_margin = math.inf
    for (u, v, l) in [(0, 0, 0), (1, 2, 1), (3, 1, 2), (2, 4, 3)]:
        state = radial_state(u, v, l, 0.6)
        res_true = max(res_true, radial_ode_residual(state))
        peak = max(abs(state.evaluate(r)) for r in default_radial_grid())
        for shift in (-1.0, 1.0):
            shifted = (radial_energy(u, l) + shift, radial_energy(v, l) + shift)
            res_margin = min(res_margin, radial_ode_residual(state, shifted) / peak)
    specs = [QSphericalHarmonic(l, m1, m2, 0.6)
             for l in range(3) for m1 in range(-l, l + 1) for m2 in range(-l, l + 1)]
    specs += [QSphericalHarmonic(l, m1, m2, 0.6)
              for l in range(3, 7) for m1, m2 in ((-l, l), (l, l - 1), (0, 1), (l, l))]
    angular_dev = angular_gram(specs, 64, 128).max_closed_form_deviation()
    report("spherical sector",
           ("radial gram", gram_dev, 1e-10),
           ("radial residual", res_true, 1e-9),
           ("shifted-energy margin", res_margin, 0.05, ">="),
           ("angular gram", angular_dev, 1e-9))


def test_criterion_08_multidimensional():
    factor_sets = [
        [QPair(1, 2, math.pi / 4)],
        [QPair(1, 2, math.pi / 4), QPair(0, 1, 0.3)],
        [QPair(1, 2, math.pi / 4), QPair(0, 1, 0.3), QPair(2, 0, 1.1)],
    ]
    norm_dev = energy_dev = reorder_dev = 0.0
    for factors in factor_sets:
        s = product_state(factors)
        norm_dev = max(norm_dev, abs(inner(s, s, 0.5) - 1.0))
        want = sum(energy_nm(f) for f in factors)
        energy_dev = max(energy_dev, abs(cartesian_energy(s) - want))
        rev = product_state(factors[::-1])
        reorder_dev = max(reorder_dev,
                          abs(inner(rev, rev, 0.5) - 1.0),
                          abs(cartesian_energy(rev) - want))
    report("multi-dimensional products",
           ("norm", norm_dev, 1e-10),
           ("energy sum", energy_dev, 1e-10),
           ("reorder invariance", reorder_dev, 1e-10))


def _random_state(rng):
    slots, amps, freqs, levels = [], [], [], []
    for slot in (0, 1):
        for n in rng.choice(21, size=3, replace=False):
            amps.append(complex(rng.normal(), rng.normal()) / 3.0)
            slots.append(slot)
            freqs.append((-1.0 if slot == 0 else 1.0) * (n + 0.5))
            levels.append(int(n))
    # row r is phi_n, the n-th unit vector: hermite_norm_const(n) * hermite_coeffs(n) in monomials
    coefs = np.zeros((1, len(levels), max(levels) + 1))
    coefs[0, np.arange(len(levels)), levels] = 1.0
    return WaveState(1, slots, amps, freqs, coefs, PhysicalParams())


def test_criterion_09_dual_path_consistency():
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(200):
        a, b = _random_state(rng), _random_state(rng)
        t = float(rng.uniform(-2.0, 2.0))
        worst = max(worst, abs(inner(a, b, t) - inner_quad(a, b, t, GH64)))

    # quad_gram, one weighted product over the whole family, against pairwise inner_quad
    def factor():
        return QPair(int(rng.integers(6)), int(rng.integers(6)), float(rng.uniform(0.0, 1.5)))

    gram_devs = []
    products = [product_state([factor(), factor()]) for _ in range(6)]
    for states, rules in (([_random_state(rng) for _ in range(8)], GH64),
                          (products, [make_rule("gauss_hermite", 16)] * 2)):
        pairwise = np.array([[inner_quad(a, b, 0.3, rules) for b in states] for a in states])
        gram_devs.append(max(np.max(np.abs(quad_gram(states, states, 0.3, rules) - pairwise)),
                             np.max(np.abs(quad_gram(states[:3], states, 0.3, rules) - pairwise[:3]))))
    report("dual-path inner products", ("max deviation", worst, 1e-9),
           ("quad_gram vs inner_quad, 1-D", gram_devs[0], 1e-14),
           ("quad_gram vs inner_quad, 2-D products", gram_devs[1], 1e-14))


def _run_cli(*args, stdin=None):
    return subprocess.run([sys.executable, "-m", "quatosc.cli", *args],
                          input=stdin, capture_output=True, timeout=120)


def _body(output: bytes) -> bytes:
    out = re.sub(rb',\n  "wall_time_s": [^\n]+', b"", output)
    return re.sub(rb"# wall_time_s [^\n]*\n", b"", out)


def test_criterion_10_cli_determinism_and_exit_codes(tmp_path):
    states = tmp_path / "states.jsonl"
    states.write_text(
        json.dumps({"kind": "ho1d", "n": 1, "m": 2, "theta": 0.7}) + "\n"
        + json.dumps({"kind": "ho1d", "n": 0, "m": 3, "theta": 0.7}) + "\n",
        encoding="utf-8")
    runs = [_run_cli("spectrum", "--states", str(states)) for _ in range(2)]
    grams = [_run_cli("gram", "--states", str(states)) for _ in range(2)]
    deterministic = (_body(runs[0].stdout) == _body(runs[1].stdout)
                     and _body(grams[0].stdout) == _body(grams[1].stdout)
                     and runs[0].stdout != b"")
    ok_code = runs[0].returncode == 0
    usage_code = _run_cli("spectrum").returncode == 1
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"kind": "ho1d", "n": -1, "m": 0}\n', encoding="utf-8")
    validation_code = _run_cli("spectrum", "--states", str(bad)).returncode == 2
    check_code = _run_cli("verify", "algebra", "--tol", "1e-30").returncode == 3
    report("cli determinism and exit codes",
           ("deterministic", 0.0 if deterministic else 1.0, 0.0),
           ("exit 0", 0.0 if ok_code else 1.0, 0.0),
           ("exit 1", 0.0 if usage_code else 1.0, 0.0),
           ("exit 2", 0.0 if validation_code else 1.0, 0.0),
           ("exit 3", 0.0 if check_code else 1.0, 0.0))
