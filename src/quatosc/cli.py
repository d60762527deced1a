"""Command line front end: spectrum, gram, verify and sample commands.

State descriptors are line-delimited JSON read from a file or stdin, e.g.

    {"kind": "ho1d", "n": 1, "m": 2, "theta": 0.7853981633974483}

The kinds are ho1d, radial and spherical, one _KINDS record each.  An unknown
kind, such as the library-only product and split, or one the command does not
accept exits 2 before any state is built.

Reports are emitted as JSON (default) or CSV with deterministic formatting:
fixed key order and shortest round-trip decimals, so identical invocations
produce byte-identical bodies.  The wall-time footer field is the only
run-dependent value.  A JSON body is exactly json.dumps(report, indent=2)
plus a newline, produced through the C encoder by _emit; tests pin the
byte equality.

Exit codes: 0 success, 1 usage error, 2 validation error, 3 numerical
check failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
import time
import warnings
from functools import cache

import numpy as np

from . import quaternion as qt
from .oscillator1d import (
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
from .multidim import (
    QSphericalHarmonic,
    angular_gram,
    radial_energy,
    radial_gram,
    radial_ode_residual,
    radial_state,
)
from .specfun import DEGREE_CAP, make_rule
from .wavestate import (
    PhysicalParams,
    _Family,
    _magnitude,
    apply,
    evaluate_points,
    expectation,
    inner_quad,
    quad_gram,
    time_derivative,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_CHECK_FAILED = 3

class ValidationError(ValueError):
    """Invalid descriptor, grid or option combination (exit code 2, as for
    every ValueError the library raises on the inputs it was given)."""


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let values like -4:4:9 reach --grid instead of looking like options
        self._negative_number_matcher = re.compile(r"^-\d|^-\.\d")


# ---------------------------------------------------------------------------
# descriptor handling

def _load_descriptors(path: str) -> list[dict]:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValidationError(f"cannot read {path}: {exc}") from exc
    descriptors = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise ValidationError(f"line {ln}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ValidationError(f"line {ln}: descriptor must be a JSON object")
        descriptors.append(obj)
    return descriptors


def _get_int(desc: dict, name: str, minimum: int = 0) -> int:
    v = desc.get(name)
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        raise ValidationError(f"field {name!r} must be an integer >= {minimum}, got {v!r}")
    return v


def _get_signed_int(desc: dict, name: str) -> int:
    v = desc.get(name)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValidationError(f"field {name!r} must be an integer, got {v!r}")
    return v


def _get_num(desc: dict, name: str, default: float = 0.0) -> float:
    v = desc.get(name, default)
    try:  # float() of an int past the double range raises OverflowError
        if isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(float(v)):
            return float(v)
    except OverflowError:
        pass
    raise ValidationError(f"field {name!r} must be a finite number, got {v!r}")


def _params_for(desc: dict, args) -> PhysicalParams:
    mu, omega, hbar = args.mu, args.omega, args.hbar
    override = desc.get("params")
    if override is not None:
        if not isinstance(override, dict):
            raise ValidationError("'params' must be an object")
        extra = set(override) - {"mu", "omega", "hbar"}
        if extra:
            raise ValidationError(f"unknown params fields: {sorted(extra)}")
        mu = _get_num(override, "mu", mu)
        omega = _get_num(override, "omega", omega)
        hbar = _get_num(override, "hbar", hbar)
    return PhysicalParams(mu, omega, hbar)


# Each builder maps the read field values and params to (spec, state), the spec
# bearing the labels; it looks psi_nm, radial_state or QSphericalHarmonic up in
# this module per call, so a rebound name is the one that runs.

def _ho1d(values: list, params: PhysicalParams):
    q = QPair(*values)
    return q, psi_nm(q, params)


def _radial(values: list, params: PhysicalParams):
    state = radial_state(*values, params)
    return state, state


def _spherical(values: list, params: PhysicalParams):
    spec = QSphericalHarmonic(*values)
    return spec, spec


# state kind -> (field readers in label order, commands accepting it, builder)
_KINDS = {
    "ho1d": ({"n": _get_int, "m": _get_int, "theta": _get_num}, ("spectrum", "gram", "sample"), _ho1d),
    "radial": ({"u": _get_int, "v": _get_int, "l": _get_int, "theta": _get_num}, ("gram", "sample"), _radial),
    "spherical": ({"l": _get_int, "m1": _get_signed_int, "m2": _get_signed_int, "theta": _get_num},
                  ("gram",), _spherical),
}


class _NoStates(Exception):
    """An empty descriptor file (exit code 1)."""


def _descriptors(args, command: str, single: bool = False) -> list[dict]:
    """The --states descriptors, checked for all that needs no state: an
    empty file, more than one descriptor where single, an unknown kind, one
    the command does not accept, a mix of kinds, and a non-zero --time on a
    kind without a time phase (all but ho1d)."""
    descriptors = _load_descriptors(args.states)
    if not descriptors:
        raise _NoStates("no state descriptors provided")
    if single and len(descriptors) != 1:
        raise ValidationError(f"{command} expects exactly one state descriptor")
    accepted = [kind for kind, (_, commands, _) in _KINDS.items() if command in commands]
    for kind in (d.get("kind") for d in descriptors):
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ValidationError(f"unknown state kind: {kind!r}")
        if kind not in accepted:
            raise ValidationError(f"{command} accepts {'/'.join(accepted)} only, got {kind!r}")
    kinds = {d["kind"] for d in descriptors}
    if len(kinds) > 1:
        raise ValidationError(f"{command} requires homogeneous state kinds, got {sorted(kinds)}")
    if args.time and kinds != {"ho1d"}:
        raise ValidationError(f"{kinds.pop()} states carry no time phase, so --time must be 0, got {args.time!r}")
    return descriptors


def _build(desc: dict, args) -> tuple:
    """(spec, label, state, params) of a checked descriptor; a library
    ValueError on the descriptor's values is a validation error, which
    main() reports."""
    readers, _, build = _KINDS[desc["kind"]]
    extra = set(desc) - readers.keys() - {"kind", "params"}
    if extra:
        raise ValidationError(f"unknown fields for kind {desc['kind']!r}: {sorted(extra)}")
    params = _params_for(desc, args)
    spec, state = build([read(desc, name) for name, read in readers.items()], params)
    return spec, {name: getattr(spec, name) for name in readers}, state, params


def _quad_order(args, default: int) -> int:
    """The --quad-order given, else the command's default order."""
    return default if args.quad_order is None else args.quad_order


# ---------------------------------------------------------------------------
# report emission

@cache
def _encoder(item_separator: str = ", "):
    """CPython's C JSON encoder, which json.dumps bypasses whenever indent is set."""
    return json.JSONEncoder(separators=(item_separator, ": ")).encode


def _emit(obj, indent: str = "") -> str:
    """The text of json.dumps(obj, indent=2), from few C-encoder calls.

    A dict or list of scalars, and a list of such rows of one type (a report
    matrix, a table of labels), is encoded in one call whose item separator
    is already the newline and indent of its level; an encoded string never
    holds a raw newline, so afterwards only the row boundaries are rewritten.
    Every other container is walked here.
    """
    if isinstance(obj, dict):
        ends, values = "{}", obj.values()
    elif isinstance(obj, (list, tuple)):
        ends, values = "[]", obj
    else:
        return _encoder()(obj)
    if not obj:
        return ends
    inner = indent + "  "
    newline = ",\n" + inner
    row = type(obj[0]) if ends == "[]" else None
    if row in (dict, list, tuple) and all(obj) and all(type(r) is row for r in obj):
        deeper = inner + "  "
        text = _encoder(",\n" + deeper)(obj)
        # one bracket per row plus the outer one: no row holds a container
        if text.count("[") + text.count("{") == len(obj) + 1:
            o, c = text[1], text[-2]
            body = text[2:-2].replace(f"{c},\n{deeper}{o}", f"\n{inner}{c},\n{inner}{o}\n{deeper}")
            return f"[\n{inner}{o}\n{deeper}{body}\n{inner}{c}\n{indent}]"
    elif not any(isinstance(v, (dict, list, tuple)) for v in values):
        return f"{ends[0]}\n{inner}{_encoder(newline)(obj)[1:-1]}\n{indent}{ends[1]}"
    if ends == "[]":
        items = [_emit(v, inner) for v in obj]
    else:
        # a one-item dict lets the encoder convert and escape each key as json.dumps does
        items = [f"{_encoder()({k: None})[1:-7]}: {_emit(v, inner)}" for k, v in obj.items()]
    return f"{ends[0]}\n{inner}{newline.join(items)}\n{indent}{ends[1]}"


def _finish(args, t0: float, report: dict, header: list[str], rows: list[list]) -> int:
    """Writes the report as JSON, or its table as CSV, with the wall-time
    footer; the exit code follows the report's own checks."""
    wall = time.perf_counter() - t0
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)
        buf.write(f"# wall_time_s {wall!r}\n")
        text = buf.getvalue()
    else:
        text = _emit({**report, "wall_time_s": wall}) + "\n"
    sys.stdout.write(text)
    sys.stdout.flush()
    checks = report["checks"]
    passed = checks.get("within_tolerance", True) and checks.get("all_passed", True)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# commands

def cmd_spectrum(args) -> int:
    t0 = time.perf_counter()
    descriptors = _descriptors(args, "spectrum")
    built = [_build(desc, args) for desc in descriptors]
    # apply(H) raises the degree by two, so order top + 2 is exact for the family
    quad_order = _quad_order(args, max(max(q.n, q.m) for q, *_ in built) + 2)
    rows = []
    rules = [make_rule("gauss_hermite", quad_order)]
    caught: list[str] = []
    for q, _label, state, params in built:
        unit = params.energy_quantum
        e_closed = energy_nm(q, params) / unit
        e_forms = energy_nm_correction_form(q, params) / unit
        h = hamiltonian(params)
        e_exp = expectation(h, state, args.time) / unit
        with warnings.catch_warnings(record=True) as grabbed:
            warnings.simplefilter("always")
            e_quad = inner_quad(apply(h, state), state, args.time, rules) / unit
        caught.extend(str(w.message) for w in grabbed)
        rows.append({"n": q.n, "m": q.m, "theta": q.theta,
                     "energy": e_closed, "energy_correction_form": e_forms,
                     "energy_expectation": e_exp, "energy_quadrature": e_quad,
                     "delta_expectation": abs(e_exp - e_closed),
                     "delta_quadrature": abs(e_quad - e_closed)})
    checks = {
        "max_delta_expectation": max(r["delta_expectation"] for r in rows),
        "max_delta_forms": max(abs(r["energy_correction_form"] - r["energy"]) for r in rows),
        "max_delta_quadrature": max(r["delta_quadrature"] for r in rows),
        "tolerance": args.tol if args.tol is not None else 1e-10,
        "warnings": sorted(set(caught)),
    }
    checks["within_tolerance"] = bool(max(checks["max_delta_expectation"], checks["max_delta_quadrature"])
                                      <= checks["tolerance"])
    report = {
        "command": "spectrum",
        "inputs": {"states": descriptors, "time": args.time, "quad_order": quad_order,
                   "mu": args.mu, "omega": args.omega, "hbar": args.hbar},
        "results": {"energy_unit": "hbar*omega", "rows": rows},
        "checks": checks,
    }
    header = ["n", "m", "theta", "energy", "energy_correction_form",
              "energy_expectation", "energy_quadrature", "delta_expectation", "delta_quadrature"]
    return _finish(args, t0, report, header, [[r[k] for k in header] for r in rows])


def cmd_gram(args) -> int:
    t0 = time.perf_counter()
    descriptors = _descriptors(args, "gram")
    specs, labels, states, family_params = zip(*[_build(desc, args) for desc in descriptors])
    if len(set(family_params)) > 1:
        raise ValidationError("gram requires all states to share physical parameters")
    params = family_params[0]
    kind = descriptors[0]["kind"]
    results: dict = {"kind": kind, "labels": list(labels)}
    checks: dict = {}
    quad_order = args.quad_order  # unused by radial families, whose rule order is exact
    if kind == "ho1d":
        states = _Family(states)  # stacked once for the values and both Gram routes
        g = gram(specs, args.time, params, states=states)
        quad_order = _quad_order(args, max(max(q.n, q.m) for q in specs) + 1)
        with warnings.catch_warnings(record=True) as grabbed:
            warnings.simplefilter("always")
            quad = quad_gram(states, states, args.time, [make_rule("gauss_hermite", quad_order)])
        checks["max_quadrature_delta"] = float(np.max(np.abs(g.entries - quad)))
        checks["warnings"] = sorted({str(w.message) for w in grabbed})
    elif kind == "radial":
        g = radial_gram(states)
    else:
        quad_order = _quad_order(args, 64)
        g = angular_gram(states, n_polar=quad_order,
                         n_azimuth=2 * quad_order, conjugate_slot1=args.conjugate_angular)
        results["conjugate_slot1"] = args.conjugate_angular
    results["parallel"] = g.parallel.tolist()
    results["theta_equal"] = g.theta_equal.tolist()
    results["entries"] = g.entries.tolist()
    results["closed_form"] = g.closed_form.tolist()
    off = g.closed_form - np.diag(np.diag(g.closed_form))
    tol = args.tol if args.tol is not None else 1e-10
    checks["max_closed_form_deviation"] = g.max_closed_form_deviation()
    checks["non_orthogonal_closed_form"] = bool(np.max(np.abs(off), initial=0.0) > tol)
    checks["tolerance"] = tol
    # a ho1d coefficient Gram equals its closed form by construction, so the
    # quadrature route is the check that can fail
    checks["within_tolerance"] = bool(checks["max_closed_form_deviation"] <= tol
                                      and checks.get("max_quadrature_delta", 0.0) <= tol)
    report = {
        "command": "gram",
        "inputs": {"states": descriptors, "time": args.time, "quad_order": quad_order,
                   "mu": args.mu, "omega": args.omega, "hbar": args.hbar},
        "results": results,
        "checks": checks,
    }
    header = [f"g{j}" for j in range(len(labels))]
    return _finish(args, t0, report, header, results["entries"])


# --- verify suites ---------------------------------------------------------

def _check(name: str, value: float, threshold: float, comparison: str = "<=") -> dict:
    passed = value <= threshold if comparison == "<=" else value >= threshold
    return {"name": name, "value": float(value), "threshold": float(threshold),
            "comparison": comparison, "passed": bool(passed)}


def _suite_algebra(tol, quad_order) -> list[dict]:
    rng = np.random.default_rng(7)
    qs = [qt.Quaternion(*rng.uniform(-2.0, 2.0, size=4)) for _ in range(200)]
    norm_dev = assoc_dev = sc_dev = sym_dev = quad_i_dev = 0.0
    for p, q, r in zip(qs, qs[1:] + qs[:1], qs[2:] + qs[:2]):
        norm_dev = max(norm_dev, abs(abs(p * q) - abs(p) * abs(q)))
        assoc_dev = max(assoc_dev, abs((p * q) * r - p * (q * r)))
        sc_dev = max(sc_dev, abs(qt.sc(p * qt.conj(q)) - qt.sc(q * qt.conj(p))))
        z0, z1 = qt.right_mul_i(p).to_symplectic()
        w0, w1 = p.to_symplectic()
        sym_dev = max(sym_dev, abs(z0 - 1j * w0), abs(z1 + 1j * w1))
        p4 = p
        for _ in range(4):
            p4 = qt.right_mul_i(p4)
        quad_i_dev = max(quad_i_dev, abs(p4 - p))
    return [
        _check("hamilton_product_norm_multiplicative", norm_dev, tol or 1e-12),
        _check("hamilton_product_associative", assoc_dev, tol or 1e-12),
        _check("scalar_part_symmetry", sc_dev, tol or 1e-14),
        _check("right_i_symplectic_action", sym_dev, tol or 1e-15),
        _check("right_i_fourth_power_identity", quad_i_dev, tol or 1e-15),
    ]


def _suite_ladder(tol, quad_order) -> list[dict]:
    params = PhysicalParams()
    lower, raise_op = ladder("lower"), ladder("raise")
    ground_killed = psi_n(0, params)
    ground_killed = apply(lower, ground_killed).norm()
    comm_dev = 0.0
    for n in range(21):
        s = psi_n(n, params)
        comm = apply(lower, apply(raise_op, s)) - apply(raise_op, apply(lower, s))
        comm_dev = max(comm_dev, (comm - s).norm())
    pairs = [QPair(n, m, 0.7) for n in range(7) for m in range(7)]
    gaps = [build_via_ladder(q, params) - psi_nm(q, params) for q in pairs]
    build_dev = float(np.max(_magnitude(*evaluate_points(gaps, np.linspace(-6.0, 6.0, 41), 0.4))))
    basis = [psi_n(n, params) for n in range(DEGREE_CAP + 1)]
    quad = quad_gram(basis, basis, 0.0, [make_rule("gauss_hermite", DEGREE_CAP + 1)])
    ortho_dev = float(np.max(np.abs(quad - np.eye(DEGREE_CAP + 1))))
    return [
        _check("lowering_annihilates_ground_state", ground_killed, tol or 1e-13),
        _check("ladder_commutator_is_identity", comm_dev, tol or 1e-10),
        _check("algebraic_state_matches_direct_build", build_dev, tol or 1e-10),
        _check("hermite_functions_orthonormal_by_quadrature", ortho_dev, tol or 1e-12),
    ]


def _residual_samples() -> list[QPair]:
    samples = []
    thetas = [0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2]
    for k in range(20):
        samples.append(QPair(k % 5, (k * 3) % 4, thetas[k % 5]))
    return samples


def _suite_residual(tol, quad_order) -> list[dict]:
    params = PhysicalParams()
    res_dev = 0.0
    for q in _residual_samples():
        res_dev = max(res_dev, schrodinger_residual(psi_nm(q, params), t=0.9))
    h = 1e-6
    states = [psi_nm(q, params) for q in _residual_samples()[:5]]
    xs = (-1.3, 0.2, 2.1)
    analytic = evaluate_points([time_derivative(s) for s in states], xs, 0.7)
    ahead, behind = evaluate_points(states, xs, 0.7 + h), evaluate_points(states, xs, 0.7 - h)
    gap = [a - (p - m) * (0.5 / h) for a, p, m in zip(analytic, ahead, behind)]
    fd_dev = float(np.max(_magnitude(*gap)))
    return [
        _check("schrodinger_residual_on_solutions", res_dev, tol or 1e-10),
        _check("time_derivative_matches_finite_differences", fd_dev, tol or 1e-6),
    ]


def _suite_radial(tol, quad_order) -> list[dict]:
    params = PhysicalParams()
    gram_dev = 0.0
    for l in range(4):
        states = [radial_state(u, v, l, math.pi / 3, params) for u in range(5) for v in range(5)]
        g = radial_gram(states)
        gram_dev = max(gram_dev, g.max_closed_form_deviation())
    res_true = 0.0
    res_margin = math.inf
    for (u, v, l) in [(0, 0, 0), (1, 2, 1), (3, 1, 2), (2, 4, 3)]:
        state = radial_state(u, v, l, 0.6, params)
        res_true = max(res_true, radial_ode_residual(state))
        peak = float(np.max(_magnitude(*state.components(np.linspace(0.15, 6.0, 40)))))
        for shift in (-1.0, 1.0):
            energies = (radial_energy(u, l, params) + shift, radial_energy(v, l, params) + shift)
            res_margin = min(res_margin, radial_ode_residual(state, energies) / peak)
    return [
        _check("radial_gram_matches_closed_form", gram_dev, tol or 1e-10),
        _check("radial_equation_residual_at_true_energy", res_true, tol or 1e-9),
        _check("radial_residual_detects_energy_shift", res_margin, 0.05, comparison=">="),
    ]


def _angular_specs(l_max: int) -> list[QSphericalHarmonic]:
    specs = []
    for l in range(min(l_max, 2) + 1):
        for m1 in range(-l, l + 1):
            for m2 in range(-l, l + 1):
                specs.append(QSphericalHarmonic(l, m1, m2, 0.6))
    for l in range(3, l_max + 1):
        for m1, m2 in ((-l, l), (l, l - 1), (0, 1), (l, l)):
            specs.append(QSphericalHarmonic(l, m1, m2, 0.6))
    return specs


def _suite_angular(tol, quad_order) -> list[dict]:
    specs = _angular_specs(6)
    g = angular_gram(specs, n_polar=quad_order, n_azimuth=2 * quad_order)
    pattern_dev = g.max_closed_form_deviation()
    norm_dev = float(np.max(np.abs(np.diag(g.entries) - 1.0)))
    return [
        _check("angular_states_unit_norm", norm_dev, tol or 1e-10),
        _check("angular_gram_matches_closed_form", pattern_dev, tol or 1e-9),
    ]


_SUITES = {
    "algebra": _suite_algebra,
    "ladder": _suite_ladder,
    "residual": _suite_residual,
    "radial": _suite_radial,
    "angular": _suite_angular,
}


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    quad_order = _quad_order(args, 64)
    checks = []
    for name in names:
        checks.extend(_SUITES[name](args.tol, quad_order))
    failed = [c["name"] for c in checks if not c["passed"]]
    report = {
        "command": "verify",
        "inputs": {"suite": args.suite, "tol": args.tol, "quad_order": quad_order},
        "results": {"checks": checks},
        "checks": {"all_passed": not failed, "failed": failed},
    }
    header = ["name", "value", "threshold", "comparison", "passed"]
    return _finish(args, t0, report, header, [[c[k] for k in header] for c in checks])


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValidationError(f"grid must be MIN:MAX:COUNT, got {spec!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValidationError(f"grid must be MIN:MAX:COUNT, got {spec!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi) or count < 2:
        raise ValidationError(f"grid requires min < max and count >= 2, got {spec!r}")
    return np.linspace(lo, hi, count)


def cmd_sample(args) -> int:
    t0 = time.perf_counter()
    descriptors = _descriptors(args, "sample", single=True)
    grid = _parse_grid(args.grid)
    _spec, _label, state, _params = _build(descriptors[0], args)
    if descriptors[0]["kind"] == "ho1d":
        z0, z1 = (z[0] for z in evaluate_points([state], grid, args.time))
    else:
        if np.any(grid <= 0):
            raise ValidationError("radial samples require positive radii")
        z0, z1 = state.components(grid)
    table = np.column_stack([grid, z0.real, z0.imag, z1.real, z1.imag, _magnitude(z0, z1)])
    if not np.all(np.isfinite(table)):
        raise ValidationError("sampled values are not finite")
    rows = table.tolist()
    header = ["x", "re_z0", "im_z0", "re_z1", "im_z1", "abs"]
    report = {
        "command": "sample",
        "inputs": {"states": descriptors, "grid": args.grid, "time": args.time,
                   "mu": args.mu, "omega": args.omega, "hbar": args.hbar},
        "results": {"columns": header, "rows": rows},
        "checks": {},
    }
    return _finish(args, t0, report, header, rows)


# ---------------------------------------------------------------------------

# flag -> add_argument keywords; each command registers only the flags it reads
_OPTIONS = {
    "--states": dict(required=True, help="path to line-delimited JSON descriptors, or '-' for stdin"),
    "--time": dict(type=float, default=0.0, help="evaluation time t (ho1d states only)"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--mu": dict(type=float, default=1.0, help="oscillator mass"),
    "--omega": dict(type=float, default=1.0, help="angular frequency"),
    "--hbar": dict(type=float, default=1.0),
    "--tol": dict(type=float, default=None, help="tolerance override"),
    "--quad-order": dict(type=int, default=None,
                         help="cross-check quadrature order (default: exact for the family; 64 for sphere and verify)"),
    "--conjugate-angular": dict(action="store_true", help="conjugate the slot-1 spherical harmonic"),
}
_STATE_OPTIONS = ("--states", "--time", "--format", "--mu", "--omega", "--hbar")


def _add_options(parser: argparse.ArgumentParser, flags) -> None:
    for flag in flags:
        parser.add_argument(flag, **_OPTIONS[flag])


def build_parser() -> _Parser:
    parser = _Parser(prog="quatosc",
                     description="Quaternionic harmonic oscillator computations and checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="energy table: closed forms vs expectation values")
    _add_options(p, _STATE_OPTIONS + ("--tol", "--quad-order"))

    p = sub.add_parser("gram", help="Gram matrix of candidate basis states")
    _add_options(p, _OPTIONS)

    p = sub.add_parser("verify", help="run a named invariant suite")
    p.add_argument("suite", choices=tuple(_SUITES) + ("all",))
    _add_options(p, ("--format", "--tol", "--quad-order"))

    p = sub.add_parser("sample", help="tabulate a state on a grid")
    p.add_argument("--grid", required=True, help="MIN:MAX:COUNT")
    _add_options(p, _STATE_OPTIONS)

    return parser


_parser = cache(build_parser)  # built once per process; parse_args keeps no state between calls


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, not kept in the cached parser, so a rebound cmd_* still runs
    commands = {"spectrum": cmd_spectrum, "gram": cmd_gram,
                "verify": cmd_verify, "sample": cmd_sample}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return commands[args.command](args)
    except _NoStates as exc:
        sys.stderr.write(f"{args.command}: {exc}\n")
        return EXIT_USAGE
    except ValueError as exc:
        # ValidationError, or a library ValueError on the given inputs
        sys.stderr.write(f"quatosc {args.command}: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
