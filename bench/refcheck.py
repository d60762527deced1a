"""Reference values computed apart from quatosc, and the checks that use them.

Everything here is plain Python (no numpy, no quatosc), so a fault in the
program's numerics cannot leak into the reference it is compared against.
Each check returns the absolute deviations it measured, from which the
benchmark takes ``digits_min``, and raises ``CheckFailed`` when an output is
wrong or malformed.
"""

from __future__ import annotations

import json
import math

# The CLI's own default tolerance; every deviation the benchmark checks must
# stay within it.
TOL = 1e-10
# Deviations below this read as 16 correct digits.
DIGITS_FLOOR = 1e-16


class CheckFailed(Exception):
    """An output of the program is wrong, incomplete or does not parse."""


def digits(deviation: float) -> float:
    """Correct digits of a value that deviates from its reference by ``deviation``."""
    return -math.log10(max(abs(deviation), DIGITS_FLOOR))


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def within(name: str, value: float, reference: float) -> float:
    """Deviation of ``value`` from ``reference``; fails beyond ``TOL``."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise CheckFailed(f"{name}: not a number: {value!r}")
    dev = abs(value - reference)
    if not dev <= TOL:
        raise CheckFailed(f"{name}: {value!r} deviates from {reference!r} by {dev:.3g} > {TOL:g}")
    return dev


def parse_report(text: str) -> dict:
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"report does not parse: {exc}") from exc
    require(isinstance(report, dict), "report is not a JSON object")
    require(isinstance(report.get("wall_time_s"), float), "report has no wall_time_s footer")
    return report


# ---------------------------------------------------------------------------
# closed forms

def gram_closed_form(kind: str, labels: list[dict]) -> list[list[float]]:
    """cos a cos b [slot-0 labels equal] + sin a sin b [slot-1 labels equal]."""
    if kind == "ho1d":
        key0, key1 = ("n",), ("m",)
    elif kind == "radial":
        key0, key1 = ("u", "l"), ("v", "l")
    elif kind == "spherical":
        key0, key1 = ("l", "m1"), ("l", "m2")
    else:
        raise ValueError(f"no closed form for kind {kind!r}")
    out = []
    for a in labels:
        row = []
        for b in labels:
            same0 = all(a[k] == b[k] for k in key0)
            same1 = all(a[k] == b[k] for k in key1)
            row.append(math.cos(a["theta"]) * math.cos(b["theta"]) * same0
                       + math.sin(a["theta"]) * math.sin(b["theta"]) * same1)
        out.append(row)
    return out


def pair_energy(n: int, m: int, theta: float) -> float:
    """Energy of a two-slot 1-D state in units of hbar*omega."""
    c, s = math.cos(theta), math.sin(theta)
    return n * c * c + m * s * s + 0.5


def hermite_functions(n_max: int, x: float) -> list[float]:
    """Orthonormal Hermite functions psi_0..psi_n_max at x, by the normalized
    three-term recurrence (no polynomial coefficients, no factorials)."""
    out = [math.pi ** -0.25 * math.exp(-0.5 * x * x)]
    if n_max >= 1:
        out.append(math.sqrt(2.0) * x * out[0])
    for k in range(1, n_max):
        out.append(math.sqrt(2.0 / (k + 1)) * x * out[k] - math.sqrt(k / (k + 1)) * out[k - 1])
    return out


def pair_value(n: int, m: int, theta: float, x: float, t: float) -> tuple[complex, complex]:
    """Symplectic value (z0, z1) of the 1-D two-slot state at (x, t):
    cos(theta) psi_n e^{-i(n+1/2)t} and sin(theta) psi_m e^{+i(m+1/2)t}."""
    psi = hermite_functions(max(n, m), x)
    z0 = math.cos(theta) * psi[n] * complex(math.cos((n + 0.5) * t), -math.sin((n + 0.5) * t))
    z1 = math.sin(theta) * psi[m] * complex(math.cos((m + 0.5) * t), math.sin((m + 0.5) * t))
    return z0, z1


# ---------------------------------------------------------------------------
# report checks

def check_gram_report(report: dict, descriptors: list[dict]) -> list[float]:
    """A ``quatosc gram`` report: entries and closed form against the
    benchmark's closed form, the dual-route and parallelism tables by the
    properties they must have."""
    require(report.get("command") == "gram", "not a gram report")
    results, checks = report.get("results"), report.get("checks")
    require(isinstance(results, dict) and isinstance(checks, dict), "gram report lacks results")
    kind = descriptors[0]["kind"]
    require(results.get("kind") == kind, f"gram report kind {results.get('kind')!r} != {kind!r}")
    closed = gram_closed_form(kind, descriptors)
    size = len(closed)
    devs = []
    for table in ("entries", "closed_form"):
        rows = results.get(table)
        require(isinstance(rows, list) and len(rows) == size
                and all(isinstance(r, list) and len(r) == size for r in rows),
                f"gram {table} is not {size}x{size}")
        for i in range(size):
            for j in range(size):
                devs.append(within(f"gram {table}[{i}][{j}]", rows[i][j], closed[i][j]))
    par, th_eq = results.get("parallel"), results.get("theta_equal")
    require(isinstance(par, list) and len(par) == size, "gram parallel table missing")
    for i in range(size):
        require(par[i][i] is True, f"state {i} is not parallel to itself")
        for j in range(size):
            require(par[i][j] == par[j][i], f"parallel table not symmetric at ({i}, {j})")
            require(th_eq[i][j] == (descriptors[i]["theta"] == descriptors[j]["theta"]),
                    f"theta_equal wrong at ({i}, {j})")
    devs.append(within("max_closed_form_deviation", checks.get("max_closed_form_deviation"),
                       0.0))
    if kind == "ho1d":
        devs.append(within("max_quadrature_delta", checks.get("max_quadrature_delta"), 0.0))
        require(checks.get("warnings") == [], f"gram warnings: {checks.get('warnings')}")
    return devs


def check_spectrum_report(report: dict, descriptors: list[dict]) -> list[float]:
    require(report.get("command") == "spectrum", "not a spectrum report")
    rows = report.get("results", {}).get("rows")
    require(isinstance(rows, list) and len(rows) == len(descriptors), "spectrum rows missing")
    require(report.get("checks", {}).get("within_tolerance") is True,
            "spectrum reports within_tolerance false")
    devs = []
    for row, d in zip(rows, descriptors):
        e = pair_energy(d["n"], d["m"], d["theta"])
        for col in ("energy", "energy_correction_form", "energy_expectation", "energy_quadrature"):
            devs.append(within(f"spectrum {col} ({d['n']}, {d['m']})", row.get(col), e))
    return devs


def check_sample_report(report: dict, desc: dict, grid: tuple[float, float, int],
                        t: float) -> list[float]:
    require(report.get("command") == "sample", "not a sample report")
    rows = report.get("results", {}).get("rows")
    lo, hi, count = grid
    require(isinstance(rows, list) and len(rows) == count, "sample rows missing")
    devs = []
    for k, row in enumerate(rows):
        require(isinstance(row, list) and len(row) == 6, f"sample row {k} malformed")
        devs.append(within(f"sample x[{k}]", row[0], lo + (hi - lo) * k / (count - 1)))
        z0, z1 = pair_value(desc["n"], desc["m"], desc["theta"], row[0], t)
        for col, ref in zip(row[1:], (z0.real, z0.imag, z1.real, z1.imag,
                                      math.sqrt(abs(z0) ** 2 + abs(z1) ** 2))):
            devs.append(within(f"sample row {k}", col, ref))
    return devs


def check_verify_report(report: dict) -> list[float]:
    """``verify all``: every suite present and every check passed.  These
    are the program's own checks, so they add no deviations to digits_min."""
    require(report.get("command") == "verify", "not a verify report")
    checks = report.get("results", {}).get("checks")
    require(isinstance(checks, list) and checks, "verify report has no checks")
    failed = [c.get("name") for c in checks if c.get("passed") is not True]
    require(not failed, f"verify checks failed: {failed}")
    require(report.get("checks", {}).get("all_passed") is True, "verify all_passed is not true")
    return []
