"""The benchmark's three workloads: seeded inputs, one operation each, checks.

An operation has ``run()``, the timed call into the program, and
``check(output)``, which compares the output with ``refcheck`` and returns
the deviations it measured.  A workload's operations form one round; a run
repeats whole rounds, so every run of one seed handles the same inputs in
the same order.

quatosc is imported only by the warm workloads, and only inside the
functions that build them, so ``cli-cold`` keeps numpy and scipy out of the
benchmark process.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time

import refcheck

# ---------------------------------------------------------------------------
# gram-family: one `quatosc gram` request per operation, in-process

# Families per kind in one round; kinds rotate ho1d, radial, spherical.
GRAM_FAMILIES_PER_KIND = 10
HO1D_FAMILY, HO1D_MAX = 20, 20            # inner() holds ~1e-12 up to degree 20
RADIAL_FAMILY, RADIAL_UV_MAX, RADIAL_L_MAX = 24, 5, 3   # radial_inner ~1e-11 at u = 5
SPHERICAL_FAMILY, SPHERICAL_L_MAX = 30, 6  # exact under the default 64 x 128 sphere rule
ANGLES_PER_FAMILY = 3


def _angles(rng: random.Random) -> list[float]:
    """A few polarization angles per family, so that some states share one."""
    return [rng.uniform(0.0, 0.5 * math.pi) for _ in range(ANGLES_PER_FAMILY)]


def gram_family_inputs(seed: int) -> list[list[dict]]:
    """Families of seeded states.  The first state of each ho1d and radial
    family sits at the top of the range, so every run checks its edge.
    Spherical states take l = 0..6 in turn, so a family's cost does not
    depend on the seed; the three kinds then differ enough in cost that the
    median lands inside one of them, not on a boundary."""
    rng = random.Random(f"gram-family:{seed}")
    families = []
    for f in range(GRAM_FAMILIES_PER_KIND):
        th = _angles(rng)
        families.append([{"kind": "ho1d", "n": HO1D_MAX if k == 0 else rng.randint(0, HO1D_MAX),
                          "m": HO1D_MAX if k == 0 else rng.randint(0, HO1D_MAX),
                          "theta": rng.choice(th)}
                         for k in range(HO1D_FAMILY)])
        th = _angles(rng)
        l = f % (RADIAL_L_MAX + 1)
        families.append([{"kind": "radial",
                          "u": RADIAL_UV_MAX if k == 0 else rng.randint(0, RADIAL_UV_MAX),
                          "v": RADIAL_UV_MAX if k == 0 else rng.randint(0, RADIAL_UV_MAX),
                          "l": l, "theta": rng.choice(th)}
                         for k in range(RADIAL_FAMILY)])
        th = _angles(rng)
        fam = []
        for k in range(SPHERICAL_FAMILY):
            l = k % (SPHERICAL_L_MAX + 1)
            fam.append({"kind": "spherical", "l": l, "m1": rng.randint(-l, l),
                        "m2": rng.randint(-l, l), "theta": rng.choice(th)})
        families.append(fam)
    return families


def write_states(path: str, descriptors: list[dict]) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(json.dumps(d) + "\n" for d in descriptors))
    return path


class GramOp:
    """``quatosc gram --states FILE`` through ``quatosc.cli.main``, stdout captured."""

    def __init__(self, cli_module, descriptors: list[dict], path: str):
        self.cli = cli_module
        self.kind = descriptors[0]["kind"]
        self.descriptors = descriptors
        self.argv = ["gram", "--states", write_states(path, descriptors)]

    def run(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(self.argv)
        return code, buf.getvalue()

    def check(self, output) -> list[float]:
        code, text = output
        refcheck.require(code == 0, f"gram exited {code}")
        return refcheck.check_gram_report(refcheck.parse_report(text), self.descriptors)


def gram_family(seed: int, workdir: str) -> list[GramOp]:
    from quatosc import cli
    return [GramOp(cli, fam, os.path.join(workdir, f"family{i}.jsonl"))
            for i, fam in enumerate(gram_family_inputs(seed))]


# ---------------------------------------------------------------------------
# state-algebra: symbolic operators on a 4-D product state, in-process

ALGEBRA_OPS_PER_ROUND = 16
# Every product state has the same quantum numbers, in a seeded order over
# its 4 factors, and every ladder pair has n + m = LADDER_MAX: a fixed problem
# size, so that an operation's cost does not depend on the seed.
PRODUCT_LEVELS = (0, 1, 2, 3, 4, 5, 6, 6)
LADDER_MAX = 9
LADDER_GRID = [-4.0 + 8.0 * k / 12 for k in range(13)]


class AlgebraOp:
    """Builds a product state and a ladder-built pair and returns every value
    the checks need: energy, quadrature norm, pointwise values, residual."""

    kind = "product"

    def __init__(self, qo, factors: list[tuple[int, int, float]],
                 pair: tuple[int, int, float], t: float):
        self.qo = qo
        self.factors = factors
        self.pair = pair
        self.t = t
        self.orders = [max(n, m) + 2 for n, m, _ in factors]

    def run(self):
        qo = self.qo
        state = qo.product_state([qo.QPair(*f) for f in self.factors])
        energy = qo.cartesian_energy(state)
        rules = [qo.make_rule("gauss_hermite", k) for k in self.orders]
        norm = qo.inner_quad(state, state, 0.0, rules)
        q = qo.QPair(*self.pair)
        built, direct = qo.build_via_ladder(q), qo.psi_nm(q)
        values = [(qo.evaluate(built, x, self.t), qo.evaluate(direct, x, self.t))
                  for x in LADDER_GRID]
        residual = qo.schrodinger_residual(built, t=self.t)
        return energy, norm, values, residual

    def check(self, output) -> list[float]:
        energy, norm, values, residual = output
        devs = [refcheck.within("cartesian_energy", energy,
                                sum(refcheck.pair_energy(*f) for f in self.factors)),
                refcheck.within("quadrature norm", norm, 1.0),
                refcheck.within("schrodinger_residual", residual, 0.0)]
        n, m, theta = self.pair
        for x, (a, b) in zip(LADDER_GRID, values):
            z0, z1 = refcheck.pair_value(n, m, theta, x, self.t)
            for got, ref in ((a.x0, z0.real), (a.x1, z0.imag), (a.x2, z1.real), (a.x3, z1.imag)):
                devs.append(refcheck.within(f"ladder state at x={x}", got, ref))
            for got, ref in ((b.x0, z0.real), (b.x1, z0.imag), (b.x2, z1.real), (b.x3, z1.imag)):
                devs.append(refcheck.within(f"psi_nm at x={x}", got, ref))
        return devs


def state_algebra(seed: int, workdir: str) -> list[AlgebraOp]:
    import quatosc
    rng = random.Random(f"state-algebra:{seed}")
    ops = []
    for _ in range(ALGEBRA_OPS_PER_ROUND):
        levels = rng.sample(PRODUCT_LEVELS, len(PRODUCT_LEVELS))
        factors = [(levels[2 * k], levels[2 * k + 1], rng.uniform(0.0, 0.5 * math.pi))
                   for k in range(len(levels) // 2)]
        n = rng.randint(0, LADDER_MAX)
        pair = (n, LADDER_MAX - n, rng.uniform(0.0, 0.5 * math.pi))
        ops.append(AlgebraOp(quatosc, factors, pair, rng.uniform(0.0, 2.0)))
    return ops


# ---------------------------------------------------------------------------
# cli-cold: one fresh `python -m quatosc` process per operation

SAMPLE_GRID = (-4.0, 4.0, 41)


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], env: dict, cwd: str, out_path: str, err_path: str):
    """Run one child to its end; returns (exit code, wall seconds, peak RSS in MB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=cwd)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class CliOp:
    """One ``python -m quatosc`` command; its check parses the JSON report."""

    def __init__(self, command: str, args: list[str], checker, root: str, workdir: str):
        self.kind = command
        self.args = [command] + args
        self.checker = checker
        self.root = root
        self.env = child_env(root)
        self.out_path = os.path.join(workdir, f"{command}.out")
        self.err_path = os.path.join(workdir, f"{command}.err")
        self.peak_rss_mb = 0.0
        self.last_wall = 0.0

    def child_argv(self, prefix: list[str] | None = None) -> list[str]:
        return [sys.executable] + (prefix or ["-m", "quatosc"]) + self.args

    def run(self, prefix: list[str] | None = None):
        code, wall, rss = run_child(self.child_argv(prefix), self.env, self.root,
                                    self.out_path, self.err_path)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        self.last_wall = wall
        with open(self.out_path, "rb") as fh:
            return code, fh.read().decode("utf-8", "replace")

    def check(self, output) -> list[float]:
        code, text = output
        refcheck.require(code == 0, f"quatosc {self.kind} exited {code}")
        return self.checker(refcheck.parse_report(text))


def cli_cold(seed: int, workdir: str, root: str) -> list[CliOp]:
    rng = random.Random(f"cli-cold:{seed}")

    def pair(top, edge=False):
        """A seeded ho1d state; ``edge`` puts it at the top of the range."""
        return {"kind": "ho1d", "n": top if edge else rng.randint(0, top),
                "m": top if edge else rng.randint(0, top),
                "theta": rng.uniform(0.0, 0.5 * math.pi)}

    spectrum = [pair(8, k == 0) for k in range(3)]
    gram = [pair(10, k == 0) for k in range(4)]
    sample = pair(10, True)
    t = round(rng.uniform(0.0, 2.0), 6)
    lo, hi, count = SAMPLE_GRID
    grid = f"{lo:g}:{hi:g}:{count}"
    spectrum_path = write_states(os.path.join(workdir, "spectrum.jsonl"), spectrum)
    gram_path = write_states(os.path.join(workdir, "gram.jsonl"), gram)
    sample_path = write_states(os.path.join(workdir, "sample.jsonl"), [sample])
    return [
        CliOp("spectrum", ["--states", spectrum_path],
              lambda r: refcheck.check_spectrum_report(r, spectrum), root, workdir),
        CliOp("gram", ["--states", gram_path],
              lambda r: refcheck.check_gram_report(r, gram), root, workdir),
        CliOp("sample", ["--states", sample_path, "--grid", grid, "--time", repr(t)],
              lambda r: refcheck.check_sample_report(r, sample, SAMPLE_GRID, t), root, workdir),
        CliOp("verify", ["all"], refcheck.check_verify_report, root, workdir),
    ]
