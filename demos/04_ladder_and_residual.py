"""Ladder algebra and the time-dependent equation residual.

The lowering and raising operators are built from the position factor and
the right-i momentum action; their commutator acts as the identity, the
lowering operator annihilates the ground state, and repeated raising
reconstructs every two-slot state from bare Gaussians.  The residual of
the quaternionic Schroedinger equation vanishes on the solution family
and is a sensitive detector of a wrong time frequency.
"""

import math

import numpy as np

from quatosc import (
    QPair,
    apply,
    build_via_ladder,
    evaluate,
    ladder,
    psi_n,
    psi_nm,
    schrodinger_residual,
)
from quatosc.wavestate import Mode, PhysicalParams, WaveState

lower, raise_ = ladder("lower"), ladder("raise")

print("=== the lowering operator annihilates the ground state ===")
print("|a psi_0| =", apply(lower, psi_n(0)).norm())

print("\n=== commutator acting on eigenfunctions ===")
for n in (0, 5, 12, 20):
    s = psi_n(n)
    comm = apply(lower, apply(raise_, s)) - apply(raise_, apply(lower, s))
    print(f"  n={n:2d}: |([a, a+] - 1) psi_n| = {(comm - s).norm():.3e}")

print("\n=== algebraic construction of the two-slot states ===")
grid = np.linspace(-6, 6, 41)
for n, m, theta in [(0, 0, 0.8), (3, 1, 0.7), (6, 4, math.pi / 3)]:
    q = QPair(n, m, theta)
    a, b = build_via_ladder(q), psi_nm(q)
    sup = max(abs(evaluate(a - b, x, 0.5)) for x in grid)
    print(f"  (n={n}, m={m}, theta={theta:.3f}): sup |ladder - direct| = {sup:.3e}")

print("\n=== Schroedinger residual on solutions ===")
for n, m, theta in [(0, 0, 0.0), (1, 2, 0.7), (4, 3, math.pi / 2)]:
    r = schrodinger_residual(psi_nm(QPair(n, m, theta)), t=1.1)
    print(f"  (n={n}, m={m}, theta={theta:.3f}): residual = {r:.3e}")

print("\n=== and on a state with a deliberately wrong frequency ===")
# coefficient 1 on phi_0 = pi^(-1/4) exp(-X^2/2), the normalized ground state
bad = WaveState(1, (Mode(0, 1.0, ((1.0,),), -1.6),), PhysicalParams())
print("ground-state shape with frequency -1.6 instead of -0.5:")
print("residual =", schrodinger_residual(bad, t=0.0), " (scales with the frequency error)")
