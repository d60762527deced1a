"""Quaternionic quantum harmonic oscillator in a real Hilbert space.

The package builds every solution family of the model exactly (Cartesian states in
orthonormal Hermite-function coefficients, valued by their normalized recurrence; radial
states by Laguerre labels), evaluates the real inner product from the coefficients and
by quadrature (for radial states by exact half-line Gauss quadrature) and verifies the
orthogonality, energy, ladder-algebra and differential-equation claims.
"""

from .quaternion import (
    Quaternion,
    SymplecticPair,
    conj,
    is_parallel,
    mul,
    right_mul_i,
    sc,
)
from .specfun import (
    QuadratureRule,
    laguerre,
    laguerre_norm_const,
    make_rule,
    sph_harm,
)
from .wavestate import (
    Operator,
    PhysicalParams,
    WaveState,
    apply,
    d_dx,
    evaluate,
    evaluate_points,
    expectation,
    expectation_quaternionic,
    inner,
    inner_quad,
    moment_gram,
    quad_gram,
    mul_x,
    op_add,
    op_compose,
    right_i,
    scale,
    time_derivative,
    zero_state,
)
from .oscillator1d import (
    GramMatrix,
    QPair,
    build_via_ladder,
    energy_nm,
    energy_nm_correction_form,
    gram,
    hamiltonian,
    ladder,
    momentum,
    psi_n,
    psi_nm,
    schrodinger_residual,
)
from .multidim import (
    AngularState,
    QSphericalHarmonic,
    RadialState,
    SplitSpec,
    angular_gram,
    cartesian_energy,
    full_spherical_energy,
    product_state,
    qsph_harm,
    radial_energy,
    radial_energy_expectation,
    radial_gram,
    radial_inner,
    radial_ode_residual,
    radial_state,
    split_state,
)

__version__ = "0.1.0"
