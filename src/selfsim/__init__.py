"""Self-similar compressible-flow analysis toolkit.

Numerical library for 2-D self-similar isentropic flow of generalized
polytropic gases: thermodynamic closures, finite-difference field calculus,
mixed-type regime classification with an ellipticity audit, Hodge-Helmholtz
decomposition and Bernoulli reconstruction, a damped Newton solver for the
degenerate elliptic potential-flow equation (epsilon-continuation as its
fallback),
characteristic vorticity transport, and a delta-continuation quasi-potential
solver.
"""

from .errors import (CapExceeded, ConfigError, DimensionMismatch, DomainError,
                     FormatError, IndefiniteSystem, InternalError,
                     LinearStagnation, NonConvergence, NonSolenoidalInput,
                     RangeError, SelfsimError, SolverError,
                     SonicEncroachment, UncoveredNodes)
from .field import (Grid2D, ScalarField, VectorField, divergence, gradient,
                    hessian, laplacian, perp_gradient, read_field, rot,
                    write_field)
from .gas import (GasLaw, GasVariant, Regime, enthalpy, enthalpy_inverse,
                  mach, pressure, sound_speed_sq)
from .hodge import (bernoulli_GH, bernoulli_fields, bernoulli_residual,
                    decompose, integrability_residual, reconstruct_F,
                    stream_function)
from .potential import (EpsilonSchedule, PicardParams, PotentialProblem,
                        SolveReport, c2_of_phi, epsilon_continuation,
                        picard_solve, residual_Q)
from .quasipotential import (QuasiConfig, QuasiState, c2_quasi, compute_N1,
                             full_rotational_residual, gateaux_check,
                             linearized_L, reconstruct_F1, solve_quasi)
from .regime import (AuditVerdict, EigenTriple, RegimeReport, classify,
                     discriminant, eigen_self_similar, eigen_steady,
                     eigen_time_dependent, ellipticity_audit,
                     pseudo_mach_field)
from .vorticity import (InflowSet, inflow_boundary, transport_omega,
                        transport_residual)

__version__ = "0.1.0"
