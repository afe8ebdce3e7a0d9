"""Billiard dynamics, Kronecker circles, and isospectral Radon invariants
for planar tables."""

from .billiard import (ChordData, Orbit, PhasePoint, billiard_map,
                       billiard_map_many, flowout_integral, map_jacobian, orbit)
from .geometry import (BoundaryCurve, LiouvilleTable, curve_from_spec,
                       elliptic_table, elliptic_table_for_ellipse,
                       liouville_validate, make_circle, make_ellipse,
                       make_fourier, table_from_spec)
from .quasi import (BirkhoffData, QuasiEigenvalue, evaluate_mu, find_indices,
                    solve_recursion)
from .radon import (BoundaryFunction, LerayCircle, RadonPair, SymmetryGroup,
                    bouncing_ball_identity_check, leray_mass,
                    librational_circles, liouville_radon, rotation_function,
                    rotational_circle, symmetry_average, torus_invariant)
from .rigidity import (RadonMatrix, invert_radon, radon_matrix,
                       rotation_profile, symmetric_basis_function)
from .spectra import (IntervalClusterSet, Spectrum, build_clusters,
                      trap_constancy, verify_H1, verify_H2, weyl_fit)
from .tori import (ActionData, DiophantineWitness, InvariantCircle,
                   RotationData, action_data, circle_conjugacy,
                   diophantine_kappa, rotation_number)
from .wiener import (TorusFunction, apply_Lomega, load_coefficients,
                     solve_homological, wiener_norm)

__version__ = "0.1.0"
