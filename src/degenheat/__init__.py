"""Numerical laboratory for the degenerate semilinear heat equation
u_t - div(omega(x) grad u) = sum_i h_i(t) f_i(u)."""

from .errors import ConfigError, NumericError
from .weight import WeightCase, WeightSpec
from .grids import Field, Geometry, GridSpec, InitialProfile
from .semigroup import (DiffusionOperator, apply_semigroup, build_operator,
                        kernel_column, semigroup_defect)
from .dynamics import (ComparisonReport, ForcingTerm, IterateReport, Nonlinearity,
                       SimConfig, SimResult, TimeProfile, compare_runs,
                       monotone_iterates, simulate)
from .criteria import (CriteriaReport, DecayEnvelope, blowup_certificate,
                       critical_mass_growth, decay_fit, fujita_exponents,
                       growth_exponent, horizon_witness, osgood_tail,
                       second_critical_exponent, smallness_index)
from .lab import (EscalationLevel, PhasePoint, RunSpec, SweepSpec, apply_axis,
                  classify_point, default_escalation, points_to_csv, run_sweep,
                  sweep_svg)

__version__ = "0.1.0"
