"""Simulation and verification lab for the finite-dimensional constant-kernel
RBK coagulation ODE system: integration in three coordinate charts, detection
and extrapolation of the finite-time blowup of the rescaled system, and
quantitative checks of the closed-form identities and asymptotic laws."""

from .core import (
    AsymptoticLaw,
    SupportProfile,
    blowup_laws,
    embed_reduced,
    gcd_reduce,
    longtime_laws,
    longtime_laws_ambient,
    nu_odd_closed,
    phi_field,
    rbk_field,
    self_similar,
    support_profile,
)
from .integrate import (
    IntegrationError,
    IntegrationStats,
    IntegratorSettings,
    Trajectory,
    integrate_adaptive,
    integrate_logtime,
    integrate_phi_to_blowup,
    integrate_rbk,
)
from .asymptotics import (
    blowup_diagnostic,
    fit_power_law,
    longtime_diagnostic,
    psi_diagnostic,
    ratio_divergence,
)
from .harness import (
    identity_suite,
    omega_reference,
    state_reference,
    self_similar_residual,
)

__version__ = "0.1.0"
