"""Critical-ratio scaling toolkit for quantum phase transitions with a single
bosonic zero mode: ground-state fidelity, participation ratios, and Loschmidt
echoes for the Dicke and LMG models, cross-checked by exact diagonalization."""

__version__ = "0.1.0"

from .dicke import (DickeParams, ModeSpectrum, critical_coupling,
                    fidelity_gaussian, fidelity_scaling, mode_energies,
                    near_critical_gap, scaling_eta)
from .dicke_exact import (GroundState, TruncatedDicke, build_hamiltonian,
                          echo_exact, fidelity_exact, ground_state_exact)
from .echo import (CollapseReport, EchoSeries, EnvelopeFit, GroupCollapse,
                   SemiclassicalParams, collapse_check, fit_envelope, min_echo,
                   mp_scaling, rescale_time, semiclassical_envelope,
                   survival_closed)
from .errors import (CrossPhaseError, DomainError, FitError, InputError,
                     NumericError, QptError, ResourceError)
from .linalg import lanczos_ground, lanczos_survival
from .lmg import LmgMode, LmgParams, echo_lmg, eta_lmg, fidelity_lmg, gap_angle
from .squeeze import (GroundExpansion, SqueezeMap, ground_expansion,
                      overlap_matrix, participation_ratio, relative_map)
from .squeeze import fidelity as squeeze_fidelity

__all__ = [
    "CollapseReport", "CrossPhaseError", "DickeParams", "DomainError",
    "EchoSeries", "EnvelopeFit", "FitError", "GroundExpansion",
    "GroundState", "GroupCollapse", "InputError", "LmgMode", "LmgParams",
    "ModeSpectrum", "NumericError", "QptError", "ResourceError",
    "SemiclassicalParams", "SqueezeMap",
    "TruncatedDicke", "build_hamiltonian", "collapse_check",
    "critical_coupling", "echo_exact", "echo_lmg",
    "eta_lmg", "fidelity_exact", "fidelity_gaussian",
    "fidelity_lmg", "fidelity_scaling", "fit_envelope", "gap_angle",
    "ground_expansion", "ground_state_exact", "lanczos_ground",
    "lanczos_survival", "min_echo",
    "mode_energies", "mp_scaling", "near_critical_gap", "overlap_matrix",
    "participation_ratio", "relative_map", "rescale_time",
    "scaling_eta", "semiclassical_envelope",
    "squeeze_fidelity", "survival_closed",
]
