"""Critical-ratio scaling toolkit for quantum phase transitions with a single
bosonic zero mode: ground-state fidelity, participation ratios, and Loschmidt
echoes for the Dicke and LMG models, cross-checked by exact diagonalization."""

__version__ = "0.1.0"

from .dicke import (DickeParams, ModeSpectrum, critical_coupling,
                    fidelity_gaussian, fidelity_scaling, mode_energies,
                    scaling_eta)
from .dicke_exact import (TruncatedDicke, build_hamiltonian, echo_exact,
                          fidelity_exact, ground_state_exact)
from .echo import (EchoSeries, GroupCollapse, collapse_check, min_echo,
                   mp_scaling, survival_closed)
from .errors import (CrossPhaseError, DomainError, InputError, NumericError,
                     QptError, ResourceError)
from .linalg import lanczos_ground, lanczos_survival
from .lmg import LmgParams, echo_lmg, fidelity_lmg
from .squeeze import SqueezeMap, participation_ratio, width_map
from .squeeze import fidelity as squeeze_fidelity

__all__ = [
    "CrossPhaseError", "DickeParams", "DomainError", "EchoSeries",
    "GroupCollapse", "InputError", "LmgParams", "ModeSpectrum",
    "NumericError", "QptError", "ResourceError", "SqueezeMap",
    "TruncatedDicke", "build_hamiltonian", "collapse_check",
    "critical_coupling", "echo_exact", "echo_lmg", "fidelity_exact",
    "fidelity_gaussian", "fidelity_lmg", "fidelity_scaling",
    "ground_state_exact", "lanczos_ground", "lanczos_survival", "min_echo",
    "mode_energies", "mp_scaling", "participation_ratio", "scaling_eta",
    "squeeze_fidelity", "survival_closed", "width_map",
]
