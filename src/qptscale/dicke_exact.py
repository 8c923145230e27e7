"""Exact numerics for the spin-boson Hamiltonian on a truncated basis in
the normal phase: the matrix-free even parity block, its ground state,
finite-size fidelity (the CLI's ``converge`` task turns it into D(N)) and
exact echo curves.  numpy only."""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace

import numpy as np

from .dicke import DickeParams, critical_coupling, mode_energies
from .echo import EchoSeries, _as_time_grid
from .errors import DomainError, InputError, ResourceError
from .linalg import GatherOperator, LanczosInfo, lanczos_ground, lanczos_survival

MAX_DIM = 200_000  # basis states a truncated system may have

_solved: ContextVar[dict | None] = ContextVar("solved", default=None)


@dataclass(frozen=True)
class TruncatedDicke:
    """Finite-size description: n_atoms two-level atoms (collective spin
    j = n_atoms / 2) and boson levels 0 .. n_boson - 1, in a basis of
    ``dim`` = n_boson * (n_atoms + 1) states, at most ``MAX_DIM``
    (ResourceError above it)."""

    n_atoms: int
    n_boson: int
    omega: float
    omega0: float
    coupling: float

    def __post_init__(self):
        for name in ("n_atoms", "n_boson"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InputError(f"{name} must be an integer, got {value!r}")
        if self.n_atoms < 1:
            raise InputError("n_atoms must be at least 1")
        if self.n_boson < 2:
            raise InputError("n_boson must be at least 2")
        DickeParams(self.omega, self.omega0, self.coupling)  # reuse validation
        if self.dim > MAX_DIM:
            raise ResourceError(f"dim {self.dim} exceeds the memory cap {MAX_DIM}")

    @property
    def j(self) -> float:
        return 0.5 * self.n_atoms

    @property
    def dim(self) -> int:
        return self.n_boson * (self.n_atoms + 1)


def build_hamiltonian(system: TruncatedDicke) -> GatherOperator:
    """The even parity block of the truncated Hamiltonian, the basis states
    whose n + m + j is even, in ascending n * (n_atoms + 1) + m + j, as a
    :class:`~qptscale.linalg.GatherOperator` with four gather rows.

    Diagonal entries are omega * n + omega0 * m; the coupling connects
    (n, m) to (n +/- 1, m +/- 1) with amplitude
    (coupling / sqrt(n_atoms)) * sqrt(boson factor) * sqrt(j(j+1) - m(m +/- 1)),
    where the boson factor is n + 1 for n -> n + 1 and n for n -> n - 1.
    Both moves change n + m + j by an even number, so the even block
    decouples from the odd one, and below the critical coupling it holds
    the ground state.
    """
    na, nb, j = system.n_atoms, system.n_boson, system.j
    width = na + 1
    n, k = np.divmod(np.arange(system.dim), width)
    in_block = (n + k) % 2 == 0
    position = np.cumsum(in_block) - 1  # block position of each block state
    idx = np.flatnonzero(in_block)
    n, k = n[idx], k[idx]
    m = k - j
    diagonal = system.omega * n + system.omega0 * m
    g = system.coupling / math.sqrt(na)
    raising = lambda m: np.sqrt((j - m) * (j + m + 1.0))  # <m + 1| J+ |m>
    lowering = lambda m: np.sqrt((j + m) * (j - m + 1.0))  # <m - 1| J- |m>
    moves = ((1, 1, np.sqrt(n + 1.0) * raising(m)),
             (-1, -1, np.sqrt(n) * raising(m - 1)),
             (1, -1, np.sqrt(n + 1.0) * lowering(m)),
             (-1, 1, np.sqrt(n) * lowering(m + 1)))
    neighbours = np.zeros((len(moves), idx.size), dtype=np.intp)
    amplitudes = np.zeros((len(moves), idx.size))
    for row, (dn, dk, factor) in enumerate(moves):
        ok = (n + dn >= 0) & (n + dn < nb) & (k + dk >= 0) & (k + dk <= na)
        neighbours[row, ok] = position[idx[ok] + dn * width + dk]
        amplitudes[row, ok] = g * factor[ok]
    return GatherOperator(diagonal, neighbours, amplitudes)


def _check_normal(system: TruncatedDicke, *couplings: float) -> None:
    """Refuse a system whose coupling, or any of ``couplings``, lies at or
    above its critical coupling (DomainError): there the parity-symmetric
    exact ground states carry the sqrt(N) mean-field displacement, which the
    normal-phase analytics do not describe."""
    lc = critical_coupling(system.omega, system.omega0)
    couplings = (system.coupling, *couplings)
    if any(c >= lc for c in couplings):
        raise DomainError(
            f"exact ground states, fidelities and echoes need couplings below "
            f"the critical coupling {lc:.6g} (got {', '.join(f'{c:.6g}' for c in couplings)})")


def ground_state_exact(system: TruncatedDicke) -> tuple[float, np.ndarray, LanczosInfo]:
    """Ground state of the truncated Hamiltonian below the critical coupling
    (DomainError at or above it): :func:`~qptscale.linalg.lanczos_ground`'s
    ``(energy, vector, LanczosInfo)`` for the even parity block
    ``build_hamiltonian(system)``, the vector in that block's coordinates.

    Lanczos starts from block position 0, |n=0, m=-j>, the exact ground
    state at coupling 0; the normal-phase ground state, a squeezed vacuum of
    the zero mode, stays piled up next to it.  The start overlaps the ground
    state: for any coupling > 0 the block is irreducible, and after the
    gauge (-1)^n every off-diagonal element is negative, so by
    Perron-Frobenius the ground state has no zero component.
    """
    _check_normal(system)
    block = build_hamiltonian(system)
    start = np.zeros(block.shape[0])
    start[0] = 1.0  # |n=0, m=-j>
    return lanczos_ground(block, start)


@contextmanager
def solve_once():
    """Within the ``with`` block, :func:`fidelity_exact` and
    :func:`echo_exact` solve each distinct truncated system's ground state
    once and reuse it; outside it, every call solves afresh."""
    token = _solved.set({})
    try:
        yield
    finally:
        _solved.reset(token)


def _ground_state(system: TruncatedDicke) -> tuple[float, np.ndarray, LanczosInfo]:
    """:func:`ground_state_exact`, reused inside :func:`solve_once`."""
    solved = _solved.get()
    if solved is None:
        return ground_state_exact(system)
    if system not in solved:
        solved[system] = ground_state_exact(system)
    return solved[system]


def fidelity_exact(system: TruncatedDicke, coupling: float) -> float:
    """|<g1|g2>| of the ground states of ``system`` and of the same truncated
    system at ``coupling``, on their shared even parity block.  Both
    couplings must lie below the critical coupling (DomainError otherwise).
    """
    other = replace(system, coupling=coupling)
    _check_normal(system, coupling)
    _, g1, _ = _ground_state(system)
    _, g2, _ = _ground_state(other)
    return float(abs(g1 @ g2))


def echo_exact(system: TruncatedDicke, coupling: float, t_grid) -> EchoSeries:
    """Exact echo |<g2| exp(-i H1 t) |g2>|^2 of the ground state g2 of the
    same truncated system at ``coupling`` under the Hamiltonian H1 of
    ``system``.

    The survival amplitude comes from Lanczos tridiagonalization of the
    even parity block of H1, which holds g2, seeded with g2 (see
    :func:`qptscale.linalg.lanczos_survival`); its depth is the one entry
    of ``meta``, ``"krylov_depth"``.  Both couplings must lie below the
    critical coupling (DomainError otherwise).  ``omega1`` is the
    thermodynamic-limit zero-mode energy at the coupling of ``system``, so
    the series' ``tau``, ``period`` and ``covers_period`` are those of the
    effective model.
    """
    other = replace(system, coupling=coupling)
    _check_normal(system, coupling)
    t = _as_time_grid(t_grid)
    _, g2, _ = _ground_state(other)
    amp, depth = lanczos_survival(build_hamiltonian(system), g2, t)
    e1 = mode_energies(DickeParams(system.omega, system.omega0, system.coupling)).e1
    return EchoSeries(t=t, echo=np.abs(amp) ** 2, omega1=e1,
                      meta={"krylov_depth": depth})
