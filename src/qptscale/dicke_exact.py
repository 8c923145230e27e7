"""Exact numerics for the spin-boson Hamiltonian on a truncated basis:
matrix-free parity-block operators, parity-resolved ground states,
finite-size fidelity (the CLI's ``converge`` task turns it into D(N)) and
exact echo curves.  numpy only."""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .dicke import DickeParams, critical_coupling, mode_energies
from .echo import EchoSeries, _as_time_grid
from .errors import DomainError, InputError, ResourceError
from .linalg import GatherOperator, lanczos_ground, lanczos_survival

MAX_DIM_DEFAULT = 200_000
GROUND_TOL = 1e-11        # Lanczos residual threshold, relative to |H|
QUASI_DEGENERATE_GAP = 1e-10  # parity gap below which blocks count as degenerate

_solved: ContextVar[dict | None] = ContextVar("solved", default=None)


@dataclass(frozen=True)
class TruncatedDicke:
    """Finite-size description: n_atoms two-level atoms (collective spin
    j = n_atoms / 2) and boson levels 0 .. n_boson - 1, in a basis of at most
    ``max_dim`` states (ResourceError above it).

    Basis index = boson_level * (n_atoms + 1) + k with k = m + j in 0..n_atoms.
    """

    n_atoms: int
    n_boson: int
    omega: float
    omega0: float
    coupling: float
    max_dim: int = MAX_DIM_DEFAULT

    def __post_init__(self):
        for name in ("n_atoms", "n_boson", "max_dim"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InputError(f"{name} must be an integer, got {value!r}")
        if self.n_atoms < 1:
            raise InputError("n_atoms must be at least 1")
        if self.n_boson < 2:
            raise InputError("n_boson must be at least 2")
        DickeParams(self.omega, self.omega0, self.coupling)  # reuse validation
        if self.dim > self.max_dim:
            raise ResourceError(f"dim {self.dim} exceeds the memory cap {self.max_dim}")

    @property
    def j(self) -> float:
        return 0.5 * self.n_atoms

    @property
    def dim(self) -> int:
        return self.n_boson * (self.n_atoms + 1)

    def index(self, boson_level: int, k: int) -> int:
        return boson_level * (self.n_atoms + 1) + k


def build_hamiltonian(system: TruncatedDicke, parity: str = "even") -> GatherOperator:
    """The ``parity`` block of the truncated Hamiltonian, the basis states
    whose n + m + j is even or odd, as a
    :class:`~qptscale.linalg.GatherOperator` with four gather rows.

    Diagonal entries are omega * n + omega0 * m; the coupling connects
    (n, m) to (n +/- 1, m +/- 1) with amplitude
    (coupling / sqrt(n_atoms)) * sqrt(boson factor) * sqrt(j(j+1) - m(m +/- 1)),
    where the boson factor is n + 1 for n -> n + 1 and n for n -> n - 1.
    Both moves change n + m + j by an even number, so the parity blocks
    decouple.
    """
    if parity not in ("even", "odd"):
        raise InputError(f"parity must be 'even' or 'odd', got {parity!r}")
    na, nb, j = system.n_atoms, system.n_boson, system.j
    width = na + 1
    n, k = np.divmod(np.arange(system.dim), width)
    idx = np.flatnonzero((n + k) % 2 == (parity == "odd"))
    n, k = n[idx], k[idx]
    m = k - j
    diagonal = system.omega * n + system.omega0 * m
    position = np.zeros(system.dim, dtype=np.intp)
    position[idx] = np.arange(idx.size)
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
    return GatherOperator(idx, diagonal, neighbours, amplitudes)


@dataclass(frozen=True)
class GroundState:
    """Lowest eigenpair with parity bookkeeping (vector in the full basis)."""

    energy: float
    vector: np.ndarray
    parity: str
    meta: dict


def ground_state_exact(system: TruncatedDicke) -> GroundState:
    """Ground state of the truncated Hamiltonian, by Lanczos on parity blocks.

    Below the critical coupling only the even parity block is solved (the
    ground state lives there); at and above it both blocks are solved and the
    lower one is returned, the even one when the two energies differ by less
    than ``QUASI_DEGENERATE_GAP``.  Near-degeneracy of the two blocks is
    reported in the metadata, with the Lanczos step count and final residual
    of the returned block.  The step count is that of the first residual
    check that passed: a multiple of ``KRYLOV_CHECK_EVERY`` unless the run
    broke down first.  Each block takes two Lanczos runs of that many steps,
    the second replaying the first to sum the Ritz vector, so a solve holds
    a few block-length vectors and no Krylov basis (see
    :func:`qptscale.linalg.lanczos_ground`).

    Lanczos starts each block from its position 0, the block's lowest bare
    state: |n=0, m=-j> (even) or |n=0, m=-j+1> (odd).  The even start is the
    exact ground state at coupling 0, and the normal-phase ground state, a
    squeezed vacuum of the zero mode, stays piled up next to it.  The start
    overlaps the ground state of either block: for any coupling > 0 the
    block is irreducible, and after the gauge (-1)^n every off-diagonal
    element is negative, so by Perron-Frobenius the ground state has no
    zero component.
    """
    lc = critical_coupling(system.omega, system.omega0)
    normal = system.coupling < lc
    solved = []
    for name in ["even"] if normal else ["even", "odd"]:
        block = build_hamiltonian(system, name)
        start = np.zeros(block.shape[0])
        start[0] = 1.0  # the block's lowest bare state
        e, v, info = lanczos_ground(block, GROUND_TOL, start=start)
        solved.append((e, v, name, block.indices, info))
    parity_gap = abs(solved[1][0] - solved[0][0]) if len(solved) > 1 else None
    quasi_degenerate = parity_gap is not None and parity_gap < QUASI_DEGENERATE_GAP
    odd = parity_gap is not None and not quasi_degenerate and solved[1][0] < solved[0][0]
    e0, v0, name, idx, info = solved[odd]
    vector = np.zeros(system.dim)
    vector[idx] = v0  # largest component positive, as lanczos_ground returns it
    meta = {
        "iterations": info.iterations,
        "residual": info.residual,
        "block_dim": idx.size,
        "parity_gap": parity_gap,
        "quasi_degenerate": quasi_degenerate,
    }
    return GroundState(energy=float(e0), vector=vector, parity=name, meta=meta)


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


def _ground_state(system: TruncatedDicke) -> GroundState:
    """:func:`ground_state_exact`, reused inside :func:`solve_once`."""
    solved = _solved.get()
    if solved is None:
        return ground_state_exact(system)
    if system not in solved:
        solved[system] = ground_state_exact(system)
    return solved[system]


def _check_pair(system1: TruncatedDicke, system2: TruncatedDicke) -> None:
    """Refuse two systems whose ground states cannot be compared.  Systems
    that differ in anything but ``coupling`` and ``max_dim`` lay out their
    vectors on different bases (InputError).  The parity-symmetric exact
    ground states at and above the critical coupling carry the sqrt(N)
    mean-field displacement, so overlaps built from them are not the
    fluctuation fidelity the analytics describe (DomainError)."""
    basis = lambda s: (s.n_atoms, s.n_boson, s.omega, s.omega0)
    if basis(system1) != basis(system2):
        raise InputError(
            f"the two systems must differ only in coupling and max_dim, got "
            f"(n_atoms, n_boson, omega, omega0) = {basis(system1)} and {basis(system2)}")
    lc = critical_coupling(system1.omega, system1.omega0)
    couplings = (system1.coupling, system2.coupling)
    if any(c >= lc for c in couplings):
        raise DomainError(
            f"exact fidelities and echoes need couplings below the critical "
            f"coupling {lc:.6g} (got {', '.join(f'{c:.6g}' for c in couplings)})")


def fidelity_exact(system1: TruncatedDicke, system2: TruncatedDicke) -> float:
    """|<g1|g2>| of the two systems' ground states on their common basis.

    The systems may differ only in ``coupling`` and ``max_dim`` (InputError
    otherwise), and both couplings must lie below the critical coupling
    (DomainError otherwise).
    """
    _check_pair(system1, system2)
    g1 = _ground_state(system1)
    g2 = _ground_state(system2)
    return float(abs(g1.vector @ g2.vector))


def echo_exact(system1: TruncatedDicke, system2: TruncatedDicke, t_grid) -> EchoSeries:
    """Exact echo |<g2| exp(-i H1 t) |g2>|^2 of system2's ground state under
    system1's Hamiltonian.

    The survival amplitude comes from Lanczos tridiagonalization of the
    parity block of H1 holding g2, seeded with g2 (see
    :func:`qptscale.linalg.lanczos_survival`); its depth is the one entry
    of ``meta``, ``"krylov_depth"``.  The systems obey the rules of
    :func:`fidelity_exact`.  ``omega1`` is the thermodynamic-limit
    zero-mode energy at system1's coupling, so the series' ``tau``,
    ``period`` and ``covers_period`` are those of the effective model.
    """
    _check_pair(system1, system2)
    t = _as_time_grid(t_grid)
    g2 = _ground_state(system2)
    h1 = build_hamiltonian(system1, g2.parity)
    amp, depth = lanczos_survival(h1, g2.vector[h1.indices], t)
    e1 = mode_energies(DickeParams(system1.omega, system1.omega0, system1.coupling)).e1
    return EchoSeries(t=t, echo=np.abs(amp) ** 2, omega1=e1,
                      meta={"krylov_depth": depth})
