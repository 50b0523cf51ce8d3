"""Exact dynamics of two identical two-level atoms coupled to one cavity mode.

The resonant rotating-wave Hamiltonian (hbar = 1)

    H = omega * (a^dag a + sz1/2 + sz2/2)
        + g * ((sm1 + sm2) a^dag + (sp1 + sp2) a)

conserves the excitation number K = a^dag a + (sz1 + sz2 + 2)/2, so it is
block diagonal over K.  Each block is spanned by

    { |ee, K-2>, |eg, K-1>, |ge, K-1>, |gg, K> }

(dropping entries with negative or over-truncation photon labels) and is
diagonalized once per parameter set; evolution is then exact per block.

Basis conventions: atom states are ordered (e, g), so a state vector over
(atom 1, atom 2, field) has C-order layout with the photon index fastest.
By default omega = 0, i.e. amplitudes are carried in the interaction
picture; a nonzero omega only adds the per-block phase omega*(K-1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np
from scipy.special import gammaln

from .tensor import PureState, SystemShape

GUARD_TOL = 1e-8
GUARD_BAND = 3
NORM_DRIFT_TOL = 1e-10
CHUNK_BUDGET = 1 << 20  # bytes of amplitudes per evolve_series chunk

ATOMIC_LABELS = ("ee", "eg", "ge", "gg")
_SQRT2 = math.sqrt(2.0)

# Atomic basis order is (ee, eg, ge, gg); "e" is index 0 on each atom.
ATOMIC_STATES = {
    "ee": np.array([1.0, 0.0, 0.0, 0.0], dtype=complex),
    "gg": np.array([0.0, 0.0, 0.0, 1.0], dtype=complex),
    "sym_plus": np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / _SQRT2,
    "cat_plus": np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / _SQRT2,
    "singlet": np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / _SQRT2,
}


class TruncationError(RuntimeError):
    """Raised when population piles up against the photon-number cutoff."""


@dataclass(frozen=True)
class ModelParams:
    """Coupling g, photon cutoff n_max and (optional) common frequency omega."""

    g: float
    n_max: int
    omega: float = 0.0

    def __post_init__(self):
        if not self.g > 0:
            raise ValueError("coupling g must be positive")
        if int(self.n_max) < 1:
            raise ValueError("n_max must be at least 1")
        object.__setattr__(self, "g", float(self.g))
        object.__setattr__(self, "n_max", int(self.n_max))
        object.__setattr__(self, "omega", float(self.omega))

    @property
    def field_dim(self) -> int:
        return self.n_max + 1

    @property
    def shape(self) -> SystemShape:
        return SystemShape((2, 2, self.field_dim))


def fock_state(n: int, n_max: int) -> np.ndarray:
    """Photon-number state |n> as a vector of length n_max + 1."""
    n = int(n)
    if not 0 <= n <= n_max:
        raise ValueError(f"fock label {n} outside truncation 0..{n_max}")
    vec = np.zeros(n_max + 1, dtype=complex)
    vec[n] = 1.0
    return vec


def coherent_state(mean_n: float, tail_tol: float = 1e-10) -> tuple[np.ndarray, int]:
    """Coherent state with real amplitude alpha = sqrt(mean_n).

    The cutoff is the smallest n_max whose discarded Poisson tail mass is
    below ``tail_tol``; the truncated vector is re-normalized.

    Returns
    -------
    (vector, n_max) : the field vector of length n_max + 1 and the cutoff.
    """
    if mean_n < 0:
        raise ValueError("mean photon number must be >= 0")
    if not 0.0 < tail_tol < 1.0:
        raise ValueError("tail_tol must lie strictly between 0 and 1")
    if mean_n == 0:
        return np.ones(1, dtype=complex), 0
    # P(n) from logs to stay finite at large mean_n.  The tail mass beyond
    # each n is accumulated from above so tiny tolerances survive roundoff.
    hard_cap = int(mean_n + 20.0 * math.sqrt(mean_n) + 200)
    ns = np.arange(hard_cap + 1)
    log_p = ns * math.log(mean_n) - gammaln(ns + 1.0) - mean_n
    p = np.exp(log_p)
    tail_above = np.zeros_like(p)
    tail_above[:-1] = np.cumsum(p[::-1])[::-1][1:]
    small = np.nonzero(tail_above < tail_tol)[0]
    if small.size == 0:
        raise ValueError("could not satisfy tail_tol below the hard cutoff")
    n_max = int(small[0])
    amps = np.exp(0.5 * log_p[: n_max + 1]).astype(complex)
    amps /= np.linalg.norm(amps)
    return amps, n_max


def atomic_state(spec: Union[str, Sequence[complex], np.ndarray]) -> np.ndarray:
    """Two-atom state from a named preset or raw amplitudes.

    Named presets: ``ee``, ``gg``, ``sym_plus`` ((|eg>+|ge>)/sqrt2),
    ``cat_plus`` ((|gg>+|ee>)/sqrt2) and ``singlet`` ((|eg>-|ge>)/sqrt2).
    Raw input is a length-4 vector in the (ee, eg, ge, gg) basis and is
    normalized here.
    """
    if isinstance(spec, str):
        try:
            return ATOMIC_STATES[spec].copy()
        except KeyError:
            raise ValueError(
                f"unknown atomic state {spec!r}; choose from {sorted(ATOMIC_STATES)}"
            ) from None
    vec = np.asarray(spec, dtype=complex).ravel()
    if vec.size != 4:
        raise ValueError("raw atomic amplitudes must have length 4")
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        raise ValueError("atomic amplitudes are all zero")
    return vec / norm


def initial_state(atomic, field: np.ndarray, params: ModelParams) -> PureState:
    """Product state (two atoms) x (field vector), zero-padded to the cutoff."""
    at = atomic_state(atomic)
    fv = np.asarray(field, dtype=complex).ravel()
    if fv.size > params.field_dim:
        raise ValueError("field vector longer than the declared truncation")
    if fv.size < params.field_dim:
        fv = np.concatenate([fv, np.zeros(params.field_dim - fv.size, dtype=complex)])
    amps = np.kron(at, fv)
    amps /= np.linalg.norm(amps)
    return PureState(params.shape, amps)


def block_basis(k: int, n_max: int) -> tuple[tuple[str, int], ...]:
    """Basis labels (atomic label, photon number) of excitation block k."""
    if k < 0:
        raise ValueError("excitation number must be >= 0")
    candidates = (("ee", k - 2), ("eg", k - 1), ("ge", k - 1), ("gg", k))
    return tuple((lbl, n) for lbl, n in candidates if 0 <= n <= n_max)


_ATOM_OFFSET = {"ee": 0, "eg": 1, "ge": 2, "gg": 3}


@dataclass(frozen=True)
class BlockPropagator:
    """Eigendecomposition of one excitation block.

    ``indices`` are flat positions in the C-ordered (2, 2, n_max+1)
    amplitude vector; ``eigenvectors`` holds eigenvectors as columns.
    """

    excitation: int
    basis: tuple[tuple[str, int], ...]
    indices: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.basis)


def _block_hamiltonian(k: int, basis, params: ModelParams) -> np.ndarray:
    dim = len(basis)
    h = np.zeros((dim, dim))
    pos = {lbl: i for i, (lbl, _) in enumerate(basis)}
    g = params.g
    # (sm1 + sm2) a^dag + h.c. within the block
    if "ee" in pos and k >= 1:
        amp = g * math.sqrt(k - 1)
        for lbl in ("eg", "ge"):
            if lbl in pos:
                h[pos[lbl], pos["ee"]] = amp
                h[pos["ee"], pos[lbl]] = amp
    if "gg" in pos:
        amp = g * math.sqrt(k)
        for lbl in ("eg", "ge"):
            if lbl in pos:
                h[pos["gg"], pos[lbl]] = amp
                h[pos[lbl], pos["gg"]] = amp
    # free part omega*(a^dag a + sz1/2 + sz2/2) is omega*(k-1) on the block
    if params.omega != 0.0:
        h += params.omega * (k - 1) * np.eye(dim)
    return h


def build_block(k: int, params: ModelParams) -> BlockPropagator:
    """Diagonalize excitation block ``k`` for the given parameters."""
    basis = block_basis(k, params.n_max)
    if not basis:
        raise ValueError(f"excitation {k} has no basis states at truncation {params.n_max}")
    h = _block_hamiltonian(k, basis, params)
    evals, evecs = np.linalg.eigh(h)
    gram = evecs.conj().T @ evecs
    if np.max(np.abs(gram - np.eye(len(basis)))) > 1e-12:
        raise RuntimeError("block eigenvectors failed the unitarity check")
    d = params.field_dim
    idx = np.array([_ATOM_OFFSET[lbl] * d + n for lbl, n in basis])
    return BlockPropagator(
        excitation=k,
        basis=basis,
        indices=idx,
        eigenvalues=evals,
        eigenvectors=evecs.astype(complex),
    )


def _top_band_population(amps: np.ndarray, field_dim: int, band: int = GUARD_BAND) -> np.ndarray:
    """Population within ``band`` photon indices of the cutoff, per row of an (N, 4*D) stack."""
    tens = amps.reshape(-1, 4, field_dim)
    return np.sum(np.abs(tens[..., max(0, field_dim - band):]) ** 2, axis=(1, 2))


class TcmPropagator:
    """All excitation blocks of one parameter set, grouped for fast reuse.

    Blocks of equal dimension are stacked so a time step is a handful of
    batched (N, d, d) @ (N, d) products instead of a Python loop over K.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.blocks = tuple(build_block(k, params) for k in range(params.n_max + 3))
        covered = np.concatenate([b.indices for b in self.blocks])
        if sorted(covered.tolist()) != list(range(4 * params.field_dim)):
            raise RuntimeError("excitation blocks do not partition the Hilbert space")
        groups: dict[int, list[BlockPropagator]] = {}
        for b in self.blocks:
            groups.setdefault(b.dim, []).append(b)
        self._groups = {
            dim: (
                np.stack([b.indices for b in bs]),
                np.stack([b.eigenvalues for b in bs]),
                np.stack([b.eigenvectors for b in bs]),
            )
            for dim, bs in groups.items()
        }

    def _check_state(self, state: PureState) -> np.ndarray:
        if state.shape.dims != (2, 2, self.params.field_dim):
            raise ValueError(
                f"state dims {state.shape.dims} do not match params (2, 2, {self.params.field_dim})"
            )
        amps = state.amplitudes
        top = _top_band_population(amps, self.params.field_dim)[0]
        if not top <= GUARD_TOL:
            raise TruncationError(
                f"population {top:.3e} within {GUARD_BAND} photon indices of the cutoff "
                f"n_max={self.params.n_max} exceeds {GUARD_TOL:g}; raise n_max or tighten tail_tol"
            )
        return amps

    def evolve(self, state: PureState, t: float) -> PureState:
        """Propagate ``state`` by time ``t`` (exact per-block evolution)."""
        for _, out in self.evolve_series(state, [t]):
            return PureState(state.shape, out[0])
        raise AssertionError("unreachable")

    def evolve_series(
        self, state: PureState, times: Sequence[float]
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (t_chunk, amplitudes) over the requested times, in order.

        ``amplitudes`` has one row of length 4*D per entry of ``t_chunk``;
        a chunk holds at most ``CHUNK_BUDGET`` bytes of amplitudes (and at
        least one time), so memory stays bounded however long the grid is.
        The state is projected onto the block eigenbases once; each chunk
        then only applies phases.  Norm conservation and the photon
        truncation guard are checked at every emitted time.
        """
        amps = self._check_state(state)
        d = self.params.field_dim
        times = np.asarray(times, dtype=float).ravel()
        step = max(1, CHUNK_BUDGET // amps.nbytes)
        projected = {
            dim: np.einsum("kji,kj->ki", vecs.conj(), amps[idx])
            for dim, (idx, evals, vecs) in self._groups.items()
        }
        for start in range(0, times.size, step):
            t = times[start:start + step]
            out = np.empty((t.size, amps.size), dtype=amps.dtype)
            for dim, (idx, evals, vecs) in self._groups.items():
                phased = projected[dim] * np.exp(-1j * evals * t[:, None, None])
                block_amps = np.einsum("kij,tkj->tki", vecs, phased)
                out[:, idx.ravel()] = block_amps.reshape(t.size, -1)
            drift = np.abs(np.linalg.norm(out, axis=1) - 1.0)
            bad = ~(drift <= NORM_DRIFT_TOL)
            if bad.any():
                raise RuntimeError(
                    f"norm drifted by {drift[bad][0]!r} at t={t[bad][0]:g} during evolution"
                )
            top = _top_band_population(out, d)
            bad = ~(top <= GUARD_TOL)
            if bad.any():
                raise TruncationError(
                    f"population {top[bad][0]:.3e} within {GUARD_BAND} photon indices of the "
                    f"cutoff at t={t[bad][0]:g}; raise n_max or tighten tail_tol"
                )
            yield t, out


@functools.lru_cache(maxsize=16)
def _cached_propagator(params: ModelParams) -> TcmPropagator:
    return TcmPropagator(params)


def evolve(state: PureState, t: float, params: ModelParams) -> PureState:
    """Evolve ``state`` under the block Hamiltonian for time ``t``.

    Eigendecompositions are cached per parameter set, so repeated calls
    with different times are cheap.
    """
    return _cached_propagator(params).evolve(state, t)


def atomic_inversion(state: PureState) -> float:
    """P(both atoms excited) - P(both atoms in the ground state)."""
    tens = state.tensor()
    p_ee = float(np.sum(np.abs(tens[0, 0]) ** 2))
    p_gg = float(np.sum(np.abs(tens[1, 1]) ** 2))
    return p_ee - p_gg


def excitation_map(field_dim: int) -> np.ndarray:
    """Excitation number K of each flat (atom1, atom2, photon) index."""
    atom_exc = np.array([2, 1, 1, 0])  # ee, eg, ge, gg
    return np.add.outer(atom_exc, np.arange(field_dim)).ravel()


def excitation_distribution(state: PureState) -> np.ndarray:
    """Probability of each excitation number K = 0 .. n_max + 2."""
    dims = state.shape.dims
    if dims[:2] != (2, 2):
        raise ValueError("expected a (2, 2, field) state")
    return excitation_rows(state.amplitudes[None], dims[2])[0]


def excitation_rows(amps: np.ndarray, field_dim: int) -> np.ndarray:
    """``excitation_distribution`` of each row of an (N, 4*D) amplitude stack."""
    n_k = field_dim + 2
    index = np.arange(amps.shape[0])[:, None] * n_k + excitation_map(field_dim)
    weights = np.abs(amps) ** 2
    counts = np.bincount(index.ravel(), weights=weights.ravel(), minlength=amps.shape[0] * n_k)
    return counts.reshape(-1, n_k)


def energy_expectation(state: PureState, params: ModelParams) -> float:
    """<H> for the block Hamiltonian (conserved under evolve)."""
    prop = _cached_propagator(params)
    amps = state.amplitudes
    total = 0.0
    for b in prop.blocks:
        sub = amps[b.indices]
        coeff = b.eigenvectors.conj().T @ sub
        total += float(np.sum(np.abs(coeff) ** 2 * b.eigenvalues))
    return total
