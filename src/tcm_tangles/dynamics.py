"""Exact dynamics of two identical two-level atoms coupled to one cavity mode.

The resonant rotating-wave coupling (hbar = 1, interaction picture)

    H = g * ((sm1 + sm2) a^dag + (sp1 + sp2) a)

sets only the unit of time, so H is written in units of g (g = 1 below) and
every time here is the dimensionless gt.  H conserves the excitation number
K = a^dag a + (sz1 + sz2 + 2)/2, so it is block diagonal over K.  Each
block is spanned by

    { |ee, K-2>, |eg, K-1>, |ge, K-1>, |gg, K> }

(dropping entries whose photon labels fall outside the field window).  Each
block's coupling has spectrum {0, 0, +-Omega_K}, so evolution is exact in
closed form per block (see ``TcmPropagator``).

The field runs over a window of D photons: field index i is photon n0 + i.
Since block K spans photons K-2 .. K, a field on photons lo .. hi never
leaves lo-2 .. hi+2, so a window holding that reach loses nothing.  ``n0``
(default 0) enters only the sqrt(n) factors and messages; excitation
numbers are counted from n0.

The bare-frequency term omega * (a^dag a + sz1/2 + sz2/2) = omega * (K - 1)
is left out: it commutes with H and is a sum of one-party terms, so
exp(-i omega (K - 1) t) is a product of local unitaries on atom 1, atom 2
and the field, and changes no tangle, population or excitation distribution.

Basis conventions: atom states are ordered (e, g), so a state vector over
(atom 1, atom 2, field) has C-order layout with the photon index fastest.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence, Union

import numpy as np

from .tensor import (ATOM_ROWS, PureState, SystemShape, finite_real, finite_reals, four_rows,
                     tcm_field_dim, whole_number)

GUARD_TOL = 1e-8
GUARD_BAND = 3
TAIL_MASS = 1e-10  # Poisson mass a coherent field drops above its top photon
CONSERVATION_TOL = 1e-10  # largest drift of the norm or of the excitation distribution
CHUNK_BUDGET = 1 << 20  # bytes of amplitudes per evolve_series chunk

_SQRT2 = math.sqrt(2.0)

# Atomic basis order is (ee, eg, ge, gg); "e" is index 0 on each atom.
ATOMIC_STATES = {
    "ee": np.array([1.0, 0.0, 0.0, 0.0], dtype=complex),
    "gg": np.array([0.0, 0.0, 0.0, 1.0], dtype=complex),
    "sym_plus": np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / _SQRT2,
    "cat_plus": np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / _SQRT2,
    "singlet": np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / _SQRT2,
}
ATOM_EXCITATIONS = (2, 1, 1, 0)  # atomic excitations of ee, eg, ge, gg
REACH = max(ATOM_EXCITATIONS)  # block K spans photons K-2 .. K: a field edge moves by at most 2


class TruncationError(RuntimeError):
    """Raised when population piles up against an edge of the photon window."""


def _norm(vec: np.ndarray) -> float:
    """2-norm of a complex vector summed by a numpy ufunc, in an order fixed by its
    length; ``np.linalg.norm`` takes a BLAS dot, whose order follows the BLAS threads."""
    return float(np.sqrt(np.sum(vec.real**2 + vec.imag**2)))


def fock_state(n: int, n_max: int) -> np.ndarray:
    """Photon-number state |n> as a vector of length n_max + 1."""
    n_max = whole_number("n_max", n_max, 0)
    n = whole_number("fock label", n, 0, n_max)
    vec = np.zeros(n_max + 1, dtype=complex)
    vec[n] = 1.0
    return vec


def coherent_state(mean_n: float) -> np.ndarray:
    """Coherent state with real amplitude alpha = sqrt(mean_n).

    The cutoff is the smallest n_max whose discarded Poisson tail mass is
    below ``TAIL_MASS``; the truncated vector, of length n_max + 1, is
    re-normalized.
    """
    mean_n = finite_real("mean photon number", mean_n, 0)
    if mean_n == 0:
        return np.ones(1, dtype=complex)
    # P(n) from logs to stay finite at large mean_n.  The tail mass beyond
    # each n is accumulated from above so that TAIL_MASS survives roundoff;
    # it is 0 at the hard cap, far out in the tail, so a cutoff always exists.
    hard_cap = int(mean_n + 20.0 * math.sqrt(mean_n) + 200)
    ns = np.arange(hard_cap + 1)
    log_factorial = np.array([math.lgamma(n + 1.0) for n in range(hard_cap + 1)])
    log_p = ns * math.log(mean_n) - log_factorial - mean_n
    p = np.exp(log_p)
    tail_above = np.zeros_like(p)
    tail_above[:-1] = np.cumsum(p[::-1])[::-1][1:]
    n_max = int(np.argmax(tail_above < TAIL_MASS))
    amps = np.exp(0.5 * log_p[: n_max + 1]).astype(complex)
    amps /= _norm(amps)
    return amps


def atomic_state(spec: Union[str, Sequence[complex], np.ndarray]) -> np.ndarray:
    """Two-atom state from a named preset or raw amplitudes.

    Named presets: ``ee``, ``gg``, ``sym_plus`` ((|eg>+|ge>)/sqrt2),
    ``cat_plus`` ((|gg>+|ee>)/sqrt2) and ``singlet`` ((|eg>-|ge>)/sqrt2).
    Raw input is a length-4 vector in the (ee, eg, ge, gg) basis with a
    finite nonzero norm, and is normalized here.
    """
    if isinstance(spec, str):
        if spec not in ATOMIC_STATES:
            raise ValueError(f"unknown atomic state {spec!r}; choose from {sorted(ATOMIC_STATES)}")
        return ATOMIC_STATES[spec].copy()
    try:
        vec = np.asarray(spec, dtype=complex).ravel()
    except (TypeError, ValueError):  # a dict, a string entry: no complex numbers
        raise ValueError("raw atomic amplitudes must be numbers") from None
    if vec.size != 4:
        raise ValueError("raw atomic amplitudes must have length 4")
    norm = np.linalg.norm(vec)
    if not 1e-12 <= norm < np.inf:  # a NaN norm fails both
        raise ValueError("atomic amplitudes must be finite and not all zero")
    return vec / norm


def initial_state(atomic, field: np.ndarray, n_max: int) -> PureState:
    """Product state (two atoms) x (field vector), zero-padded to the photon cutoff n_max."""
    at = atomic_state(atomic)
    try:
        fv = np.asarray(field, dtype=complex).ravel()  # None becomes [nan], refused below
    except (TypeError, ValueError):
        raise ValueError("field vector must be numbers") from None
    d = whole_number("n_max", n_max, 0) + 1
    if fv.size > d:
        raise ValueError(f"field vector has {fv.size} entries, more than n_max + 1 = {d}")
    if not 0.0 < _norm(fv) < math.inf:  # a NaN norm fails both
        raise ValueError("field vector must be finite and not all zero")
    amps = np.kron(at, np.concatenate([fv, np.zeros(d - fv.size, dtype=complex)]))
    amps /= _norm(amps)
    return PureState(SystemShape((2, 2, d)), amps)


def _coupling(amps: np.ndarray, field_dim: int, n0: int = 0) -> np.ndarray:
    """(sm1 + sm2) a^dag + h.c. applied to each row of a (..., 4*D) amplitude
    stack whose field index 0 is photon n0."""
    psi = amps.reshape(amps.shape[:-1] + (2, 2, field_dim))
    out = np.zeros_like(psi)
    root = np.sqrt(np.arange(n0 + 1, n0 + field_dim))
    out[..., 1, :, 1:] += root * psi[..., 0, :, :-1]  # sm1 a^dag: |e, n> -> |g, n+1>
    out[..., :, 1, 1:] += root * psi[..., :, 0, :-1]  # sm2 a^dag
    out[..., 0, :, :-1] += root * psi[..., 1, :, 1:]  # sp1 a: |g, n+1> -> |e, n>
    out[..., :, 0, :-1] += root * psi[..., :, 1, 1:]  # sp2 a
    return out.reshape(amps.shape)


def rabi_frequencies(field_dim: int, n0: int = 0) -> np.ndarray:
    """Omega_K of the excitation blocks K = n0 + k, k = 0 .. D + 1, of a field
    window of D photons starting at photon n0.

    Block K holds the dark singlet and the ladder |ee, K-2> - |sym, K-1> -
    |gg, K>, so its coupling H_K has spectrum {0, 0, +-Omega_K} and obeys
    H_K^3 = Omega_K^2 H_K.  The indicators drop the ladder couplings that
    either edge of the window cuts; inside it Omega_K = sqrt(4K - 2).
    """
    k = np.arange(field_dim + 2)
    big_k = k + n0
    upper = (big_k - 1) * ((k >= 2) & (k <= field_dim))  # |ee, K-2> <-> |sym, K-1>
    lower = big_k * ((k >= 1) & (k < field_dim))  # |sym, K-1> <-> |gg, K>
    return np.sqrt(2.0 * (upper + lower))


class TcmPropagator:
    """Exact propagator in closed form per block, on the photon window of each evolved state.

    Since H_K^3 = Omega_K^2 H_K (see ``rabi_frequencies``),

        exp(-i H_K t) = 1 - 2 sin^2(Omega_K t/2) H_K^2/Omega_K^2
                        - i sin(Omega_K t) H_K/Omega_K,

    so evolving a state needs H psi and H^2 psi once and elementwise work
    per time.  Both phases come from u = tan(Omega_K t/2), as sin(Omega_K t)
    = 2u/(1 + u^2) and 2 sin^2(Omega_K t/2) = u sin(Omega_K t): numpy
    vectorizes float64 tan but not sin.  ``max_norm_drift`` and
    ``max_excitation_drift`` hold the largest drifts seen by this propagator.
    """

    max_norm_drift = max_excitation_drift = 0.0

    def evolve_series(
        self, state: PureState, times: Sequence[float], n0: int = 0
    ) -> Iterator[np.ndarray]:
        """Yield the evolved amplitudes over the requested times, in order.

        The state's field index 0 is photon n0.  Each chunk has one row of
        length 4*D per time, consecutive times filling consecutive rows; a
        chunk holds at most ``CHUNK_BUDGET`` bytes (and at least one time),
        so memory stays bounded however long the grid is.  Each time must
        pass ``finite_reals`` (an empty grid yields nothing), and times whose
        phases overflow raise ValueError.
        One pass over the populations checks every emitted time: the norm
        and the excitation distribution to ``CONSERVATION_TOL`` (else
        RuntimeError) and the guard bands, as for the initial state (else
        TruncationError).  The guard band is the top ``GUARD_BAND`` photons
        of the window, and the bottom ones too when n0 > 0; photon 0 is a
        true edge of the field.
        Rows eg and ge take the same arithmetic, so from an exchange-symmetric
        start (every preset but the singlet) only rows ee, eg and gg are
        evolved and checked, and row eg is copied into row ge.
        """
        for rows in self._evolve_rows(state, times, n0):
            yield four_rows(rows, 1).reshape(len(rows), -1)

    def _evolve_rows(self, state: PureState, times, n0: int) -> Iterator[np.ndarray]:
        """``evolve_series`` as checked (N, 3, D) chunks of the rows (ee, eg, gg)
        from an exchange-symmetric start, and as (N, 4, D) chunks from any other."""
        d = tcm_field_dim(state)
        n0 = whole_number("n0", n0, 0)
        amps = state.amplitudes
        k_ref = excitation_distribution(state)
        rabi = rabi_frequencies(d, n0)
        self._check_times(amps.reshape(1, 4, d), k_ref, np.zeros(1), n0)
        times = finite_reals("each time", times).ravel()
        # Python floats overflow to inf without a warning
        t_max = float(np.max(np.abs(times), initial=0.0))
        if not math.isfinite(t_max * float(rabi.max())):
            raise ValueError(f"the phases overflow at t = {t_max:g}; shorten the time grid")
        step = chunk_times(state)
        # H_K is zero where Omega_K is, so any nonzero divisor works there
        safe = np.where(rabi > 0.0, rabi, 1.0)[excitation_map(d)]
        h1 = _coupling(amps, d, n0) / safe  # H psi / Omega, block by block
        h2 = _coupling(h1, d, n0) / safe  # H^2 psi / Omega^2
        psi0, h2, ih1 = (x.reshape(4, d) for x in (amps, h2, 1j * h1))
        # rows ee, eg and gg where row ge is row eg, bit for bit
        rows = (0, 1, 3) if _exchange_symmetric(psi0) else (0, 1, 2, 3)
        for start in range(0, times.size, step):
            t = times[start:start + step]
            u = np.tan(0.5 * t[:, None] * rabi)  # tan(Omega_K t/2), one vectorized call
            s = 2.0 * u / (1.0 + u * u)  # sin(Omega_K t)
            c = u * s  # 2 sin^2(Omega_K t/2)
            out = np.empty((t.size, len(rows), d), dtype=complex)
            for i, a in enumerate(rows):  # row a, photon n lies in block K = e + n
                e = ATOM_EXCITATIONS[a]
                out[:, i] = psi0[a] - c[:, e:e + d] * h2[a] - s[:, e:e + d] * ih1[a]
            self._check_times(out, k_ref, t, n0)
            yield out

    def _check_times(self, psi: np.ndarray, k_ref: np.ndarray, t: np.ndarray, n0: int) -> None:
        """Check each state of an (N, 4, D) or exchange-symmetric (N, 3, D) stack at times t in
        one pass over its populations, raising at the first time past a limit, and update the
        largest drifts.  Row eg of three counts twice everywhere: distribution, norm, both bands."""
        pop = np.abs(psi) ** 2
        dist = _excitation_populations(pop)
        norm = np.abs(np.sqrt(dist.sum(axis=1)) - 1.0)
        exc = np.max(np.abs(dist - k_ref), axis=1)
        rows = ATOM_ROWS[pop.shape[1]]
        top = pop[:, rows, -GUARD_BAND:].sum(axis=(1, 2))
        # photon 0 is a true edge of the field; a window above it has a second guard band
        bottom = pop[:, rows, :GUARD_BAND].sum(axis=(1, 2)) if n0 > 0 else np.zeros_like(top)
        kept = (norm <= CONSERVATION_TOL) & (exc <= CONSERVATION_TOL)
        bad = ~(kept & (top <= GUARD_TOL) & (bottom <= GUARD_TOL))
        if bad.any():
            i = int(np.argmax(bad))
            if not kept[i]:
                raise RuntimeError(
                    f"conservation violated at t={t[i]:g}: norm drift {norm[i]:.3e}, "
                    f"excitation drift {exc[i]:.3e}"
                )
            if top[i] > GUARD_TOL:
                edge, band, photon = "top", top, n0 + psi.shape[-1] - 1
            else:
                edge, band, photon = "bottom", bottom, n0
            raise TruncationError(
                f"population {band[i]:.3e} within {GUARD_BAND} photons of the {edge} edge "
                f"of the field window (photon {photon}) at t={t[i]:g} exceeds {GUARD_TOL:g}"
            )
        self.max_norm_drift = max(self.max_norm_drift, float(norm.max()))
        self.max_excitation_drift = max(self.max_excitation_drift, float(exc.max()))


def evolve(state: PureState, t: float) -> PureState:
    """Evolve ``state`` under the block Hamiltonian for time ``t`` (that is, gt), one
    number that ``evolve_series`` checks as it checks each of its times."""
    if np.ndim(t):
        raise ValueError(f"t must be one number, got shape {np.shape(t)}")
    (out,) = TcmPropagator().evolve_series(state, [t])
    return PureState(state.shape, out[0])


def _exchange_symmetric(psi0: np.ndarray) -> bool:
    """True if rows eg and ge of a (4, D) start hold the same bits (signed zeros too).
    ``_coupling`` sums rows eg and ge of H psi from the same two terms in the same order,
    the ee term then the gg term, so those rows of H psi and H^2 psi always match."""
    return psi0[1].tobytes() == psi0[2].tobytes()


def chunk_times(state: PureState) -> int:
    """Times per ``evolve_series`` chunk of ``state``: as many as ``CHUNK_BUDGET`` holds, or one."""
    return max(1, CHUNK_BUDGET // state.amplitudes.nbytes)


def excitation_map(field_dim: int) -> np.ndarray:
    """Excitation number K - n0 of each flat (atom1, atom2, field index) index."""
    return np.add.outer(ATOM_EXCITATIONS, np.arange(field_dim)).ravel()


def excitation_distribution(state: PureState) -> np.ndarray:
    """Probability of each excitation number K = n0 + k, k = 0 .. D + 1, on a
    field window of D photons from photon n0."""
    tcm_field_dim(state)
    return _excitation_populations(np.abs(state.amplitudes.reshape(1, 4, -1)) ** 2)[0]


def _excitation_populations(pop: np.ndarray) -> np.ndarray:
    """P_K = sum_a pop[:, a, K - e_a] of an (N, ``ATOM_ROWS``, D) population stack, per state."""
    n, _, d = pop.shape
    dist = np.zeros((n, d + 2))
    for a, e in zip(ATOM_ROWS[pop.shape[1]], ATOM_EXCITATIONS):
        dist[:, e:e + d] += pop[:, a]
    return dist

