"""Pure states and density matrices over small tensor-product Hilbert spaces.

Amplitude vectors and matrices are indexed in C order over the listed
factors, so the *last* factor's index varies fastest.  For the two-atom
cavity model the factor order is (atom 1, atom 2, field).
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
NEGATIVE_EIGENVALUE_TOL = 1e-10
RANK_TOL = 1e-10  # eigenvalues above it count toward a marginal's effective rank
BOOLS = (bool, np.bool_)  # truth values: never a count, a dimension or an index
# by rows per state, the row holding each of ee, eg, ge, gg: exchange-symmetric states have 3
ATOM_ROWS = {4: (0, 1, 2, 3), 3: (0, 1, 1, 2)}


def _in_range(name: str, value, low, high):
    """``value``; ValueError unless ``low <= value <= high`` (``high`` = inf bounds nothing)."""
    if low <= value <= high:
        return value
    bounds = f"be >= {low}" if high == math.inf else f"lie in {low} .. {high}"
    raise ValueError(f"{name} must {bounds}, got {value!r}")


def whole_number(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an int in ``low .. high`` (no upper bound if ``high`` is None);
    ValueError unless it is a whole number (NaN, inf and bools are not) in that range."""
    try:
        whole = not isinstance(value, BOOLS) and value == int(value)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return _in_range(name, int(value), low, math.inf if high is None else high)


def finite_real(name: str, value, low: float = -math.inf, high: float = math.inf) -> float:
    """``value`` as a float in ``low .. high``; ValueError unless it is a finite real number
    (NaN, inf, bools, strings and ints beyond the float range are not) in that range."""
    if isinstance(value, numbers.Real) and not isinstance(value, BOOLS):
        if abs(value) <= sys.float_info.max:  # exact for ints; NaN fails too
            return _in_range(name, float(value), low, high)
    raise ValueError(f"{name} must be a finite real number, got {value!r}")


def four_rows(x: np.ndarray, *axes: int) -> np.ndarray:
    """``x`` with three rows (ee, eg, gg) on each of ``axes`` spread to four; four stay as is."""
    for axis in axes:
        x = x.take(ATOM_ROWS[3], axis) if x.shape[axis] == 3 else x
    return x


def finite_reals(name: str, values) -> np.ndarray:
    """``values`` as a float array of their shape; ValueError unless each entry
    passes ``finite_real``.  An empty array, such as an empty time grid, passes."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":  # bools, strings, None, complex, ints beyond int64
        return np.array([finite_real(name, v) for v in arr.ravel().tolist()]).reshape(arr.shape)
    arr = np.asarray(arr, dtype=float)
    bad = arr[~np.isfinite(arr)]
    if bad.size:
        raise ValueError(f"{name} must be a finite real number, got {float(bad[0])!r}")
    return arr


@dataclass(frozen=True)
class SystemShape:
    """Ordered factor dimensions of a tensor-product Hilbert space."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(whole_number("factor dimension", d, 1) for d in self.dims)
        if len(dims) == 0:
            raise ValueError("SystemShape needs at least one factor")
        if math.prod(dims) > sys.maxsize:  # no array can index more
            raise ValueError(f"total dimension of {dims} exceeds {sys.maxsize}")
        object.__setattr__(self, "dims", dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)


@dataclass(frozen=True)
class PureState:
    """Normalized state vector together with its factor structure.

    Parameters
    ----------
    shape : SystemShape
        Factor dimensions.
    amplitudes : array_like
        Complex amplitudes of length ``shape.total_dim`` in C order over
        the factors.  Must be normalized to unity within ``NORM_TOL``.
    """

    shape: SystemShape
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).ravel()
        if amps.size != self.shape.total_dim:
            raise ValueError(
                f"amplitude vector has length {amps.size}, expected {self.shape.total_dim}"
            )
        if not np.isfinite(amps).all():
            raise ValueError("state amplitudes must be finite (no NaN or inf)")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state vector is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per factor."""
        return self.amplitudes.reshape(self.shape.dims)


@dataclass(frozen=True)
class DensityMatrix:
    """Density matrix on a subset of factors.

    ``dims`` records the retained factor dimensions in their original
    order; ``matrix`` is Hermitian, unit trace and positive semidefinite
    up to small numerical dust.
    """

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        dims = SystemShape(self.dims).dims
        mat = np.array(self.matrix, dtype=complex)
        d = math.prod(dims)
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
        if not np.isfinite(mat).all():
            raise ValueError("density matrix entries must be finite (no NaN or inf)")
        if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(mat).real - 1.0) > 1e-10 or abs(np.trace(mat).imag) > HERMITICITY_TOL:
            raise ValueError(f"density matrix trace is {np.trace(mat):.12g}, expected 1")
        if np.linalg.eigvalsh(mat)[0] < -NEGATIVE_EIGENVALUE_TOL:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        mat.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", mat)


def tcm_field_dim(state: PureState) -> int:
    """Field dimension D of a (2, 2, D) state (two atoms, then the field); ValueError otherwise."""
    dims = state.shape.dims
    if len(dims) != 3 or dims[:2] != (2, 2):
        raise ValueError(f"expected a (2, 2, field) state, got dims {dims}")
    return dims[2]


def partial_trace(state: PureState, keep) -> DensityMatrix:
    """Reduced density matrix of a pure state on the factors listed in ``keep``.

    Parameters
    ----------
    state : PureState
        Global state.
    keep : iterable of int (numpy ones too; bools and any other value raise ValueError)
        Factor positions to retain, e.g. ``(0, 2)`` for atom 1 + field.

    Returns
    -------
    DensityMatrix
        Reduced state with ``dims`` equal to the retained factor sizes.
    """
    try:
        keep = tuple(keep)
        if any(isinstance(k, BOOLS) for k in keep):
            raise TypeError
        keep = tuple(sorted({operator.index(k) for k in keep}))
    except TypeError:
        raise ValueError(f"keep indices must be integers, got {keep!r}") from None
    dims = state.shape.dims
    n = len(dims)
    if not keep:
        raise ValueError("must keep at least one factor")
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} factors")
    if len(keep) == n:
        raise ValueError("partial trace must discard at least one factor")
    traced = tuple(i for i in range(n) if i not in keep)
    d_keep = math.prod(dims[i] for i in keep)
    mat = np.transpose(state.tensor(), keep + traced).reshape(d_keep, -1)
    return DensityMatrix(tuple(dims[i] for i in keep), mat @ mat.conj().T)


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2); lies in [1/d, 1] for a d-dimensional state."""
    m = rho.matrix
    return float(np.einsum("ij,ji->", m, m).real)

