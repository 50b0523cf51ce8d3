import math

import numpy as np
import pytest

from tcm_tangles import (
    DensityMatrix,
    PureState,
    SystemShape,
    partial_trace,
    pure_itangle,
    purity,
)

from oracles import effective_rank, haar_vec, partial_trace_mixed

BELL = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)


def test_system_shape_validation():
    assert SystemShape((2, 3)).total_dim == 6
    with pytest.raises(ValueError):
        SystemShape(())
    with pytest.raises(ValueError):
        SystemShape((2, 0))
    # each dimension is a whole number, not truncated or parsed
    for bad in (2.5, "3", True, np.True_):
        with pytest.raises(ValueError, match="^factor dimension must be an integer"):
            SystemShape((2, bad))
    with pytest.raises(ValueError, match=r"^factor dimension must be an integer, got True$"):
        SystemShape((True, 2))
    assert SystemShape((2.0, 3)).dims == (2, 3)
    assert all(type(d) is int for d in SystemShape((2.0, 3)).dims)
    # a density matrix takes its dims through SystemShape
    cases = (((-2, -2), np.eye(4) / 4, "must be >= 1"), ((), [[1.0]], "at least one factor"),
             ((0,), np.zeros((0, 0)), "must be >= 1"), ((2.9, 2), np.eye(4) / 4, "an integer"))
    for dims, matrix, message in cases:
        with pytest.raises(ValueError, match=message):
            DensityMatrix(dims, matrix)


def test_pure_state_requires_normalization():
    with pytest.raises(ValueError):
        PureState(SystemShape((2, 2)), np.array([1.0, 1.0, 0.0, 0.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_pure_state_and_density_matrix_reject_non_finite_entries(bad):
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        PureState(SystemShape((2,)), [bad, 0.0])
    with pytest.raises(ValueError, match="entries must be finite"):
        DensityMatrix((2,), [[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="entries must be finite"):
        DensityMatrix((2,), [[0.5, bad], [bad, 0.5]])


def test_pure_state_length_check():
    with pytest.raises(ValueError):
        PureState(SystemShape((2, 2)), np.array([1.0, 0.0]))


def test_pure_state_amplitudes_frozen():
    state = PureState(SystemShape((2,)), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.5


def test_pure_state_tensor_reshape():
    rng = np.random.default_rng(11)
    state = PureState(SystemShape((2, 3, 4)), haar_vec(rng, 24))
    tens = state.tensor()
    assert tens.shape == (2, 3, 4)
    assert np.array_equal(tens.ravel(), state.amplitudes)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix((2, 2), np.eye(2) / 2.0)  # dims mismatch


def test_partial_trace_pure_and_mixed_agree():
    rng = np.random.default_rng(5)
    state = PureState(SystemShape((2, 3, 4)), haar_vec(rng, 24))
    rho = DensityMatrix(
        (2, 3, 4), np.outer(state.amplitudes, state.amplitudes.conj())
    )
    for keep in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
        from_pure = partial_trace(state, keep)
        from_mixed = partial_trace_mixed(rho, keep)
        assert from_pure.dims == from_mixed.dims
        np.testing.assert_allclose(from_pure.matrix, from_mixed.matrix, atol=1e-12)
        assert abs(np.trace(from_pure.matrix) - 1.0) < 1e-12


def test_partial_trace_keep_semantics():
    # product state: tracing the other factor returns each factor exactly
    rng = np.random.default_rng(8)
    a, b = haar_vec(rng, 2), haar_vec(rng, 5)
    state = PureState(SystemShape((2, 5)), np.kron(a, b))
    np.testing.assert_allclose(
        partial_trace(state, (0,)).matrix, np.outer(a, a.conj()), atol=1e-14
    )
    np.testing.assert_allclose(
        partial_trace(state, (1,)).matrix, np.outer(b, b.conj()), atol=1e-14
    )


def test_partial_trace_argument_errors():
    rng = np.random.default_rng(2)
    state = PureState(SystemShape((2, 2)), haar_vec(rng, 4))
    with pytest.raises(ValueError):
        partial_trace(state, ())
    with pytest.raises(ValueError):
        partial_trace(state, (2,))
    with pytest.raises(ValueError):
        partial_trace(state, (0, 1))


def test_partial_trace_refuses_non_integer_indices():
    # int() would take 0.7 as factor 0 and 1.9 as factor 1; numpy ints still count
    state = PureState(SystemShape((2, 2, 3)), haar_vec(np.random.default_rng(3), 12))
    np.testing.assert_array_equal(
        partial_trace(state, (np.int64(0), 2)).matrix, partial_trace(state, (0, 2)).matrix
    )
    # nor are bools, which operator.index would take as factors 1 and 0
    for keep in ((0.7,), [1.9], (0, np.float64(2.0)), (True,), (0, False), (np.True_,)):
        with pytest.raises(ValueError, match="must be integers"):
            partial_trace(state, keep)
    with pytest.raises(ValueError, match="must be integers"):
        pure_itangle(state, (0.5,))


def test_purity_bounds():
    bell = PureState(SystemShape((2, 2)), BELL)
    marginal = partial_trace(bell, (0,))
    assert abs(purity(marginal) - 0.5) < 1e-14
    rho = DensityMatrix((2, 2), np.outer(BELL, BELL))
    assert abs(purity(rho) - 1.0) < 1e-14


def test_effective_rank():
    bell = partial_trace(PureState(SystemShape((2, 2)), BELL), (0,))
    assert effective_rank(bell) == 2
    pure = DensityMatrix((2,), np.diag([1.0, 0.0]))
    assert effective_rank(pure) == 1
