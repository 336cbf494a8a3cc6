"""Tensor products with a measure-and-prepare factor.

When one tensor factor is a measure-and-prepare channel with POVM (M_i)
and outputs (sigma_i), its action on half of a pure input collapses to
matrix arithmetic: writing the input vector as a matrix B, the joint
output is sum_i sigma_i (x) Psi(B M_i^T B*).  Provided every M_i has
operator norm 1, this output splits into a convex mixture of product
points, one per POVM element; the decomposition below computes that
splitting and a positivity probe shows why the naive uniform-mixing
ansatz fails for any POVM that is not the flat one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel, EBChannel, validate_povm
from .errors import (
    DimensionMismatchError,
    HypothesisViolatedError,
    OutOfRangeError,
    SingularPError,
)
from .linalg import DensityMatrix, hermitize, unit_vector

NORM_ONE_TOL = 1e-10
NEGLIGIBLE_WEIGHT = 1e-14


def _input_matrix(eb: EBChannel, psi: Channel, vector) -> np.ndarray:
    """Reshape a joint input vector on C^{N_psi} (x) C^{p_eb} to a matrix."""
    b = np.asarray(vector, dtype=np.complex128).reshape(-1)
    n, p = psi.input_dim, eb.input_dim
    if b.size != n * p:
        raise DimensionMismatchError(
            f"vector length {b.size} != {n} * {p}"
        )
    return unit_vector(b).reshape(n, p)


def _conditional_inputs(eb: EBChannel, mat: np.ndarray) -> list[np.ndarray]:
    """B M_i^T B* for each POVM element M_i: Psi's input given outcome i, unnormalized."""
    return [mat @ m.T @ mat.conj().T for m in eb.povm]


def _joint_output(eb: EBChannel, psi: Channel, weights, inputs) -> np.ndarray:
    """sum_i weights[i] sigma_i (x) Psi(inputs[i]), skipping a None input."""
    dim = eb.output_dim * psi.output_dim
    out = np.zeros((dim, dim), dtype=np.complex128)
    for w, x, sigma in zip(weights, inputs, eb.states):
        if x is not None:
            out += w * np.kron(sigma, psi.apply_matrix(x))
    return out


def eb_tensor_output(eb: EBChannel, psi: Channel, vector) -> DensityMatrix:
    """Joint output of (measure-and-prepare) (x) Psi on a pure input.

    The measure-and-prepare factor acts on the right input factor; the
    output lives on C^q (x) C^{k_psi} with the prepared states on the
    left.
    """
    inputs = _conditional_inputs(eb, _input_matrix(eb, psi, vector))
    return DensityMatrix.normalized(_joint_output(eb, psi, [1.0] * len(inputs), inputs))


@dataclass(frozen=True)
class EBTensorDecomposition:
    """Convex split of a joint output into product points.

    weights[i] is the probability of POVM outcome i; states[i] is the
    conditional input to the other factor (None when the weight is
    negligible).
    """

    weights: np.ndarray
    states: tuple[DensityMatrix | None, ...]

    def reconstruct(self, eb: EBChannel, psi: Channel) -> np.ndarray:
        """Reassemble sum_i weights[i] sigma_i (x) Psi(states[i])."""
        inputs = [None if s is None else s.matrix for s in self.states]
        return _joint_output(eb, psi, self.weights, inputs)


def eb_tensor_decompose(eb: EBChannel, psi: Channel, vector) -> EBTensorDecomposition:
    """Split the joint output into product points, one per POVM element.

    Requires every POVM element to have operator norm 1 (its top
    eigenvector makes the deterministic outcome distribution reachable);
    raises HypothesisViolatedError otherwise.
    """
    mat = _input_matrix(eb, psi, vector)
    tops = [float(np.linalg.eigvalsh(hermitize(m))[-1]) for m in eb.povm]
    for i, top in enumerate(tops):
        if top < 1.0 - NORM_ONE_TOL:
            raise HypothesisViolatedError(
                f"POVM element {i} has norm {top:.12f} < 1"
            )
    weights = []
    states: list[DensityMatrix | None] = []
    for reduced in _conditional_inputs(eb, mat):
        w = float(np.trace(reduced).real)
        weights.append(max(0.0, w))
        if w > NEGLIGIBLE_WEIGHT:
            states.append(DensityMatrix.normalized(reduced / w))
        else:
            states.append(None)
    return EBTensorDecomposition(np.asarray(weights), tuple(states))


@dataclass(frozen=True)
class PositivityReport:
    """Per-element minimum eigenvalues of the uniform-mixing residuals."""

    block_min_eigenvalues: np.ndarray
    has_negative_block: bool


def uniform_mixing_positivity_probe(povm, mixing: float) -> PositivityReport:
    """Test the uniform-mixing ansatz for splitting joint outputs.

    The ansatz inverts P = mixing * I + (1 - mixing) * psi psi* (psi the
    flat unit vector) with the truncated series (1/mixing)(I - psi psi*)
    applied to the stacked transposed POVM elements; element i of the
    result is (M_i - I/l)^T / mixing.  The residuals sum to zero, so at
    least one fails to be positive semidefinite unless every M_i equals
    I/l.  The report carries each residual's minimum eigenvalue.
    """
    if mixing <= 0.0:
        raise SingularPError("mixing must be positive to invert P")
    if mixing > 1.0:
        raise OutOfRangeError(f"mixing = {mixing} outside (0, 1]")
    ms = validate_povm(povm)
    count, dim = ms.shape[0], ms.shape[1]
    centered = ms - np.eye(dim)[None, :, :] / count
    mins = np.array(
        [
            float(np.linalg.eigvalsh(hermitize(c.T))[0]) / mixing
            for c in centered
        ]
    )
    return PositivityReport(mins, bool(np.any(mins < -1e-12)))
