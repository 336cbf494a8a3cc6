"""Tensor products with a measure-and-prepare factor: closed-form output,
convex decomposition, and the positivity obstruction for uniform mixing."""

import numpy as np
import pytest

from channel_limits import (
    DensityMatrix,
    EBChannel,
    StinespringChannel,
    eb_tensor_decompose,
    eb_tensor_output,
    make_pinching,
    sample_density_matrix,
    sample_projective_povm,
    sample_pure_state,
    sample_stinespring_channel,
    stream,
    uniform_mixing_positivity_probe,
)
from channel_limits.errors import (
    HypothesisViolatedError,
    OutOfRangeError,
    SingularPError,
)


def _direct_tensor_output(eb, psi, vector):
    """Independent oracle: expand the joint action over matrix units.

    The input vector lives on C^{n_psi} (x) C^{p_eb} with the
    measure-and-prepare factor acting on the right index; the output
    carries the prepared states on the left factor.
    """
    n = psi.input_dim
    p = eb.input_dim
    b = np.asarray(vector, dtype=complex).reshape(n, p)
    q = eb.output_dim
    kp = psi.output_dim
    out = np.zeros((q * kp, q * kp), dtype=complex)
    for u in range(n):
        for w in range(n):
            unit_uw = np.zeros((n, n), dtype=complex)
            unit_uw[u, w] = 1.0
            right = psi.apply_matrix(unit_uw)
            for s in range(p):
                for v in range(p):
                    unit_sv = np.zeros((p, p), dtype=complex)
                    unit_sv[s, v] = 1.0
                    left = eb.apply_matrix(unit_sv)
                    out += b[u, s] * np.conj(b[w, v]) * np.kron(left, right)
    return out


def _unit_bipartite(n, p, rng):
    return sample_pure_state(n * p, rng)


def _projective_eb(l_dims, states_dim, rng):
    povm = sample_projective_povm(l_dims, rng)
    states = [sample_density_matrix(states_dim, rng) for _ in l_dims]
    return EBChannel(povm, states)


# ------------------------------------------------------------- closed form


def test_tensor_output_matches_direct_expansion():
    rng = stream(0, 0)
    eb = _projective_eb((1, 2), 2, rng)
    psi = sample_stinespring_channel(2, 2, 2, rng)
    b = _unit_bipartite(3, 2, rng)
    got = eb_tensor_output(eb, psi, b).matrix
    want = _direct_tensor_output(eb, psi, b)
    assert np.abs(got - want).max() <= 1e-12
    assert abs(np.trace(got) - 1.0) <= 1e-12


def test_tensor_output_product_input_factorizes():
    rng = stream(0, 1)
    eb = _projective_eb((1, 1), 3, rng)
    psi = sample_stinespring_channel(2, 3, 4, rng)
    u = sample_pure_state(4, rng)
    v = sample_pure_state(2, rng)
    b = np.kron(u, v)  # C^4 (x) C^2, right factor feeds the measurement
    got = eb_tensor_output(eb, psi, b).matrix
    psi_out = psi.apply_matrix(np.outer(u, u.conj()))
    want = sum(
        (v.conj() @ m @ v).real * np.kron(np.asarray(s), psi_out)
        for m, s in zip(eb.povm, eb.states)
    )
    assert np.abs(got - want).max() <= 1e-12


def test_tensor_output_pinching_identity_is_block_diagonal():
    rng = stream(0, 2)
    eb = make_pinching(3)
    psi = StinespringChannel(np.eye(2), 2, 1)
    b = _unit_bipartite(2, 3, rng)
    out = eb_tensor_output(eb, psi, b).matrix
    bmat = b.reshape(2, 3)
    for i in range(3):
        for j in range(3):
            block = out[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
            if i == j:
                want = np.outer(bmat[:, i], bmat[:, i].conj())
                assert np.abs(block - want).max() <= 1e-12
            else:
                assert np.abs(block).max() <= 1e-14


# ------------------------------------------------------------ decomposition


def test_decomposition_single_outcome():
    rng = stream(1, 0)
    eb = EBChannel([np.eye(2)], [DensityMatrix.maximally_mixed(2)])
    psi = sample_stinespring_channel(2, 2, 3, rng)
    b = _unit_bipartite(2, 3, rng)
    dec = eb_tensor_decompose(eb, psi, b)
    assert len(dec.weights) == 1
    assert dec.weights[0] == pytest.approx(1.0, abs=1e-12)
    bmat = np.asarray(b).reshape(3, 2)
    assert np.abs(dec.states[0].matrix - bmat @ bmat.conj().T).max() <= 1e-10


def test_decomposition_reconstructs_random_instances():
    rng = stream(1, 1)
    cases = []
    for trial in range(5):
        eb = _projective_eb((1, 2), 3, rng)
        psi = sample_stinespring_channel(2, 2, 3, rng)
        cases.append((eb, psi, _unit_bipartite(3, 3, rng)))
    # the pinching's outcome 2 has zero weight: the input's last column vanishes
    psi = sample_stinespring_channel(2, 2, 3, rng)
    b = np.hstack([sample_pure_state(6, rng).reshape(3, 2), np.zeros((3, 1))])
    cases.append((make_pinching(3), psi, b.reshape(-1)))
    for eb, psi, b in cases:
        dec = eb_tensor_decompose(eb, psi, b)
        assert sum(dec.weights) == pytest.approx(1.0, abs=1e-12)
        got = dec.reconstruct(eb, psi)
        # the joint output shares reconstruct's sum, so the index-sum
        # expansion is the decomposition's independent oracle
        assert np.abs(got - eb_tensor_output(eb, psi, b).matrix).max() <= 1e-10
        assert np.abs(got - _direct_tensor_output(eb, psi, b)).max() <= 1e-10
    assert dec.weights[2] == 0.0 and dec.states[2] is None


def test_decomposition_pinching_reproduces_direct_sum():
    rng = stream(1, 3)
    eb = make_pinching(3)
    psi = sample_stinespring_channel(2, 2, 2, rng)
    b = _unit_bipartite(2, 3, rng)
    bmat = np.asarray(b).reshape(2, 3)
    dec = eb_tensor_decompose(eb, psi, b)
    for i, (r, state) in enumerate(zip(dec.weights, dec.states)):
        want_r = float(np.linalg.norm(bmat[:, i]) ** 2)
        assert r == pytest.approx(want_r, abs=1e-12)
        if r > 1e-12:
            want_state = np.outer(bmat[:, i], bmat[:, i].conj()) / want_r
            assert np.abs(state.matrix - want_state).max() <= 1e-10


def test_decomposition_requires_norm_one_povm():
    rng = stream(1, 4)
    eb = EBChannel(
        [np.diag([0.6, 0.4]), np.diag([0.4, 0.6])],
        [sample_density_matrix(2, rng) for _ in range(2)],
    )
    psi = sample_stinespring_channel(2, 2, 2, rng)
    with pytest.raises(HypothesisViolatedError):
        eb_tensor_decompose(eb, psi, _unit_bipartite(2, 2, rng))


# --------------------------------------------------------- positivity probe


def test_probe_flat_povm_has_no_negative_block():
    report = uniform_mixing_positivity_probe([np.eye(3) / 2, np.eye(3) / 2], 0.5)
    assert not report.has_negative_block
    assert np.abs(np.asarray(report.block_min_eigenvalues)).max() <= 1e-12


def test_probe_two_outcome_diagonal_example():
    report = uniform_mixing_positivity_probe(
        [np.diag([1.0, 0.3]), np.diag([0.0, 0.7])], 1.0
    )
    assert report.has_negative_block
    assert report.block_min_eigenvalues[0] == pytest.approx(-0.2, abs=1e-12)
    assert report.block_min_eigenvalues[1] == pytest.approx(-0.5, abs=1e-12)


def test_probe_random_projective_povm_is_obstructed():
    rng = stream(2, 0)
    for trial in range(5):
        povm = sample_projective_povm((1, 2), rng)
        report = uniform_mixing_positivity_probe(povm, 0.7)
        assert report.has_negative_block
        assert min(report.block_min_eigenvalues) < -1e-8


def test_probe_domain_checks():
    povm = [np.eye(2) / 2, np.eye(2) / 2]
    with pytest.raises(SingularPError):
        uniform_mixing_positivity_probe(povm, 0.0)
    with pytest.raises(OutOfRangeError):
        uniform_mixing_positivity_probe(povm, 1.5)
