"""Closed-form norm oracles: the variational norm of weighted unitary sums,
its supremum over the sphere against a test-side subset enumeration, and
peak-eigenvalue formulas."""

import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from channel_limits import (
    DensityMatrix,
    EBChannel,
    evaluate_subset,
    flat_tail_entropy,
    free_unitary_sum_norm,
    hermitian_eigenvalues,
    maximize_over_sphere,
    mixed_unitary_norm_limit,
    one_heavy_sup_value,
    one_heavy_weights,
    rank_one_limit,
    sample_density_matrix,
    sample_unit_norm_povm,
    sphere_sup,
    stinespring_peak_eigenvalue,
    stream,
    von_neumann_entropy,
)
from channel_limits.errors import (
    EmptySubsetError,
    OutOfRangeError,
    ZeroVectorError,
)
from channel_limits import oracles
from channel_limits.oracles import _derivative_roots


def _grid_min_norm(coefficients, x_hi=2.0, step=1e-6):
    """Independent evaluation of the variational norm by brute grid search
    of g(x) = (2 - k) x + sum sqrt(x^2 + |a_i|^2) over x in [0, x_hi]."""
    a = np.abs(np.asarray(coefficients, dtype=complex))
    k = a.size
    x = np.arange(0.0, x_hi + step, step)
    g = (2.0 - k) * x + np.sqrt(x[:, None] ** 2 + a[None, :] ** 2).sum(axis=1)
    return float(g.min())


# ----------------------------------------------------------- variational norm


def test_norm_single_unitary():
    assert free_unitary_sum_norm([1.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)


def test_norm_flat_unit_sphere_vector():
    a = np.full(4, 0.5)
    assert free_unitary_sum_norm(a) == pytest.approx(np.sqrt(3.0), abs=1e-9)


def test_norm_flat_unit_simplex_vector():
    a = np.full(4, 0.25)
    assert free_unitary_sum_norm(a) == pytest.approx(2.0 * np.sqrt(3.0) / 4.0, abs=1e-9)


def test_norm_pythagorean_pair():
    assert free_unitary_sum_norm([0.6, 0.8]) == pytest.approx(1.4, abs=1e-12)
    assert free_unitary_sum_norm([0.6, 0.8]) == pytest.approx(
        _grid_min_norm([0.6, 0.8]), abs=1e-9
    )


def test_norm_matches_grid_oracle_on_fixed_cases():
    rng = stream(1, 0)
    for k in (2, 3, 4, 5):
        a = rng.random(k) + 0.05
        got = free_unitary_sum_norm(a)
        want = _grid_min_norm(a, x_hi=float(k * a.max()), step=1e-5)
        assert got == pytest.approx(want, abs=1e-8)


def test_norm_rejects_zero_vector():
    with pytest.raises(ZeroVectorError):
        free_unitary_sum_norm([0.0, 0.0])


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 6), scale=st.floats(0.1, 10.0))
@settings(max_examples=40, deadline=None)
def test_norm_homogeneity_and_permutation_invariance(seed, k, scale):
    rng = np.random.default_rng(seed)
    a = rng.random(k) + 1e-3
    base = free_unitary_sum_norm(a)
    assert free_unitary_sum_norm(scale * a) == pytest.approx(scale * base, rel=1e-9)
    assert free_unitary_sum_norm(a[::-1]) == pytest.approx(base, rel=1e-11)


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_norm_homogeneity_at_extreme_scales(scale):
    # the norm is solved on coefficients scaled to max 1, so no scale over- or
    # underflows inside the solve; abs=0, since approx's default 1e-12 would
    # accept anything at 1e-150
    rng = stream(17, 0)
    for k in range(2, 9):
        a = rng.random(k) + 1e-3
        want = scale * free_unitary_sum_norm(a)
        assert free_unitary_sum_norm(scale * a) == pytest.approx(want, rel=1e-12, abs=0.0)
    want = scale * 2.0 * np.sqrt(2.0)
    assert free_unitary_sum_norm(scale * np.ones(3)) == pytest.approx(want, rel=1e-12, abs=0.0)
    want = 1e-155 * 2.0 * np.sqrt(2.0)
    assert free_unitary_sum_norm(1e-155 * np.ones(3)) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_norm_counts_coordinates_beyond_the_float_range_as_zero():
    # |a_i|^2 = 1e-310 lies below tiny * max |a|^2; in u = 1/x^2 its root
    # would overflow, so it counts as zero and the row sits at x = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert free_unitary_sum_norm([1.0, 1e-155, 1e-155]) == 1.0
        values, roots = _derivative_roots(np.array([[1.0, 1e-310, 1e-310, 0.0]]))
    assert values[0] == pytest.approx(1.0, abs=1e-150) and roots[0] == 0.0


def test_norm_ignores_phases():
    a = np.array([0.3, 0.5, 0.4])
    phased = a * np.exp(1j * np.array([0.2, -1.1, 2.9]))
    assert free_unitary_sum_norm(phased) == pytest.approx(
        free_unitary_sum_norm(a), abs=1e-12
    )


# ----------------------------------------------------------------- subsets


def test_subset_singleton():
    ev = evaluate_subset((1,), [0.2, 0.3, 0.5])
    assert ev.valid
    assert ev.value == 0.0
    assert np.array_equal(ev.maximizer, [0.0, 1.0, 0.0])


def test_subset_pair():
    ev = evaluate_subset((0, 2), [0.2, 0.3, 0.5])
    assert ev.valid
    assert ev.value == pytest.approx(np.sqrt(0.7), abs=1e-12)


def test_subset_flat_full_set():
    k = 5
    ev = evaluate_subset(tuple(range(k)), np.full(k, 1.0 / k))
    assert ev.valid
    assert ev.value == pytest.approx(2.0 * np.sqrt(k - 1.0) / k, abs=1e-12)


def test_subset_errors():
    with pytest.raises(EmptySubsetError):
        evaluate_subset((), [0.5, 0.5])
    with pytest.raises(OutOfRangeError):
        evaluate_subset((0, 0), [0.5, 0.5])
    with pytest.raises(OutOfRangeError):
        evaluate_subset((2,), [0.5, 0.5])


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(3, 8))
@settings(max_examples=60, deadline=None)
def test_small_subsets_are_always_valid(seed, k):
    rng = np.random.default_rng(seed)
    w = rng.random(k) + 1e-3
    w /= w.sum()
    for size in (1, 2, 3):
        subset = tuple(sorted(rng.choice(k, size=size, replace=False)))
        assert evaluate_subset(subset, w).valid


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(3, 8))
@settings(max_examples=60, deadline=None)
def test_subset_value_monotone_under_inclusion(seed, k):
    rng = np.random.default_rng(seed)
    w = rng.random(k) + 1e-3
    w /= w.sum()
    big = tuple(sorted(rng.choice(k, size=rng.integers(2, k + 1), replace=False)))
    small_size = int(rng.integers(1, len(big) + 1))
    small = tuple(sorted(rng.choice(big, size=small_size, replace=False)))
    assert evaluate_subset(small, w).value <= evaluate_subset(big, w).value + 1e-12


# ------------------------------------------------------------ sphere supremum


def test_sphere_sup_flat_triple():
    res = sphere_sup(np.full(3, 1.0 / 3.0))
    assert res.value == pytest.approx(2.0 * np.sqrt(2.0) / 3.0, abs=1e-10)
    assert res.argmax_subset == (0, 1, 2)


def test_sphere_sup_one_heavy_closed_forms():
    above = sphere_sup(one_heavy_weights(4, 0.2))
    assert above.value == pytest.approx(1.4 / np.sqrt(2.6), abs=1e-10)
    below = sphere_sup(one_heavy_weights(4, 0.05))
    assert below.value == pytest.approx(
        (2.0 * np.sqrt(2.0) / 3.0) * np.sqrt(0.95), abs=1e-10
    )


@given(w1=st.floats(0.05, 0.95))
@settings(max_examples=50, deadline=None)
def test_sphere_sup_any_pair_is_one(w1):
    res = sphere_sup([w1, 1.0 - w1])
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_sphere_sup_consistency_with_norm():
    rng = stream(2, 0)
    for k in (2, 3, 4, 5):
        w = rng.random(k) + 0.05
        w /= w.sum()
        res = sphere_sup(w)
        direct = free_unitary_sum_norm(res.maximizer * np.sqrt(w))
        assert direct == pytest.approx(res.value, abs=1e-9)
        assert np.linalg.norm(res.maximizer) == pytest.approx(1.0, abs=1e-12)


def test_sphere_sup_matches_gradient_ascent():
    rng = stream(3, 0)
    for k in (2, 3, 4):
        w = rng.random(k) + 0.05
        w /= w.sum()
        enumerated = sphere_sup(w).value
        ascended, _ = maximize_over_sphere(np.sqrt(w), rng, starts=30, iters=300)
        assert ascended == pytest.approx(enumerated, abs=1e-6)


def test_sphere_sup_flat_extremizer_is_flat():
    # the maximizer over a flat weight vector has no preferred coordinate
    _, a = maximize_over_sphere(np.full(4, 0.5), stream(4, 0), starts=40, iters=400)
    assert np.abs(a).max() - np.abs(a).min() <= 1e-4


def test_sphere_sup_bounds_on_size():
    with pytest.raises(OutOfRangeError):
        sphere_sup([1.0])
    flat = sphere_sup(np.full(21, 1.0 / 21.0))
    assert flat.argmax_subset == tuple(range(21))
    assert flat.value == pytest.approx(2.0 * np.sqrt(20.0) / 21.0, abs=1e-12)


# ----------------------------------------- per-subset reference enumeration


def _reference_subset(subset, w):
    """(beta, gamma, valid, h) of one subset by plain per-subset arithmetic."""
    wj = w[list(subset)]
    m = len(subset)
    beta = float(wj.sum())
    gamma = float(1.0 / np.sum(1.0 / wj))
    excess = m - 2
    valid = m <= 3 or bool(wj.min() >= gamma * abs(excess))
    value = float(np.sqrt(max(0.0, beta - gamma * excess**2)))
    return beta, gamma, valid, value


def _reference_maximizer(subset, w):
    beta, gamma, _, _ = _reference_subset(subset, w)
    a = np.zeros(w.size)
    if len(subset) == 1:
        a[subset[0]] = 1.0
        return a
    wj = w[list(subset)]
    excess = len(subset) - 2
    denom = beta - gamma * excess**2
    a[list(subset)] = np.sqrt(np.maximum(0.0, wj - (gamma * excess) ** 2 / wj) / denom)
    return a


def _reference_sup(w):
    """One subset at a time: the full set if it is valid, else every subset by
    size then lexicographic order, ties to the lexicographically smallest.
    Returns (value, argmax subset, rows) with rows [(subset, data)] in
    evaluation order."""
    full = tuple(range(w.size))
    rows = [(full, _reference_subset(full, w))]
    if not rows[0][1][2]:
        rows = [
            (combo, _reference_subset(combo, w))
            for size in range(1, w.size + 1)
            for combo in combinations(range(w.size), size)
        ]
    best = None
    for subset, (_, _, valid, value) in rows:
        if valid and (
            best is None
            or value > best[0]
            or (value == best[0] and subset < best[1])
        ):
            best = (value, subset)
    return best[0], best[1], rows


def _heaviest_prefixes(w):
    """The full set alone if it is valid, else the k prefixes of the
    coordinates sorted heaviest first (equal weights in index order), each
    as an ascending tuple."""
    full = tuple(range(w.size))
    if _reference_subset(full, w)[2]:
        return [full]
    order = sorted(full, key=lambda i: -w[i])
    return [tuple(sorted(order[:m])) for m in range(1, w.size + 1)]


def _assert_sup_matches_reference(w):
    value, subset, rows = _reference_sup(w)
    res = sphere_sup(w)
    assert res.value == value
    assert res.argmax_subset == subset
    assert np.array_equal(res.maximizer, _reference_maximizer(subset, w))
    assert [ev.subset for ev in res.evaluations] == _heaviest_prefixes(w)
    return rows


@pytest.mark.parametrize("k", range(2, 13))
def test_subset_kernel_matches_reference_bit_for_bit(k):
    rng = stream(12, k)
    spread = rng.random(k) + 1e-3
    light = rng.random(k) + 1e-3
    light[rng.integers(k)] *= 1e-3  # one tiny weight invalidates the full set
    for w in (spread / spread.sum(), light / light.sum()):
        for size in range(1, k + 1):
            for combo in combinations(range(k), size):
                ev = evaluate_subset(combo, w)
                got = (ev.weight_sum, ev.harmonic_scale, ev.valid, ev.value)
                assert got == _reference_subset(combo, w), combo
                if ev.valid:
                    assert np.array_equal(ev.maximizer, _reference_maximizer(combo, w))
                else:
                    assert ev.maximizer is None
        _assert_sup_matches_reference(w)
    if k >= 4:
        assert len(sphere_sup(light / light.sum()).evaluations) == k


@pytest.mark.parametrize("r", [0.007, 0.018])
def test_sphere_sup_matches_reference_at_k16(r):
    rows = _assert_sup_matches_reference(one_heavy_weights(16, r))
    assert len(rows) == 2**16 - 1


def test_sphere_sup_tie_break_matches_reference():
    # h(J + {x}) = h(J) exactly when x = gamma_J (#J - 2), so a block of n
    # equal weights preceded by copies of x = (n - 2)/n ties across sizes;
    # a tiny last weight makes the full set invalid
    tied = []
    for copies in (1, 2):
        for n in range(4, 8):
            for tiny in (1e-3, 2e-3, 5e-3, 1e-2):
                w = np.array([(n - 2) / n] * copies + [1.0] * n + [tiny])
                w /= w.sum()
                value, subset, rows = _reference_sup(w)
                maxima = [c for c, (_, _, valid, h) in rows if valid and h == value]
                if len(maxima) >= 2:
                    tied.append((w, subset, maxima))
    assert tied, "no weight vector with a tied maximum found"
    for w, subset, maxima in tied:
        assert subset == min(maxima)
        _assert_sup_matches_reference(w)
    # in some of them the winner is not the first maximum met in size order
    assert any(len(subset) > min(len(c) for c in maxima) for _, subset, maxima in tied)


def _weight_family(family, k, rng):
    if family == "uniform":
        w = rng.random(k) + 1e-3
    elif family == "fourth-power":
        w = rng.random(k) ** 4 + 1e-6
    elif family == "log-normal":
        w = rng.lognormal(0.0, 2.0, k)
    elif family == "one-light":
        w = rng.random(k) + 1e-3
        w[rng.integers(k)] *= 1e-3
    else:  # integer-tied: few distinct values, so equal weights abound
        w = rng.integers(1, 4, k).astype(float)
    return w / w.sum()


FAMILIES = ("uniform", "fourth-power", "log-normal", "one-light", "integer-tied")


@pytest.mark.parametrize("family", FAMILIES)
def test_sphere_sup_matches_reference_on_weight_families(family):
    for k in range(2, 13):
        rng = stream(13, k)
        for _ in range(3):
            _assert_sup_matches_reference(_weight_family(family, k, rng))


def test_sphere_sup_scales_to_a_thousand_weights():
    w = _weight_family("log-normal", 1000, stream(14, 0))
    res = sphere_sup(w)
    prefixes = _heaviest_prefixes(w)
    assert [ev.subset for ev in res.evaluations] == prefixes
    assert res.argmax_subset in prefixes[1:-1]
    assert np.linalg.norm(res.maximizer) == pytest.approx(1.0, abs=1e-12)
    direct = free_unitary_sum_norm(res.maximizer * np.sqrt(w))
    assert direct == pytest.approx(res.value, abs=1e-9)


def _fixed_bisection(squared):
    """The variational minimum by a fixed 90-step bisection on F, row-wise."""
    b = np.atleast_2d(squared)
    k = b.shape[1]
    active = 2.0 - k + (b == 0.0).sum(axis=1) < 0.0
    lo = np.zeros(len(b))
    hi = k * np.sqrt(np.max(b, axis=1))
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        with np.errstate(invalid="ignore"):
            f = 2.0 - k + np.sum(mid[:, None] / np.sqrt(mid[:, None] ** 2 + b), axis=1)
        above = f > 0.0
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    x = np.where(active, 0.5 * (lo + hi), 0.0)
    return (2.0 - k) * x + np.sum(np.sqrt(x[:, None] ** 2 + b), axis=1), x


@pytest.mark.parametrize("k", [2, 3, 5, 8, 16])
def test_derivative_roots_match_fixed_bisection_bit_for_bit(k):
    """The Newton values agree with an independent fixed 90-step bisection to
    1e-14, on the same boundary rows, and the Newton roots zero F to rounding,
    which the bisection cannot do below 2^-90 of its bracket (the `tiny` rows)."""
    rng = stream(15, k)
    a = rng.standard_normal((200, k))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    # coordinates near 1e-108, as the sphere ascent produces, and every other
    # row with k - 2 exact zeros, which puts its minimum at the boundary x = 0
    tiny = a.copy()
    tiny[:, : k // 2 + 1] *= 1e-108
    zeros = a.copy()
    zeros[::2, : k - 2] = 0.0
    for rows in (a**2, tiny**2, zeros**2, (a * rng.random(k)) ** 2):
        values, roots = _derivative_roots(rows)
        want_values, want_roots = _fixed_bisection(rows)
        assert np.all(np.abs(values - want_values) <= 1e-14 * np.maximum(1.0, np.abs(want_values)))
        assert np.array_equal(roots == 0.0, want_roots == 0.0)
        x = roots[roots > 0.0, None]
        f = 2.0 - k + np.sum(x / np.sqrt(x**2 + rows[roots > 0.0]), axis=1)
        assert np.all(np.abs(f) <= 8 * k * np.finfo(float).eps)


class _PassCounter:
    """numpy as `oracles` sees it, counting `any` calls: one per Newton pass."""

    def __init__(self):
        self.passes = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def any(self, *args, **kwargs):
        self.passes += 1
        return np.any(*args, **kwargs)


def _roots_and_passes(monkeypatch, rows):
    counter = _PassCounter()
    with monkeypatch.context() as patch:
        patch.setattr(oracles, "np", counter)
        values, roots = _derivative_roots(rows)
    return values, roots, counter.passes


def test_boundary_rows_do_not_prolong_the_bisection(monkeypatch):
    """Boundary rows add no Newton passes, and a row gives the same bits
    alone as in a batch."""
    # every other row gets k - 2 exact zeros, so F(0+) >= 0 puts it at x = 0
    k = 4
    a = stream(16, k).standard_normal((50, k))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    mixed = a**2
    mixed[::2, : k - 2] = 0.0
    values, roots, passes = _roots_and_passes(monkeypatch, mixed)
    _, _, interior_passes = _roots_and_passes(monkeypatch, mixed[1::2])
    assert passes == interior_passes
    assert np.all(roots[::2] == 0.0) and np.all(roots[1::2] > 0.0)
    for row, value, root in zip(mixed, values, roots):
        (one_value,), (one_root,) = _derivative_roots(row)
        assert one_value == value and one_root == root


# -------------------------------------------------------------- norm limits


def test_mixed_unitary_norm_limit_values():
    for k in (2, 3, 4, 6):
        flat = mixed_unitary_norm_limit(np.full(k, 1.0 / k))
        assert flat == pytest.approx(4.0 * (k - 1.0) / k**2, abs=1e-10)
    heavy = mixed_unitary_norm_limit(one_heavy_weights(4, 0.2))
    assert heavy == pytest.approx(1.96 / 2.6, abs=1e-10)
    assert mixed_unitary_norm_limit([0.35, 0.65]) == pytest.approx(1.0, abs=1e-12)


def test_rank_one_limit_values():
    w = np.array([0.2, 0.3, 0.5])
    assert rank_one_limit([1.0, 0.0, 0.0], w) == pytest.approx(0.2, abs=1e-12)
    flat = rank_one_limit(np.full(3, 1.0 / np.sqrt(3.0)), np.full(3, 1.0 / 3.0))
    assert flat == pytest.approx(8.0 / 9.0, abs=1e-10)
    res = sphere_sup(w)
    assert rank_one_limit(res.maximizer, w) == pytest.approx(res.value**2, abs=1e-9)


def test_rank_one_limit_requires_unit_vector():
    from channel_limits.errors import NotUnitVectorError

    with pytest.raises(NotUnitVectorError):
        rank_one_limit([1.0, 1.0], [0.5, 0.5])
    with pytest.raises(NotUnitVectorError):
        rank_one_limit([np.nan, 1.0], [0.5, 0.5])


# ------------------------------------------------------------------ eb limit


def test_eb_limit_single_state():
    from channel_limits import eb_limit

    a = DensityMatrix.maximally_mixed(3).matrix
    states = [DensityMatrix.maximally_mixed(3)]
    assert eb_limit(a, states) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_eb_limit_diagonal_case():
    from channel_limits import eb_limit

    p = np.array([0.5, 0.2, 0.3])
    a = np.diag(p)
    states = [DensityMatrix.pure(np.eye(3)[i]) for i in range(3)]
    assert eb_limit(a, states) == pytest.approx(0.5, abs=1e-12)


def test_eb_limit_is_top_adjoint_eigenvalue():
    from channel_limits import eb_limit

    rng = stream(8, 0)
    povm = sample_unit_norm_povm((2, 2), 2, rng)
    states = [sample_density_matrix(4, rng) for _ in range(2)]
    ch = EBChannel(povm, states)
    a = sample_density_matrix(4, rng).matrix
    top = hermitian_eigenvalues(ch.adjoint_matrix(a)).max()
    assert eb_limit(a, states) == pytest.approx(top, abs=1e-10)


# ------------------------------------------------------------ peak eigenvalue


def test_peak_eigenvalue_saturated_branch():
    assert stinespring_peak_eigenvalue(2, 0.5) == 1.0
    assert stinespring_peak_eigenvalue(2, 0.9) == 1.0


def test_peak_eigenvalue_interior_branch():
    got = stinespring_peak_eigenvalue(2, 0.3)
    assert got == pytest.approx(0.5 + np.sqrt(0.21), abs=1e-12)
    assert got == pytest.approx(0.9582575694955839, abs=1e-12)


def test_peak_eigenvalue_small_time_limit():
    assert stinespring_peak_eigenvalue(4, 1e-9) == pytest.approx(0.25, abs=1e-4)


def test_peak_eigenvalue_domain():
    with pytest.raises(OutOfRangeError):
        stinespring_peak_eigenvalue(1, 0.5)
    with pytest.raises(OutOfRangeError):
        stinespring_peak_eigenvalue(2, 0.0)
    with pytest.raises(OutOfRangeError):
        stinespring_peak_eigenvalue(2, 1.5)


@pytest.mark.parametrize("k, peak", [(2, 0.9582575694955839), (3, 0.5), (5, 0.2)])
def test_flat_tail_entropy_is_entropy_of_its_spectrum(k, peak):
    rest = (1.0 - peak) / (k - 1)
    spectrum = DensityMatrix(np.diag([peak] + [rest] * (k - 1)))
    assert flat_tail_entropy(k, peak) == pytest.approx(
        von_neumann_entropy(spectrum), abs=1e-14
    )


def test_flat_tail_entropy_saturates_and_checks_domain():
    assert flat_tail_entropy(2, 1.0) == 0.0
    with pytest.raises(OutOfRangeError):
        flat_tail_entropy(1, 0.5)
    with pytest.raises(OutOfRangeError):
        flat_tail_entropy(3, 0.0)


# -------------------------------------------------------------- weight family


def test_one_heavy_weights_shape():
    w = one_heavy_weights(4, 0.25)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.abs(w - 0.25).max() <= 1e-14
    skew = one_heavy_weights(4, 0.1)
    assert skew[0] == pytest.approx(0.1, abs=1e-14)
    assert np.abs(skew[1:] - 0.3).max() <= 1e-14


def test_one_heavy_sup_value_piecewise():
    assert one_heavy_sup_value(0.2) == pytest.approx(1.4 / np.sqrt(2.6), abs=1e-14)
    assert one_heavy_sup_value(0.05) == pytest.approx(
        (2.0 * np.sqrt(2.0) / 3.0) * np.sqrt(0.95), abs=1e-14
    )
