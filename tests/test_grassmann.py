"""Wedge algebra, plane projections, characteristic angles, and the bounds."""

import math
import tracemalloc

import numpy as np
import pytest

from spanmin import (InvalidInputError, PlanePair, PreconditionError,
                     characteristic_angles, equality_family, grassmann,
                     is_simple, plane_projection_norm, projected_area_sums,
                     verify_projection_bounds, wedge)
from spanmin.grassmann import (BASIS_PAIRS, FRAME_TOL, PROJECTION_SLACK,
                               PRUNE_LEAD, SAMPLE_CHUNK, _sphere_coordinates,
                               _unit_two_vectors, induced_projection_matrix,
                               plucker_form, projection_maximizer,
                               projection_sums, two_vector_norm)

E = np.eye(4)


def reference_induced_matrix(frame):
    """Column (i, j) is p(e_i) ^ p(e_j), p = F^T F the projection onto the plane."""
    frame = np.asarray(frame, dtype=float)
    p = frame.T @ frame
    return np.stack([wedge(p[:, i], p[:, j]) for (i, j) in BASIS_PAIRS],
                    axis=1)


def reference_sums(pair, xis):
    L1, L2 = (reference_induced_matrix(pair.frame1),
              reference_induced_matrix(pair.frame2))
    return (np.linalg.norm(xis @ L1.T, axis=-1)
            + np.linalg.norm(xis @ L2.T, axis=-1))


def sample_simple_unit(rng, count):
    """Uniformly random simple unit 2-vectors (orthonormalized Gaussian pairs)."""
    x = rng.standard_normal((count, 4))
    y = rng.standard_normal((count, 4))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    y -= (np.sum(x * y, axis=1, keepdims=True)) * x
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    return wedge(x, y)


def random_pairs(rng, count):
    pairs = [PlanePair.orthogonal(), PlanePair.from_angles(0.35, 1.05),
             PlanePair.from_angles(0.0, 0.0)]
    for _ in range(count):
        P = np.linalg.qr(rng.standard_normal((4, 2)))[0].T
        Q = np.linalg.qr(rng.standard_normal((4, 2)))[0].T
        pairs.append(PlanePair(frame1=P, frame2=Q))
    return pairs


def test_wedge_basis_pairs():
    assert np.allclose(wedge(E[0], E[1]), [1, 0, 0, 0, 0, 0])
    assert np.allclose(wedge(E[2], E[3]), [0, 0, 0, 0, 0, 1])
    assert np.allclose(wedge(E[0], E[0]), 0)
    assert np.allclose(wedge(E[1], E[0]), -wedge(E[0], E[1]))


def test_wedge_mixed_vector_norm():
    xi = wedge(E[0] + E[2], E[1] + E[3])
    assert two_vector_norm(xi) == pytest.approx(2.0)


def test_norm_identity_random():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2000, 4))
    y = rng.standard_normal((2000, 4))
    lhs = two_vector_norm(wedge(x, y))
    nx = np.linalg.norm(x, axis=1)
    ny = np.linalg.norm(y, axis=1)
    cos = np.sum(x * y, axis=1) / (nx * ny)
    sin = np.sqrt(np.clip(1 - cos ** 2, 0, 1))
    assert np.allclose(lhs, nx * ny * sin, atol=1e-9)


def test_plucker_simplicity():
    rng = np.random.default_rng(1)
    for _ in range(200):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        assert is_simple(wedge(x, y))
    non_simple = np.array([1.0, 0, 0, 0, 0, 1.0])  # e12 + e34
    assert plucker_form(non_simple) == pytest.approx(1.0)
    assert not is_simple(non_simple)
    for t in (1.0, -1.0, 0.5, -0.5):
        xi = np.array([1.0, 0, 0, 0, 0, t])
        assert not is_simple(xi)
    assert is_simple(np.zeros(6))


def test_plane_projection_norm_values():
    f12 = E[:2]
    assert plane_projection_norm(f12, wedge(E[0], E[1])) == pytest.approx(1.0)
    assert plane_projection_norm(f12, wedge(E[2], E[3])) == pytest.approx(0.0)
    xi = 0.5 * wedge(E[0] + E[2], E[1] + E[3])
    assert plane_projection_norm(f12, xi) == pytest.approx(0.5)


def test_plane_projection_norm_basis_independent():
    rng = np.random.default_rng(2)
    xi = sample_simple_unit(rng, 1)[0]
    base = plane_projection_norm(E[:2], xi)
    theta = 0.7
    rotated = np.array([
        math.cos(theta) * E[0] + math.sin(theta) * E[1],
        -math.sin(theta) * E[0] + math.cos(theta) * E[1]])
    assert plane_projection_norm(rotated, xi) == pytest.approx(base)
    assert plane_projection_norm(E[:2], -xi) == pytest.approx(base)


def test_frame_validation():
    with pytest.raises(InvalidInputError):
        plane_projection_norm(np.ones((2, 4)), np.zeros(6))
    with pytest.raises(InvalidInputError):
        characteristic_angles(E[:3], E[:2])


def test_frame_orthonormal_to_1e12_absolute():
    # a Gram diagonal off by 8e-6 is within numpy's default rtol=1e-5 of 1,
    # yet far from orthonormal to 1e-12
    loose = E[:2] * (1 + 4e-6)
    with pytest.raises(InvalidInputError):
        PlanePair(loose, E[2:])
    with pytest.raises(InvalidInputError):
        plane_projection_norm(loose, np.zeros(6))
    rng = np.random.default_rng(20)
    for _ in range(20):
        P = np.linalg.qr(rng.standard_normal((4, 2)))[0].T
        Q = np.linalg.qr(rng.standard_normal((4, 2)))[0].T
        pair = PlanePair(P, Q)
        assert pair.projection_bound() >= 1.0


def test_characteristic_angles_known_pairs():
    a1, a2 = characteristic_angles(E[:2], E[2:])
    assert (a1, a2) == pytest.approx((math.pi / 2, math.pi / 2))
    a1, a2 = characteristic_angles(E[:2], np.array([E[0], E[2]]))
    assert (a1, a2) == pytest.approx((0.0, math.pi / 2))


def test_characteristic_angles_parameterized():
    for theta, phi in [(0.3, 0.9), (0.0, 1.2), (0.5, 0.5)]:
        pair = PlanePair.from_angles(theta, phi)
        assert (pair.alpha1, pair.alpha2) == pytest.approx((theta, phi))


def test_plane_pair_angles_are_not_constructor_arguments():
    # the angles come from the frames alone
    with pytest.raises(TypeError):
        PlanePair(E[:2], E[2:], alpha1=0.1, alpha2=0.2)
    pair = PlanePair(E[:2], E[2:])
    assert (pair.alpha1, pair.alpha2) == pytest.approx((math.pi / 2,) * 2)


def test_characteristic_angles_symmetric_and_invariant():
    rng = np.random.default_rng(3)
    for _ in range(10):
        A = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        P = np.linalg.qr(rng.standard_normal((4, 2)))[0].T
        Q = np.linalg.qr(rng.standard_normal((4, 2)))[0].T
        assert characteristic_angles(P, Q) == pytest.approx(
            characteristic_angles(Q, P))
        assert characteristic_angles(P @ A.T, Q @ A.T) == pytest.approx(
            characteristic_angles(P, Q), abs=1e-9)


def test_plane_pair_bounds():
    assert PlanePair.orthogonal().projection_bound() == 1.0
    assert PlanePair(E[[0, 2]], E[[3, 1]]).projection_bound() == 1.0
    # 2 cos(pi/6)^2 = 3/2
    pair = PlanePair.from_angles(math.pi / 3, math.pi / 3)
    assert 1.5 <= pair.projection_bound() <= 1.5 + PROJECTION_SLACK + 1e-15
    with pytest.raises(InvalidInputError):
        PlanePair.from_angles(1.0, 0.5)


def test_near_orthogonal_pair_sum_exceeds_one():
    # the pair passes is_orthogonal(), yet x ^ y with x ~ e1 + g1 and
    # y ~ e2 + g2 has sum 1 + cos(alpha1) > 1, so the constant 1 would be
    # unsound there
    t = math.pi / 2 - 1e-10
    pair = PlanePair.from_angles(t, t)
    assert pair.is_orthogonal()
    (e1, e2), (g1, g2) = pair.frame1, pair.frame2
    x = e1 + g1
    y = e2 + g2
    y -= (x @ y) / (x @ x) * x
    xi = wedge(x / np.linalg.norm(x), y / np.linalg.norm(y))
    s = projection_sums(pair, xi[None])[0]
    assert s == pytest.approx(1.0000000001, abs=1e-15)
    assert s > 1.0 + 5e-11
    assert s <= pair.projection_bound()
    assert pair.projection_bound() >= (2 * math.cos(pair.alpha1 / 2)
                                       * math.cos(pair.alpha2 / 2))


def test_equality_family_attains_one():
    pair = PlanePair.orthogonal()
    for alpha in (0.0, math.pi / 4, math.pi / 2, 0.3):
        xi = equality_family(pair, alpha)
        assert two_vector_norm(xi) == pytest.approx(1.0)
        assert is_simple(xi)
        s = projection_sums(pair, xi[None])[0]
        assert s == pytest.approx(1.0, abs=1e-12)


def test_equality_family_needs_orthogonal_pair():
    pair = PlanePair.from_angles(0.2, 0.8)
    with pytest.raises(PreconditionError):
        equality_family(pair, 0.1)


def test_verify_projection_bounds_orthogonal():
    report = verify_projection_bounds(PlanePair.orthogonal(),
                                      samples=20000, seed=7)
    assert report.holds()
    assert report.bound == 1.0
    assert report.max_sum <= 1.0 + 1e-9


def test_verify_projection_bounds_tilted():
    pair = PlanePair.from_angles(math.pi / 3, math.pi / 3)
    report = verify_projection_bounds(pair, samples=20000, seed=8)
    assert report.holds()
    assert report.bound == pytest.approx(1.5)


def test_verify_projection_bounds_sharp_with_family():
    pair = PlanePair.orthogonal()
    fam = np.array([equality_family(pair, a)
                    for a in np.linspace(0, math.pi / 2, 100)])
    report = verify_projection_bounds(pair, samples=100, seed=9, include=fam)
    assert report.max_sum >= 1.0 - 1e-3
    assert report.holds()


def test_verify_projection_bounds_needs_samples():
    with pytest.raises(PreconditionError):
        verify_projection_bounds(PlanePair.orthogonal(), samples=0, seed=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_verify_projection_bounds_rejects_non_finite_include(bad):
    # a NaN row made the maximum over `include` NaN, and max(M, nan) kept
    # M: max_sum read 0.9669 instead of the 5.0 of the first row
    pair = PlanePair.orthogonal()
    row = [5.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert verify_projection_bounds(pair, samples=10, seed=0,
                                    include=np.array([row])).max_sum == 5.0
    with pytest.raises(InvalidInputError, match="finite"):
        verify_projection_bounds(pair, samples=10, seed=0,
                                 include=np.array([row, [bad] * 6]))


@pytest.mark.parametrize("samples", [2.9, 3.0, True, "3", None])
def test_verify_projection_bounds_rejects_non_integral_samples(samples):
    with pytest.raises(InvalidInputError):
        verify_projection_bounds(PlanePair.orthogonal(), samples=samples,
                                 seed=0)


@pytest.mark.parametrize("samples", [3, np.int64(3), np.uint8(3)])
def test_verify_projection_bounds_accepts_integer_types(samples):
    report = verify_projection_bounds(PlanePair.orthogonal(), samples=samples,
                                      seed=0)
    assert report.samples == 3 and type(report.samples) is int


def test_projected_area_sums_plane_triangle():
    tri = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
    s1, s2, total = projected_area_sums([tri], PlanePair.orthogonal())
    assert s1 == pytest.approx(0.5)
    assert s2 == pytest.approx(0.0)
    assert total == pytest.approx(0.5)  # lambda = 1 on a P1 triangle


def test_projected_area_sums_equality_triangle():
    # tangent plane from the alpha = pi/4 equality family
    c = math.cos(math.pi / 4)
    x = c * E[0] + c * E[2]
    y = c * E[1] + c * E[3]
    tri = np.stack([np.zeros(4), x, y])
    s1, s2, total = projected_area_sums([tri], PlanePair.orthogonal())
    assert s1 + s2 == pytest.approx(0.5, abs=1e-12)


def test_projected_area_sums_inequality_random():
    rng = np.random.default_rng(4)
    pair = PlanePair.from_angles(0.4, 1.1)
    tris = rng.standard_normal((50, 3, 4))
    s1, s2, total = projected_area_sums(tris, pair)
    assert s1 + s2 <= total + 1e-9


def test_projected_area_sums_rejects_degenerate():
    tri = np.zeros((3, 4))
    with pytest.raises(InvalidInputError):
        projected_area_sums([tri], PlanePair.orthogonal())


# -- rank-one kernel against the column-wise induced matrix --------------------

def test_induced_matrix_matches_columnwise_reference():
    rng = np.random.default_rng(11)
    for pair in random_pairs(rng, 20):
        for frame in (pair.frame1, pair.frame2):
            L = induced_projection_matrix(frame)
            assert np.max(np.abs(L - reference_induced_matrix(frame))) <= 1e-15
            assert np.array_equal(L, L.T)
            assert np.max(np.abs(L @ L - L)) <= 1e-15
            assert np.linalg.matrix_rank(L) == 1


def test_projection_sums_match_reference():
    rng = np.random.default_rng(12)
    simple = wedge(rng.standard_normal((500, 4)), rng.standard_normal((500, 4)))
    general = rng.standard_normal((500, 6))
    assert not is_simple(general[0])
    for pair in random_pairs(rng, 10):
        for xis in (simple, general):
            got = projection_sums(pair, xis)
            assert np.max(np.abs(got - reference_sums(pair, xis))) <= 1e-14
        xi = general[0]
        for frame in (pair.frame1, pair.frame2):
            ref = np.linalg.norm(reference_induced_matrix(frame) @ xi)
            assert abs(plane_projection_norm(frame, xi) - ref) <= 1e-14


# -- the S^2 x S^2 sampler against explicit planes ----------------------------

def halves(w):
    """The self-dual and anti-self-dual halves A(w), B(w) of 2-vectors w."""
    c12, c13, c14, c23, c24, c34 = np.moveaxis(np.asarray(w, float), -1, 0)
    return (np.stack([c12 + c34, c13 - c24, c14 + c23], axis=-1),
            np.stack([c12 - c34, c13 + c24, c14 - c23], axis=-1))


def from_halves(a, b):
    """The 2-vector whose halves are a and b."""
    (a1, a2, a3), (b1, b2, b3) = np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0)
    return np.stack([a1 + b1, a2 + b2, a3 + b3, a3 - b3, b2 - a2, a1 - b1],
                    axis=-1) / 2


def half_frame(plus, minus):
    """Orthonormal rows e_z, e_x, e_y of R^3 with e_z along plus and e_x
    along minus, each where it does not vanish (the two are orthogonal)."""
    def normal(v):
        c = np.cross(v, np.eye(3)[np.argmin(np.abs(v))])
        return c / np.linalg.norm(c)

    n_plus, n_minus = np.linalg.norm(plus), np.linalg.norm(minus)
    ez = plus / n_plus if n_plus > 0 else normal(minus)
    ex = minus / n_minus if n_minus > 0 else normal(ez)
    return np.stack([ez, ex, np.cross(ez, ex)])


def sampled_planes(pair, samples, seed):
    """The unit 2-vectors verify_projection_bounds samples, built whole.

    Redraws its uniforms (u_a, v_a, u_b, v_b) chunk by chunk and places
    a, b = (z, r cos phi, r sin phi), z = 2u - 1, r = sqrt(1 - z^2),
    phi = 2 pi v, in frames of the two halves that put U+ = A(w1 + w2) on z
    and U- = A(w1 - w2) on x (V+, V- = B(w1 +- w2) for b).
    """
    w1, w2 = wedge(*pair.frame1), wedge(*pair.frame2)
    (Up, Vp), (Um, Vm) = halves(w1 + w2), halves(w1 - w2)
    frames = half_frame(Up, Um), half_frame(Vp, Vm)
    rng = np.random.default_rng(seed)
    chunks = []
    for s in range(0, samples, SAMPLE_CHUNK):
        u = rng.random((4, min(SAMPLE_CHUNK, samples - s)))
        points = []
        for (uz, v), frame in zip((u[:2], u[2:]), frames):
            z = 2.0 * uz - 1.0
            r = np.sqrt(1.0 - z * z)
            phi = 2.0 * math.pi * v
            points.append(np.stack([z, r * np.cos(phi), r * np.sin(phi)],
                                   axis=-1) @ frame)
        chunks.append(from_halves(*points))
    return np.concatenate(chunks)


def test_halves_of_unit_simple_vectors():
    # both halves of a unit simple xi are unit, and <xi, w> = (a.A + b.B) / 2
    rng = np.random.default_rng(16)
    xis = sample_simple_unit(rng, 1000)
    a, b = halves(xis)
    for half in (a, b):
        assert np.max(np.abs(np.linalg.norm(half, axis=1) - 1.0)) <= 1e-14
    assert np.max(np.abs(from_halves(a, b) - xis)) <= 1e-15
    w = wedge(*random_pairs(rng, 1)[3].frame1)
    A, B = halves(w)
    assert np.max(np.abs(xis @ w - (a @ A + b @ B) / 2)) <= 1e-15


@pytest.mark.parametrize("samples", [1, SAMPLE_CHUNK - 1, SAMPLE_CHUNK,
                                     SAMPLE_CHUNK + 1, 2 * SAMPLE_CHUNK + 1])
def test_verify_projection_bounds_matches_reference_max(samples):
    rng = np.random.default_rng(13)
    pair_list = random_pairs(rng, 1)
    fam = np.array([equality_family(pair_list[0], a)
                    for a in np.linspace(0, math.pi / 2, 9)])
    cases = [(pair_list[0], None), (pair_list[0], fam),
             (pair_list[1], 2.0 * rng.standard_normal((7, 6))),
             (pair_list[3], None), (PlanePair.from_angles(0.0, 0.0), None),
             (PlanePair.from_angles(math.pi / 3, math.pi / 3), None)]
    for seed, (pair, include) in enumerate(cases, start=samples):
        xis = sampled_planes(pair, samples, seed)
        assert len(xis) == samples
        assert np.max(np.abs(two_vector_norm(xis) - 1.0)) <= 1e-14
        assert np.max(np.abs(plucker_form(xis))) <= 1e-14
        ref = reference_sums(pair, xis)
        if include is not None:
            ref = np.concatenate([ref, reference_sums(pair, include)])
        report = verify_projection_bounds(pair, samples=samples, seed=seed,
                                          include=include)
        assert abs(report.max_sum - float(np.max(ref))) <= 1e-14
        assert report.samples == samples and report.seed == seed


# -- pruned evaluation against evaluating every sample -------------------------

def whole_chunk_max_sum(pair, samples, seed, include=None):
    """verify_projection_bounds' maximum with every sample of every chunk
    evaluated, each chunk drawn as its own (4, m) array."""
    rng = np.random.default_rng(seed)
    w1, w2 = _unit_two_vectors(pair).T
    kaz, kbz, kax, kbx = (
        math.hypot(*half) / 2 for c in (w1 + w2, w1 - w2)
        for half in ((c[0] + c[5], c[1] - c[4], c[2] + c[3]),
                     (c[0] - c[5], c[1] + c[4], c[2] - c[3])))
    max_sum = 0.0
    for s in range(0, samples, SAMPLE_CHUNK):
        z, x = _sphere_coordinates(
            rng.random((4, min(SAMPLE_CHUNK, samples - s))))
        max_sum = max(max_sum, np.abs(kaz * z[0] + kbz * z[1]).max(),
                      np.abs(kax * x[0] + kbx * x[1]).max())
    if include is not None and len(include):
        max_sum = max(max_sum, np.max(projection_sums(pair, include)))
    return float(max_sum)


def lemma_pairs():
    rng = np.random.default_rng(21)
    return random_pairs(rng, 3) + [
        PlanePair.from_angles(0.0, math.pi / 2),
        PlanePair.from_angles(math.pi / 3, math.pi / 3),
        PlanePair.from_angles(math.pi / 2 - 1e-10, math.pi / 2 - 1e-10),
        PlanePair(E[:2], E[[1, 0]])]  # w2 = -w1: no z-part at all


@pytest.mark.parametrize("samples", [1, PRUNE_LEAD, PRUNE_LEAD + 1,
                                     SAMPLE_CHUNK - 1, SAMPLE_CHUNK + 1,
                                     3 * SAMPLE_CHUNK + 1])
def test_pruned_max_sum_equals_whole_chunk_max_sum(samples):
    # no tolerance: pruning drops only samples that cannot beat the maximum
    for seed, pair in enumerate(lemma_pairs(), start=samples):
        fam = (np.array([equality_family(pair, a)
                         for a in np.linspace(0, math.pi / 2, 9)])
               if pair.is_orthogonal() else
               np.random.default_rng(seed).standard_normal((5, 6)) / 3)
        for include in (None, fam):
            report = verify_projection_bounds(pair, samples=samples,
                                              seed=seed, include=include)
            assert report.max_sum == whole_chunk_max_sum(pair, samples, seed,
                                                         include)


@pytest.mark.parametrize("pair", [PlanePair.orthogonal(),
                                  PlanePair.from_angles(0.35, 1.05)],
                         ids=["orthogonal", "0.35,1.05"])
def test_pruned_max_sum_equals_whole_chunk_max_sum_at_10e6(pair):
    for seed in (0, 7919):
        report = verify_projection_bounds(pair, samples=10 ** 6, seed=seed)
        assert report.max_sum == whole_chunk_max_sum(pair, 10 ** 6, seed)


@pytest.mark.parametrize("pair", [PlanePair.orthogonal(),
                                  PlanePair.from_angles(0.35, 1.05),
                                  PlanePair.from_angles(0.0, 0.0)],
                         ids=["orthogonal", "0.35,1.05", "identical"])
def test_pruning_evaluates_few_samples(pair, monkeypatch):
    # the first chunk (maximum 0) evaluates a copy of its leading
    # PRUNE_LEAD samples; then it, and every later chunk, is a gather of
    # the few samples that could beat the maximum
    calls = []

    def counting(u):
        calls.append((u.shape[1], u.flags.owndata))
        return _sphere_coordinates(u)

    monkeypatch.setattr(grassmann, "_sphere_coordinates", counting)
    report = verify_projection_bounds(pair, samples=10 ** 6, seed=7919)
    assert calls[0][0] == PRUNE_LEAD
    assert all(gathered for _, gathered in calls)
    assert sum(columns for columns, _ in calls) < PRUNE_LEAD + 10_000
    monkeypatch.undo()
    assert report.max_sum == whole_chunk_max_sum(pair, 10 ** 6, 7919)


# Kolmogorov's distribution exceeds 1.95 with probability below 0.001
KS_LIMIT = 1.95


def ks_distance(sample, cdf):
    x = np.sort(sample)
    n = len(x)
    F = cdf(x)
    return max(np.max(np.arange(1, n + 1) / n - F),
               np.max(F - np.arange(n) / n))


def ks_two_sample_distance(a, b):
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    return float(np.max(np.abs(
        np.searchsorted(a, both, side="right") / len(a)
        - np.searchsorted(b, both, side="right") / len(b))))


def one_plane_sums(pair, seeds):
    """The sampler's own sums: with one sample, max_sum is that plane's sum."""
    return np.array([verify_projection_bounds(pair, samples=1, seed=s).max_sum
                     for s in seeds])


def triangular_cdf(t):
    """The law of (s + t) / 2 for s, t uniform on [-1, 1]."""
    return np.where(t < 0, (1 + t) ** 2 / 2, 1 - (1 - t) ** 2 / 2)


def test_sampled_pairing_follows_triangular_law():
    # a.A and b.B are independent and uniform on [-1, 1] (Archimedes), so
    # <xi, w> = (a.A + b.B) / 2 has the triangular law for every unit simple w
    n = 20000
    limit = KS_LIMIT / math.sqrt(n)
    pair = PlanePair.from_angles(0.35, 1.05)
    w1, w2 = wedge(*pair.frame1), wedge(*pair.frame2)
    # the sampler's coordinates along U+-, V+- give the signed pairings
    (Up, Vp), (Um, Vm) = halves(w1 + w2), halves(w1 - w2)
    z, x = _sphere_coordinates(np.random.default_rng(18).random((4, n)))
    plus = (np.linalg.norm(Up) * z[0] + np.linalg.norm(Vp) * z[1]) / 2
    minus = (np.linalg.norm(Um) * x[0] + np.linalg.norm(Vm) * x[1]) / 2
    for pairing in ((plus + minus) / 2, (plus - minus) / 2):  # w1, w2
        assert ks_distance(pairing, triangular_cdf) < limit
    # the explicit planes, against any unit simple w
    xis = sampled_planes(pair, n, seed=18)
    rng = np.random.default_rng(17)
    for w in (w1, wedge(*random_pairs(rng, 1)[3].frame1)):
        assert ks_distance(xis @ w, triangular_cdf) < limit


def test_sampled_sums_follow_gaussian_plane_law():
    # the S^2 x S^2 draw and the orthonormalized Gaussian pairs of
    # sample_simple_unit give the same law of the projection sum
    n = 3000
    rng = np.random.default_rng(19)
    for pair in (PlanePair.from_angles(0.35, 1.05), PlanePair.orthogonal(),
                 random_pairs(rng, 1)[3]):
        ours = one_plane_sums(pair, range(10000, 10000 + n))
        theirs = reference_sums(pair, sample_simple_unit(rng, n))
        limit = KS_LIMIT * math.sqrt(2 / n)
        assert ks_two_sample_distance(ours, theirs) < limit


def test_verify_projection_bounds_memory_is_bounded():
    # uniforms and temporaries live per chunk, so the peak does not grow
    # with the sample count (4.2 MB either way, after a first call that
    # sets up what every call shares)
    pair = PlanePair.from_angles(0.35, 1.05)
    verify_projection_bounds(pair, samples=1, seed=1)
    peaks = []
    for samples in (100_000, 1_000_000):
        tracemalloc.start()
        try:
            verify_projection_bounds(pair, samples=samples, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 1e6


# -- exact supremum of the projection sum --------------------------------------

def antisymmetric(omega):
    """The 4x4 matrix A with x^T A y = <x ^ y, omega> for every x, y."""
    A = np.zeros((4, 4))
    for k, (i, j) in enumerate(BASIS_PAIRS):
        A[i, j], A[j, i] = omega[k], -omega[k]
    return A


def exact_supremum(pair):
    """sup of |<xi, w1>| + |<xi, w2>| over unit simple xi.

    The sum is the larger of <xi, w1 + w2> and <xi, w1 - w2> up to the sign
    of xi, and sup <x ^ y, omega> over orthonormal x, y is the largest
    singular value of A(omega).
    """
    w1 = wedge(*pair.frame1)
    w2 = wedge(*pair.frame2)
    return max(float(np.linalg.norm(antisymmetric(w1 + sign * w2), 2))
               for sign in (1.0, -1.0))


def test_exact_supremum_known_pairs():
    assert exact_supremum(PlanePair.orthogonal()) == pytest.approx(
        1.0, abs=1e-12)
    assert exact_supremum(PlanePair.from_angles(0.0, 0.0)) == pytest.approx(
        2.0, abs=1e-12)


def test_closed_form_supremum():
    # the sampler's coefficients give sup = max over +- of (|U| + |V|) / 2,
    # which is 2 cos(alpha1/2) cos(alpha2/2)
    rng = np.random.default_rng(15)
    for pair in random_pairs(rng, 50) + [PlanePair.from_angles(1.0, 1.0)]:
        w1, w2 = wedge(*pair.frame1), wedge(*pair.frame2)
        closed = max((np.linalg.norm(U) + np.linalg.norm(V)) / 2
                     for U, V in (halves(w1 + w2), halves(w1 - w2)))
        assert abs(closed - exact_supremum(pair)) <= 1e-12
        assert abs(closed - 2 * math.cos(pair.alpha1 / 2)
                   * math.cos(pair.alpha2 / 2)) <= 1e-12


def test_monte_carlo_max_below_exact_supremum_below_bound():
    rng = np.random.default_rng(14)
    for seed, pair in enumerate(random_pairs(rng, 30)):
        exact = exact_supremum(pair)
        report = verify_projection_bounds(pair, samples=20000, seed=seed)
        assert exact - 0.05 <= report.max_sum <= exact + 1e-12
        assert exact <= pair.projection_bound()


# -- the closed-form constant and its maximizer against the sampler ------------

def constant_pairs():
    rng = np.random.default_rng(22)
    return random_pairs(rng, 12) + [
        PlanePair.from_angles(math.pi / 4, math.pi / 4),
        PlanePair.from_angles(0.0, math.pi / 2),
        PlanePair.from_angles(math.pi / 2 - 1e-10, math.pi / 2 - 1e-10),
        PlanePair(E[:2], E[[1, 0]])]


def closed_form(pair):
    return 2 * math.cos(pair.alpha1 / 2) * math.cos(pair.alpha2 / 2)


# the float 2 cos(alpha1/2) cos(alpha2/2) is itself a few units of 2^-53
# off: at the orthogonal pair it reads 1 + 2.2e-16
REFERENCE_ERROR = 1e-15


def test_bound_is_the_closed_form_rounded_upward():
    for pair in constant_pairs():
        excess = pair.projection_bound() - closed_form(pair)
        assert -REFERENCE_ERROR <= excess <= PROJECTION_SLACK + REFERENCE_ERROR
    # coordinate frames keep the exact constant, other orthogonal ones
    # take the slack
    assert PlanePair.orthogonal().projection_bound() == 1.0
    turn = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0]]) / math.sqrt(2)
    assert 1.0 < PlanePair(turn, E[2:]).projection_bound() <= (
        1.0 + PROJECTION_SLACK + REFERENCE_ERROR)


def test_sampled_max_below_the_bound_and_the_maximizer_attains_it():
    for seed, pair in enumerate(constant_pairs()):
        bound = pair.projection_bound()
        report = verify_projection_bounds(pair, samples=10 ** 5, seed=seed)
        assert report.max_sum <= bound
        xi = projection_maximizer(pair)
        assert is_simple(xi)
        assert abs(float(two_vector_norm(xi)) - 1.0) <= 1e-12
        attained = projection_sums(pair, xi[None])[0]
        assert 0.0 <= bound - attained <= PROJECTION_SLACK + REFERENCE_ERROR
        assert attained == pytest.approx(exact_supremum(pair), abs=1e-12)


def test_bound_covers_frames_orthonormal_only_to_the_tolerance():
    # rows scaled by 1 +- d/2 pass the 1e-12 check, and their 2-vectors
    # scale by about 1 +- d: the bound must cover the maps x -> F x and the
    # orthogonal projections onto the planes alike, so shrunken frames
    # need the slack
    rng = np.random.default_rng(23)
    for scale in (1.0 - 0.49 * FRAME_TOL, 1.0 + 0.49 * FRAME_TOL):
        for pair in constant_pairs()[:8] + [PlanePair.orthogonal()]:
            scaled = PlanePair(pair.frame1 * scale, pair.frame2 * scale)
            bound = scaled.projection_bound()
            assert bound >= max(exact_supremum(scaled), exact_supremum(pair))
            xis = sample_simple_unit(rng, 2000)
            assert np.max(reference_sums(scaled, xis)) <= bound
