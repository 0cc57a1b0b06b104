"""2-vector algebra in R^4: wedge products, plane projections, angle bounds.

Coordinates follow the basis e_i ^ e_j, 1 <= i < j <= 4, in the fixed order
(12, 13, 14, 23, 24, 34).  The norm is the Euclidean norm in these
coordinates, which is the one induced by the standard scalar product.

Orthogonal projection onto a 2-plane P acts on 2-vectors with rank one:
if f1, f2 is an orthonormal frame of P and w = f1 ^ f2 its unit 2-vector,
the induced map sends xi to <xi, w> w, so |p_P(xi)| = |<xi, w>| for every
2-vector xi, simple or not.

Unit simple 2-vectors are the points (a, b) of S^2 x S^2 (Gluck-Warner):
w is unit and simple exactly when its halves A(w) = (w12 + w34, w13 - w24,
w14 + w23) and B(w) = (w12 - w34, w13 + w24, w14 - w23) are unit 3-vectors,
<xi, w> = (A(xi).A(w) + B(xi).B(w)) / 2, and the uniform law on planes is
the uniform law on S^2 x S^2, which the lemma check samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidInputError, PreconditionError

BASIS_PAIRS: Tuple[Tuple[int, int], ...] = (
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

FRAME_TOL = 1e-12


def wedge(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exterior product of two vectors in R^4 (six wedge coordinates).

    Accepts batched input of shape (..., 4); returns shape (..., 6).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.empty(x.shape[:-1] + (6,), dtype=float)
    for k, (i, j) in enumerate(BASIS_PAIRS):
        out[..., k] = x[..., i] * y[..., j] - x[..., j] * y[..., i]
    return out


def two_vector_norm(xi: np.ndarray) -> np.ndarray:
    return np.linalg.norm(np.asarray(xi, dtype=float), axis=-1)


def plucker_form(xi: np.ndarray) -> np.ndarray:
    """The quadratic whose vanishing characterizes decomposable 2-vectors."""
    xi = np.asarray(xi, dtype=float)
    return (xi[..., 0] * xi[..., 5] - xi[..., 1] * xi[..., 4]
            + xi[..., 2] * xi[..., 3])


def is_simple(xi: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff xi is (numerically) a wedge of two vectors."""
    xi = np.asarray(xi, dtype=float)
    n2 = float(xi @ xi)
    return abs(float(plucker_form(xi))) <= tol * max(n2, tol)


def _check_frame(frame: np.ndarray) -> np.ndarray:
    frame = np.asarray(frame, dtype=float)
    if frame.shape != (2, 4):
        raise InvalidInputError("a plane frame is a 2x4 matrix of basis rows")
    gram = frame @ frame.T
    if not np.allclose(gram, np.eye(2), rtol=0.0, atol=FRAME_TOL):
        raise InvalidInputError("frame rows must be orthonormal to 1e-12")
    return frame


def induced_projection_matrix(frame: np.ndarray) -> np.ndarray:
    """6x6 matrix of the map induced on 2-vectors by orthogonal projection.

    The map is xi -> <xi, w> w with w the unit 2-vector of the plane, so the
    matrix is the rank-one outer product w w^T.
    """
    w = wedge(*_check_frame(frame))
    return np.outer(w, w)


def plane_projection_norm(frame: np.ndarray, xi: np.ndarray) -> float:
    """Norm of the projected 2-vector; for xi = x^y this is |p(x) ^ p(y)|."""
    w = wedge(*_check_frame(frame))
    return float(abs(w @ np.asarray(xi, dtype=float)))


def characteristic_angles(frame_p: np.ndarray, frame_q: np.ndarray
                          ) -> Tuple[float, float]:
    """Principal angles between two 2-planes, ascending in [0, pi/2].

    The smaller angle is the minimum angle between unit vectors of the two
    planes; the cosines are the singular values of the frame Gram matrix.
    """
    P = _check_frame(frame_p)
    Q = _check_frame(frame_q)
    s = np.linalg.svd(P @ Q.T, compute_uv=False)
    s = np.clip(s, 0.0, 1.0)
    angles = np.arccos(s)
    return float(min(angles)), float(max(angles))


@dataclass(frozen=True)
class PlanePair:
    """Two 2-planes with orthonormal frames and their characteristic angles."""

    frame1: np.ndarray
    frame2: np.ndarray
    alpha1: float = field(init=False)
    alpha2: float = field(init=False)

    def __post_init__(self):
        f1 = _check_frame(self.frame1)
        f2 = _check_frame(self.frame2)
        a1, a2 = characteristic_angles(f1, f2)
        object.__setattr__(self, "frame1", f1)
        object.__setattr__(self, "frame2", f2)
        object.__setattr__(self, "alpha1", a1)
        object.__setattr__(self, "alpha2", a2)

    @classmethod
    def orthogonal(cls) -> "PlanePair":
        return cls(frame1=np.array([[1., 0., 0., 0.], [0., 1., 0., 0.]]),
                   frame2=np.array([[0., 0., 1., 0.], [0., 0., 0., 1.]]))

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "PlanePair":
        """Pair with angles (theta, phi): the second plane is spanned by
        cos(t) e1 + sin(t) e3 and cos(p) e2 + sin(p) e4."""
        if not (0 <= theta <= phi <= math.pi / 2 + 1e-12):
            raise InvalidInputError("need 0 <= theta <= phi <= pi/2")
        f1 = np.array([[1., 0., 0., 0.], [0., 1., 0., 0.]])
        f2 = np.array([
            [math.cos(theta), 0.0, math.sin(theta), 0.0],
            [0.0, math.cos(phi), 0.0, math.sin(phi)]])
        return cls(frame1=f1, frame2=f2)

    def is_orthogonal(self, tol: float = 1e-9) -> bool:
        return self.alpha1 >= math.pi / 2 - tol

    def projection_bound(self) -> float:
        """Upper bound for |p1(xi)| + |p2(xi)| over unit simple 2-vectors
        (1 for exactly orthogonal frames only: near them the sum exceeds 1)."""
        if not np.any(self.frame1 @ self.frame2.T):
            return 1.0
        return 1.0 + 2.0 * math.cos(self.alpha1)

    def projection_matrices(self) -> Tuple[np.ndarray, np.ndarray]:
        return (induced_projection_matrix(self.frame1),
                induced_projection_matrix(self.frame2))


def equality_family(pair: PlanePair, alpha: float,
                    frames: Optional[Tuple[np.ndarray, ...]] = None) -> np.ndarray:
    """A simple unit 2-vector attaining projection-sum equality.

    For an orthogonal pair, wedging cos(a) v1 + sin(a) u1 with
    cos(a) v2 + sin(a) u2 (v_i, u_i orthonormal in the two planes) gives
    |p1| + |p2| = cos^2 + sin^2 = 1 exactly.
    """
    if not pair.is_orthogonal():
        raise PreconditionError("the equality family needs orthogonal planes")
    if frames is None:
        v1, v2 = pair.frame1
        u1, u2 = pair.frame2
    else:
        v1, v2, u1, u2 = (np.asarray(f, dtype=float) for f in frames)
    c, s = math.cos(alpha), math.sin(alpha)
    x = c * v1 + s * u1
    y = c * v2 + s * u2
    return wedge(x, y)


@dataclass(frozen=True)
class BoundReport:
    """Result of a Monte-Carlo projection-bound verification."""

    max_sum: float
    bound: float
    margin: float
    samples: int
    seed: int
    alpha1: float
    alpha2: float

    def holds(self, tol: float = 1e-9) -> bool:
        return self.max_sum <= self.bound + tol


# samples per step of verify_projection_bounds; bounds its temporaries
SAMPLE_CHUNK = 1 << 16

# samples evaluated first in a chunk with no pruning threshold yet: their
# maximum sets one for the rest of the chunk
PRUNE_LEAD = 1 << 12

# widening of verify_projection_bounds' pruning thresholds, relative in M
# and absolute in z^2: far above the few units of 2^-53 that rounding takes
PRUNE_MARGIN = 1e-9


def _unit_two_vectors(pair: PlanePair) -> np.ndarray:
    """6x2 matrix whose columns are the unit 2-vectors w1, w2 of the planes."""
    frames = np.stack([pair.frame1, pair.frame2])
    return wedge(frames[:, 0], frames[:, 1]).T


def projection_sums(pair: PlanePair, xis: np.ndarray) -> np.ndarray:
    """|p1(xi)| + |p2(xi)| = |<xi, w1>| + |<xi, w2>| for a batch of 2-vectors."""
    xis = np.asarray(xis, dtype=float)
    return np.abs(xis @ _unit_two_vectors(pair)).sum(axis=-1)


def _sphere_coordinates(u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Coordinates z = 2u - 1 (Archimedes) and x = sqrt(1 - z^2) cos(2 pi v)
    of uniform points of S^2, written over the uniforms u, v in the rows
    u[::2], u[1::2] (a new array per step would cost a page fault per 4 KB)."""
    z, x = u[::2], u[1::2]
    z *= 2.0
    z -= 1.0
    np.cos(np.multiply(x, 2.0 * math.pi, out=x), out=x)
    x *= np.sqrt(1.0 - z * z)
    return z, x


def _threshold(m: float, k_other: float, k: float) -> float:
    """(m - k_other) / k: with its partner at most 1 in size, a coordinate
    of weight k must exceed this for its part to exceed m (-inf for k = 0,
    as callers have k + k_other > m)."""
    return (m - k_other) / k if k > 0 else -math.inf


def _candidate_bounds(max_sum: float, kz: Tuple[float, float],
                      kx: Tuple[float, float]) -> Optional[tuple]:
    """Bounds on |z| = 2|u - 1/2| of rows 0 and 2 outside which no sample's
    computed sum exceeds max_sum: (z_lo, x_hi), the z-part needing
    |z_i| > z_lo[i] and the x-part |z_i| < x_hi[i], None for a part that
    cannot exceed it.  None as a whole when some part is not pruned at all.
    """
    m = max_sum * (1.0 - PRUNE_MARGIN)
    z_lo = x_hi = None
    if kz[0] + kz[1] > m:
        z_lo = (_threshold(m, kz[1], kz[0]), _threshold(m, kz[0], kz[1]))
        if max(z_lo) <= 0:
            return None
    if kx[0] + kx[1] > m:
        r_lo = (_threshold(m, kx[1], kx[0]), _threshold(m, kx[0], kx[1]))
        if max(r_lo) <= 0:
            return None
        x_hi = tuple(math.sqrt(max(0.0, 1.0 - r * r + PRUNE_MARGIN))
                     if r > 0 else math.inf for r in r_lo)
    return z_lo, x_hi


def _candidates(u: np.ndarray, z_lo, x_hi) -> np.ndarray:
    """The columns of u that pass either part's test, gathered into one
    C-contiguous array."""
    half = np.abs(u[::2] - 0.5)  # |z| / 2, exactly
    keep = np.zeros(u.shape[1], dtype=bool)
    for part, beyond in ((z_lo, np.greater), (x_hi, np.less)):
        if part is not None:
            keep |= beyond(half[0], part[0] / 2) & beyond(half[1], part[1] / 2)
    return u.compress(keep, axis=1)


def verify_projection_bounds(pair: PlanePair, samples: int, seed: int,
                             include: Optional[np.ndarray] = None) -> BoundReport:
    """Monte-Carlo check of the projection-sum bound for a plane pair: the
    maximum of |p1| + |p2| over `samples` uniform random simple unit
    2-vectors and the 2-vectors in `include` (say the equality family).

    A sample is a uniform point (a, b) of S^2 x S^2 (module docstring).
    As |p| + |q| = max(|p + q|, |p - q|), its sum is the larger |a.U + b.V|/2
    for U, V = A(w1 +- w2), B(w1 +- w2); U+ is orthogonal to U- and V+ to V-,
    so only the coordinates of a along U+, U- and of b along V+, V- matter,
    from uniforms (u_a, v_a, u_b, v_b) drawn chunk by chunk into one
    (4, SAMPLE_CHUNK) buffer.  The sum is the larger of the z-part
    |kaz z0 + kbz z1| and the x-part |kax x0 + kbx x1|.

    Only samples that could beat the running maximum M are evaluated, and
    max_sum is the one every sample gives, bit for bit.  z_i = 2u - 1 is
    exact, |x_i| <= r_i = sqrt(1 - z_i^2) <= 1, so the z-part exceeds M
    only if |z0| > (M - kbz)/kaz and |z1| > (M - kaz)/kbz, the x-part only
    if r0 > (M - kbx)/kax and r1 > (M - kax)/kbx (so |z_i| < sqrt(1 - r^2)
    for those bounds r), and a part whose k's sum to at most M never does.
    Rounding: a computed cosine is at most 1 in size (to a few units in the
    last place), each product, sum and square root is off by at most
    u = 2^-53 relative, and 1 - z^2 by at most 2^-52 absolute, so a
    computed part above M needs these tests with about M (1 - 10u) in place
    of M and r_i^2 + 2^-52 in place of r_i^2.  They
    are taken with M (1 - 1e-9) and |z_i|^2 < 1 - r^2 + 1e-9 instead, wider
    by far more than the rounding of the thresholds themselves, so no
    sample whose computed sum exceeds M is dropped; one that ties M cannot
    change it.  The candidates are gathered into one array and evaluated
    as a chunk is.  In a chunk where some part has no positive threshold
    yet (the first, with M = 0), a copy of its first PRUNE_LEAD samples
    is evaluated to set M, and then the whole chunk is pruned by it (a
    leading sample that passes again cannot change M, and the chunk is
    left contiguous, which `compress` would otherwise copy whole); if M
    still gives no threshold, the chunk is evaluated whole.  The
    2-vectors in `include` are taken first, which can only raise M; a
    non-finite entry in them raises InvalidInputError, as a NaN would
    hide every other row from the maximum.
    """
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)):
        raise InvalidInputError("samples must be an integer")
    if samples < 1:
        raise PreconditionError("need at least one sample")
    samples = int(samples)
    rng = np.random.default_rng(seed)
    w1, w2 = _unit_two_vectors(pair).T
    kaz, kbz, kax, kbx = (  # |U+|/2, |V+|/2, |U-|/2, |V-|/2
        math.hypot(*half) / 2 for c in (w1 + w2, w1 - w2)
        for half in ((c[0] + c[5], c[1] - c[4], c[2] + c[3]),
                     (c[0] - c[5], c[1] + c[4], c[2] - c[3])))
    max_sum = 0.0
    if include is not None and len(include):
        if not np.isfinite(include).all():
            raise InvalidInputError("include 2-vectors must be finite")
        max_sum = max(max_sum, np.max(projection_sums(pair, include)))
    buf = np.empty(4 * min(SAMPLE_CHUNK, samples))  # refilled per chunk

    def evaluated(u: np.ndarray) -> float:
        z, x = _sphere_coordinates(u)
        return max(max_sum, np.abs(kaz * z[0] + kbz * z[1]).max(),
                   np.abs(kax * x[0] + kbx * x[1]).max())

    for s in range(0, samples, SAMPLE_CHUNK):
        n = min(SAMPLE_CHUNK, samples - s)
        u = rng.random(out=buf[:4 * n].reshape(4, n))
        bounds = _candidate_bounds(max_sum, (kaz, kbz), (kax, kbx))
        if bounds is None:
            max_sum = evaluated(u[:, :PRUNE_LEAD].copy())
            bounds = _candidate_bounds(max_sum, (kaz, kbz), (kax, kbx))
        if bounds is not None:
            u = _candidates(u, *bounds)
        if u.shape[1]:
            max_sum = evaluated(u)
        del u  # before the next draw, so memory is one chunk's
    max_sum, bound = float(max_sum), pair.projection_bound()
    return BoundReport(max_sum=max_sum, bound=bound, margin=bound - max_sum,
                       samples=samples, seed=int(seed),
                       alpha1=pair.alpha1, alpha2=pair.alpha2)


def projected_area_sums(triangles: Sequence[np.ndarray], pair: PlanePair
                        ) -> Tuple[float, float, float]:
    """Per-triangle projected-area sums against the scaled total area.

    Returns (sum of areas under p1, sum under p2, lambda * total area) where
    lambda is the largest per-triangle projection sum, so the first two always
    total at most the third (overlap-free, per-triangle form).
    """
    tris = np.asarray(triangles, dtype=float)
    if tris.ndim == 2:
        tris = tris[None]
    if tris.shape[1:] != (3, 4):
        raise InvalidInputError("triangles must have shape (m, 3, 4)")
    a = tris[:, 1] - tris[:, 0]
    b = tris[:, 2] - tris[:, 0]
    xi = wedge(a, b)
    norms = np.linalg.norm(xi, axis=1)
    if np.any(norms < 1e-12):
        raise InvalidInputError("degenerate triangle in input")
    areas = norms / 2.0
    unit = xi / norms[:, None]
    s1, s2 = np.abs(unit @ _unit_two_vectors(pair)).T
    lam = float(np.max(s1 + s2))
    return (float(np.sum(s1 * areas)), float(np.sum(s2 * areas)),
            lam * float(np.sum(areas)))
