"""Krylov approximation of f(A)b with certified error bounds.

Polynomial and rational Arnoldi projections, Markov functions with their
Pade approximants, and GMRES/FOM with bound curves derived from Faber
polynomials of a convex set containing the numerical range.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .domains import (_CONTAINMENT_TOL, _K_UNIVERSAL, Disk, Ellipse, Interval, Shape,
                      exterior_map, signed_margin)
from .faber import FaberModel, _support_inside, faber_coeffs, faber_polynomials
from .matrixcore import RationalFunction, _safe_scale, as_matrix, eval_rational, matfun_reference
from .numrange import _angular_extremes, _herm_parts, _polish_peaks, hermitian_eigmax, \
    numerical_radius, outer_gauge_bracket, support_profile
from .spectraltest import sup_on_boundary

_BREAKDOWN_TOL = 1e-12
# fit_ellipse's aspect step scales the point offsets by a power of two past this
_ASPECT_MAX = 2.0 ** 200
_SOLVE_COND_MAX = 1e14


# ---------------------------------------------------------------------------
# decompositions

@dataclass(frozen=True)
class KrylovDecomposition:
    """Orthonormal basis V of a (rational) Krylov space with H = V*AV.

    next_v/next_h carry the (m+1)-st Arnoldi direction and its coefficient
    (polynomial case); exact marks a lucky breakdown, i.e. span(V) is an
    invariant subspace and every projection formula below is exact.
    """

    v: np.ndarray
    h: np.ndarray
    next_h: float
    next_v: Optional[np.ndarray]
    b_norm: float
    poles: Optional[tuple] = None
    exact: bool = False

    @property
    def order(self) -> int:
        return self.v.shape[1]


def _krylov_basis(mat: np.ndarray, b, poles: Sequence):
    """One Krylov step per pole from the unit vector b / ||b||.

    A pole of numpy.inf (or None) applies A to the newest column, a finite z
    solves with A - zI (condition number above 1e14 raises an error naming
    the pole).  Each new vector is orthogonalized against every column so
    far by classical Gram-Schmidt with one reorthogonalization pass; column
    j of coef holds the summed coefficients of step j and, in row j + 1, the
    norm left over.  Returns (v, coef, b_norm, exact): on a breakdown (that
    norm vanishes against the vector's own scale, so span(v) is invariant)
    v stops at the columns built so far and exact is True.
    """
    n = mat.shape[0]
    bv = np.asarray(b, dtype=complex).reshape(-1)
    if bv.shape != (n,):
        raise ValueError("b must be a length-n vector")
    b_norm = float(np.linalg.norm(bv))
    if b_norm == 0.0:
        raise ValueError("b must be nonzero")
    v = np.zeros((n, len(poles) + 1), dtype=complex)
    coef = np.zeros((len(poles) + 1, len(poles)), dtype=complex)
    v[:, 0] = bv / b_norm
    for j, z in enumerate(poles):
        if z is None or np.isinf(z):
            w = mat @ v[:, j]
        else:
            shifted = mat - complex(z) * np.eye(n)
            sv = np.linalg.svd(shifted, compute_uv=False)
            if sv[-1] <= sv[0] / _SOLVE_COND_MAX:
                raise RuntimeError(
                    f"shifted solve nearly singular at pole {complex(z)}")
            w = np.linalg.solve(shifted, v[:, j])
        w_scale = max(float(np.linalg.norm(w)), 1e-300)
        basis = v[:, : j + 1]
        for _ in range(2):
            c = basis.conj().T @ w
            coef[: j + 1, j] += c
            w = w - basis @ c
        coef[j + 1, j] = nw = float(np.linalg.norm(w))
        if nw <= _BREAKDOWN_TOL * w_scale:
            return basis, coef, b_norm, True
        v[:, j + 1] = w / nw
    return v, coef, b_norm, False


def arnoldi(a, b, m: int) -> KrylovDecomposition:
    """Arnoldi by classical Gram-Schmidt with one reorthogonalization pass.

    Returns the m-step decomposition, H the Hessenberg matrix of the
    Gram-Schmidt coefficients; a lucky breakdown (invariant subspace found
    early) returns the reduced decomposition flagged exact.
    """
    mat = as_matrix(a)
    if not 1 <= m <= mat.shape[0]:
        raise ValueError("need 1 <= m <= n")
    v, hess, b_norm, exact = _krylov_basis(mat, b, [np.inf] * m)
    if exact:
        k = v.shape[1]
        return KrylovDecomposition(v=v, h=hess[:k, :k], next_h=0.0, next_v=None,
                                   b_norm=b_norm, exact=True)
    return KrylovDecomposition(v=v[:, :m], h=hess[:m, :m],
                               next_h=float(hess[m, m - 1].real), next_v=v[:, m],
                               b_norm=b_norm, exact=(m == mat.shape[0]))


def rational_krylov(a, b, poles: Sequence) -> KrylovDecomposition:
    """Orthonormal basis of q(A)^{-1} span{b, Ab, ..., A^{m-1}b}, H = V*AV.

    poles lists z_1..z_{m-1}; entries may be numpy.inf (or None) for
    polynomial steps, so the all-infinite list builds arnoldi's basis (the
    same classical Gram-Schmidt loop with one reorthogonalization pass).
    Each finite pole triggers a shifted solve (A - z I)^{-1}; a shifted
    matrix with condition number above 1e14 raises an error naming the pole.
    """
    mat = as_matrix(a)
    if len(poles) + 1 > mat.shape[0]:
        raise ValueError("too many poles: space dimension exceeds n")
    v, _, b_norm, exact = _krylov_basis(mat, b, poles)
    h = v.conj().T @ (mat @ v)
    return KrylovDecomposition(v=v, h=h, next_h=0.0, next_v=None,
                               b_norm=b_norm, poles=tuple(poles), exact=exact)


# ---------------------------------------------------------------------------
# auto-fitted enclosure of the numerical range

def _aspect_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least area over the aspect of each rotation angle, read off a pivot.

    Row j holds a_k = dx_k^2 and b_k = dy_k^2 of the points in the frame of
    angle j; its area at s = log r is F_j(s) = max_k (a_k e^s + b_k e^-s),
    convex in s.  F_j at any s is an upper bound U_j on min_s F_j.  Any
    convex combination (A, B) of the (a_k, b_k) gives 2 sqrt(A B) <= min_s
    F_j (minimax duality: the minimum of the maximum is the maximum over
    convex combinations of each one's minimum), the lower bound L_j, and
    for the best (A, B) the two meet at s* = log(B/A) / 2.  That point
    lies on an edge between two of the points, so each row keeps a pair and
    the best point on its segment: each round takes the piece m active at
    that point's s* (clipped to [-40, 40]), where it reads U_j, and keeps
    the best of the pair and its two segments to m (the best point of the
    triangle lies on its boundary).  Like the simplex method that is exact
    in a few rounds.  A row stays in the rounds, at most 64 of them, while
    U_j and L_j differ by more than rounding, its point still moves, and it
    can still come first (``_may_come_first``).  Returns (U, s): per row
    the least area found and the s that gives it.
    """

    def segment(rows, k, l):
        # the largest sqrt(A) sqrt(B) on the segment from point k to point
        # l of each row, with its (A, B) and the pair: (A + t da)(B + t db)
        # peaks at t = -(da B + db A) / (2 da db), else at t = 1 (the caller
        # holds a value at least point k's)
        ak, bk = a[rows, k], b[rows, k]
        da, db = a[rows, l] - ak, b[rows, l] - bk
        t = np.clip(np.nan_to_num(-(da * bk + db * ak) / (2.0 * da * db)), 0.0, 1.0)

        def point(w):
            return np.sqrt(ak + w * da) * np.sqrt(bk + w * db), ak + w * da, bk + w * db, k, l

        inner, end = point(t), point(1.0)
        return _pick(end[0] > inner[0], end, inner)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k = np.argmax(np.sqrt(a) * np.sqrt(b), axis=1)
        live = np.arange(len(a))
        best = segment(live, k, k)
        upper = np.full(len(a), np.inf)
        log_r = np.zeros(len(a))
        for _ in range(64):
            value, big_a, big_b, i, j = cur = tuple(x[live] for x in best)
            s = np.clip(np.nan_to_num(0.5 * (np.log(big_b) - np.log(big_a))), -40.0, 40.0)
            area = a[live] * np.exp(s)[:, None] + b[live] * np.exp(-s)[:, None]
            m = np.argmax(area, axis=1)
            top = area[np.arange(len(live)), m]
            less = top < upper[live]
            upper[live] = np.where(less, top, upper[live])
            log_r[live] = np.where(less, s, log_r[live])
            for cand in (segment(live, i, m), segment(live, j, m)):
                cur = _pick(cand[0] > cur[0], cand, cur)
            for whole, part in zip(best, cur):
                whole[live] = part
            lower = 2.0 * cur[0]
            apart = upper[live] - lower > 4.0 * np.finfo(float).eps * upper[live]
            live = live[apart & (cur[0] > value) & _may_come_first(lower, upper)]
            if not live.size:
                break
    return upper, log_r


def _may_come_first(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    # a row with L > (1 + 1e-7) min U cannot come first: L grows, min U shrinks
    return lower <= (1.0 + 1e-7) * upper.min()


def _pick(mask, first, second):
    # entrywise choice between two tuples of equal-length arrays
    return tuple(np.where(mask, x, y) for x, y in zip(first, second))


def fit_ellipse(a) -> Shape:
    """Small-area ellipse (or interval) containing W(A).

    The 256 boundary points of ``support_profile(A, 256)`` (128 Hermitian
    reductions, each read at both ends of its spectrum for the angles t and
    t + pi) are enclosed by an ellipse E0, axis-aligned after a rotation
    search over 90 angles in [0, pi/2) (rotation t + pi/2 is the frame of t
    with its axes swapped).  Each angle's least area over the aspect ratio
    is exact, read off a pivot on its dual (``_aspect_rows``), which runs
    only on the angles whose area bounds let them come first; E0 is the fit
    of the first angle whose least area is within 1e-12 (relative) of the
    least, so exact ties, such as an ellipse and its mirror image for real
    A, do not go by rounding.  Where the points' offsets in a rotated frame
    exceed 2^200, the rotation and aspect step runs on them scaled by a
    power of two, and its axes are scaled back, so a huge ||A|| cannot
    overflow it.  Where that fit is thinner than 1e-10, the exact bounding
    box of W(A) in the fitted frame decides (the support values p at t,
    t + pi/2, t + pi and t + 3 pi/2): if its width is at most
    64 eps ||A||_F, W(A) is a segment to rounding and E0 the box's long
    midline, from lambda_min to lambda_max for Hermitian A; otherwise E0 is
    the thin ellipse about the box's center with the box's half-length as
    long semi-axis and, as short one, the geometric mean of the box's
    half-length and half-width.

    Both semi-axes of E0 are then scaled by lambda (1 + 1e-9), floored at
    1 + 1e-12, where lambda is the largest gauge of E0 over the vertices of
    the outer polygon of W(A) (``numrange.outer_gauge_bracket``).  W(A)
    lies in that polygon, so the result contains W(A) between the sampled
    angles too, not only at them.  The polygon is bisected until lambda is
    within 1e-9 (relative) of the largest gauge of a Rayleigh point, which
    no containing scaling can undercut, or, where W(A) hugs E0 along an
    arc, until the angles would pass 512 (lambda then stays up to 1.9e-5
    above it).  The factor 1 + 1e-9 is the rounding allowance: it covers
    the eigensolver's rounding of the support values, about n eps ||A||,
    wherever that is below 1e-9 of the scaled short semi-axis.  An interval
    holds W(A) only up to its rounding width.
    """
    mat = as_matrix(a)
    pts = support_profile(mat, 256).points

    ts = np.linspace(0.0, np.pi / 2.0, 90, endpoint=False)
    q = pts[None, :] * np.exp(-1j * ts)[:, None]
    cxs = (q.real.max(axis=1) + q.real.min(axis=1)) / 2.0
    cys = (q.imag.max(axis=1) + q.imag.min(axis=1)) / 2.0
    dx, dy = q.real - cxs[:, None], q.imag - cys[:, None]
    # the aspect step squares the offsets, scales them by r up to e^+-40
    # and multiplies their squares; past _ASPECT_MAX it runs on them scaled
    # by a power of two, which is exact, so no fit below it changes
    spread = float(max(np.abs(dx).max(), np.abs(dy).max()))
    sc = math.ldexp(1.0, -math.frexp(spread)[1]) if spread > _ASPECT_MAX else 1.0
    area, log_r = _aspect_rows((dx * sc) ** 2, (dy * sc) ** 2)
    # the first rotation of least area, so that ties (the mirror image of a
    # real A's fit, every rotation of a disk) do not go by rounding
    k = int(np.flatnonzero(area <= (1.0 + 1e-12) * area.min())[0])
    t, cx, cy, r = ts[k], cxs[k], cys[k], float(np.exp(log_r[k]))
    q = pts * np.exp(-1j * t)
    ax = float(np.sqrt(np.max(((q.real - cx) * sc) ** 2 + ((q.imag - cy) * sc / r) ** 2))) / sc
    ay = r * ax
    center = complex(np.exp(1j * t) * (cx + 1j * cy))
    if ay > ax:
        ax, ay = ay, ax
        t += np.pi / 2.0
    t = float(np.mod(t, np.pi))

    point = ax <= 1e-12 * (1.0 + abs(center))
    if point:
        # W(A) is a single point (normal A with one eigenvalue, or 1x1)
        ax = ay = 1e-9 * (1.0 + abs(center))
    u = np.exp(1j * t)
    segment = False
    if not point and ay <= 1e-10 * ax:
        # W(A) is a segment to rounding, or a thin set that the 256 points
        # may cross only near its ends: take its exact bounding box in the
        # fitted frame, from the support values along and across the axis.
        # A segment is the box's long midline; around a thin set goes the
        # ellipse whose long semi-axis exceeds the box's by about half the
        # box's half-width
        # (the n = 2 closed form squares entries: past LAPACK's safe range
        # it runs on A scaled by a power of two)
        box = _safe_scale(mat)
        right, top, left, bottom = (hermitian_eigmax(
            _herm_parts(mat * box, t + np.pi / 2.0 * np.arange(4))) / box).tolist()
        segment = top + bottom <= 64.0 * np.finfo(float).eps * float(np.linalg.norm(mat * sc)) / sc
        center = complex(u * complex(right - left, top - bottom) / 2.0)
        ax = (right + left) / 2.0
        ay = float(np.sqrt((ax * sc) * (max(top + bottom, 0.0) * sc) / 2.0)) / sc

    def fitted(scale):
        # the fitted shape with both axes scaled by `scale`
        if point:
            return Disk(center, scale * ax)
        if segment:
            return Interval(center - scale * ax * u, center + scale * ax * u)
        return Ellipse(center, scale * ax, scale * ay, rotation=t)

    def gauge(z):
        # gauge of the fitted shape about its center, in real arithmetic; a
        # segment's width is rounding, so only the coordinate along it counts
        dx, dy = z.real - center.real, z.imag - center.imag
        x = (dx * u.real + dy * u.imag) / ax
        if segment:
            return np.abs(x)
        y = (dy * u.real - dx * u.imag) / ay
        return np.sqrt(x * x + y * y)

    lam = outer_gauge_bracket(mat, gauge)[1] * (1.0 + 1e-9)
    return fitted(max(lam, 1.0 + 1e-12))


# ---------------------------------------------------------------------------
# polynomial Arnoldi for f(A)b

@dataclass(frozen=True)
class ArnoldiReport:
    """Error bounds for the Arnoldi approximation of f(A)b.

    bound_crouzeix = 2 K rho_{m-1} upper estimate (K the universal
    numerical-range constant); bound_faber = 4 sum_{j>=m} |f_j|.  Both are
    None when W(A) is not contained in the shape (hypothesis fails).
    """

    shape: Shape
    contained: bool
    bound_crouzeix: Optional[float]
    bound_faber: Optional[float]
    model: Optional[FaberModel]
    exact: bool = False


def fab_poly(a, b, m: int, f, e: Shape = None):
    """Arnoldi approximation V_m f(H_m) V_m* b with Faber-based bounds.

    The shape e must contain W(A) for the bounds to apply (auto-fitted
    bounding ellipse when omitted); if containment fails the approximation
    is still returned with bounds omitted.
    """
    mat = as_matrix(a)
    dec = arnoldi(mat, b, m)
    fh = matfun_reference(dec.h, f)
    y = dec.v @ (fh[:, 0] * dec.b_norm)

    if e is None:
        e = fit_ellipse(mat)
    emap = exterior_map(e)
    contained = _support_inside(mat, emap) <= _CONTAINMENT_TOL
    bound_c = bound_f = model = None
    if contained:
        order = max(2 * m, 24)
        model = faber_coeffs(f, e, order)
        bound_c = 2.0 * _K_UNIVERSAL * (2.0 * model.tail(m))
        bound_f = 4.0 * model.tail(m)
    report = ArnoldiReport(shape=e, contained=contained,
                           bound_crouzeix=bound_c, bound_faber=bound_f,
                           model=model, exact=dec.exact)
    return y, report


# ---------------------------------------------------------------------------
# Markov functions

@dataclass(frozen=True)
class MarkovFunction:
    """f(z) = c + sum_i w_i / (z - x_i) with atoms x_i in [alpha, beta]."""

    c: float
    atoms: tuple
    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha > self.beta:
            raise ValueError("need alpha <= beta")
        for x, w in self.atoms:
            if not self.alpha <= x <= self.beta:
                raise ValueError(f"atom location {x} outside [alpha, beta]")
            if w <= 0:
                raise ValueError("atom weights must be positive")

    @classmethod
    def from_atoms(cls, c, atoms):
        xs = [x for x, _ in atoms]
        return cls(c=float(c), atoms=tuple((float(x), float(w))
                                           for x, w in atoms),
                   alpha=float(min(xs)), beta=float(max(xs)))

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.full(z.shape, complex(self.c))
        for x, w in self.atoms:
            out = out + w / (z - x)
        return out


def markov_eval(f: MarkovFunction, z) -> complex:
    """f(z) for a single point z off the support [alpha, beta]."""
    zc = complex(z)
    if zc.imag == 0.0 and f.alpha <= zc.real <= f.beta:
        raise ValueError("z lies on the support of the measure")
    return complex(f(zc))


def markov_discretize(density, alpha: float, beta: float, n: int) -> MarkovFunction:
    """Chebyshev-point discretization of a density on [alpha, beta].

    Gauss-Chebyshev quadrature: atoms at mid + hw*cos(theta_k) with weights
    density(x_k) * hw * (pi/n) * sin(theta_k); n-point rule, O(n^-2) for
    smooth densities.
    """
    if beta <= alpha:
        raise ValueError("need alpha < beta")
    mid = (alpha + beta) / 2.0
    hw = (beta - alpha) / 2.0
    theta = (np.arange(n) + 0.5) * np.pi / n
    xs = mid + hw * np.cos(theta)
    ws = np.asarray([float(density(x)) for x in xs]) * hw * (np.pi / n) \
        * np.sin(theta)
    atoms = tuple((float(x), float(w)) for x, w in zip(xs, ws))
    return MarkovFunction(c=0.0, atoms=atoms, alpha=float(alpha),
                          beta=float(beta))


def markov_matfun(f: MarkovFunction, a) -> np.ndarray:
    """f(A) = c I + sum_i w_i (A - x_i I)^{-1}, exact in the atoms."""
    mat = as_matrix(a)
    n = mat.shape[0]
    out = f.c * np.eye(n, dtype=complex)
    for x, w in f.atoms:
        out = out + w * np.linalg.solve(mat - x * np.eye(n),
                                        np.eye(n, dtype=complex))
    return out


# ---------------------------------------------------------------------------
# Pade approximants of Markov functions

def markov_taylor(f: MarkovFunction, count: int) -> np.ndarray:
    # Taylor coefficients of f at 0: c_0 = c - sum w/x, c_j = -sum w/x^{j+1}
    xs = np.array([x for x, _ in f.atoms])
    ws = np.array([w for _, w in f.atoms])
    out = np.empty(count)
    for j in range(count):
        out[j] = -float(np.sum(ws / xs ** (j + 1)))
    if count:
        out[0] += f.c
    return out


def pade_markov(f: MarkovFunction, k: int, m: int) -> RationalFunction:
    """[k|m] Pade approximant of a Markov function at 0.

    Solves the m x m Hankel system for the denominator (normalized q(0)=1)
    and truncates f*q for the numerator.  Postconditions asserted: the first
    k+m+1 Taylor terms match to 1e-8 relative, and the roots of q lie in
    [alpha, beta] up to tolerance.
    """
    if k < m - 1:
        raise ValueError("need k >= m-1")
    if m > 8:
        raise ValueError("denominator degree limited to 8 "
                         "(Hankel conditioning)")
    if m < 0 or k < 0:
        raise ValueError("degrees must be nonnegative")
    if f.alpha <= 0.0 <= f.beta:
        raise ValueError("support must not contain the expansion point 0")

    c = markov_taylor(f, k + m + 1)
    if m == 0:
        q = np.array([1.0])
        p = c[: k + 1].copy()
    else:
        hank = np.empty((m, m))
        for j in range(m):
            for i in range(1, m + 1):
                hank[j, i - 1] = c[k + 1 + j - i]
        rhs = -c[k + 1: k + m + 1]
        sv = np.linalg.svd(hank, compute_uv=False)
        if sv[-1] <= 1e-14 * sv[0]:
            raise ValueError("degenerate measure: fewer than m independent "
                             "atoms")
        if sv[0] / sv[-1] > 1e12:
            warnings.warn(f"Hankel system condition {sv[0] / sv[-1]:.2e}; "
                          "coefficients may be inaccurate", stacklevel=2)
        q_tail = np.linalg.solve(hank, rhs)
        q = np.concatenate([[1.0], q_tail])
        p = np.array([np.dot(q[: min(t, m) + 1], c[t - np.arange(min(t, m) + 1)])
                      for t in range(k + 1)])

    _check_pade(f, p, q, c, k, m)
    return RationalFunction(num=tuple(p), den=tuple(q))


def _check_pade(f, p, q, c, k, m):
    # Taylor match of p/q to order k+m, and root localization of q
    count = k + m + 1
    series = np.zeros(count)
    for t in range(count):
        acc = p[t] if t <= k else 0.0
        for s in range(max(0, t - m), t):
            acc -= series[s] * q[t - s]
        series[t] = acc / q[0]
    scale = max(np.abs(c).max(), 1e-300)
    if np.abs(series - c).max() > 1e-8 * scale:
        raise RuntimeError("Pade postcondition failed: Taylor sections of "
                           "p/q do not match f")
    if m:
        roots = np.roots(q[::-1])
        tol = 1e-6 * (abs(f.alpha) + abs(f.beta) + 1.0)
        if np.abs(roots.imag).max() > tol or roots.real.min() < f.alpha - tol \
                or roots.real.max() > f.beta + tol:
            raise RuntimeError("Pade postcondition failed: denominator roots "
                               "left [alpha, beta]")


def pade_matrix_bound(f: MarkovFunction, pq: RationalFunction, a):
    """(f - p/q)(A) together with the bound 2 |(f - p/q)(-w(A))|.

    Valid when beta < -w(A): the sup of |f - p/q| over the disk of radius
    w(A) is then attained at -w(A), and the disk is 2-spectral for A.
    """
    mat = as_matrix(a)
    w = numerical_radius(mat)
    if not f.beta < -w:
        raise ValueError("bound requires beta < -w(A)")
    diff = markov_matfun(f, mat) - eval_rational(pq, mat)
    bound = 2.0 * abs(markov_eval(f, -w) - complex(pq(-w)))
    return diff, float(bound)


# ---------------------------------------------------------------------------
# rational Arnoldi with the prescribed-pole bound

@dataclass(frozen=True)
class RationalReport:
    """Bound data for the rational Arnoldi approximation of f(A)b.

    error_bound = 4 * rho_bound where rho_bound is the explicit estimate
    (1/|phi(beta)|) max_E |f - f(inf)| max_{w in [phi(alpha), phi(beta)]}
    of the Blaschke product over the poles' phi-images.
    """

    rho_bound: float
    error_bound: float
    sup_deviation: float
    blaschke_max: float
    phi_alpha: complex
    phi_beta: complex
    decomposition: KrylovDecomposition


def fab_rational(a, b, poles: Sequence, f: MarkovFunction, e: Shape):
    """Rational Arnoldi approximation of f(A)b with the explicit pole bound.

    Requires: e in the Joukowski class and symmetric about R, W(A) in e,
    the support [alpha, beta] disjoint from e, and every finite pole
    outside e.  Poles may include numpy.inf (polynomial steps).
    """
    mat = as_matrix(a)
    if not e.real_symmetric():
        raise ValueError("shape must be symmetric about the real axis")
    emap = exterior_map(e)
    if _support_inside(mat, emap) > _CONTAINMENT_TOL:
        raise ValueError("W(A) is not contained in the shape")
    for x in np.linspace(f.alpha, f.beta, 65):
        if signed_margin(e, complex(x)) <= 0:
            raise ValueError("support [alpha, beta] intersects the shape")
    finite = [complex(z) for z in poles if z is not None and not np.isinf(z)]
    for z in finite:
        if signed_margin(e, z) <= 0:
            raise ValueError(f"pole {z} lies inside the shape")

    dec = rational_krylov(mat, b, poles)
    y = dec.v @ (markov_matfun(f, dec.h)[:, 0] * dec.b_norm)

    phi_a = complex(emap.phi(f.alpha + 0j))
    phi_b = complex(emap.phi(f.beta + 0j))
    sup_dev, _ = sup_on_boundary(lambda z: f(z) - f.c, e)
    phi_poles = [complex(emap.phi(z)) for z in finite]
    n_inf = len(list(poles)) - len(finite)

    def blaschke(t):
        w = phi_a + t * (phi_b - phi_a)
        out = np.abs(w) ** (-float(n_inf))  # ones when every pole is finite
        for pz in phi_poles:
            out = out * np.abs((w - pz) / (1.0 - w * np.conj(pz)))
        return out

    ts = np.linspace(0.0, 1.0, 4096)
    vals = blaschke(ts)
    kmax = int(np.argmax(vals))
    _, refined = _polish_peaks(blaschke, ts, [ts[kmax]], [vals[kmax]], periodic=False)
    bmax = float(refined[0])

    rho = (1.0 / abs(phi_b)) * sup_dev * bmax
    report = RationalReport(rho_bound=rho, error_bound=4.0 * rho,
                            sup_deviation=sup_dev, blaschke_max=bmax,
                            phi_alpha=phi_a, phi_beta=phi_b,
                            decomposition=dec)
    return y, report


# ---------------------------------------------------------------------------
# GMRES / FOM

@dataclass(frozen=True)
class GmresFomResult:
    """Iterates, residual/error norms, and bound curves (index = iteration).

    residual_ratios[j] = ||b - A x_j|| / ||r_0||.  fom_errors[j] =
    ||x_j^FOM - A^{-1}b|| / ||b|| with NaN at skipped (singular H_j) steps,
    and NaN throughout when A is singular.  For b = 0 both lists hold x_0 = 0
    alone, with ratio and error 0.
    Curves: gmres_faber[j] = min(1, 2/|F_j(0)|), gmres_asym[j] =
    (2 + 1/|phi(0)|)/|phi(0)|^j, fom_curve[j] = 4 |phi(0)|^{-j}/dist(0,E);
    all None unless W(A) lies in the shape (``contained``) and 0 outside it.
    lens_factor = 2 sin(beta/(4-2beta/pi)) when A + A* is positive definite, else None.
    """

    shape: Shape
    contained: bool
    gmres_iterates: list
    residual_ratios: np.ndarray
    fom_iterates: list
    fom_errors: np.ndarray
    fom_skipped: tuple
    gmres_faber: Optional[np.ndarray]
    gmres_asym: Optional[np.ndarray]
    fom_curve: Optional[np.ndarray]
    lens_factor: Optional[float]


def lens_asymptotic_factor(a) -> float:
    """2 sin(beta/(4 - 2 beta/pi)) with cos(beta) = dist(0, W(A))/w(A).

    The GMRES asymptotic convergence factor 1/|phi(0)| of the lens
    {re z >= dist(0, W(A)), |z| <= w(A)}; requires A + A* positive definite.
    Both extremes start from the 256-angle support profile of A (served
    from the memo when ``fit_ellipse`` has sampled A), and their peaks are
    polished together by safeguarded Newton steps on the support function
    (``numrange._angular_extremes``).
    """
    mat = as_matrix(a)
    herm = (mat + mat.conj().T) / 2.0
    if np.linalg.eigvalsh(herm).min() <= 0:
        raise ValueError("lens factor requires A + A* positive definite")
    # when gmres_fom auto-fits its shape, fit_ellipse has swept this profile
    w, neg_dist = _angular_extremes(mat, [1.0, -1.0], support_profile(mat, 256).values)
    cos_beta = max(0.0, neg_dist) / w
    beta = float(np.arccos(np.clip(cos_beta, -1.0, 1.0)))
    return 2.0 * np.sin(beta / (4.0 - 2.0 * beta / np.pi))


def gmres_fom(a, b, m: int = None, e: Shape = None) -> GmresFomResult:
    """Run GMRES and FOM for Ax = b and evaluate the Faber bound curves.

    Textbook implementations from x_0 = 0 on one shared Arnoldi
    decomposition of (A, b); bound curves use a caller-chosen or
    auto-fitted shape, need W(A) inside it (``fab_poly``'s check) and 0
    outside it, and are None otherwise.  A singular A still gets its GMRES
    data; FOM errors are then undefined, reported as NaN with a RuntimeWarning.
    """
    mat = as_matrix(a)
    n = mat.shape[0]
    bv = np.asarray(b, dtype=complex).reshape(-1)
    if m is None:
        m = n
    b_norm = float(np.linalg.norm(bv))
    x_zero = np.zeros(n, dtype=complex)
    x_true = x_zero
    if b_norm:
        try:
            x_true = np.linalg.solve(mat, bv)
        except np.linalg.LinAlgError:
            x_true = np.full(n, np.nan + 0j)
            warnings.warn("A is singular, so A^{-1} b is undefined; fom_errors are NaN",
                          RuntimeWarning, stacklevel=2)

    gmres_x = [x_zero]
    fom_x = [x_zero]
    resid = [1.0 if b_norm else 0.0]
    fom_err = [float(np.linalg.norm(x_true)) / b_norm if b_norm else 0.0]
    skipped = []
    if b_norm == 0.0:
        dec = None
        mm = 0
    else:
        dec = arnoldi(mat, bv, m)
        mm = dec.order
        hbar = np.zeros((mm + 1, mm), dtype=complex)
        hbar[:mm, :] = dec.h
        hbar[mm, mm - 1] = dec.next_h
        e1 = np.zeros(mm + 1, dtype=complex)
        e1[0] = b_norm
        for j in range(1, mm + 1):
            y, *_ = np.linalg.lstsq(hbar[: j + 1, :j], e1[: j + 1],
                                    rcond=None)
            xg = dec.v[:, :j] @ y
            gmres_x.append(xg)
            resid.append(float(np.linalg.norm(bv - mat @ xg)) / b_norm)
            hj = dec.h[:j, :j]
            sv = np.linalg.svd(hj, compute_uv=False)
            if sv[-1] <= sv[0] / _SOLVE_COND_MAX:
                skipped.append(j)
                fom_x.append(None)
                fom_err.append(np.nan)
            else:
                xf = dec.v[:, :j] @ np.linalg.solve(hj, e1[:j])
                fom_x.append(xf)
                fom_err.append(float(np.linalg.norm(xf - x_true)) / b_norm)

    if e is None:
        e = fit_ellipse(mat)
    emap = exterior_map(e)
    contained = _support_inside(mat, emap) <= _CONTAINMENT_TOL
    curves = (None, None, None)
    dist0 = signed_margin(e, 0.0)
    if contained and dist0 > 0:  # 0 outside the shape
        phi0 = abs(complex(emap.phi(0.0 + 0j)))
        polys = faber_polynomials(emap, mm)
        f_at_0 = np.array([abs(p[0]) for p in polys])
        idx = np.arange(mm + 1, dtype=float)
        gmres_faber = np.minimum(1.0, 2.0 / np.maximum(f_at_0, 1e-300))
        gmres_asym = (2.0 + 1.0 / phi0) / phi0 ** idx
        fom_curve = 4.0 / (phi0 ** idx) / dist0
        curves = (gmres_faber, gmres_asym, fom_curve)

    try:
        lens = lens_asymptotic_factor(mat)
    except ValueError:  # A + A* is not positive definite
        lens = None

    return GmresFomResult(shape=e, contained=contained, gmres_iterates=gmres_x,
                          residual_ratios=np.asarray(resid),
                          fom_iterates=fom_x,
                          fom_errors=np.asarray(fom_err),
                          fom_skipped=tuple(skipped),
                          gmres_faber=curves[0], gmres_asym=curves[1],
                          fom_curve=curves[2], lens_factor=lens)

