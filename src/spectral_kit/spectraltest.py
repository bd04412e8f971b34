"""Spectral-set certificates and K-constant estimation.

Certificates decide the generalized-disk criteria (disk / exterior disk /
half-plane) with explicit margins and extremal witnesses.  K-spectral lower
bounds come from maximizing ||f(A)|| / ||f||_X over structured rational
families; the known extremal functions are hard-coded so tight ratios are
always hit, and randomized exploration is fully seeded.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domains import (
    Annulus,
    Shape,
    TruncatedBoundary,
    boundary_sample,
    kbound,
    signed_margin,
)
from .matrixcore import (
    RationalFunction,
    _horner,
    _pole_guard,
    as_matrix,
    eigenvalues,
    eval_rational,
    format_complex,
    op_norm,
)
from .numrange import _herm_parts, _polish_peaks

_CERT_TOL = 1e-9
# kratio_estimate admits a candidate's ratio only when its estimated
# relative rounding error (_ratio_error) is at most this
_RATIO_TOL = 1e-8
_UNIT = np.finfo(float).eps / 2.0
# byte cap on one stacked block of kratio_estimate candidates, (rows, n, n)
# matrices or (rows, points) boundary values: budget 2000 at n = 256 would
# otherwise stack 2 GB
_STACK_BYTES = 1 << 23


@dataclass(frozen=True)
class Certificate:
    """Decision with a signed margin (positive = satisfied with slack)."""

    claim: str
    holds: bool
    margin: float
    witness: object = None
    tol: float = _CERT_TOL


@dataclass(frozen=True)
class KEstimate:
    """Lower bound for the K-spectral constant of a shape.

    lower is the best ratio ||f(A)|| / ||f||_X found among the candidates
    whose ratio is trusted to ``_RATIO_TOL``; upper, when present,
    is the catalog bound; sup_accuracy is the estimated relative error of
    the boundary-sup evaluation for the winning function.
    """

    shape: Shape
    lower: float
    upper: Optional[float]
    best_function: RationalFunction
    sup_accuracy: float


def disk_spectral(a, center: complex, radius: float) -> Certificate:
    """Is the disk |z - center| <= radius a spectral set for A?

    Equivalent to ||A - center*I|| <= radius; the witness is a maximizing
    right singular vector of A - center*I.
    """
    m = as_matrix(a)
    if not radius > 0:
        raise ValueError("radius must be positive")
    shifted = m - complex(center) * np.eye(m.shape[0])
    _, s, vh = np.linalg.svd(shifted)
    margin = float(radius - s[0])
    return Certificate(
        claim=f"disk({format_complex(complex(center))}, {radius:g}) spectral",
        holds=margin >= -_CERT_TOL,
        margin=margin,
        witness=vh[0].conj(),
    )


def exterior_disk_spectral(a, center: complex, radius: float) -> Certificate:
    """Is { |z - center| >= radius } a spectral set for A?

    Equivalent to ||(A - center*I)^{-1}|| <= 1/radius, i.e. the smallest
    singular value of A - center*I is at least radius; the witness is a
    minimizing right singular vector.
    """
    m = as_matrix(a)
    if not radius > 0:
        raise ValueError("radius must be positive")
    scale = max(1.0, float(np.linalg.norm(m, 2)))
    if np.min(np.abs(eigenvalues(m) - complex(center))) <= 1e-12 * scale:
        raise ValueError("center is an eigenvalue of A")
    shifted = m - complex(center) * np.eye(m.shape[0])
    _, s, vh = np.linalg.svd(shifted)
    margin = float(s[-1] - radius)
    return Certificate(
        claim=f"exterior disk({format_complex(complex(center))}, {radius:g}) spectral",
        holds=margin >= -_CERT_TOL,
        margin=margin,
        witness=vh[-1].conj(),
    )


def halfplane_spectral(a, angle: float, offset: float) -> Certificate:
    """Does the half-plane Re(e^{-i*angle} z) <= offset contain W(A)?

    Decided through the support value p(angle); cross-checked against the
    Moebius (Cayley) criterion ||(B-I)(B+I)^{-1}|| <= 1 for B = offset*I -
    e^{-i*angle} A whenever -1 is not an eigenvalue of B.  The two criteria
    must agree away from the decision boundary.
    """
    m = as_matrix(a)
    vals, vecs = np.linalg.eigh(_herm_parts(m, float(angle)))
    margin = float(offset) - float(vals[-1])
    holds = margin >= -_CERT_TOL
    b = float(offset) * np.eye(m.shape[0]) - np.exp(-1j * float(angle)) * m
    scale = 1.0 + abs(offset) + float(np.linalg.norm(m, 2))
    if np.min(np.abs(eigenvalues(b) + 1.0)) > 1e-9 * scale:
        cayley = (b - np.eye(len(b))) @ np.linalg.inv(b + np.eye(len(b)))
        cayley_holds = op_norm(cayley) <= 1.0 + _CERT_TOL
        if cayley_holds != holds and abs(margin) > 1e-7 * scale:
            raise RuntimeError(
                "support-function and Cayley half-plane criteria disagree")
    return Certificate(
        claim=f"half-plane angle={angle:g} offset={offset:g} contains W(A)",
        holds=holds,
        margin=margin,
        witness=vecs[:, -1],
    )


@dataclass(frozen=True)
class StructureReport:
    labels: tuple
    minimal_sets: dict


def classify_structure(a) -> StructureReport:
    """Detect {normal, hermitian, unitary} and report minimal spectral sets.

    Normal matrices have their eigenvalue set as minimal spectral set,
    Hermitian ones the real segment hull, unitary ones the unit circle.
    """
    m = as_matrix(a)
    nrm = float(np.linalg.norm(m, 2))
    labels = []
    sets = {}
    if np.linalg.norm(m @ m.conj().T - m.conj().T @ m, 2) <= 1e-10 * max(nrm ** 2, 1e-300):
        labels.append("normal")
        sets["normal"] = tuple(sorted(eigenvalues(m), key=lambda z: (z.real, z.imag)))
    if np.linalg.norm(m - m.conj().T, 2) <= 1e-10 * max(nrm, 1e-300):
        labels.append("hermitian")
        ev = np.linalg.eigvalsh(m)
        sets["hermitian"] = (float(ev[0]), float(ev[-1]))
    if np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0]), 2) <= 1e-10:
        labels.append("unitary")
        sets["unitary"] = "unit circle"
    return StructureReport(labels=tuple(labels), minimal_sets=sets)


# ---------------------------------------------------------------------------
# sup-norm of a rational function on the boundary of a shape

class _BoundarySampler:
    """One shape's boundary grid, built once for many sup |f| queries.

    Holds each boundary curve's parameter grid and its mapped points, or the
    4n- and n-point boundary samples of a shape with no parameterization.
    grid(f) samples |f| and returns (grid maximum, per-component peaks);
    refine(f, grid) polishes each peak (see ``numrange._polish_peaks``), so
    the refined sup is never below the grid maximum.  sub_grid bounds the
    grid maximum of many candidates from below at once.
    """

    def __init__(self, x: Shape, n: int = 4096):
        comps = x.boundary_curves()
        self.comps = None
        if comps is None:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncatedBoundary)
                self.fine = boundary_sample(x, 4 * n)
                self.coarse = boundary_sample(x, n)
            grids = [self.fine, self.coarse]
            self.sub = self.coarse[:: max(1, n // 256)].copy()
        else:
            self.comps = []
            for lo, hi, mp, periodic in comps:
                m = max(64, n // len(comps))
                ts = np.linspace(lo, hi, m, endpoint=not periodic)
                self.comps.append((mp, periodic, ts, mp(ts)))
            grids = [pts for *_, pts in self.comps]
            self.sub = np.concatenate([pts[:: max(1, len(pts) // 256)] for pts in grids])
        self.reach = max(1.0, max(float(np.max(np.abs(pts))) for pts in grids))
        self.points = np.concatenate(grids)  # every point grid(f) samples

    def grid(self, f):
        if self.comps is None:
            fine = np.max(np.abs(f(self.fine)))
            coarse = np.max(np.abs(f(self.coarse)))
            return float(max(fine, coarse)), (fine, coarse)
        grid_best = 0.0
        peaks = []
        for *_, pts in self.comps:
            vals = np.abs(f(pts))
            k = int(np.argmax(vals))
            grid_best = max(grid_best, float(vals[k]))
            peaks.append((k, float(vals[k])))
        return grid_best, peaks

    def refine(self, f, grid):
        """(sup, accuracy estimate, the refined peak points)."""
        grid_best, peaks = grid
        if self.comps is None:
            fine, coarse = peaks
            return grid_best, abs(fine - coarse) / max(grid_best, 1e-300), np.empty(0, complex)
        best = 0.0
        points = []
        for (mp, periodic, ts, _), (k, peak) in zip(self.comps, peaks):
            t, refined = _polish_peaks(lambda t: np.abs(f(mp(t))), ts, [ts[k]], [peak],
                                       periodic)
            best = max(best, float(refined[0]))
            points.append(mp(t))
        return best, abs(best - grid_best) / max(best, 1e-300), np.concatenate(points)

    def sub_grid(self, num, den) -> np.ndarray:
        """max |p/q| over about 256 points of each grid, one candidate per row.

        num and den hold each candidate's ascending coefficients, zero-padded
        on the high side.  The points are every k-th point of each
        component's grid (of the n-point sample for a shape with no
        parameterization), evaluated elementwise as f(pts) evaluates them,
        so a row's maximum never exceeds grid(f)'s unless the grid holds a
        NaN.  A NaN needs p = q = 0 at a grid point, a pole on the boundary,
        which kratio_estimate's pole margin excludes, or an overflow: a row
        whose sum |c_k| R^k (R the largest |z| on the grid, at least 1)
        reaches 1e300 could overflow, and reads nan.
        """
        vals = np.abs(_horner_at(num, self.sub) / _horner_at(den, self.sub)).max(axis=1)
        powers = self.reach ** np.arange(max(num.shape[1], den.shape[1]))
        safe = ((np.abs(num) @ powers[:num.shape[1]] < 1e300)
                & (np.abs(den) @ powers[:den.shape[1]] < 1e300))
        return np.where(safe, vals, np.nan)


def _horner_at(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    # np.polyval's Horner steps for each row of ascending coefficients at the
    # points z, shape (rows, len(z)); high-side zero padding keeps y = +0
    y = np.zeros((len(coeffs), len(z)), dtype=complex)
    for ck in coeffs[:, ::-1].T:
        y = y * z + ck[:, None]
    return y


def _horner_error(coeffs, z: np.ndarray):
    # (p(z), a bound on its rounding error) for ascending coefficients by
    # Horner's rule with its running error bound (Higham, Accuracy and
    # Stability of Numerical Algorithms, 2nd ed., section 5.1), taken twice
    # for complex data: a complex product errs by up to sqrt(2) gamma_2
    # where a real one errs by u (section 3.6)
    coeffs = np.asarray(coeffs, dtype=complex)
    az = np.abs(z)
    y = np.full(z.shape, coeffs[-1])
    ay = np.abs(y)
    mu = ay / 2.0
    for ck in coeffs[-2::-1]:
        y *= z
        y += ck
        ay = np.abs(y)
        mu *= az
        mu += ay
    return y, 2.0 * _UNIT * (2.0 * mu - ay)


def _tilde_at(coeffs, t: float) -> float:
    # sum |c_k| t^k by Horner's rule (the inf of an overflow is kept)
    acc = 0.0
    for ck in np.abs(np.asarray(coeffs, dtype=complex))[::-1]:
        acc = acc * t + ck
    return float(acc)


def _ratio_error(f, m: np.ndarray, a_norm: float, nrm: float, sup: float,
                 points: np.ndarray) -> float:
    """Estimated relative rounding error of ``nrm / sup`` for f = p/q.

    nrm is ||f(A)||_2 from the stacked Horner and solve, and sup the
    boundary maximum of |f| over points (every grid point and refined peak
    it was taken over).  The sup errs by at most the largest error of |f|
    over those points, each from the running error bounds e_p, e_q of
    Horner's rule: (e_p + |f| e_q) / |q|.  ||f(A)|| errs relatively by at
    most ||q(A)^-1|| (e_P / ||f(A)|| + e_Q + gamma ||q(A)||), with the
    normwise Horner bounds e_P = gamma p~(||A||), e_Q = gamma q~(||A||)
    (Higham, Functions of Matrices, section 4.2; p~ has coefficients |c_k|)
    and gamma = 2 (d + 1) n u, the last term the LU solve's backward error.
    A non-finite estimate reads inf.
    """
    n = m.shape[0]
    with np.errstate(all="ignore"):
        p, e_p = _horner_error(f.num, points)
        q, e_q = _horner_error(f.den, points)
        aq = np.abs(q)
        sup_err = float(np.max((e_p + np.abs(p) / aq * e_q) / aq)) / sup
        gamma = 2.0 * max(len(f.num), len(f.den)) * n * _UNIT
        sv = np.linalg.svd(_horner(np.asarray([f.den], dtype=complex), m)[0], compute_uv=False)
        mat_err = gamma * (_tilde_at(f.num, a_norm) / nrm + _tilde_at(f.den, a_norm)
                           + float(sv[0])) / float(sv[-1])
        err = sup_err + mat_err
    return err if np.isfinite(err) else np.inf


def sup_on_boundary(f, x: Shape):
    """sup |f| over the boundary of a shape: dense grid + zoom refinement.

    Returns (value, relative accuracy estimate).  Shapes without a smooth
    parameterization (intersections) fall back to dense sampling at 16384
    points; the accuracy estimate then compares against 4096 points.
    """
    sampler = _BoundarySampler(x)
    sup, acc, _ = sampler.refine(f, sampler.grid(f))
    return sup, acc


# ---------------------------------------------------------------------------
# rational families for K lower bounds

def _interior_mobius(x: Shape):
    # x.interior_mobius(); the bench tracer (bench/tracing.py) calls this name
    return x.interior_mobius()


def _blaschke_through(mobius, zeros) -> RationalFunction:
    # B(M(z)) assembled factor by factor: (M - z0)/(1 - conj(z0) M); each
    # factor's pole M^{-1}(1/conj(z0)) is the root of its den factor, kept
    # where that factor is linear (a constant one adds no root to den)
    a, b, c, d = mobius
    num = np.array([1.0 + 0j])
    den = np.array([1.0 + 0j])
    poles = []
    for z0 in np.atleast_1d(np.asarray(zeros, dtype=complex)):
        num = np.convolve(num, np.array([b - z0 * d, a - z0 * c]))
        lin = np.array([d - np.conj(z0) * b, c - np.conj(z0) * a])
        den = np.convolve(den, lin)
        if lin[1] != 0:
            poles.append(-lin[0] / lin[1])
    return RationalFunction._with_poles(tuple(num), tuple(den), poles)


def annulus_extremal_pair(big_r: float):
    """The two annulus ratio maximizers: z - 1/z and g(z) - g(1/z).

    Here g(z) = R(z-1)/(R^2 - z); the second function simplifies to
    R(R^2-1)(z^2-1) / (-R^2 z^2 + (R^4+1) z - R^2), poles R^2 and 1/R^2.
    """
    r = float(big_r)
    f1 = RationalFunction._with_poles((-1.0, 0.0, 1.0), (0.0, 1.0), [0.0])
    lead = r * (r ** 2 - 1.0)
    f2 = RationalFunction._with_poles((-lead, 0.0, lead), (-r ** 2, r ** 4 + 1.0, -r ** 2),
                                      [r ** 2, 1.0 / r ** 2])
    return f1, f2


def _random_rational(rng, center: complex, scale: float, x: Shape) -> RationalFunction:
    n_poles = int(rng.integers(0, 4))
    poles = []
    for _ in range(n_poles):
        for _ in range(50):
            p = center + scale * (1.5 + 2.0 * rng.random()) * np.exp(
                2j * np.pi * rng.random())
            if signed_margin(x, p) > 0.1 * scale:
                poles.append(p)
                break
    deg = int(rng.integers(0, 5))
    num = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    den = np.array([1.0 + 0j])
    for p in poles:
        den = np.convolve(den, np.array([-p, 1.0]))
    return RationalFunction._with_poles(tuple(num), tuple(den), poles)


def _candidate_stream(x: Shape, budget: int, seed: int, center: complex,
                      scale: float) -> list:
    # kratio_estimate's candidates in order: the fixed family, then `budget`
    # seeded Blaschke products (through the interior Moebius map) and random
    # rationals
    fs = [RationalFunction.from_poly([1.0]), RationalFunction.from_poly([0.0, 1.0])]
    if isinstance(x, Annulus):
        fs.extend(annulus_extremal_pair(x.big_r))
    mobius = x.interior_mobius()
    if mobius is not None:
        fs.append(_blaschke_through(mobius, [0.0]))
    rng = np.random.default_rng(seed)
    for k in range(budget):
        if mobius is not None and k % 2 == 0:
            deg = int(rng.integers(1, 7))
            zeros = 0.95 * np.sqrt(rng.random(deg)) * np.exp(
                2j * np.pi * rng.random(deg))
            fs.append(_blaschke_through(mobius, zeros))
        else:
            fs.append(_random_rational(rng, center, scale, x))
    return fs


def _padded(rows) -> np.ndarray:
    # coefficient tuples as one array, zero-padded on the high side
    out = np.zeros((len(rows), max(map(len, rows))), dtype=complex)
    for i, r in enumerate(rows):
        out[i, :len(r)] = r
    return out


def _stacked_norms(num: np.ndarray, den: np.ndarray, m: np.ndarray) -> list:
    # ||p(A) q(A)^{-1}||_2 for each row of num and den, None where q(A) is
    # singular or f(A) overflows; each matrix step is the per-matrix call
    # applied to the stack
    pa, qa = _horner(num, m), _horner(den, m)
    try:
        fa = np.linalg.solve(qa, pa)
        ok = np.ones(len(fa), dtype=bool)
    except np.linalg.LinAlgError:
        # one singular q(A) fails the whole stack: solve one at a time
        fa, ok = np.empty_like(pa), np.zeros(len(pa), dtype=bool)
        for i in range(len(pa)):
            try:
                fa[i], ok[i] = np.linalg.solve(qa[i], pa[i]), True
            except np.linalg.LinAlgError:
                pass
    ok &= np.isfinite(fa).all(axis=(1, 2))
    norms = [None] * len(ok)
    for i, nrm in zip(np.flatnonzero(ok), np.linalg.svd(fa[ok], compute_uv=False)[:, 0].tolist()):
        norms[i] = nrm
    return norms


def _poles_clear(x: Shape, poles: list, guard) -> np.ndarray:
    # per candidate (its poles one array of the list): True unless a pole
    # lies within 1e-9 of X by signed margin, or on the spectrum by
    # eval_rational's guard; one margin call over all the poles, and the
    # pole-to-eigenvalue distances in blocks of at most _STACK_BYTES
    counts = np.array([len(p) for p in poles], dtype=int)
    clear = np.ones(len(poles), dtype=bool)
    if not counts.sum():
        return clear
    flat = np.concatenate(poles)
    bad = x.margin(flat) <= 1e-9
    eigs, radius = guard
    step = max(1, _STACK_BYTES // (16 * len(eigs)))
    for at in range(0, len(flat), step):
        block = flat[at:at + step]
        bad[at:at + step] |= np.abs(block[:, None] - eigs[None, :]).min(axis=1) <= radius
    clear[np.repeat(np.arange(len(poles)), counts)[bad]] = False
    return clear


def kratio_estimate(a, x: Shape, budget: int = 2000, seed: int = 0) -> KEstimate:
    """Best ratio ||f(A)|| / ||f||_X over structured rational families.

    Fixed family: constants, the identity, the annulus extremal pair, and
    the shape's interior Moebius map when X is a generalized disk.  The
    randomized part (seeded, deterministic) explores Blaschke products of
    degree <= 6 through that Moebius map and random rationals with poles
    kept a margin away from X.  On an unbounded X only candidates bounded
    at infinity enter (numerator degree <= denominator degree, so not the
    identity).  Refuses when the spectrum touches X's boundary.

    The whole candidate stream is drawn first, then filtered: the degree
    rule, finite coefficients, and one stacked test of every candidate's
    poles (``_poles_clear``): each pole's signed margin from X must exceed
    1e-9, and no pole may lie within ``eval_rational``'s guard radius of
    the spectrum.  The candidates carry the poles they were built with
    (``RationalFunction.poles``), so no denominator is rooted; they are
    still evaluated from their coefficients.  p(A) and q(A) of the
    candidates left are one stacked Horner
    (coefficients zero-padded on the high side), f(A) one stacked solve and
    ||f(A)||_2 one stacked SVD, in blocks of at most ``_STACK_BYTES``; a
    block with a singular q(A) is solved one candidate at a time, and the
    singular ones and those whose f(A) is not finite are skipped.

    The candidates are then taken in stream order against the running
    lower bound.  The boundary grid is sampled once per call.  A candidate
    is skipped when its ratio against its maximum on a sub-grid of about
    256 points per component (``_BoundarySampler.sub_grid``, one stacked
    evaluation per block) fails to beat the lower bound: those points are
    a subset of the full grid, evaluated the same way, and division is
    monotone, so the full grid would skip it too (a candidate that could
    overflow on the grid always takes the full grid).  Otherwise the full
    grid is sampled, and a candidate whose ratio against the grid maximum
    fails skips the zoom refinement of its sup: the refined sup is never
    below the grid maximum.  The result is the same as refining every
    candidate.

    A candidate whose ratio beats the lower bound raises it only when the
    ratio can be trusted: its estimated relative rounding error
    (``_ratio_error``: running error bounds of Horner's rule for p and q
    on every grid point and refined peak, and normwise bounds for p(A),
    q(A) and the solve) must be at most ``_RATIO_TOL`` = 1e-8.  On a
    small shape away from 0 the expanded den can be so ill-conditioned
    that both ||f(A)|| and the sup are noise; such a candidate is skipped.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    m = as_matrix(a)
    worst = max(signed_margin(x, ev) for ev in eigenvalues(m))
    if worst > -1e-9:
        raise ValueError("spectrum of A must lie in the interior of X")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncatedBoundary)
        pts = boundary_sample(x, 256)
    center = complex(np.mean(pts))
    scale = float(np.max(np.abs(pts - center))) or 1.0

    fs = [f for f in _candidate_stream(x, budget, seed, center, scale)
          if (x.is_bounded or len(f.num) <= len(f.den))
          and np.isfinite(f.num).all() and np.isfinite(f.den).all()]
    live = [f for f, ok in zip(fs, _poles_clear(x, [f.poles() for f in fs], _pole_guard(m)))
            if ok]

    sampler = _BoundarySampler(x)
    a_norm = float(np.linalg.norm(m, 2))
    lower = 0.0
    best_f: Optional[RationalFunction] = None
    best_acc = 0.0
    n = m.shape[0]
    step = max(1, _STACK_BYTES // (16 * max(n * n, len(sampler.sub))))
    # overflow is expected here: its norm reads None (skipped below) and its
    # sub-grid maximum nan (the full grid decides); so is a den that rounds
    # to 0 at a grid point of a small shape away from 0, whose sup then
    # reads inf or nan and is skipped
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for at in range(0, len(live), step):
            block = live[at:at + step]
            num, den = _padded([f.num for f in block]), _padded([f.den for f in block])
            subs = sampler.sub_grid(num, den).tolist()
            norms = _stacked_norms(num, den, m)
            for f, nrm, sub in zip(block, norms, subs):
                # sub never exceeds grid(f)[0] (nan where that is not shown), so
                # the grid test below would skip f too
                if nrm is None or (1e-300 < sub < np.inf and nrm / sub <= lower):
                    continue
                grid = sampler.grid(f)
                if grid[0] > 1e-300 and nrm / grid[0] <= lower:
                    continue
                sup, acc, peaks = sampler.refine(f, grid)
                if not sup > 1e-300:
                    continue
                ratio = nrm / sup
                if ratio > lower and _ratio_error(f, m, a_norm, nrm, sup, np.concatenate(
                        [sampler.points, peaks])) <= _RATIO_TOL:
                    lower, best_f, best_acc = float(ratio), f, float(acc)

    try:
        upper = kbound(x, context=m).value
    except ValueError:
        upper = None
    return KEstimate(shape=x, lower=lower, upper=upper,
                     best_function=best_f, sup_accuracy=best_acc)


# ---------------------------------------------------------------------------
# von Neumann fuzzing

def _matrix_text(m: np.ndarray) -> list:
    return [[format_complex(v) for v in row] for row in m]


def vn_fuzz(trials: int = 1000, n_max: int = 16, degree_max: int = 5,
            seed: int = 0) -> Certificate:
    """Random contractions vs random Blaschke products: ||f(A)|| <= 1 check.

    Contractions are complex Ginibre matrices rescaled to norm 1 - 1e-6;
    the worst observed (A, f) pair is serialized in the witness for replay.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    worst = -np.inf
    worst_pair = None
    violations = 0
    for k in range(trials):
        n = int(rng.integers(1, n_max + 1))
        g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        nrm = float(np.linalg.norm(g, 2))
        if nrm == 0.0:
            continue
        a = g * ((1.0 - 1e-6) / nrm)
        deg = int(rng.integers(0, degree_max + 1))
        zeros = 0.95 * np.sqrt(rng.random(deg)) * np.exp(2j * np.pi * rng.random(deg))
        phase = np.exp(2j * np.pi * rng.random())
        f = RationalFunction.blaschke(zeros, phase)
        val = op_norm(eval_rational(f, a))
        if val > worst:
            worst = val
            worst_pair = {"trial": k, "matrix": _matrix_text(a),
                          "function": f.to_text(), "norm": float(val)}
        if val > 1.0 + 1e-8:
            violations += 1
    return Certificate(
        claim=f"von Neumann bound over {trials} random contractions",
        holds=violations == 0,
        margin=float(1.0 + 1e-8 - worst),
        witness=worst_pair,
        tol=1e-8,
    )
