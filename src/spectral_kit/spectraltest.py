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
    _eval_rational_guarded,
    _pole_guard,
    as_matrix,
    eigenvalues,
    eval_rational,
    format_complex,
    op_norm,
)
from .numrange import _herm_parts, _polish_peaks

_CERT_TOL = 1e-9


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

    lower is the best ratio ||f(A)|| / ||f||_X found; upper, when present,
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
    the refined sup is never below the grid maximum.
    """

    def __init__(self, x: Shape, n: int = 4096):
        comps = x.boundary_curves()
        self.comps = None
        if comps is None:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncatedBoundary)
                self.fine = boundary_sample(x, 4 * n)
                self.coarse = boundary_sample(x, n)
            return
        self.comps = []
        for lo, hi, mp, periodic in comps:
            m = max(64, n // len(comps))
            ts = np.linspace(lo, hi, m, endpoint=not periodic)
            self.comps.append((mp, periodic, ts, mp(ts)))

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
        grid_best, peaks = grid
        if self.comps is None:
            fine, coarse = peaks
            return grid_best, abs(fine - coarse) / max(grid_best, 1e-300)
        best = 0.0
        for (mp, periodic, ts, _), (k, peak) in zip(self.comps, peaks):
            _, refined = _polish_peaks(lambda t: np.abs(f(mp(t))), ts, [ts[k]], [peak],
                                       periodic)
            best = max(best, float(refined[0]))
        return best, abs(best - grid_best) / max(best, 1e-300)


def sup_on_boundary(f, x: Shape):
    """sup |f| over the boundary of a shape: dense grid + golden refinement.

    Returns (value, relative accuracy estimate).  Shapes without a smooth
    parameterization (intersections) fall back to dense sampling at 16384
    points; the accuracy estimate then compares against 4096 points.
    """
    sampler = _BoundarySampler(x)
    return sampler.refine(f, sampler.grid(f))


# ---------------------------------------------------------------------------
# rational families for K lower bounds

def _interior_mobius(x: Shape):
    # x.interior_mobius(); the bench tracer (bench/tracing.py) calls this name
    return x.interior_mobius()


def _blaschke_through(mobius, zeros) -> RationalFunction:
    # B(M(z)) assembled factor by factor: (M - z0)/(1 - conj(z0) M)
    a, b, c, d = mobius
    num = np.array([1.0 + 0j])
    den = np.array([1.0 + 0j])
    for z0 in np.atleast_1d(np.asarray(zeros, dtype=complex)):
        num = np.convolve(num, np.array([b - z0 * d, a - z0 * c]))
        den = np.convolve(den, np.array([d - np.conj(z0) * b, c - np.conj(z0) * a]))
    return RationalFunction(num=tuple(num), den=tuple(den))


def annulus_extremal_pair(big_r: float):
    """The two annulus ratio maximizers: z - 1/z and g(z) - g(1/z).

    Here g(z) = R(z-1)/(R^2 - z); the second function simplifies to
    R(R^2-1)(z^2-1) / (-R^2 z^2 + (R^4+1) z - R^2), poles R^2 and 1/R^2.
    """
    r = float(big_r)
    f1 = RationalFunction(num=(-1.0, 0.0, 1.0), den=(0.0, 1.0))
    lead = r * (r ** 2 - 1.0)
    f2 = RationalFunction(num=(-lead, 0.0, lead),
                          den=(-r ** 2, r ** 4 + 1.0, -r ** 2))
    return f1, f2


def _random_rational(rng, center: complex, scale: float, x: Shape) -> Optional[RationalFunction]:
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
    return RationalFunction(num=tuple(num), den=tuple(den))


def kratio_estimate(a, x: Shape, budget: int = 2000, seed: int = 0) -> KEstimate:
    """Best ratio ||f(A)|| / ||f||_X over structured rational families.

    Fixed family: constants, the identity, the annulus extremal pair, and
    the shape's interior Moebius map when X is a generalized disk.  The
    randomized part (seeded, deterministic) explores Blaschke products of
    degree <= 6 through that Moebius map and random rationals with poles
    kept a margin away from X.  On an unbounded X only candidates bounded
    at infinity enter (numerator degree <= denominator degree, so not the
    identity).  Refuses when the spectrum touches X's boundary.

    The boundary grid is sampled once per call.  A candidate whose ratio
    against its grid maximum already fails to beat the running lower bound
    skips the golden refinement of its sup: the refined sup is never below
    the grid maximum, so the result is the same as refining every
    candidate.
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

    sampler = _BoundarySampler(x)
    guard = _pole_guard(m)
    lower = 0.0
    best_f: Optional[RationalFunction] = None
    best_acc = 0.0

    def consider(f: RationalFunction):
        nonlocal lower, best_f, best_acc
        if f is None or (not x.is_bounded and len(f.num) > len(f.den)):
            return
        poles = f.poles()
        if poles.size and min(signed_margin(x, p) for p in poles) <= 1e-9:
            return
        try:
            fa = _eval_rational_guarded(f, m, guard, poles)
        except ValueError:
            return
        nrm = op_norm(fa)
        grid = sampler.grid(f)
        # the refined sup is at least the grid maximum, so a candidate whose
        # grid ratio cannot beat lower cannot win after refinement either
        if grid[0] > 1e-300 and nrm / grid[0] <= lower:
            return
        sup, acc = sampler.refine(f, grid)
        if not sup > 1e-300:
            return
        ratio = nrm / sup
        if ratio > lower:
            lower, best_f, best_acc = float(ratio), f, float(acc)

    consider(RationalFunction.from_poly([1.0]))
    consider(RationalFunction.from_poly([0.0, 1.0]))
    if isinstance(x, Annulus):
        f1, f2 = annulus_extremal_pair(x.big_r)
        consider(f1)
        consider(f2)
    mobius = x.interior_mobius()
    if mobius is not None:
        consider(_blaschke_through(mobius, [0.0]))

    rng = np.random.default_rng(seed)
    for k in range(budget):
        if mobius is not None and k % 2 == 0:
            deg = int(rng.integers(1, 7))
            zeros = 0.95 * np.sqrt(rng.random(deg)) * np.exp(
                2j * np.pi * rng.random(deg))
            consider(_blaschke_through(mobius, zeros))
        else:
            consider(_random_rational(rng, center, scale, x))

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
