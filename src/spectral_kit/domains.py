"""Planar shape catalog: membership, boundary sampling, exterior maps, K-bounds.

Shapes are immutable value objects.  The exterior maps are restricted to the
Joukowski class psi(w) = c1*w + c0 + c_{-1}/w (disks, ellipses, intervals),
which is exactly what the certified polynomial-approximation bounds need;
general conformal mapping is out of scope.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import integrate, special

from .matrixcore import as_matrix, format_complex, parse_complex
from .numrange import _golden_max

_BOUNDARY_TOL = 1e-12


class TruncatedBoundary(UserWarning):
    """Raised as a warning when an unbounded boundary is sampled on [-T, T]."""


class Shape:
    """Base class for immutable planar shapes."""

    kind = "shape"


@dataclass(frozen=True)
class Disk(Shape):
    center: complex
    radius: float
    kind = "disk"

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("disk radius must be positive")


@dataclass(frozen=True)
class ExteriorDisk(Shape):
    """Complement of an open disk: |z - center| >= radius."""

    center: complex
    radius: float
    kind = "exterior_disk"

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("disk radius must be positive")


@dataclass(frozen=True)
class HalfPlane(Shape):
    """Half-plane { z : Re(e^{-i*angle} z) <= offset }, outward normal e^{i*angle}."""

    angle: float
    offset: float
    kind = "half_plane"


@dataclass(frozen=True)
class Ellipse(Shape):
    """Filled ellipse, semi-major a >= semi-minor b > 0; use Interval for b = 0."""

    center: complex
    a: float
    b: float
    rotation: float = 0.0
    kind = "ellipse"

    def __post_init__(self):
        if not (self.a >= self.b > 0):
            raise ValueError("ellipse needs a >= b > 0 (b = 0 degenerates to Interval)")

    @property
    def eccentricity(self) -> float:
        return math.sqrt(max(0.0, 1.0 - (self.b / self.a) ** 2))


@dataclass(frozen=True)
class Interval(Shape):
    """Closed segment between two complex endpoints."""

    z1: complex
    z2: complex
    kind = "interval"

    def __post_init__(self):
        if self.z1 == self.z2:
            raise ValueError("interval endpoints must differ")


@dataclass(frozen=True)
class Annulus(Shape):
    """{ z : 1/R <= |z| <= R } with R > 1."""

    big_r: float
    kind = "annulus"

    def __post_init__(self):
        if not self.big_r > 1:
            raise ValueError("annulus requires R > 1")


@dataclass(frozen=True)
class Polygon(Shape):
    vertices: tuple
    kind = "polygon"

    def __post_init__(self):
        verts = tuple(complex(v) for v in self.vertices)
        if len(verts) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        object.__setattr__(self, "vertices", verts)

    @property
    def is_convex(self) -> bool:
        v = np.asarray(self.vertices)
        e = np.roll(v, -1) - v
        cross = np.imag(np.conj(e) * np.roll(e, -1))
        return bool(np.all(cross >= -1e-12 * np.abs(cross).max())
                    or np.all(cross <= 1e-12 * np.abs(cross).max()))


@dataclass(frozen=True)
class Intersection(Shape):
    """Intersection of generalized disks (disk / exterior disk / half-plane)."""

    members: tuple
    kind = "disk_intersection"

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("intersection needs at least one member")
        for m in members:
            if m.kind not in ("disk", "exterior_disk", "half_plane"):
                raise ValueError(f"unsupported intersection member kind {m.kind!r}")
        object.__setattr__(self, "members", members)
        if _interior_point(members) is None:
            raise ValueError("intersection has empty interior (sampled check)")

    @property
    def is_convex(self) -> bool:
        return all(m.kind != "exterior_disk" for m in self.members)


def ellipse(center, a: float, b: float, rotation: float = 0.0) -> Shape:
    """Ellipse factory; a degenerate minor axis (b = 0) collapses to an Interval."""
    if b == 0:
        u = complex(a * np.exp(1j * rotation))
        return Interval(complex(center) - u, complex(center) + u)
    return Ellipse(complex(center), float(a), float(b), float(rotation))


def _interior_point(members, n_grid: int = 48) -> Optional[complex]:
    # sampled nonempty-interior check: grid over a heuristic bounding box
    boxes = [(m.center, 2.0 * m.radius) for m in members if m.kind == "disk"]
    if boxes:
        centers = np.array([b[0] for b in boxes])
        spans = np.array([b[1] for b in boxes])
        lo_x = (centers.real - spans).min()
        hi_x = (centers.real + spans).max()
        lo_y = (centers.imag - spans).min()
        hi_y = (centers.imag + spans).max()
    else:
        scale = 10.0 * (1.0 + max(abs(getattr(m, "offset", 0.0))
                                  + abs(getattr(m, "radius", 0.0))
                                  + abs(complex(getattr(m, "center", 0.0)))
                                  for m in members))
        lo_x, hi_x, lo_y, hi_y = -scale, scale, -scale, scale
    xs = np.linspace(lo_x, hi_x, n_grid)
    ys = np.linspace(lo_y, hi_y, n_grid)
    pts = (xs[:, None] + 1j * ys[None, :]).ravel()
    margin = np.max([_margin_many(m, pts) for m in members], axis=0)
    k = int(np.argmin(margin))
    if margin[k] < -1e-9:
        return complex(pts[k])
    return None


def _margin_many(x: Shape, z: np.ndarray) -> np.ndarray:
    # signed boundary margin, negative strictly inside; vectorized over z
    z = np.asarray(z, dtype=complex)
    if x.kind == "disk":
        return np.abs(z - x.center) - x.radius
    if x.kind == "exterior_disk":
        return x.radius - np.abs(z - x.center)
    if x.kind == "half_plane":
        return np.real(z * np.exp(-1j * x.angle)) - x.offset
    if x.kind == "ellipse":
        u = (z - x.center) * np.exp(-1j * x.rotation)
        s = np.hypot(u.real / x.a, u.imag / x.b)
        return (s - 1.0) * x.b
    if x.kind == "interval":
        return _segment_distance(z, x.z1, x.z2)
    if x.kind == "annulus":
        r = np.abs(z)
        return np.maximum(r - x.big_r, 1.0 / x.big_r - r)
    if x.kind == "polygon":
        return _polygon_margin(x, z)
    if x.kind == "disk_intersection":
        return np.max([_margin_many(m, z) for m in x.members], axis=0)
    raise ValueError(f"unknown shape kind {x.kind!r}")


def _segment_distance(z: np.ndarray, z1: complex, z2: complex) -> np.ndarray:
    d = z2 - z1
    t = np.clip(np.real((z - z1) * np.conj(d)) / abs(d) ** 2, 0.0, 1.0)
    return np.abs(z - (z1 + t * d))


def _polygon_margin(x: Polygon, z: np.ndarray) -> np.ndarray:
    v = np.asarray(x.vertices)
    w = np.roll(v, -1)
    dist = np.min([_segment_distance(z, v[i], w[i]) for i in range(len(v))], axis=0)
    # even-odd crossing count with a horizontal ray; boundary handled by dist
    zx, zy = np.real(z), np.imag(z)
    inside = np.zeros(z.shape, dtype=bool)
    for i in range(len(v)):
        x1, y1 = v[i].real, v[i].imag
        x2, y2 = w[i].real, w[i].imag
        crosses = (y1 > zy) != (y2 > zy)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = x1 + (zy - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (zx < xi)
    return np.where(inside, -dist, dist)


def contains(x: Shape, z, tol: float = _BOUNDARY_TOL) -> bool:
    """Membership test with absolute boundary tolerance (intersections conjoin)."""
    return bool(_margin_many(x, np.asarray([complex(z)]))[0] <= tol)


def signed_margin(x: Shape, z) -> float:
    """Signed boundary margin: negative strictly inside, positive outside."""
    return float(_margin_many(x, np.asarray([complex(z)]))[0])


def _arclength_params(params: np.ndarray, pts_fine: np.ndarray, n: int) -> np.ndarray:
    # equal-arclength parameter targets for a closed curve; interpolating the
    # parameter (not the position) keeps resampled points exactly on the curve
    cum = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(pts_fine)))])
    targets = np.arange(n) / n * cum[-1]
    return np.interp(targets, cum, params)


def boundary_sample(x: Shape, n: int, half_plane_range: float = 100.0) -> np.ndarray:
    """N quasi-uniform (in arclength) points on the boundary of a shape.

    Multi-component boundaries (annulus) are sampled on every component;
    the unbounded half-plane boundary is truncated to the parameter range
    [-half_plane_range, half_plane_range] and a TruncatedBoundary warning
    flags the cut.
    """
    if n < 16 and x.kind not in ("disk", "interval", "annulus"):
        raise ValueError("need at least 16 boundary samples")
    if x.kind in ("disk", "exterior_disk"):
        ang = 2.0 * np.pi * np.arange(n) / n
        return x.center + x.radius * np.exp(1j * ang)
    if x.kind == "half_plane":
        warnings.warn("half-plane boundary truncated to a finite parameter range",
                      TruncatedBoundary, stacklevel=2)
        t = np.linspace(-half_plane_range, half_plane_range, n)
        return np.exp(1j * x.angle) * (x.offset + 1j * t)
    if x.kind == "ellipse":
        def on_curve(phi):
            return x.center + np.exp(1j * x.rotation) * (x.a * np.cos(phi)
                                                         + 1j * x.b * np.sin(phi))

        phi = 2.0 * np.pi * np.arange(8193) / 8192
        return on_curve(_arclength_params(phi, on_curve(phi), n))
    if x.kind == "interval":
        return x.z1 + (x.z2 - x.z1) * np.linspace(0.0, 1.0, n)
    if x.kind == "annulus":
        n_out = n - n // 2
        n_in = n // 2
        out = x.big_r * np.exp(2j * np.pi * np.arange(n_out) / max(n_out, 1))
        inn = (1.0 / x.big_r) * np.exp(2j * np.pi * np.arange(n_in) / max(n_in, 1))
        return np.concatenate([out, inn])
    if x.kind == "polygon":
        # chord interpolation is exact on a polygon, so resample positions
        fine = np.append(np.asarray(x.vertices), x.vertices[0])
        cum = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(fine)))])
        targets = np.arange(n) / n * cum[-1]
        return (np.interp(targets, cum, fine.real)
                + 1j * np.interp(targets, cum, fine.imag))
    if x.kind == "disk_intersection":
        dense = max(1024, 8 * n)
        cloud = []
        for m in x.members:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncatedBoundary)
                pts = boundary_sample(m, dense, half_plane_range)
            others = [o for o in x.members if o is not m]
            if others:
                keep = np.max([_margin_many(o, pts) for o in others], axis=0) <= 1e-9
                pts = pts[keep]
            cloud.append(pts)
        cloud = np.concatenate(cloud)
        if cloud.size == 0:
            raise RuntimeError("no boundary points survived the intersection filter")
        idx = np.round(np.linspace(0, cloud.size - 1, n)).astype(int)
        return cloud[idx]
    raise ValueError(f"unknown shape kind {x.kind!r}")


@dataclass(frozen=True)
class ExteriorMap:
    """Joukowski-class exterior map psi(w) = c1*w + c0 + cm1/w, |w| >= 1.

    phi = psi^{-1} is evaluated by quadratic inversion on the branch
    |phi(z)| >= 1; capacity is |c1|.
    """

    c1: complex
    c0: complex
    cm1: complex

    def __post_init__(self):
        if self.c1 == 0:
            raise ValueError("leading Laurent coefficient must be nonzero")
        if abs(self.cm1) > abs(self.c1) + 1e-14:
            raise ValueError("psi is not injective on |w| > 1 (|c_-1| > |c_1|)")

    @property
    def capacity(self) -> float:
        return abs(self.c1)

    def psi(self, w):
        w = np.asarray(w, dtype=complex)
        out = self.c1 * w + self.c0
        if self.cm1 != 0:
            out = out + self.cm1 / w
        return out if out.ndim else complex(out)

    def phi(self, z):
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        if self.cm1 == 0:
            w = (z - self.c0) / self.c1
        else:
            # c1 w^2 + (c0 - z) w + cm1 = 0, stable larger-|q| factorization
            b = self.c0 - z
            disc = np.sqrt(b * b - 4.0 * self.c1 * self.cm1)
            q = np.where(np.abs(b + disc) >= np.abs(b - disc),
                         -0.5 * (b + disc), -0.5 * (b - disc))
            w1 = q / self.c1
            with np.errstate(divide="ignore", invalid="ignore"):
                w2 = np.where(q != 0, self.cm1 / np.where(q != 0, q, 1.0), np.inf)
            pick1 = np.abs(w1) > np.abs(w2) + 1e-14 * np.abs(w1)
            tie = np.abs(np.abs(w1) - np.abs(w2)) <= 1e-14 * (np.abs(w1) + 1.0)
            # on the boundary slit both roots sit on |w| = 1: prefer the upper
            # (then right) prong so phi is deterministic there
            upper = (w1.imag > w2.imag + 1e-14) | (
                (np.abs(w1.imag - w2.imag) <= 1e-14) & (w1.real >= w2.real))
            w = np.where(pick1 | (tie & upper), w1, w2)
        return complex(w[0]) if scalar else w


def exterior_map(x: Shape) -> ExteriorMap:
    """Exterior conformal map for the Joukowski class (disk/ellipse/interval)."""
    if x.kind == "disk":
        return ExteriorMap(c1=complex(x.radius), c0=complex(x.center), cm1=0j)
    if x.kind == "ellipse":
        rot = np.exp(1j * x.rotation)
        return ExteriorMap(c1=rot * (x.a + x.b) / 2.0, c0=complex(x.center),
                           cm1=rot * (x.a - x.b) / 2.0)
    if x.kind == "interval":
        c = (x.z1 + x.z2) / 2.0
        h = (x.z2 - x.z1) / 2.0
        return ExteriorMap(c1=h / 2.0, c0=complex(c), cm1=h / 2.0)
    raise ValueError(f"no finite-Laurent exterior map for kind {x.kind!r}")


# ---------------------------------------------------------------------------
# radial profiles and total variation of log r (about the centroid)

def _centroid(x: Shape) -> complex:
    if x.kind in ("disk", "ellipse"):
        return complex(x.center)
    if x.kind == "polygon":
        v = np.asarray(x.vertices)
        w = np.roll(v, -1)
        cross = v.real * w.imag - w.real * v.imag
        area = cross.sum() / 2.0
        if abs(area) < 1e-15:
            raise ValueError("degenerate polygon")
        cx = ((v.real + w.real) * cross).sum() / (6.0 * area)
        cy = ((v.imag + w.imag) * cross).sum() / (6.0 * area)
        return complex(cx, cy)
    raise ValueError(f"no radial profile for kind {x.kind!r}")


def _polygon_ray_radii(x: Polygon, omega: complex, thetas: np.ndarray) -> np.ndarray:
    v = np.asarray(x.vertices) - omega
    w = np.roll(v, -1)
    u = np.exp(1j * thetas)
    radii = np.full(thetas.shape, np.nan)
    counts = np.zeros(thetas.shape, dtype=int)
    for i in range(len(v)):
        d = w[i] - v[i]
        den = u.real * d.imag - u.imag * d.real
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (v[i].real * d.imag - v[i].imag * d.real) / den
            s = (v[i].real * u.imag - v[i].imag * u.real) / den
        hit = (np.abs(den) > 1e-15) & (t > 1e-12) & (s >= -1e-12) & (s <= 1 + 1e-12)
        fresh = hit & np.isnan(radii)
        radii[fresh] = t[fresh]
        counts[fresh] += 1
        # a second hit at a genuinely different radius means not star-shaped
        again = hit & ~fresh & (np.abs(t - radii) > 1e-9 * (1.0 + np.abs(radii)))
        counts[again] += 1
    if np.any(counts > 1):
        raise ValueError("polygon is not star-shaped about its centroid")
    if np.any(np.isnan(radii)):
        raise ValueError("centroid ray missed the polygon boundary")
    return radii


def _radial_function(x: Shape):
    omega = _centroid(x)
    if x.kind == "disk":
        return omega, lambda th: np.full(np.shape(th), float(x.radius))
    if x.kind == "ellipse":
        a, b, rot = x.a, x.b, x.rotation

        def rad(th):
            t = np.asarray(th, dtype=float) - rot
            return a * b / np.sqrt((b * np.cos(t)) ** 2 + (a * np.sin(t)) ** 2)

        return omega, rad
    if x.kind == "polygon":
        return omega, lambda th: _polygon_ray_radii(x, omega, np.atleast_1d(
            np.asarray(th, dtype=float)))
    raise ValueError(f"no radial profile for kind {x.kind!r}")


def tv_log_radius(x: Shape, n_grid: int = 4096) -> float:
    """Total variation of log r(theta) about the centroid.

    Grid scan locates the monotone pieces; the local extrema are then
    sharpened together by a lockstep golden-section search so the value is
    accurate to ~1e-10 even for boundaries with corners.
    """
    omega, rad = _radial_function(x)
    thetas = 2.0 * np.pi * np.arange(n_grid) / n_grid
    vals = np.log(np.asarray(rad(thetas), dtype=float))
    if np.ptp(vals) < 1e-14:
        return 0.0
    nxt = np.diff(np.append(vals, vals[0]))
    prev = np.roll(nxt, 1)
    is_max = ((prev > 0) & (nxt <= 0)) | ((prev >= 0) & (nxt < 0))
    is_min = ((prev < 0) & (nxt >= 0)) | ((prev <= 0) & (nxt > 0))
    ks = np.flatnonzero(is_max | is_min)
    if not ks.size:
        return 0.0
    sign = np.where(is_max[ks], 1.0, -1.0)  # minima are maxima of -log r
    step = 2.0 * np.pi / n_grid
    _, best = _golden_max(lambda t: sign * np.log(rad(t)),
                          thetas[ks] - step, thetas[ks] + step)
    e = sign * best
    return float(np.abs(np.diff(np.append(e, e[0]))).sum())


# ---------------------------------------------------------------------------
# K-spectral bound catalog

_K_UNIVERSAL = 11.08


@dataclass(frozen=True)
class KBound:
    """Best catalog K with its provenance label plus every applicable candidate."""

    value: float
    label: str
    candidates: tuple = field(default_factory=tuple)


def _diam_area(x: Shape):
    if x.kind == "disk":
        return 2.0 * x.radius, math.pi * x.radius ** 2
    if x.kind == "ellipse":
        return 2.0 * x.a, math.pi * x.a * x.b
    if x.kind == "polygon":
        v = np.asarray(x.vertices)
        diam = float(np.abs(v[:, None] - v[None, :]).max())
        w = np.roll(v, -1)
        area = abs(float((v.real * w.imag - w.real * v.imag).sum()) / 2.0)
        return diam, area
    return None


def _ellipse_perimeter(a: float, b: float) -> float:
    # scipy convention: ellipe(m) with m = e^2
    e2 = 1.0 - (b / a) ** 2
    return 4.0 * a * float(special.ellipe(e2))


def _annulus_series(big_r: float) -> float:
    total = 0.0
    powr = big_r ** 2
    for _ in range(100000):
        term = 4.0 / (powr + 1.0)
        total += term
        if term < 1e-15:
            break
        powr *= big_r ** 2
    return total


def _annulus_integral(big_r: float) -> float:
    r4 = big_r ** 4
    r2 = big_r ** 2

    def g(th):
        return math.sqrt((r4 + 2.0 * r2 * math.cos(th) + 1.0)
                         / (r4 - 2.0 * r2 * math.cos(th) + 1.0))

    # split off the peak at theta = 0, which narrows as R -> 1+
    cut = min(1.0, max(10.0 * (r2 - 1.0) / r2, 1e-3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        head, _ = integrate.quad(g, 0.0, cut, epsabs=1e-12, epsrel=1e-12, limit=400)
        tail, _ = integrate.quad(g, cut, math.pi, epsabs=1e-12, epsrel=1e-12,
                                 limit=400)
    return head + tail


def _is_convex(x: Shape) -> bool:
    if x.kind in ("disk", "half_plane", "ellipse", "interval"):
        return True
    if x.kind == "polygon":
        return x.is_convex
    if x.kind == "disk_intersection":
        return x.is_convex
    return False


def kbound(x: Shape, context=None):
    """Smallest catalog K-spectral constant for a shape, with provenance.

    Every entry presumes the shape actually is admissible for its theorem
    (for convex-shape bounds: X contains the numerical range of the operator
    in question; for generalized-disk intersections: each member individually
    a spectral set).  The optional context matrix activates the
    numerical-radius disk entry, which is the only one verified against data.

    Returns a :class:`KBound` holding the winning (value, label) and all
    applicable candidates for audit.
    """
    cands = []

    if context is not None and x.kind == "disk":
        from .numrange import numerical_radius
        a = as_matrix(context)
        w = numerical_radius(a - complex(x.center) * np.eye(a.shape[0]))
        if w <= x.radius + 1e-8:
            cands.append(("Okubo-Ando/Berger-Stampfli disk", 2.0))

    if x.kind in ("disk", "ellipse", "interval"):
        if x.kind == "interval":
            ecc = 1.0
        elif x.kind == "disk":
            ecc = 0.0
        else:
            ecc = x.eccentricity
        cands.append(("ellipse eccentricity bound",
                      2.0 + 2.0 / math.sqrt(4.0 - ecc ** 2)))

    if x.kind in ("disk", "ellipse"):
        a_axis = x.radius if x.kind == "disk" else x.a
        b_axis = x.radius if x.kind == "disk" else x.b
        ecc = 0.0 if x.kind == "disk" else x.eccentricity
        q_ecc = 1.0 - (1.0 + ecc) / 2.0 * math.sqrt(1.0 - ecc ** 2)
        r_curv = a_axis ** 2 / b_axis
        q_curv = 1.0 - _ellipse_perimeter(a_axis, b_axis) / (2.0 * math.pi * r_curv)
        q = min(q_ecc, q_curv)
        if q < 1.0:
            cands.append(("configuration constant bound", 1.0 + 2.0 / (1.0 - q)))

    if x.kind in ("disk", "ellipse", "polygon"):
        try:
            tv = tv_log_radius(x)
        except ValueError:
            tv = None
        if tv is not None:
            cands.append(("radial total-variation bound", 2.0 + math.pi + tv))

    if x.kind == "half_plane":
        cands.append(("sector/strip bound", 2.0 + 2.0 / math.sqrt(3.0)))
    if x.kind == "disk_intersection":
        if (len(x.members) == 2
                and all(m.kind == "half_plane" for m in x.members)):
            cands.append(("sector/strip bound", 2.0 + 2.0 / math.sqrt(3.0)))
        n = len(x.members)
        cands.append(("intersection of generalized disks (members assumed spectral)",
                      n + n * (n - 1) / math.sqrt(3.0)))

    if x.kind == "annulus":
        big_r = x.big_r
        cands.append(("annulus disk-pair bound",
                      2.0 + math.sqrt((big_r ** 2 + 1.0) / (big_r ** 2 - 1.0))))
        cands.append(("annulus refined disk-pair bound",
                      2.0 + (big_r + 1.0) / math.sqrt(big_r ** 2 + big_r + 1.0)))
        cands.append(("annulus series bound",
                      max(3.0, 2.0 + _annulus_series(big_r))))
        cands.append(("annulus integral bound",
                      2.0 + _annulus_integral(big_r) / math.pi))

    diam_area = _diam_area(x) if _is_convex(x) else None
    if diam_area is not None and diam_area[1] > 0:
        diam, area = diam_area
        cands.append(("diameter-area bound",
                      3.0 + (2.0 * math.pi * diam ** 2 / area) ** 3))

    if _is_convex(x):
        cands.append(("universal convex numerical-range bound", _K_UNIVERSAL))

    if not cands:
        raise ValueError(f"no catalog bound for shape kind {x.kind!r}")
    best_label, best_value = cands[0]
    for label, value in cands[1:]:
        if value < best_value - 1e-15:
            best_label, best_value = label, value
    return KBound(value=float(best_value), label=best_label,
                  candidates=tuple((lbl, float(val)) for lbl, val in cands))


# ---------------------------------------------------------------------------
# shape literals

def shape_literal(x: Shape) -> str:
    """Inverse of parse_shape."""
    fc = format_complex
    if x.kind == "disk":
        return f"disk {fc(x.center)} {x.radius:.17g}"
    if x.kind == "exterior_disk":
        return f"xdisk {fc(x.center)} {x.radius:.17g}"
    if x.kind == "half_plane":
        return f"halfplane {x.angle:.17g} {x.offset:.17g}"
    if x.kind == "ellipse":
        return f"ellipse {fc(x.center)} {x.a:.17g} {x.b:.17g} {x.rotation:.17g}"
    if x.kind == "interval":
        return f"interval {fc(x.z1)} {fc(x.z2)}"
    if x.kind == "annulus":
        return f"annulus {x.big_r:.17g}"
    if x.kind == "polygon":
        return "polygon " + " ".join(fc(v) for v in x.vertices)
    if x.kind == "disk_intersection":
        inner = " ; ".join(shape_literal(m) for m in x.members)
        return f"intersect [ {inner} ]"
    raise ValueError(f"unknown shape kind {x.kind!r}")


def parse_shape(text: str) -> Shape:
    """Parse a shape literal like "disk 0+0i 1.5" or "intersect [ ... ; ... ]"."""
    text = text.strip()
    if not text:
        raise ValueError("empty shape literal")
    head = text.split(None, 1)[0].lower()
    rest = text[len(head):].strip()
    if head == "intersect":
        if not (rest.startswith("[") and rest.endswith("]")):
            raise ValueError("intersect literal needs [ ... ] with ';' separators")
        parts = [p.strip() for p in rest[1:-1].split(";")]
        return Intersection(tuple(parse_shape(p) for p in parts if p))
    toks = rest.split()
    if head == "disk":
        return Disk(parse_complex(toks[0]), float(toks[1]))
    if head in ("xdisk", "exterior_disk"):
        return ExteriorDisk(parse_complex(toks[0]), float(toks[1]))
    if head == "halfplane":
        return HalfPlane(float(toks[0]), float(toks[1]))
    if head == "ellipse":
        rot = float(toks[3]) if len(toks) > 3 else 0.0
        return ellipse(parse_complex(toks[0]), float(toks[1]), float(toks[2]), rot)
    if head == "interval":
        return Interval(parse_complex(toks[0]), parse_complex(toks[1]))
    if head == "annulus":
        return Annulus(float(toks[0]))
    if head == "polygon":
        return Polygon(tuple(parse_complex(t) for t in toks))
    raise ValueError(f"unknown shape literal head {head!r}")
