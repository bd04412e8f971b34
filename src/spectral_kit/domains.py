"""Planar shape catalog: membership, boundary sampling, exterior maps, K-bounds.

Shapes are immutable value objects that answer their own questions.  Each
class carries its signed margin, the one parameterization of its boundary
curve(s) and the grid rule boundary_sample places points with, its
convexity, the exact total variation of log r about its centroid (a disk's
0, an ellipse's 4 log(a/b), a star polygon's sum over its vertices and the
feet of its edge normals), K-spectral catalog entries and literal.  The
module functions are one-line entry points over those methods; a question a
shape has no answer for raises ValueError from the Shape default.

The exterior maps are restricted to the Joukowski class
psi(w) = c1*w + c0 + c_{-1}/w (disks, ellipses, intervals), which is exactly
what the certified polynomial-approximation bounds need; general conformal
mapping is out of scope.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np
from scipy import integrate, special

from .matrixcore import _safe_scale, as_matrix, format_complex, parse_complex
from .numrange import numerical_radius

_BOUNDARY_TOL = 1e-12
_HALF_PLANE_RANGE = 100.0
_CONTAINMENT_TOL = 1e-8  # slack of every W(A) in X check that gates a bound


class TruncatedBoundary(UserWarning):
    """Raised as a warning when an unbounded boundary is sampled on [-T, T]."""


class Shape:
    """Base class for immutable planar shapes.

    Every method below is one question a shape answers; the versions here are
    the answers of a shape that does not support the question.
    """

    kind = "shape"
    heads = ()  # literal heads parse_shape accepts, the printed one first
    is_convex = False
    is_bounded = True
    min_samples = 16  # fewest points boundary_sample hands out

    def margin(self, z: np.ndarray) -> np.ndarray:
        """Signed boundary margin of a complex array, negative strictly inside."""
        raise ValueError(f"unknown shape kind {self.kind!r}")

    def boundary_curves(self):
        """[(lo, hi, curve, periodic)] per boundary component; None if not smooth."""
        return None

    def boundary_points(self, n: int) -> np.ndarray:
        """boundary_sample's grid rule for this shape."""
        raise ValueError(f"unknown shape kind {self.kind!r}")

    def exterior_map(self) -> "ExteriorMap":
        raise ValueError(f"no finite-Laurent exterior map for kind {self.kind!r}")

    def interior_mobius(self):
        """(a, b, c, d) with M(z) = (a z + b)/(c z + d) mapping X into the unit
        disk, for the generalized disks; None for every other shape."""
        return None

    def tv_log_radius(self) -> float:
        """Total variation of log r(theta), r the boundary radius about the centroid."""
        raise ValueError(f"no radial profile for kind {self.kind!r}")

    def kbound_candidates(self, context) -> list:
        """This shape's own (label, K) catalog entries, in catalog order."""
        return []

    def real_symmetric(self) -> bool:
        """Is the shape symmetric about the real axis (Joukowski class only)?"""
        raise ValueError("shape must be in the Joukowski class")

    def spectral_certificate(self, a):
        """The exact spectral-set test of a generalized disk; None otherwise."""
        return None

    def literal(self) -> str:
        """The literal parse_shape reads back: the head, then each field."""
        if not self.heads:
            raise ValueError(f"unknown shape kind {self.kind!r}")
        tokens = (_FIELD_CODECS[f.type][0](getattr(self, f.name)) for f in fields(self))
        return " ".join([self.heads[0], *tokens])

    @classmethod
    def from_literal(cls, head: str, rest: str) -> "Shape":
        """The shape of a literal's text after its head, one token per field."""
        toks = _tokens(head, rest, len(fields(cls)))
        return cls(*(_FIELD_CODECS[f.type][1](t) for f, t in zip(fields(cls), toks)))


# a field's literal token (format, parse), keyed by the field's annotation string
_FIELD_CODECS = {"complex": (format_complex, parse_complex),
                 "float": (lambda v: f"{v:.17g}", float)}


def _tokens(head: str, rest: str, *counts: int) -> list:
    # the tokens after a literal's head, checked against the counts it takes
    toks = rest.split()
    if len(toks) not in counts:
        raise ValueError(f"{head!r} shape literal takes {' or '.join(map(str, counts))} "
                         f"token(s) after the head, got {len(toks)}")
    return toks


@dataclass(frozen=True)
class _Round(Shape):
    """Shared by Disk and ExteriorDisk: the circle |z - center| = radius."""

    center: complex
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("disk radius must be positive")

    def _circle(self, t):
        return self.center + self.radius * np.exp(1j * t)

    def boundary_curves(self):
        return [(0.0, 2.0 * np.pi, self._circle, True)]

    def boundary_points(self, n):
        return self._circle(2.0 * np.pi * np.arange(n) / n)


@dataclass(frozen=True)
class Disk(_Round):
    kind = "disk"
    heads = ("disk",)
    is_convex = True
    min_samples = 0

    def margin(self, z):
        return np.abs(z - self.center) - self.radius

    def exterior_map(self):
        return ExteriorMap(c1=complex(self.radius), c0=complex(self.center), cm1=0j)

    def interior_mobius(self):
        return (1.0 + 0j, -complex(self.center), 0j, complex(self.radius))

    def tv_log_radius(self):
        return 0.0

    def kbound_candidates(self, context):
        cands = []
        if context is not None:
            a = as_matrix(context)
            w = numerical_radius(a - complex(self.center) * np.eye(a.shape[0]))
            if w <= self.radius + _CONTAINMENT_TOL:
                cands.append(("Okubo-Ando/Berger-Stampfli disk", 2.0))
        return (cands + _ellipse_candidates(self, self.radius, self.radius, 0.0)
                + _diameter_area(2.0 * self.radius, math.pi * self.radius ** 2))

    def real_symmetric(self):
        return abs(complex(self.center).imag) <= 1e-12 * (1 + abs(self.center))

    def spectral_certificate(self, a):
        from .spectraltest import disk_spectral
        return disk_spectral(a, self.center, self.radius)


@dataclass(frozen=True)
class ExteriorDisk(_Round):
    """Complement of an open disk: |z - center| >= radius."""

    kind = "exterior_disk"
    heads = ("xdisk", "exterior_disk")
    is_bounded = False

    def margin(self, z):
        return self.radius - np.abs(z - self.center)

    def interior_mobius(self):
        return (0j, complex(self.radius), 1.0 + 0j, -complex(self.center))

    def spectral_certificate(self, a):
        from .spectraltest import exterior_disk_spectral
        return exterior_disk_spectral(a, self.center, self.radius)


@dataclass(frozen=True)
class HalfPlane(Shape):
    """Half-plane { z : Re(e^{-i*angle} z) <= offset }, outward normal e^{i*angle}."""

    angle: float
    offset: float
    kind = "half_plane"
    heads = ("halfplane",)
    is_convex = True
    is_bounded = False

    def margin(self, z):
        return np.real(z * np.exp(-1j * self.angle)) - self.offset

    def _line(self, t):
        return np.exp(1j * self.angle) * (self.offset + 1j * t)

    def boundary_curves(self):
        return [(-_HALF_PLANE_RANGE, _HALF_PLANE_RANGE, self._line, False)]

    def boundary_points(self, n):
        warnings.warn("half-plane boundary truncated to a finite parameter range",
                      TruncatedBoundary, stacklevel=3)
        return self._line(np.linspace(-_HALF_PLANE_RANGE, _HALF_PLANE_RANGE, n))

    def interior_mobius(self):
        u = np.exp(-1j * self.angle)
        return (u, complex(1.0 - self.offset), -u, complex(1.0 + self.offset))

    def kbound_candidates(self, context):
        return [_SECTOR_STRIP]

    def spectral_certificate(self, a):
        from .spectraltest import halfplane_spectral
        return halfplane_spectral(a, self.angle, self.offset)


@dataclass(frozen=True)
class Ellipse(Shape):
    """Filled ellipse, semi-major a >= semi-minor b > 0; use Interval for b = 0."""

    center: complex
    a: float
    b: float
    rotation: float = 0.0
    kind = "ellipse"
    heads = ("ellipse",)
    is_convex = True

    def __post_init__(self):
        if not (self.a >= self.b > 0):
            raise ValueError("ellipse needs a >= b > 0 (b = 0 degenerates to Interval)")

    @property
    def eccentricity(self) -> float:
        return math.sqrt(max(0.0, 1.0 - (self.b / self.a) ** 2))

    def margin(self, z):
        u = (z - self.center) * np.exp(-1j * self.rotation)
        s = np.hypot(u.real / self.a, u.imag / self.b)
        return (s - 1.0) * self.b

    def _curve(self, t):
        return self.center + np.exp(1j * self.rotation) * (self.a * np.cos(t)
                                                           + 1j * self.b * np.sin(t))

    def boundary_curves(self):
        return [(0.0, 2.0 * np.pi, self._curve, True)]

    def boundary_points(self, n):
        phi = 2.0 * np.pi * np.arange(8193) / 8192
        return self._curve(_arclength_params(phi, self._curve(phi), n))

    def exterior_map(self):
        rot = np.exp(1j * self.rotation)
        return ExteriorMap(c1=rot * (self.a + self.b) / 2.0, c0=complex(self.center),
                           cm1=rot * (self.a - self.b) / 2.0)

    def tv_log_radius(self):
        return 4.0 * math.log(self.a / self.b)  # r goes b -> a -> b twice per turn

    def kbound_candidates(self, context):
        return (_ellipse_candidates(self, self.a, self.b, self.eccentricity)
                + _diameter_area(2.0 * self.a, math.pi * self.a * self.b))

    def real_symmetric(self):
        return (abs(complex(self.center).imag) <= 1e-12 * (1 + abs(self.center))
                and abs(np.sin(self.rotation)) <= 1e-12)

    @classmethod
    def from_literal(cls, head, rest):
        toks = _tokens(head, rest, 3, 4)
        rot = float(toks[3]) if len(toks) > 3 else 0.0
        return ellipse(parse_complex(toks[0]), float(toks[1]), float(toks[2]), rot)


@dataclass(frozen=True)
class Interval(Shape):
    """Closed segment between two complex endpoints."""

    z1: complex
    z2: complex
    kind = "interval"
    heads = ("interval",)
    is_convex = True
    min_samples = 0

    def __post_init__(self):
        if self.z1 == self.z2:
            raise ValueError("interval endpoints must differ")

    def margin(self, z):
        return _segment_distance(z, self.z1, self.z2)

    def _segment(self, t):
        return self.z1 + (self.z2 - self.z1) * t

    def boundary_curves(self):
        return [(0.0, 1.0, self._segment, False)]

    def boundary_points(self, n):
        return self._segment(np.linspace(0.0, 1.0, n))

    def exterior_map(self):
        c = (self.z1 + self.z2) / 2.0
        h = (self.z2 - self.z1) / 2.0
        return ExteriorMap(c1=h / 2.0, c0=complex(c), cm1=h / 2.0)

    def kbound_candidates(self, context):
        return [_eccentricity_bound(1.0)]

    def real_symmetric(self):
        return (abs(complex(self.z1).imag) <= 1e-12 * (1 + abs(self.z1))
                and abs(complex(self.z2).imag) <= 1e-12 * (1 + abs(self.z2)))


@dataclass(frozen=True)
class Annulus(Shape):
    """{ z : 1/R <= |z| <= R } with R > 1."""

    big_r: float
    kind = "annulus"
    heads = ("annulus",)
    min_samples = 0

    def __post_init__(self):
        if not self.big_r > 1:
            raise ValueError("annulus requires R > 1")

    def margin(self, z):
        r = np.abs(z)
        return np.maximum(r - self.big_r, 1.0 / self.big_r - r)

    def boundary_curves(self):
        return [(0.0, 2.0 * np.pi, lambda t, r=r: r * np.exp(1j * t), True)
                for r in (self.big_r, 1.0 / self.big_r)]

    def boundary_points(self, n):
        # n - n//2 points on |z| = R, n//2 on |z| = 1/R, at the angles
        # 2 pi k * (1/m): the rounding of these circles' sample points
        sizes = (n - n // 2, n // 2)
        curves = [curve for _, _, curve, _ in self.boundary_curves()]
        return np.concatenate([curve(2.0 * np.pi * np.arange(m) * (1.0 / max(m, 1)))
                               for curve, m in zip(curves, sizes)])

    def kbound_candidates(self, context):
        x, gap, _ = _inverse_square(self.big_r)
        p = 1.0 / self.big_r
        return [
            ("annulus disk-pair bound", 2.0 + math.sqrt((1.0 + x) / gap)),
            ("annulus refined disk-pair bound", 2.0 + (1.0 + p) / math.sqrt(1.0 + p + p * p)),
            ("annulus series bound", max(3.0, 2.0 + _annulus_series(self.big_r))),
            ("annulus integral bound", 2.0 + _annulus_integral(self.big_r) / math.pi),
        ]


@dataclass(frozen=True)
class Polygon(Shape):
    vertices: tuple
    kind = "polygon"
    heads = ("polygon",)

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

    def margin(self, z):
        v = np.asarray(self.vertices)
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

    def boundary_curves(self):
        verts = self.vertices
        return [(0.0, 1.0, lambda t, v=v, w=w: v + (w - v) * t, False)
                for v, w in zip(verts, verts[1:] + verts[:1])]

    def boundary_points(self, n):
        # equal arclength along the edges: chord interpolation between the
        # vertices is exact on a polygon, so resample positions
        fine = np.append(np.asarray(self.vertices), self.vertices[0])
        return (_arclength_params(fine.real, fine, n)
                + 1j * _arclength_params(fine.imag, fine, n))

    def tv_log_radius(self):
        # about the centroid, the edge from v to v + e turns the way the sign
        # of Im(conj(v) e) says: the polygon is star-shaped about it exactly
        # when every edge turns the same strict way and the turns add up to
        # one revolution.  Along an edge log r = log d - log cos(theta - phi)
        # is convex, least at the foot of the normal if that lies inside the
        # edge, so the variation sums |jumps of log r| around the vertices
        # and interior feet
        v = np.asarray(self.vertices)
        w = np.roll(v, -1)
        cross = v.real * w.imag - w.real * v.imag
        area = cross.sum() / 2.0
        if abs(area) < 1e-15:
            raise ValueError("degenerate polygon")
        omega = complex(((v.real + w.real) * cross).sum() / (6.0 * area),
                        ((v.imag + w.imag) * cross).sum() / (6.0 * area))
        v, e = v - omega, w - v
        v, e = v[e != 0], e[e != 0]  # a repeated vertex closes no edge
        turn, along = np.imag(np.conj(v) * e), np.real(np.conj(v) * e)
        winding = np.arctan2(turn, np.abs(v) ** 2 + along).sum()
        if abs(np.sign(turn).sum()) < len(turn) or abs(abs(winding) - 2.0 * np.pi) > np.pi:
            raise ValueError("polygon is not star-shaped about its centroid")
        at_vertex = np.log(np.abs(v))
        inside = (along < 0.0) & (-along < np.abs(e) ** 2)
        at_foot = np.where(inside, np.log(np.abs(turn) / np.abs(e)), at_vertex)
        logs = np.column_stack([at_vertex, at_foot]).ravel()
        return float(np.abs(np.diff(np.append(logs, logs[0]))).sum())

    def kbound_candidates(self, context):
        if not self.is_convex:
            return _tv_candidates(self)
        v = np.asarray(self.vertices)
        diam = float(np.abs(v[:, None] - v[None, :]).max())
        w = np.roll(v, -1)
        area = abs(float((v.real * w.imag - w.real * v.imag).sum()) / 2.0)
        return _tv_candidates(self) + _diameter_area(diam, area)

    def literal(self):
        return "polygon " + " ".join(format_complex(v) for v in self.vertices)

    @classmethod
    def from_literal(cls, head, rest):
        # __post_init__ refuses fewer than 3 vertices
        return cls(tuple(parse_complex(t) for t in rest.split()))


@dataclass(frozen=True)
class Intersection(Shape):
    """Intersection of generalized disks (disk / exterior disk / half-plane)."""

    members: tuple
    kind = "disk_intersection"
    heads = ("intersect",)

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("intersection needs at least one member")
        for m in members:
            # the generalized disks are the shapes with an interior Moebius map
            if m.interior_mobius() is None:
                raise ValueError(f"unsupported intersection member kind {m.kind!r}")
        object.__setattr__(self, "members", members)
        if _interior_point(members) is None:
            raise ValueError("intersection has empty interior (sampled check)")

    @property
    def is_convex(self) -> bool:
        return all(m.is_convex for m in self.members)

    @property
    def is_bounded(self) -> bool:
        return any(m.is_bounded for m in self.members)

    def margin(self, z):
        return np.max([m.margin(z) for m in self.members], axis=0)

    def boundary_points(self, n):
        dense = max(1024, 8 * n)
        cloud = []
        for m in self.members:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncatedBoundary)
                pts = m.boundary_points(dense)
            others = [o for o in self.members if o is not m]
            if others:
                keep = np.max([o.margin(pts) for o in others], axis=0) <= 1e-9
                pts = pts[keep]
            cloud.append(pts)
        cloud = np.concatenate(cloud)
        if cloud.size == 0:
            raise RuntimeError("no boundary points survived the intersection filter")
        idx = np.round(np.linspace(0, cloud.size - 1, n)).astype(int)
        return cloud[idx]

    def kbound_candidates(self, context):
        n = len(self.members)
        cands = [("intersection of generalized disks (members assumed spectral)",
                  n + n * (n - 1) / math.sqrt(3.0))]
        if n == 2 and all(isinstance(m, HalfPlane) for m in self.members):
            return [_SECTOR_STRIP] + cands
        return cands

    def literal(self):
        inner = " ; ".join(m.literal() for m in self.members)
        return f"intersect [ {inner} ]"

    @classmethod
    def from_literal(cls, head, rest):
        if not (rest.startswith("[") and rest.endswith("]")):
            raise ValueError("intersect literal needs [ ... ] with ';' separators")
        return cls(tuple(parse_shape(p) for p in rest[1:-1].split(";") if p.strip()))


_LITERAL_HEADS = {head: cls for cls in (Disk, ExteriorDisk, HalfPlane, Ellipse, Interval,
                                        Annulus, Polygon, Intersection)
                  for head in cls.heads}


def ellipse(center, a: float, b: float, rotation: float = 0.0) -> Shape:
    """Ellipse factory; a degenerate minor axis (b = 0) collapses to an Interval."""
    if b == 0:
        u = complex(a * np.exp(1j * rotation))
        return Interval(complex(center) - u, complex(center) + u)
    return Ellipse(complex(center), float(a), float(b), float(rotation))


def _interior_point(members) -> Optional[complex]:
    # sampled nonempty-interior check: 48 x 48 grid over a heuristic bounding box
    boxes = [(m.center, 2.0 * m.radius) for m in members if isinstance(m, Disk)]
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
    xs = np.linspace(lo_x, hi_x, 48)
    ys = np.linspace(lo_y, hi_y, 48)
    pts = (xs[:, None] + 1j * ys[None, :]).ravel()
    margin = np.max([m.margin(pts) for m in members], axis=0)
    k = int(np.argmin(margin))
    if margin[k] < -1e-9:
        return complex(pts[k])
    return None


def _segment_distance(z: np.ndarray, z1: complex, z2: complex) -> np.ndarray:
    # a zero-length segment (a repeated polygon vertex) is its vertex
    d = z2 - z1
    if d == 0:
        return np.abs(z - z1)
    t = np.clip(np.real((z - z1) * np.conj(d)) / abs(d) ** 2, 0.0, 1.0)
    return np.abs(z - (z1 + t * d))


def contains(x: Shape, z) -> bool:
    """Membership test with absolute boundary tolerance 1e-12 (intersections conjoin)."""
    return bool(x.margin(np.asarray([complex(z)]))[0] <= _BOUNDARY_TOL)


def signed_margin(x: Shape, z) -> float:
    """Signed boundary margin: negative strictly inside, positive outside."""
    return float(x.margin(np.asarray([complex(z)]))[0])


def _arclength_params(params: np.ndarray, pts_fine: np.ndarray, n: int) -> np.ndarray:
    # params interpolated at n equal-arclength targets along the closed chain
    # pts_fine; on a smooth curve, interpolating the parameter (not the
    # position) keeps resampled points exactly on the curve
    cum = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(pts_fine)))])
    targets = np.arange(n) / n * cum[-1]
    return np.interp(targets, cum, params)


def boundary_sample(x: Shape, n: int) -> np.ndarray:
    """N quasi-uniform (in arclength) points on the boundary of a shape.

    Multi-component boundaries (annulus) are sampled on every component;
    the unbounded half-plane boundary is truncated to the parameter range
    [-100, 100] and a TruncatedBoundary warning flags the cut.
    """
    if n < x.min_samples:
        raise ValueError("need at least 16 boundary samples")
    return x.boundary_points(n)


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

    def support_about_center(self, thetas) -> np.ndarray:
        """max of Re(e^{-i theta} (z - c0)) over the shape, semi-axes |c1| +- |cm1|.

        Semi-axes outside the safe range of ``matrixcore._safe_scale`` are
        scaled by a power of two first, so their squares neither overflow
        nor underflow; inside it the scale is 1 and changes no bit.
        """
        amaj = abs(self.c1) + abs(self.cm1)
        bmin = abs(self.c1) - abs(self.cm1)
        t = thetas - 0.5 * (np.angle(self.c1) + np.angle(self.cm1))
        s = _safe_scale(np.array([amaj]))
        return np.sqrt((s * amaj * np.cos(t)) ** 2 + (s * bmin * np.sin(t)) ** 2) / s

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
    return x.exterior_map()


def tv_log_radius(x: Shape) -> float:
    """Total variation of log r(theta) about the centroid, computed exactly.

    A disk gives 0, an ellipse 4 log(a/b).  A polygon star-shaped about its
    centroid gives the sum of |jumps of log r| around its vertices and the
    feet of its edge normals (log r is convex along an edge); any other
    polygon raises ValueError, and so does every other shape.
    """
    return x.tv_log_radius()


# ---------------------------------------------------------------------------
# K-spectral bound catalog

_K_UNIVERSAL = 11.08
_SECTOR_STRIP = ("sector/strip bound", 2.0 + 2.0 / math.sqrt(3.0))


@dataclass(frozen=True)
class KBound:
    """Best catalog K with its provenance label plus every applicable candidate."""

    value: float
    label: str
    candidates: tuple = field(default_factory=tuple)


def _ellipse_perimeter(a: float, b: float) -> float:
    # scipy convention: ellipe(m) with m = e^2
    e2 = 1.0 - (b / a) ** 2
    return 4.0 * a * float(special.ellipe(e2))


def _inverse_square(big_r: float) -> tuple[float, float, float]:
    # x = 1/R^2, 1 - x and log x, from log R: the annulus bounds are written
    # in them, so no power of R can overflow, and 1 - x keeps its digits
    # near R = 1
    log_x = -2.0 * math.log(big_r)
    return math.exp(log_x), -math.expm1(log_x), log_x


def _annulus_series(big_r: float) -> float:
    # an upper bound on sum_{k >= 1} 4 / (R^2k + 1): the first K terms
    # 4 x^k / (1 + x^k), K <= 10^6 where the tail falls below 1e-16, plus the
    # tail bound 4 x^(K+1) / (1 - x)
    _, gap, log_x = _inverse_square(big_r)
    count = max(1, min(10 ** 6, math.ceil((math.log(4e16 / gap) + log_x) / -log_x)))
    powers = np.exp(log_x * np.arange(1, count + 1))
    terms = 4.0 * powers / (1.0 + powers)
    return float(np.sum(terms)) + 4.0 * math.exp(log_x * (count + 1)) / gap


def _annulus_integral(big_r: float) -> float:
    # the integrand sqrt((R^4 + 2 R^2 cos + 1) / (R^4 - 2 R^2 cos + 1)),
    # divided through by R^4, with 1 + 2 x cos + x^2 = (1 + x)^2 - bend and
    # 1 - 2 x cos + x^2 = (1 - x)^2 + bend, bend = 4 x sin^2(th/2), which
    # keep their digits near R = 1
    x, gap, _ = _inverse_square(big_r)

    def g(th):
        bend = 4.0 * x * math.sin(th / 2.0) ** 2
        return math.sqrt(((1.0 + x) ** 2 - bend) / (gap * gap + bend))

    # split off the peak at theta = 0, which narrows as R -> 1+
    cut = min(1.0, max(10.0 * gap, 1e-3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        head, _ = integrate.quad(g, 0.0, cut, epsabs=1e-12, epsrel=1e-12, limit=400)
        tail, _ = integrate.quad(g, cut, math.pi, epsabs=1e-12, epsrel=1e-12,
                                 limit=400)
    return head + tail


def _eccentricity_bound(ecc: float):
    return ("ellipse eccentricity bound", 2.0 + 2.0 / math.sqrt(4.0 - ecc ** 2))


def _tv_candidates(x: Shape) -> list:
    try:
        tv = tv_log_radius(x)
    except ValueError:
        return []
    return [("radial total-variation bound", 2.0 + math.pi + tv)]


def _diameter_area(diam: float, area: float) -> list:
    # a convex shape's entry from its diameter and area
    if not area > 0:
        return []
    return [("diameter-area bound", 3.0 + (2.0 * math.pi * diam ** 2 / area) ** 3)]


def _ellipse_candidates(x: Shape, a_axis: float, b_axis: float, ecc: float) -> list:
    # the entries a disk shares with an ellipse (a disk is one with a = b)
    cands = [_eccentricity_bound(ecc)]
    q_ecc = 1.0 - (1.0 + ecc) / 2.0 * math.sqrt(1.0 - ecc ** 2)
    r_curv = a_axis ** 2 / b_axis
    q_curv = 1.0 - _ellipse_perimeter(a_axis, b_axis) / (2.0 * math.pi * r_curv)
    q = min(q_ecc, q_curv)
    if q < 1.0:
        cands.append(("configuration constant bound", 1.0 + 2.0 / (1.0 - q)))
    return cands + _tv_candidates(x)


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
    cands = x.kbound_candidates(context)
    if x.is_convex:
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
    return x.literal()


def parse_shape(text: str) -> Shape:
    """Parse a shape literal like "disk 0+0i 1.5" or "intersect [ ... ; ... ]".

    A literal with the wrong number of tokens for its head raises ValueError.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty shape literal")
    head = text.split(None, 1)[0].lower()
    cls = _LITERAL_HEADS.get(head)
    if cls is None:
        raise ValueError(f"unknown shape literal head {head!r}")
    return cls.from_literal(head, text[len(head):].strip())
