import math
import warnings

import numpy as np
import pytest

from spectral_kit.domains import (
    Annulus,
    Disk,
    ExteriorDisk,
    HalfPlane,
    Intersection,
    Interval,
    Polygon,
    TruncatedBoundary,
    _annulus_series,
    boundary_sample,
    contains,
    ellipse,
    exterior_map,
    kbound,
    parse_shape,
    shape_literal,
    signed_margin,
    tv_log_radius,
)


def _square():
    return Polygon((1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j))


def _equilateral_triangle():
    angles = np.pi / 2 + 2 * np.pi * np.arange(3) / 3
    return Polygon(tuple(np.exp(1j * angles)))


# ---------------------------------------------------------------------- contains

def test_contains_disk():
    assert contains(Disk(0, 1.0), 0.5)
    assert contains(Disk(0, 1.0), 1.0)  # boundary
    assert not contains(Disk(0, 1.0), 1.1)


def test_contains_annulus():
    x = Annulus(2.0)
    assert not contains(x, 3.0)
    assert contains(x, 0.5)  # inner boundary 1/R
    assert contains(x, -1.7)
    assert not contains(x, 0.25)


def test_contains_half_plane_and_intersection():
    left = HalfPlane(0.0, 1.0)  # Re z <= 1
    right = HalfPlane(np.pi, 1.0)  # Re z >= -1
    assert contains(left, -5 + 40j)
    assert not contains(left, 1.5)
    strip = Intersection((left, right))
    assert contains(strip, 0.3 + 100j)
    assert not contains(strip, 1.2)
    assert not contains(strip, -1.2)


def test_contains_polygon_and_interval():
    sq = _square()
    assert contains(sq, 0.0)
    assert contains(sq, 1.0 + 0.5j)  # edge point
    assert not contains(sq, 1.2)
    seg = Interval(-1.0 + 0j, 1.0 + 0j)
    assert contains(seg, 0.25)
    assert not contains(seg, 0.25 + 0.1j)


def test_polygon_with_a_repeated_vertex_has_the_margin_of_its_square():
    # the zero-length edge from the repeated vertex is a point, not 0/0
    closed = parse_shape("polygon 1+1i -1+1i -1-1i 1-1i 1+1i")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (0.0, 0.5 + 0.25j, 1.0 + 0.5j, 2.0 + 2.0j, -1.5):
            assert signed_margin(closed, z) == signed_margin(_square(), z)
        assert signed_margin(closed, 0.0) == -1.0
        assert contains(closed, 0.0)


def test_contains_ellipse():
    e = ellipse(1j, 2.0, 1.0, rotation=np.pi / 2)
    # major axis now vertical: 1j +- 2i inside, 1j +- 2 outside
    assert contains(e, 3j)
    assert not contains(e, 2 + 1j)


def test_intersection_requires_nonempty_interior():
    with pytest.raises(ValueError):
        Intersection((Disk(0, 1.0), Disk(10, 1.0)))


# -------------------------------------------------------------- boundary_sample

def test_boundary_sample_disk_n4():
    pts = boundary_sample(Disk(0, 1.0), 4)
    assert np.allclose(sorted(pts, key=lambda z: np.angle(z) % (2 * np.pi)),
                       [1, 1j, -1, -1j])


def test_boundary_sample_interval_real():
    pts = boundary_sample(Interval(-1, 1), 33)
    assert np.all(np.abs(pts.imag) < 1e-15)
    assert pts.real.min() >= -1 and pts.real.max() <= 1


def test_boundary_sample_annulus_split():
    pts = boundary_sample(Annulus(2.0), 8)
    radii = np.abs(pts)
    assert np.sum(np.isclose(radii, 2.0)) == 4
    assert np.sum(np.isclose(radii, 0.5)) == 4


def test_boundary_sample_half_plane_truncated():
    hp = HalfPlane(0.3, 2.0)
    with pytest.warns(TruncatedBoundary):
        pts = boundary_sample(hp, 64)
    assert len(pts) == 64
    assert np.allclose(np.real(pts * np.exp(-0.3j)), 2.0, atol=1e-12)


def test_boundary_sample_polygon_on_edges():
    sq = _square()
    pts = boundary_sample(sq, 40)
    assert np.abs(sq.margin(pts)).max() < 1e-12


def test_boundary_sample_lens_intersection():
    lens = Intersection((Disk(-0.5, 1.0), Disk(0.5, 1.0)))
    pts = boundary_sample(lens, 64)
    assert len(pts) == 64
    # every sample lies in both disks and on the boundary of at least one
    d1 = np.abs(pts + 0.5)
    d2 = np.abs(pts - 0.5)
    assert np.all((d1 <= 1 + 1e-8) & (d2 <= 1 + 1e-8))
    assert np.all(np.minimum(np.abs(d1 - 1), np.abs(d2 - 1)) < 1e-8)


# ---------------------------------------------------------------- exterior maps

def test_exterior_map_disk_affine():
    em = exterior_map(Disk(0, 2.0))
    assert em.phi(6.0) == pytest.approx(3.0)
    assert em.capacity == 2.0


def test_exterior_map_support_matches_closed_forms():
    th = np.linspace(0.0, 2.0 * np.pi, 97)
    disk = exterior_map(Disk(1 - 2j, 0.7)).support_about_center(th)
    assert np.allclose(disk, 0.7, rtol=1e-14)
    ell = exterior_map(ellipse(2 - 1j, 2.0, 0.5, rotation=1.1)).support_about_center(th)
    want = np.hypot(2.0 * np.cos(th - 1.1), 0.5 * np.sin(th - 1.1))
    assert np.allclose(ell, want, rtol=1e-14)
    z1, z2 = -1 + 0.5j, 2 - 1j
    seg = exterior_map(Interval(z1, z2)).support_about_center(th)
    want = np.abs(np.real(np.exp(-1j * th) * (z2 - z1) / 2.0))
    assert np.allclose(seg, want, rtol=1e-14, atol=1e-15)


def test_exterior_map_interval_joukowski():
    em = exterior_map(Interval(-1, 1))
    w = np.exp(0.7j) * 1.3
    assert em.psi(w) == pytest.approx((w + 1 / w) / 2)
    assert em.phi(0.0) == pytest.approx(1j)


def test_exterior_map_ellipse_coefficients():
    em = exterior_map(ellipse(0, 1.25, 0.75))
    assert em.c1 == pytest.approx(1.0)
    assert em.cm1 == pytest.approx(0.25)
    z = 1.5 + 0.25j
    assert em.psi(em.phi(z)) == pytest.approx(z, abs=1e-12)


@pytest.mark.parametrize("shape", [
    Disk(0.3 - 0.2j, 1.7),
    ellipse(1 + 1j, 2.0, 0.5, rotation=0.4),
    Interval(-2 - 1j, 1 + 2j),
])
def test_exterior_map_inversion_roundtrip(shape):
    em = exterior_map(shape)
    rng = np.random.default_rng(7)
    scale = abs(em.c1) + abs(em.cm1)
    count = 0
    while count < 100:
        z = em.c0 + (rng.uniform(1.5, 6) * scale) * np.exp(2j * np.pi * rng.random())
        if contains(shape, z):
            continue
        w = em.phi(z)
        assert abs(w) > 1
        assert abs(em.psi(w) - z) <= 1e-12 * max(1.0, abs(z))
        count += 1


@pytest.mark.parametrize("shape", [
    Disk(0.3 - 0.2j, 1.7),
    ellipse(1 + 1j, 2.0, 0.5, rotation=0.4),
])
def test_exterior_map_boundary_modulus(shape):
    em = exterior_map(shape)
    pts = boundary_sample(shape, 128)
    w = em.phi(pts)
    assert np.all(np.abs(np.abs(w) - 1.0) < 1e-8)


# ------------------------------------------------------------------ TV(log r)

def test_tv_disk_is_zero():
    assert tv_log_radius(Disk(3 + 4j, 2.5)) == 0.0


def test_tv_ellipse_closed_form():
    x = ellipse(2 - 1j, 2.0, 0.5, rotation=1.1)
    assert tv_log_radius(x) == pytest.approx(4 * math.log(4.0), abs=1e-9)


def test_tv_square():
    assert tv_log_radius(_square()) == pytest.approx(4 * math.log(2.0), abs=1e-8)


def test_tv_equilateral_triangle():
    assert tv_log_radius(_equilateral_triangle()) == pytest.approx(
        6 * math.log(2.0), abs=1e-8)


def test_tv_translation_rotation_invariant():
    v = np.asarray(_square().vertices)
    moved = Polygon(tuple(v * np.exp(0.37j) + (5 - 2j)))
    assert tv_log_radius(moved) == pytest.approx(4 * math.log(2.0), abs=1e-8)


def _ray_radii(vertices, thetas):
    # the boundary radius of a polygon along each ray from its centroid:
    # the nearest and farthest edge crossing of each ray, which agree on a
    # polygon star-shaped about the centroid
    v = np.asarray(vertices, dtype=complex)
    w = np.roll(v, -1)
    cross = v.real * w.imag - w.real * v.imag
    area = cross.sum() / 2.0
    omega = complex(((v.real + w.real) * cross).sum() / (6.0 * area),
                    ((v.imag + w.imag) * cross).sum() / (6.0 * area))
    v, d = v - omega, w - v
    u = np.exp(1j * np.asarray(thetas))[:, None]
    den = np.imag(np.conj(u) * d)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.imag(np.conj(v) * d) / den
        s = np.imag(np.conj(v) * u) / den
    hit = (den != 0.0) & (t > 0.0) & (s >= -1e-12) & (s <= 1.0 + 1e-12)
    assert hit.any(axis=1).all()
    r = np.where(hit, t, np.nan)
    return np.nanmin(r, axis=1), np.nanmax(r, axis=1)


def _grid_tv(radii):
    vals = np.log(radii)
    return np.abs(np.diff(np.append(vals, vals[0]))).sum()


def test_tv_star_polygon_matches_dense_grid():
    # non-convex but star-shaped: oracle is a raw dense-grid TV (no refinement)
    angles = 2 * np.pi * np.arange(8) / 8
    radii = np.where(np.arange(8) % 2 == 0, 1.0, 0.45)
    star = Polygon(tuple(radii * np.exp(1j * angles)))
    near, far = _ray_radii(star.vertices, 2 * np.pi * np.arange(200000) / 200000)
    assert np.all(far - near <= 1e-9 * far)
    oracle = _grid_tv(near)
    assert tv_log_radius(star) == pytest.approx(oracle, abs=1e-4)
    assert tv_log_radius(star) >= oracle - 1e-12  # refinement only adds variation


def test_tv_closed_forms_to_rounding():
    assert abs(tv_log_radius(_square()) - 4 * math.log(2.0)) <= 1e-12
    closed = Polygon(_square().vertices + _square().vertices[:1])  # first vertex repeated
    assert abs(tv_log_radius(closed) - 4 * math.log(2.0)) <= 1e-12
    assert abs(tv_log_radius(_equilateral_triangle()) - 6 * math.log(2.0)) <= 1e-12
    for a, b, rot in ((2.0, 0.5, 1.1), (1.0, 1.0, 0.0), (3.0, 2.9, -0.4)):
        x = ellipse(2 - 1j, a, b, rotation=rot)
        assert abs(tv_log_radius(x) - 4 * math.log(a / b)) <= 1e-12


def test_tv_of_seeded_star_polygons_is_at_least_a_dense_ray_cast():
    # a grid can only under-count the variation of log r
    rng = np.random.default_rng(2024)
    thetas = 2 * np.pi * np.arange(4096) / 4096
    for _ in range(200):
        m = int(rng.integers(5, 13))
        angles = 2 * np.pi * (np.arange(m) + 0.8 * rng.random(m)) / m
        star = Polygon(tuple((0.4 + 0.6 * rng.random(m)) * np.exp(1j * angles)))
        near, far = _ray_radii(star.vertices, thetas)
        assert np.all(far - near <= 1e-9 * far)
        assert tv_log_radius(star) >= _grid_tv(near) - 1e-12


def test_tv_rejects_non_star_polygon():
    horseshoe = Polygon((-1 + 0j, 1 + 0j, 1 + 2j, 0.5 + 2j, 0.5 + 0.5j,
                         -0.5 + 0.5j, -0.5 + 2j, -1 + 2j))
    with pytest.raises(ValueError, match="star-shaped"):
        tv_log_radius(horseshoe)


# --------------------------------------------------------------------- kbound

def test_kbound_disk_with_context_is_two():
    a = np.array([[0.0, 2.0], [0.0, 0.0]])  # w(A) = 1
    kb = kbound(Disk(0, 1.0), context=a)
    assert kb.value == 2.0
    assert kb.label.startswith("Okubo")


def test_kbound_disk_without_context():
    kb = kbound(Disk(0, 1.0))
    assert kb.value == pytest.approx(3.0)
    assert kb.label == "ellipse eccentricity bound"


def test_kbound_interval_and_half_plane():
    target = 2 + 2 / math.sqrt(3.0)
    assert kbound(Interval(-1, 1)).value == pytest.approx(target)
    assert kbound(HalfPlane(0.0, 0.0)).value == pytest.approx(target)
    assert kbound(HalfPlane(0.0, 0.0)).label == "sector/strip bound"


def test_kbound_strip():
    strip = Intersection((HalfPlane(0.0, 1.0), HalfPlane(np.pi, 1.0)))
    kb = kbound(strip)
    assert kb.value == pytest.approx(2 + 2 / math.sqrt(3.0))


def test_kbound_many_convex_disks_uses_universal():
    disks = tuple(Disk(0.2 * np.exp(2j * np.pi * k / 5), 2.0) for k in range(5))
    kb = kbound(Intersection(disks))
    assert kb.value == pytest.approx(11.08)
    assert kb.label == "universal convex numerical-range bound"
    labels = dict(kb.candidates)
    assert labels["intersection of generalized disks (members assumed spectral)"] \
        == pytest.approx(5 + 20 / math.sqrt(3.0))


def test_kbound_polygon_tv_values():
    tri = kbound(_equilateral_triangle())
    assert tri.value == pytest.approx(2 + math.pi + 6 * math.log(2.0), abs=1e-8)
    sq = kbound(_square())
    assert sq.value == pytest.approx(2 + math.pi + 4 * math.log(2.0), abs=1e-8)
    assert sq.label == "radial total-variation bound"


def test_kbound_no_catalog_entry():
    with pytest.raises(ValueError, match="no catalog bound"):
        kbound(ExteriorDisk(0, 1.0))


def _annulus_candidates(big_r):
    labels = dict(kbound(Annulus(big_r)).candidates)
    return (labels["annulus disk-pair bound"],
            labels["annulus refined disk-pair bound"],
            labels["annulus series bound"],
            labels["annulus integral bound"])


def test_kbound_annulus_near_one():
    _, refined, _, _ = _annulus_candidates(1.0001)
    assert refined == pytest.approx(2 + 2 / math.sqrt(3.0), abs=1e-3)


def test_kbound_annulus_series_bound_is_an_upper_bound():
    # sum_{k >= 1} 4 / (R^{2k} + 1) needs millions of terms near R = 1, and
    # the entry must still bound it from above (it is about 138,629 here)
    q = 1.00001 ** 2
    partial = float(np.sum(4.0 / (q ** np.arange(1, 2_000_001) + 1.0)))
    _, _, series, _ = _annulus_candidates(1.00001)
    assert partial <= series - 2.0 <= partial + 1e-3
    # away from R = 1, the term-by-term sum to 1e-15 as the reference
    for big_r in (1.2, 2.0, 5.0):
        total, powr = 0.0, big_r ** 2
        while 4.0 / (powr + 1.0) >= 1e-15:
            total += 4.0 / (powr + 1.0)
            powr *= big_r ** 2
        total += 4.0 / (powr + 1.0)
        assert _annulus_series(big_r) == pytest.approx(total, rel=1e-14, abs=0.0)


def test_kbound_annulus_values_and_crossovers():
    # series bound reaches 3 at the documented threshold
    assert kbound(Annulus(2.0953)).value <= 3.0 + 1e-3
    assert kbound(Annulus(2.5)).value <= 3.0
    for big_r in np.arange(1.1, 3.15, 0.05):
        pair, refined, _, integral = _annulus_candidates(big_r)
        assert refined < pair
        assert integral <= pair + 1e-12
    for big_r in np.arange(1.86, 10.0, 0.1):
        pair, _, series, integral = _annulus_candidates(big_r)
        assert series < pair
        assert integral <= pair + 1e-12


# ------------------------------------------------------------- shape literals

@pytest.mark.parametrize("literal", [
    "disk 0+0i 1.5",
    "xdisk 1-2i 0.75",
    "halfplane 0.5 2",
    "ellipse 0+0i 1.25 0.75 0",
    "interval -1+0i 1+0i",
    "annulus 2",
    "polygon 1+1i -1+1i -1-1i 1-1i",
    "intersect [ disk -0.5+0i 1 ; disk 0.5+0i 1 ]",
])
def test_shape_literal_roundtrip(literal):
    x = parse_shape(literal)
    again = parse_shape(shape_literal(x))
    assert shape_literal(again) == shape_literal(x)


def test_parse_shape_ellipse_degenerates_to_interval():
    x = parse_shape("ellipse 0+0i 2 0 0")
    assert x.kind == "interval"
    assert x.z1 == pytest.approx(-2 + 0j)


def test_parse_shape_rejects_unknown():
    # unknown heads, and known heads with the wrong number of tokens
    for literal in ("blob 1 2", "disk 0", "disk 0 1 2", "annulus", "halfplane 0",
                    "ellipse 0 1", "ellipse 0 1 0.5 0 9", "interval 0", "xdisk 0",
                    "polygon 0 1"):
        with pytest.raises(ValueError):
            parse_shape(literal)
