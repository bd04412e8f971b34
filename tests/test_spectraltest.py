import warnings

import numpy as np
import pytest

from spectral_kit import spectraltest
from spectral_kit.domains import (Annulus, Disk, ExteriorDisk, HalfPlane, Intersection,
                                  Interval, Polygon, TruncatedBoundary, boundary_sample,
                                  ellipse, kbound, parse_shape, signed_margin)
from spectral_kit.krylov import fit_ellipse
from spectral_kit.matrixcore import RationalFunction, eval_rational, op_norm
from spectral_kit.numrange import numerical_radius, support_value
from spectral_kit.spectraltest import (
    _blaschke_through,
    _random_rational,
    annulus_extremal_pair,
    classify_structure,
    disk_spectral,
    exterior_disk_spectral,
    halfplane_spectral,
    kratio_estimate,
    sup_on_boundary,
    vn_fuzz,
)


def _annulus_matrix(big_r):
    # ||A|| = ||A^{-1}|| = R, so both |z| <= R and |z| >= 1/R are spectral
    return np.array([[1.0, big_r - 1.0 / big_r], [0.0, 1.0]], dtype=complex)


# ----------------------------------------------------------------- certificates

def test_disk_spectral_examples():
    a = np.array([[0.0, 2.0], [0.0, 0.0]])
    cert = disk_spectral(a, 0.0, 2.0)
    assert cert.holds and cert.margin == pytest.approx(0.0, abs=1e-12)
    cert1 = disk_spectral(a, 0.0, 1.0)
    assert not cert1.holds and cert1.margin == pytest.approx(-1.0, abs=1e-12)
    cert2 = disk_spectral(_annulus_matrix(2.0), 0.0, 2.0)
    assert cert2.holds and cert2.margin == pytest.approx(0.0, abs=1e-12)


def test_disk_spectral_witness_reevaluates():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    cert = disk_spectral(a, 0.3 + 0.1j, 2.0)
    shifted = a - (0.3 + 0.1j) * np.eye(4)
    achieved = np.linalg.norm(shifted @ cert.witness)
    assert achieved == pytest.approx(2.0 - cert.margin, abs=1e-8)
    assert np.linalg.norm(cert.witness) == pytest.approx(1.0)


def test_disk_spectral_equality_boundary_property():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        radius = np.linalg.norm(a - alpha * np.eye(n), 2)
        cert = disk_spectral(a, alpha, radius)
        assert cert.holds
        assert abs(cert.margin) <= 1e-9


def test_exterior_disk_spectral_examples():
    a = _annulus_matrix(2.0)
    cert = exterior_disk_spectral(a, 0.0, 0.5)
    assert cert.holds and cert.margin == pytest.approx(0.0, abs=1e-12)
    assert exterior_disk_spectral(2.0 * np.eye(3), 0.0, 1.0).holds
    assert not exterior_disk_spectral(0.5 * np.eye(3), 0.0, 1.0).holds


def test_exterior_disk_rejects_eigenvalue_center():
    with pytest.raises(ValueError, match="eigenvalue"):
        exterior_disk_spectral(np.diag([1.0, 2.0]), 2.0, 0.5)


def test_halfplane_spectral_examples():
    # right half-plane Re z >= 0 is Re(e^{-i pi} z) <= 0
    cert = halfplane_spectral(np.eye(2), np.pi, 0.0)
    assert cert.holds and cert.margin == pytest.approx(1.0, abs=1e-12)
    a = np.array([[0.0, 2.0], [0.0, 0.0]])  # W(A) = unit disk
    cert2 = halfplane_spectral(a, np.pi, 1.0)
    assert cert2.holds and cert2.margin == pytest.approx(0.0, abs=1e-12)
    assert not halfplane_spectral(-np.eye(2), np.pi, 0.0).holds


def test_halfplane_witness_achieves_support():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    theta = 0.7
    cert = halfplane_spectral(a, theta, 10.0)
    w = cert.witness
    val = np.real(np.exp(-1j * theta) * np.vdot(w, a @ w))
    assert val == pytest.approx(10.0 - cert.margin, abs=1e-8)


def test_halfplane_cayley_agreement_fuzz():
    rng = np.random.default_rng(42)
    for _ in range(500):
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        theta = float(rng.uniform(0, 2 * np.pi))
        p = support_value(a, theta)
        d = p + float(rng.standard_normal())
        cert = halfplane_spectral(a, theta, d)  # raises on disagreement
        assert cert.holds == (cert.margin >= -cert.tol)


# ------------------------------------------------------------- classification

def test_classify_structure_examples():
    rep = classify_structure(np.diag([1j, -1j]))
    assert set(rep.labels) == {"normal", "unitary"}
    assert rep.minimal_sets["normal"] == (-1j, 1j)
    assert rep.minimal_sets["unitary"] == "unit circle"

    rep2 = classify_structure(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert set(rep2.labels) == {"normal", "hermitian", "unitary"}
    assert rep2.minimal_sets["hermitian"] == pytest.approx((-1.0, 1.0))

    assert classify_structure(np.array([[0.0, 2.0], [0.0, 0.0]])).labels == ()


# ---------------------------------------------------------------- boundary sup

def test_sup_on_boundary_identity_on_ellipse():
    val, acc = sup_on_boundary(RationalFunction.from_poly([0.0, 1.0]),
                               ellipse(0, 2.0, 1.0))
    assert val == pytest.approx(2.0, abs=1e-10)
    assert acc < 1e-4


def test_sup_on_boundary_annulus_refinement():
    f1, _ = annulus_extremal_pair(2.0)
    val, _ = sup_on_boundary(f1, Annulus(2.0))
    assert val == pytest.approx(2.0 + 0.5, abs=1e-10)  # |z - 1/z| at z = 2i


_STAR = tuple(np.where(np.arange(8) % 2 == 0, 1.0, 0.45)
              * np.exp(2j * np.pi * np.arange(8) / 8))


@pytest.mark.parametrize("x", [
    Disk(0.3 - 0.2j, 1.7),
    ExteriorDisk(1 - 2j, 0.75),
    HalfPlane(0.5, 2.0),
    ellipse(1 + 1j, 2.0, 0.5, rotation=0.4),
    Interval(-2 - 1j, 1 + 2j),
    Annulus(2.0),
    Polygon((1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j)),
    Polygon(_STAR),
    Intersection((Disk(0.2j, 1.0), HalfPlane(0.3, 0.4))),
], ids=["disk", "xdisk", "halfplane", "ellipse", "interval", "annulus",
        "convex_polygon", "star_polygon", "disk_halfplane"])
def test_sampler_and_boundary_sample_points_lie_on_the_boundary(x):
    # the sampler's curve points and boundary_sample's grid both lie on the boundary
    sampler = spectraltest._BoundarySampler(x, 256)
    if sampler.comps is None:
        clouds = [sampler.fine, sampler.coarse]
    else:
        clouds = [pts for *_, pts in sampler.comps]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncatedBoundary)
        clouds.append(boundary_sample(x, 256))
    for pts in clouds:
        scale = max(1.0, float(np.max(np.abs(pts))))
        margins = np.array([signed_margin(x, z) for z in pts])
        assert np.max(np.abs(margins)) <= 1e-12 * scale


# --------------------------------------------------------------- K estimation

def test_annulus_extremal_misra_ratio():
    big_r = 2.0
    a = _annulus_matrix(big_r)
    f1, _ = annulus_extremal_pair(big_r)
    ratio = op_norm(eval_rational(f1, a)) / sup_on_boundary(f1, Annulus(big_r))[0]
    assert ratio == pytest.approx(2 * (big_r ** 2 - 1) / (big_r ** 2 + 1), abs=1e-9)
    assert ratio == pytest.approx(1.2, abs=1e-9)


def test_annulus_second_extremal_against_oracle():
    big_r = 2.0
    a = _annulus_matrix(big_r)
    _, f2 = annulus_extremal_pair(big_r)
    # oracle: f2 = g(z) - g(1/z) with g = R(z-1)/(R^2 - z), evaluated directly
    g = RationalFunction(num=(-big_r, big_r), den=(big_r ** 2, -1.0))
    direct = eval_rational(g, a) - eval_rational(g, np.linalg.inv(a))
    assert np.allclose(eval_rational(f2, a), direct, atol=1e-12)
    assert op_norm(direct) == pytest.approx(2.0, abs=1e-10)
    sup, _ = sup_on_boundary(f2, Annulus(big_r))
    expected = (1 + big_r ** 2 + 2 * big_r) / (1 + big_r ** 2 + big_r)
    assert sup == pytest.approx(expected, abs=1e-9)


def test_kratio_annulus_reaches_known_lower_bound():
    big_r = 2.0
    est = kratio_estimate(_annulus_matrix(big_r), Annulus(big_r), budget=20, seed=1)
    assert est.lower >= 14.0 / 9.0 - 1e-6
    assert est.upper is not None
    assert est.lower <= est.upper + 1e-8
    assert est.best_function is not None
    assert est.sup_accuracy < 1e-4


@pytest.mark.parametrize("big_r", [1.3, 2.0, 3.5])
def test_kratio_annulus_never_three_halves_spectral(big_r):
    est = kratio_estimate(_annulus_matrix(big_r), Annulus(big_r), budget=4, seed=0)
    target = 2 * (1 + big_r ** 2 + big_r) / (1 + big_r ** 2 + 2 * big_r)
    assert est.lower >= target - 1e-6
    assert est.lower > 1.5


def test_kratio_crouzeix_2x2_disk():
    a = np.array([[0.0, 2.0], [0.0, 0.0]])
    est = kratio_estimate(a, Disk(0.0, 1.0), budget=50, seed=3)
    assert est.lower == pytest.approx(2.0, abs=1e-9)
    assert est.upper == pytest.approx(2.0)


def test_kratio_normal_matrix_spectral_disk():
    a = np.diag([1.0, 1j, -1.0])
    est = kratio_estimate(a, Disk(0.0, 1.2), budget=200, seed=5)
    assert est.lower <= 1.0 + 1e-6
    assert est.lower >= 1.0 - 1e-8  # constant function is in the family


def test_kratio_refuses_boundary_spectrum():
    with pytest.raises(ValueError, match="interior"):
        kratio_estimate(np.diag([1.0, 0.5]), Disk(0.0, 1.0), budget=1)


def test_kratio_random_crouzeix_disk_property():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w = numerical_radius(a)
        try:
            est = kratio_estimate(a, Disk(0.0, w), budget=8, seed=int(rng.integers(1e6)))
        except ValueError:
            continue
        checked += 1
        assert est.lower <= 2.0 + 1e-6
        if est.upper is not None:
            assert est.lower <= est.upper + 1e-8
    assert checked >= 150


def _kratio_reference(a, x, budget, seed):
    # kratio_estimate's candidate stream with no pruning: every candidate
    # bounded on X goes through eval_rational and the public
    # sup_on_boundary, in order
    m = np.asarray(a, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncatedBoundary)
        pts = boundary_sample(x, 256)
    center = complex(np.mean(pts))
    scale = float(np.max(np.abs(pts - center))) or 1.0
    best = {"lower": 0.0, "f": None, "acc": 0.0}

    def consider(f):
        if f is None or (not x.is_bounded and len(f.num) > len(f.den)):
            return
        poles = f.poles()
        if poles.size and min(signed_margin(x, p) for p in poles) <= 1e-9:
            return
        try:
            fa = eval_rational(f, m)
        except ValueError:
            return
        sup, acc = sup_on_boundary(f, x)
        if not sup > 1e-300:
            return
        ratio = op_norm(fa) / sup
        if ratio > best["lower"]:
            best.update(lower=float(ratio), f=f, acc=float(acc))

    consider(RationalFunction.from_poly([1.0]))
    consider(RationalFunction.from_poly([0.0, 1.0]))
    if isinstance(x, Annulus):
        for f in annulus_extremal_pair(x.big_r):
            consider(f)
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
    return best["lower"], upper, best["acc"], best["f"]


def _shapes_around(a):
    # one shape of each boundary kind with the spectrum of a inside
    n = len(a)
    ev = np.linalg.eigvals(a)
    c = complex(np.trace(a)) / n
    r = 1.1 * float(np.max(np.abs(ev - c))) + 0.2
    big_r = 1.2 * max(float(np.max(np.abs(ev))), 1.0 / float(np.min(np.abs(ev))))
    return [
        Disk(c, 1.05 * numerical_radius(a - c * np.eye(n)) + 0.1),
        fit_ellipse(a),
        Annulus(big_r),
        HalfPlane(0.0, float(np.max(ev.real)) + 0.5),
        Polygon(tuple(c + 1.5 * r * np.exp(2j * np.pi * k / 5) for k in range(5))),
        Intersection((Disk(c, r), Disk(c + 0.2 * r, 1.3 * r))),
    ]


def test_kratio_estimate_matches_unpruned_reference_exactly():
    # budget 100 at one size only: the reference re-samples the boundary for
    # every candidate, which costs about 2.5 s per call on an intersection
    rng = np.random.default_rng(2013)
    for n in (1, 2, 3, 8):
        a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
        for x in _shapes_around(a):
            for budget in (1, 20, 100) if n == 3 else (1, 20):
                seed = int(rng.integers(1 << 31))
                with np.errstate(divide="ignore", invalid="ignore"):
                    est = kratio_estimate(a, x, budget=budget, seed=seed)
                    ref = _kratio_reference(a, x, budget, seed)
                assert (est.lower, est.upper, est.sup_accuracy,
                        est.best_function) == ref, (n, x, budget)


def test_kratio_estimate_skips_candidates_that_overflow():
    # at this scale the Moebius-composed Blaschke coefficients and some f(A)
    # overflow to inf; those candidates are skipped, neither raised on nor
    # warned about
    rng = np.random.default_rng(0)
    a = 1e80 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = kratio_estimate(a, Disk(0.0, 1.05 * numerical_radius(a)), budget=50)
    assert np.isfinite(est.lower)
    assert est.upper is not None and est.lower <= est.upper


def test_kratio_estimate_refines_only_candidates_that_can_win(monkeypatch):
    calls = []
    polish = spectraltest._polish_peaks

    def counting(*args, **kwargs):
        calls.append(args[2])
        return polish(*args, **kwargs)

    monkeypatch.setattr(spectraltest, "_polish_peaks", counting)
    rng = np.random.default_rng(31)
    a = (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))) / np.sqrt(5)
    kratio_estimate(a, fit_ellipse(a), budget=100, seed=7)
    assert 1 <= len(calls) <= 10  # of 102 candidates
    calls.clear()
    f1, _ = annulus_extremal_pair(2.0)
    sup_on_boundary(f1, Annulus(2.0))
    assert len(calls) == 2
    sup_on_boundary(f1, ellipse(0, 2.0, 1.0))
    assert len(calls) == 3


def test_kratio_estimate_samples_the_full_grid_only_for_candidates_that_can_win(monkeypatch):
    # the sub-grid maximum already rules out all but a few candidates
    calls = []
    grid = spectraltest._BoundarySampler.grid

    def counting(self, f):
        calls.append(f)
        return grid(self, f)

    monkeypatch.setattr(spectraltest._BoundarySampler, "grid", counting)
    rng = np.random.default_rng(31)
    a = (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))) / np.sqrt(5)
    kratio_estimate(a, fit_ellipse(a), budget=100, seed=7)
    assert 1 <= len(calls) <= 10  # of 102 candidates


@pytest.mark.parametrize("n, budget, cap", [(3, 40, 7 * 16 * 256), (64, 20, None)],
                         ids=["n3_blocks_of_7", "n64"])
def test_kratio_estimate_matches_the_reference_across_stacked_blocks(monkeypatch, n, budget,
                                                                      cap):
    # under a small byte cap the live candidates at n = 3 span several stacked
    # blocks (7 rows of 256 sub-grid values each); at n = 64 the stacked
    # matrix products are the large ones; no block exceeds the cap
    if cap is not None:
        monkeypatch.setattr(spectraltest, "_STACK_BYTES", cap)
    blocks = []
    horner = spectraltest._horner

    def recording(coeffs, m):
        out = horner(coeffs, m)
        blocks.append(out.nbytes)
        return out

    monkeypatch.setattr(spectraltest, "_horner", recording)
    rng = np.random.default_rng(64 + n)
    a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
    ev = np.linalg.eigvals(a)
    c = complex(np.trace(a)) / n
    for x in (Disk(c, 1.05 * numerical_radius(a - c * np.eye(n)) + 0.1), fit_ellipse(a),
              HalfPlane(0.0, float(np.max(ev.real)) + 0.5)):
        blocks.clear()
        seed = int(rng.integers(1 << 31))
        est = kratio_estimate(a, x, budget=budget, seed=seed)
        ref = _kratio_reference(a, x, budget, seed)
        assert (est.lower, est.upper, est.sup_accuracy, est.best_function) == ref, x
        assert max(blocks) <= spectraltest._STACK_BYTES
        if cap is not None and x.is_bounded:
            assert len(blocks) >= 2 * 6  # p(A) and q(A) per block: 6 blocks or more


@pytest.mark.parametrize("x", [
    Disk(0.3 - 0.2j, 1.7),
    HalfPlane(0.5, 2.0),
    Annulus(2.0),
    Polygon((1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j)),
    Intersection((Disk(0.2j, 1.0), HalfPlane(0.3, 0.4))),
], ids=["disk", "halfplane", "annulus", "polygon", "disk_halfplane"])
def test_sub_grid_reads_a_subset_of_the_grid_as_f_does(x):
    # each row's sub-grid maximum is |f| at grid points, bit for bit as
    # f(pts) gives it, so it never exceeds grid(f)'s maximum; a row that
    # could overflow somewhere on the grid reads nan
    sampler = spectraltest._BoundarySampler(x)
    rng = np.random.default_rng(3)
    fs = [_random_rational(rng, 0.5j, 1.5, x) for _ in range(12)]
    fs.append(RationalFunction(num=(1.0, -0.5j, 0.25), den=(1.0,)))
    num = spectraltest._padded([f.num for f in fs])
    den = spectraltest._padded([f.den for f in fs])
    subs = sampler.sub_grid(num, den)
    grids = [sampler.fine, sampler.coarse] if sampler.comps is None else [
        pts for *_, pts in sampler.comps]
    for f, sub in zip(fs, subs):
        if sampler.comps is None:
            vals = np.abs(f(sampler.coarse))[::16]
        else:
            vals = np.concatenate([np.abs(f(pts))[::max(1, len(pts) // 256)] for pts in grids])
        assert sub == np.max(vals)
        assert sub <= sampler.grid(f)[0]
    huge = RationalFunction(num=(0.0, 0.0, 1e300), den=(1.0,))
    assert np.isnan(sampler.sub_grid(spectraltest._padded([huge.num]),
                                     spectraltest._padded([huge.den]))[0])


def test_stacked_norms_skip_only_singular_denominators():
    # q(A) = A - I is singular: the stacked solve fails, and the block is
    # solved one candidate at a time
    a = np.diag([1.0, 2.0]).astype(complex)
    dens = [(1.0,), (-1.0, 1.0), (-3.0, 1.0), (0.5, 0.0, 1.0)]
    fs = [RationalFunction(num=(1.0, 2.0), den=d) for d in dens]
    num = spectraltest._padded([f.num for f in fs])
    den = spectraltest._padded([f.den for f in fs])
    norms = spectraltest._stacked_norms(num, den, a)
    assert norms[1] is None
    for i in (0, 2, 3):
        assert norms[i] == op_norm(eval_rational(fs[i], a))


def test_kratio_estimate_on_unbounded_shapes_stays_below_k():
    # inner.mtx of tools/cli_reports.py; both shapes are spectral sets
    # (K = 1), and a polynomial of degree >= 1 is unbounded on them, so its
    # ratio over the boundary alone is no lower bound for K
    rng = np.random.default_rng(0)
    a = 0.6j * np.eye(5) + rng.standard_normal((5, 5)) * 0.4 / 20
    for literal in ("xdisk 1-2i 0.75", "halfplane 0.5 2"):
        x = parse_shape(literal)
        assert x.spectral_certificate(a).holds
        est = kratio_estimate(a, x, budget=100, seed=3)
        assert est.lower <= 1.0 + 1e-9, literal


def test_kratio_estimate_computes_each_candidates_poles_once(monkeypatch):
    seen = []  # the candidates themselves, so no id is reused
    poles = RationalFunction.poles

    def counting(self):
        seen.append(self)
        return poles(self)

    monkeypatch.setattr(RationalFunction, "poles", counting)
    rng = np.random.default_rng(32)
    a = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / 4.0
    budget = 60
    # fixed family: 1, z and the Moebius map; 1, z and the annulus pair
    for m, x, fixed in ((a, fit_ellipse(a), 3), (_annulus_matrix(1.3), Annulus(2.0), 4)):
        seen.clear()
        kratio_estimate(m, x, budget=budget, seed=5)
        assert 0 < len(seen) <= fixed + budget
        assert len({id(f) for f in seen}) == len(seen)


def _matched(stored, roots, tol):
    # each stored pole has a root within tol (relative to max(1, |pole|)),
    # and each root a stored pole
    d = np.abs(stored[:, None] - roots[None, :])
    scale = np.maximum(1.0, np.abs(stored))[:, None]
    return bool((d / scale).min(axis=1).max() <= tol and (d / scale).min(axis=0).max() <= tol)


@pytest.mark.parametrize("x", [
    Disk(0.3 - 0.2j, 1.7),
    ellipse(0.5j, 2.0, 1.0, 0.3),
    Annulus(2.0),
    HalfPlane(0.5, 2.0),
    ExteriorDisk(1 - 2j, 0.75),
    Polygon((1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j)),
], ids=["disk", "ellipse", "annulus", "halfplane", "xdisk", "polygon"])
def test_candidate_constructors_store_the_roots_of_den(x):
    rng = np.random.default_rng(11)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncatedBoundary)
        pts = boundary_sample(x, 256)
    center = complex(np.mean(pts))
    scale = float(np.max(np.abs(pts - center))) or 1.0
    fs = [_random_rational(rng, center, scale, x) for _ in range(40)]
    mobius = x.interior_mobius()
    if mobius is not None:
        for deg in range(1, 7):
            zeros = 0.95 * np.sqrt(rng.random(deg)) * np.exp(2j * np.pi * rng.random(deg))
            fs.append(_blaschke_through(mobius, zeros))
        fs.append(_blaschke_through(mobius, [0.0, 0.5]))
    if isinstance(x, Annulus):
        for big_r in (1.5, 2.0, 4.0):
            fs.extend(annulus_extremal_pair(big_r))
    assert sum(len(f.poles()) for f in fs) >= 20
    for f in fs:
        assert f._poles is not None
        roots = np.roots(np.asarray(f.den)[::-1]) if len(f.den) > 1 else np.empty(0)
        assert len(f.poles()) == len(roots) == len(f.den) - 1
        assert len(roots) == 0 or _matched(f.poles(), roots, 1e-9), f


def test_blaschke_poles_on_a_tiny_disk_are_exact():
    # the fitted disk of a 1 x 1 matrix has radius about 1e-9: the expanded
    # den is so ill-conditioned that rooting it misses the poles by ~4e-6,
    # far outside the disk's own size
    x = fit_ellipse([[0.3 + 0.2j]])
    assert isinstance(x, Disk) and x.radius < 1e-8
    zeros = np.array([0.5, -0.3 + 0.6j, 0.8j])
    f = _blaschke_through(x.interior_mobius(), zeros)
    want = x.center + x.radius / np.conj(zeros)  # M^{-1}(1 / conj(z0)), M = (z - c)/r
    assert len(f.poles()) == 3
    assert np.abs(f.poles() - want).max() <= 1e-15 * np.abs(want).max()


def test_kratio_estimate_never_roots_a_denominator(monkeypatch):
    calls = []
    roots = np.roots

    def spy(p):
        calls.append(p)
        return roots(p)

    monkeypatch.setattr(np, "roots", spy)
    rng = np.random.default_rng(12)
    a = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / 2.0
    ev = np.linalg.eigvals(a)
    c = complex(np.trace(a)) / 4
    shapes = [(a, Disk(c, 1.05 * numerical_radius(a - c * np.eye(4)))),
              (a, fit_ellipse(a)),
              (_annulus_matrix(1.3), Annulus(2.0)),
              (a, HalfPlane(0.0, float(np.max(ev.real)) + 0.5))]
    for m, x in shapes:
        est = kratio_estimate(m, x, budget=60, seed=4)
        assert est.lower >= 1.0
    assert calls == []


def _one_by_one_cases():
    # 1 x 1 matrices z in small shapes around them: the fitted disk of
    # [[z]] (radius about 1e-9 |z|), disks and ellipses of radius down to
    # 1e-8 |z|, at |z| in [0.1, 10]; then the two known cases
    rng = np.random.default_rng(1)
    cases = []
    for _ in range(40):
        z = 10 ** rng.uniform(-1, 1) * np.exp(2j * np.pi * rng.random())
        r = 10 ** rng.uniform(-8, -1) * abs(z)
        cases += [(z, fit_ellipse([[z]])),
                  (z, Disk(z + 0.3 * r * np.exp(2j * np.pi * rng.random()), r)),
                  (z, ellipse(z, r, 0.6 * r, rng.uniform(0, np.pi)))]
    seeds = [int(s) for s in rng.integers(1 << 31, size=len(cases))]
    z = -1.789803717097259 - 2.2386958258953946j
    c = 0.14809991959544655 - 1.2490116877668471j
    return ([(z, x, 40, s) for (z, x), s in zip(cases, seeds)]
            + [(z, fit_ellipse([[z]]), 100, 1472519070), (c, Disk(c, 1e-3), 100, 581753071)])


def test_kratio_estimate_on_a_1x1_matrix_never_exceeds_one():
    # ||f(A)|| = |f(z)| <= max over the boundary of |f| (maximum principle),
    # so no ratio exceeds 1; a candidate whose evaluation cannot be trusted
    # to _RATIO_TOL (an ill-conditioned monomial den on a small shape away
    # from 0) must not raise the bound, nor warn about the zero or non-finite
    # values it meets on the grid
    worst = (0.0,)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z, x, budget, seed in _one_by_one_cases():
            est = kratio_estimate([[z]], x, budget=budget, seed=seed)
            assert est.lower >= 1.0  # the constant 1
            worst = max(worst, (est.lower, z, x, seed), key=lambda w: w[0])
    assert worst[0] <= 1.0 + 1e-8, worst


def test_ratio_error_guard_does_not_bind_on_workload_shapes(monkeypatch):
    # fitted ellipses and disks around Ginibre matrices, n = 2-8: every
    # candidate that reaches the guard is trusted to far better than
    # _RATIO_TOL, so the guard changes no result there
    seen = []
    guard = spectraltest._ratio_error

    def recording(*args):
        seen.append(guard(*args))
        return seen[-1]

    monkeypatch.setattr(spectraltest, "_ratio_error", recording)
    rng = np.random.default_rng(2024)
    for n in range(2, 9):
        a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
        c = complex(np.trace(a)) / n
        for x in (fit_ellipse(a), Disk(c, 1.05 * numerical_radius(a - c * np.eye(n)))):
            kratio_estimate(a, x, budget=100, seed=int(rng.integers(1 << 31)))
    assert len(seen) >= 14
    assert max(seen) <= 1e-2 * spectraltest._RATIO_TOL


# -------------------------------------------------------------------- vn_fuzz

def test_vn_fuzz_no_violations():
    cert = vn_fuzz(trials=300, n_max=8, degree_max=4, seed=3)
    assert cert.holds
    assert cert.margin >= 0.0
    assert set(cert.witness) == {"trial", "matrix", "function", "norm"}
    assert cert.witness["norm"] <= 1.0 + 1e-8


def test_vn_fuzz_deterministic():
    c1 = vn_fuzz(trials=50, n_max=6, degree_max=3, seed=9)
    c2 = vn_fuzz(trials=50, n_max=6, degree_max=3, seed=9)
    assert c1.margin == c2.margin
    assert c1.witness == c2.witness


def test_blaschke_of_unitary_has_unit_norm():
    rng = np.random.default_rng(4)
    u = np.diag(np.exp(2j * np.pi * rng.random(5)))
    f = RationalFunction.blaschke([0.3, -0.2 + 0.4j, 0.1j])
    assert op_norm(eval_rational(f, u)) == pytest.approx(1.0, abs=1e-9)


def test_schwarz_pick_unit_norm_2x2():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = 0.9 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        c = 0.9 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        b = np.sqrt((1 - abs(a) ** 2) * (1 - abs(c) ** 2))
        m = np.array([[a, b], [0.0, c]])
        assert op_norm(m) == pytest.approx(1.0, abs=1e-12)
