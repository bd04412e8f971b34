import math
import warnings

import numpy as np
import pytest

from spectral_kit.domains import Disk, Ellipse, Interval, contains, \
    exterior_map, signed_margin
from spectral_kit.krylov import (MarkovFunction, arnoldi, fab_poly,
                                 fab_rational, fit_ellipse, gmres_fom,
                                 lens_asymptotic_factor, markov_discretize,
                                 markov_eval, markov_matfun, pade_markov,
                                 pade_matrix_bound, rational_krylov)
from spectral_kit import numrange
from spectral_kit.matrixcore import eval_poly, eval_rational, \
    matfun_reference, op_norm
from spectral_kit.numrange import _extreme_eigenpairs, _herm_parts, hermitian_eigmax, \
    numerical_radius, support_profile


def _random(n, rng, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a * scale


# ---------------------------------------------------------------------------
# arnoldi

def test_arnoldi_eigenvector_breakdown():
    a = np.diag([2.0, -1.0, 0.5])
    b = np.array([0.0, 1.0, 0.0])
    dec = arnoldi(a, b, 3)
    assert dec.exact
    assert dec.order == 1
    assert abs(dec.h[0, 0] - (-1.0)) < 1e-12


def test_arnoldi_full_space_similarity():
    rng = np.random.default_rng(0)
    a = _random(6, rng)
    dec = arnoldi(a, rng.standard_normal(6), 6)
    got = np.sort_complex(np.linalg.eigvals(dec.h))
    want = np.sort_complex(np.linalg.eigvals(a))
    assert np.allclose(got, want, atol=1e-8)


def test_arnoldi_orthogonality_and_relation():
    rng = np.random.default_rng(1)
    a = _random(40, rng)
    b = rng.standard_normal(40)
    dec = arnoldi(a, b, 5)
    gram = dec.v.conj().T @ dec.v
    assert op_norm(gram - np.eye(5), 2) <= 1e-12
    # Arnoldi relation A V = V H + h_{m+1,m} v_{m+1} e_m^*
    lhs = a @ dec.v
    rhs = dec.v @ dec.h
    rhs[:, -1] += dec.next_h * dec.next_v
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-10 * op_norm(a, 2)
    # H exactly Hessenberg by construction
    assert np.all(np.tril(dec.h, -2) == 0)


def test_arnoldi_rejects_zero_vector():
    with pytest.raises(ValueError):
        arnoldi(np.eye(3), np.zeros(3), 2)


# ---------------------------------------------------------------------------
# fab_poly

def test_fab_poly_polynomial_exact():
    rng = np.random.default_rng(2)
    a = _random(12, rng, 0.4)
    b = rng.standard_normal(12)

    coeffs = np.array([1.0, -2.0, 0.0, 0.5])  # degree 3

    def f(z):
        return 1.0 - 2.0 * z + 0.5 * z ** 3

    y, report = fab_poly(a, b, 4, f, e=Disk(0.0, 6.0))
    want = eval_poly(coeffs, a) @ b
    assert np.linalg.norm(y - want) <= 1e-10 * np.linalg.norm(want)


def test_fab_poly_exp_disk_bound():
    rng = np.random.default_rng(3)
    a = _random(10, rng)
    a *= 0.98 / numerical_radius(a)  # W(A) inside disk(0,1)
    b = rng.standard_normal(10)
    y, report = fab_poly(a, b, 8, np.exp, e=Disk(0.0, 1.0))
    err = np.linalg.norm(matfun_reference(a, np.exp) @ b - y) \
        / np.linalg.norm(b)
    assert report.contained
    # 4 * sum_{j>=8} 1/j! = 1.115e-4
    assert 1.0e-4 < report.bound_faber < 1.2e-4
    assert err <= report.bound_faber
    assert report.bound_crouzeix >= report.bound_faber


def test_fab_poly_full_space_exact():
    rng = np.random.default_rng(4)
    a = _random(6, rng, 0.5)
    b = rng.standard_normal(6)
    y, _ = fab_poly(a, b, 6, np.exp, e=Disk(0.0, 4.0))
    want = matfun_reference(a, np.exp) @ b
    assert np.linalg.norm(y - want) <= 1e-9 * np.linalg.norm(want)


def test_fab_poly_omits_bounds_outside_shape():
    rng = np.random.default_rng(5)
    a = _random(8, rng)
    b = rng.standard_normal(8)
    y, report = fab_poly(a, b, 3, np.exp, e=Disk(0.0, 1e-3))
    assert not report.contained
    assert report.bound_faber is None and report.bound_crouzeix is None
    assert np.all(np.isfinite(y))


def test_fab_poly_autofit_bound_holds():
    rng = np.random.default_rng(6)
    for _ in range(5):
        a = _random(8, rng, 0.6)
        b = rng.standard_normal(8)
        y, report = fab_poly(a, b, 6, np.exp)
        assert report.contained
        err = np.linalg.norm(matfun_reference(a, np.exp) @ b - y) \
            / np.linalg.norm(b)
        assert err <= report.bound_faber + 1e-12


# ---------------------------------------------------------------------------
# fit_ellipse

def test_fit_ellipse_contains_numerical_range():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = _random(6, rng)
        e = fit_ellipse(a)
        prof = support_profile(a, 97)
        emap = exterior_map(e)
        amaj = abs(emap.c1) + abs(emap.cm1)
        bmin = abs(emap.c1) - abs(emap.cm1)
        rot = 0.5 * (np.angle(emap.c1) + np.angle(emap.cm1))
        t = prof.thetas - rot
        h = np.real(np.exp(-1j * prof.thetas) * emap.c0) + np.sqrt(
            (amaj * np.cos(t)) ** 2 + (bmin * np.sin(t)) ** 2)
        assert np.max(prof.values - h) <= 1e-8


def test_fit_ellipse_hermitian_gives_interval():
    a = np.diag([0.0, 1.0, 3.0])
    e = fit_ellipse(a)
    assert e.kind == "interval"
    assert abs(e.z1 - 0.0) < 1e-6 and abs(e.z2 - 3.0) < 1e-6


@pytest.mark.parametrize("n", [2, 5, 12, 30])
def test_fit_ellipse_hermitian_interval_is_the_spectral_hull(n):
    # W(A) of Hermitian A is [lambda_min, lambda_max], and the fitted
    # interval is that segment, grown about its midpoint only by the
    # documented rounding allowance 1 + 1e-9, not a longer one
    rng = np.random.default_rng(90 + n)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = g + g.conj().T
    lam = np.linalg.eigvalsh(a)
    mid, half = (lam[-1] + lam[0]) / 2.0, (lam[-1] - lam[0]) / 2.0 * (1.0 + 1e-9)
    e = fit_ellipse(a)
    assert e.kind == "interval"
    ends = sorted((e.z1, e.z2), key=lambda z: z.real)
    scale = float(np.abs(lam).max())
    assert abs(ends[0] - (mid - half)) <= 1e-12 * scale
    assert abs(ends[1] - (mid + half)) <= 1e-12 * scale


def test_fit_ellipse_not_wasteful():
    # a disk-like numerical range should not be enclosed much larger
    a = np.array([[0.0, 2.0], [0.0, 0.0]])  # W(A) = disk(0,1)
    e = fit_ellipse(a)
    assert e.kind == "ellipse"
    assert e.a <= 1.02 and e.b <= 1.02


def _support_excess(a, e, count=8192):
    # max over `count` angles of p_A - h_E, the support of W(A) above E's,
    # with p_A from stacked eigvalsh (in chunks of 512 angles), not from the
    # library's eigenpair kernel
    mat = np.asarray(a, dtype=complex)
    herm, skew = (mat + mat.conj().T) / 2.0, (mat - mat.conj().T) * -0.5j
    thetas = 2.0 * np.pi * np.arange(count) / count
    p = np.concatenate([
        np.linalg.eigvalsh(np.cos(t)[:, None, None] * herm
                           + np.sin(t)[:, None, None] * skew)[:, -1]
        for t in np.split(thetas, count // 512)])
    emap = exterior_map(e)
    h = np.real(np.exp(-1j * thetas) * emap.c0) + emap.support_about_center(thetas)
    return float(np.max(p - h))


def test_fit_ellipse_contains_numerical_range_between_grid_angles():
    # W(A) may bulge past a sampled inflation between its angles; the
    # outer polygon covers those arcs too
    rng = np.random.default_rng(7)
    for n in (4, 6, 12, 30):
        a = _random(n, rng)
        assert _support_excess(a, fit_ellipse(a)) <= 0.0


def test_fit_ellipse_sweeps_at_most_256_plus_64_angles(monkeypatch):
    rng = np.random.default_rng(7)
    for n in (4, 6, 12, 30):  # the n = 30 matrix of the test above
        a = _random(n, rng)
    requests = []

    def counting(m, thetas):
        # each angle t is solved at t and t + pi: a pair counts twice
        requests.append(2 * len(thetas))
        return _extreme_eigenpairs(m, thetas)

    monkeypatch.setattr(numrange, "_extreme_eigenpairs", counting)
    numrange._PROFILE_MEMO.clear()
    fit_ellipse(a)
    assert requests[0] == 256
    assert sum(requests) <= 256 + 64


@pytest.mark.parametrize("eps", [1e-13, 1e-11])
def test_fit_ellipse_nearly_hermitian_stays_thin(eps):
    # W(A) is a sliver of width ~eps around [0, 3]: neither an interval,
    # which misses its width, nor thousands of times longer
    rng = np.random.default_rng(0)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    skew = eps * (g + g.conj().T)
    a = np.diag([0.0, 1.0, 3.0]) + 1j * skew
    e = fit_ellipse(a)
    assert _support_excess(a, e) <= 0.0
    ev = np.linalg.eigvalsh(skew)
    emap = exterior_map(e)
    assert abs(emap.c1) + abs(emap.cm1) <= 1.5 * (1.0 + 1e-6) + (ev[-1] - ev[0])


def _fit_ellipse_reference(a, n_grid=256):
    # the scalar fit: fresh profiles from the library's extreme-eigenpair
    # kernel (no memo), the dual pivot run one rotation angle at a time (the
    # arithmetic fit_ellipse runs on all rows together), and the
    # outer-polygon inflation one vertex at a time
    mat = np.asarray(a, dtype=complex)

    def sweep(thetas, ends=1):
        # the top end of each angle, then with ends=2 the bottom ends, which
        # are the top ends at the angles + pi
        vals, w = _extreme_eigenpairs(mat, thetas)
        vals, w = np.concatenate(vals[:ends]), np.concatenate(w[:ends])
        return vals, np.einsum("ki,ij,kj->k", np.conj(w), mat, w)

    def least_area(a, b):
        # min over s in [-40, 40] of max_k (a_k e^s + b_k e^-s), with its s,
        # from the best dual point (A, B): a pair of points and the best
        # point on their segment, moved each round toward the piece active
        # at s = log(B/A) / 2, until 2 sqrt(A B) meets the area there
        def segment(k, l):
            da, db = a[l] - a[k], b[l] - b[k]
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.clip(np.nan_to_num(-(da * b[k] + db * a[k]) / (2.0 * da * db)), 0.0, 1.0)
            inner, end = ((np.sqrt(a[k] + w * da) * np.sqrt(b[k] + w * db), a[k] + w * da,
                           b[k] + w * db, k, l) for w in (t, 1.0))
            return end if end[0] > inner[0] else inner

        best = segment(*[int(np.argmax(np.sqrt(a) * np.sqrt(b)))] * 2)
        upper, log_r = np.inf, 0.0
        for _ in range(64):
            value, big_a, big_b, i, j = best
            with np.errstate(divide="ignore", invalid="ignore"):
                s = np.clip(np.nan_to_num(0.5 * (np.log(big_b) - np.log(big_a))), -40.0, 40.0)
            area = a * np.exp(s) + b * np.exp(-s)
            m = int(np.argmax(area))
            if area[m] < upper:
                upper, log_r = area[m], s
            for cand in (segment(i, m), segment(j, m)):
                if cand[0] > best[0]:
                    best = cand
            if upper - 2.0 * best[0] <= 4.0 * np.finfo(float).eps * upper or best[0] <= value:
                break
        return upper, log_r

    grid = 2.0 * np.pi * np.arange(n_grid) / n_grid
    grid_values, pts = sweep(grid[:n_grid // 2], ends=2)
    fits = []
    for t in np.linspace(0.0, np.pi / 2.0, 90, endpoint=False):
        q = pts * np.exp(-1j * t)
        cx = (q.real.max() + q.real.min()) / 2.0
        cy = (q.imag.max() + q.imag.min()) / 2.0
        dx, dy = q.real - cx, q.imag - cy
        area, log_r = least_area(dx ** 2, dy ** 2)
        fits.append((area, t, cx, cy, float(np.exp(log_r))))
    least = min(fit[0] for fit in fits)
    _, t, cx, cy, r = next(fit for fit in fits if fit[0] <= (1.0 + 1e-12) * least)
    q = pts * np.exp(-1j * t)
    ax = float(np.sqrt(np.max((q.real - cx) ** 2 + ((q.imag - cy) / r) ** 2)))
    ay = r * ax
    center = complex(np.exp(1j * t) * (cx + 1j * cy))
    if ay > ax:
        ax, ay = ay, ax
        t += np.pi / 2.0
    t = float(np.mod(t, np.pi))
    u = np.exp(1j * t)
    kind = "ellipse"
    if ax <= 1e-12 * (1.0 + abs(center)):
        ax = ay = 1e-9 * (1.0 + abs(center))
        kind = "disk"
    elif ay <= 1e-10 * ax:
        # the bounding box of W(A) in the fitted frame, or its long midline
        right, top, left, bottom = hermitian_eigmax(
            _herm_parts(mat, t + np.pi / 2.0 * np.arange(4))).tolist()
        if top + bottom <= 64.0 * np.finfo(float).eps * float(np.linalg.norm(mat)):
            kind = "interval"
        center = complex(u * complex(right - left, top - bottom) / 2.0)
        ax = (right + left) / 2.0
        ay = float(np.sqrt(ax * max(top + bottom, 0.0) / 2.0))

    def gauge(z):
        dx, dy = z.real - center.real, z.imag - center.imag
        x = (dx * u.real + dy * u.imag) / ax
        if kind == "interval":
            return abs(x)
        y = (dy * u.real - dx * u.imag) / ay
        return math.sqrt(x * x + y * y)

    # outer polygon: vertex k is where the support lines at thetas[k] and
    # thetas[k + 1] meet, clipped to lie on line k at most |z_{k+1} - z_k|
    # ahead of the contact point z_k; bisect each interval whose vertex
    # gauge exceeds 1 and the best Rayleigh point's by 1e-9 relative and
    # is in the upper half of the excess, while the angles stay within 512
    thetas, values, points = list(grid), list(grid_values), list(pts)
    lower = max(gauge(z) for z in points)
    while True:
        count = len(thetas)
        gauges = []
        for k in range(count):
            j = (k + 1) % count
            turn = np.exp(1j * thetas[k])
            gap = np.exp(1j * np.mod(thetas[j] - thetas[k], 2.0 * np.pi))
            along = (values[j] - values[k] * gap.real) / gap.imag
            start = points[k].imag * turn.real - points[k].real * turn.imag
            dx = points[j].real - points[k].real
            dy = points[j].imag - points[k].imag
            along = min(max(along, start), start + math.sqrt(dx * dx + dy * dy))
            gauges.append(gauge(complex(values[k] * turn.real - along * turn.imag,
                                        values[k] * turn.imag + along * turn.real)))
        upper = max(gauges)
        mids = []
        for k, g in enumerate(gauges):
            end = thetas[k + 1] if k + 1 < count else 2.0 * np.pi + thetas[0]
            mid = (thetas[k] + end) / 2.0
            if g > max(1.0, lower * (1.0 + 1e-9)) and g - lower >= (upper - lower) / 2.0 \
                    and thetas[k] < mid < end:
                mids.append((k, mid))
        if not mids or count + len(mids) > 512:
            break
        new_values, new_points = sweep(np.array([mid for _, mid in mids]))
        lower = max([lower] + [gauge(z) for z in new_points])
        for (k, mid), v, z in reversed(list(zip(mids, new_values, new_points))):
            thetas.insert(k + 1, mid)
            values.insert(k + 1, v)
            points.insert(k + 1, z)
    lam = max(max(upper, lower) * (1.0 + 1e-9), 1.0 + 1e-12)
    if kind == "disk":
        return Disk(center, lam * ax)
    if kind == "interval":
        return Interval(center - lam * ax * u, center + lam * ax * u)
    return Ellipse(center, lam * ax, lam * ay, rotation=t)


def test_fit_ellipse_matches_scalar_reference_exactly():
    rng = np.random.default_rng(21)
    mats = [_random(n, rng) for n in (1, 2, 3, 8, 24)]
    h = _random(5, rng)
    mats.append(h + h.conj().T)  # Hermitian: W(A) is a segment
    for a in mats:
        want = _fit_ellipse_reference(a)
        got = fit_ellipse(a)
        assert type(got) is type(want)
        assert got == want


def _aspect_audit_cases():
    # complex and real Ginibre, near-circular W(A) (Jordan blocks nudged by
    # 1e-3 and 1e-6, where many rotations nearly tie) and Hermitian A
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 16, 20, 24):
        for _ in range(6):
            yield _random(n, rng)
        for _ in range(6):
            yield rng.standard_normal((n, n))
        for eps in (1e-3, 1e-6):
            for _ in range(4):
                yield np.exp(2j * rng.random()) * np.eye(n, k=1) + eps * _random(n, rng)
        h = _random(n, rng)
        yield h + h.conj().T


def test_fit_ellipse_pruned_aspect_search_is_bit_identical(monkeypatch):
    # the aspect pivot runs only on the rotations whose area bounds let
    # them come first; against every one of the 180, each fit is == the same
    from spectral_kit import krylov
    cases = list(_aspect_audit_cases())
    assert len(cases) >= 300
    pruned = [fit_ellipse(a) for a in cases]
    monkeypatch.setattr(krylov, "_may_come_first",
                        lambda lower, upper: np.ones(len(lower), dtype=bool))
    for a, got in zip(cases, pruned):
        want = fit_ellipse(a)
        assert type(got) is type(want)
        assert got == want


def test_fit_ellipse_runs_no_golden_search(monkeypatch):
    # each rotation's least area comes from the pivot, not from a search
    calls = []
    zoom = numrange._zoom_max

    def spy(fun, *args):
        calls.append(args)
        return zoom(fun, *args)

    monkeypatch.setattr(numrange, "_zoom_max", spy)
    rng = np.random.default_rng(33)
    for n in (3, 8, 24):
        fit_ellipse(_random(n, rng))
    assert calls == []


def test_aspect_pivot_least_areas_are_the_brute_force_minima(monkeypatch):
    # min over s in [-40, 40] of F(s) = max_k (a_k e^s + b_k e^-s) lies at a
    # piece's stationary point, where two pieces cross, or at an end
    from spectral_kit import krylov
    monkeypatch.setattr(krylov, "_may_come_first",
                        lambda lower, upper: np.ones(len(lower), dtype=bool))
    rng = np.random.default_rng(41)
    for k in (1, 2, 3, 4, 6):
        a, b = rng.random((40, k)), rng.random((40, k))
        a[0], b[1], a[2, 0] = 0.0, 0.0, 0.0  # the aspect runs to an end
        b[3] = 1e-9 * b[3]
        area, log_r = krylov._aspect_rows(a, b)
        for j in range(len(a)):
            with np.errstate(divide="ignore", invalid="ignore"):
                cross = (b[j][None, :] - b[j][:, None]) / (a[j][:, None] - a[j][None, :])
                ss = np.concatenate([0.5 * np.log(b[j] / a[j]), 0.5 * np.log(cross.ravel()),
                                     [-40.0, 40.0]])
            ss = np.clip(ss[np.isfinite(ss)], -40.0, 40.0)
            brute = np.min(np.max(a[j] * np.exp(ss)[:, None] + b[j] * np.exp(-ss)[:, None],
                                  axis=1))
            assert area[j] == pytest.approx(brute, rel=1e-13, abs=0.0)
            assert -40.0 <= log_r[j] <= 40.0
            assert area[j] == np.max(a[j] * np.exp(log_r[j]) + b[j] * np.exp(-log_r[j]))


def _cli_spd_fixture():
    # the spd.mtx matrix of the tests/test_cli.py workdir fixture
    rng = np.random.default_rng(0)
    rng.standard_normal((5, 5))
    rng.standard_normal(5)
    return np.eye(5) * 3 + rng.standard_normal((5, 5)) * 0.3


def test_fit_ellipse_rotation_survives_last_bit_changes():
    # for real A an ellipse and its mirror image have equal area; the first
    # rotation of least area wins, whatever the rounding of the points
    rng = np.random.default_rng(51)
    mats = [rng.standard_normal((n, n)) for n in (3, 4, 5, 6, 7, 8) for _ in range(3)]
    for a in mats + [_cli_spd_fixture()]:
        want, got = fit_ellipse(a), fit_ellipse(a * (1.0 + 2.0 ** -52))
        assert type(got) is type(want)
        if type(want) is Ellipse:
            assert got.rotation == want.rotation
        else:
            assert np.angle(got.z2 - got.z1) == np.angle(want.z2 - want.z1)


@pytest.mark.parametrize("scale", [1e150, 1e200])
def test_fit_ellipse_at_huge_scale_is_the_scaled_fit(scale):
    # the aspect step squares the point offsets and divides them by r down
    # to e^-40, which overflowed: 1e150 G raised "ellipse needs a >= b > 0"
    # and 1e200 G came back as an interval around a W(A) with interior
    rng = np.random.default_rng(0)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    unit = fit_ellipse(g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the outer vertices' clip overflowed
        e = fit_ellipse(scale * g)
    assert type(e) is Ellipse
    assert e.a == pytest.approx(scale * unit.a, rel=1e-12)
    assert e.b == pytest.approx(scale * unit.b, rel=1e-12)
    assert abs(e.center - scale * unit.center) <= 1e-12 * scale * unit.a
    assert e.rotation == unit.rotation
    if scale == 1e150:
        assert _support_excess(scale * g, e) <= 0.0


def test_fit_ellipse_hermitian_interval_at_huge_scale():
    # the interval branch reads the exact bounding box from 2 x 2 closed
    # forms, which squared entries: at 1e160 its ends were nan
    h = np.array([[1.0, 0.3], [0.3, -2.0]])
    unit = fit_ellipse(h)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = fit_ellipse(1e160 * h)
    assert type(unit) is type(e) is Interval
    for got, want in ((e.z1, unit.z1), (e.z2, unit.z2)):
        assert abs(got - 1e160 * want) <= 1e-14 * 1e160 * abs(want)


# ---------------------------------------------------------------------------
# rational_krylov

def test_rational_krylov_empty_poles_is_arnoldi_start():
    rng = np.random.default_rng(8)
    a = _random(5, rng)
    b = rng.standard_normal(5)
    dec = rational_krylov(a, b, [])
    ref = arnoldi(a, b, 1)
    assert dec.order == 1
    assert np.allclose(dec.v, ref.v, atol=1e-12)
    assert np.allclose(dec.h, ref.h, atol=1e-12)


def test_rational_krylov_inf_poles_match_arnoldi():
    rng = np.random.default_rng(9)
    a = _random(12, rng)
    b = rng.standard_normal(12)
    dec = rational_krylov(a, b, [np.inf] * 4)
    ref = arnoldi(a, b, 5)
    # one loop builds both bases; H is V*AV here and the recurrence's there
    assert np.array_equal(dec.v, ref.v)
    assert np.allclose(dec.h, ref.h, atol=1e-8)
    assert np.max(np.abs(np.tril(dec.h, -2))) < 1e-10


def test_rational_krylov_single_pole_span():
    rng = np.random.default_rng(10)
    a = _random(6, rng)
    b = rng.standard_normal(6).astype(complex)
    z1 = 5.0 + 2.0j
    dec = rational_krylov(a, b, [z1])
    w = np.linalg.solve(a - z1 * np.eye(6), b)
    stacked = np.column_stack([dec.v, b, w])
    rank = np.linalg.matrix_rank(stacked, tol=1e-8 * np.abs(stacked).max())
    assert dec.order == 2
    assert rank == 2


def test_rational_krylov_span_matches_definition():
    # q(A)^{-1} span{b, Ab, A^2 b} with mixed finite/infinite poles
    rng = np.random.default_rng(11)
    a = _random(7, rng)
    b = rng.standard_normal(7).astype(complex)
    poles = [4.0, np.inf, -3.0 + 1.0j]
    dec = rational_krylov(a, b, poles)
    qa = (a - 4.0 * np.eye(7)) @ (a - (-3.0 + 1.0j) * np.eye(7))
    kry = np.column_stack([np.linalg.matrix_power(a, j) @ b for j in range(4)])
    ref = np.linalg.solve(qa, kry)
    stacked = np.column_stack([dec.v, ref])
    rank = np.linalg.matrix_rank(stacked, tol=1e-8 * np.abs(stacked).max())
    assert dec.order == 4
    assert rank == 4
    gram = dec.v.conj().T @ dec.v
    assert op_norm(gram - np.eye(4), 2) <= 1e-10


def test_rational_krylov_pole_on_spectrum_errors():
    a = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(RuntimeError, match="pole"):
        rational_krylov(a, np.ones(3), [2.0])


# ---------------------------------------------------------------------------
# Markov functions

def test_markov_eval_examples():
    f1 = MarkovFunction.from_atoms(0.0, [(-1.0, 1.0)])
    assert abs(markov_eval(f1, 1.0) - 0.5) < 1e-15
    f2 = MarkovFunction.from_atoms(0.0, [(-2.0, 1.0)])
    assert abs(markov_eval(f2, 0.0) - 0.5) < 1e-15
    f3 = MarkovFunction.from_atoms(0.0, [(-1.0, 1.0), (-3.0, 1.0)])
    assert abs(markov_eval(f3, 1.0) - 0.75) < 1e-15


def test_markov_eval_on_support_errors():
    f = MarkovFunction.from_atoms(0.0, [(-2.0, 1.0), (-1.0, 1.0)])
    with pytest.raises(ValueError):
        markov_eval(f, -1.5)


def test_markov_validation():
    with pytest.raises(ValueError):
        MarkovFunction(c=0.0, atoms=((-1.0, -2.0),), alpha=-2.0, beta=0.0)
    with pytest.raises(ValueError):
        MarkovFunction(c=0.0, atoms=((5.0, 1.0),), alpha=-2.0, beta=0.0)


def test_markov_discretize_log_kernel():
    # density 1 on [-3,-2]: f(z) = log((z+3)/(z+2))
    f = markov_discretize(lambda x: 1.0, -3.0, -2.0, 24)
    assert all(w > 0 for _, w in f.atoms)
    total = sum(w for _, w in f.atoms)
    assert abs(total - 1.0) < 5e-3
    want = np.log(4.0 / 3.0)
    assert abs(markov_eval(f, 1.0) - want) < 1e-3


# ---------------------------------------------------------------------------
# Pade

def test_pade_single_atom_exact():
    f = MarkovFunction.from_atoms(0.0, [(-2.0, 1.5)])
    pq = pade_markov(f, 0, 1)
    for z in [1.0, 0.5j, -0.2, 3.0 + 1.0j]:
        assert abs(pq(z) - markov_eval(f, z)) < 1e-12


def test_pade_m_atoms_exact_reproduction():
    f = MarkovFunction.from_atoms(0.5, [(-1.0, 0.3), (-2.0, 1.0), (-4.0, 0.7)])
    pq = pade_markov(f, 3, 3)  # [3|3] >= type (2,3) of f - c... numerator deg 3
    for z in [1.0, 0.5j, 2.0 - 1.0j]:
        assert abs(pq(z) - markov_eval(f, z)) < 1e-9


def test_pade_log_measure_roots_in_support():
    f = markov_discretize(lambda x: 1.0, -3.0, -2.0, 20)
    pq = pade_markov(f, 3, 4)
    roots = np.roots(np.asarray(pq.den)[::-1])
    assert np.max(np.abs(roots.imag)) < 1e-8
    assert np.all(roots.real > -3.0 - 1e-6)
    assert np.all(roots.real < -2.0 + 1e-6)


def test_pade_preconditions():
    f = MarkovFunction.from_atoms(0.0, [(-2.0, 1.0), (-1.0, 1.0)])
    with pytest.raises(ValueError, match="k >= m-1"):
        pade_markov(f, 0, 2)
    with pytest.raises(ValueError, match="limited to 8"):
        pade_markov(f, 9, 9)
    bad = MarkovFunction.from_atoms(0.0, [(-1.0, 1.0), (1.0, 1.0)])
    with pytest.raises(ValueError, match="expansion point"):
        pade_markov(bad, 1, 1)
    with pytest.raises(ValueError, match="degenerate"):
        pade_markov(MarkovFunction.from_atoms(0.0, [(-2.0, 1.0)]), 1, 2)


def test_pade_error_sign_from_integral_representation():
    # sign of (f - p/q)(z) for z > 0 is (-1)^(k+m+1): the representation has
    # z^(k+m+1)/q(z)^2 times an integral whose integrand keeps one sign
    rng = np.random.default_rng(12)
    for _ in range(100):
        n_atoms = int(rng.integers(3, 7))
        xs = -1.0 - 2.0 * rng.random(n_atoms)
        ws = 0.1 + rng.random(n_atoms)
        f = MarkovFunction.from_atoms(0.0, list(zip(xs, ws)))
        m = int(rng.integers(1, min(4, n_atoms) + 1))
        k = m - 1 + int(rng.integers(0, 3))
        pq = pade_markov(f, k, m)
        z = 0.1 + 3.0 * rng.random()
        diff = (markov_eval(f, z) - complex(pq(z))).real
        if abs(diff) > 1e-13:
            assert np.sign(diff) == (-1.0) ** (k + m + 1)


def test_pade_matrix_bound_exact_case():
    f = MarkovFunction.from_atoms(0.0, [(-2.0, 1.0)])
    pq = pade_markov(f, 0, 1)
    a = np.array([[0.0, 0.5], [0.0, 0.0]])
    diff, bound = pade_matrix_bound(f, pq, a)
    assert op_norm(diff, 2) <= 1e-12
    assert bound <= 1e-12


def test_pade_matrix_bound_seeded():
    rng = np.random.default_rng(13)
    a = np.array([[0.0, 0.5], [0.0, 0.0]])  # w(A) = 0.25
    for _ in range(50):
        n_atoms = int(rng.integers(2, 6))
        xs = -2.0 - rng.random(n_atoms)
        ws = 0.1 + rng.random(n_atoms)
        f = MarkovFunction.from_atoms(0.0, list(zip(xs, ws)))
        pq = pade_markov(f, 1, 2)
        diff, bound = pade_matrix_bound(f, pq, a)
        assert op_norm(diff, 2) <= bound + 1e-14


def test_pade_matrix_bound_normal_case():
    rng = np.random.default_rng(14)
    f = markov_discretize(lambda x: 1.0, -3.0, -2.0, 12)
    for _ in range(10):
        w = 0.5
        eigs = w * np.sqrt(rng.random(5)) * np.exp(2j * np.pi * rng.random(5))
        a = np.diag(eigs)
        pq = pade_markov(f, 2, 2)
        diff, bound = pade_matrix_bound(f, pq, a)
        assert op_norm(diff, 2) <= bound + 1e-14


def test_pade_matrix_bound_hypothesis():
    f = MarkovFunction.from_atoms(0.0, [(-0.1, 1.0)])
    pq = pade_markov(f, 0, 1)
    a = np.array([[0.0, 0.5], [0.0, 0.0]])  # w(A) = 0.25 > -beta
    with pytest.raises(ValueError, match="beta"):
        pade_matrix_bound(f, pq, a)


# ---------------------------------------------------------------------------
# fab_rational

def _log_fixture(rng, n=8):
    f = markov_discretize(lambda x: 1.0, -3.0, -2.0, 20)
    a = _random(n, rng)
    a *= 0.9 / numerical_radius(a)
    b = rng.standard_normal(n)
    return f, a, b


def test_fab_rational_matching_pole_exact():
    rng = np.random.default_rng(15)
    f = MarkovFunction.from_atoms(0.0, [(-2.0, 1.0)])
    a = _random(6, rng)
    a *= 0.8 / numerical_radius(a)
    b = rng.standard_normal(6)
    y, report = fab_rational(a, b, [-2.0], f, Disk(0.0, 1.0))
    want = markov_matfun(f, a) @ b
    assert np.linalg.norm(y - want) <= 1e-8 * np.linalg.norm(want)


def test_fab_rational_error_within_bound():
    rng = np.random.default_rng(16)
    f, a, b = _log_fixture(rng)
    want = markov_matfun(f, a) @ b
    for poles in ([np.inf, np.inf], [-2.5, np.inf, -3.0], [-2.0, -2.5]):
        y, report = fab_rational(a, b, poles, f, Disk(0.0, 1.0))
        err = np.linalg.norm(y - want) / np.linalg.norm(b)
        assert err <= report.error_bound + 1e-12


def test_fab_rational_pole_at_alpha_beats_polynomial():
    rng = np.random.default_rng(17)
    f, a, b = _log_fixture(rng)
    _, rep_free = fab_rational(a, b, [np.inf] * 3, f, Disk(0.0, 1.0))
    _, rep_pole = fab_rational(a, b, [-3.0] * 3, f, Disk(0.0, 1.0))
    assert rep_pole.error_bound < rep_free.error_bound


def test_fab_rational_polefree_consistent_with_fab_poly():
    rng = np.random.default_rng(18)
    f, a, b = _log_fixture(rng)
    _, rep = fab_rational(a, b, [np.inf] * 3, f, Disk(0.0, 1.0))
    _, rep_poly = fab_poly(a, b, 4, f, e=Disk(0.0, 1.0))
    ratio = rep.error_bound / rep_poly.bound_faber
    assert 0.1 < ratio < 10.0


def test_fab_rational_geometry_errors():
    rng = np.random.default_rng(19)
    f, a, b = _log_fixture(rng)
    with pytest.raises(ValueError, match="symmetric"):
        fab_rational(a, b, [np.inf], f, Ellipse(0.0, 1.2, 0.8, rotation=0.3))
    with pytest.raises(ValueError, match="intersects"):
        fab_rational(a, b, [np.inf], f, Disk(0.0, 2.5))
    with pytest.raises(ValueError, match="inside the shape"):
        fab_rational(a, b, [0.5], f, Disk(0.0, 1.0))
    big = 10.0 * a
    with pytest.raises(ValueError, match="not contained"):
        fab_rational(big, b, [np.inf], f, Disk(0.0, 1.0))


# ---------------------------------------------------------------------------
# GMRES / FOM

def test_gmres_identity_converges_immediately():
    b = np.array([1.0, 2.0, -1.0])
    res = gmres_fom(np.eye(3), b, m=2)
    assert res.residual_ratios[1] <= 1e-14


def test_lens_factor_half_cosine():
    a = np.array([[1.0, 2.0 / 3.0], [0.0, 1.0]])  # dist/w = 0.5
    lens = lens_asymptotic_factor(a)
    assert abs(lens - 2.0 * np.sin(np.pi / 10.0)) < 1e-9
    assert lens < np.sin(np.pi / 3.0)
    res = gmres_fom(a, np.array([1.0, 1.0]))
    assert res.lens_factor is not None
    assert abs(res.lens_factor - lens) < 1e-12


def test_lens_factor_requires_definite_part():
    with pytest.raises(ValueError):
        lens_asymptotic_factor(np.array([[-1.0, 0.0], [0.0, 1.0]]))


def test_gmres_bound_curves_closed_form():
    # E = disk(3,1): F_j(0) = (-3)^j, phi(0) = -3, dist(0,E) = 2
    rng = np.random.default_rng(20)
    g = _random(4, rng)
    a = 3.0 * np.eye(4) + 0.9 * g / op_norm(g, 2)
    b = rng.standard_normal(4)
    res = gmres_fom(a, b, m=3, e=Disk(3.0, 1.0))
    want_faber = [1.0, 2.0 / 3.0, 2.0 / 9.0, 2.0 / 27.0]
    assert np.allclose(res.gmres_faber, want_faber, atol=1e-12)
    want_asym = [(2 + 1 / 3.0) / 3.0 ** j for j in range(4)]
    assert np.allclose(res.gmres_asym, want_asym, atol=1e-12)
    want_fom = [4.0 / 3.0 ** j / 2.0 for j in range(4)]
    assert np.allclose(res.fom_curve, want_fom, atol=1e-12)


def test_gmres_residual_within_faber_curve():
    # the curves need W(A) inside the shape, checked as fab_poly checks it:
    # at scale 1.4 the ellipse misses most W(A) and the curves are withheld
    # exactly then; at 0.95 it holds every W(A) and bounds every residual
    rng = np.random.default_rng(21)
    e = Ellipse(3.0, 1.5, 1.0)
    withheld = 0
    for scale in [1.4] * 50 + [0.95] * 20:
        n = int(rng.integers(3, 8))
        g = _random(n, rng)
        a = 3.0 * np.eye(n) + (scale / numerical_radius(g)) * g
        b = rng.standard_normal(n)
        res = gmres_fom(a, b, m=n, e=e)
        assert res.contained == fab_poly(a, b, 2, np.exp, e=e)[1].contained
        assert (res.gmres_faber is None) == (not res.contained)
        if res.contained:
            assert np.all(res.residual_ratios[: len(res.gmres_faber)]
                          <= res.gmres_faber + 1e-8)
        else:
            assert res.gmres_asym is None and res.fom_curve is None
            withheld += 1
        assert res.contained or scale > 1.0
    assert 0 < withheld < 50


def test_gmres_residuals_nonincreasing_and_fom_full():
    rng = np.random.default_rng(22)
    a = 2.0 * np.eye(7) + _random(7, rng, 0.3)
    b = rng.standard_normal(7)
    res = gmres_fom(a, b, m=7)
    r = res.residual_ratios
    assert np.all(r[1:] <= r[:-1] + 1e-12)
    assert res.fom_errors[-1] <= 1e-8


def test_fom_breakdown_skipped_and_flagged():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = np.array([1.0, 0.0])
    res = gmres_fom(a, b, m=2)
    assert 1 in res.fom_skipped
    assert np.isnan(res.fom_errors[1])
    assert res.fom_errors[2] <= 1e-12


def test_gmres_zero_rhs_returns_trivial_solution():
    res = gmres_fom(2.0 * np.eye(3), np.zeros(3))
    assert len(res.gmres_iterates) == 1 and not res.gmres_iterates[0].any()
    assert list(res.residual_ratios) == [0.0]
    assert list(res.fom_errors) == [0.0]


def test_gmres_singular_matrix_keeps_gmres_data():
    with pytest.warns(RuntimeWarning, match="singular"):
        res = gmres_fom(np.diag([1.0, 0.0]), np.ones(2))
    # A x = (x_1, 0) leaves the second entry of b unmatched
    assert np.allclose(res.residual_ratios, [1.0, np.sqrt(0.5), np.sqrt(0.5)], atol=1e-14)
    assert np.isnan(res.fom_errors).all()


def test_gmres_curves_none_when_zero_inside():
    rng = np.random.default_rng(23)
    a = _random(4, rng)
    res = gmres_fom(a, rng.standard_normal(4), m=3, e=Disk(0.0, 10.0))
    assert res.gmres_faber is None and res.fom_curve is None
