"""Counterexample gallery: named matrices with their printed values verified.

Every fixture is built from exact rationals and square roots, carries the
polynomial or function it is famous for, and stores the expected quantities
with an origin tag; :func:`verify` recomputes each quantity from the raw
matrices and never reads the stored value back into the computation.  The
dilation constructions (unitary completion of a contraction, shift-in-
circulant imbedding) and the randomized property suites live here as well
because they share the torus-sup and polynomial plumbing.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .domains import Annulus, Disk
from .matrixcore import (
    RationalFunction,
    _horner,
    _pnorm_ascent,
    as_matrix,
    eval_poly,
    eval_rational,
    op_norm,
)
from .numrange import _polish_peaks, numerical_radius, support_value, ws_radius
from .spectraltest import annulus_extremal_pair, sup_on_boundary

_SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# fixture records

@dataclass(frozen=True)
class Expected:
    """One verifiable quantity of a fixture.

    relation is the comparison verify() applies between the recomputed
    quantity and ``value``: "=" within tol, one-sided "<="/">=" with tol
    slack, or strict "<"/">".  origin says where the target comes from
    ("printed" for literature values, "derived" for closed forms obtained
    independently, "threshold" for bare inequality cutoffs).
    """

    quantity: str
    value: float
    origin: str
    tol: float
    relation: str = "="


@dataclass(frozen=True)
class GalleryFixture:
    """A named fixture with its expected rows and the function recomputing them.

    recompute(fixture) returns {quantity: value} for every quantity the
    expected rows name, computed from the matrices and payload alone.
    """

    name: str
    matrices: tuple
    payload: dict
    expected: tuple
    recompute: Callable
    notes: tuple = ()


@dataclass(frozen=True)
class CheckRow:
    quantity: str
    expected: float
    recomputed: float
    tol: float
    relation: str
    passed: bool


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of recomputing every expected quantity of one fixture."""

    name: str
    rows: tuple
    passed: bool
    notes: tuple = ()


# ---------------------------------------------------------------------------
# multivariate polynomial helpers (terms: {(e1, e2, e3): coeff})

def mv_polynomial_matrix(terms: dict, mats) -> np.ndarray:
    """Assemble p(A_1, ..., A_r) for a commuting tuple by direct expansion."""
    mats = [as_matrix(m) for m in mats]
    n = mats[0].shape[0]
    out = np.zeros((n, n), dtype=complex)
    for exps, coeff in terms.items():
        term = np.eye(n, dtype=complex)
        for m, e in zip(mats, exps):
            for _ in range(int(e)):
                term = term @ m
        out += complex(coeff) * term
    return out


def _mv_eval(terms: dict, angles):
    # |p(e^{i t1}, e^{i t2}, e^{i t3})|, broadcast over the three angle arrays
    z1, z2, z3 = (np.exp(1j * np.asarray(t, dtype=float)) for t in angles)
    val = 0j
    for (e1, e2, e3), coeff in terms.items():
        val = val + coeff * z1 ** e1 * z2 ** e2 * z3 ** e3
    return np.abs(val)


def torus_sup(terms: dict) -> float:
    """Sup of |p(z1, z2, z3)| over the unit 3-torus.

    A 48^3 coarse grid locates the dominant basin (a complete fine grid at
    200^3 points is out of budget), then three cyclic sweeps refine one
    phase at a time on a 200-point circle, finishing with two rounds of
    9-point zooms on each angle, 4x finer per round to a 1e-12 bracket.  A
    step is taken only when it raises |p|, so the result is never below the
    coarse grid's maximum.  The returned value is |p| at a point of the
    torus, a lower bound of the true sup up to rounding; for the gallery gap
    assertions an absolute accuracy near 1e-3 is already sufficient and the
    polish does far better.
    """
    th = 2.0 * np.pi * np.arange(48) / 48
    coarse = _mv_eval(terms, (th[:, None, None], th[None, :, None],
                              th[None, None, :]))
    idx = np.unravel_index(int(np.argmax(coarse)), coarse.shape)
    ang = [float(th[i]) for i in idx]
    best = float(coarse[idx])

    def along(ax, t):
        return _mv_eval(terms, ang[:ax] + [t] + ang[ax + 1:])

    grid = 2.0 * np.pi * np.arange(200) / 200
    for _ in range(3):
        for ax in range(3):
            vals = along(ax, grid)
            k = int(np.argmax(vals))
            if vals[k] > best:
                ang[ax], best = float(grid[k]), float(vals[k])
    for _ in range(2):
        for ax in range(3):
            x, fx = _polish_peaks(lambda t: along(ax, t), grid, [ang[ax]],
                                  [best], periodic=True)
            ang[ax], best = float(x[0]), float(fx[0])
    return best


def _max_commutator(mats) -> float:
    worst = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            worst = max(worst, float(np.linalg.norm(
                mats[i] @ mats[j] - mats[j] @ mats[i], 2)))
    return worst


def _disk_sup(coeffs, radius: float = 1.0) -> float:
    # max-modulus on |z| = radius: dense circle grid + 9-point zooms to 1e-12
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))

    def mod(t):
        return np.abs(np.polyval(c[::-1], radius * np.exp(1j * t)))

    ts = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
    vals = mod(ts)
    k = int(np.argmax(vals))
    _, refined = _polish_peaks(mod, ts, [ts[k]], [vals[k]], periodic=True)
    return float(refined[0])


# ---------------------------------------------------------------------------
# fixture constructions

def _varopoulos_terms() -> dict:
    return {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0,
            (1, 1, 0): -2.0, (1, 0, 1): -2.0, (0, 1, 1): -2.0}


def _varopoulos_triple():
    signs = {1: (1.0, -1.0, -1.0), 2: (-1.0, 1.0, -1.0), 3: (-1.0, -1.0, 1.0)}
    mats = []
    for i in (1, 2, 3):
        a = np.zeros((5, 5))
        a[i, 0] = 1.0
        a[4, 1:4] = np.asarray(signs[i]) / _SQRT3
        mats.append(a)
    return tuple(mats)


def _crabb_davie_terms() -> dict:
    return {(1, 1, 1): 1.0, (3, 0, 0): -1.0, (0, 3, 0): -1.0, (0, 0, 3): -1.0}


# basis actions (source -> (image, sign)), 1-indexed; signs follow the
# convention A(sign_in * e_src) = sign_out * e_dst unfolded to columns
_CRABB_ACTIONS = (
    {1: (2, 1.0), 2: (5, -1.0), 5: (8, 1.0), 3: (7, 1.0), 4: (6, 1.0)},
    {1: (3, 1.0), 3: (6, -1.0), 6: (8, 1.0), 2: (7, 1.0), 4: (5, 1.0)},
    {1: (4, 1.0), 4: (7, -1.0), 7: (8, 1.0), 2: (6, 1.0), 3: (5, 1.0)},
)


def _crabb_davie_triple():
    mats = []
    for action in _CRABB_ACTIONS:
        a = np.zeros((8, 8))
        for src, (dst, sign) in action.items():
            a[dst - 1, src - 1] = sign
        mats.append(a)
    return tuple(mats)


def jordan_block(n: int) -> np.ndarray:
    """Nilpotent Jordan block: ones on the first superdiagonal."""
    if n < 1:
        raise ValueError("dimension must be positive")
    return np.eye(n, k=1)


def bergman_block(n: int) -> np.ndarray:
    """Weighted nilpotent shift with superdiagonal sqrt(k/(k+1))."""
    if n < 1:
        raise ValueError("dimension must be positive")
    a = np.zeros((n, n))
    for k in range(1, n):
        a[k - 1, k] = math.sqrt(k / (k + 1.0))
    return a


def _default_parrott_pair():
    u = np.array([[0.0, 1.0], [1.0, 0.0]])
    v = np.array([[1.0, 0.0], [0.0, -1.0]])
    return u, v


def _parrott_triple(u: np.ndarray, v: np.ndarray):
    n = u.shape[0]
    zero = np.zeros((n, n))
    blocks = []
    for factor in (np.eye(n), u, v):
        blocks.append(np.block([[zero, zero], [factor, zero]]))
    return tuple(blocks)


def names() -> tuple:
    """Catalog keys accepted by build()/verify()."""
    return tuple(_CATALOG)


def build(name: str, **params) -> GalleryFixture:
    """Construct a gallery fixture by catalog name.

    The name may carry a literal parameter, e.g. ``"annulus(2)"`` or
    ``"jordan_nilpotent(5)"``; keyword parameters win over the literal.
    Unknown names raise ValueError.
    """
    m = re.fullmatch(r"\s*([a-z0-9_]+)\s*(?:\(([^)]*)\))?\s*", name.lower())
    if not m or m.group(1) not in _CATALOG:
        raise ValueError(f"unknown gallery fixture {name!r}")
    base, arg = m.groups()
    keyword, builder = _CATALOG[base]
    if arg is not None and arg.strip():
        if keyword is None:
            raise ValueError(f"fixture {base!r} takes no literal argument")
        params.setdefault(keyword, float(arg))
    return builder(**params)


def _build_hoelder1() -> GalleryFixture:
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    alpha = 0.5j
    f = RationalFunction(num=(alpha, 1.0), den=(1.0, np.conj(alpha)))
    image = np.array([[0.8j, 0.6], [0.6, 0.8j]])
    expected = (
        Expected("hoelder 1-norm of A", 1.0, "derived: column sums", 1e-15),
        Expected("unit-circle sup of f", 1.0, "derived: Blaschke factor", 1e-10),
        Expected("hoelder 1-norm of f(A)", 1.4, "printed", 1e-12),
        Expected("entrywise deviation from printed image", 0.0,
                 "printed", 1e-12, "<="),
    )
    return GalleryFixture(name="hoelder1", matrices=(a,),
                          payload={"function": f, "image": image},
                          expected=expected, recompute=_recompute_hoelder1)


def _recompute_hoelder1(fx: GalleryFixture) -> dict:
    a = fx.matrices[0]
    f = fx.payload["function"]
    fa = eval_rational(f, a)
    sup, _ = sup_on_boundary(f, Disk(0.0, 1.0))
    return {
        "hoelder 1-norm of A": op_norm(a, 1),
        "unit-circle sup of f": sup,
        "hoelder 1-norm of f(A)": op_norm(fa, 1),
        "entrywise deviation from printed image":
            float(np.max(np.abs(fa - fx.payload["image"]))),
    }


def _torus_triple_quantities(fx: GalleryFixture) -> dict:
    # the rows every commuting-contraction triple with a torus polynomial has
    mats = fx.matrices
    return {
        "max pairwise commutator norm": _max_commutator(mats),
        "max operator norm of the triple": max(op_norm(m, 2) for m in mats),
        "torus sup of p": torus_sup(fx.payload["terms"]),
    }


def _build_varopoulos() -> GalleryFixture:
    mats = _varopoulos_triple()
    terms = _varopoulos_terms()
    expected = (
        Expected("max pairwise commutator norm", 0.0, "derived", 0.0, "<="),
        Expected("max operator norm of the triple", 1.0,
                 "derived: orthogonal column images", 1e-12),
        Expected("torus sup of p", 5.0, "printed", 1e-2),
        Expected("norm of assembled p(A1,A2,A3)", 3.0 * _SQRT3,
                 "derived: single nonzero column 3*sqrt(3)*e5", 1e-12),
        Expected("norm of assembled p(A1,A2,A3)", 5.0, "threshold", 0.0, ">"),
    )
    return GalleryFixture(name="varopoulos", matrices=mats,
                          payload={"terms": terms}, expected=expected,
                          recompute=_recompute_varopoulos)


def _recompute_varopoulos(fx: GalleryFixture) -> dict:
    out = _torus_triple_quantities(fx)
    out["norm of assembled p(A1,A2,A3)"] = op_norm(
        mv_polynomial_matrix(fx.payload["terms"], fx.matrices), 2)
    return out


def _build_crabb_davie() -> GalleryFixture:
    mats = _crabb_davie_triple()
    terms = _crabb_davie_terms()
    expected = (
        Expected("max pairwise commutator norm", 0.0, "derived", 0.0, "<="),
        Expected("max operator norm of the triple", 1.0,
                 "derived: orthonormal-or-zero column images", 1e-12),
        Expected("norm of p(A1,A2,A3) at the first basis vector", 4.0,
                 "derived: chain composition gives 4*e8", 1e-12),
        Expected("torus sup of p", 3.99, "threshold", 0.0, "<"),
    )
    return GalleryFixture(name="crabb_davie", matrices=mats,
                          payload={"terms": terms}, expected=expected,
                          recompute=_recompute_crabb_davie)


def _recompute_crabb_davie(fx: GalleryFixture) -> dict:
    out = _torus_triple_quantities(fx)
    assembled = mv_polynomial_matrix(fx.payload["terms"], fx.matrices)
    out["norm of p(A1,A2,A3) at the first basis vector"] = float(
        np.linalg.norm(assembled[:, 0]))
    return out


def _build_parrott(u=None, v=None) -> GalleryFixture:
    if u is None or v is None:
        du, dv = _default_parrott_pair()
        u = du if u is None else u
        v = dv if v is None else v
    u = as_matrix(u)
    v = as_matrix(v)
    if u.shape != v.shape:
        raise ValueError("generating pair must share one dimension")
    mats = _parrott_triple(u, v)
    expected = (
        Expected("max pairwise commutator norm", 0.0,
                 "derived: all pair products vanish", 0.0, "<="),
        Expected("max operator norm of the triple", 1.0, "derived", 1e-12, "<="),
        Expected("unitarity defect of U", 0.0, "derived", 1e-12, "<="),
        Expected("commutator norm of the generating pair", 1e-8,
                 "threshold", 0.0, ">"),
    )
    notes = ("the triple satisfies every polynomial inequality of commuting "
             "contractions yet admits no commuting triple of strong unitary "
             "dilations; no finite computation certifies the non-existence, "
             "so it is recorded here as metadata only",)
    return GalleryFixture(name="parrott", matrices=mats,
                          payload={"u": u, "v": v}, expected=expected,
                          recompute=_recompute_parrott, notes=notes)


def _recompute_parrott(fx: GalleryFixture) -> dict:
    u, v = fx.payload["u"], fx.payload["v"]
    eye = np.eye(u.shape[0])
    return {
        "max pairwise commutator norm": _max_commutator(fx.matrices),
        "max operator norm of the triple": max(op_norm(m, 2)
                                               for m in fx.matrices),
        "unitarity defect of U": float(np.linalg.norm(
            u.conj().T @ u - eye, 2)),
        "commutator norm of the generating pair": float(np.linalg.norm(
            u @ v - v @ u, 2)),
    }


def _build_annulus(big_r: float = 2.0) -> GalleryFixture:
    r = float(big_r)
    if r <= 1.0:
        raise ValueError("annulus parameter must exceed 1")
    a = np.array([[1.0, r - 1.0 / r], [0.0, 1.0]])
    f1, f2 = annulus_extremal_pair(r)
    misra = 2.0 * (r * r - 1.0) / (r * r + 1.0)
    sharper_sup = (1.0 + r * r + 2.0 * r) / (1.0 + r * r + r)
    expected = (
        Expected("operator norm of A", r, "derived: closed-form singular values",
                 1e-12),
        Expected("operator norm of the inverse", r, "derived", 1e-12),
        Expected("misra ratio", misra, "printed: 2(R^2-1)/(R^2+1)", 1e-6),
        Expected("norm of the sharper extremal image", 2.0, "printed", 1e-9),
        Expected("annulus sup of the sharper extremal", sharper_sup,
                 "printed: (1+R^2+2R)/(1+R^2+R)", 1e-4),
        Expected("K lower bound from the sharper pair", 1.5,
                 "threshold", 0.0, ">"),
    )
    return GalleryFixture(name="annulus", matrices=(a,),
                          payload={"big_r": r, "f_misra": f1, "f_sharper": f2,
                                   "shape": Annulus(r)},
                          expected=expected, recompute=_recompute_annulus)


def _recompute_annulus(fx: GalleryFixture) -> dict:
    a = fx.matrices[0]
    shape = fx.payload["shape"]
    f1, f2 = fx.payload["f_misra"], fx.payload["f_sharper"]
    sup1, _ = sup_on_boundary(f1, shape)
    sup2, _ = sup_on_boundary(f2, shape)
    image2 = op_norm(eval_rational(f2, a), 2)
    return {
        "operator norm of A": op_norm(a, 2),
        "operator norm of the inverse": op_norm(np.linalg.inv(a), 2),
        "misra ratio": op_norm(eval_rational(f1, a), 2) / sup1,
        "norm of the sharper extremal image": image2,
        "annulus sup of the sharper extremal": sup2,
        "K lower bound from the sharper pair": image2 / sup2,
    }


def _build_jordan(n: int = 5) -> GalleryFixture:
    n = int(n)
    if n < 2:
        raise ValueError("jordan fixture needs dimension >= 2")
    a = jordan_block(n)
    expected = (
        Expected("operator norm", 1.0, "derived", 1e-14),
        Expected("numerical radius", math.cos(math.pi / (n + 1)),
                 "printed: cos(pi/(n+1))", 1e-8),
        Expected("norm of the n-th power", 0.0, "derived", 0.0, "<="),
    )
    return GalleryFixture(name=f"jordan_nilpotent({n})", matrices=(a,),
                          payload={"n": n}, expected=expected,
                          recompute=_recompute_jordan)


def _recompute_jordan(fx: GalleryFixture) -> dict:
    a = fx.matrices[0]
    n = fx.payload["n"]
    return {
        "operator norm": op_norm(a, 2),
        "numerical radius": numerical_radius(a),
        "norm of the n-th power": op_norm(np.linalg.matrix_power(a, n), 2),
    }


def _build_bergman(n: int = 3) -> GalleryFixture:
    n = int(n)
    if n < 2:
        raise ValueError("bergman fixture needs dimension >= 2")
    a = bergman_block(n)
    rows = [
        Expected("operator norm", math.sqrt((n - 1.0) / n),
                 "derived: largest weight", 1e-14),
        Expected("norm of the n-th power", 0.0, "derived", 0.0, "<="),
        Expected("defect of I - A*A", 0.0, "derived: class membership",
                 1e-12, ">="),
        Expected("defect of I - 2A*A + A*^2A^2", 0.0,
                 "derived: class membership", 1e-12, ">="),
    ]
    if n == 3:
        # radius bounds are stated for the three-dimensional block; equality
        # attainment is deliberately not asserted
        rows.append(Expected("numerical radius", math.sqrt(7.0 / 24.0),
                             "printed: sqrt(7/24)", 1e-8, "<="))
        rows.append(Expected("numerical radius of the square",
                             math.sqrt(1.0 / 12.0), "printed: sqrt(1/12)",
                             1e-8, "<="))
    return GalleryFixture(name=f"bergman({n})", matrices=(a,),
                          payload={"n": n}, expected=tuple(rows),
                          recompute=_recompute_bergman)


def _recompute_bergman(fx: GalleryFixture) -> dict:
    a = fx.matrices[0]
    n = fx.payload["n"]
    eye = np.eye(n)
    gram = a.conj().T @ a
    out = {
        "operator norm": op_norm(a, 2),
        "norm of the n-th power": op_norm(np.linalg.matrix_power(a, n), 2),
        "defect of I - A*A": float(np.min(np.linalg.eigvalsh(eye - gram))),
        "defect of I - 2A*A + A*^2A^2": float(np.min(np.linalg.eigvalsh(
            eye - 2.0 * gram + a.conj().T @ a.conj().T @ a @ a))),
    }
    if n == 3:
        out["numerical radius"] = numerical_radius(a)
        out["numerical radius of the square"] = numerical_radius(a @ a)
    return out


def _build_crouzeix_2x2() -> GalleryFixture:
    a = np.array([[0.0, 2.0], [0.0, 0.0]])
    expected = (
        Expected("operator norm", 2.0, "printed", 1e-14),
        Expected("numerical radius", 1.0, "printed: W(A) is the unit disk",
                 1e-8),
        Expected("identity-map ratio over the numerical range", 2.0,
                 "printed", 1e-8),
    )
    return GalleryFixture(name="crouzeix_2x2", matrices=(a,), payload={},
                          expected=expected, recompute=_recompute_crouzeix)


def _recompute_crouzeix(fx: GalleryFixture) -> dict:
    a = fx.matrices[0]
    w = numerical_radius(a)
    return {
        "operator norm": op_norm(a, 2),
        "numerical radius": w,
        "identity-map ratio over the numerical range": op_norm(a, 2) / w,
    }


def _build_ellipse_2x2(rho: float = 2.0) -> GalleryFixture:
    rho = float(rho)
    if rho <= 1.0:
        raise ValueError("ellipse fixture needs rho > 1")
    gamma = rho - 1.0 / rho
    sigma = rho + 1.0 / rho
    a = np.array([[1.0, gamma], [0.0, -1.0]])
    b = np.diag([1.0, -1.0])
    ell = np.array([[1.0, -gamma / sigma], [0.0, 2.0 / sigma]])
    expected = (
        Expected("operator norm", rho, "printed", 1e-12),
        Expected("diagonalization residual", 0.0, "derived", 1e-12, "<="),
        Expected("similarity condition number", rho,
                 "printed: ||L|| ||L^-1|| = rho", 1e-10),
        Expected("numerical radius", math.sqrt(gamma * gamma + 4.0) / 2.0,
                 "derived: ellipse with foci +-1, minor axis rho-1/rho",
                 1e-8),
        Expected("imaginary support half-axis", gamma / 2.0, "derived", 1e-8),
    )
    return GalleryFixture(name=f"ellipse_2x2({rho:g})", matrices=(a,),
                          payload={"rho": rho, "factor": ell, "diagonal": b},
                          expected=expected, recompute=_recompute_ellipse)


def _recompute_ellipse(fx: GalleryFixture) -> dict:
    a = fx.matrices[0]
    ell = fx.payload["factor"]
    diag = fx.payload["diagonal"]
    inv = np.linalg.inv(ell)
    return {
        "operator norm": op_norm(a, 2),
        "diagonalization residual": float(np.linalg.norm(
            a - ell @ diag @ inv, 2)),
        "similarity condition number": op_norm(ell, 2) * op_norm(inv, 2),
        "numerical radius": numerical_radius(a),
        "imaginary support half-axis": support_value(a, math.pi / 2.0),
    }


# name -> (keyword a literal argument binds, or None if it takes none; builder)
_CATALOG = {
    "hoelder1": (None, _build_hoelder1),
    "varopoulos": (None, _build_varopoulos),
    "crabb_davie": (None, _build_crabb_davie),
    "parrott": (None, _build_parrott),
    "annulus": ("big_r", _build_annulus),
    "jordan_nilpotent": ("n", _build_jordan),
    "bergman": ("n", _build_bergman),
    "crouzeix_2x2": (None, _build_crouzeix_2x2),
    "ellipse_2x2": ("rho", _build_ellipse_2x2),
}


# ---------------------------------------------------------------------------
# verification: recompute quantities from the raw matrices

def _relation_holds(rec: float, exp: Expected, tol_scale: float) -> bool:
    tol = exp.tol * tol_scale
    if exp.relation == "=":
        return abs(rec - exp.value) <= tol
    if exp.relation == "<=":
        return rec <= exp.value + tol
    if exp.relation == ">=":
        return rec >= exp.value - tol
    if exp.relation == "<":
        return rec < exp.value
    if exp.relation == ">":
        return rec > exp.value
    raise ValueError(f"unknown relation {exp.relation!r}")


def verify(name: str, tol_scale: float = 1.0, **params) -> VerifyReport:
    """Rebuild a fixture and recompute every expected quantity.

    tol_scale multiplies each stored tolerance (CLI --tol hook); relations
    "<" and ">" stay strict regardless.  The recomputation path never looks
    at the stored values, only at the raw matrices and payload functions.
    """
    if tol_scale <= 0:
        raise ValueError("tolerance scale must be positive")
    fixture = build(name, **params)
    recomputed = fixture.recompute(fixture)
    rows = []
    for exp in fixture.expected:
        rec = float(recomputed[exp.quantity])
        rows.append(CheckRow(
            quantity=exp.quantity, expected=exp.value, recomputed=rec,
            tol=exp.tol * tol_scale, relation=exp.relation,
            passed=_relation_holds(rec, exp, tol_scale)))
    return VerifyReport(name=fixture.name, rows=tuple(rows),
                        passed=all(r.passed for r in rows),
                        notes=fixture.notes)


# ---------------------------------------------------------------------------
# dilation constructions

def halmos_dilation(a) -> np.ndarray:
    """Unitary 2n x 2n completion of a contraction.

    B = [[A, (I-AA*)^(1/2)], [(I-A*A)^(1/2), -A*]].  Both defect roots are
    assembled from one SVD of A so they share singular values exactly and
    the intertwining relation A*(I-AA*)^(1/2) = (I-A*A)^(1/2)A* survives in
    floating point; separate Hermitian square roots lose it near singular
    values equal to one.  Raises ValueError when ||A|| > 1 + 1e-10 and
    RuntimeError when the assembled block still fails unitarity at 1e-9.
    """
    m = as_matrix(a)
    nrm = op_norm(m, 2)
    if nrm > 1.0 + 1e-10:
        raise ValueError(f"need a contraction, got norm {nrm:.6g}")
    u, sig, vh = np.linalg.svd(m)
    root = np.sqrt(np.clip(1.0 - sig ** 2, 0.0, None))
    b = np.block([
        [m, (u * root) @ u.conj().T],
        [(vh.conj().T * root) @ vh, -m.conj().T],
    ])
    defect = float(np.linalg.norm(b.conj().T @ b - np.eye(2 * m.shape[0]), 2))
    if defect > 1e-9:
        raise RuntimeError(f"dilation lost unitarity: defect {defect:.3g}")
    return b


def egervary_imbed(n: int, k: int):
    """Shift block J_n inside the cyclic permutation of order (k+1)n.

    Returns (J_n, C).  The leading n x n block of p(C) equals p(J_n)
    exactly for every polynomial of degree at most k; the identity in fact
    survives up to degree k*n and first breaks at k*n + 1, when the
    wrap-around diagonal of C^d re-enters the leading block.
    """
    n, k = int(n), int(k)
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    m = (k + 1) * n
    j = np.eye(n, k=-1)
    c = np.roll(np.eye(m), 1, axis=0)
    return j, c


def egervary_block_residual(n: int, k: int, coeffs) -> float:
    """Max entry deviation between the leading block of p(C) and p(J_n).

    Powers are accumulated explicitly (not by Horner) so that for degrees
    within the exact regime the two sides see identical floating sums and
    the residual is exactly zero.
    """
    j, c = egervary_imbed(n, k)
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    n = j.shape[0]
    lhs = np.zeros((n, n), dtype=complex)
    rhs = np.zeros((n, n), dtype=complex)
    pow_c = np.eye(c.shape[0])
    pow_j = np.eye(n)
    for d, coeff in enumerate(coeffs):
        if d > 0:
            pow_c = pow_c @ c
            pow_j = pow_j @ j
        lhs += coeff * pow_c[:n, :n]
        rhs += coeff * pow_j
    return float(np.max(np.abs(lhs - rhs)))


def egervary_first_failure(n: int, k: int) -> int:
    """Brute-force scan for the first monomial degree breaking the block identity."""
    j, c = egervary_imbed(n, k)
    m = c.shape[0]
    pow_c = np.eye(m)
    pow_j = np.eye(n)
    for d in range(1, m + 1):
        pow_c = pow_c @ c
        pow_j = pow_j @ j
        if np.max(np.abs(pow_c[:n, :n] - pow_j)) > 0:
            return d
    raise RuntimeError("no failure up to the circulant order")  # unreachable


# ---------------------------------------------------------------------------
# randomized property suites

@dataclass(frozen=True)
class SuiteResult:
    """One suite outcome: worst excess of value over bound across all checks."""

    key: str
    label: str
    trials: int
    checks: int
    violations: int
    worst_excess: float
    tol: float
    passed: bool
    info: Optional[dict] = None


@dataclass(frozen=True)
class SuiteReport:
    seed: int
    trials: int
    results: tuple
    passed: bool


class _Tally:
    def __init__(self, tol: float):
        self.tol = tol
        self.checks = 0
        self.violations = 0
        self.worst = -math.inf

    def add(self, value: float, bound: float) -> None:
        self.checks += 1
        excess = value - bound
        self.worst = max(self.worst, excess)
        if excess > self.tol:
            self.violations += 1

    def result(self, key: str, label: str, trials: int,
               info: Optional[dict] = None,
               informational: bool = False) -> SuiteResult:
        return SuiteResult(key=key, label=label, trials=trials,
                           checks=self.checks, violations=self.violations,
                           worst_excess=self.worst, tol=self.tol,
                           passed=informational or self.violations == 0,
                           info=info)


def _strict_upper(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = np.triu(g, 1)
    nrm = float(np.linalg.norm(a, 2))
    return a / nrm if nrm > 0 else np.eye(n, k=1)


def _suite_power(rng, trials: int) -> SuiteResult:
    tally = _Tally(1e-8)
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        a = _strict_upper(rng, n)
        for m in range(1, n + 1):
            bound = math.cos(math.pi / ((n - 1) // m + 2))
            tally.add(numerical_radius(np.linalg.matrix_power(a, m)), bound)
    return tally.result("a", "nilpotent power radius inequality", trials)


def _suite_nilpotent_domination(rng, trials: int) -> SuiteResult:
    tally = _Tally(1e-8)
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        a = _strict_upper(rng, n)
        deg = int(rng.integers(1, n + 1))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        tally.add(numerical_radius(eval_poly(coeffs, a)),
                  numerical_radius(eval_poly(coeffs, jordan_block(n))))
    return tally.result("b", "nilpotent block domination at s = 2", trials)


def _suite_trig_coeffs(rng, trials: int) -> SuiteResult:
    tally = _Tally(1e-10)
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # c_k of |q(e^{it})|^2: autocorrelation, c_0 = ||q||^2 > 0
        c = np.array([np.vdot(q[:n - k], q[k:]) for k in range(n)])
        c0 = float(c[0].real)
        for k in range(1, n):
            tally.add(abs(c[k]),
                      c0 * math.cos(math.pi / ((n - 1) // k + 2)))
        for k in range(1, n):
            for l in range(k):
                f1 = 1.0 + math.cos(math.pi / ((n - 1) // (k + l) + 2))
                f2 = 1.0 + math.cos(math.pi / ((n - 1) // (k - l) + 2))
                tally.add(abs(c[k]) + abs(c[l]), c0 * math.sqrt(f1 * f2))
    return tally.result("c", "positive trigonometric coefficient bounds",
                        trials)


def _suite_three_disk(rng, trials: int) -> SuiteResult:
    tally = _Tally(1e-8)
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        deg = int(rng.integers(0, 7))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        sup3 = _disk_sup(coeffs, 3.0)
        sup1 = _disk_sup(coeffs, 1.0)
        for p in (1, np.inf):
            a = g * ((1.0 - 1e-12) / op_norm(g, p))
            val = op_norm(eval_poly(coeffs, a), p)
            tally.add(val, sup3)
            tally.add(val, (math.pi * n + 1.0) * sup1)
    return tally.result("d", "Banach contraction three-disk bounds", trials)


def _suite_bohr(rng, trials: int) -> SuiteResult:
    tally = _Tally(1e-10)
    for _ in range(trials):
        deg = int(rng.integers(0, 13))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        lhs = float(np.sum(np.abs(coeffs) * 3.0 ** -np.arange(deg + 1)))
        tally.add(lhs, _disk_sup(coeffs, 1.0))
    return tally.result("e", "Bohr one-third coefficient sum", trials)


def _suite_cs_calculus(rng, trials: int) -> SuiteResult:
    tally = _Tally(1e-6)
    for _ in range(trials):
        n = int(rng.integers(2, 4))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mode = rng.random()
        if mode < 0.4:
            s, gauge = 1.0, op_norm(g, 2)
        elif mode < 0.8:
            s, gauge = 2.0, numerical_radius(g)
        else:
            # generic s goes through the ws_radius gauge; its hi endpoint is
            # a certified membership scaling even at loose tolerance
            s = float(np.exp(rng.uniform(math.log(0.3), math.log(4.0))))
            gauge = ws_radius(g, s, tol=1e-3).hi
        a = g / gauge
        deg = int(rng.integers(1, 5))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        val = op_norm(eval_poly(coeffs, a), 2)
        mixed = coeffs * s
        mixed[0] = coeffs[0]
        tally.add(val, _disk_sup(mixed, 1.0))
        tally.add(val, max(1.0, s) * _disk_sup(coeffs, 1.0))
    return tally.result("f", "radius-class functional calculus bounds",
                        trials)


def _random_blaschke(rng, force_zero_at_origin: bool) -> RationalFunction:
    deg = int(rng.integers(1, 4))
    zeros = 0.9 * np.sqrt(rng.random(deg)) * np.exp(
        2j * np.pi * rng.random(deg))
    if force_zero_at_origin:
        zeros[0] = 0.0
    return RationalFunction.blaschke(zeros, np.exp(2j * np.pi * rng.random()))


def _suite_range_mapping(rng, trials: int) -> SuiteResult:
    tally = _Tally(1e-6)
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = g / numerical_radius(g)
        for _ in range(3):
            z = 1.5 * (rng.standard_normal() + 1j * rng.standard_normal())
            tally.add(op_norm(a - z * np.eye(n), 2),
                      1.0 + math.sqrt(1.0 + abs(z) ** 2))
        f0 = _random_blaschke(rng, force_zero_at_origin=True)
        tally.add(numerical_radius(eval_rational(f0, a)), 1.0)
        f1 = _random_blaschke(rng, force_zero_at_origin=False)
        tally.add(numerical_radius(eval_rational(f1, a)), 1.25)
    return tally.result("g", "numerical-range mapping bounds", trials)


_DRURY_COEFFS = (1.0, 2.0, -22.0 / 5.0)
_DRURY_SHIFT_DIM = 256
_DRURY_STEPS = 150
_DRURY_WINDOW = 8


@functools.cache
def _drury_shift_reference() -> float:
    # op_norm(T, 4) of the banded Toeplitz truncation T, memoized per
    # process: op_norm's ascent without the 256 unit vectors among its
    # starts, none of which gives the maximum (the value is op_norm's, bit
    # for bit, at an eighth of the cost)
    toeplitz = eval_poly(_DRURY_COEFFS, np.eye(_DRURY_SHIFT_DIM, k=-1))
    return float(_pnorm_ascent(toeplitz[None], 4.0, unit_vectors=False)[0][0])


def _suite_drury(rng, trials: int) -> SuiteResult:
    # informational: hill climb over 2x2 real matrices in the Hoelder-4 ball,
    # compared against the shift truncation reference (itself a certified
    # lower bound of the shift norm).  A restart's step k tries x + 0.5 *
    # 0.97^k * noise_k, scaled into the ball, and moves there if p of it has
    # a larger 4-norm.  All draws come first; then each lockstep round takes
    # the next _DRURY_WINDOW candidates of every restart from its current x
    # as one stack, and moves each restart to its first improving candidate
    ref = _drury_shift_reference()
    restarts = max(2, min(8, trials // 100))
    draws = np.array([rng.standard_normal((_DRURY_STEPS + 1, 4))
                      for _ in range(restarts)])
    x, noise = draws[:, 0], draws[:, 1:]
    scales = np.cumprod([0.5] + [0.97] * (_DRURY_STEPS - 1))
    coeffs = np.asarray(_DRURY_COEFFS, dtype=complex)
    cur = np.full(restarts, -math.inf)
    pos = np.zeros(restarts, dtype=int)  # each restart's next step
    while (pos < _DRURY_STEPS).any():
        ks = pos[:, None] + np.arange(_DRURY_WINDOW)
        chain, slot = np.nonzero(ks < _DRURY_STEPS)
        step = ks[chain, slot]
        a = (x[chain] + scales[step, None] * noise[chain, step]).reshape(-1, 2, 2)
        a = a * ((1.0 - 1e-9) / _pnorm_ascent(a.astype(complex), 4.0)[0])[:, None, None]
        pa = _horner(np.tile(coeffs, (len(a), 1)), a.astype(complex))
        vals = _pnorm_ascent(pa, 4.0)[0]
        better = np.zeros(ks.shape, dtype=bool)
        better[chain, slot] = vals > cur[chain]
        moved, first = better.any(axis=1), better.argmax(axis=1)
        j = np.searchsorted(chain, np.flatnonzero(moved)) + first[moved]
        cur[moved], x[moved] = vals[j], a[j].reshape(-1, 4)
        pos = np.where(moved, pos + first + 1,
                       np.minimum(pos + _DRURY_WINDOW, _DRURY_STEPS))
    best = int(np.argmax(cur))
    best_val = float(cur[best])
    tally = _Tally(math.inf)
    tally.add(0.0, 0.0)
    info = {
        "best_norm": best_val,
        "shift_norm": ref,
        "ratio": best_val / ref,
        "witness": x[best].reshape(2, 2).tolist(),
        "exceeds_shift": bool(best_val > ref),
    }
    return tally.result("h", "Hoelder-4 shift-domination search "
                        "(informational)", trials, info=info,
                        informational=True)


_SUITES = (
    _suite_power,
    _suite_nilpotent_domination,
    _suite_trig_coeffs,
    _suite_three_disk,
    _suite_bohr,
    _suite_cs_calculus,
    _suite_range_mapping,
    _suite_drury,
)


def property_suites(seed: int = 0, trials: int = 1000) -> SuiteReport:
    """Run the eight randomized inequality suites.

    Suites (a)-(g) assert literature inequalities with small additive
    slacks and report the worst excess observed; suite (h) is a search
    without a hard assertion and never fails the report.  Identical
    (seed, trials) reproduce identical draws: each suite gets its own
    child generator so the order of suites cannot perturb the streams.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    master = np.random.default_rng(seed)
    children = master.spawn(len(_SUITES))
    results = tuple(fn(child, trials)
                    for fn, child in zip(_SUITES, children))
    return SuiteReport(seed=int(seed), trials=int(trials), results=results,
                       passed=all(r.passed for r in results))
