"""Batch command-line front end for the library.

SPECTRALKIT_THREADS must land in the environment before numpy initializes
its BLAS thread pools, so every numerical import here is deferred into the
command handlers; keep it that way when adding commands.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _fmt(x) -> str:
    # all floating output carries 15 significant digits
    return f"{float(x):.15g}"


def _apply_thread_cap() -> None:
    cap = os.environ.get("SPECTRALKIT_THREADS")
    if cap is None or not cap.strip():
        return
    try:
        n = int(cap)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(
            f"SPECTRALKIT_THREADS must be a positive integer, got {cap!r}")
    for var in _THREAD_VARS:
        os.environ.setdefault(var, str(n))


@dataclass(frozen=True)
class RunConfig:
    """One validated dispatch request.

    Numeric options are range-checked during construction so handlers can
    assume well-formed inputs.
    """

    subcommand: str
    paths: dict = field(default_factory=dict)
    shape: Optional[str] = None
    numbers: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)
    seed: Optional[int] = None


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _build_config(args: argparse.Namespace) -> RunConfig:
    cmd = args.subcommand
    paths, numbers, options = {}, {}, {}
    seed = None
    for key in ("matrix", "vector", "rhs", "out"):
        val = getattr(args, key, None)
        if val is not None:
            paths[key] = val
    if hasattr(args, "seed"):
        seed = int(args.seed)
        _require(seed >= 0, "seed must be nonnegative")

    if cmd == "nr":
        numbers["n_grid"] = int(args.n_grid)
        _require(numbers["n_grid"] >= 8, "need at least 8 boundary angles")
    elif cmd == "wradius":
        numbers["s"] = float(args.s)
        numbers["tol"] = float(args.tol)
        _require(numbers["s"] > 0, "s must be positive")
        _require(numbers["tol"] > 0, "tol must be positive")
    elif cmd == "kestimate":
        numbers["budget"] = int(args.budget)
        _require(numbers["budget"] >= 1, "budget must be positive")
    elif cmd == "fapprox":
        numbers["order"] = int(args.order)
        _require(numbers["order"] >= 1, "order must be positive")
        options["function"] = args.function
    elif cmd == "fab":
        numbers["m"] = int(args.m)
        _require(numbers["m"] >= 1, "m must be positive")
        options["function"] = args.function
    elif cmd == "gmres":
        if args.m is not None:
            numbers["m"] = int(args.m)
            _require(numbers["m"] >= 1, "m must be positive")
    elif cmd == "pade":
        numbers["k"] = int(args.k)
        numbers["m"] = int(args.m)
        _require(numbers["k"] >= 0, "numerator degree must be nonnegative")
        _require(numbers["m"] >= 1, "denominator degree must be positive")
        options["function"] = args.function
    elif cmd == "gallery":
        options["action"] = args.action
        options["name"] = args.name
        numbers["tol"] = float(args.tol)
        _require(numbers["tol"] > 0, "tol scale must be positive")
        if args.action == "verify":
            _require(bool(args.name), "gallery verify needs a fixture name")
    elif cmd == "suites":
        numbers["trials"] = int(args.trials)
        _require(numbers["trials"] >= 1, "trials must be positive")

    return RunConfig(subcommand=cmd, paths=paths,
                     shape=getattr(args, "shape", None), numbers=numbers,
                     options=options, seed=seed)


# ---------------------------------------------------------------------------
# input helpers

def _load(reader, path):
    try:
        return reader(path)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _read_matrix(path):
    from .matrixcore import read_matrix
    return _load(read_matrix, path)


def _read_vector(path, n: int):
    from .matrixcore import read_vector
    b = _load(read_vector, path)
    if b.shape[0] != n:
        raise ValueError(f"{path}: vector length {b.shape[0]} does not match "
                         f"matrix dimension {n}")
    return b


def _read_markov(path):
    """Markov-function file: optional 'c <const>' line, then 'x w' atoms."""
    from .krylov import MarkovFunction
    c = 0.0
    atoms = []
    try:
        with open(path) as fh:
            for ln, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if parts[0] == "c" and len(parts) == 2:
                    c = float(parts[1])
                elif len(parts) == 2:
                    atoms.append((float(parts[0]), float(parts[1])))
                else:
                    raise ValueError(
                        f"{path}:{ln}: expected 'x w' atom or 'c value', "
                        f"got {line!r}")
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from exc
    if not atoms:
        raise ValueError(f"{path}: no atoms found")
    return MarkovFunction.from_atoms(c, atoms)


def _parse_function(text: str):
    """Function spec: 'exp', 'markov <file>', 'poly: c0 c1 ...', or a
    rational literal 'num: ... / den: ...'."""
    t = text.strip()
    if t == "exp":
        import numpy as np
        return np.exp, "exp"
    if t.split(None, 1)[0] == "markov":
        rest = t[len("markov"):].strip()
        _require(bool(rest), "markov function needs an atoms file path")
        return _read_markov(rest), t
    if t.startswith("poly:"):
        import numpy as np
        from .matrixcore import parse_complex
        coeffs = [parse_complex(tok) for tok in t[len("poly:"):].split()]
        _require(bool(coeffs), "empty polynomial coefficient list")
        rev = np.asarray(coeffs[::-1], dtype=complex)

        def poly(z):
            return np.polyval(rev, z)

        return poly, t
    if "num:" in t:
        from .matrixcore import parse_rational
        return parse_rational(t), t
    raise ValueError(f"cannot parse function spec {text!r}")


def _resolve_shape(literal: str, a=None):
    from .domains import parse_shape
    if literal is None or literal.strip().lower() == "auto":
        _require(a is not None, "shape 'auto' needs a matrix to fit")
        from .krylov import fit_ellipse
        return fit_ellipse(a)
    return parse_shape(literal)


def _complex_list(vec) -> str:
    from .matrixcore import format_complex
    return "[" + ", ".join(format_complex(complex(z)) for z in vec) + "]"


# ---------------------------------------------------------------------------
# command handlers

def _cmd_nr(cfg: RunConfig, out) -> int:
    from .numrange import support_profile
    a = _read_matrix(cfg.paths["matrix"])
    prof = support_profile(a, n_grid=cfg.numbers["n_grid"])
    out.write("theta, re, im, support_value\n")
    for theta, point, value in zip(prof.thetas, prof.points, prof.values):
        out.write(f"{_fmt(theta)}, {_fmt(point.real)}, {_fmt(point.imag)}, "
                  f"{_fmt(value)}\n")
    return EXIT_PASS


def _cmd_wradius(cfg: RunConfig, out) -> int:
    from .matrixcore import op_norm
    from .numrange import numerical_radius, ws_radius
    a = _read_matrix(cfg.paths["matrix"])
    s, tol = cfg.numbers["s"], cfg.numbers["tol"]
    out.write("wradius:\n")
    out.write(f"  s: {_fmt(s)}\n")
    if s == 1.0:
        value = op_norm(a, 2)
        out.write(f"  radius: {_fmt(value)}\n")
        out.write("  method: operator norm (exact identity at s=1)\n")
    elif s == 2.0:
        value = numerical_radius(a)
        out.write(f"  radius: {_fmt(value)}\n")
        out.write("  method: numerical radius (exact identity at s=2)\n")
    else:
        res = ws_radius(a, s, tol=tol)
        out.write(f"  radius: {_fmt(res.radius)}\n")
        out.write(f"  bracket: {_fmt(res.bracket)}\n")
        out.write(f"  certified: [{_fmt(res.lo)}, {_fmt(res.hi)}]\n")
        out.write(f"  iterations: {res.iterations}\n")
        out.write("  method: companion eigenproblem per angle, "
                  "certified by the membership test\n")
    return EXIT_PASS


def _cmd_certify(cfg: RunConfig, out) -> int:
    from .spectraltest import (disk_spectral, exterior_disk_spectral,
                               halfplane_spectral)
    from .domains import shape_literal
    a = _read_matrix(cfg.paths["matrix"])
    shape = _resolve_shape(cfg.shape, a)
    if shape.kind == "disk":
        cert = disk_spectral(a, shape.center, shape.radius)
    elif shape.kind == "exterior_disk":
        cert = exterior_disk_spectral(a, shape.center, shape.radius)
    elif shape.kind == "half_plane":
        cert = halfplane_spectral(a, shape.angle, shape.offset)
    else:
        raise ValueError(
            f"certify has exact tests for disk, xdisk, and halfplane only, "
            f"not {shape.kind!r}; use kestimate for general shapes")
    out.write("certificate:\n")
    out.write(f"  shape: {shape_literal(shape)}\n")
    out.write(f"  claim: {cert.claim}\n")
    out.write(f"  holds: {'true' if cert.holds else 'false'}\n")
    out.write(f"  margin: {_fmt(cert.margin)}\n")
    out.write(f"  tol: {_fmt(cert.tol)}\n")
    out.write(f"  witness: {_complex_list(cert.witness)}\n")
    out.write(f"result: {'PASS' if cert.holds else 'FAIL'}\n")
    return EXIT_PASS if cert.holds else EXIT_FAIL


def _cmd_kestimate(cfg: RunConfig, out) -> int:
    from .spectraltest import kratio_estimate
    from .domains import shape_literal
    a = _read_matrix(cfg.paths["matrix"])
    shape = _resolve_shape(cfg.shape, a)
    est = kratio_estimate(a, shape, budget=cfg.numbers["budget"],
                          seed=cfg.seed)
    out.write("kestimate:\n")
    out.write(f"  seed: {cfg.seed}\n")
    out.write(f"  shape: {shape_literal(shape)}\n")
    out.write(f"  budget: {cfg.numbers['budget']}\n")
    out.write(f"  lower: {_fmt(est.lower)}\n")
    out.write(f"  upper: {_fmt(est.upper) if est.upper is not None else 'none'}\n")
    out.write(f"  sup_accuracy: {_fmt(est.sup_accuracy)}\n")
    out.write(f"  best_function: {est.best_function.to_text()}\n")
    return EXIT_PASS


def _cmd_kbound(cfg: RunConfig, out) -> int:
    from .domains import kbound, shape_literal
    shape = _resolve_shape(cfg.shape)
    context = None
    if "matrix" in cfg.paths:
        context = _read_matrix(cfg.paths["matrix"])
    kb = kbound(shape, context=context)
    out.write("kbound:\n")
    out.write(f"  shape: {shape_literal(shape)}\n")
    if "matrix" in cfg.paths:
        out.write(f"  context: {cfg.paths['matrix']}\n")
    out.write(f"  value: {_fmt(kb.value)}\n")
    out.write(f"  label: {kb.label}\n")
    out.write("  candidates:\n")
    for label, value in kb.candidates:
        out.write(f"    {label}: {_fmt(value)}\n")
    return EXIT_PASS


def _cmd_fapprox(cfg: RunConfig, out) -> int:
    from .faber import faber_coeffs, faber_sum_matrix
    from .matrixcore import write_matrix
    from .domains import shape_literal
    a = _read_matrix(cfg.paths["matrix"])
    shape = _resolve_shape(cfg.shape, a)
    f, label = _parse_function(cfg.options["function"])
    order = cfg.numbers["order"]
    model = faber_coeffs(f, shape, order)
    approx, bound = faber_sum_matrix(model, a)
    dest = cfg.paths.get("out", "approximant.mtx")
    write_matrix(dest, approx)
    out.write("fapprox:\n")
    out.write(f"  shape: {shape_literal(shape)}\n")
    out.write(f"  function: {label}\n")
    out.write(f"  order: {order}\n")
    out.write(f"  error_bound: {_fmt(bound)}\n")
    out.write(f"  tail_capped: {'true' if model.tail_capped else 'false'}\n")
    out.write(f"  quadrature: {model.quadrature_size}\n")
    out.write(f"  wrote: {dest}\n")
    return EXIT_PASS


def _cmd_fab(cfg: RunConfig, out) -> int:
    from .krylov import fab_poly
    from .matrixcore import write_vector
    from .domains import shape_literal
    a = _read_matrix(cfg.paths["matrix"])
    b = _read_vector(cfg.paths["vector"], a.shape[0])
    f, label = _parse_function(cfg.options["function"])
    shape = None
    if cfg.shape is not None and cfg.shape.strip().lower() != "auto":
        shape = _resolve_shape(cfg.shape)
    y, report = fab_poly(a, b, cfg.numbers["m"], f, e=shape)
    out.write("fab:\n")
    out.write(f"  m: {cfg.numbers['m']}\n")
    out.write(f"  function: {label}\n")
    out.write(f"  shape: {shape_literal(report.shape)}\n")
    out.write(f"  contained: {'true' if report.contained else 'false'}\n")
    out.write(f"  exact_breakdown: {'true' if report.exact else 'false'}\n")
    if report.bound_faber is not None:
        out.write(f"  bound_faber: {_fmt(report.bound_faber)}\n")
        out.write(f"  bound_crouzeix: {_fmt(report.bound_crouzeix)}\n")
    else:
        out.write("  bound_faber: none (W(A) not inside the shape)\n")
        out.write("  bound_crouzeix: none\n")
    if "out" in cfg.paths:
        write_vector(cfg.paths["out"], y)
        out.write(f"  wrote: {cfg.paths['out']}\n")
    else:
        out.write("  approximation:\n")
        for z in y:
            out.write(f"    {z.real:.17g} {z.imag:.17g}\n")
    return EXIT_PASS


def _cmd_gmres(cfg: RunConfig, out) -> int:
    from .krylov import gmres_fom
    from .domains import shape_literal
    a = _read_matrix(cfg.paths["matrix"])
    b = _read_vector(cfg.paths["rhs"], a.shape[0])
    shape = None
    if cfg.shape is not None and cfg.shape.strip().lower() != "auto":
        shape = _resolve_shape(cfg.shape)
    res = gmres_fom(a, b, m=cfg.numbers.get("m"), e=shape)
    out.write(f"# shape: {shape_literal(res.shape)}\n")
    if res.lens_factor is not None:
        out.write(f"# lens_factor: {_fmt(res.lens_factor)}\n")
    else:
        out.write("# lens_factor: none (A + A* not positive definite)\n")
    out.write("m, residual, bound_faber, bound_asymptotic\n")
    steps = len(res.residual_ratios)
    nan = float("nan")
    for j in range(steps):
        bf = res.gmres_faber[j] if res.gmres_faber is not None else nan
        ba = res.gmres_asym[j] if res.gmres_asym is not None else nan
        out.write(f"{j}, {_fmt(res.residual_ratios[j])}, {_fmt(bf)}, "
                  f"{_fmt(ba)}\n")
    return EXIT_PASS


def _cmd_pade(cfg: RunConfig, out) -> int:
    from .krylov import MarkovFunction, pade_markov, pade_matrix_bound
    from .matrixcore import op_norm
    f, label = _parse_function(cfg.options["function"])
    _require(isinstance(f, MarkovFunction),
             "pade needs a markov function ('markov <atoms file>')")
    pq = pade_markov(f, cfg.numbers["k"], cfg.numbers["m"])
    poles = pq.poles()
    out.write("pade:\n")
    out.write(f"  function: {label}\n")
    out.write(f"  support: [{_fmt(f.alpha)}, {_fmt(f.beta)}]\n")
    out.write(f"  k: {cfg.numbers['k']}\n")
    out.write(f"  m: {cfg.numbers['m']}\n")
    out.write(f"  approximant: {pq.to_text()}\n")
    out.write(f"  poles: {_complex_list(poles)}\n")
    if "matrix" in cfg.paths:
        a = _read_matrix(cfg.paths["matrix"])
        diff, bound = pade_matrix_bound(f, pq, a)
        out.write(f"  deviation_norm: {_fmt(op_norm(diff, 2))}\n")
        out.write(f"  matrix_bound: {_fmt(bound)}\n")
    return EXIT_PASS


def _cmd_gallery(cfg: RunConfig, out) -> int:
    from . import gallery
    if cfg.options["action"] == "list":
        for name in gallery.names():
            out.write(name + "\n")
        return EXIT_PASS
    report = gallery.verify(cfg.options["name"], tol_scale=cfg.numbers["tol"])
    out.write(f"gallery verify {report.name} (tol scale "
              f"{_fmt(cfg.numbers['tol'])})\n")
    for row in report.rows:
        tag = "PASS" if row.passed else "FAIL"
        out.write(f"  [{tag}] {row.quantity}: got {_fmt(row.recomputed)}, "
                  f"expected {row.relation} {_fmt(row.expected)} "
                  f"(tol {_fmt(row.tol)})\n")
    for note in report.notes:
        out.write(f"  note: {note}\n")
    out.write(f"result: {'PASS' if report.passed else 'FAIL'}\n")
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_suites(cfg: RunConfig, out) -> int:
    from .gallery import property_suites
    report = property_suites(seed=cfg.seed, trials=cfg.numbers["trials"])
    out.write(f"suites: seed {report.seed}, trials {report.trials}\n")
    for res in report.results:
        tag = "PASS" if res.passed else "FAIL"
        if res.info is not None:
            tag = "info"
        out.write(f"  [{tag}] ({res.key}) {res.label}: checks {res.checks}, "
                  f"violations {res.violations}, worst_excess "
                  f"{_fmt(res.worst_excess)}\n")
        if res.info is not None:
            for key in sorted(res.info):
                val = res.info[key]
                if isinstance(val, bool):
                    out.write(f"      {key}: {'true' if val else 'false'}\n")
                elif isinstance(val, float):
                    out.write(f"      {key}: {_fmt(val)}\n")
                else:
                    out.write(f"      {key}: {val}\n")
    out.write(f"result: {'PASS' if report.passed else 'FAIL'}\n")
    return EXIT_PASS if report.passed else EXIT_FAIL


_HANDLERS = {
    "nr": _cmd_nr,
    "wradius": _cmd_wradius,
    "certify": _cmd_certify,
    "kestimate": _cmd_kestimate,
    "kbound": _cmd_kbound,
    "fapprox": _cmd_fapprox,
    "fab": _cmd_fab,
    "gmres": _cmd_gmres,
    "pade": _cmd_pade,
    "gallery": _cmd_gallery,
    "suites": _cmd_suites,
}


def dispatch(config: RunConfig, out) -> int:
    """Run one validated command, writing its report to ``out``.

    Returns the process exit status: 0 on PASS/success, 1 on a failed
    certificate or verification, 2 is reserved for usage errors and is
    produced by ``main`` when validation raises.
    """
    return _HANDLERS[config.subcommand](config, out)


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spectral-kit",
        description="Numerical-range machinery, operator radii, spectral-set "
                    "certificates, and Faber/Krylov matrix-function "
                    "approximation with certified bounds.")
    sub = p.add_subparsers(dest="subcommand", required=True)

    q = sub.add_parser("nr", help="numerical-range boundary points as CSV")
    q.add_argument("--matrix", required=True)
    q.add_argument("--n-grid", type=int, default=256)

    q = sub.add_parser("wradius", help="operator radius w_s(A)")
    q.add_argument("--matrix", required=True)
    q.add_argument("--s", type=float, default=2.0)
    q.add_argument("--tol", type=float, default=1e-6)

    q = sub.add_parser("certify", help="exact spectral-set certificate")
    q.add_argument("--matrix", required=True)
    q.add_argument("--shape", required=True)

    q = sub.add_parser("kestimate", help="lower bound for the K-spectral "
                                         "constant by random search")
    q.add_argument("--matrix", required=True)
    q.add_argument("--shape", required=True)
    q.add_argument("--budget", type=int, default=2000)
    q.add_argument("--seed", type=int, default=0)

    q = sub.add_parser("kbound", help="catalog K-spectral bound for a shape")
    q.add_argument("--shape", required=True)
    q.add_argument("--matrix")

    q = sub.add_parser("fapprox", help="Faber-series approximant of f(A) "
                                       "with certified bound")
    q.add_argument("--matrix", required=True)
    q.add_argument("--shape", required=True)
    q.add_argument("--function", required=True)
    q.add_argument("--order", type=int, required=True)
    q.add_argument("--out", default="approximant.mtx")

    q = sub.add_parser("fab", help="Arnoldi approximation of f(A)b with "
                                   "Faber bounds")
    q.add_argument("--matrix", required=True)
    q.add_argument("--vector", required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--function", required=True)
    q.add_argument("--shape", default="auto")
    q.add_argument("--out")

    q = sub.add_parser("gmres", help="GMRES/FOM residual curves with bound "
                                     "curves as CSV")
    q.add_argument("--matrix", required=True)
    q.add_argument("--rhs", required=True)
    q.add_argument("--m", type=int)
    q.add_argument("--shape", default="auto")

    q = sub.add_parser("pade", help="Pade approximant of a Markov function")
    q.add_argument("--function", required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--matrix")

    q = sub.add_parser("gallery", help="list or verify the counterexample "
                                       "gallery")
    q.add_argument("action", choices=("list", "verify"))
    q.add_argument("name", nargs="?")
    q.add_argument("--tol", type=float, default=1.0)

    q = sub.add_parser("suites", help="randomized inequality suites")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--trials", type=int, default=1000)

    return p


def main(argv=None, out=None) -> int:
    """Entry point; returns the exit status instead of raising SystemExit."""
    if out is None:
        out = sys.stdout
    try:
        _apply_thread_cap()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return EXIT_USAGE if code not in (0, None) else int(code or 0)
    try:
        config = _build_config(args)
        return dispatch(config, out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        # library postconditions (failed oracles, lost certificates)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
