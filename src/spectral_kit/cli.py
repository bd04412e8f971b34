"""Batch command-line front end for the library.

SPECTRALKIT_THREADS must land in the environment before numpy initializes
its BLAS thread pools, so every numerical import here is deferred into the
command handlers; keep it that way when adding commands.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

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


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


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

def _cmd_nr(args, out) -> int:
    _require(args.n_grid >= 8, "need at least 8 boundary angles")
    from .numrange import support_profile
    a = _read_matrix(args.matrix)
    prof = support_profile(a, n_grid=args.n_grid)
    out.write("theta, re, im, support_value\n")
    for theta, point, value in zip(prof.thetas, prof.points, prof.values):
        out.write(f"{_fmt(theta)}, {_fmt(point.real)}, {_fmt(point.imag)}, "
                  f"{_fmt(value)}\n")
    return EXIT_PASS


def _cmd_wradius(args, out) -> int:
    s, tol = args.s, args.tol
    _require(s > 0, "s must be positive")
    _require(tol > 0, "tol must be positive")
    from .matrixcore import op_norm
    from .numrange import numerical_radius, ws_radius
    a = _read_matrix(args.matrix)
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


def _cmd_certify(args, out) -> int:
    a = _read_matrix(args.matrix)
    shape = _resolve_shape(args.shape, a)
    cert = shape.spectral_certificate(a)
    if cert is None:
        raise ValueError(
            f"certify has exact tests for disk, xdisk, and halfplane only, "
            f"not {shape.kind!r}; use kestimate for general shapes")
    out.write("certificate:\n")
    out.write(f"  shape: {shape.literal()}\n")
    out.write(f"  claim: {cert.claim}\n")
    out.write(f"  holds: {'true' if cert.holds else 'false'}\n")
    out.write(f"  margin: {_fmt(cert.margin)}\n")
    out.write(f"  tol: {_fmt(cert.tol)}\n")
    out.write(f"  witness: {_complex_list(cert.witness)}\n")
    out.write(f"result: {'PASS' if cert.holds else 'FAIL'}\n")
    return EXIT_PASS if cert.holds else EXIT_FAIL


def _cmd_kestimate(args, out) -> int:
    _require(args.seed >= 0, "seed must be nonnegative")
    _require(args.budget >= 1, "budget must be positive")
    from .spectraltest import kratio_estimate
    a = _read_matrix(args.matrix)
    shape = _resolve_shape(args.shape, a)
    est = kratio_estimate(a, shape, budget=args.budget, seed=args.seed)
    out.write("kestimate:\n")
    out.write(f"  seed: {args.seed}\n")
    out.write(f"  shape: {shape.literal()}\n")
    out.write(f"  budget: {args.budget}\n")
    out.write(f"  lower: {_fmt(est.lower)}\n")
    out.write(f"  upper: {_fmt(est.upper) if est.upper is not None else 'none'}\n")
    out.write(f"  sup_accuracy: {_fmt(est.sup_accuracy)}\n")
    out.write(f"  best_function: {est.best_function.to_text()}\n")
    return EXIT_PASS


def _cmd_kbound(args, out) -> int:
    from .domains import kbound
    context = _read_matrix(args.matrix) if args.matrix is not None else None
    shape = _resolve_shape(args.shape, context)
    kb = kbound(shape, context=context)
    out.write("kbound:\n")
    out.write(f"  shape: {shape.literal()}\n")
    if args.matrix is not None:
        out.write(f"  context: {args.matrix}\n")
    out.write(f"  value: {_fmt(kb.value)}\n")
    out.write(f"  label: {kb.label}\n")
    out.write("  candidates:\n")
    for label, value in kb.candidates:
        out.write(f"    {label}: {_fmt(value)}\n")
    return EXIT_PASS


def _cmd_fapprox(args, out) -> int:
    _require(args.order >= 1, "order must be positive")
    from .faber import faber_coeffs, faber_sum_matrix
    from .matrixcore import write_matrix
    a = _read_matrix(args.matrix)
    shape = _resolve_shape(args.shape, a)
    f, label = _parse_function(args.function)
    model = faber_coeffs(f, shape, args.order)
    approx, bound = faber_sum_matrix(model, a)
    write_matrix(args.out, approx)
    out.write("fapprox:\n")
    out.write(f"  shape: {shape.literal()}\n")
    out.write(f"  function: {label}\n")
    out.write(f"  order: {args.order}\n")
    out.write(f"  error_bound: {_fmt(bound)}\n")
    out.write(f"  tail_capped: {'true' if model.tail_capped else 'false'}\n")
    out.write(f"  quadrature: {model.quadrature_size}\n")
    out.write(f"  wrote: {args.out}\n")
    return EXIT_PASS


def _cmd_fab(args, out) -> int:
    _require(args.m >= 1, "m must be positive")
    from .krylov import fab_poly
    from .matrixcore import write_vector
    a = _read_matrix(args.matrix)
    b = _read_vector(args.vector, a.shape[0])
    f, label = _parse_function(args.function)
    y, report = fab_poly(a, b, args.m, f, e=_resolve_shape(args.shape, a))
    out.write("fab:\n")
    out.write(f"  m: {args.m}\n")
    out.write(f"  function: {label}\n")
    out.write(f"  shape: {report.shape.literal()}\n")
    out.write(f"  contained: {'true' if report.contained else 'false'}\n")
    out.write(f"  exact_breakdown: {'true' if report.exact else 'false'}\n")
    if report.bound_faber is not None:
        out.write(f"  bound_faber: {_fmt(report.bound_faber)}\n")
        out.write(f"  bound_crouzeix: {_fmt(report.bound_crouzeix)}\n")
    else:
        out.write("  bound_faber: none (W(A) not inside the shape)\n")
        out.write("  bound_crouzeix: none\n")
    if args.out is not None:
        write_vector(args.out, y)
        out.write(f"  wrote: {args.out}\n")
    else:
        out.write("  approximation:\n")
        for z in y:
            out.write(f"    {z.real:.17g} {z.imag:.17g}\n")
    return EXIT_PASS


def _cmd_gmres(args, out) -> int:
    _require(args.m is None or args.m >= 1, "m must be positive")
    from .krylov import gmres_fom
    a = _read_matrix(args.matrix)
    b = _read_vector(args.rhs, a.shape[0])
    res = gmres_fom(a, b, m=args.m, e=_resolve_shape(args.shape, a))
    out.write(f"# shape: {res.shape.literal()}\n")
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


def _cmd_pade(args, out) -> int:
    _require(args.k >= 0, "numerator degree must be nonnegative")
    _require(args.m >= 1, "denominator degree must be positive")
    from .krylov import MarkovFunction, pade_markov, pade_matrix_bound
    from .matrixcore import op_norm
    f, label = _parse_function(args.function)
    _require(isinstance(f, MarkovFunction),
             "pade needs a markov function ('markov <atoms file>')")
    pq = pade_markov(f, args.k, args.m)
    poles = pq.poles()
    out.write("pade:\n")
    out.write(f"  function: {label}\n")
    out.write(f"  support: [{_fmt(f.alpha)}, {_fmt(f.beta)}]\n")
    out.write(f"  k: {args.k}\n")
    out.write(f"  m: {args.m}\n")
    out.write(f"  approximant: {pq.to_text()}\n")
    out.write(f"  poles: {_complex_list(poles)}\n")
    if args.matrix is not None:
        a = _read_matrix(args.matrix)
        diff, bound = pade_matrix_bound(f, pq, a)
        out.write(f"  deviation_norm: {_fmt(op_norm(diff, 2))}\n")
        out.write(f"  matrix_bound: {_fmt(bound)}\n")
    return EXIT_PASS


def _cmd_gallery(args, out) -> int:
    _require(args.tol > 0, "tol scale must be positive")
    if args.action == "verify":
        _require(bool(args.name), "gallery verify needs a fixture name")
    from . import gallery
    if args.action == "list":
        for name in gallery.names():
            out.write(name + "\n")
        return EXIT_PASS
    report = gallery.verify(args.name, tol_scale=args.tol)
    out.write(f"gallery verify {report.name} (tol scale "
              f"{_fmt(args.tol)})\n")
    for row in report.rows:
        tag = "PASS" if row.passed else "FAIL"
        out.write(f"  [{tag}] {row.quantity}: got {_fmt(row.recomputed)}, "
                  f"expected {row.relation} {_fmt(row.expected)} "
                  f"(tol {_fmt(row.tol)})\n")
    for note in report.notes:
        out.write(f"  note: {note}\n")
    out.write(f"result: {'PASS' if report.passed else 'FAIL'}\n")
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_suites(args, out) -> int:
    _require(args.seed >= 0, "seed must be nonnegative")
    _require(args.trials >= 1, "trials must be positive")
    from .gallery import property_suites
    report = property_suites(seed=args.seed, trials=args.trials)
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


# ---------------------------------------------------------------------------
# argument parsing

# built once per process: parse_args returns a fresh Namespace on every call
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spectral-kit",
        description="Numerical-range machinery, operator radii, spectral-set "
                    "certificates, and Faber/Krylov matrix-function "
                    "approximation with certified bounds.")
    sub = p.add_subparsers(dest="subcommand", required=True)

    q = sub.add_parser("nr", help="numerical-range boundary points as CSV")
    q.set_defaults(handler=_cmd_nr)
    q.add_argument("--matrix", required=True)
    q.add_argument("--n-grid", type=int, default=256)

    q = sub.add_parser("wradius", help="operator radius w_s(A)")
    q.set_defaults(handler=_cmd_wradius)
    q.add_argument("--matrix", required=True)
    q.add_argument("--s", type=float, default=2.0)
    q.add_argument("--tol", type=float, default=1e-6)

    q = sub.add_parser("certify", help="exact spectral-set certificate")
    q.set_defaults(handler=_cmd_certify)
    q.add_argument("--matrix", required=True)
    q.add_argument("--shape", required=True)

    q = sub.add_parser("kestimate", help="lower bound for the K-spectral "
                                         "constant by random search")
    q.set_defaults(handler=_cmd_kestimate)
    q.add_argument("--matrix", required=True)
    q.add_argument("--shape", required=True)
    q.add_argument("--budget", type=int, default=2000)
    q.add_argument("--seed", type=int, default=0)

    q = sub.add_parser("kbound", help="catalog K-spectral bound for a shape")
    q.set_defaults(handler=_cmd_kbound)
    q.add_argument("--shape", required=True)
    q.add_argument("--matrix")

    q = sub.add_parser("fapprox", help="Faber-series approximant of f(A) "
                                       "with certified bound")
    q.set_defaults(handler=_cmd_fapprox)
    q.add_argument("--matrix", required=True)
    q.add_argument("--shape", required=True)
    q.add_argument("--function", required=True)
    q.add_argument("--order", type=int, required=True)
    q.add_argument("--out", default="approximant.mtx")

    q = sub.add_parser("fab", help="Arnoldi approximation of f(A)b with "
                                   "Faber bounds")
    q.set_defaults(handler=_cmd_fab)
    q.add_argument("--matrix", required=True)
    q.add_argument("--vector", required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--function", required=True)
    q.add_argument("--shape", default="auto")
    q.add_argument("--out")

    q = sub.add_parser("gmres", help="GMRES/FOM residual curves with bound "
                                     "curves as CSV")
    q.set_defaults(handler=_cmd_gmres)
    q.add_argument("--matrix", required=True)
    q.add_argument("--rhs", required=True)
    q.add_argument("--m", type=int)
    q.add_argument("--shape", default="auto")

    q = sub.add_parser("pade", help="Pade approximant of a Markov function")
    q.set_defaults(handler=_cmd_pade)
    q.add_argument("--function", required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--matrix")

    q = sub.add_parser("gallery", help="list or verify the counterexample "
                                       "gallery")
    q.set_defaults(handler=_cmd_gallery)
    q.add_argument("action", choices=("list", "verify"))
    q.add_argument("name", nargs="?")
    q.add_argument("--tol", type=float, default=1.0)

    q = sub.add_parser("suites", help="randomized inequality suites")
    q.set_defaults(handler=_cmd_suites)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--trials", type=int, default=1000)

    return p


def main(argv=None, out=None) -> int:
    """Entry point; returns the exit status instead of raising SystemExit.

    Each subcommand's handler checks its own arguments, then writes its
    report to ``out``.  The status is 0 on PASS/success, 1 on a failed
    certificate or verification or a library postcondition, and 2 on a
    usage error (any ValueError).
    """
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
        return args.handler(args, out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        # library postconditions (failed oracles, lost certificates)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
