"""Outside-in tracing of the eight spectral_kit layers.

``Tracer.install`` wraps every public function of each layer module and
rebinds every name that refers to it in any of the eight modules, so a
function imported by name into another module (``krylov.support_profile``,
``faber.support_profile``, ``krylov.numerical_radius``, ...) is traced too.
Each call becomes one span: name, layer, start, end, parent span, job id.
Spans stay in memory; ``write`` saves them as JSON lines when the run ends.

A few functions carry a hook that reads counts from their arguments or
result (matrices handed to eigensolvers, Arnoldi steps, bytes of I/O).
Hook time is excluded from every span's self time.
"""

import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("matrixcore", "numrange", "domains", "spectraltest", "faber",
          "krylov", "gallery", "cli")

NAME, PARENT, JOB, START, END, HOOK, ERROR = range(7)


def _hook_eigmax(tr, bound, result):
    h = bound["h"]
    n = h.shape[-1]
    count = h.size // (n * n)
    tr.count["eig_matrices"] += count
    tr.count["eig_n3"] += count * n ** 3


def _hook_support_profile(tr, bound, result):
    a = bound["a"]
    n = len(a)
    tr.count["eig_matrices"] += bound["n_grid"]
    tr.count["eig_n3"] += bound["n_grid"] * n ** 3
    key = (tr.job, hash(np.asarray(a).tobytes()))
    if key in tr.profiled:
        tr.count["profile_repeats"] += 1
    tr.profiled.add(key)


def _hook_ws_radius(tr, bound, result):
    tr.count["ws_iterations"] += result.iterations


def _hook_arnoldi(tr, bound, result):
    tr.count["arnoldi_steps"] += result.order


def _hook_fab_poly(tr, bound, result):
    tr.count["fab_contained"] += bool(result[1].contained)


def _hook_faber_coeffs(tr, bound, result):
    tr.count["quadrature_points"] += result.quadrature_size
    tr.count["tail_capped"] += bool(result.tail_capped)


def _hook_kratio(tr, bound, result):
    # candidates offered: constants and identity, the annulus pair, the
    # interior Moebius map of a generalized disk, then `budget` random ones
    x = bound["x"]
    mod = tr.lib.spectraltest
    offered = 2 + bound["budget"]
    offered += 2 if isinstance(x, tr.lib.domains.Annulus) else 0
    offered += 1 if mod._interior_mobius(x) is not None else 0
    tr.count["kratio_offered"] += offered


def _hook_cli_main(tr, bound, result):
    out = bound["out"]
    if out is not None and hasattr(out, "getvalue"):
        tr.count["stdout_bytes"] += len(out.getvalue().encode())


def _hook_io(tr, bound, result):
    path = bound["path"]
    try:
        tr.count["io_bytes"] += os.path.getsize(path)
    except OSError:
        pass


HOOKS = {
    "numrange.hermitian_eigmax": _hook_eigmax,
    "numrange.support_profile": _hook_support_profile,
    "numrange.ws_radius": _hook_ws_radius,
    "krylov.arnoldi": _hook_arnoldi,
    "krylov.fab_poly": _hook_fab_poly,
    "faber.faber_coeffs": _hook_faber_coeffs,
    "spectraltest.kratio_estimate": _hook_kratio,
    "cli.main": _hook_cli_main,
    "matrixcore.read_matrix": _hook_io,
    "matrixcore.write_matrix": _hook_io,
    "matrixcore.read_vector": _hook_io,
    "matrixcore.write_vector": _hook_io,
}


def public_functions(module):
    """Functions defined in `module` whose names do not start with '_'."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.spans = []
        self.stack = []
        self.job = -1
        self.enabled = False
        self.count = defaultdict(int)
        self.profiled = set()
        self.aliases = []  # "module.name" rebound to a function of another layer
        self._saved = []

    def _wrap(self, qual, fn):
        hook = HOOKS.get(qual)
        sig = inspect.signature(fn) if hook else None
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [qual, stack[-1] if stack else -1, self.job, 0.0, 0.0, 0.0, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                rec[END] = clock()
                raise
            finally:
                stack.pop()
            if hook is not None:
                t_hook = clock()
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
                rec[HOOK] = clock() - t_hook
            rec[END] = clock()
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        modules = [getattr(self.lib, layer) for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for name, fn in public_functions(mod).items():
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        # rebind the defining names and every alias imported by name
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, wrapper)
                    if obj.__module__ != mod.__name__:
                        self.aliases.append(f"{mod.__name__.rsplit('.', 1)[-1]}.{name}")

    def uninstall(self):
        self.enabled = False
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": rec[NAME], "layer": rec[NAME].split(".", 1)[0],
                    "start": rec[START], "end": rec[END], "parent": rec[PARENT],
                    "job": rec[JOB], "error": rec[ERROR]}) + "\n")


def _self_times(spans):
    own = [rec[END] - rec[START] - rec[HOOK] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own


def layer_metrics(tracer, jobs):
    """Per-layer metrics of a traced run over `jobs` jobs, as name -> (value, unit)."""
    spans = tracer.spans
    own = _self_times(spans)
    jobs = max(jobs, 1)
    calls = defaultdict(int)
    total_s = defaultdict(float)
    layer_self = defaultdict(float)
    layer_calls = defaultdict(int)
    layer_errors = defaultdict(int)
    evaluated = 0
    for rec, self_s in zip(spans, own):
        name = rec[NAME]
        layer = name.split(".", 1)[0]
        calls[name] += 1
        total_s[name] += rec[END] - rec[START] - rec[HOOK]
        layer_self[layer] += self_s
        layer_calls[layer] += 1
        layer_errors[layer] += rec[ERROR]
        if (name == "spectraltest.sup_on_boundary" and rec[PARENT] >= 0
                and spans[rec[PARENT]][NAME] == "spectraltest.kratio_estimate"):
            evaluated += 1

    def per_call_ms(name):
        return 1e3 * total_s[name] / calls[name] if calls[name] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    c = tracer.count
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_job"] = (1e3 * layer_self[layer] / jobs, "ms")
        out[f"{layer}.calls_per_job"] = (layer_calls[layer] / jobs, "calls/job")
        out[f"{layer}.errors"] = (layer_errors[layer], "count")
    out.update({
        "numrange.eig_matrices_per_job": (c["eig_matrices"] / jobs, "matrices/job"),
        "numrange.eig_n3_per_job": (c["eig_n3"] / jobs, "n3/job"),
        "numrange.ws_radius.iterations_per_call":
            (ratio(c["ws_iterations"], calls["numrange.ws_radius"]), "count"),
        "numrange.ws_radius.ms_per_call": (per_call_ms("numrange.ws_radius"), "ms"),
        "numrange.support_profile.calls_per_job":
            (calls["numrange.support_profile"] / jobs, "calls/job"),
        "numrange.support_profile.repeat_ratio":
            (ratio(c["profile_repeats"], calls["numrange.support_profile"]), "ratio"),
        "krylov.fit_ellipse.ms_per_call": (per_call_ms("krylov.fit_ellipse"), "ms"),
        "krylov.gmres_fom.ms_per_call": (per_call_ms("krylov.gmres_fom"), "ms"),
        "krylov.arnoldi.steps_per_job": (c["arnoldi_steps"] / jobs, "steps/job"),
        "krylov.fab_poly.contained_ratio":
            (ratio(c["fab_contained"], calls["krylov.fab_poly"]), "ratio"),
        "faber.quadrature_points_per_call":
            (ratio(c["quadrature_points"], calls["faber.faber_coeffs"]), "count"),
        "faber.tail_capped_ratio":
            (ratio(c["tail_capped"], calls["faber.faber_coeffs"]), "ratio"),
        "spectraltest.sup_on_boundary.calls_per_job":
            (calls["spectraltest.sup_on_boundary"] / jobs, "calls/job"),
        "spectraltest.sup_on_boundary.ms_per_call":
            (per_call_ms("spectraltest.sup_on_boundary"), "ms"),
        "spectraltest.kratio_estimate.evaluated_ratio":
            (ratio(evaluated, c["kratio_offered"]), "ratio"),
        "matrixcore.op_norm.calls_per_job": (calls["matrixcore.op_norm"] / jobs, "calls/job"),
        "matrixcore.eval_rational.calls_per_job":
            (calls["matrixcore.eval_rational"] / jobs, "calls/job"),
        "cli.main.ms_per_call": (per_call_ms("cli.main"), "ms"),
        "cli.stdout_bytes_per_job": (c["stdout_bytes"] / jobs, "bytes/job"),
        "matrixcore.io_bytes_per_job": (c["io_bytes"] / jobs, "bytes/job"),
        "domains.kbound.ms_per_call": (per_call_ms("domains.kbound"), "ms"),
        "domains.tv_log_radius.calls_per_job":
            (calls["domains.tv_log_radius"] / jobs, "calls/job"),
        "gallery.verify.ms_per_call": (per_call_ms("gallery.verify"), "ms"),
        "gallery.property_suites.ms_per_call": (per_call_ms("gallery.property_suites"), "ms"),
    })
    return out
