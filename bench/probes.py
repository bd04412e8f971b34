"""Fixed-input single calls: the baseline rows of ROADMAP Open item 1.

Inputs come from a fixed seed, never from the workload seed, so every run
times the same eight calls. Each row is the median of up to three calls,
stopping early once a row has used 1.5 s, scaled to the reference speed like
the job latencies.
"""

import statistics
import time

import numpy as np

import reference as ref

PROBE_SEED = 1302
REPEAT_BUDGET_S = 1.5


def _inputs():
    rng = np.random.default_rng(PROBE_SEED)
    g10 = ref.ginibre(rng, 10)
    g100 = ref.ginibre(rng, 100)
    g2 = ref.ginibre(rng, 2)
    gm = ref.ginibre(rng, 100)
    return {
        "g2": g2, "g10": g10, "g100": g100,
        "gmres_a": 2.0 * np.eye(100) + (0.8 / ref.numerical_radius_grid(gm)) * gm,
        "gmres_b": rng.standard_normal(100),
        "kseed": int(rng.integers(1 << 31)),
    }


def probe_rows(lib, speed):
    """name -> (milliseconds scaled by `speed`, raw milliseconds) per call."""
    x = _inputs()
    nr, kr = lib.numrange, lib.krylov
    ellipse2 = kr.fit_ellipse(x["g2"])
    calls = {
        "probe.support_profile_n10_ms": lambda: nr.support_profile(x["g10"]),
        "probe.support_profile_n100_ms": lambda: nr.support_profile(x["g100"]),
        "probe.numerical_radius_n10_ms": lambda: nr.numerical_radius(x["g10"]),
        "probe.ws_radius_s1.5_n10_ms": lambda: nr.ws_radius(x["g10"], 1.5),
        "probe.fit_ellipse_n2_ms": lambda: kr.fit_ellipse(x["g2"]),
        "probe.fit_ellipse_n10_ms": lambda: kr.fit_ellipse(x["g10"]),
        "probe.kratio_estimate_n2_b50_ms": lambda: lib.spectraltest.kratio_estimate(
            x["g2"], ellipse2, budget=50, seed=x["kseed"]),
        "probe.gmres_fom_n100_ms": lambda: kr.gmres_fom(x["gmres_a"], x["gmres_b"]),
    }
    rows = {}
    for name, call in calls.items():
        times, raw = [], []
        while len(times) < 3 and sum(raw) < REPEAT_BUDGET_S:
            speed.sample()
            t0 = time.perf_counter()
            call()
            dt = time.perf_counter() - t0
            speed.sample()
            raw.append(dt)
            times.append(speed.scale(t0, dt))
        rows[name] = (1e3 * statistics.median(times), 1e3 * statistics.median(raw))
    return rows
