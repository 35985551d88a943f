"""Layer probes: the unit cost of one call into each layer, on fixed inputs.

Each probe times batches of calls and reports the median per-call time, so
a change to one layer's unit cost shows without running a whole workload.
The inputs never depend on the workload seed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np


def _per_call(fn, calls: int, batches: int) -> float:
    fn()  # let lazy set-up finish outside the timed batches
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def run_probes() -> dict[str, float]:
    """probe name -> median time of one call (unit in the name)."""
    from amwave import algebra, fields, poynting, relativity, residuals, zitter

    gens = algebra.make_generators("su2_spin_one")
    fam = fields.random_family(gens, np.random.default_rng(20230425))
    tau = fam.tau
    a, _ = fields.build_potentials(fam)
    spec = zitter.SuperpositionSpec(np.pi / 4.0, (1, 3))
    dirac = zitter.DiracContext(p=np.array([0.3, -0.2, 0.8]))
    us, ms = 1e6, 1e3
    return {
        "probe.algebra.cross_us":
            us * _per_call(lambda: algebra.cross(tau, tau), 200, 15),
        "probe.fields.vcross_us":
            us * _per_call(lambda: fields.vcross(a, a), 100, 15),
        "probe.residuals.zca_conditions_us":
            us * _per_call(lambda: residuals.zca_conditions(fam), 5, 9),
        "probe.relativity.boosted_residuals_us":
            us * _per_call(lambda: relativity.boosted_residuals(fam, 0.5), 10, 9),
        "probe.zitter.position_expectation_us":
            us * _per_call(lambda: zitter.zitter_position_expectation(spec, dirac, 0.7),
                           100, 15),
        "probe.poynting.flux_quadrature_ms":
            ms * _per_call(lambda: poynting.flux_quadrature(fam), 1, 3),
    }
