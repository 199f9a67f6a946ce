"""Self-contained pass/fail checks behind the harness ``--check`` flag.

Each function exercises one advertised guarantee of the package at its
stated tolerance and returns a :class:`CheckResult`; the CLI maps every
experiment to the checks that cover it, and the acceptance tests call each
one by name.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .fem import MaxwellMesh, assemble
from .monotonicity import default_grid, sweep_grid
from .prabhakar import PrabhakarParams, hn_kernel, ml3, prabhakar_integral_monomial
from .quadrature import cm2_weights, delta_consistency_residual
from .stepper import HNParams, run_convergence, run_energy

__all__ = [
    "CheckResult",
    "check_quadrature_order",
    "check_cm_indices",
    "check_bdf2_violations",
    "check_consistency_residual",
    "check_energy_decay",
    "check_temporal_convergence",
    "check_debye_limits",
    "check_fem_structure",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} ({self.elapsed:.2f}s): {self.detail}"


def _result(name: str, start: float, passed: bool, detail: str, budget: float | None = None):
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed > budget:
        passed = False
        detail += f"; runtime {elapsed:.1f}s exceeded budget {budget:.0f}s"
    return CheckResult(name=name, passed=passed, detail=detail, elapsed=elapsed)


def check_quadrature_order() -> CheckResult:
    """Discrete convolution of s^3 converges at second order to the exact
    kernel integral (error ratios in [3.4, 4.6] under step halving)."""
    start = time.perf_counter()
    taus = (1 / 10, 1 / 20, 1 / 40)
    ratios = {}
    ok = True
    for alpha, beta in ((0.1, 0.1), (0.5, 0.5), (0.9, 0.9)):
        exact = prabhakar_integral_monomial(alpha, beta, 3, 1.0)
        errs = []
        for tau in taus:
            n = round(1.0 / tau)
            w = cm2_weights(alpha, beta, tau, n).weights
            t = np.arange(n + 1) * tau
            errs.append(abs(float(w[::-1] @ t**3) - exact))
        r = [errs[i - 1] / errs[i] for i in range(1, len(errs))]
        ratios[(alpha, beta)] = r
        ok &= all(3.4 <= x <= 4.6 for x in r)
    detail = "; ".join(
        f"(a={a},b={b}) ratios {', '.join(f'{x:.2f}' for x in r)}" for (a, b), r in ratios.items()
    )
    return _result("quadrature-order-2 (s^3 vs exact kernel integral)", start, ok, detail, budget=1.0)


def check_cm_indices(threads: int | None = None) -> CheckResult:
    """Complete monotonicity of the second-order weights over the parameter
    grid: index_k >= -1e-13 for k <= 3, tau = 0.01, J = 1000."""
    start = time.perf_counter()
    grid = default_grid(0.05)
    rows = sweep_grid("cm2", grid, grid, tau=0.01, j_max=1000, k_max=3, threads=threads)
    worst = min(float(indices.min()) for _, _, indices in rows)
    ok = worst >= -1e-13
    detail = f"19x19 grid, worst index {worst:.3e} (tolerance -1e-13)"
    return _result("complete monotonicity of cm2 weights", start, ok, detail, budget=30.0)


def check_bdf2_violations(threads: int | None = None) -> CheckResult:
    """BDF-2 CQ weights fail complete monotonicity: cells with
    index_k < -1e-8 exist for each k in {1,2,3} and spread as k grows."""
    start = time.perf_counter()
    grid = default_grid(0.05)
    rows = sweep_grid("bdf2", grid, grid, tau=0.01, j_max=1000, k_max=3, threads=threads)
    counts = {k: sum(1 for _, _, indices in rows if indices[k] < -1e-8) for k in (1, 2, 3)}
    ok = all(c > 0 for c in counts.values()) and counts[1] <= counts[2] <= counts[3]
    detail = f"failing cells per k: {counts[1]}, {counts[2]}, {counts[3]} of {len(rows)}"
    return _result("bdf2 monotonicity failure (expanding negative regions)", start, ok, detail)


def check_consistency_residual() -> CheckResult:
    """Second-order consistency of the reconstructed generating polynomial:
    residual ratios in [3.5, 4.5] under tau halving, spot value at
    alpha = 0.5, tau = 0.1."""
    start = time.perf_counter()
    ok = True
    worst = None
    for alpha in np.round(np.arange(1, 10) * 0.1, 12):
        r1 = delta_consistency_residual(float(alpha), 0.1)
        r2 = delta_consistency_residual(float(alpha), 0.05)
        ratio = abs(r1) / abs(r2)
        if not 3.5 <= ratio <= 4.5:
            ok = False
        if worst is None or abs(ratio - 4.0) > abs(worst - 4.0):
            worst = ratio
    spot = delta_consistency_residual(0.5, 0.1)
    spot_ok = abs(spot - (-3.094e-3)) <= 1e-6
    ok &= spot_ok
    detail = f"worst halving ratio {worst:.3f}; spot residual {spot:.6e} (target -3.094e-3)"
    return _result("consistency residual is O(tau^2)", start, ok, detail)


def check_energy_decay() -> CheckResult:
    """Discrete energy is nonincreasing at every step for the zero-source
    runs (32x32 mesh, tau = 0.01, T = 1) and for a deliberately coarse
    tau = 0.5 run."""
    start = time.perf_counter()
    mesh = MaxwellMesh(32, 32)
    worst = -np.inf
    ok = True
    for beta in (0.1, 0.4, 0.7, 1.0):
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            params = HNParams(eps_inf=1.0, delta_eps=1.0, alpha=alpha, beta=beta)
            tr = run_energy(mesh, params, tau=0.01, t_final=1.0)
            rise = float((tr.total[1:] - tr.total[:-1]).max()) / tr.total[0]
            worst = max(worst, rise)
            ok &= rise <= 1e-10
    coarse = run_energy(mesh, HNParams(1.0, 1.0, 0.5, 0.5), tau=0.5, t_final=1.0)
    coarse_rise = float((coarse.total[1:] - coarse.total[:-1]).max()) / coarse.total[0]
    ok &= coarse_rise <= 1e-10
    detail = (
        f"20 runs, worst relative energy rise {worst:.3e}; coarse tau=0.5 rise {coarse_rise:.3e}"
    )
    return _result("discrete energy decay (zero sources)", start, ok, detail, budget=120.0)


def check_temporal_convergence() -> CheckResult:
    """Second-order temporal rates of the full scheme measured against a
    fine-step reference trajectory (64x64 mesh, tau_ref = 1/320)."""
    start = time.perf_counter()
    mesh = MaxwellMesh(64, 64)
    taus = (1 / 10, 1 / 20, 1 / 40)
    ok = True
    details = []
    for alpha, beta in ((0.1, 0.1), (0.5, 0.5), (0.5, 1.0)):
        params = HNParams(eps_inf=1.0, delta_eps=1.0, alpha=alpha, beta=beta)
        report = run_convergence(mesh, params, taus, mode="vs_reference", tau_ref=1 / 320)
        ok &= all(1.8 <= r <= 2.2 for r in report.rate_e)
        details.append(
            f"(a={alpha},b={beta}) E-rates {', '.join(f'{r:.2f}' for r in report.rate_e)}"
        )
    return _result(
        "temporal convergence rate 2 (vs reference)", start, ok, "; ".join(details), budget=300.0
    )


def check_debye_limits() -> CheckResult:
    """Special-function oracle in the Debye limit: the series reduces to the
    exponential (1e-12 relative on [-2, 2]) and the kernel to e^-t (1e-12
    on [0.1, 5])."""
    start = time.perf_counter()
    params = PrabhakarParams(1.0, 1.0, 1.0)
    worst_series = max(
        abs(ml3(params, float(z)) - math.exp(z)) / math.exp(z)
        for z in np.linspace(-2.0, 2.0, 41)
    )
    worst_kernel = max(
        abs(hn_kernel(1.0, 1.0, float(t)) - math.exp(-t)) for t in np.linspace(0.1, 5.0, 50)
    )
    ok = worst_series <= 1e-12 and worst_kernel <= 1e-12
    detail = f"series worst rel {worst_series:.3e}; kernel worst {worst_kernel:.3e}"
    return _result("Debye-limit special functions", start, ok, detail)


def check_fem_structure() -> CheckResult:
    """Structural identities: curl of the discrete gradient vanishes exactly;
    the dispersion-free scheme conserves the Crank-Nicolson energy."""
    start = time.perf_counter()
    ops = assemble(MaxwellMesh(5, 4))
    # each product rounded on its own: a fused multiply-add, as in a BLAS
    # matrix product, keeps the rounding of hx * (1/hx) and leaves 6e-17
    curl_grad_max = float(np.abs((ops.c_full[:, :, None] * ops.grad_full).sum(axis=1)).max())
    mesh = MaxwellMesh(16, 16)
    params = HNParams(eps_inf=1.0, delta_eps=0.0, alpha=0.5, beta=0.5)
    tr = run_energy(mesh, params, tau=0.01, t_final=1.0)
    drift = float(np.abs(tr.total - tr.total[0]).max()) / tr.total[0]
    ok = curl_grad_max == 0.0 and drift <= 1e-12
    detail = f"max |C G| = {curl_grad_max}; CN energy drift {drift:.3e} over 100 steps"
    return _result("FEM structure (curl-grad identity, CN conservation)", start, ok, detail)

