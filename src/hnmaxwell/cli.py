"""``hnmx`` command line harness.

Five experiments, all emitting deterministic CSV (one header row, a ``#``
comment line with the fully resolved configuration, fixed float formatting):

    hnmx weights      --scheme cm2 --alpha 0.5 --beta 0.5 --tau 0.01 --J 1000
    hnmx cm-check     --scheme cm2 --tau 0.01 --J 1000 --kmax 3
    hnmx kernel       --alpha 0.5 --beta 0.5
    hnmx convergence  --alpha 0.5 --beta 0.5 --tau 0.1,0.05,0.025 --nx 64 --ny 64
    hnmx energy       --alpha 0.1,0.3,0.5,0.7,0.9 --beta 0.4 --tau 0.01 --nx 32 --ny 32

Options may come from ``--config FILE`` (flat ``key=value`` lines, ``#``
comments); explicit flags override the file.  The output directory is
``--out``, the ``HNMX_OUT`` environment variable, or the working directory,
in that order.  With ``--check`` the experiment additionally runs its
acceptance checks and exits nonzero if any fails.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import checks
from .fem import build_mesh
from .monotonicity import default_grid, indicator_rho, sweep_grid
from .prabhakar import SeriesConvergenceError, hn_kernel
from .quadrature import SCHEMES, NotCompletelyMonotoneError, generate_weights
from .stepper import HNParams, run_convergence, run_energy

__all__ = ["ExperimentConfig", "run", "main"]

EXPERIMENTS = ("weights", "cm-check", "kernel", "convergence", "energy")


@dataclass
class ExperimentConfig:
    experiment: str
    scheme: str = "cm2"
    alphas: list[float] = field(default_factory=list)
    betas: list[float] = field(default_factory=list)
    taus: list[float] = field(default_factory=list)
    nx: int = 100
    ny: int = 100
    t_final: float = 1.0
    j_max: int = 1000
    k_max: int = 3
    grid_step: float = 0.05
    tolerance: float = 1e-13
    eps_inf: float = 1.0
    delta_eps: float = 1.0
    mode: str = "vs_reference"
    tau_ref: float | None = None
    t_min: float = 1e-3
    t_max: float = 10.0
    points: int = 200
    out: str = "."
    check: bool = False
    threads: int | None = None

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}, expected {EXPERIMENTS}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme: unknown value {self.scheme!r}, expected one of {SCHEMES}")
        need = {
            "weights": ("alphas", "betas", "taus"),
            "cm-check": ("taus",),
            "kernel": ("alphas", "betas"),
            "convergence": ("alphas", "betas", "taus"),
            "energy": ("alphas", "betas", "taus"),
        }[self.experiment]
        for name in need:
            if not getattr(self, name):
                flag = {"alphas": "--alpha", "betas": "--beta", "taus": "--tau"}[name]
                raise ValueError(f"{self.experiment}: missing required option {flag}")
        if self.experiment in ("convergence", "energy"):
            for tau in self.taus:
                n = self.t_final / tau
                if abs(n - round(n)) > 1e-9:
                    raise ValueError(
                        f"T={self.t_final} is not an integer number of steps of tau={tau}"
                    )
        if self.experiment in ("weights", "kernel", "convergence"):
            if (len(self.alphas), len(self.betas)) != (1, 1):
                raise ValueError(f"{self.experiment}: --alpha and --beta must be single values")
        if self.experiment in ("weights", "cm-check", "energy") and len(self.taus) != 1:
            raise ValueError(f"{self.experiment}: --tau must be a single value")

    def resolved_comment(self) -> str:
        names = {
            "alphas": "alpha",
            "betas": "beta",
            "taus": "tau",
            "t_final": "T",
            "j_max": "J",
            "k_max": "kmax",
            "t_min": "tmin",
            "t_max": "tmax",
        }
        parts = []
        for f_ in fields(self):
            val = getattr(self, f_.name)
            if isinstance(val, list):
                val = ",".join(_fmt_opt(v) for v in val)
            parts.append(f"{names.get(f_.name, f_.name)}={val}")
        return "# config: " + " ".join(parts)


def _fmt_opt(x) -> str:
    return f"{x:g}" if isinstance(x, float) else str(x)


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


@functools.cache  # argparse parsers are reusable; build it once per process
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hnmx", description=__doc__.splitlines()[0])
    p.add_argument("experiment", choices=EXPERIMENTS)
    p.add_argument("--config", help="flat key=value option file; flags override it")
    p.add_argument("--scheme", choices=SCHEMES)
    p.add_argument("--alpha", help="value or comma-separated list")
    p.add_argument("--beta", help="value or comma-separated list")
    p.add_argument("--tau", help="step size or comma-separated list")
    p.add_argument("--nx", type=int)
    p.add_argument("--ny", type=int)
    p.add_argument("--T", dest="t_final", type=float)
    p.add_argument("--J", dest="j_max", type=int)
    p.add_argument("--kmax", dest="k_max", type=int)
    p.add_argument("--grid-step", dest="grid_step", type=float)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--eps-inf", dest="eps_inf", type=float)
    p.add_argument("--delta-eps", dest="delta_eps", type=float)
    p.add_argument("--mode", choices=("vs_reference", "vs_exact"))
    p.add_argument("--tau-ref", dest="tau_ref", type=float)
    p.add_argument("--tmin", dest="t_min", type=float)
    p.add_argument("--tmax", dest="t_max", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--out", help="output directory (fallback: $HNMX_OUT, then cwd)")
    p.add_argument("--check", action="store_true")
    p.add_argument("--threads", type=int)
    return p


_CONFIG_KEYS = {
    "scheme": str,
    "alpha": str,
    "beta": str,
    "tau": str,
    "nx": int,
    "ny": int,
    "T": float,
    "J": int,
    "kmax": int,
    "grid_step": float,
    "tolerance": float,
    "eps_inf": float,
    "delta_eps": float,
    "mode": str,
    "tau_ref": float,
    "tmin": float,
    "tmax": float,
    "points": int,
    "out": str,
    "threads": int,
}

_KEY_TO_FIELD = {
    "T": "t_final",
    "J": "j_max",
    "kmax": "k_max",
    "tmin": "t_min",
    "tmax": "t_max",
}


def _read_config_file(path: str) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = (tok.strip() for tok in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
        values[key] = _CONFIG_KEYS[key](val)
    return values


def build_config(argv: list[str]) -> ExperimentConfig:
    args = _build_parser().parse_args(argv)
    merged: dict = {}
    if args.config:
        merged.update(_read_config_file(args.config))
    for key in _CONFIG_KEYS:
        cli_val = getattr(args, _KEY_TO_FIELD.get(key, key), None)
        if cli_val is not None:
            merged[key] = cli_val
    cfg = ExperimentConfig(experiment=args.experiment)
    for key, val in merged.items():
        if key == "alpha":
            cfg.alphas = _parse_float_list(str(val))
        elif key == "beta":
            cfg.betas = _parse_float_list(str(val))
        elif key == "tau":
            cfg.taus = _parse_float_list(str(val))
        else:
            setattr(cfg, _KEY_TO_FIELD.get(key, key), val)
    if args.check:
        cfg.check = True
    if "out" not in merged:
        cfg.out = os.environ.get("HNMX_OUT", ".")
    cfg.validate()
    return cfg


def _write_csv(path: Path, comment: str, header: str, rows) -> None:
    lines = [comment, header]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _run_weights(cfg: ExperimentConfig, out: Path) -> list[Path]:
    w = generate_weights(cfg.scheme, cfg.alphas[0], cfg.betas[0], cfg.taus[0], cfg.j_max)
    rows = [(str(j), _fmt(wj)) for j, wj in enumerate(w.weights)]
    path = out / "weights.csv"
    _write_csv(path, cfg.resolved_comment(), "j,w_j", rows)
    return [path]


def _run_cm_check(cfg: ExperimentConfig, out: Path) -> list[Path]:
    alphas = cfg.alphas or list(default_grid(cfg.grid_step))
    betas = cfg.betas or list(default_grid(cfg.grid_step))
    results = sweep_grid(
        cfg.scheme, alphas, betas, cfg.taus[0], cfg.j_max, cfg.k_max, threads=cfg.threads
    )
    rows = []
    for alpha, beta, report in results:
        for k in range(cfg.k_max + 1):
            idx = float(report.indices[k])
            rows.append(
                (
                    _fmt_opt(alpha),
                    _fmt_opt(beta),
                    str(k),
                    _fmt(idx),
                    str(indicator_rho(idx + cfg.tolerance)),
                )
            )
    path = out / "cm_check.csv"
    _write_csv(path, cfg.resolved_comment(), "alpha,beta,k,index,rho_index", rows)
    return [path]


def _run_kernel(cfg: ExperimentConfig, out: Path) -> list[Path]:
    t = np.geomspace(cfg.t_min, cfg.t_max, cfg.points)
    rows = [
        (_fmt(ti), _fmt(hn_kernel(cfg.alphas[0], cfg.betas[0], float(ti)))) for ti in t
    ]
    path = out / "kernel.csv"
    _write_csv(path, cfg.resolved_comment(), "t,omega", rows)
    return [path]


def _run_convergence(cfg: ExperimentConfig, out: Path) -> list[Path]:
    mesh = build_mesh(cfg.nx, cfg.ny)
    params = HNParams(cfg.eps_inf, cfg.delta_eps, cfg.alphas[0], cfg.betas[0])
    report = run_convergence(
        mesh,
        params,
        cfg.taus,
        mode=cfg.mode,
        tau_ref=cfg.tau_ref,
        t_final=cfg.t_final,
        scheme=cfg.scheme,
    )
    rows = []
    for i, tau in enumerate(report.taus):
        rate = lambda arr: _fmt(arr[i - 1]) if i > 0 else ""
        rows.append(
            (
                _fmt(tau),
                _fmt(report.err_e[i]),
                rate(report.rate_e),
                _fmt(report.err_h[i]),
                rate(report.rate_h),
                _fmt(report.err_p[i]),
                rate(report.rate_p),
            )
        )
    path = out / "convergence.csv"
    _write_csv(
        path,
        cfg.resolved_comment(),
        "tau,err_E,rate_E,err_H,rate_H,err_P,rate_P",
        rows,
    )
    return [path]


def _run_energy(cfg: ExperimentConfig, out: Path) -> list[Path]:
    mesh = build_mesh(cfg.nx, cfg.ny)
    paths = []
    for beta in cfg.betas:
        for alpha in cfg.alphas:
            params = HNParams(cfg.eps_inf, cfg.delta_eps, alpha, beta)
            trace = run_energy(mesh, params, cfg.taus[0], t_final=cfg.t_final, scheme=cfg.scheme)
            # one format per row: the level, then _fmt of each float column
            line = "%d" + ",%.16e" * 5
            columns = (trace.n, trace.t, trace.total, trace.term_e, trace.term_h, trace.term_hist)
            rows = [(line % values,) for values in zip(*(c.tolist() for c in columns))]
            path = out / f"energy_alpha{alpha:g}_beta{beta:g}.csv"
            _write_csv(path, cfg.resolved_comment(), "n,t,total,term_E,term_H,term_hist", rows)
            paths.append(path)
    return paths


def _checks_for(cfg: ExperimentConfig):
    if cfg.experiment == "weights":
        return [checks.check_quadrature_order, checks.check_consistency_residual]
    if cfg.experiment == "cm-check":
        if cfg.scheme == "bdf2":
            return [lambda: checks.check_bdf2_violations(threads=cfg.threads)]
        return [lambda: checks.check_cm_indices(threads=cfg.threads)]
    if cfg.experiment == "kernel":
        return [checks.check_debye_limits]
    if cfg.experiment == "convergence":
        return [checks.check_temporal_convergence]
    if cfg.experiment == "energy":
        return [checks.check_energy_decay, checks.check_fem_structure]
    return []


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit status."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    runner = {
        "weights": _run_weights,
        "cm-check": _run_cm_check,
        "kernel": _run_kernel,
        "convergence": _run_convergence,
        "energy": _run_energy,
    }[cfg.experiment]
    paths = runner(cfg, out)
    for path in paths:
        print(f"wrote {path}")
    status = 0
    if cfg.check:
        for make_check in _checks_for(cfg):
            result = make_check()
            print(result.line())
            if not result.passed:
                status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = build_config(sys.argv[1:] if argv is None else argv)
    except (ValueError, OSError) as exc:
        print(f"hnmx: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except (SeriesConvergenceError, NotCompletelyMonotoneError) as exc:
        print(f"hnmx: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
