"""``hnmx`` command line harness.

Five experiments, all emitting deterministic CSV (one header row, a ``#``
comment line with the fully resolved configuration, fixed float formatting):

    hnmx weights      --scheme cm2 --alpha 0.5 --beta 0.5 --tau 0.01 --J 1000
    hnmx cm-check     --scheme cm2 --tau 0.01 --J 1000 --kmax 3
    hnmx kernel       --alpha 0.5 --beta 0.5
    hnmx convergence  --alpha 0.5 --beta 0.5 --tau 0.1,0.05,0.025 --nx 64 --ny 64
    hnmx energy       --alpha 0.1,0.3,0.5,0.7,0.9 --beta 0.4 --tau 0.01 --nx 32 --ny 32

Options may come from ``--config FILE`` (flat ``key=value`` lines, ``#``
comments); explicit flags override the file.  A key is its flag without the
leading ``--``, with ``_`` for each ``-`` (``--grid-step`` is ``grid_step``,
``--J`` is ``J``).  The output directory is ``--out``, the ``HNMX_OUT``
environment variable, or the working directory, in that order.  With
``--check`` the experiment additionally runs its acceptance checks.

Exit status: 0 on success, 1 when a ``--check`` failed, 2 on bad input or a
refused computation, with one ``hnmx: <message>`` line on stderr (after the
usage line when argparse rejects the command line itself).  The harness
checks only what it parses: option choices, required and single values,
finite numbers and ``--threads``.  Every other rule is kept by the library
function that consumes the value, which refuses it before any work.

Each option is declared once, as an :class:`ExperimentConfig` field carrying
its key and value parser, and each experiment once, in ``_EXPERIMENTS``.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import checks
from .fem import build_mesh
from .monotonicity import default_grid, indicator_rho, sweep_grid
from .prabhakar import SeriesConvergenceError, hn_kernel
from .quadrature import SCHEMES, generate_weights
from .stepper import HNParams, run_convergence, run_energy

__all__ = ["ExperimentConfig", "run", "main"]


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _option(key: str, parse: Callable, default=None, **argparse_extras):
    """A field set by ``key=`` in a config file or by its flag, both read by ``parse``."""
    meta = {"key": key, "parse": parse, "argparse": argparse_extras}
    if isinstance(default, list):  # a fresh empty list per config
        return field(default_factory=list, metadata=meta)
    return field(default=default, metadata=meta)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


@dataclass
class ExperimentConfig:
    experiment: str
    scheme: str = _option("scheme", str, "cm2", choices=SCHEMES)
    alphas: list[float] = _option("alpha", _floats, [], help="value or comma-separated list")
    betas: list[float] = _option("beta", _floats, [], help="value or comma-separated list")
    taus: list[float] = _option("tau", _floats, [], help="step size or comma-separated list")
    nx: int = _option("nx", int, 100)
    ny: int = _option("ny", int, 100)
    t_final: float = _option("T", float, 1.0)
    j_max: int = _option("J", int, 1000)
    k_max: int = _option("kmax", int, 3)
    grid_step: float = _option("grid_step", float, 0.05)
    tolerance: float = _option("tolerance", float, 1e-13)
    eps_inf: float = _option("eps_inf", float, 1.0)
    delta_eps: float = _option("delta_eps", float, 1.0)
    mode: str = _option("mode", str, "vs_reference", choices=("vs_reference", "vs_exact"))
    tau_ref: float | None = _option("tau_ref", float)
    t_min: float = _option("tmin", float, 1e-3)
    t_max: float = _option("tmax", float, 10.0)
    points: int = _option("points", int, 200)
    out: str = _option("out", str, ".", help="output directory (fallback: $HNMX_OUT, then cwd)")
    check: bool = False
    threads: int | None = _option("threads", int)

    def validate(self) -> None:
        spec = _EXPERIMENTS.get(self.experiment)
        if spec is None:
            known = tuple(_EXPERIMENTS)
            raise ValueError(f"unknown experiment {self.experiment!r}, expected {known}")
        for f_ in fields(self):
            val, key = getattr(self, f_.name), f_.metadata.get("key", f_.name)
            choices = f_.metadata.get("argparse", {}).get("choices")
            if choices and val not in choices:
                raise ValueError(f"{key}: unknown value {val!r}, expected one of {choices}")
            if f_.name in spec.required and not val:
                raise ValueError(f"{self.experiment}: missing required option {_flag(key)}")
            if f_.name in spec.single and len(val) != 1:
                raise ValueError(f"{self.experiment}: {_flag(key)} must be a single value")
            for v in val if isinstance(val, list) else [val]:
                if isinstance(v, float) and not math.isfinite(v):
                    raise ValueError(f"{key}={v} must be a finite number")
        if self.threads is not None and self.threads < 1:
            raise ValueError(f"--threads={self.threads} must be at least 1")

    def resolved_comment(self) -> str:
        parts = []
        for f_ in fields(self):
            val = getattr(self, f_.name)
            if isinstance(val, list):
                val = ",".join(_fmt_opt(v) for v in val)
            parts.append(f"{f_.metadata.get('key', f_.name)}={val}")
        return "# config: " + " ".join(parts)


# config key -> field, for every option a config file or a flag may set
_OPTIONS = {f_.metadata["key"]: f_ for f_ in fields(ExperimentConfig) if f_.metadata}


def _fmt_opt(x) -> str:
    return f"{x:g}" if isinstance(x, float) else str(x)


def _fmt(x: float) -> str:
    return f"{x:.16e}"


@functools.cache  # argparse parsers are reusable; build it once per process
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hnmx", description=__doc__.splitlines()[0])
    p.add_argument("experiment", choices=tuple(_EXPERIMENTS))
    p.add_argument("--config", help="flat key=value option file; flags override it")
    for key, f_ in _OPTIONS.items():
        p.add_argument(_flag(key), dest=key, **f_.metadata["argparse"])
    p.add_argument("--check", action="store_true", help="also run the acceptance checks")
    return p


def _read_config_file(path: str) -> dict[str, str]:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = (tok.strip() for tok in line.split("=", 1))
        if key not in _OPTIONS:
            raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
        values[key] = val
    return values


def build_config(argv: list[str]) -> ExperimentConfig:
    args = vars(_build_parser().parse_args(argv))
    texts = _read_config_file(args["config"]) if args["config"] else {}
    texts.update((key, args[key]) for key in _OPTIONS if args[key] is not None)
    values = {}
    for key, text in texts.items():
        f_ = _OPTIONS[key]
        try:
            values[f_.name] = f_.metadata["parse"](text)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    values.setdefault("out", os.environ.get("HNMX_OUT", "."))
    cfg = ExperimentConfig(args["experiment"], check=args["check"], **values)
    cfg.validate()
    return cfg


def _run_weights(cfg: ExperimentConfig) -> Iterator[tuple]:
    w = generate_weights(cfg.scheme, cfg.alphas[0], cfg.betas[0], cfg.taus[0], cfg.j_max)
    yield "weights.csv", "j,w_j", [f"{j},{_fmt(wj)}" for j, wj in enumerate(w.weights)]


def _run_cm_check(cfg: ExperimentConfig) -> Iterator[tuple]:
    alphas = cfg.alphas or list(default_grid(cfg.grid_step))
    betas = cfg.betas or list(default_grid(cfg.grid_step))
    results = sweep_grid(
        cfg.scheme, alphas, betas, cfg.taus[0], cfg.j_max, cfg.k_max, threads=cfg.threads
    )
    lines = [
        f"{_fmt_opt(alpha)},{_fmt_opt(beta)},{k},{_fmt(idx)},{indicator_rho(idx + cfg.tolerance)}"
        for alpha, beta, indices in results
        for k, idx in enumerate(indices.tolist())
    ]
    yield "cm_check.csv", "alpha,beta,k,index,rho_index", lines


def _run_kernel(cfg: ExperimentConfig) -> Iterator[tuple]:
    if cfg.points < 1:
        raise ValueError(f"--points={cfg.points} must be at least 1")
    if not 0 < cfg.t_min < cfg.t_max:
        raise ValueError(f"need 0 < --tmin < --tmax, got {cfg.t_min:g} and {cfg.t_max:g}")
    t = np.geomspace(cfg.t_min, cfg.t_max, cfg.points)
    omega = [hn_kernel(cfg.alphas[0], cfg.betas[0], float(ti)) for ti in t]
    yield "kernel.csv", "t,omega", [f"{_fmt(ti)},{_fmt(wi)}" for ti, wi in zip(t, omega)]


def _run_convergence(cfg: ExperimentConfig) -> Iterator[tuple]:
    mesh = build_mesh(cfg.nx, cfg.ny)
    params = HNParams(cfg.eps_inf, cfg.delta_eps, cfg.alphas[0], cfg.betas[0])
    report = run_convergence(mesh, params, cfg.taus, mode=cfg.mode, tau_ref=cfg.tau_ref,
                             t_final=cfg.t_final, scheme=cfg.scheme)
    columns = [(report.err_e, report.rate_e), (report.err_h, report.rate_h),
               (report.err_p, report.rate_p)]
    lines = []
    for i, tau in enumerate(report.taus):
        cells = [_fmt(tau)]
        for err, rate in columns:
            cells += [_fmt(err[i]), _fmt(rate[i - 1]) if i > 0 else ""]
        lines.append(",".join(cells))
    yield "convergence.csv", "tau,err_E,rate_E,err_H,rate_H,err_P,rate_P", lines


def _run_energy(cfg: ExperimentConfig) -> Iterator[tuple]:
    mesh = build_mesh(cfg.nx, cfg.ny)
    line = "%d" + ",%.16e" * 5  # the level, then _fmt of each float column
    for beta in cfg.betas:
        for alpha in cfg.alphas:
            params = HNParams(cfg.eps_inf, cfg.delta_eps, alpha, beta)
            trace = run_energy(mesh, params, cfg.taus[0], t_final=cfg.t_final, scheme=cfg.scheme)
            columns = (trace.n, trace.t, trace.total, trace.term_e, trace.term_h, trace.term_hist)
            lines = [line % values for values in zip(*(c.tolist() for c in columns))]
            name = f"energy_alpha{alpha:g}_beta{beta:g}.csv"
            yield name, "n,t,total,term_E,term_H,term_hist", lines


def _cm_checks(cfg: ExperimentConfig) -> tuple:
    certify = checks.check_bdf2_violations if cfg.scheme == "bdf2" else checks.check_cm_indices
    return (functools.partial(certify, threads=cfg.threads),)


class _Experiment(NamedTuple):
    run: Callable  # cfg -> (file name, header, data lines) per CSV
    required: tuple[str, ...]  # fields that must be given
    single: tuple[str, ...]  # list fields that must hold exactly one value
    checks: Callable  # cfg -> the zero-argument acceptance checks of --check


_EXPERIMENTS = {
    "weights": _Experiment(
        _run_weights, ("alphas", "betas", "taus"), ("alphas", "betas", "taus"),
        lambda cfg: (checks.check_quadrature_order, checks.check_consistency_residual)),
    "cm-check": _Experiment(_run_cm_check, ("taus",), ("taus",), _cm_checks),
    "kernel": _Experiment(
        _run_kernel, ("alphas", "betas"), ("alphas", "betas"),
        lambda cfg: (checks.check_debye_limits,)),
    "convergence": _Experiment(
        _run_convergence, ("alphas", "betas", "taus"), ("alphas", "betas"),
        lambda cfg: (checks.check_temporal_convergence,)),
    "energy": _Experiment(
        _run_energy, ("alphas", "betas", "taus"), ("taus",),
        lambda cfg: (checks.check_energy_decay, checks.check_fem_structure)),
}


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit status."""
    spec = _EXPERIMENTS[cfg.experiment]
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    comment = cfg.resolved_comment()
    outputs = list(spec.run(cfg))  # a refused run raises before any CSV is written
    for name, header, lines in outputs:
        path = out / name
        path.write_text("\n".join([comment, header, *lines]) + "\n")
        print(f"wrote {path}")
    status = 0
    if cfg.check:
        for check in spec.checks(cfg):
            result = check()
            print(result.line())
            if not result.passed:
                status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    try:
        return run(build_config(sys.argv[1:] if argv is None else argv))
    except (ValueError, OSError, SeriesConvergenceError) as exc:
        print(f"hnmx: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
