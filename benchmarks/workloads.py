"""The benchmark workloads: their ``hnmx`` invocations, work counts and output checks.

Each workload is a list of ``hnmx`` argument vectors that one repetition
passes, in order, to ``hnmaxwell.cli.main``.  The checks read the CSVs the
invocations wrote and raise :class:`OutputError` when a result is wrong.
"""

from __future__ import annotations

import math
from pathlib import Path

__all__ = [
    "WORKLOADS",
    "OutputError",
    "invocations",
    "work_per_repetition",
    "check_outputs",
    "check_energy",
    "check_cm",
    "cm_invocations",
    "pair_for_seed",
    "read_columns",
]

WORKLOADS = ("energy-longmem", "convergence-manufactured", "cm-sweep")

# (alpha, beta) pairs the acceptance checks already cover: criterion 5 runs
# the 5 x 4 energy grid plus the coarse (0.5, 0.5) case, criterion 6 the
# three convergence pairs.  The first pair of each list is the default.
ENERGY_PAIRS = [(0.5, 0.5)] + [
    (a, b) for b in (0.1, 0.4, 0.7, 1.0) for a in (0.1, 0.3, 0.5, 0.7, 0.9)
]
CONVERGENCE_PAIRS = [(0.5, 0.5), (0.1, 0.1), (0.5, 1.0)]

ENERGY_TAU = 0.0009765625  # 1/1024
ENERGY_STEPS = 1024
CONVERGENCE_TAUS = (0.1, 0.05, 0.025)
CONVERGENCE_TAU_REF = 0.003125  # 1/320
CONVERGENCE_STEPS = 10 + 20 + 40 + 320  # the three runs plus the reference
CM_SCHEMES = ("cm2", "bdf2")
CM_KMAX = 3
# (alpha, beta) values of each workload's certificate sweeps: cm-sweep's is
# the default 19 x 19 grid, energy-longmem's the alphas of criterion 5's grid.
CM_GRIDS = {
    "cm-sweep": [round(0.05 * i, 2) for i in range(1, 20)],
    "energy-longmem": [0.1, 0.3, 0.5, 0.7, 0.9],
}

ENERGY_HEADER = ["n", "t", "total", "term_E", "term_H", "term_hist"]
CONVERGENCE_HEADER = ["tau", "err_E", "rate_E", "err_H", "rate_H", "err_P", "rate_P"]
CM_HEADER = ["alpha", "beta", "k", "index", "rho_index"]
RHO_INDEX_FILE = Path(__file__).resolve().parent / "cm_rho_index.txt"


class OutputError(ValueError):
    """A workload's output is missing, malformed or outside its acceptance window."""


def pair_for_seed(workload: str, seed: int) -> tuple[float, float]:
    """The (alpha, beta) a stepper workload runs for ``seed``."""
    pairs = ENERGY_PAIRS if workload == "energy-longmem" else CONVERGENCE_PAIRS
    return pairs[seed % len(pairs)]


def cm_invocations(workload: str, out: Path) -> list[list[str]]:
    """The cm2 then bdf2 ``hnmx cm-check`` sweeps of ``workload``, in ``out/<scheme>``."""
    grid = ",".join(f"{v:g}" for v in CM_GRIDS[workload])
    return [
        [
            "cm-check", "--scheme", scheme, "--alpha", grid, "--beta", grid, "--tau", "0.01",
            "--J", "1000", "--kmax", str(CM_KMAX), "--threads", "1", "--out", str(out / scheme),
        ]
        for scheme in CM_SCHEMES
    ]


def invocations(workload: str, seed: int, out: Path) -> list[list[str]]:
    """``hnmx`` argument vectors of one repetition, writing below ``out``."""
    if workload == "energy-longmem":
        alpha, beta = pair_for_seed(workload, seed)
        return [[
            "energy", "--alpha", f"{alpha:g}", "--beta", f"{beta:g}",
            "--tau", repr(ENERGY_TAU), "--nx", "32", "--ny", "32", "--T", "1",
            "--out", str(out),
        ]] + cm_invocations(workload, out)
    if workload == "convergence-manufactured":
        alpha, beta = pair_for_seed(workload, seed)
        return [[
            "convergence", "--alpha", f"{alpha:g}", "--beta", f"{beta:g}",
            "--tau", ",".join(f"{t:g}" for t in CONVERGENCE_TAUS),
            "--nx", "64", "--ny", "64", "--T", "1",
            "--mode", "vs_reference", "--tau-ref", repr(CONVERGENCE_TAU_REF),
            "--out", str(out),
        ]]
    if workload == "cm-sweep":
        return cm_invocations(workload, out)
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


def work_per_repetition(workload: str) -> int:
    """Time steps advanced (stepper workloads) or (alpha, beta) cells certified (cm-sweep)."""
    return {
        "energy-longmem": ENERGY_STEPS,
        "convergence-manufactured": CONVERGENCE_STEPS,
        "cm-sweep": len(CM_GRIDS["cm-sweep"]) ** 2 * len(CM_SCHEMES),
    }[workload]


def read_columns(path: Path, header: list[str], optional=()) -> dict[str, list]:
    """Columns of an ``hnmx`` CSV: a ``#`` config line, ``header``, then rows.

    Cells hold finite numbers; only the ``optional`` columns may also be
    empty (read as None).  Any other deviation raises :class:`OutputError`.
    """
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise OutputError(f"cannot read {path}: {exc}") from exc
    if len(lines) < 2 or not lines[0].startswith("#"):
        raise OutputError(f"{path}: missing config comment line")
    if lines[1].split(",") != header:
        raise OutputError(f"{path}: header {lines[1]!r}, expected {','.join(header)!r}")
    cols: dict[str, list] = {name: [] for name in header}
    for lineno, line in enumerate(lines[2:], start=3):
        cells = line.split(",")
        if len(cells) != len(header):
            raise OutputError(f"{path}:{lineno}: {len(cells)} cells, expected {len(header)}")
        for name, cell in zip(header, cells):
            if cell == "" and name in optional:
                cols[name].append(None)
                continue
            try:
                value = float(cell)
            except ValueError:
                raise OutputError(f"{path}:{lineno}: {name}={cell!r} is not a number") from None
            if not math.isfinite(value):
                raise OutputError(f"{path}:{lineno}: {name}={cell!r} is not finite")
            cols[name].append(value)
    return cols


def check_energy(out: Path) -> str:
    """Criterion 5's bound: ``total`` rises by at most 1e-10 E^0 at any step."""
    paths = sorted(Path(out).glob("energy_*.csv"))
    if len(paths) != 1:
        raise OutputError(f"expected one energy CSV in {out}, found {len(paths)}")
    total = read_columns(paths[0], ENERGY_HEADER)["total"]
    if len(total) != ENERGY_STEPS + 1:
        raise OutputError(f"{paths[0]}: {len(total)} levels, expected {ENERGY_STEPS + 1}")
    rise = max(b - a for a, b in zip(total, total[1:]))
    if not rise <= 1e-10 * total[0]:
        raise OutputError(f"energy rises by {rise:.3e}, above 1e-10 E^0 = {1e-10 * total[0]:.3e}")
    return f"max energy rise {rise / total[0]:.3e} E^0"


def check_convergence(out: Path) -> str:
    """Criterion 6's window: every E-rate lies in [1.8, 2.2]."""
    cols = read_columns(Path(out) / "convergence.csv", CONVERGENCE_HEADER,
                        optional=("rate_E", "rate_H", "rate_P"))
    if cols["tau"] != list(CONVERGENCE_TAUS):
        raise OutputError(f"step sizes {cols['tau']}, expected {list(CONVERGENCE_TAUS)}")
    rates = cols["rate_E"][1:]
    if cols["rate_E"][0] is not None or not all(r is not None and 1.8 <= r <= 2.2 for r in rates):
        raise OutputError(f"E-rates {cols['rate_E']} outside [1.8, 2.2]")
    return "E-rates " + ", ".join(f"{r:.3f}" for r in rates)


def recorded_rho_index() -> dict[tuple[str, str], str]:
    """The ``rho_index`` column per (workload, scheme), as a 0/1 string in CSV row order."""
    recorded = {}
    for line in RHO_INDEX_FILE.read_text().splitlines():
        workload, scheme, bits = line.split()
        recorded[workload, scheme] = bits
    return recorded


def check_cm(out: Path, workload: str) -> str:
    """Criteria 2 and 3 plus the recorded ``rho_index`` columns of ``workload``'s sweeps."""
    cols = {s: read_columns(Path(out) / s / "cm_check.csv", CM_HEADER) for s in CM_SCHEMES}
    expected = recorded_rho_index()
    rows = len(CM_GRIDS[workload]) ** 2 * (CM_KMAX + 1)
    for scheme, c in cols.items():
        if len(c["k"]) != rows:
            raise OutputError(f"{scheme}: {len(c['k'])} rows, expected {rows}")
        bits = "".join(str(int(r)) for r in c["rho_index"])
        if bits != expected[workload, scheme]:
            raise OutputError(f"{scheme}: rho_index column differs from the recorded one")
    worst = min(cols["cm2"]["index"])
    if not worst >= -1e-13:
        raise OutputError(f"cm2 worst index {worst:.3e} below -1e-13")
    bdf2 = cols["bdf2"]
    counts = [
        sum(1 for k, idx in zip(bdf2["k"], bdf2["index"]) if k == order and idx < -1e-8)
        for order in (1, 2, 3)
    ]
    if not (counts[0] > 0 and counts[0] <= counts[1] <= counts[2]):
        raise OutputError(f"bdf2 failing cells per k {counts} not positive and nondecreasing")
    return f"cm2 worst index {worst:.3e}; bdf2 failing cells per k {counts}"


def check_outputs(workload: str, out: Path) -> str:
    """Check one repetition's CSVs; returns a one-line summary or raises OutputError."""
    if workload == "energy-longmem":
        return check_energy(out) + "; " + check_cm(out, workload)
    if workload == "convergence-manufactured":
        return check_convergence(out)
    return check_cm(out, workload)
