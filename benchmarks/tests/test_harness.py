"""Tests of the benchmark harness: span bookkeeping and output checks.

    python3 -m pytest benchmarks/tests
"""

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spans
import workloads

REPO = Path(__file__).resolve().parents[2]


def test_nested_span_self_time():
    tracer = spans.Tracer("t")

    def leaf():
        time.sleep(0.02)

    def middle():
        time.sleep(0.01)
        traced_leaf()
        traced_leaf()

    def root():
        traced_middle()
        time.sleep(0.01)

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("root", root)()

    by_name = {}
    for (name, start, end, parent), own in zip(tracer.spans, spans.self_times(tracer.spans)):
        by_name.setdefault(name, []).append((start, end, parent, own))
    (r_start, r_end, r_parent, r_self), = by_name["root"]
    (m_start, m_end, m_parent, m_self), = by_name["middle"]
    leaves = by_name["leaf"]
    assert r_parent == -1 and m_parent == 0 and all(p == 1 for _, _, p, _ in leaves)
    leaf_busy = sum(e - s for s, e, _, _ in leaves)
    assert m_self == pytest.approx((m_end - m_start) - leaf_busy, abs=1e-12)
    assert r_self == pytest.approx((r_end - r_start) - (m_end - m_start), abs=1e-12)
    assert 0.009 <= m_self < 0.02 and 0.009 <= r_self < 0.02
    total = sum(spans.self_times(tracer.spans))
    assert total == pytest.approx(r_end - r_start, abs=1e-12)

    metrics = spans.layer_metrics(
        [["stepper.init_state", 0.0, 1.0, -1]]
        + [["stepper.step", 1.0 + i, 2.0 + i + 0.1 * i, -1] for i in range(20)],
        {"stepper.history_mb": 3.0},
    )
    assert metrics["stepper.step.calls"] == 20
    assert metrics["stepper.step.tail_ratio"] == pytest.approx((2.8 + 2.9) / 2 / 1.05)
    assert metrics["stepper.history_mb"] == 3.0
    assert metrics["monotonicity.cells"] == 0.0


def test_install_wraps_every_importer():
    import hnmaxwell.quadrature as quadrature
    import hnmaxwell.series as series

    originals = (series.series_pow, quadrature.series_pow)
    tracer = spans.Tracer("t")
    try:
        spans.install(tracer, [("series.series_pow", "hnmaxwell.series", "series_pow", None)])
        quadrature.cm2_weights(0.5, 0.5, 0.01, 16)
        assert [s[0] for s in tracer.spans] == ["series.series_pow"]
    finally:
        series.series_pow, quadrature.series_pow = originals


def test_install_reports_a_missing_target():
    tracer = spans.Tracer("t")
    missing = spans.install(tracer, [
        ("series.gone", "hnmaxwell.series", "no_such_function", None),
        ("stepper.gone", "hnmaxwell.stepper", "StepOperator.no_such_method", None),
    ])
    assert missing == ["hnmaxwell.series.no_such_function",
                       "hnmaxwell.stepper.StepOperator.no_such_method"]
    assert tracer.spans == []


def test_traced_repetition_fails_on_missing_or_unattributed_time():
    traced = {"unwrapped": [], "wall_s": 10.0, "layers": {"cli.run.self_s": 0.1}}
    assert run.trace_problems(traced) == []
    traced["unwrapped"] = ["hnmaxwell.stepper.step"]
    assert run.trace_problems(traced) == ["hnmaxwell.stepper.step not found, so not traced"]
    traced["unwrapped"] = []
    traced["layers"]["cli.run.self_s"] = 0.6
    assert "cli.run.self_s" in run.trace_problems(traced)[0]


def _write_energy_csv(path: Path, totals) -> None:
    rows = [f"{n},{n * 0.1:.16e},{t:.16e},0,0,0" for n, t in enumerate(totals)]
    path.write_text("# config: test\n" + ",".join(workloads.ENERGY_HEADER) + "\n"
                    + "\n".join(rows) + "\n")


def test_energy_check_accepts_decay_and_rejects_corruption(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "ENERGY_STEPS", 4)
    csv = tmp_path / "energy_alpha0.5_beta0.5.csv"
    _write_energy_csv(csv, [5.0, 4.0, 3.0, 3.0, 2.0])
    workloads.check_energy(tmp_path)

    _write_energy_csv(csv, [5.0, 4.0, 4.5, 3.0, 2.0])  # a rising step
    with pytest.raises(workloads.OutputError, match="rises"):
        workloads.check_energy(tmp_path)

    _write_energy_csv(csv, [5.0, 4.0, 3.0, 3.0])  # truncated
    with pytest.raises(workloads.OutputError, match="levels"):
        workloads.check_energy(tmp_path)

    _write_energy_csv(csv, [5.0, 4.0, 3.0, 3.0, 2.0])
    text = csv.read_text()
    csv.write_text(text.replace("3.0000000000000000e+00", "nan", 1))
    with pytest.raises(workloads.OutputError, match="not finite"):
        workloads.check_energy(tmp_path)
    csv.write_text(text.replace("3.0000000000000000e+00", "", 1))
    with pytest.raises(workloads.OutputError, match="not a number"):
        workloads.check_energy(tmp_path)


def test_convergence_check_rejects_rate_outside_window(tmp_path):
    header = ",".join(workloads.CONVERGENCE_HEADER)
    good = [f"{t:.16e},1e-3,{r},1e-3,{r},1e-3,{r}"
            for t, r in zip(workloads.CONVERGENCE_TAUS, ("", "2.01", "1.99"))]
    csv = tmp_path / "convergence.csv"
    csv.write_text("# config\n" + header + "\n" + "\n".join(good) + "\n")
    workloads.check_outputs("convergence-manufactured", tmp_path)
    csv.write_text(csv.read_text().replace("1.99", "1.70"))
    with pytest.raises(workloads.OutputError, match="outside"):
        workloads.check_outputs("convergence-manufactured", tmp_path)


@pytest.fixture(scope="module")
def cm_outputs(tmp_path_factory):
    """The real cm-sweep CSVs, written once by hnmx."""
    out = tmp_path_factory.mktemp("cm")
    for argv in workloads.invocations("cm-sweep", 0, out):
        subprocess.run([sys.executable, "-m", "hnmaxwell.cli", *argv], check=True,
                       capture_output=True, env={"PYTHONPATH": str(REPO / "src")})
    return out


def test_cm_check_accepts_real_output_and_rejects_flipped_rho(cm_outputs, tmp_path):
    workloads.check_outputs("cm-sweep", cm_outputs)
    corrupt = tmp_path / "cm"
    shutil.copytree(cm_outputs, corrupt)
    csv = corrupt / "bdf2" / "cm_check.csv"
    lines = csv.read_text().splitlines()
    lines[-1] = lines[-1][:-1] + ("0" if lines[-1].endswith("1") else "1")
    csv.write_text("\n".join(lines) + "\n")
    with pytest.raises(workloads.OutputError, match="rho_index"):
        workloads.check_outputs("cm-sweep", corrupt)


def test_benchmark_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(REPO / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "cm-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
