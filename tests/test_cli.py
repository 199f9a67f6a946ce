"""Harness tests: CSV schemas, config handling, determinism."""

import subprocess
import sys
import time

import numpy as np
import pytest

from hnmaxwell import checks
from hnmaxwell.cli import ExperimentConfig, build_config, main
from hnmaxwell.monotonicity import index_k
from hnmaxwell.prabhakar import hn_kernel
from hnmaxwell.quadrature import cm2_weights


def read_csv(path):
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    rows = [ln.split(",") for ln in body[1:]]
    return comments, header, rows


def test_weights_roundtrip(tmp_path):
    assert main([
        "weights", "--scheme", "cm2", "--alpha", "0.5", "--beta", "0.5",
        "--tau", "0.01", "--J", "50", "--out", str(tmp_path),
    ]) == 0
    comments, header, rows = read_csv(tmp_path / "weights.csv")
    assert header == ["j", "w_j"]
    assert len(comments) == 1 and comments[0].startswith("# config:")
    got = np.array([float(r[1]) for r in rows])
    assert np.array_equal(got, cm2_weights(0.5, 0.5, 0.01, 50).weights)


def test_reruns_byte_identical(tmp_path):
    # '#' comment lines carry the resolved config (incl. the out dir) and are
    # excluded from the comparison; everything else must match byte for byte
    def data_bytes(path):
        return b"\n".join(
            ln for ln in path.read_bytes().splitlines() if not ln.startswith(b"#")
        )

    args = [
        "weights", "--scheme", "bdf2", "--alpha", "0.7", "--beta", "0.3",
        "--tau", "0.02", "--J", "40",
    ]
    main(args + ["--out", str(tmp_path / "a")])
    main(args + ["--out", str(tmp_path / "b")])
    first = data_bytes(tmp_path / "a" / "weights.csv")
    assert first == data_bytes(tmp_path / "b" / "weights.csv")
    # and a literal rerun into the same directory is fully identical
    main(args + ["--out", str(tmp_path / "a")])
    assert data_bytes(tmp_path / "a" / "weights.csv") == first


def test_cm_check_single_point(tmp_path):
    assert main([
        "cm-check", "--scheme", "cm2", "--alpha", "0.5", "--beta", "0.5",
        "--tau", "0.01", "--J", "200", "--kmax", "2", "--out", str(tmp_path),
        "--threads", "1",
    ]) == 0
    _, header, rows = read_csv(tmp_path / "cm_check.csv")
    assert header == ["alpha", "beta", "k", "index", "rho_index"]
    assert len(rows) == 3
    w = cm2_weights(0.5, 0.5, 0.01, 200).weights
    for row in rows:
        k = int(row[2])
        assert float(row[3]) == pytest.approx(index_k(w, k, 200), abs=1e-16)
        assert row[4] == "1"


def test_kernel_csv(tmp_path):
    assert main([
        "kernel", "--alpha", "0.4", "--beta", "0.9", "--tmin", "0.1",
        "--tmax", "2.0", "--points", "7", "--out", str(tmp_path),
    ]) == 0
    _, header, rows = read_csv(tmp_path / "kernel.csv")
    assert header == ["t", "omega"]
    assert len(rows) == 7
    for row in rows:
        assert float(row[1]) == pytest.approx(hn_kernel(0.4, 0.9, float(row[0])), rel=1e-15)


def test_kernel_cancellation_exits_2(tmp_path, capsys):
    # t = 100 is far outside the series' accurate range: refuse, write nothing
    assert main([
        "kernel", "--alpha", "0.5", "--beta", "0.5", "--tmax", "100", "--out", str(tmp_path),
    ]) == 2
    assert not (tmp_path / "kernel.csv").exists()
    err = capsys.readouterr().err
    assert err.startswith("hnmx: ") and err.count("\n") == 1


def test_non_cm_scheme_exits_2(tmp_path, capsys):
    # no positive exponential sum matches bdf2 at (0.9, 0.9): refuse, write nothing
    assert main([
        "energy", "--scheme", "bdf2", "--alpha", "0.9", "--beta", "0.9", "--tau", "0.1",
        "--T", "1", "--nx", "2", "--ny", "2", "--out", str(tmp_path),
    ]) == 2
    assert not list(tmp_path.glob("energy_*.csv"))
    err = capsys.readouterr().err
    assert err.startswith("hnmx: bdf2 weights (alpha=0.9, beta=0.9, tau=0.1, N=10)")
    assert err.count("\n") == 1
    # where bdf2 happens to be completely monotone it still runs
    assert main([
        "energy", "--scheme", "bdf2", "--alpha", "0.5", "--beta", "0.5", "--tau", "0.1",
        "--T", "1", "--nx", "2", "--ny", "2", "--out", str(tmp_path),
    ]) == 0


def test_stepper_run_leaves_scipy_optimize_unimported(tmp_path):
    # numpy is the only runtime dependency: importing any part of scipy would
    # add about a quarter second and a second BLAS library to every run
    runs = [
        WEIGHTS + ["--J", "20"],
        ["cm-check", "--alpha", "0.5", "--beta", "0.5", "--tau", "0.1", "--J", "20",
         "--threads", "1"],
        KERNEL + ["--points", "5"],
        CONVERGENCE_2X2 + ["--tau", "0.25,0.125", "--tau-ref", "0.0625"],
        ENERGY_2X2 + ["--tau", "0.25"],
    ]
    code = "import sys\nfrom hnmaxwell.cli import main\n"
    code += "".join(f"assert main({argv + ['--out', str(tmp_path)]!r}) == 0\n" for argv in runs)
    code += "scipy = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
    code += "assert not scipy, scipy\n"
    # nor the process pool, which only a parallel cm-check uses (about 30 ms of imports)
    code += "pool = [m for m in sys.modules if m.split('.')[0] == 'multiprocessing'\n"
    code += "        or m == 'concurrent.futures' or m.startswith('concurrent.futures.')]\n"
    code += "assert not pool, pool\n"
    subprocess.run([sys.executable, "-c", code], check=True, capture_output=True)


def test_convergence_csv(tmp_path):
    assert main([
        "convergence", "--alpha", "0.5", "--beta", "0.5", "--tau", "0.25,0.125",
        "--nx", "8", "--ny", "8", "--T", "1.0", "--mode", "vs_reference",
        "--tau-ref", "0.015625", "--out", str(tmp_path),
    ]) == 0
    _, header, rows = read_csv(tmp_path / "convergence.csv")
    assert header == ["tau", "err_E", "rate_E", "err_H", "rate_H", "err_P", "rate_P"]
    assert len(rows) == 2
    assert rows[0][2] == ""  # no rate on the first row
    assert float(rows[1][2]) > 0.0


def test_energy_csvs(tmp_path):
    assert main([
        "energy", "--alpha", "0.3,0.7", "--beta", "0.5", "--tau", "0.1",
        "--nx", "8", "--ny", "8", "--T", "1.0", "--out", str(tmp_path),
    ]) == 0
    for alpha in ("0.3", "0.7"):
        path = tmp_path / f"energy_alpha{alpha}_beta0.5.csv"
        _, header, rows = read_csv(path)
        assert header == ["n", "t", "total", "term_E", "term_H", "term_hist"]
        totals = np.array([float(r[2]) for r in rows])
        assert totals.size == 11
        assert (np.diff(totals) <= 1e-10 * totals[0]).all()


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "scheme = cm2\n"
        "alpha = 0.5\n"
        "beta = 0.5\n"
        "tau = 0.02\n"
        "J = 30\n"
    )
    out = tmp_path / "out"
    assert main([
        "weights", "--config", str(cfg), "--tau", "0.04", "--out", str(out)
    ]) == 0
    comments, _, rows = read_csv(out / "weights.csv")
    assert "tau=0.04" in comments[0]  # flag wins over file
    got = np.array([float(r[1]) for r in rows])
    assert np.array_equal(got, cm2_weights(0.5, 0.5, 0.04, 30).weights)


def test_unknown_config_key(tmp_path, capsys):
    # also a value outside its option's choices, which argparse never sees in
    # a config file, and a line that is not key=value
    cfg = tmp_path / "bad.cfg"
    for text, reason in (("frobnicate = 7", "unknown option 'frobnicate'"),
                         ("scheme = bdf3", "scheme: unknown value 'bdf3'"),
                         ("alpha 0.5", "expected key=value")):
        cfg.write_text(f"alpha = 0.5\nbeta = 0.5\ntau = 0.1\n{text}\n")
        assert main(["weights", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("hnmx: ") and reason in err and err.count("\n") == 1
    assert not list(tmp_path.glob("*.csv"))


def test_missing_required_option():
    assert main(["weights", "--beta", "0.5", "--tau", "0.01"]) == 2
    with pytest.raises(ValueError, match="unknown experiment 'bogus'"):
        ExperimentConfig("bogus").validate()


def test_non_integer_step_count():
    assert main([
        "energy", "--alpha", "0.5", "--beta", "0.5", "--tau", "0.3",
        "--nx", "4", "--ny", "4", "--T", "1.0",
    ]) == 2


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("HNMX_OUT", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    assert main([
        "weights", "--scheme", "bdf1", "--alpha", "1.0", "--beta", "1.0",
        "--tau", "1.0", "--J", "3",
    ]) == 0
    assert (tmp_path / "weights.csv").exists()


def test_build_config_grid_defaults():
    cfg = build_config(["cm-check", "--tau", "0.01"])
    assert cfg.experiment == "cm-check"
    assert cfg.alphas == [] and cfg.betas == []  # grid filled from grid_step at run time
    assert cfg.grid_step == 0.05
    assert cfg.j_max == 1000 and cfg.k_max == 3


def test_check_mode_kernel(tmp_path):
    assert main([
        "kernel", "--alpha", "1.0", "--beta", "1.0", "--points", "5",
        "--out", str(tmp_path), "--check",
    ]) == 0


ENERGY_2X2 = ["energy", "--alpha", "0.5", "--beta", "0.5", "--nx", "2", "--ny", "2"]
CONVERGENCE_2X2 = ["convergence", "--alpha", "0.5", "--beta", "0.5", "--nx", "2", "--ny", "2"]
KERNEL = ["kernel", "--alpha", "0.5", "--beta", "0.5"]
WEIGHTS = ["weights", "--alpha", "0.5", "--beta", "0.5", "--tau", "0.1"]


@pytest.mark.parametrize("argv", [
    # domain errors raised while the experiment runs
    pytest.param(ENERGY_2X2 + ["--tau", "0.1", "--nx", "0"], id="nx-0"),
    pytest.param(ENERGY_2X2 + ["--tau", "0.1", "--alpha", "1.5"], id="alpha-1.5"),
    pytest.param(ENERGY_2X2 + ["--tau", "0.1", "--eps-inf", "0.5"], id="eps-inf-0.5"),
    pytest.param(ENERGY_2X2 + ["--tau", "0.1", "--delta-eps", "-1"], id="delta-eps-negative"),
    pytest.param(ENERGY_2X2 + ["--tau", "-0.5"], id="tau-negative"),
    pytest.param(WEIGHTS + ["--J", "-1"], id="J-negative"),
    pytest.param(CONVERGENCE_2X2 + ["--tau", "0.25,0.125", "--tau-ref", "0.1"],
                 id="tau-ref-not-dividing"),
    pytest.param(CONVERGENCE_2X2 + ["--tau", "0.25,0.125", "--tau-ref", "0"], id="tau-ref-0"),
    pytest.param(CONVERGENCE_2X2 + ["--tau", "0.25,0.125", "--tau-ref", "-0.125"],
                 id="tau-ref-negative"),
    pytest.param(CONVERGENCE_2X2 + ["--tau", "0.25,0.1"], id="taus-not-halving"),
    pytest.param(CONVERGENCE_2X2 + ["--tau", "0.25,0.125", "--mode", "vs_exact",
                                    "--tau-ref", "0.0625"], id="vs-exact-tau-ref"),
    # refused at a later pair, after earlier pairs ran: still no CSV
    pytest.param(ENERGY_2X2 + ["--tau", "0.25", "--alpha", "0.5,1.5"], id="second-pair-alpha-1.5"),
    pytest.param(ENERGY_2X2 + ["--tau", "0.1", "--scheme", "bdf2", "--alpha", "0.5,0.9",
                               "--beta", "0.5,0.9"], id="last-pair-not-cm"),
    # cross-option nonsense that the consuming library function refuses
    pytest.param(["cm-check", "--alpha", "0.5", "--beta", "0.5", "--tau", "0.01", "--J", "2"],
                 id="kmax-above-J"),
    pytest.param(["cm-check", "--tau", "0.01", "--grid-step", "0"], id="grid-step-0"),
    pytest.param(["cm-check", "--tau", "0.01", "--grid-step", "1"], id="grid-step-1"),
    pytest.param(KERNEL + ["--points", "0"], id="points-0"),
    pytest.param(KERNEL + ["--tmin", "0"], id="tmin-0"),
    pytest.param(KERNEL + ["--tmin", "2", "--tmax", "2"], id="tmin-equals-tmax"),
    pytest.param(ENERGY_2X2 + ["--tau", "0"], id="tau-0"),
    # whole step counts that no array can hold
    pytest.param(ENERGY_2X2 + ["--tau", "1e-300", "--T", "1"], id="step-count-above-intp"),
    pytest.param(CONVERGENCE_2X2 + ["--tau", "0.25,0.125", "--tau-ref", "1e-300"],
                 id="tau-ref-step-count-above-intp"),
    # non-finite numbers, scalar or list element
    pytest.param(ENERGY_2X2 + ["--tau", "0.25", "--T", "inf"], id="T-inf"),
    pytest.param(ENERGY_2X2 + ["--tau", "0.25", "--eps-inf", "nan"], id="eps-inf-nan"),
    pytest.param(ENERGY_2X2 + ["--tau", "0.25", "--delta-eps", "inf"], id="delta-eps-inf"),
    pytest.param(ENERGY_2X2 + ["--tau", "0.25", "--alpha", "0.5,nan"], id="alpha-list-nan"),
    pytest.param(["weights", "--alpha", "0.5", "--beta", "0.5", "--tau", "inf"], id="weights-tau-inf"),
    pytest.param(CONVERGENCE_2X2 + ["--tau", "0.25,0.125", "--tau-ref", "inf"], id="tau-ref-inf"),
    pytest.param(["cm-check", "--alpha", "0.5", "--beta", "0.5", "--tau", "0.01", "--J", "20",
                  "--tolerance", "nan"], id="tolerance-nan"),
    # a step so small that the scheme's symbol scale overflows a float
    pytest.param(["weights", "--scheme", "cm2", "--alpha", "0.999", "--beta", "0.5", "--tau",
                  "5e-324", "--J", "3"], id="weights-cm2-symbol-overflow"),
    pytest.param(["weights", "--scheme", "bdf1", "--alpha", "1", "--beta", "0.5", "--tau",
                  "5e-324", "--J", "3"], id="weights-bdf1-symbol-overflow"),
    pytest.param(["weights", "--scheme", "bdf2", "--alpha", "0.5", "--beta", "0.5", "--tau",
                  "5e-324", "--J", "3"], id="weights-bdf2-symbol-inf"),
    pytest.param(["cm-check", "--alpha", "0.999", "--beta", "0.5", "--tau", "5e-324", "--J", "3"],
                 id="cm-check-symbol-overflow"),
    pytest.param(["energy", "--alpha", "0.999", "--beta", "0.5", "--tau", "5e-324", "--T",
                  "2.5e-323", "--nx", "2", "--ny", "2"], id="energy-symbol-overflow"),
    # errors that overflow to inf form no rates
    pytest.param(CONVERGENCE_2X2 + ["--tau", "0.5,0.25", "--delta-eps", "1e300"],
                 id="convergence-errors-inf"),
    # a value its option's parser rejects
    pytest.param(WEIGHTS + ["--J", "ten"], id="J-not-an-integer"),
    # a list where one value is needed, and no worker
    pytest.param(["weights", "--alpha", "0.1,0.2", "--beta", "0.5", "--tau", "0.1"],
                 id="weights-alpha-list"),
    pytest.param(ENERGY_2X2 + ["--tau", "0.25", "--threads", "0"], id="threads-0"),
    pytest.param(["cm-check", "--tau", "0.01", "--threads", "-3"], id="threads-negative"),
])
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hnmx: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("*.csv"))


def test_check_mode_bdf2_certificate(tmp_path, capsys):
    assert main([
        "cm-check", "--scheme", "bdf2", "--tau", "0.01", "--J", "200", "--alpha", "0.9",
        "--beta", "0.9", "--threads", "1", "--out", str(tmp_path), "--check",
    ]) == 0
    assert "[PASS] bdf2 " in capsys.readouterr().out


def test_failed_check_exits_1(tmp_path, monkeypatch):
    failed = checks.CheckResult("Debye limits", passed=False, detail="forced", elapsed=0.0)
    monkeypatch.setattr(checks, "check_debye_limits", lambda: failed)
    assert main([
        "kernel", "--alpha", "1", "--beta", "1", "--points", "5", "--out", str(tmp_path),
        "--check",
    ]) == 1
    # a check that passes its tolerance but overruns its runtime budget fails
    late = checks._result("slow", time.perf_counter() - 2.0, True, "ok", budget=1.0)
    assert not late.passed and "exceeded budget 1s" in late.detail


# Every config key, its flag, and two non-default values that a convergence
# run accepts (the second one overrides the first).
OPTIONS = {
    "scheme": ("--scheme", "bdf2", "bdf1"),
    "alpha": ("--alpha", "0.3", "0.4"),
    "beta": ("--beta", "0.7", "0.6"),
    "tau": ("--tau", "0.25,0.125", "0.5,0.25"),
    "nx": ("--nx", "8", "9"),
    "ny": ("--ny", "6", "7"),
    "T": ("--T", "2", "3"),
    "J": ("--J", "50", "60"),
    "kmax": ("--kmax", "2", "1"),
    "grid_step": ("--grid-step", "0.1", "0.2"),
    "tolerance": ("--tolerance", "1e-12", "1e-11"),
    "eps_inf": ("--eps-inf", "2", "3"),
    "delta_eps": ("--delta-eps", "0.5", "0.25"),
    "mode": ("--mode", "vs_exact", "vs_reference"),
    "tau_ref": ("--tau-ref", "0.0625", "0.03125"),
    "tmin": ("--tmin", "0.01", "0.02"),
    "tmax": ("--tmax", "5", "6"),
    "points": ("--points", "9", "10"),
    "out": ("--out", "results", "elsewhere"),
    "threads": ("--threads", "1", "2"),
}
BASE = {"alpha": "0.5", "beta": "0.5", "tau": "0.5"}


def _config_from(tmp_path, file_values, flags):
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in file_values.items()))
    return build_config(["convergence", "--config", str(path), *flags])


@pytest.mark.parametrize("key", OPTIONS)
def test_config_key_matches_flag(tmp_path, monkeypatch, key):
    monkeypatch.delenv("HNMX_OUT", raising=False)
    flag, value, override = OPTIONS[key]
    base = {k: v for k, v in BASE.items() if k != key}
    from_file = _config_from(tmp_path, {**base, key: value}, [])
    assert from_file == _config_from(tmp_path, base, [flag, value])
    assert from_file != _config_from(tmp_path, BASE, [])  # the value is not the default
    # the flag wins over the file
    assert _config_from(tmp_path, {**base, key: value}, [flag, override]) == _config_from(
        tmp_path, base, [flag, override]
    )


# The config line of one fixed invocation, as the harness has always written it:
# it records runs, so the name of an option in it must not drift.
PINNED_ARGV = [
    "convergence", "--scheme", "bdf2", "--alpha", "0.3", "--beta", "0.7", "--tau", "0.25,0.125",
    "--nx", "8", "--ny", "6", "--T", "2", "--J", "50", "--kmax", "2", "--grid-step", "0.1",
    "--tolerance", "1e-12", "--eps-inf", "2", "--delta-eps", "0.5", "--mode", "vs_exact",
    "--tau-ref", "0.0625", "--tmin", "0.01", "--tmax", "5", "--points", "9", "--out", "results",
    "--check", "--threads", "1",
]
PINNED_COMMENT = (
    "# config: experiment=convergence scheme=bdf2 alpha=0.3 beta=0.7 tau=0.25,0.125 nx=8 ny=6 "
    "T=2.0 J=50 kmax=2 grid_step=0.1 tolerance=1e-12 eps_inf=2.0 delta_eps=0.5 mode=vs_exact "
    "tau_ref=0.0625 tmin=0.01 tmax=5.0 points=9 out=results check=True threads=1"
)


def test_resolved_comment_pinned():
    assert build_config(PINNED_ARGV).resolved_comment() == PINNED_COMMENT


def test_resolved_comment_names_options_by_key(monkeypatch):
    monkeypatch.delenv("HNMX_OUT", raising=False)
    comment = build_config(["cm-check", "--tau", "0.01"]).resolved_comment()
    names = [part.split("=", 1)[0] for part in comment.removeprefix("# config: ").split(" ")]
    keys = [k for k in OPTIONS if k != "threads"]
    assert names == ["experiment", *keys, "check", "threads"]
