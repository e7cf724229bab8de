import io
import json
import math
import os
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from finiten import FiniteNLaw, cli, harness
from finiten.jacobi import JacobiBasis
from finiten.stein_test import SteinTestConfig, run_test

SIGMA_TABLE_N5 = {
    1: 1.7889, 2: 3.2071, 3: 4.3818, 4: 5.3936, 5: 6.2897,
    6: 7.0993, 7: 7.8416, 8: 8.5298, 9: 9.1736, 10: 9.7802,
}


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "finiten", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_sample_is_deterministic_and_bounded():
    first = run_cli("sample", "--N", "5", "--n", "10", "--seed", "1")
    second = run_cli("sample", "--N", "5", "--n", "10", "--seed", "1")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    values = [float(line) for line in first.stdout.splitlines()]
    assert len(values) == 10
    assert all(abs(v) < math.sqrt(5.0) for v in values)


def test_sample_draws_seed_when_omitted():
    result = run_cli("sample", "--N", "5", "--n", "3")
    assert result.returncode == 0
    assert "seed=" in result.stderr
    assert len(result.stdout.splitlines()) == 3


def test_sample_gaussian_alternative_unbounded():
    result = run_cli("sample", "--N", "5", "--n", "5000", "--seed", "2", "--hypothesis", "h1")
    values = [float(line) for line in result.stdout.splitlines()]
    # standard normal tail mass: about 32% of draws exceed 1 in magnitude
    frac = sum(1 for v in values if abs(v) > 1.0) / len(values)
    assert abs(frac - 0.3173) < 0.03


def test_test_command_json_report():
    sample = run_cli("sample", "--N", "5", "--n", "500", "--seed", "7")
    result = run_cli(
        "test", "--N", "5", "--m", "4", "--format", "json", "--no-standardize",
        stdin=sample.stdout,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert set(payload) == {"statistic", "dof", "cutoff", "p_value", "reject", "coefficients"}
    assert payload["dof"] == 1
    assert set(payload["coefficients"]) == {"4"}
    assert payload["reject"] == (payload["statistic"] > payload["cutoff"])


def test_test_command_csv_report():
    sample = run_cli("sample", "--N", "5", "--n", "200", "--seed", "8")
    result = run_cli("test", "--N", "5", "--m", "6", stdin=sample.stdout)
    assert result.returncode == 0
    header, line = result.stdout.strip().split("\n")
    assert header == "statistic,dof,cutoff,p_value,reject,mu_4,mu_6"
    fields = line.split(",")
    assert fields[4] in ("true", "false")
    t = float(fields[0])
    assert t == __import__("pytest").approx(float(fields[5]) ** 2 + float(fields[6]) ** 2, rel=1e-9)


def test_test_command_fail_on_reject():
    # Gaussian data at n=2000 against N=5 is rejected essentially always
    sample = run_cli("sample", "--N", "5", "--n", "2000", "--seed", "9", "--hypothesis", "h1")
    result = run_cli(
        "test", "--N", "5", "--fail-on-reject", "--no-standardize", stdin=sample.stdout
    )
    assert result.returncode == 1
    payload_line = result.stdout.strip().splitlines()[-1]
    assert payload_line.split(",")[4] == "true"


def test_test_command_rejects_malformed_input():
    result = run_cli("test", "--N", "5", stdin="1.0 2.0 oops 3.0")
    assert result.returncode == 2
    assert result.stdout == ""  # no partial output
    assert "invalid numeric input" in result.stderr
    assert len(result.stderr.strip().splitlines()) == 1


def test_test_command_explicit_cutoff():
    sample = run_cli("sample", "--N", "5", "--n", "100", "--seed", "4")
    result = run_cli("test", "--N", "5", "--cutoff", "1e9", "--format", "json", stdin=sample.stdout)
    assert json.loads(result.stdout)["reject"] is False
    bad = run_cli("test", "--N", "5", "--cutoff", "sometimes", stdin=sample.stdout)
    assert bad.returncode == 2
    assert bad.stderr == "finiten: error: cutoff must be a finite positive real, got 'sometimes'\n"


def test_test_command_calibrated_cutoff():
    sample = run_cli("sample", "--N", "5", "--n", "50", "--seed", "12")
    result = run_cli(
        "test", "--N", "5", "--cutoff", "calibrated", "--reps", "1000",
        "--seed", "13", "--format", "json", stdin=sample.stdout,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    theoretical = 3.841458820694
    assert abs(payload["cutoff"] - theoretical) > 1e-6  # a Monte Carlo value
    repeat = run_cli(
        "test", "--N", "5", "--cutoff", "calibrated", "--reps", "1000",
        "--seed", "13", "--format", "json", stdin=sample.stdout,
    )
    assert repeat.stdout == result.stdout


def test_usage_errors_exit_two():
    result = run_cli("test", "--N")
    assert result.returncode == 2
    assert len(result.stderr.strip().splitlines()) == 1
    result = run_cli("sample", "--N", "5", "--n", "10", "--hypothesis", "h3")
    assert result.returncode == 2
    result = run_cli("grid", "--N-values", "5", "--n-values", "10", "--m-values", "4",
                     "--calib-reps", "1000", "--eval-reps", "10", "--quiet", "--workers", "0")
    assert result.returncode == 2
    result = run_cli("compare", "--N", "5", "--n-values", "10", "--reps", "1000", "--workers", "0")
    assert result.returncode == 2
    assert result.stdout == "" and result.stderr.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["sample", "--N", "5", "--n", "3"],
    ["test", "--N", "5", "--cutoff", "calibrated", "--reps", "1000"],
    ["calibrate", "--N", "5", "--n", "10", "--reps", "1000"],
    ["grid", "--N-values", "5", "--n-values", "10", "--m-values", "4",
     "--calib-reps", "1000", "--eval-reps", "10", "--quiet"],
    ["compare", "--N", "5", "--n-values", "10", "--reps", "1000"],
], ids=lambda command: command[0])
def test_negative_seed_exits_two(command, tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("0.1 -0.4 1.2 0.7 -1.1\n")
    extra = ["--input", str(data)] if command[0] == "test" else []
    for seed, bound in (("-1", ">= 0"), (str(2**63), "< 2**63")):
        assert cli.main([*command, *extra, "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"finiten: error: seed must be an integer {bound}, got {seed}\n"


@pytest.mark.parametrize("command", [
    ["calibrate", "--N", "5", "--n", "10", "--reps", "5"],
    ["calibrate", "--N", "5", "--n", "0", "--reps", "1000"],
    ["test", "--N", "5", "--cutoff", "calibrated", "--reps", "5", "--input", "{data}"],
    ["test", "--N", "5", "--cutoff", "calibrated", "--input", "{one}"],
    ["sample", "--N", "5", "--n", "0"],
    ["grid", "--calib-reps", "5", "--quiet"],
    ["compare", "--N", "5", "--reps", "5"],
    ["grid", "--workers", "0", "--quiet", "--output", "{out}"],
    ["compare", "--N", "5", "--workers", "0", "--output", "{out}"],
], ids=["calibrate-reps", "calibrate-n", "test-reps", "test-one-value", "sample-n",
        "grid-reps", "compare-reps", "grid-workers", "compare-workers"])
def test_bad_calibration_counts_fail_before_a_seed_is_drawn(command, tmp_path, capsys):
    # with --seed omitted, a seed is drawn and echoed only for a run that
    # starts, and no output is opened for one that does not
    paths = {"data": tmp_path / "data.txt", "one": tmp_path / "one.txt", "out": tmp_path / "out"}
    paths["data"].write_text("0.1 -0.4 1.2 0.7 -1.1\n")
    paths["one"].write_text("0.3\n")
    assert cli.main([arg.format(**paths) for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("finiten: error: ") and "must be an integer >= " in captured.err
    assert not paths["out"].exists()


def test_sigma_table_matches_reference_values():
    result = run_cli("sigma-table", "--N", "5", "--m", "10")
    assert result.returncode == 0
    lines = result.stdout.strip().split("\n")
    assert lines[0] == "k,sigma"
    for line in lines[1:]:
        k, sigma = line.split(",")
        assert abs(float(sigma) - SIGMA_TABLE_N5[int(k)]) <= 5e-5
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_sigma_table_needs_only_the_norms():
    # every sigma_k is finite at N = 1.2e22, m = 30, though the folded
    # weight of mode 30 is not (see the mode-weight test below)
    result = run_cli("sigma-table", "--N", "1.2e22", "--m", "30")
    assert result.returncode == 0
    assert result.stderr == ""
    lines = result.stdout.strip().split("\n")
    assert lines[0] == "k,sigma" and len(lines) == 31
    assert all(math.isfinite(float(line.split(",")[1])) for line in lines[1:])
    result = run_cli("sigma-table", "--N", "1e8", "--m", "30", "--format", "json")
    assert result.returncode == 0
    sigmas = json.loads(result.stdout)["sigma"]
    assert [sigmas[str(k)] for k in range(1, 31)] == JacobiBasis.for_system(1e8, 30).sigmas.tolist()


def test_sigma_table_reports_sigma_overflow_in_one_line():
    result = run_cli("sigma-table", "--N", "1e300", "--m", "30")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "finiten: error: sigma_3 at alpha=5e+299 exceeds the float range"
    ]


def test_dist_queries():
    result = run_cli("dist", "--N", "5", "--x", "0,1", "--p", "0.5,0.975")
    assert result.returncode == 0
    lines = result.stdout.strip().split("\n")
    assert lines[0] == "x,density,log_density,cdf"
    x0 = lines[1].split(",")
    assert float(x0[3]) == 0.5
    assert lines[3] == "p,quantile"
    assert float(lines[4].split(",")[1]) == 0.0
    missing = run_cli("dist", "--N", "5")
    assert missing.returncode == 2


def test_calibrate_csv_and_validation():
    result = run_cli(
        "calibrate", "--N", "5", "--n", "50", "--m", "4",
        "--reps", "1000", "--seed", "5",
    )
    assert result.returncode == 0
    lines = result.stdout.strip().split("\n")
    assert lines[0] == "N,n,m,level,cutoff,reps,seed"
    fields = lines[1].split(",")
    assert fields[0] == "5" and fields[1] == "50" and float(fields[4]) > 0
    repeat = run_cli(
        "calibrate", "--N", "5", "--n", "50", "--m", "4",
        "--reps", "1000", "--seed", "5",
    )
    assert repeat.stdout == result.stdout
    too_few = run_cli("calibrate", "--N", "5", "--n", "50", "--reps", "10", "--seed", "5")
    assert too_few.returncode == 2


@pytest.mark.parametrize("seed", [3, 11])
def test_calibrate_calibrates_the_pipeline_that_test_runs(seed, capsys):
    config = SteinTestConfig(N=5, m=4)
    argv = ["calibrate", "--N", "5", "--n", "30", "--reps", "1000", "--seed", str(seed)]
    outputs = []
    for extra, standardize_first in (([], True), (["--no-standardize"], False)):
        assert cli.main([*argv, *extra]) == 0
        cutoff = harness.calibrate(30, config, 1000, seed, standardize_first=standardize_first)
        entry = harness.CalibrationEntry(N=5.0, n=30, m=4, level=0.05, cutoff=cutoff, reps=1000,
                                         seed=seed)
        outputs.append(capsys.readouterr().out)
        assert outputs[-1] == harness.records_to_csv(harness.CalibrationEntry, [entry])
    assert outputs[0] != outputs[1]


def test_calibrate_refuses_modes_1_and_2_unless_raw(capsys):
    argv = ["calibrate", "--N", "5", "--n", "30", "--modes", "1,4", "--reps", "1000",
            "--seed", "1"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("finiten: error: modes 1 and 2 are zero")
    assert captured.err.count("\n") == 1
    assert cli.main([*argv, "--no-standardize"]) == 0
    assert capsys.readouterr().out.startswith("N,n,m,level,cutoff,reps,seed\n")


def test_default_test_holds_its_level_at_the_default_calibrate_cutoff(capsys):
    # the cutoff as printed, 6 significant digits, is what a user passes on
    cutoffs = []
    for extra in ([], ["--no-standardize"]):
        assert cli.main(["calibrate", "--N", "5", "--n", "100", "--m", "4", "--reps", "20000",
                         "--seed", "3", *extra]) == 0
        cutoffs.append(float(capsys.readouterr().out.splitlines()[1].split(",")[4]))
    reps = 4000
    samples = FiniteNLaw(5).sample(100 * reps, 2026).reshape(reps, 100)
    config = SteinTestConfig(N=5, m=4)
    reports = [run_test(x, config, cutoff=cutoffs[0]) for x in samples]
    size = sum(report.reject for report in reports) / reps
    # the binomial standard error of the rate, plus that of the calibration
    se = math.sqrt(0.05 * 0.95 * (1 / reps + 1 / 20000))
    assert abs(size - 0.05) < 4.0 * se
    # the raw cutoff, the default before this pairing, misses the level
    raw_size = sum(report.statistic > cutoffs[1] for report in reports) / reps
    assert raw_size > 0.05 + 10.0 * se


def test_grid_emits_rows_and_completeness_flag():
    result = run_cli(
        "grid", "--N-values", "5", "--n-values", "10,20", "--m-values", "4",
        "--calib-reps", "1000", "--eval-reps", "500", "--seed", "3", "--quiet",
    )
    assert result.returncode == 0
    lines = result.stdout.strip().split("\n")
    assert lines[0] == "N,n,m,modes,cutoff_source,hypothesis,rejection_rate,reps,seed"
    assert lines[-1] == "# complete=true"
    assert len(lines) == 2 + 2 * 4  # header + 2 cells x 4 rows + flag line


def test_grid_json_mirrors_fields():
    result = run_cli(
        "grid", "--N-values", "5", "--n-values", "10", "--m-values", "4",
        "--calib-reps", "1000", "--eval-reps", "500", "--seed", "3",
        "--quiet", "--format", "json",
    )
    payload = json.loads(result.stdout)
    assert payload["complete"] is True
    assert len(payload["rows"]) == 4
    assert payload["rows"][0]["modes"] == [4]
    assert len(payload["calibration"]) == 1


def test_sanov_reproduces_reference_table():
    expected = {
        (4, 50): 0.983, (5, 10): 0.370, (10, 100): 0.603, (20, 2000): 0.984,
    }
    result = run_cli("sanov")
    assert result.returncode == 0
    lines = result.stdout.strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "N"
    sizes = [int(v) for v in header[1:]]
    for line in lines[1:]:
        fields = line.split(",")
        N = float(fields[0])
        for n, value in zip(sizes, fields[1:]):
            if (int(N), n) in expected:
                assert abs(float(value) - expected[(int(N), n)]) <= 1e-3


def test_boundary_command():
    result = run_cli("boundary", "--N-values", "5", "--target", "0.8")
    assert result.returncode == 0
    assert result.stdout.strip().split("\n")[1] == "5,35"


def test_compare_schema():
    result = run_cli(
        "compare", "--N", "5", "--n-values", "50", "--reps", "1000", "--seed", "2",
    )
    assert result.returncode == 0
    lines = result.stdout.strip().split("\n")
    assert lines[0] == "test_name,n,calibrated_power"
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["stein", "ks", "cvm", "ad"]


def test_compare_at_the_default_worker_count_equals_one_worker():
    argv = ["compare", "--N", "20", "--n-values", "60,300", "--reps", "1000", "--seed", "6"]
    pooled, serial = run_cli(*argv), run_cli(*argv, "--workers", "1")
    assert pooled.returncode == 0 and serial.returncode == 0
    assert pooled.stdout == serial.stdout


def test_grid_reports_progress_per_cell_on_stderr():
    result = run_cli(
        "grid", "--N-values", "5", "--n-values", "10,20", "--m-values", "4",
        "--calib-reps", "1000", "--eval-reps", "500", "--seed", "3", "--workers", "2",
    )
    assert result.returncode == 0
    assert result.stderr.splitlines() == [
        "cell 1/2 (N=5, n=10, m=4) done",
        "cell 2/2 (N=5, n=20, m=4) done",
    ]


@pytest.mark.parametrize("to_group", [False, True], ids=["process", "group"])
def test_interrupted_pooled_grid_stops_at_the_units_in_flight(to_group):
    # 64 (N, n) units on 2 workers, interrupted once the first cell is in:
    # running the queue would then take about 31 more units per worker
    N_values = list(range(5, 69))
    child = subprocess.Popen(
        [sys.executable, "-m", "finiten", "grid", "--N-values", ",".join(map(str, N_values)),
         "--n-values", "300", "--m-values", "4", "--calib-reps", "5000",
         "--eval-reps", "2500", "--seed", "3", "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        started = time.perf_counter()
        assert child.stderr.readline().startswith("cell 1/64 ")
        signalled = time.perf_counter()
        if to_group:
            os.killpg(child.pid, signal.SIGINT)
        else:
            child.send_signal(signal.SIGINT)
        stdout, _ = child.communicate(timeout=120)
        stopping = time.perf_counter() - signalled
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
    assert stopping < 2.0 * (signalled - started)
    assert child.returncode == 0
    lines = stdout.splitlines()
    assert lines[-1] == "# complete=false"
    rows = [line.split(",")[:3] for line in lines[1:-1]]
    assert 4 <= len(rows) < 4 * len(N_values) and len(rows) % 4 == 0
    assert rows == [[str(N), "300", "4"] for N in N_values[:len(rows) // 4] for _ in range(4)]


def test_grid_rejects_duplicate_m_values_before_running():
    result = run_cli(
        "grid", "--N-values", "5", "--n-values", "10", "--m-values", "4,4",
        "--calib-reps", "1000", "--eval-reps", "500", "--seed", "3",
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "finiten: error: m_values has duplicate values: (4, 4)"
    ]


def test_compare_rejects_an_empty_n_list_before_running():
    result = run_cli("compare", "--N", "5", "--n-values", ",", "--seed", "1")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["finiten: error: n_values must be nonempty"]


def test_test_command_reports_sigma_overflow_in_one_line():
    result = run_cli("test", "--N", "1e15", "--m", "100", stdin="0.1 -0.2 0.3\n")
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("finiten: error: sigma_")
    assert "exceeds the float range" in lines[0]


def test_test_command_reports_mode_weight_overflow_in_one_line():
    # sigma_30 is finite at N = 1.2e22, the folded weight of mode 30 is not
    result = run_cli("test", "--N", "1.2e22", "--m", "30", stdin="0.1 -0.2 0.3\n")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "finiten: error: mode weight 30 at alpha=6e+21 exceeds the float range"
    ]


@pytest.mark.parametrize("N", ["1e154", "3e154"])
def test_boundary_reports_n_star_overflow_in_one_line(N):
    # KL is subnormal at 1e154 and 0 at 3e154, so log(1/(1 - target)) / KL is not finite
    result = run_cli("boundary", "--N-values", N)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        f"finiten: error: n_star at N={float(N)!r} exceeds the float range"
    ]


@pytest.mark.parametrize("sample, argv", [
    ("0.1 -0.4 1e200 0.7 -1.1", ["--m", "4"]),
    ("0.1 -0.4 1e200 0.7 -1.1", ["--cutoff", "calibrated", "--reps", "1000", "--seed", "1"]),
    ("1e308 1.5e308 0.3", ["--m", "4"]),
], ids=["scale", "scale-calibrated", "mean"])
def test_test_command_answers_a_sample_of_any_finite_scale(sample, argv):
    # unscaled, these squares overflow; standardising first scales each
    # sample exactly by a power of two, so the sample times 2^-600 prints
    # the same bytes
    result = run_cli("test", "--N", "5", *argv, stdin=sample + "\n")
    assert result.returncode == 0
    assert result.stderr == ""
    scaled = " ".join(repr(math.ldexp(float(v), -600)) for v in sample.split())
    assert run_cli("test", "--N", "5", *argv, stdin=scaled + "\n").stdout == result.stdout


@pytest.mark.parametrize("sample, argv, message", [
    ("0.1 -0.4 1e160 0.7 -1.1", ["--m", "6", "--no-standardize"], "T is not finite"),
    ("0.1 -1e40 1e40 0.7 -1.1", ["--m", "10", "--no-standardize"], "T is not finite"),
    ("0.1 -1e40 1e40 0.7 -1.1", ["--m", "4", "--no-standardize", "--format", "json"],
     "T is not finite"),
], ids=["nan-T", "infinite-T", "infinite-T-one-dof"])
def test_test_command_refuses_a_sample_that_overflows(sample, argv, message):
    result = run_cli("test", "--N", "5", *argv, stdin=sample + "\n")
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("finiten: error: sample values are too large")
    assert lines[0].endswith(message)


def test_dist_far_outside_the_support_warns_nothing():
    result = run_cli("dist", "--N", "5", "--x", "1e200,-1e200")
    assert result.returncode == 0
    assert result.stderr == ""
    assert result.stdout == "x,density,log_density,cdf\n1e+200,0,-inf,1\n-1e+200,0,-inf,0\n"


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("finiten ")]
    assert len(lines) >= 10
    parser = cli.build_parser()
    for line in lines:
        argv = shlex.split(line.split(">", 1)[0])[1:]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_test_command_refuses_input_that_is_not_utf8(source, tmp_path):
    data = b"1.0 \xff\xfe 2.0\n"
    path = tmp_path / "binary.dat"
    path.write_bytes(data)
    result = subprocess.run(
        [sys.executable, "-m", "finiten", "test", "--N", "5", "--fail-on-reject",
         "--input", str(path) if source == "file" else "-"],
        input=data if source == "stdin" else b"", capture_output=True, timeout=300,
    )
    assert result.returncode == 2  # not 1, which --fail-on-reject gives a rejection
    assert result.stdout == b""
    assert result.stderr.decode().splitlines() == [
        "finiten: error: input is not UTF-8 text: invalid start byte at byte 4"
    ]


_HUGE = str(10**400)  # an integer too large for a float


@pytest.mark.parametrize("command", [
    ["calibrate", "--N", "5", "--n", "10", "--reps", _HUGE, "--seed", "1"],
    ["sanov", "--n", _HUGE],
    ["sample", "--N", "5", "--n", _HUGE, "--seed", "1"],
    ["sigma-table", "--N", "5", "--m", _HUGE],
    ["grid", "--n-values", _HUGE, "--seed", "1"],
    ["compare", "--N", "5", "--n-values", "10", "--reps", _HUGE, "--seed", "1"],
], ids=lambda command: command[0])
def test_counts_too_large_for_a_float_exit_two(command, capsys):
    assert cli.main(command) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("finiten: error: ") and captured.err.count("\n") == 1
    assert "must be an integer" in captured.err
    assert "within the float range" in captured.err


def test_grid_rejects_infinite_N_before_running():
    result = run_cli(
        "grid", "--N-values", "5,inf", "--n-values", "10", "--m-values", "4",
        "--calib-reps", "1000", "--eval-reps", "500", "--seed", "3",
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["finiten: error: N must be a finite real > 3, got inf"]


@pytest.mark.parametrize("command", [
    ["sample", "--N", "5", "--n", "4", "--seed", "1"],
    ["test", "--N", "5"],
    ["sigma-table", "--N", "5", "--m", "4"],
    ["dist", "--N", "5", "--x", "0,1", "--p", "0.5"],
    ["calibrate", "--N", "5", "--n", "10", "--reps", "1000", "--seed", "1"],
    ["grid", "--N-values", "5", "--n-values", "10", "--m-values", "4",
     "--calib-reps", "1000", "--eval-reps", "10", "--seed", "1", "--quiet"],
    ["sanov", "--N", "5", "--n", "10,100"],
    ["boundary", "--N-values", "5"],
    ["compare", "--N", "5", "--n-values", "10", "--reps", "1000", "--seed", "1"],
], ids=lambda command: command[0])
def test_output_and_format_options(command, tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("0.1 -0.4 1.2 0.7 -1.1\n")
    argv = [*command, "--input", str(data)] if command[0] == "test" else command
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "out.txt"
    assert cli.main([*argv, "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode("utf-8")
    if command[0] not in ("sample", "dist"):
        assert cli.main([*argv, "--format", "json"]) == 0
        text = capsys.readouterr().out
        assert text.endswith("\n") and text.count("\n") == 1
        json.loads(text)


@pytest.mark.parametrize("flags, conflict", [
    (["--full-grid", "--N-values", "5", "--m-values", "4"],
     "--full-grid conflicts with --N-values, --m-values"),
    (["--full-reps", "--eval-reps", "10"], "--full-reps conflicts with --eval-reps"),
], ids=["full-grid", "full-reps"])
def test_grid_full_flags_refuse_explicit_values(flags, conflict, monkeypatch, capsys):
    def no_grid(*args, **kwargs):
        raise AssertionError("run_grid was called")

    monkeypatch.setattr(harness, "run_grid", no_grid)
    assert cli.main(["grid", *flags, "--seed", "1", "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"finiten: error: {conflict}\n"


def test_grid_full_flags_take_reference_values(monkeypatch, capsys):
    specs = []

    def record(spec, workers, on_cell):
        specs.append(spec)
        return harness.GridResult(rows=(), calibration=(), complete=True)

    monkeypatch.setattr(harness, "run_grid", record)
    for flags in (["--full-grid", "--calib-reps", "1000"], ["--full-reps", "--N-values", "5"], []):
        assert cli.main(["grid", *flags, "--seed", "1", "--quiet"]) == 0
    desk_axes = {"N_values": (5.0, 10.0, 20.0), "n_values": (10, 50, 100, 500)}
    assert specs == [
        harness.GridSpec(calib_reps=1000, eval_reps=2_000, master_seed=1),
        harness.GridSpec(N_values=(5.0,), n_values=desk_axes["n_values"], master_seed=1),
        # the desk grid runs 5,000 calibration and 2,000 evaluation replications
        harness.GridSpec(**desk_axes, calib_reps=5_000, eval_reps=2_000, master_seed=1),
    ]


def test_test_command_refuses_modes_1_and_2_when_standardising(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("".join(f"{v:.17g}\n" for v in FiniteNLaw(5).sample(500, 7)))
    argv = ["test", "--input", str(data), "--N", "5", "--m", "4"]
    calibrated = ["--cutoff", "calibrated", "--reps", "1000", "--seed", "1"]
    for extra in (["--modes", "1,2,3,4"], ["--modes", "2,4", *calibrated]):
        assert cli.main([*argv, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("finiten: error: modes 1 and 2 are zero")
        assert captured.err.count("\n") == 1
    assert cli.main([*argv, "--modes", "1,2,3,4", "--no-standardize"]) == 0
    assert capsys.readouterr().out.startswith("statistic,dof,cutoff,p_value,reject,mu_1,mu_2,")


@pytest.mark.parametrize("argv, owner, runner", [
    (["grid", "--N-values", "5", "--n-values", "10", "--m-values", "4", "--output", "{bad}"],
     harness, "run_grid"),
    (["grid", "--N-values", "5", "--n-values", "10", "--m-values", "4",
      "--calibration-out", "{bad}"], harness, "run_grid"),
    (["compare", "--N", "5", "--n-values", "10", "--output", "{bad}"], harness, "compare_edf"),
    (["calibrate", "--N", "5", "--n", "10", "--output", "{bad}"], harness, "calibrate"),
    (["sample", "--N", "5", "--n", "10", "--output", "{bad}"], FiniteNLaw, "sample"),
    (["test", "--N", "5", "--input", "{data}", "--cutoff", "calibrated", "--output", "{bad}"],
     harness, "calibrate"),
], ids=["grid-output", "grid-calibration-out", "compare-output", "calibrate-output",
        "sample-output", "test-calibrated-output"])
def test_unwritable_output_fails_before_any_work(argv, owner, runner, tmp_path, monkeypatch,
                                                 capsys):
    def no_run(*args, **kwargs):
        raise AssertionError(f"{runner} was called")

    monkeypatch.setattr(owner, runner, no_run)
    bad = str(tmp_path / "nodir" / "out.csv")
    data = tmp_path / "data.txt"
    data.write_text("0.1 -0.4 1.2 0.7 -1.1\n")
    assert cli.main([arg.format(bad=bad, data=data) for arg in argv] + ["--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("finiten: error: ") and bad in lines[0]


@pytest.mark.parametrize("sample, message", [
    ("1 1 1 1 1 1", "sample is constant"),
    ("0.1 nan 0.3 0.5", "sample values must be finite"),
], ids=["constant", "nan"])
def test_calibrated_test_refuses_a_bad_sample_before_the_seed(sample, message, tmp_path,
                                                              monkeypatch, capsys):
    def no_calibrate(*args, **kwargs):
        raise AssertionError("calibrate was called")

    monkeypatch.setattr(harness, "calibrate", no_calibrate)
    data = tmp_path / "data.txt"
    data.write_text(sample)
    # no --seed: a run that starts would echo the seed it draws
    assert cli.main(["test", "--N", "5", "--input", str(data), "--cutoff", "calibrated",
                     "--reps", "200000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"finiten: error: {message}")


def test_grid_refuses_one_file_for_both_outputs(tmp_path, monkeypatch, capsys):
    empty = harness.GridResult(rows=(), calibration=(), complete=True)
    monkeypatch.setattr(harness, "run_grid", lambda spec, workers, on_cell: empty)
    argv = ["grid", "--N-values", "5", "--n-values", "10", "--m-values", "4", "--seed", "1",
            "--quiet"]
    # both to standard output: the grid CSV, then the calibration CSV
    assert cli.main([*argv, "--output", "-", "--calibration-out", "-"]) == 0
    assert capsys.readouterr().out == (harness.grid_result_to_csv(empty)
                                       + "N,n,m,level,cutoff,reps,seed\n")

    def no_grid(*args, **kwargs):
        raise AssertionError("run_grid was called")

    monkeypatch.setattr(harness, "run_grid", no_grid)
    out = tmp_path / "out.csv"
    out.write_text("kept\n")
    (tmp_path / "link.csv").symlink_to(out)
    monkeypatch.chdir(tmp_path)
    for calibration_out in (str(out), "out.csv", f"{tmp_path}/./out.csv", "link.csv"):
        assert cli.main([*argv, "--output", str(out), "--calibration-out", calibration_out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("finiten: error: --output and --calibration-out name the same "
                                f"file: {out}\n")
        assert out.read_text() == "kept\n"


# Each row exits 2 with one stderr line and writes nothing; standard input
# holds only whitespace.
@pytest.mark.parametrize("argv, stderr", [
    (["sanov", "--n", ","], "finiten: error: n_values must be nonempty"),
    (["sanov", "--N", ","], "finiten: error: N_values must be nonempty"),
    (["boundary", "--N-values", ","], "finiten: error: N_values must be nonempty"),
    (["dist", "--N", "5", "--x", ","], "finiten: error: --x must be nonempty"),
    (["dist", "--N", "5", "--x", "0.5", "--p", ","], "finiten: error: --p must be nonempty"),
    (["dist", "--N", "5"], "finiten: error: dist requires --x and/or --p"),
    (["test", "--N", "5"], "finiten: error: input contains no numbers"),
    # refused while parsing, before the missing file is opened
    (["test", "--N", "5", "--modes", "4,x", "--input", "/nonexistent"],
     "finiten test: error: argument --modes: expected a comma list of integers, got '4,x'"),
    (["calibrate", "--N", "5", "--n", "100", "--modes", "4,4"],
     "finiten: error: mode set has duplicate values: (4, 4)"),
    # checked before the input is read
    (["test", "--N", "2"], "finiten: error: N must be a finite real > 3, got 2.0"),
    (["test", "--N", "2", "--input", "/nonexistent"],
     "finiten: error: N must be a finite real > 3, got 2.0"),
    (["test", "--N", "5", "--cutoff", "-1"],
     "finiten: error: cutoff must be a finite positive real, got '-1'"),
], ids=["sanov-n", "sanov-N", "boundary", "dist-x", "dist-p", "dist-neither",
        "test-blank-input", "test-modes-parsed-first", "calibrate-repeated-mode",
        "test-N-before-stdin", "test-N-before-file", "test-cutoff-before-stdin"])
def test_table_commands_refuse_empty_lists(argv, stderr, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b" \n\t \n")))
    out = tmp_path / "out.csv"
    try:
        code = cli.main([*argv, "--output", str(out)])
    except SystemExit as exc:  # argparse refuses an option value
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == stderr + "\n"
    assert not out.exists()


def test_interrupted_commands_exit_130_in_one_line(tmp_path, monkeypatch, capsys):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    data = tmp_path / "data.txt"
    data.write_text("\n".join(map(repr, FiniteNLaw(5).sample(100, 3).tolist())))
    out = tmp_path / "out.csv"
    out.write_text("kept\n")
    for target, argv in (
        ("compare_edf", ["compare", "--N", "20", "--n-values", "100", "--reps", "1000"]),
        ("calibrate", ["calibrate", "--N", "5", "--n", "100", "--reps", "1000"]),
        ("calibrate", ["test", "--N", "5", "--input", str(data), "--cutoff", "calibrated"]),
    ):
        monkeypatch.setattr(harness, target, interrupt)
        try:
            code = cli.main([*argv, "--seed", "1", "--output", str(out)])
        except KeyboardInterrupt:  # fail this test, not the whole session
            pytest.fail(f"{argv[0]}: the interrupt escaped cli.main")
        assert code == 130
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "finiten: interrupted\n"
        assert out.read_text() == "kept\n"


@pytest.mark.parametrize("argv", [
    ["sample", "--N", "5", "--n", "4", "--seed", "1"],
    ["grid", "--N-values", "5", "--n-values", "10", "--m-values", "4", "--calib-reps", "1000",
     "--eval-reps", "10", "--seed", "1", "--quiet", "--calibration-out", "{calibration}"],
], ids=lambda argv: argv[0])
def test_output_replaces_a_longer_file_and_writes_to_devices(argv, tmp_path, capsys):
    calibration = tmp_path / "calibration.csv"
    argv = [arg.format(calibration=calibration) for arg in argv]
    assert cli.main(argv) == 0
    out = tmp_path / "out.csv"
    expected = {out: capsys.readouterr().out}
    if calibration.exists():
        expected[calibration] = calibration.read_text()
    for path in expected:
        path.write_text("stale line\n" * 100)
    assert cli.main([*argv, "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert {path: path.read_text() for path in expected} == expected
    # a device is written, not cut: /dev/null, and a pipe through /dev/stdout
    assert cli.main([*argv, "--output", os.devnull]) == 0
    assert capsys.readouterr().out == ""
    piped = run_cli(*argv, "--output", "/dev/stdout")
    assert piped.returncode == 0
    assert piped.stdout == expected[out]


_SRC = str(Path(__file__).resolve().parents[1] / "src")
_CHECK_LOADED = """
import sys
from finiten import cli
expected, argv = dict(pair.split("=") for pair in sys.argv[1].split(",")), sys.argv[2:]
code = cli.main(argv)
assert code == 0, code
for module, state in expected.items():
    assert (module in sys.modules) == (state == "loads"), (module, state, argv)
"""


def _check_loaded(expected, argv, tmp_path):
    # expected maps a module to "loads" or "spares"; a fresh process each,
    # since an earlier import would hide a new one
    if argv[0] == "test":
        data = tmp_path / "data.txt"
        data.write_text("\n".join(map(repr, FiniteNLaw(5).sample(200, 3).tolist())))
        argv = [*argv, "--input", str(data)]
    pairs = ",".join(f"{module}={state}" for module, state in expected.items())
    result = subprocess.run(
        [sys.executable, "-c", _CHECK_LOADED, pairs, *argv],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": _SRC},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("\n") >= 2


@pytest.mark.parametrize("scipy, argv", [
    ("spares", ["test", "--N", "5"]),
    ("spares", ["test", "--N", "5", "--no-standardize"]),
    ("spares", ["test", "--N", "5", "--cutoff", "9.5"]),
    ("spares", ["test", "--N", "5", "--cutoff", "9.5", "--no-standardize"]),
    ("spares", ["sigma-table", "--N", "5"]),
    ("spares", ["grid", "--N-values", "5", "--n-values", "10", "--m-values", "4,6",
                "--calib-reps", "1000", "--eval-reps", "100", "--seed", "1", "--quiet"]),
    ("spares", ["sanov", "--N", "13,20", "--n", "10,100"]),
    ("spares", ["calibrate", "--N", "5", "--n", "10", "--reps", "1000", "--seed", "1"]),
    ("spares", ["sample", "--N", "5", "--n", "5", "--seed", "1"]),
    ("spares", ["dist", "--N", "5", "--x", "0.3"]),
    ("spares", ["compare", "--N", "20", "--n-values", "100", "--reps", "1000", "--seed", "1"]),
    ("spares", ["compare", "--N", "20", "--n-values", "100", "--reps", "1000", "--seed", "1",
                "--no-standardize"]),
    ("spares", ["sanov"]),
    ("spares", ["boundary"]),
    ("spares", ["dist", "--N", "5", "--x=-2.2,2.2", "--p", "1e-9,0.999"]),
    ("spares", ["dist", "--N", "400", "--p", "0.001"]),
    ("loads", ["dist", "--N", "5.5", "--x", "0.3", "--p", "0.9"]),
    ("loads", ["compare", "--N", "20.5", "--n-values", "100", "--reps", "1000", "--seed", "1"]),
    ("loads", ["dist", "--N", "401", "--x", "-19"]),
], ids=lambda value: "-".join(value) if isinstance(value, list) else value)
def test_scipy_is_loaded_only_by_commands_that_need_it(scipy, argv, tmp_path):
    _check_loaded({"scipy": scipy}, argv, tmp_path)


_GRID = ["grid", "--N-values", "5", "--n-values", "10,20", "--m-values", "4", "--calib-reps",
         "1000", "--eval-reps", "100", "--seed", "1", "--quiet"]


@pytest.mark.parametrize("pool, argv", [
    ("spares", ["test", "--N", "5"]),
    ("spares", ["dist", "--N", "5", "--x", "0.3"]),
    ("spares", ["sample", "--N", "5", "--n", "5", "--seed", "1"]),
    ("spares", ["calibrate", "--N", "5", "--n", "10", "--reps", "1000", "--seed", "1"]),
    ("spares", [*_GRID, "--workers", "1"]),
    ("spares", ["compare", "--N", "20", "--n-values", "100", "--reps", "1000", "--seed", "1",
                "--workers", "1"]),
    ("loads", [*_GRID, "--workers", "2"]),
], ids=lambda value: "-".join(value) if isinstance(value, list) else value)
def test_pool_modules_are_loaded_only_where_a_pool_runs(pool, argv, tmp_path):
    _check_loaded({"concurrent.futures.process": pool}, argv, tmp_path)


@pytest.mark.parametrize("harness_state, hashlib_state, argv", [
    ("spares", "spares", ["test", "--N", "5"]),
    ("spares", "spares", ["test", "--N", "5", "--no-standardize"]),
    ("spares", "spares", ["test", "--N", "5", "--cutoff", "9.5"]),
    ("spares", "spares", ["test", "--N", "5", "--cutoff", "9.5", "--no-standardize"]),
    # numpy.random loads hashlib (through secrets) for any draw
    ("spares", "loads", ["sample", "--N", "5", "--n", "5", "--seed", "1"]),
    ("spares", "spares", ["dist", "--N", "5", "--x", "0.3", "--p", "0.9"]),
    ("spares", "spares", ["sigma-table", "--N", "5"]),
    ("loads", "loads", ["test", "--N", "5", "--cutoff", "calibrated", "--reps", "1000",
                        "--seed", "1"]),
    ("loads", "loads", ["calibrate", "--N", "5", "--n", "10", "--reps", "1000", "--seed", "1"]),
    ("loads", "loads", [*_GRID, "--workers", "1"]),
    ("loads", "loads", ["compare", "--N", "20", "--n-values", "100", "--reps", "1000", "--seed",
                        "1", "--workers", "1"]),
    ("loads", "loads", ["sanov", "--N", "13,20", "--n", "10,100"]),
    ("loads", "loads", ["boundary"]),
], ids=lambda value: "-".join(value) if isinstance(value, list) else value)
def test_monte_carlo_modules_are_loaded_only_by_commands_that_simulate(harness_state,
                                                                       hashlib_state, argv,
                                                                       tmp_path):
    # edf is the harness's alone; json only under --format json, which no row gives
    _check_loaded({"finiten.harness": harness_state, "finiten.edf": harness_state,
                   "hashlib": hashlib_state, "json": "spares"}, argv, tmp_path)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_calibrate_defaults_to_the_reference_calibration_count(fmt, monkeypatch, capsys):
    received = []

    def record(n, config, reps, seed, standardize_first):
        received.append(reps)
        return 9.5

    monkeypatch.setattr(harness, "calibrate", record)
    assert cli.main(["calibrate", "--N", "5", "--n", "10", "--seed", "1", "--format", fmt]) == 0
    assert received == [harness.GridSpec.calib_reps] == [50_000]
    out = capsys.readouterr().out
    if fmt == "json":
        assert json.loads(out)[0]["reps"] == 50_000
    else:
        assert out == "N,n,m,level,cutoff,reps,seed\n5,10,4,0.05,9.5,50000,1\n"
