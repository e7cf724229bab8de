"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured quantity and runtime. Run with -s to see the
lines as they complete; the two large Monte Carlo checks sit behind
--runslow.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import integrate

from finiten import FiniteNLaw, sanov_table
from finiten.harness import (
    H0,
    H1,
    GridSpec,
    calibrate,
    compare_edf,
    estimate_rejection,
    grid_result_to_csv,
    run_grid,
)
from finiten.jacobi import JacobiBasis
from finiten.stein_test import SteinTestConfig
from operator_reference import jacobi_deriv, jacobi_eval_all, jacobi_psi, stein_apply_rescaled

MASTER_SEED = 20240801

SIGMA_TABLE_N5 = {
    1: 1.7889, 2: 3.2071, 3: 4.3818, 4: 5.3936, 5: 6.2897,
    6: 7.0993, 7: 7.8416, 8: 8.5298, 9: 9.1736, 10: 9.7802,
}

SANOV_N_VALUES = (4, 5, 6, 8, 10, 15, 20)
SANOV_SIZES = (10, 50, 100, 200, 400, 600, 800, 1000, 2000)
SANOV_TABLE = {
    4: (0.555, 0.983, 1.000, 1.000, 1.000, 1.000, 1.000, 1.000, 1.000),
    5: (0.370, 0.901, 0.990, 1.000, 1.000, 1.000, 1.000, 1.000, 1.000),
    6: (0.257, 0.774, 0.949, 0.997, 1.000, 1.000, 1.000, 1.000, 1.000),
    8: (0.141, 0.533, 0.782, 0.953, 0.998, 1.000, 1.000, 1.000, 1.000),
    10: (0.088, 0.370, 0.603, 0.842, 0.975, 0.996, 0.999, 1.000, 1.000),
    15: (0.038, 0.174, 0.318, 0.534, 0.783, 0.899, 0.953, 0.978, 1.000),
    20: (0.021, 0.099, 0.188, 0.340, 0.564, 0.712, 0.810, 0.875, 0.984),
}


def _report(number: int, label: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {number} ({label}): {detail} [{elapsed:.2f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {number} ({label}): {detail}"
    assert elapsed < budget, f"criterion {number} over budget: {elapsed:.2f}s >= {budget}s"


def test_criterion_01_sigma_table_cli():
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "finiten", "sigma-table", "--N", "5", "--m", "10"],
        capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == 0
    again = subprocess.run(
        [sys.executable, "-m", "finiten", "sigma-table", "--N", "5", "--m", "10"],
        capture_output=True, text=True,
    )
    worst = 0.0
    for line in result.stdout.strip().split("\n")[1:]:
        k, sigma = line.split(",")
        worst = max(worst, abs(float(sigma) - SIGMA_TABLE_N5[int(k)]))
    ok = worst <= 5e-5 and result.stdout == again.stdout
    _report(1, "sigma table", ok, f"max 4-decimal deviation {worst:.2e}, deterministic", elapsed, 1.0)


def test_criterion_02_kl_closed_form():
    start = time.perf_counter()
    kl5 = FiniteNLaw(5).kl_to_gaussian()
    kl20 = FiniteNLaw(20).kl_to_gaussian()
    ok = abs(kl5 - 0.0462) <= 1e-4 and abs(kl20 - 0.00208) <= 5e-5
    worst = 0.0
    for N in (4.0, 5.0, 10.0, 20.0, 50.0):
        law = FiniteNLaw(N)

        def integrand(x):
            log_phi = -0.5 * math.log(2.0 * math.pi) - 0.5 * x * x
            return law.density(x) * (law.log_density(x) - log_phi)

        numeric, _ = integrate.quad(integrand, -law.support_bound, law.support_bound, limit=400)
        worst = max(worst, abs(numeric - law.kl_to_gaussian()))
    ok = ok and worst <= 1e-8
    elapsed = time.perf_counter() - start
    _report(2, "KL closed form", ok,
            f"KL(5)={kl5:.6f}, KL(20)={kl20:.6f}, max quadrature gap {worst:.2e}",
            elapsed, 5.0)


def test_criterion_03_sanov_table():
    start = time.perf_counter()
    table = sanov_table(SANOV_N_VALUES, SANOV_SIZES)
    worst = 0.0
    for i, N in enumerate(SANOV_N_VALUES):
        for j in range(len(SANOV_SIZES)):
            worst = max(worst, abs(table[i, j] - SANOV_TABLE[N][j]))
    elapsed = time.perf_counter() - start
    _report(3, "Sanov table", worst <= 1e-3, f"max entry deviation {worst:.2e}", elapsed, 1.0)


def test_criterion_04_eigen_relation():
    start = time.perf_counter()
    grid = np.linspace(-1.0, 1.0, 1001)
    worst = 0.0
    for N in (5.0, 10.0, 20.0):
        alpha = (N - 3.0) / 2.0
        for k in range(1, 11):
            image = stein_apply_rescaled(alpha, k, grid)
            target = -2.0 * k * jacobi_eval_all(alpha, k, grid)[k]
            worst = max(worst, float(np.max(np.abs(image - target))))
    elapsed = time.perf_counter() - start
    _report(4, "operator eigen-relation", worst <= 1e-10, f"max |residual| {worst:.2e}", elapsed, 1.0)


def test_criterion_05_ode_residual():
    start = time.perf_counter()
    grid = np.linspace(-1.0, 1.0, 1001)
    worst = 0.0
    for N in (5.0, 10.0, 20.0):
        alpha = (N - 3.0) / 2.0
        for k in range(1, 11):
            p = jacobi_eval_all(alpha, k, grid)[k]
            dp = jacobi_deriv(alpha, k, grid)
            if k >= 2:
                ddp = (
                    0.25 * (k + 2 * alpha + 1) * (k + 2 * alpha + 2)
                    * jacobi_eval_all(alpha + 2.0, k - 2, grid)[k - 2]
                )
            else:
                ddp = np.zeros_like(grid)
            residual = (
                (1 - grid**2) * ddp - 2 * (alpha + 1) * grid * dp
                + k * (k + 2 * alpha + 1) * p
            )
            scale = float(np.max(np.abs(k * (k + 2 * alpha + 1) * p)))
            worst = max(worst, float(np.max(np.abs(residual))) / scale)
    elapsed = time.perf_counter() - start
    _report(5, "Jacobi ODE residual", worst <= 1e-9, f"max relative residual {worst:.2e}", elapsed, 1.0)


def test_criterion_06_gram_matrix():
    start = time.perf_counter()
    law = FiniteNLaw(5)
    basis = JacobiBasis.for_system(5.0, 10)
    # Each entry's Monte Carlo error is about 1/sqrt(draws) times the spread
    # of psi_j psi_k, so 2,000,000 draws put the 0.02 bound several errors
    # out; the long-double psi rows are formed 200,000 draws at a time.
    draws = law.sample(2_000_000, MASTER_SEED) / law.support_bound
    modes = range(4, 11)
    gram = np.zeros((len(modes), len(modes)))
    for chunk in np.split(draws, 10):
        psi = np.vstack([jacobi_psi(basis, k, chunk) for k in modes])
        gram += psi @ psi.T
    gram /= draws.size
    deviation = float(np.max(np.abs(gram - np.eye(len(gram)))))
    elapsed = time.perf_counter() - start
    _report(6, "orthonormality (Gram)", deviation <= 0.02,
            f"max |Gram - I| {deviation:.4f} over psi_4..psi_10", elapsed, 30.0)


def test_criterion_07_type_i_error_desk():
    start = time.perf_counter()
    config = SteinTestConfig(N=5, m=4)
    row = estimate_rejection(100, config, H0, None, 5_000, MASTER_SEED)
    elapsed = time.perf_counter() - start
    ok = abs(row.rejection_rate - 0.049) <= 0.012
    _report(7, "type I error", ok,
            f"empirical size {row.rejection_rate:.4f} vs 0.049 +/- 0.012", elapsed, 60.0)


def test_criterion_08_power_small_system():
    start = time.perf_counter()
    config = SteinTestConfig(N=5, m=4)
    cutoff = calibrate(100, config, 10_000, MASTER_SEED)
    row = estimate_rejection(100, config, H1, cutoff, 5_000, MASTER_SEED)
    elapsed = time.perf_counter() - start
    ok = abs(row.rejection_rate - 0.886) <= 0.025
    _report(8, "power N=5", ok,
            f"calibrated power {row.rejection_rate:.4f} vs 0.886 +/- 0.025", elapsed, 120.0)


def test_criterion_09_power_large_system():
    start = time.perf_counter()
    config = SteinTestConfig(N=20, m=4)
    cutoff = calibrate(500, config, 10_000, MASTER_SEED)
    row = estimate_rejection(500, config, H1, cutoff, 5_000, MASTER_SEED)
    elapsed = time.perf_counter() - start
    ok = abs(row.rejection_rate - 0.427) <= 0.03
    _report(9, "power N=20", ok,
            f"calibrated power {row.rejection_rate:.4f} vs 0.427 +/- 0.03", elapsed, 180.0)


@pytest.mark.slow
def test_criterion_09_spot_large_sample():
    start = time.perf_counter()
    config = SteinTestConfig(N=20, m=4)
    cutoff = calibrate(2000, config, 10_000, MASTER_SEED)
    row = estimate_rejection(2000, config, H1, cutoff, 2_000, MASTER_SEED)
    elapsed = time.perf_counter() - start
    ok = abs(row.rejection_rate - 0.882) <= 0.03
    _report(9, "power N=20 spot n=2000", ok,
            f"calibrated power {row.rejection_rate:.4f} vs 0.882 +/- 0.03", elapsed, 600.0)


@pytest.mark.slow
def test_criterion_10_edf_comparison_ordinal():
    start = time.perf_counter()
    rows = compare_edf(20.0, (1000, 2000), m=4, reps=2_000, seed=MASTER_SEED)
    power = {(row.test_name, row.n): row.calibrated_power for row in rows}
    ok = all(
        power[("stein", n)] > power[(name, n)]
        for n in (1000, 2000)
        for name in ("ks", "cvm", "ad")
    )
    elapsed = time.perf_counter() - start
    detail = "; ".join(
        f"n={n}: stein {power[('stein', n)]:.3f} vs ks {power[('ks', n)]:.3f}, "
        f"cvm {power[('cvm', n)]:.3f}, ad {power[('ad', n)]:.3f}"
        for n in (1000, 2000)
    )
    _report(10, "EDF comparison (ordinal)", ok, detail, elapsed, 600.0)


def test_criterion_11_determinism_across_workers():
    start = time.perf_counter()
    spec = GridSpec(
        N_values=(5.0,), n_values=(10, 20), m_values=(4,),
        calib_reps=1_000, eval_reps=1_000, master_seed=MASTER_SEED,
    )
    outputs = [
        grid_result_to_csv(run_grid(spec, workers=workers))
        for workers in (1, 2, 1, 2)
    ]
    elapsed = time.perf_counter() - start
    ok = all(text == outputs[0] for text in outputs[1:])
    _report(11, "worker-count determinism", ok,
            f"{len(outputs)} runs, byte-identical CSV: {ok}", elapsed, 60.0)


def test_criterion_12_distribution_kit():
    start = time.perf_counter()
    worst_cdf = 0.0
    worst_round = 0.0
    ks_ok = True
    for N in (5.0, 20.0):
        law = FiniteNLaw(N)
        for x in (-1.5, -0.5, 0.3, 1.0, 2.0):
            numeric, _ = integrate.quad(law.density, -law.support_bound, x, limit=400)
            worst_cdf = max(worst_cdf, abs(numeric - law.cdf(x)))
        for p in np.arange(0.02, 0.99, 0.04):
            worst_round = max(worst_round, abs(law.cdf(law.quantile(p)) - p))
        n = 100_000
        draws = np.sort(law.sample(n, MASTER_SEED + int(N)))
        u = law.cdf(draws)
        i = np.arange(1, n + 1)
        distance = max((i / n - u).max(), (u - (i - 1) / n).max())
        ks_ok = ks_ok and distance < 1.6276 / math.sqrt(n)
    elapsed = time.perf_counter() - start
    ok = worst_cdf <= 1e-8 and worst_round <= 1e-9 and ks_ok
    _report(12, "distribution kit", ok,
            f"cdf vs quadrature {worst_cdf:.2e}, round-trip {worst_round:.2e}, "
            f"sampler KS at 1%: {ks_ok}", elapsed, 60.0)
