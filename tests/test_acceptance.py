"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Three comparisons are
known to fail and are left red on purpose; the reasons are physical, not
bugs, and are summarized in the README:

* criterion 2 at sigma_ss in {0.5, 1.0}: the step-response closed form is a
  first-order-in-optical-depth approximation (it neglects pulse reshaping),
  so the true solution departs from it by ~5e-3 and ~2e-2 there, far above
  the 1e-3 gate (the same physics that produces the propagation shortening
  of criterion 3, which does pass);
* criteria 4 and 5: detuned transients are strongly non-exponential, and
  the pinned fit procedure yields rise-time reductions outside the quoted
  windows at the stated parameters.
"""

import math
import os
import time

import numpy as np
import pytest

from subabsorb.analysis import (fit_rise_time, fit_rise_times, fit_with_uncertainty,
                                optical_depth_trace, synthesize_counts,
                                trace_from_dipole, OpticalDepthTrace)
from subabsorb.core import EnsembleConfig, PulseShape, optical_depth_from_geometry
from subabsorb.coupled_dipole import (build_coupling_matrix, evolve_closed_form,
                                      run_ensemble, sample_positions)
from subabsorb.maxwell_bloch import (propagate_batch, propagate_pulse,
                                     simulate_transmission, transmission_from_grid)
from subabsorb.recipes import BETA_SET, ExperimentRecipe, run_recipe

from reference import analytic_weak_field, drive_vector, pad_systems, rk4_amplitudes

STEP = PulseShape(kind="step")
RAMP = PulseShape(kind="smooth_ramp")


def report(criterion, passed, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def fitted_tau_mb(pulse, sigma_ss):
    trace = simulate_transmission(pulse, sigma_ss)
    return fit_rise_time(optical_depth_trace(trace)).tau


def cd_taus(side, seed, beta=0.0, n_atoms=500, realizations=10, mode="vectorial"):
    cfg = EnsembleConfig(atom_count=n_atoms, box=(side, side, side),
                         beta_over_2pi_hz_cm3=beta, rng_seed=seed,
                         realization_count=realizations)
    sigma_ss = optical_depth_from_geometry(cfg)
    result = run_ensemble(cfg, pulse=STEP, mode=mode)
    fits = fit_rise_times([trace_from_dipole(tr, sigma_ss) for tr in result.traces])
    return np.array([fit.tau for fit in fits])


def test_criterion_1_single_atom_rise_law():
    start = time.monotonic()
    tau = fitted_tau_mb(STEP, 1e-3)
    elapsed = time.monotonic() - start
    ok = abs(tau / 2.0 - 1.0) < 0.01 and elapsed < 5.0
    report(1, ok, f"dilute-limit tau = {tau / 2.0:.5f} * 2tau_a "
                  f"(52.4 ns within 1%), {elapsed:.1f}s")
    assert abs(tau / 2.0 - 1.0) < 0.01
    assert elapsed < 5.0


@pytest.mark.parametrize("sigma_ss", [0.1, 0.5, 1.0])
def test_criterion_2_closed_form_equivalence(sigma_ss):
    start = time.monotonic()
    grid = propagate_pulse(STEP, sigma_ss)
    num = np.abs(grid.rabi[-1]) / STEP.amplitude
    ref = analytic_weak_field(grid.t_points, 1.0, sigma_ss)
    dev = float(np.max(np.abs(num - ref) / ref))
    elapsed = time.monotonic() - start
    ok = dev < 1e-3 and elapsed < 30.0
    report(2, ok, f"sigma_ss={sigma_ss}: max relative deviation from the "
                  f"closed form = {dev:.2e} (gate 1e-3), {elapsed:.1f}s")
    assert elapsed < 30.0
    assert dev < 1e-3


def test_criterion_3_propagation_shortening():
    grid = np.geomspace(0.024, 1.11, 16)
    # one RK4 loop for all 16 depths: they share default_z_steps = 50, and a
    # batched row is bitwise equal to its single propagation
    grids = propagate_batch([RAMP] * len(grid), grid)
    taus = np.array([fit_rise_time(optical_depth_trace(transmission_from_grid(g, RAMP))).tau
                     for g in grids]) / 2.0
    decreasing = bool(np.all(np.diff(taus) < 0))
    ok = decreasing and taus[-1] < 1.0
    report(3, ok, f"tau/2tau_a strictly decreasing over sigma_ss "
                  f"[{grid[0]:.3f}..{grid[-1]:.2f}]: {decreasing}; "
                  f"value at 1.11 = {taus[-1]:.4f} < 1")
    assert decreasing
    assert taus[-1] < 1.0


def test_criterion_4_moderate_detuning():
    start = time.monotonic()
    tau0 = fitted_tau_mb(RAMP, 0.5)
    tau_d = fitted_tau_mb(PulseShape(kind="smooth_ramp", detuning=1.0 / 3.0), 0.5)
    reduction = 1.0 - tau_d / tau0
    elapsed = time.monotonic() - start
    ok = 0.25 <= reduction <= 0.45
    report(4, ok, f"rise-time reduction at detuning Gamma/3 = "
                  f"{100 * reduction:.1f}% (gate 35% +- 10 pp), {elapsed:.1f}s")
    assert 0.25 <= reduction <= 0.45


def test_criterion_5_strong_detuning():
    start = time.monotonic()
    tau0 = fitted_tau_mb(RAMP, 1.0)
    tau_d = fitted_tau_mb(PulseShape(kind="smooth_ramp", detuning=1.0), 1.0)
    reduction = 1.0 - tau_d / tau0
    elapsed = time.monotonic() - start
    ok = 0.45 <= reduction <= 0.75
    report(5, ok, f"rise-time reduction at detuning ~Gamma = "
                  f"{100 * reduction:.1f}% (gate 60% +- 15 pp), {elapsed:.1f}s")
    assert 0.45 <= reduction <= 0.75


def test_criterion_6_small_n_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    t = np.linspace(0, 8, 33)
    hs, omegas, closed = [], [], []
    for _ in range(50):
        n = int(rng.integers(2, 21))
        side = float(rng.uniform(2.0, 6.0))
        cfg = EnsembleConfig(atom_count=n, box=(side, side, side))
        r = sample_positions(cfg, seed=int(rng.integers(0, 2**31)))
        h = build_coupling_matrix(r)
        omega = drive_vector(r.positions, 1e-3)
        hs.append(h)
        omegas.append(omega)
        closed.append(evolve_closed_form(h, omega, t).amplitudes)
    # the 50 realizations step together, padded to the largest N
    rk = rk4_amplitudes(*pad_systems(hs, omegas), t, substeps=120)
    worst = 0.0
    for cf, direct in zip(closed, rk):
        dev = np.max(np.abs(cf - direct[:, :cf.shape[1]])) / np.max(np.abs(cf))
        worst = max(worst, float(dev))
    elapsed = time.monotonic() - start
    ok = worst < 1e-6 and elapsed < 60.0
    report(6, ok, f"closed form vs direct integration over 50 realizations "
                  f"(N<=20): worst relative deviation {worst:.1e} (gate 1e-6), "
                  f"{elapsed:.1f}s")
    assert worst < 1e-6
    assert elapsed < 60.0


def test_criterion_7_dilute_limit():
    start = time.monotonic()
    taus = cd_taus(50.0, seed=100) / 2.0
    mean = taus.mean()
    elapsed = time.monotonic() - start
    ok = abs(mean - 1.0) <= 0.05 and elapsed < 600.0
    report(7, ok, f"N=500 in a 50-lambda cube: mean tau/2tau_a = {mean:.3f} "
                  f"(gate 1.00 +- 0.05), {elapsed:.1f}s")
    assert abs(mean - 1.0) <= 0.05
    assert elapsed < 600.0


def test_criterion_8_subabsorption_onset():
    means, errs = [], []
    for side, seed in [(20.0, 200), (15.0, 300), (12.0, 400)]:
        taus = cd_taus(side, seed=seed) / 2.0
        means.append(taus.mean())
        errs.append(taus.std(ddof=1) / math.sqrt(len(taus)))
    increasing = means[0] < means[1] < means[2]
    excess_sig = (means[2] - 1.0) / errs[2]
    ok = increasing and excess_sig > 2.0
    report(8, ok, f"mean tau/2tau_a for cubes (20,15,12)lambda = "
                  f"({means[0]:.3f}, {means[1]:.3f}, {means[2]:.3f}), strictly "
                  f"increasing: {increasing}; 12-lambda excess = "
                  f"{excess_sig:.1f} standard errors (gate > 2)")
    assert increasing
    assert excess_sig > 2.0


def test_criterion_9_dephasing_suppression_trend(tmp_path):
    od_grid = tuple(float(x) for x in np.geomspace(0.05, 2.0, 10))
    recipe = ExperimentRecipe(
        name="acc9", model="coupled_dipole", swept_parameter="beta",
        sweep_values=BETA_SET, od_grid=od_grid, pulse=STEP,
        ensemble=EnsembleConfig(atom_count=500, rng_seed=900, realization_count=10))
    curves = {}
    for row in run_recipe(recipe, tmp_path):
        curves.setdefault(row.swept_value, []).append((row.sigma_ss,
                                                       row.tau_over_2tau_a))
    peaks, argmaxes = [], []
    for beta in BETA_SET:
        pts = sorted(curves[beta])
        vals = [v for _, v in pts]
        peaks.append(max(vals))
        argmaxes.append(pts[int(np.argmax(vals))][0])
    peaks_ok = bool(np.all(np.diff(peaks) <= 1e-12))
    argmax_ok = bool(np.all(np.diff(argmaxes) <= 1e-12))
    ok = peaks_ok and argmax_ok
    report(9, ok, f"peak tau/2tau_a per beta = {[round(p, 3) for p in peaks]} "
                  f"non-increasing: {peaks_ok}; argmax optical depth = "
                  f"{[round(a, 3) for a in argmaxes]} non-increasing: {argmax_ok}")
    assert peaks_ok
    assert argmax_ok


def test_criterion_10_scalar_vs_vectorial():
    od_grid = np.geomspace(0.1, 2.0, 8)
    maxima = {}
    for mode in ["vectorial", "scalar"]:
        means = []
        for k, od in enumerate(od_grid):
            side = math.sqrt(3 * 500 / (2 * math.pi * od))
            taus = cd_taus(side, seed=1000 + 10 * k, mode=mode) / 2.0
            means.append(taus.mean())
        maxima[mode] = max(means)
    ok = all(v > 1.0 for v in maxima.values())
    report(10, ok, f"max tau/2tau_a over the density sweep: vectorial = "
                   f"{maxima['vectorial']:.3f}, scalar = {maxima['scalar']:.3f} "
                   f"(gate: both > 1)")
    assert maxima["vectorial"] > 1.0
    assert maxima["scalar"] > 1.0


def test_criterion_11_fit_pipeline_calibration():
    start = time.monotonic()
    bin_width = 4.0 / 26.2
    t = np.linspace(0.0, 8.0, 600)
    truth = OpticalDepthTrace(t_points=t, sigma=0.1 * (1 - np.exp(-t / 2.0)),
                              u_sigma=np.zeros_like(t))
    covered = 0
    chi2s = []
    for trial in range(100):
        noisy = synthesize_counts(truth, cycles=100_000, photons_per_pulse=30,
                                  seed=5000 + trial, bin_width=bin_width)
        rec = optical_depth_trace(noisy)
        fit = fit_with_uncertainty(rec, resamples=10_000, seed=7000 + trial)
        chi2s.append(fit.reduced_chi_squared)
        if abs(fit.tau - 2.0) <= fit.tau_uncertainty:
            covered += 1
    median_chi2 = float(np.median(chi2s))
    elapsed = time.monotonic() - start
    ok = covered >= 60 and 0.7 <= median_chi2 <= 1.3 and elapsed < 120.0
    report(11, ok, f"coverage = {covered}/100 (gate >= 60), median reduced "
                   f"chi^2 = {median_chi2:.2f} (gate [0.7, 1.3]), {elapsed:.1f}s")
    assert covered >= 60
    assert 0.7 <= median_chi2 <= 1.3
    assert elapsed < 120.0


def test_criterion_12_byte_identical_reruns(tmp_path):
    recipes = [
        ExperimentRecipe(name="det_mb", model="maxwell_bloch",
                         swept_parameter="detuning", sweep_values=(0.0, 1 / 3, 0.5),
                         sigma_ss_fixed=0.5),
        ExperimentRecipe(name="det_cd", model="coupled_dipole",
                         swept_parameter="box_side", sweep_values=(16.0, 12.0),
                         pulse=STEP,
                         ensemble=EnsembleConfig(atom_count=120, rng_seed=12,
                                                 realization_count=4)),
    ]
    identical = True
    compared = 0
    for recipe in recipes:
        run_recipe(recipe, tmp_path / "a")
        run_recipe(recipe, tmp_path / "b")
        adir = tmp_path / "a" / recipe.name
        bdir = tmp_path / "b" / recipe.name
        for name in sorted(os.listdir(adir)):
            if not name.endswith(".csv"):
                continue
            compared += 1
            if (adir / name).read_bytes() != (bdir / name).read_bytes():
                identical = False
    ok = identical and compared > 4
    report(12, ok, f"{compared} output CSVs byte-identical across reruns: "
                   f"{identical}")
    assert identical
    assert compared > 4
