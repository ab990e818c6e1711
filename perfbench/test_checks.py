"""Each benchmark check passes on a right output and fails on a wrong one.

    python3 -m pytest perfbench/test_checks.py -q

Right outputs come from small runs of subabsorb itself, or from the
physics where the program has no small entry point; wrong ones are the
same outputs perturbed, shifted or truncated.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from subabsorb import coupled_dipole, maxwell_bloch  # noqa: E402
from subabsorb.core import EnsembleConfig, PulseShape  # noqa: E402

T_GRID = np.linspace(0.0, 8.0, 161)


def sweep_rows(taus, betas, sigmas):
    """Rows shaped like sweep.csv: swept value, sigma_ss, tau/2tau_a, err, seed."""
    return np.array([[b, s, t, 0.0, 1.0] for b, s, t in zip(betas, sigmas, taus)])


# ----------------------------------------------------------------------
# sweep tables

def test_sigma_ss_formula():
    requested = [0.05, 1.5]
    good = sweep_rows([1.0, 1.1], [0.0, 0.0],
                      [checks.sigma_ss_of_cube(500, s) for s in requested])
    assert checks.check_sigma_ss(good, requested, 500).ok
    shifted = good.copy()
    shifted[1, 1] *= 1.0 + 1e-6
    assert not checks.check_sigma_ss(shifted, requested, 500).ok
    assert not checks.check_sigma_ss(good[:1], requested, 500).ok


def test_dilute_law():
    rows = sweep_rows([1.002, 1.09], [0.0, 0.0], [0.03, 2.0])
    assert checks.check_dilute_law(rows).ok
    rows[0, 2] = 1.06
    assert not checks.check_dilute_law(rows).ok


def test_dense_subabsorption():
    rows = sweep_rows([1.0, 1.08, 0.95], [0.0, 0.0, 9e-5], [0.03, 2.0, 2.0])
    assert checks.check_dense_subabsorption(rows).ok
    rows[1, 2] = 0.99
    assert not checks.check_dense_subabsorption(rows).ok


def test_beta_trend_allows_the_fast_dip_but_not_a_growing_excess():
    betas = [0.0, 9e-7, 2.8e-6, 9e-6, 2.8e-5, 9e-5]
    # measured shape at sigma_ss = 2: excess shrinks, tau dips below 1, returns
    taus = [1.0832, 1.0745, 1.0178, 0.9168, 0.9723, 0.9968]
    rows = sweep_rows(taus, betas, [2.0] * 6)
    assert checks.check_beta_trend(rows).ok
    rows[2, 2] = 1.09
    assert not checks.check_beta_trend(rows).ok


def test_strictly_falling():
    sigma = np.array([0.1, 0.5, 1.0])
    assert checks.check_strictly_falling(sigma, np.array([0.99, 0.95, 0.9]), "x").ok
    assert not checks.check_strictly_falling(sigma, np.array([0.99, 0.95, 0.95]), "x").ok


# ----------------------------------------------------------------------
# collective model

def test_dipole_oracle_single_atom_limit():
    p = checks.collective_dipole_trace(np.array([[0.3, 0.2, 0.1]]), 1.0, T_GRID)
    np.testing.assert_allclose(p, 1.0 - np.exp(-T_GRID / 2.0), rtol=0, atol=1e-12)


@pytest.mark.parametrize("beta,mode", [(0.0, "vectorial"), (9e-6, "vectorial"),
                                       (0.0, "scalar")])
def test_dipole_check_on_program_realization(beta, mode):
    side = 4.0
    config = EnsembleConfig(atom_count=40, box=(side,) * 3, rng_seed=3,
                            realization_count=1, beta_over_2pi_hz_cm3=beta)
    trace, realization = coupled_dipole.run_realization(
        config, 3, pulse=PulseShape(kind="step"), mode=mode)
    g = checks.gamma_dd(beta, 40, side, 26.2, 780.0)
    sample = {"positions": realization.positions, "suppression": 1.0 / (1.0 + g * g),
              "t_points": T_GRID, "mode": mode, "p_normalized": trace.p_normalized}
    assert checks.check_dipole_traces([sample]).ok
    bent = trace.p_normalized.copy()
    bent[80] += 1e-6
    assert not checks.check_dipole_traces([dict(sample, p_normalized=bent)]).ok
    if beta > 0:
        # the suppression must enter: an undamped reference disagrees
        assert not checks.check_dipole_traces([dict(sample, suppression=1.0)]).ok
    assert not checks.check_dipole_traces([]).ok


# ----------------------------------------------------------------------
# propagation model

def program_trace(sigma_ss, detuning, kind="smooth_ramp"):
    pulse = PulseShape(kind=kind, detuning=detuning)
    tr = maxwell_bloch.simulate_transmission(pulse, sigma_ss)
    return {"t": tr.t_points, "i_in": tr.intensity_input, "i_out": tr.intensity_output,
            "sigma_ss": sigma_ss, "detuning": detuning, "kind": kind,
            "rise": pulse.rise_10_90}


def test_propagation_oracle_vacuum_and_steady_state():
    t = np.linspace(0.0, 60.0, 6001)
    vac = checks.propagated_intensity(t, 0.0, 0.0, "smooth_ramp", 0.3)
    np.testing.assert_allclose(vac, checks.ramp_envelope(t, "smooth_ramp", 0.3) ** 2,
                               atol=1e-12)
    beer = checks.propagated_intensity(t, 0.8, 0.0, "step", 0.0)
    assert beer[-1] == pytest.approx(np.exp(-0.8), rel=1e-9)


@pytest.mark.parametrize("sigma_ss,detuning", [(1.1, 0.0), (1.0, 0.7)])
def test_propagation_check_on_program_trace(sigma_ss, detuning):
    good = program_trace(sigma_ss, detuning)
    assert checks.check_propagation_traces([good]).ok
    late = dict(good, i_out=np.interp(good["t"] - 0.01, good["t"], good["i_out"]))
    assert not checks.check_propagation_traces([late]).ok
    dim = dict(good, i_out=good["i_out"] * (1.0 - 1e-3))
    assert not checks.check_propagation_traces([dim]).ok
    step_in = dict(good, kind="step")
    assert not checks.check_propagation_traces([step_in]).ok


def test_grid_invariants_on_program_grid():
    grid = maxwell_bloch.propagate_pulse(PulseShape(), 0.5)
    assert checks.check_grid_invariants(grid.rho00, grid.rho11, grid.rho01).ok
    assert not checks.check_grid_invariants(grid.rho00, grid.rho11 + 1e-8,
                                            grid.rho01).ok
    assert not checks.check_grid_invariants(grid.rho00, grid.rho11,
                                            grid.rho01 * (1.0 + 1e-6)).ok


# ----------------------------------------------------------------------
# photon-count fits

def fit_records(n, covered):
    """n records around tau = 52.4 ns, the first `covered` inside one error."""
    return [{"tau_ns": 52.4 + (0.5 if k < covered else 2.0), "tau_err_ns": 1.0,
             "chi2_reduced": 1.0} for k in range(n)]


def test_fit_records():
    assert all(c.ok for c in checks.check_fit_records(fit_records(8, 5), 52.4))
    shifted = [dict(r, tau_ns=r["tau_ns"] + 5.0) for r in fit_records(8, 5)]
    by_name = {c.name: c.ok for c in checks.check_fit_records(shifted, 52.4)}
    assert not by_name["coverage_consistent_with_68pc"]
    hot = [dict(r, chi2_reduced=1.5) for r in fit_records(8, 5)]
    by_name = {c.name: c.ok for c in checks.check_fit_records(hot, 52.4)}
    assert not by_name["median_reduced_chi2"]
    lost = fit_records(8, 5)[:7] + [None]
    by_name = {c.name: c.ok for c in checks.check_fit_records(lost, 52.4)}
    assert not by_name["every_fit_converges"]


def test_binomial_p_value():
    assert checks.binomial_two_sided_p(5, 8, 0.68) > 0.9
    assert checks.binomial_two_sided_p(0, 8, 0.68) == pytest.approx(2 * 0.32**8)


def test_identical_files():
    a = {"sweep.csv": b"1,2\n", "p/real.csv": b"3\n"}
    assert checks.check_identical_files(a, dict(a)).ok
    assert not checks.check_identical_files(a, dict(a, **{"p/real.csv": b"4\n"})).ok
    assert not checks.check_identical_files(a, {"sweep.csv": b"1,2\n"}).ok


# ----------------------------------------------------------------------
# tracing

def test_self_times_subtract_children():
    spans = [tracing.Span("cli.main", 0.0, 10.0, -1),
             tracing.Span("recipes.run_recipe", 1.0, 9.0, 0),
             tracing.Span("maxwell_bloch.propagate_pulse", 2.0, 5.0, 1),
             tracing.Span("maxwell_bloch.propagate_pulse", 5.0, 7.0, 1)]
    assert tracing.self_times(spans) == [2.0, 3.0, 3.0, 2.0]
    spans[2] = replace(spans[2], count=100)
    layer = tracing.layer_metrics(spans, 10.0)
    assert layer["maxwell_bloch.propagate_pulse.calls"] == 2
    assert layer["maxwell_bloch.node_steps_per_s"] == pytest.approx(20.0)
    assert layer["trace.self_time_share"] == pytest.approx(1.0)
