import math

import numpy as np
import pytest

from subabsorb.core import DomainError, PulseShape
from subabsorb.maxwell_bloch import (ResolutionError, propagate_batch, propagate_pulse,
                                     simulate_transmission)

from reference import analytic_weak_field, whole_array_rk4_batch


def exact_step_output(t, sigma_ss, detuning=0.0, n_terms=60):
    """Independent weak-field oracle for a step drive through a uniform slab.

    Laplace transform of the linearized coherence/propagation pair gives
    Omega(L, p) = (Omega0/p) exp(-(sigma_ss/4)/(p + a)) with a = 1/2 + i*detuning;
    inverting term by term yields sum_n (-sigma_ss/(4a))^n / n! * P(n, a t)
    where P is the regularized lower incomplete gamma function, extended to
    complex argument through the downward recursion
    P(n, x) = P(n-1, x) - x^(n-1) e^(-x) / (n-1)!.
    """
    t = np.asarray(t, dtype=float)
    a = 0.5 + 1j * detuning
    x = a * t
    xe = np.exp(-x)
    p_n = np.ones_like(t, dtype=complex)       # P(0, x) = 1
    power = np.ones_like(t, dtype=complex)     # x^(n-1)/(n-1)! at step n
    coef = 1.0 + 0.0j                          # (-sigma_ss/(4a))^n
    out = np.ones_like(t, dtype=complex)
    for n in range(1, n_terms):
        p_n = p_n - power * xe
        power = power * x / n
        coef = coef * (-sigma_ss / (4.0 * a)) / n
        out = out + coef * p_n
    return out


#: the dtype of every array of a FieldGrid
GRID_DTYPES = {"z_points": np.float64, "t_points": np.float64, "rabi": np.complex128,
               "rho00": np.float64, "rho11": np.float64, "rho01": np.complex128}


def assert_same_bytes(got, want, name):
    # unlike np.array_equal, the bytes tell -0.0 from +0.0
    assert got.dtype == want.dtype and got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


def assert_grid_layout(grid):
    # the header np.lib.format.write_array writes, and so the bytes of a
    # grid dump, depends on each array's dtype and memory order
    for name, dtype in GRID_DTYPES.items():
        array = getattr(grid, name)
        assert array.dtype == dtype, name
        assert array.flags.c_contiguous, name


def bloch(pulse, t_max):
    """Single-atom Bloch solution for a step drive, from a propagation through
    zero optical depth: every z node sees the boundary drive.  Arrays are
    indexed [z, t], with dt = tau_a/200."""
    grid = propagate_batch([pulse], [0.0], t_max=t_max, full_grid=True)[0]
    assert grid.t_points[1] == pytest.approx(0.005, rel=1e-12)
    return grid.t_points, grid.rho00, grid.rho11, grid.rho01


class TestDensityMatrix:
    def test_no_drive(self):
        t, r00, r11, r01 = bloch(PulseShape(kind="step", amplitude=0.0), 2.0)
        assert np.all(r11 == 0.0)
        assert np.all(r01 == 0.0)
        assert np.all(r00 == 1.0)

    def test_weak_drive_matches_analytic_coherence(self):
        # rho01(t) = -i (Omega/Gamma) (1 - exp(-t/2)) for constant weak drive
        omega = 1e-3
        t, _, _, r01 = bloch(PulseShape(kind="step", amplitude=omega), 8.0)
        expected = -1j * omega * (1.0 - np.exp(-t / 2.0))
        scale = np.abs(expected[-1])
        assert np.max(np.abs(r01 - expected)) / scale < 1e-3

    def test_strong_drive_saturation_vs_linear_solve(self):
        # steady state of the Bloch equations from an independent 3x3 solve
        omega, delta = 1.0, 0.0
        with pytest.warns(UserWarning, match="weak-excitation"):
            pulse = PulseShape(kind="step", amplitude=omega, detuning=delta)
        t, r00, r11, r01 = bloch(pulse, 40.0)
        # unknowns (rho11, Re rho01, Im rho01); rho00 = 1 - rho11
        a = np.array([
            [-1.0, 0.0, -omega],
            [0.0, -0.5, delta],
            [omega, -delta, -0.5],
        ])
        rhs = np.array([0.0, 0.0, omega / 2.0])
        rho11_ss, re01, im01 = np.linalg.solve(a, rhs)
        for z in range(len(r11)):
            assert r11[z, -1] == pytest.approx(rho11_ss, rel=1e-6)
            assert r01[z, -1].real == pytest.approx(re01, abs=1e-9)
            assert r01[z, -1].imag == pytest.approx(im01, rel=1e-6)
        assert rho11_ss == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_trace_preserved(self):
        t, r00, r11, _ = bloch(PulseShape(kind="step", amplitude=0.05, detuning=0.3), 8.0)
        np.testing.assert_allclose(r00 + r11, 1.0, atol=1e-9)


class TestAnalyticWeakField:
    def test_t_zero_is_input(self):
        assert analytic_weak_field(0.0, 1.0, 0.7) == pytest.approx(1.0)

    def test_steady_state_attenuation(self):
        out = analytic_weak_field(200.0, 1.0, 0.87)
        assert out == pytest.approx(math.exp(-0.87 / 2.0), rel=1e-12)

    def test_off_resonance_rejected(self):
        with pytest.raises(DomainError):
            analytic_weak_field(1.0, 1.0, 0.5, detuning=0.2)

    def test_sigma_of_t_is_single_exponential_2tau(self):
        from subabsorb.analysis import OpticalDepthTrace, fit_rise_time
        t = np.linspace(0, 8, 1601)
        amp = np.abs(analytic_weak_field(t, 1.0, 0.87))
        sigma = -2.0 * np.log(amp)
        trace = OpticalDepthTrace(t_points=t, sigma=sigma, u_sigma=np.zeros_like(t))
        fit = fit_rise_time(trace)
        assert fit.tau == pytest.approx(2.0, rel=1e-6)


class TestPropagation:
    def test_vacuum_is_identity(self):
        grid = propagate_pulse(PulseShape(kind="step"), 0.0)
        np.testing.assert_allclose(grid.rabi[-1], grid.rabi[0], rtol=0, atol=1e-18)

    def test_trace_and_purity_invariants(self):
        grid = propagate_pulse(PulseShape(kind="step"), 0.5)
        assert np.max(np.abs(grid.rho00 + grid.rho11 - 1.0)) <= 1e-9
        # a pure state has |rho01|^2 = rho00 rho11, a mixed one less
        assert np.max(np.abs(grid.rho01) ** 2 - grid.rho00 * grid.rho11) <= 1e-9

    @pytest.mark.parametrize("sigma_ss", [0.01, 0.1])
    def test_matches_closed_form_at_low_depth(self, sigma_ss):
        # the closed form neglects pulse reshaping (error O(sigma_ss^2)), so
        # the comparison is meaningful only at low optical depth
        grid = propagate_pulse(PulseShape(kind="step"), sigma_ss)
        num = np.abs(grid.rabi[-1]) / PulseShape().amplitude
        ref = analytic_weak_field(grid.t_points, 1.0, sigma_ss)
        assert np.max(np.abs(num - ref) / ref) < 1e-3

    @pytest.mark.parametrize("sigma_ss,detuning", [(0.1, 0.0), (0.5, 0.0), (1.0, 0.0),
                                                   (0.5, 1.0 / 3.0), (1.0, 1.0)])
    def test_matches_exact_linear_series(self, sigma_ss, detuning):
        # independent oracle: term-by-term Laplace inversion of the linearized
        # coupled system (see exact_step_output)
        pulse = PulseShape(kind="step", detuning=detuning)
        grid = propagate_pulse(pulse, sigma_ss)
        num = np.abs(grid.rabi[-1]) / pulse.amplitude
        ref = np.abs(exact_step_output(grid.t_points, sigma_ss, detuning))
        assert np.max(np.abs(num - ref) / np.maximum(ref, 1e-12)) < 2e-5

    def test_weak_field_linearity(self):
        # sigma(t) depends only on the intensity ratio in the weak limit
        ref = None
        for amp in [1e-3, 1e-5]:
            tr = simulate_transmission(PulseShape(kind="step", amplitude=amp), 0.5)
            sigma = np.log(tr.intensity_input[1:] / tr.intensity_output[1:])
            if ref is None:
                ref = sigma
            else:
                assert np.max(np.abs(sigma - ref)) < 1e-4 * np.max(ref)

    def test_grid_convergence_of_fitted_tau(self):
        from subabsorb.analysis import fit_rise_time, optical_depth_trace
        taus = []
        for steps_per_tau, z_steps in [(200, 50), (400, 100)]:
            tr = simulate_transmission(PulseShape(kind="step"), 0.8,
                                       steps_per_tau=steps_per_tau, z_steps=z_steps)
            taus.append(fit_rise_time(optical_depth_trace(tr)).tau)
        assert abs(taus[1] - taus[0]) / taus[0] < 0.002

    def test_detuning_symmetry(self):
        up = simulate_transmission(PulseShape(kind="step", detuning=0.4), 0.5)
        dn = simulate_transmission(PulseShape(kind="step", detuning=-0.4), 0.5)
        np.testing.assert_allclose(up.intensity_output, dn.intensity_output,
                                   rtol=1e-12, atol=1e-15)

    def test_resolution_guard(self):
        with pytest.raises(ResolutionError):
            propagate_pulse(PulseShape(kind="step"), 2.0, z_steps=10)

    def test_default_z_steps_scale_with_depth(self):
        grid = propagate_pulse(PulseShape(kind="step"), 4.0)
        assert len(grid.z_points) - 1 >= 80


class TestBatch:
    """A batch row must be the same bits as that row propagated alone."""

    @staticmethod
    def assert_rows_match_single_runs(pulses, depths):
        grids = propagate_batch(pulses, depths)
        assert len(grids) == len(pulses)
        for pulse, depth, grid in zip(pulses, depths, grids):
            alone = propagate_pulse(pulse, depth)
            assert_grid_layout(grid)
            assert_grid_layout(alone)
            assert grid.sigma_ss == alone.sigma_ss
            assert_same_bytes(grid.t_points, alone.t_points, "t_points")
            for name in ("z_points", "rabi", "rho00", "rho11", "rho01"):
                assert_same_bytes(getattr(grid, name), getattr(alone, name)[[0, -1]], name)

    def test_mixed_optical_depths(self):
        depths = [0.024, 0.3, 1.11, 2.5]
        self.assert_rows_match_single_runs([PulseShape()] * len(depths), depths)

    def test_mixed_detunings(self):
        detunings = [0.0, 1.0 / 3.0, 1.1]
        pulses = [PulseShape(kind="step", detuning=d) for d in detunings]
        self.assert_rows_match_single_runs(pulses, [1.0] * len(pulses))

    def test_full_grid_row_matches_single_run(self):
        pulses = [PulseShape(detuning=0.5), PulseShape()]
        grid = propagate_batch(pulses, [0.2, 0.9], full_grid=True)[1]
        alone = propagate_pulse(PulseShape(), 0.9)
        assert_grid_layout(grid)
        for name in ("z_points", "rabi", "rho00", "rho11", "rho01"):
            assert_same_bytes(getattr(grid, name), getattr(alone, name), name)

    def test_rows_on_different_z_grids_rejected(self):
        # default_z_steps is 50 up to sigma_ss = 2.5 and 60 at 3.0
        with pytest.raises(ResolutionError):
            propagate_batch([PulseShape()] * 2, [0.5, 3.0])

    @pytest.mark.parametrize("pulses,depths", [
        ([PulseShape()], [0.5, 1.0]),
        ([PulseShape(), PulseShape(detuning=0.3)], [0.5]),
        ([], []),
    ], ids=["one-pulse-two-depths", "two-pulses-one-depth", "empty"])
    def test_unpaired_or_empty_batch_rejected(self, pulses, depths):
        with pytest.raises(DomainError):
            propagate_batch(pulses, depths)

    @pytest.mark.parametrize("pulses,depths,kwargs", [
        ([PulseShape(kind="step")] * 4, [0.024, 0.3, 1.11, 2.5], {}),
        ([PulseShape(kind="step", detuning=d) for d in (0.0, 1.0 / 3.0, -0.4, 1.1)],
         [1.0] * 4, {}),
        ([PulseShape(kind="smooth_ramp", detuning=0.2), PulseShape()], [0.5, 0.8], {}),
        ([PulseShape(detuning=0.5), PulseShape(kind="step")], [0.2, 0.9],
         {"full_grid": True}),
        ([PulseShape(), PulseShape(kind="step", detuning=0.7)], [0.1, 0.35],
         {"z_steps": 7, "t_max": 3.0}),
        ([PulseShape(kind="step"), PulseShape(detuning=-0.3)], [0.0, 0.0],
         {"full_grid": True, "t_max": 2.0}),
    ], ids=["mixed-depths", "mixed-detunings", "ramped", "full-grid", "z-steps",
            "zero-depth"])
    def test_bit_identical_to_expression_form(self, pulses, depths, kwargs):
        # the buffered loop makes the same floating-point operations in the
        # same order as the whole-array expressions, so no bit may move
        grids = propagate_batch(pulses, depths, **kwargs)
        reference = whole_array_rk4_batch(pulses, depths, **kwargs)
        for grid in grids:
            assert_grid_layout(grid)
        for name, ref in zip(("rabi", "rho00", "rho11", "rho01"), reference):
            assert_same_bytes(np.stack([getattr(grid, name) for grid in grids]), ref, name)


class TestTransmission:
    def test_output_below_input_on_resonance(self):
        tr = simulate_transmission(PulseShape(kind="smooth_ramp"), 0.5)
        after_edge = tr.t_points > 1.0
        assert np.all(tr.intensity_output[after_edge]
                      <= tr.intensity_input[after_edge] + 1e-6)

    def test_fig8_style_transient(self):
        # transient output overshoots its own steady level while sigma(t)
        # rises monotonically over the analysis window
        tr = simulate_transmission(PulseShape(kind="smooth_ramp"), 0.5)
        assert tr.intensity_output.max() > 1.2 * tr.intensity_output[-1]
        mask = tr.t_points >= 1.0
        sigma = np.log(tr.intensity_input[mask] / tr.intensity_output[mask])
        assert np.all(np.diff(sigma) > -1e-12)

    def test_shared_time_axis(self):
        tr = simulate_transmission(PulseShape(kind="step"), 0.3)
        assert len(tr.t_points) == len(tr.intensity_input) == len(tr.intensity_output)

    def test_detuned_trace_departs_from_single_exponential(self):
        # at Gamma/3 detuning the transient is visibly non-exponential: the
        # fit residual grows by well over 5x compared to resonance
        from subabsorb.analysis import fit_rise_time, optical_depth_trace
        rms = {}
        for delta in [0.0, 1.0 / 3.0]:
            tr = simulate_transmission(PulseShape(kind="smooth_ramp", detuning=delta),
                                       0.5)
            rms[delta] = fit_rise_time(optical_depth_trace(tr)).residual_rms
        assert rms[1.0 / 3.0] >= 5.0 * rms[0.0]
