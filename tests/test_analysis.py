import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from subabsorb import analysis
from subabsorb.analysis import (FIT_WINDOW, TAIL_FRACTION, TAU_INITIAL,
                                DegenerateTraceError, FitError, OpticalDepthTrace,
                                _box_solve2, _boxes, _fit_rows, fit_rise_time,
                                fit_rise_times, fit_with_uncertainty,
                                monte_carlo_uncertainty,
                                optical_depth_trace, synthesize_counts,
                                trace_from_dipole)
from subabsorb.core import DomainError, EnsembleConfig, PulseShape
from subabsorb.maxwell_bloch import TransmissionTrace, propagate_batch, transmission_from_grid
from subabsorb.recipes import get_recipe


def make_trace(t, sigma, u=None):
    return OpticalDepthTrace(t_points=t, sigma=sigma,
                             u_sigma=np.zeros_like(sigma) if u is None else u)


def exponential_truth(t, sigma_ss=0.1, tau=2.0):
    return sigma_ss * (1.0 - np.exp(-t / tau))


class TestOpticalDepthExtraction:
    def test_equal_intensities_give_zero(self):
        t = np.linspace(0, 8, 200)
        i = np.ones_like(t)
        trace = optical_depth_trace(TransmissionTrace(t, i, i))
        np.testing.assert_allclose(trace.sigma, 0.0, atol=1e-15)

    def test_definition_at_one_e(self):
        t = np.linspace(0, 8, 200)
        i = np.ones_like(t)
        trace = optical_depth_trace(TransmissionTrace(t, i, i * np.exp(-1.0)))
        np.testing.assert_allclose(trace.sigma, 1.0, rtol=1e-14)

    def test_round_trip_with_synthesized_intensities(self):
        t = np.linspace(0, 8, 321)
        sigma = exponential_truth(t, 0.87)
        i_in = np.full_like(t, 2.7)
        trace = optical_depth_trace(TransmissionTrace(t, i_in, i_in * np.exp(-sigma)))
        np.testing.assert_allclose(trace.sigma, sigma, rtol=0, atol=1e-12)

    def test_invariant_under_common_rescale(self):
        t = np.linspace(0, 8, 321)
        sigma = exponential_truth(t, 0.5)
        i_in = np.ones_like(t)
        a = optical_depth_trace(TransmissionTrace(t, i_in, i_in * np.exp(-sigma)))
        b = optical_depth_trace(TransmissionTrace(t, 7 * i_in, 7 * i_in * np.exp(-sigma)))
        np.testing.assert_allclose(a.sigma, b.sigma, atol=1e-13)

    def test_poisson_propagation_formula(self):
        t = np.linspace(0, 8, 50)
        i_in = np.full_like(t, 100.0)
        i_out = np.full_like(t, 80.0)
        u_in = np.sqrt(i_in)
        u_out = np.sqrt(i_out)
        trace = optical_depth_trace(TransmissionTrace(t, i_in, i_out, u_in, u_out))
        expected = np.sqrt(1.0 / 100.0 + 1.0 / 80.0)
        np.testing.assert_allclose(trace.u_sigma, expected, rtol=1e-12)

    def test_degenerate_output_in_window(self):
        t = np.linspace(0, 8, 100)
        i_in = np.ones_like(t)
        i_out = np.ones_like(t)
        i_out[60] = 0.0
        with pytest.raises(DegenerateTraceError):
            optical_depth_trace(TransmissionTrace(t, i_in, i_out))

    def test_dipole_conversion(self):
        from subabsorb.coupled_dipole import DipoleTrace
        t = np.linspace(0, 8, 161)
        p = 1.0 - np.exp(-t / 2.0)
        trace = trace_from_dipole(DipoleTrace(t, p, 1.0), sigma_ss=0.3)
        np.testing.assert_allclose(trace.sigma, 0.3 * p, rtol=1e-14)


class TestFit:
    def test_exact_model_recovers_tau(self):
        t = np.linspace(0, 8, 1601)
        fit = fit_rise_time(make_trace(t, exponential_truth(t, 0.5, 2.0)))
        assert fit.tau == pytest.approx(2.0, rel=1e-6)
        assert fit.reduced_chi_squared < 1e-12
        assert fit.sigma_ss_fit == pytest.approx(0.5, rel=1e-4)

    def test_identifiability_tau_three(self):
        # tau = 3 tau_a has not plateaued inside the window; rising from 0.25
        # to 0.5, its tail mean is 4% below s_ss, inside the endpoint slack
        t = np.linspace(0, 8, 1601)
        fit = fit_rise_time(make_trace(t, 0.5 - 0.25 * np.exp(-t / 3.0)))
        assert fit.tau == pytest.approx(3.0, rel=1e-6)

    def test_window_excludes_early_times(self):
        t = np.linspace(0, 8, 801)
        sigma = exponential_truth(t, 0.5, 2.0)
        # corrupt the excluded early region only
        sigma[t < 1.0] = 17.0
        fit = fit_rise_time(make_trace(t, sigma))
        assert fit.tau == pytest.approx(2.0, rel=1e-6)
        assert fit.fit_window == (1.0, 8.0)

    def test_endpoints_respect_slack_box(self):
        # a full rise with tau = 3 tau_a: the tail mean is 8% below the true
        # s_ss of 0.5, which the box around it leaves out
        t = np.linspace(0, 8, 801)
        sigma = exponential_truth(t, 0.5, 3.0)
        lo, hi = FIT_WINDOW
        estimate = np.mean(sigma[(t >= hi - (hi - lo) * TAIL_FRACTION) & (t <= hi)])
        fit = fit_rise_time(make_trace(t, sigma))
        assert 0.95 * estimate <= fit.sigma_ss_fit <= 1.05 * estimate

    def test_weighted_fit_prefers_precise_points(self):
        rng = np.random.default_rng(8)
        t = np.linspace(0, 8, 401)
        truth = exponential_truth(t, 0.5, 2.0)
        u = np.full_like(t, 1e-4)
        noisy_region = (t > 3) & (t < 5)
        u[noisy_region] = 0.3
        sigma = truth + rng.normal(size=len(t)) * u
        fit = fit_rise_time(make_trace(t, sigma, u))
        assert fit.tau == pytest.approx(2.0, rel=5e-3)

    def test_too_few_points(self):
        t = np.linspace(0, 8, 9)
        with pytest.raises(DomainError):
            fit_rise_time(make_trace(t, exponential_truth(t)))

    def test_bound_saturation_flagged(self):
        t = np.linspace(0, 8, 801)
        sigma = 0.5 - 0.02 * np.exp(-t / 50.0)  # far slower than the bound
        fit = fit_rise_time(make_trace(t, sigma))
        assert fit.bound_saturated

    @pytest.mark.parametrize("points, tau, saturated",
                             [(1601, 3.0, True), (801, 50.0, True), (1601, 2.0, False)])
    def test_level_saturation_flagged(self, points, tau, saturated):
        # a full rise that has not settled by the window's end has a tail
        # mean more than 5% low: its steady state pins to the box's upper
        # edge and its tau comes out low (2.64 and 4.09 here), not on a bound
        t = np.linspace(0, 8, points)
        fit = fit_rise_time(make_trace(t, exponential_truth(t, 0.5, tau)))
        assert fit.level_saturated is saturated
        assert not fit.bound_saturated

    def test_nan_in_window_rejected(self):
        t = np.linspace(0, 8, 801)
        sigma = exponential_truth(t)
        sigma[400] = np.nan
        with pytest.raises(DegenerateTraceError):
            fit_rise_time(make_trace(t, sigma))


class TestFitRiseTimes:
    def test_rows_equal_single_trace_fits(self):
        # collective traces of one dense ensemble, one of which converges an
        # iteration early: every row of the batch is the fit of that trace
        # alone, down to the last bit
        from subabsorb.coupled_dipole import run_ensemble
        cfg = EnsembleConfig(atom_count=100, box=(4.0, 4.0, 4.0), rng_seed=21,
                             realization_count=6)
        result = run_ensemble(cfg, pulse=PulseShape(kind="step"))
        traces = [trace_from_dipole(tr, 0.7) for tr in result.traces]
        fits = fit_rise_times(traces)
        assert len(fits) == 6
        assert len({fit.n_iterations for fit in fits}) > 1
        for fit, trace in zip(fits, traces):
            # every field: tau, endpoints, chi^2, rms, iterations, saturation
            assert fit == fit_rise_time(trace)

    def test_first_unconverged_trace_raises(self, monkeypatch):
        t = np.linspace(0, 8, 201)
        traces = [make_trace(t, exponential_truth(t, s)) for s in (0.1, 0.2, 0.3, 0.4)]
        original = analysis._fit_batch

        def two_fail(*args, **kwargs):
            p, cost, iters, ok = original(*args, **kwargs)
            ok[[1, 3]] = False
            return p, cost, iters, ok

        monkeypatch.setattr(analysis, "_fit_batch", two_fail)
        with pytest.raises(FitError) as info:
            fit_rise_times(traces)
        # the error carries row 1's index and parameters, the first unconverged row
        assert info.value.index == 1
        p_first, _ = info.value.residuals
        monkeypatch.setattr(analysis, "_fit_batch", original)
        fit = fit_rise_time(traces[1])
        assert (p_first == [fit.sigma_ss_fit, fit.sigma_init, fit.tau]).all()

    def test_first_undefined_trace_is_named(self):
        t = np.linspace(0, 8, 201)
        traces = [make_trace(t, exponential_truth(t, s)) for s in (0.1, 0.2, 0.3, 0.4)]
        traces[2].sigma[100] = np.nan
        with pytest.raises(DegenerateTraceError) as info:
            fit_rise_times(traces)
        assert info.value.index == 2

    def test_no_traces_give_no_fits(self):
        assert fit_rise_times([]) == []

    def test_blocks_of_rows_equal_single_trace_fits(self, monkeypatch):
        # 7 traces in blocks of 3 rows: 3 kernel calls, and every fit is
        # that of its trace alone
        t = np.linspace(0, 8, 201)
        traces = [make_trace(t, exponential_truth(t, 0.1 * (k + 1), tau=1.0 + 0.3 * k))
                  for k in range(7)]
        calls = []
        original = analysis._fit_batch

        def counting(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(analysis, "MC_BLOCK", 3)
        monkeypatch.setattr(analysis, "_fit_batch", counting)
        fits = fit_rise_times(traces)
        assert len(calls) == 3
        monkeypatch.setattr(analysis, "_fit_batch", original)
        assert fits == [fit_rise_time(trace) for trace in traces]

    def test_peak_memory_stops_growing_past_one_block(self, monkeypatch):
        # past one block, each further trace holds only its fit record
        monkeypatch.setattr(analysis, "MC_BLOCK", 100)
        t = np.linspace(0, 8, 161)
        traces = [make_trace(t, exponential_truth(t, tau=1.5 + 0.003 * k)) for k in range(400)]
        fit_rise_times(traces[:2])
        peaks = {}
        for n in (100, 400):
            tracemalloc.start()
            try:
                fit_rise_times(traces[:n])
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[400] - peaks[100] <= 300 * 1024

    def test_traces_on_different_grids_rejected(self):
        a = np.linspace(0, 8, 201)
        b = np.linspace(0, 8.5, 201)
        with pytest.raises(DomainError, match="one time grid"):
            fit_rise_times([make_trace(a, exponential_truth(a)),
                            make_trace(b, exponential_truth(b))])


class TestKernelOracle:
    """The batched fit against scipy's trust-region reflective least squares,
    an independent bounded solver, on the same residuals, boxes and start."""

    @staticmethod
    def _scipy_fit(t, y, u, tau_starts=(TAU_INITIAL,), tol=1e-14):
        """(tau, cost) of the lowest-cost trust-region fit over the starting taus."""
        from scipy.optimize import least_squares
        window = FIT_WINDOW
        tail = t >= window[1] - (window[1] - window[0]) * TAIL_FRACTION
        sss = np.mean(y[tail])
        lo, hi = _boxes(np.array([sss]), y[:1], 1)
        w = 1.0 / u if np.all(u > 0) else np.ones_like(t)

        def residuals(p):
            return (p[0] - (p[0] - p[1]) * np.exp(-(t - window[0]) / p[2]) - y) * w

        fits = [least_squares(residuals, np.clip([sss, y[0], tau], lo[0], hi[0]),
                              bounds=(lo[0], hi[0]), method="trf",
                              ftol=tol, xtol=tol, gtol=tol) for tau in tau_starts]
        best = min(fits, key=lambda fit: fit.cost)
        return best.x[2], 2.0 * best.cost

    @classmethod
    def _scipy_tau(cls, t, y, u):
        return cls._scipy_fit(t, y, u)[0]

    def test_count_traces_match_trust_region_fits(self):
        # criterion-11 traces: 10^5 cycles of 30 photons in 4 ns bins
        t = np.linspace(0.0, 8.0, 600)
        truth = make_trace(t, 0.1 * (1 - np.exp(-t / 2.0)))
        traces = [optical_depth_trace(synthesize_counts(truth, cycles=100_000,
                                                        photons_per_pulse=30,
                                                        seed=5000 + k,
                                                        bin_width=4.0 / 26.2))
                  for k in range(24)]
        fits = fit_rise_times(traces)
        for fit, trace in zip(fits, traces):
            inside = (trace.t_points >= FIT_WINDOW[0]) & (trace.t_points <= FIT_WINDOW[1])
            tau = self._scipy_tau(trace.t_points[inside], trace.sigma[inside],
                                  trace.u_sigma[inside])
            assert fit.tau == pytest.approx(tau, rel=1e-5)

    def test_tau_pinned_at_its_bound_matches(self):
        t = np.linspace(0, 8, 801)
        trace = make_trace(t, 0.5 - 0.02 * np.exp(-t / 50.0))
        fit = fit_rise_time(trace)
        inside = (t >= FIT_WINDOW[0]) & (t <= FIT_WINDOW[1])
        tau = self._scipy_tau(t[inside], trace.sigma[inside], trace.u_sigma[inside])
        assert fit.bound_saturated
        assert fit.tau == pytest.approx(tau, rel=1e-5)

    def test_ringing_traces_reach_the_trust_region_optimum(self):
        # fig11_detuning_sweep points at 0.6 and 0.9 Gamma: detuned
        # propagation makes sigma(t) ring about its rise, so the cost has
        # long flat valleys in tau
        recipe = get_recipe("fig11_detuning_sweep")
        pulses = [replace(recipe.pulse, detuning=d) for d in (0.6, 0.9)]
        grids = propagate_batch(pulses, [recipe.sigma_ss_fixed] * 2)
        for pulse, grid in zip(pulses, grids):
            trace = optical_depth_trace(transmission_from_grid(grid, pulse))
            fit = fit_rise_time(trace)
            inside = (trace.t_points >= FIT_WINDOW[0]) & (trace.t_points <= FIT_WINDOW[1])
            t, y = trace.t_points[inside], trace.sigma[inside]
            tau, cost = self._scipy_fit(t, y, trace.u_sigma[inside],
                                        tau_starts=(0.1, 0.5, 1.0, 2.0, 4.0, 8.0), tol=1e-15)
            resid = (fit.sigma_ss_fit - (fit.sigma_ss_fit - fit.sigma_init)
                     * np.exp(-(t - FIT_WINDOW[0]) / fit.tau) - y)
            assert fit.tau == pytest.approx(tau, rel=1e-6)
            assert np.sum(resid ** 2) <= cost * (1 + 1e-12)


class TestBoxSolve:
    """The 2x2 bounded least-squares solve of the endpoint levels against
    scipy's lsq_linear on the same problems: for H = A^T A and g = A^T b,
    x.H x / 2 - g.x is ||A x - b||^2 / 2 up to a constant."""

    @staticmethod
    def _problems(rng, n):
        # columns from nearly parallel (cond(A) ~ 1e8) to well apart
        u = rng.normal(size=(n, 40))
        v = u + 10.0 ** rng.uniform(-8, 1, size=(n, 1)) * rng.normal(size=(n, 40))
        a = np.stack([u, v], axis=2) * np.exp(rng.normal(size=(n, 1, 2)))
        rhs = rng.normal(size=(n, 40)) + np.einsum('nti,ni->nt', a, rng.normal(size=(n, 2)))
        centre = rng.normal(size=(n, 2))
        half = 10.0 ** rng.uniform(-2, 1, size=(n, 2))
        return a, rhs, centre - half, centre + half

    @staticmethod
    def _packed(a, rhs):
        h = np.einsum('nti,ntj->ijn', a, a)
        return np.stack([h[0, 0], h[1, 1], h[0, 1]]), np.einsum('nti,nt->in', a, rhs)

    def test_agrees_with_lsq_linear(self):
        from scipy.optimize import lsq_linear
        rng = np.random.default_rng(12)
        a, rhs, lo, hi = self._problems(rng, 400)
        h, g = self._packed(a, rhs)
        x = _box_solve2(h, g, np.stack([lo.T, hi.T])).T
        assert np.all((x >= lo) & (x <= hi))
        for i in range(len(x)):
            ref = lsq_linear(a[i], rhs[i], bounds=(lo[i], hi[i]), tol=1e-15,
                             lsmr_tol=1e-15).x
            cost = np.sum((a[i] @ x[i] - rhs[i]) ** 2)
            cost_ref = np.sum((a[i] @ ref - rhs[i]) ** 2)
            assert cost <= cost_ref * (1 + 1e-9) + 1e-12 * np.sum(rhs[i] ** 2)
            if np.linalg.cond(a[i]) < 1e3:
                assert np.abs(x[i] - ref).max() <= 1e-7 * (hi[i] - lo[i]).max()

    def test_singular_or_nonfinite_row_solved_alone(self):
        rng = np.random.default_rng(13)
        a, rhs, lo, hi = self._problems(rng, 6)
        h, g = self._packed(a, rhs)
        box = np.stack([lo.T, hi.T])
        alone = [_box_solve2(h[:, i:i + 1], g[:, i:i + 1], box[..., i:i + 1]) for i in range(6)]
        h[:, 1] = 1.0           # rank 1: the determinant is exactly 0
        h[0, 3] = np.nan        # a matrix that is not finite
        g[1, 5] = np.inf        # a right-hand side that is not finite
        x = _box_solve2(h, g, box)
        assert np.all(np.isfinite(x))
        assert np.all((x >= lo.T) & (x <= hi.T))
        for i in (0, 2, 4):
            assert np.array_equal(x[:, i:i + 1], alone[i])


class TestSynthesizeCounts:
    def test_large_cycle_limit_recovers_truth(self):
        t = np.linspace(0, 8, 53)
        truth = make_trace(t, exponential_truth(t, 0.5))
        noisy = synthesize_counts(truth, cycles=100_000_000, photons_per_pulse=30,
                                  seed=1)
        rec = optical_depth_trace(noisy)
        inside = (rec.t_points >= 1) & (rec.t_points <= 8)
        assert np.max(np.abs(rec.sigma[inside]
                             - np.interp(rec.t_points[inside], t, truth.sigma))) < 1e-3

    def test_zero_depth_channels_statistically_identical(self):
        t = np.linspace(0, 8, 53)
        truth = make_trace(t, np.zeros_like(t))
        noisy = synthesize_counts(truth, cycles=10_000, photons_per_pulse=30, seed=2)
        n_in = noisy.intensity_input * 10_000
        n_out = noisy.intensity_output * 10_000
        # two-sample z-test on total counts
        z = (n_in.sum() - n_out.sum()) / np.sqrt(n_in.sum() + n_out.sum())
        assert abs(z) < 4.0

    def test_per_bin_uncertainty_matches_poisson_formula(self):
        # 4 ns bins, 1e5 cycles, 30 photons per pulse, sigma_ss = 0.1
        bin_width = 4.0 / 26.2
        t = np.linspace(0, 8, 500)
        truth = make_trace(t, exponential_truth(t, 0.1))
        noisy = synthesize_counts(truth, cycles=100_000, photons_per_pulse=30,
                                  seed=3, bin_width=bin_width)
        rec = optical_depth_trace(noisy)
        n_bins = len(noisy.t_points)
        lam_in = 100_000 * 30.0 / n_bins
        sig_c = np.interp(noisy.t_points, t, truth.sigma)
        expected = np.sqrt(1.0 / lam_in + 1.0 / (lam_in * np.exp(-sig_c)))
        assert np.all(np.abs(rec.u_sigma - expected) / expected < 0.10)

    def test_deterministic_given_seed(self):
        t = np.linspace(0, 8, 53)
        truth = make_trace(t, exponential_truth(t, 0.2))
        a = synthesize_counts(truth, cycles=1000, photons_per_pulse=30, seed=9)
        b = synthesize_counts(truth, cycles=1000, photons_per_pulse=30, seed=9)
        assert np.array_equal(a.intensity_input, b.intensity_input)
        assert np.array_equal(a.intensity_output, b.intensity_output)

    def test_input_validation(self):
        t = np.linspace(0, 8, 53)
        truth = make_trace(t, exponential_truth(t))
        with pytest.raises(DomainError):
            synthesize_counts(truth, cycles=0, photons_per_pulse=30, seed=0)
        with pytest.raises(DomainError):
            synthesize_counts(truth, cycles=10, photons_per_pulse=0.0, seed=0)


class TestMonteCarloUncertainty:
    def _noisy_trace(self, seed=0, u_scale=1.0):
        t = np.linspace(0, 8, 105)
        truth = exponential_truth(t, 0.1)
        u = np.full_like(t, 0.006 * u_scale)
        rng = np.random.default_rng(seed)
        return make_trace(t, truth + rng.normal(size=len(t)) * u, u)

    @pytest.mark.parametrize("resamples", [1, 0, -3])
    def test_too_few_resamples_rejected(self, resamples):
        with pytest.raises(DomainError):
            monte_carlo_uncertainty(self._noisy_trace(), resamples=resamples)

    def test_zero_uncertainty_returns_zero(self):
        t = np.linspace(0, 8, 105)
        trace = make_trace(t, exponential_truth(t))
        assert monte_carlo_uncertainty(trace, resamples=100, seed=0) == 0.0

    def test_uncertainties_outside_the_window_do_not_refit(self, monkeypatch):
        # zero u_sigma on the fit window [1, 8], positive only beyond it: the
        # window carries no noise, so the result is exactly 0 with no refit
        t = np.linspace(0, 9, 120)
        u = np.where(t > FIT_WINDOW[1], 0.006, 0.0)
        trace = make_trace(t, exponential_truth(t), u)

        def no_refit(*args, **kwargs):
            raise AssertionError("refitted a window without uncertainties")

        monkeypatch.setattr(analysis, "_fit_batch", no_refit)
        assert monte_carlo_uncertainty(trace, resamples=10_000, seed=0) == 0.0

    def test_reproducible_to_three_figures(self):
        trace = self._noisy_trace()
        a = monte_carlo_uncertainty(trace, resamples=10_000, seed=5)
        b = monte_carlo_uncertainty(trace, resamples=10_000, seed=5)
        assert a == b  # fully deterministic, not merely 3 significant figures

    def test_resamples_are_rows_of_one_stream(self):
        # resample i perturbs the trace with row i of one standard-normal
        # draw from default_rng(seed), and re-derives its estimates exactly
        # as a fresh fit would; a shorter run uses the first rows of a longer one
        trace = self._noisy_trace(seed=2)
        inside = (trace.t_points >= FIT_WINDOW[0]) & (trace.t_points <= FIT_WINDOW[1])
        t, y, u = trace.t_points[inside], trace.sigma[inside], trace.u_sigma[inside]
        for resamples in (200, 100):
            noise = np.random.default_rng(9).standard_normal((resamples, len(t)))
            taus = [fit_rise_time(make_trace(t, y + row * u, u)).tau for row in noise]
            assert monte_carlo_uncertainty(trace, resamples=resamples, seed=9) == \
                pytest.approx(np.std(taus, ddof=1), rel=1e-12)

    @pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)])
    def test_blocks_match_one_draw(self, blocks, extra):
        # drawn and refitted MC_BLOCK rows at a time, the resamples are the
        # rows of one (R, T) draw from the seed, fitted in one batch
        resamples = blocks * analysis.MC_BLOCK + extra
        trace = self._noisy_trace(seed=5)
        inside = (trace.t_points >= FIT_WINDOW[0]) & (trace.t_points <= FIT_WINDOW[1])
        t, y, u = trace.t_points[inside], trace.sigma[inside], trace.u_sigma[inside]
        noise = np.random.default_rng(13).standard_normal((resamples, len(t)))
        p, cost, _, ok = _fit_rows(t, noise * u + y, u)[:4]
        ok &= np.isfinite(cost) & np.all(np.isfinite(p), axis=1)
        assert monte_carlo_uncertainty(trace, resamples=resamples, seed=13) == \
            np.std(p[ok, 2], ddof=1)

    def test_peak_memory_stops_growing_with_resamples(self):
        # past one block, each further resample holds only its tau
        trace = self._noisy_trace(seed=6)
        peaks = {}
        for resamples in (10_000, 40_000):
            tracemalloc.start()
            try:
                monte_carlo_uncertainty(trace, resamples=resamples, seed=1)
                peaks[resamples] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peaks[resamples] < analysis.monte_carlo_peak_bytes(trace, resamples)
        assert peaks[40_000] - peaks[10_000] <= 2**20 + 9 * 30_000

    def test_mixed_zero_and_positive_uncertainties_rejected(self):
        # one exact point inside the window leaves no chi^2 to minimize:
        # the direct fit and the refits both refuse the trace
        noisy = self._noisy_trace(seed=2)
        one_zero = noisy.u_sigma.copy()
        one_zero[50] = 0.0
        trace = make_trace(noisy.t_points, noisy.sigma, one_zero)
        with pytest.raises(DomainError, match="mixes zero and positive"):
            fit_rise_time(trace)
        with pytest.raises(DomainError, match="mixes zero and positive"):
            monte_carlo_uncertainty(trace, resamples=200, seed=9)

    def test_doubling_uncertainties_roughly_doubles_tau_error(self):
        a = monte_carlo_uncertainty(self._noisy_trace(u_scale=1.0),
                                    resamples=3000, seed=2)
        b = monte_carlo_uncertainty(self._noisy_trace(u_scale=2.0),
                                    resamples=3000, seed=2)
        assert b / a == pytest.approx(2.0, rel=0.35)

    def test_mc_mean_consistent_with_direct_fit(self):
        trace = self._noisy_trace(seed=3)
        fit = fit_with_uncertainty(trace, resamples=4000, seed=7)
        assert fit.tau_uncertainty is not None and fit.tau_uncertainty > 0
        assert abs(fit.tau - 2.0) < 3.0 * fit.tau_uncertainty

    @pytest.mark.parametrize("case", ["shared", "per_row", "non_finite", "leave_together",
                                      "last_slot_first", "max_iterations"])
    def test_batch_rows_match_single_row_fits(self, case, monkeypatch):
        # MC-style perturbations converge after different numbers of
        # iterations; the rows that leave hand their slots to rows from the
        # tail, and every row must come out exactly as it does when fitted
        # alone: with per-row weights (swapped with their rows), with rows
        # that are not finite (which leave before iterating), with rows that
        # all leave together, with the last slot leaving first, and at an
        # exit on MAX_ITERATIONS
        trace = self._noisy_trace(seed=1)
        inside = (trace.t_points >= FIT_WINDOW[0]) & (trace.t_points <= FIT_WINDOW[1])
        t, y, u = trace.t_points[inside], trace.sigma[inside], trace.u_sigma[inside]
        n = 200
        pert = y + np.random.default_rng(11).normal(size=(n, len(t))) * u
        if case == "per_row":
            u = u * np.random.default_rng(12).uniform(0.5, 2.0, size=(n, 1))
        elif case == "non_finite":
            pert[[0, 77, n - 1], [3, 0, -1]] = [np.nan, np.inf, -np.inf]
        elif case == "leave_together":
            pert = np.repeat(pert[:1], 5, axis=0)
        elif case == "last_slot_first":
            alone = _fit_rows(t, pert, u)[2]
            pert = pert[[*np.flatnonzero(alone == alone.max())[:3], np.argmin(alone)]]
        elif case == "max_iterations":
            monkeypatch.setattr(analysis, "MAX_ITERATIONS", 6)
        p, cost, iters, ok = _fit_rows(t, pert, u)[:4]
        if case == "leave_together":
            assert (iters == iters[0]).all()
        elif case == "last_slot_first":
            assert iters[-1] < iters[:-1].min()
        else:
            assert iters.min() < iters.max()
        if case == "max_iterations":
            assert ok.any() and not ok.all()
        for i in range(len(pert)):
            row = _fit_rows(t, pert[i:i + 1], u if u.ndim == 1 else u[i:i + 1])[:4]
            for one, batch in zip(row, (p, cost, iters, ok)):
                assert np.array_equal(one[0], batch[i], equal_nan=True)

    def test_refit_estimates_are_the_1d_estimates_of_each_row(self, monkeypatch):
        # the steady-state estimate of every refit, its slack boxes and its
        # start are those a direct fit derives from that perturbed row alone:
        # the 1-D np.mean of the row's tail, bit for bit.  A mean taken
        # straight from the column gather of an (R, T) stack sums in another
        # order and differs in the last bits for a fifth of these rows.
        captured = []

        def capture(t, y, w, p0, lo, hi, **kwargs):
            captured.append((y.copy(), p0, lo, hi))
            n = len(p0)
            return p0.copy(), np.zeros(n), np.zeros(n, dtype=int), np.ones(n, dtype=bool)

        trace = self._noisy_trace(seed=8)
        monkeypatch.setattr(analysis, "_fit_batch", capture)
        monte_carlo_uncertainty(trace, resamples=2000, seed=3)
        inside = (trace.t_points >= FIT_WINDOW[0]) & (trace.t_points <= FIT_WINDOW[1])
        t = trace.t_points[inside]
        # the same check on an F-ordered stack gathered column by column
        rng = np.random.default_rng(4)
        gathered = rng.standard_normal((2000, 3 * len(t)))[:, rng.permutation(3 * len(t))[:len(t)]]
        assert not gathered.flags.c_contiguous
        _fit_rows(t, gathered, np.zeros(len(t)))
        tail = t >= FIT_WINDOW[1] - (FIT_WINDOW[1] - FIT_WINDOW[0]) * TAIL_FRACTION
        for y, p0, lo, hi in captured:
            sss = np.array([np.mean(row[tail]) for row in y])
            assert np.array_equal(p0[:, 0], sss)
            assert np.array_equal(p0[:, 1], y[:, 0])
            assert (p0[:, 2] == TAU_INITIAL).all()
            lo_ref, hi_ref = _boxes(sss, y[:, 0], len(y))
            assert np.array_equal(lo, lo_ref) and np.array_equal(hi, hi_ref)

    def test_failure_fraction_guard(self):
        t = np.linspace(0, 8, 105)
        sigma = np.full_like(t, np.inf)
        trace = make_trace(t, sigma, np.ones_like(t))
        with pytest.raises((FitError, DegenerateTraceError)):
            fit_rise_time(trace)
        # the non-finite rows are failed before any iteration, so no NaN
        # arithmetic runs and no RuntimeWarning is emitted
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FitError):
                monte_carlo_uncertainty(trace, resamples=200)
