"""Trace analysis: optical-depth extraction, exponential rise-time fitting
with endpoint slack, Poisson-count synthesis, and Monte-Carlo uncertainty.

The fit model over the window [tau_a, 8 tau_a] is

    sigma(t) = s_ss - (s_ss - s_init) * exp(-(t - t0)/tau),   t0 = tau_a,

with s_init and s_ss box-constrained to +-5% of their estimates (the
initial and steady-state optical depths are only known to that level) and
tau bounded to [tau_a/10, 20 tau_a].  The optimizer is a damped
least-squares (Levenberg-Marquardt) iteration started at tau = 2 tau_a,
implemented batched.  Every fit goes through one core, which derives the
estimates, boxes and start of each row: fit_rise_times fits a stack of
traces (a sweep point's realizations) in one pass, and the thousands of
Monte-Carlo refits run as one more.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import DomainError
from .maxwell_bloch import TransmissionTrace

FIT_WINDOW = (1.0, 8.0)          # tau_a units
ENDPOINT_SLACK = 0.05
TAU_BOUNDS = (0.1, 20.0)
TAU_INITIAL = 2.0
MAX_ITERATIONS = 200
TAIL_FRACTION = 0.125            # trailing part of the window used for the
                                 # steady-state estimate
MAX_FAILURE_FRACTION = 0.01      # Monte-Carlo refits allowed to fail
#: (resamples, window points) float64 arrays alive at once at the peak of a
#: Monte-Carlo refit: the perturbed rows, the fit's residual, exponential,
#: trial and Jacobian rows, and the copies made when converged rows are
#: dropped.  tracemalloc measures 12.4 to 12.7 at 10^4 to 4 x 10^4 resamples
MC_LIVE_ROW_ARRAYS = 13


class FitError(RuntimeError):
    """Fit did not converge; carries the last residual vector."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class DegenerateTraceError(ValueError):
    """Transmission vanished (or worse) inside the analysis window."""


@dataclass(frozen=True)
class OpticalDepthTrace:
    """sigma(t) = ln(I_in/I_out) with per-point uncertainties (0 if noiseless)."""

    t_points: np.ndarray
    sigma: np.ndarray
    u_sigma: np.ndarray


@dataclass(frozen=True)
class RiseTimeFit:
    """Best-fit exponential rise parameters over the standard window."""

    tau: float
    sigma_init: float
    sigma_ss_fit: float
    fit_window: tuple[float, float]
    residual_rms: float
    reduced_chi_squared: float
    tau_uncertainty: float | None = None
    n_iterations: int = 0
    bound_saturated: bool = False


def optical_depth_trace(trace: TransmissionTrace,
                        window: tuple[float, float] = FIT_WINDOW) -> OpticalDepthTrace:
    """Pointwise sigma(t) = ln(I_input/I_output) with Poisson-style propagation.

    Defined only where both intensities are positive; a non-positive output
    anywhere inside the analysis window is a degenerate trace.
    """
    t = np.asarray(trace.t_points, dtype=float)
    i_in = np.asarray(trace.intensity_input, dtype=float)
    i_out = np.asarray(trace.intensity_output, dtype=float)
    in_window = (t >= window[0]) & (t <= window[1])
    bad = (i_out <= 0) | (i_in <= 0)
    if np.any(bad & in_window):
        raise DegenerateTraceError("non-positive intensity inside the fit window")
    valid = ~bad
    sigma = np.full_like(i_in, np.nan)
    sigma[valid] = np.log(i_in[valid] / i_out[valid])
    u = np.zeros_like(sigma)
    if trace.u_input is not None or trace.u_output is not None:
        u_in = np.zeros_like(i_in) if trace.u_input is None else np.asarray(trace.u_input)
        u_out = np.zeros_like(i_out) if trace.u_output is None else np.asarray(trace.u_output)
        u[valid] = np.sqrt((u_in[valid] / i_in[valid]) ** 2
                           + (u_out[valid] / i_out[valid]) ** 2)
    return OpticalDepthTrace(t_points=t, sigma=sigma, u_sigma=u)


def trace_from_dipole(dipole, sigma_ss: float) -> OpticalDepthTrace:
    """Raise a collective-model dipole trace to sigma(t) = sigma_ss * P_norm(t).

    In the linear regime the absorbed power tracks the established dipole,
    which makes the collective and propagation models' rise-times directly
    comparable.
    """
    if sigma_ss < 0:
        raise DomainError("sigma_ss must be >= 0")
    return OpticalDepthTrace(t_points=np.asarray(dipole.t_points, dtype=float),
                             sigma=sigma_ss * np.asarray(dipole.p_normalized, dtype=float),
                             u_sigma=np.zeros_like(dipole.p_normalized, dtype=float))


# ----------------------------------------------------------------------
# batched damped least squares

#: a stack of symmetric 3x3 matrices is held entry-major, as the rows
#: (a00, a11, a22, a01, a12, a02) of a (6, B) array; _SYM_FULL unpacks the
#: entries row-major
_SYM_I = np.array([0, 1, 2, 0, 1, 0])
_SYM_J = np.array([0, 1, 2, 1, 2, 2])
_SYM_FULL = np.array([0, 3, 5, 3, 1, 4, 5, 4, 2])
#: packed cofactor k is a[_COF[0, k]] * a[_COF[1, k]] - a[_COF[2, k]] * a[_COF[3, k]]
_COF = np.array([[1, 0, 0, 5, 3, 3], [2, 2, 1, 4, 5, 4],
                 [4, 5, 3, 3, 0, 5], [4, 5, 3, 2, 4, 1]])


def _solve_sym3(a, b):
    """Solve a stack of symmetric 3x3 systems a x = b by cofactors.

    a: (6, B), packed as above;  b: (3, B);  returns x: (3, B).  A system
    whose determinant is zero or not finite gets x = 0; every other one is
    solved on its own.
    """
    f = a[_COF]
    cof = f[0] * f[1] - f[2] * f[3]
    det = a[0] * cof[0] + a[3] * cof[3] + a[5] * cof[5]
    adj = cof[_SYM_FULL].reshape(3, 3, -1)
    num = adj[:, 0] * b[0] + adj[:, 1] * b[1] + adj[:, 2] * b[2]
    solvable = np.isfinite(det) & (det != 0)
    return np.divide(num, det, out=np.zeros_like(num), where=solvable)


def _lm_batch(t, y, w, p0, lo, hi, max_iter=MAX_ITERATIONS, t0=FIT_WINDOW[0]):
    """Projected Levenberg-Marquardt over a batch of traces.

    t: (T,);  y, w: (B, T);  p0, lo, hi: (B, 3) for (s_ss, s_init, tau).
    Returns (params, cost, iterations, converged_mask).  A row with a
    non-finite starting cost is returned unconverged after 0 iterations.

    A row that converges is frozen and dropped from every later iteration,
    so an iteration costs only as much as the rows still moving.  Every
    per-row computation is row-local, the 3x3 solve included (a singular
    system zeroes its own row's step), so a row's result does not depend on
    which other rows share its batch.  When all rows share one weight row
    (w a stride-0 broadcast, as in the Monte-Carlo refits), it stays one
    (T,) row.
    """
    b = len(y)
    dt = t - t0
    neg_dt = -dt
    shared = w.strides[0] == 0
    if shared:
        w = w[0]

    def residuals(p, y, w):
        e = np.divide(neg_dt, p[:, 2:3])
        np.exp(e, out=e)
        r = e * (p[:, 0:1] - p[:, 1:2])
        np.subtract(p[:, 0:1], r, out=r)
        r -= y
        r *= w
        return r, e

    p = np.clip(p0, lo, hi)
    with np.errstate(invalid="ignore", over="ignore"):
        r, e = residuals(p, y, w)
        cost = np.einsum('bt,bt->b', r, r)
    converged = np.zeros(b, dtype=bool)
    iterations = np.zeros(b, dtype=int)
    # working set: the unconverged rows (original indices in `rows`) and
    # their state, compacted whenever some of them converge
    rows = np.arange(b)
    p_a, y_a, w_a, lo_a, hi_a, cost_a = p, y, w, lo, hi, cost
    # a row whose data or start gives a non-finite cost cannot be fitted:
    # it leaves the working set at once, not converged
    finite = np.isfinite(cost)
    if not finite.all():
        rows, p_a, y_a, lo_a, hi_a, r, e, cost_a = (
            x[finite] for x in (rows, p_a, y_a, lo_a, hi_a, r, e, cost_a))
        if not shared:
            w_a = w_a[finite]
    lam = np.full(rows.size, 1e-3)
    history = np.empty((rows.size, 20))   # cost 20 iterations ago, per row
    # the Jacobian columns d r/d s_ss, d r/d s_init and d r/d tau, each one
    # contiguous (rows, T) block; the working set only shrinks, so the
    # first rows of one buffer hold every iteration's
    jac_buf = np.empty((3, rows.size, len(t)))
    for it in range(max_iter):
        if rows.size == 0:
            break
        # d r/d tau is stored without its per-row factor
        # c = -(s_ss - s_init)/tau^2, which is applied to the row sums; the
        # normal equations are 6 + 3 row dot products of the columns
        jac = jac_buf[:, :rows.size]
        j1 = np.multiply(e, w_a, out=jac[1])
        np.subtract(w_a, j1, out=jac[0])
        np.multiply(j1, dt, out=jac[2])
        jtj = np.empty((6, rows.size))
        np.vecdot(jac, jac, out=jtj[0:3])
        np.vecdot(jac[0:2], jac[1:3], out=jtj[3:5])
        np.vecdot(jac[0], jac[2], out=jtj[5])
        g = np.vecdot(jac, r)
        c = (p_a[:, 1] - p_a[:, 0]) / p_a[:, 2] ** 2
        g[2] *= c
        # active-set reduction: a parameter pinned at a bound with its descent
        # direction pointing outward is dropped from the solve, otherwise the
        # clipped step crawls along the box face
        scale = np.maximum(np.abs(p_a), 1e-12).T
        p_t = p_a.T
        pinned = ((((p_t - lo_a.T) <= 1e-12 * scale) & (g > 0)) |
                  (((hi_a.T - p_t) <= 1e-12 * scale) & (g < 0)))
        free = ~pinned
        g = g * free
        # entry (i, j) scales by m_i m_j: by c once per tau column, and to 0
        # where a parameter is pinned, whose diagonal becomes 1
        m = free * 1.0
        m[2] *= c
        jtj *= m[_SYM_I] * m[_SYM_J]
        diag = jtj[0:3] + pinned
        np.add(diag, lam * np.maximum(diag, 1e-12), out=jtj[0:3])
        p_new = np.clip(p_a + _solve_sym3(jtj, -g).T, lo_a, hi_a)
        r_new, e_new = residuals(p_new, y_a, w_a)
        cost_new = np.einsum('bt,bt->b', r_new, r_new)
        better = cost_new <= cost_a
        rel_drop = (cost_a - cost_new) / np.maximum(cost_a, 1e-300)
        small_step = (np.abs(p_new.T - p_t) / scale).max(axis=0) < 1e-5
        # the trial state becomes the state; a row that got worse takes
        # its previous state back
        worse = ~better
        if worse.any():
            for new, old in ((p_new, p_a), (r_new, r), (e_new, e), (cost_new, cost_a)):
                new[worse] = old[worse]
        p_a, r, e, cost_a = p_new, r_new, e_new, cost_new
        lam = np.where(better, lam / 3.0, lam * 10.0)
        # quadratic convergence on clean data makes the step criterion safe
        # (remaining error is O(step^2)); the 20-iteration window ends the
        # slow zigzag crawl along the flat tau valley that strongly
        # non-exponential traces produce
        newly = (better & ((rel_drop < 1e-9) | small_step)) | (lam > 1e10)
        slot = it % 20
        if it >= 20:     # the window is full: stalled rows stop too
            past = history[:, slot]
            newly |= (past - cost_a) < 1e-5 * np.maximum(past, 1e-300)
        history[:, slot] = cost_a
        if newly.any():
            done = rows[newly]
            p[done] = p_a[newly]
            cost[done] = cost_a[newly]
            iterations[done] = it + 1
            converged[done] = True
            keep = ~newly
            rows, p_a, y_a, lo_a, hi_a, r, e, cost_a, lam, history = (
                x[keep] for x in (rows, p_a, y_a, lo_a, hi_a, r, e, cost_a, lam, history))
            if not shared:
                w_a = w_a[keep]
    # rows still iterating ran every iteration
    p[rows] = p_a
    cost[rows] = cost_a
    iterations[rows] = max_iter
    return p, cost, iterations, converged


def _boxes(sss_est, sini_est, b):
    lo = np.empty((b, 3))
    hi = np.empty((b, 3))
    for j, est in enumerate([sss_est, sini_est]):
        a1 = est * (1.0 - ENDPOINT_SLACK)
        a2 = est * (1.0 + ENDPOINT_SLACK)
        lo[:, j] = np.minimum(a1, a2)
        hi[:, j] = np.maximum(a1, a2)
    lo[:, 2], hi[:, 2] = TAU_BOUNDS
    return lo, hi


def _fit_weights(u: np.ndarray) -> np.ndarray:
    """Per row (last axis): 1/u where every uncertainty is positive, unit
    weights where all are zero.

    A row that mixes zero and positive uncertainties has no chi^2 to
    minimize, so it raises DomainError.
    """
    positive = u > 0
    weighted = positive.all(axis=-1, keepdims=True)
    if np.any(positive & ~weighted):
        raise DomainError("the fit window mixes zero and positive uncertainties")
    return np.where(weighted, 1.0 / np.where(weighted, u, 1.0), 1.0)


def _fit_rows(t, y, u, window, sigma_ss_estimate=None):
    """Fit every row of y (B, T) on the window samples t (T,), weighted by
    u, (T,) or (B, T).  The tail mean is taken from a C-contiguous copy, so
    each row's estimate is bitwise the 1-D ``np.mean`` of its tail.
    Returns _lm_batch's (params, cost, iterations, converged) and the weights.
    """
    if t.size < 10:
        raise DomainError("need at least 10 samples inside the fit window")
    w = np.broadcast_to(_fit_weights(u), y.shape)
    tail = t >= window[1] - (window[1] - window[0]) * TAIL_FRACTION
    b = len(y)
    sss_est = (np.ascontiguousarray(y[:, tail]).mean(axis=1) if sigma_ss_estimate is None
               else np.full(b, float(sigma_ss_estimate)))
    lo, hi = _boxes(sss_est, y[:, 0], b)
    p0 = np.stack([sss_est, y[:, 0], np.full(b, TAU_INITIAL)], axis=1)
    return _lm_batch(t, y, w, p0, lo, hi, t0=window[0]) + (w,)


def fit_rise_times(traces, window: tuple[float, float] = FIT_WINDOW,
                   sigma_ss_estimate: float | None = None) -> list[RiseTimeFit]:
    """Weighted exponential-rise fits of traces on one time grid, in one batch.

    Each trace is fitted as it would be alone.  Its steady-state estimate
    is the mean over the trailing eighth of the window, its initial
    estimate the first window sample.  The squared residuals are weighted
    by 1/u_sigma^2 when every uncertainty in the trace's window is
    positive; a window of zero uncertainties (a model trace) is fitted with
    unit weights, and one that mixes zero and positive uncertainties raises
    DomainError.  FitError is raised for the first trace that does not converge.
    """
    t = np.asarray(traces[0].t_points, dtype=float)
    if any(not np.array_equal(tr.t_points, t) for tr in traces[1:]):
        raise DomainError("fit_rise_times needs traces on one time grid")
    mask = (t >= window[0]) & (t <= window[1])
    tw = t[mask]
    yw = np.stack([np.asarray(tr.sigma, dtype=float)[mask] for tr in traces])
    if np.any(~np.isfinite(yw)):
        raise DegenerateTraceError("undefined sigma inside the fit window")
    uw = np.stack([np.asarray(tr.u_sigma, dtype=float)[mask] for tr in traces])
    p, cost, iters, ok, w = _fit_rows(tw, yw, uw, window, sigma_ss_estimate)
    if not np.all(ok):
        i = int(np.argmin(ok))
        raise FitError(f"no convergence after {MAX_ITERATIONS} iterations",
                       residuals=(p[i], cost[i]))
    s_ss, s_init, tau = p[:, 0:1], p[:, 1:2], p[:, 2:3]
    resid = s_ss - (s_ss - s_init) * np.exp(-(tw - window[0]) / tau) - yw
    chi2 = np.sum((resid * w) ** 2, axis=1) / max(len(tw) - 3, 1)
    rms = np.sqrt(np.mean(resid ** 2, axis=1))
    saturated = (tau <= TAU_BOUNDS[0] * (1 + 1e-9)) | (tau >= TAU_BOUNDS[1] * (1 - 1e-9))
    return [RiseTimeFit(tau=float(p[i, 2]), sigma_init=float(p[i, 1]),
                        sigma_ss_fit=float(p[i, 0]), fit_window=window,
                        residual_rms=float(rms[i]), reduced_chi_squared=float(chi2[i]),
                        n_iterations=int(iters[i]), bound_saturated=bool(saturated[i, 0]))
            for i in range(len(p))]


def fit_rise_time(trace: OpticalDepthTrace, sigma_ss_estimate: float | None = None,
                  window: tuple[float, float] = FIT_WINDOW) -> RiseTimeFit:
    """fit_rise_times of this one trace."""
    return fit_rise_times([trace], window=window, sigma_ss_estimate=sigma_ss_estimate)[0]


def synthesize_counts(truth: OpticalDepthTrace, cycles: int, photons_per_pulse: float,
                      seed: int, bin_width: float | None = None) -> TransmissionTrace:
    """Poisson photon-count transmission data consistent with a truth sigma(t).

    Each detector bin accumulates, over all cycles, Poisson counts with mean
    cycles * photons_per_pulse * (bin/t_span) on the input channel and the
    Beer-Lambert-attenuated mean on the output channel.  Counts are reported
    per cycle with sqrt(N) uncertainties.  When bin_width (tau_a units) is
    given, the truth is resampled onto bin centers; the default keeps the
    truth's own grid.
    """
    if cycles < 1:
        raise DomainError("cycles must be >= 1")
    if photons_per_pulse <= 0:
        raise DomainError("photons_per_pulse must be > 0")
    t = np.asarray(truth.t_points, dtype=float)
    sig = np.asarray(truth.sigma, dtype=float)
    if bin_width is not None:
        t_span = t[-1] - t[0]
        n_bins = int(t_span / bin_width)
        centers = t[0] + (np.arange(n_bins) + 0.5) * bin_width
        sig = np.interp(centers, t, sig)
        t = centers
        width = bin_width
    else:
        width = t[1] - t[0]
    t_span = t[-1] - t[0] + width
    mean_in = cycles * photons_per_pulse * (width / t_span)
    rng = np.random.default_rng(seed)
    counts_in = rng.poisson(mean_in, size=len(t)).astype(float)
    counts_out = rng.poisson(mean_in * np.exp(-sig), size=len(t)).astype(float)
    return TransmissionTrace(
        t_points=t,
        intensity_input=counts_in / cycles,
        intensity_output=counts_out / cycles,
        u_input=np.sqrt(np.maximum(counts_in, 1.0)) / cycles,
        u_output=np.sqrt(np.maximum(counts_out, 1.0)) / cycles,
    )


def monte_carlo_uncertainty(trace: OpticalDepthTrace, resamples: int = 10_000,
                            seed: int = 0,
                            window: tuple[float, float] = FIT_WINDOW) -> float:
    """Std of refitted tau over Gaussian perturbations of each trace point.

    All noise comes from one stream: resample i adds row i of
    ``np.random.default_rng(seed).standard_normal((resamples, T))``, scaled
    by u_sigma, to the T window points, so the first R rows of a longer run
    are the R-resample run.  The perturbed rows go through the same fit
    core as fit_rise_times, weighted by the trace's own u_sigma, so each
    refit's estimates, boxes and start are those of a direct fit of that
    row.  Returns the standard deviation of the tau sample.  A trace with
    no positive uncertainty inside the window returns exactly 0 without
    refitting, whatever the uncertainties outside it.
    A refit that does not converge, or ends with a non-finite cost or
    parameter, counts as failed; more than MAX_FAILURE_FRACTION failures
    raise FitError.  Fewer than 2 resamples raise DomainError, since they
    give no standard deviation, and so do a window of fewer than 10
    samples and one that mixes zero and positive uncertainties, as in
    fit_rise_times.
    """
    if resamples < 2:
        raise DomainError("need at least 2 resamples for a standard deviation")
    t = np.asarray(trace.t_points, dtype=float)
    mask = (t >= window[0]) & (t <= window[1])
    uw = np.asarray(trace.u_sigma, dtype=float)[mask]
    if not np.any(uw > 0):
        return 0.0
    pert = np.random.default_rng(seed).standard_normal((resamples, len(uw)))
    pert *= uw
    pert += np.asarray(trace.sigma, dtype=float)[mask]
    p, cost, _, ok, _ = _fit_rows(t[mask], pert, uw, window)
    ok &= np.isfinite(cost) & np.all(np.isfinite(p), axis=1)
    failures = int(np.count_nonzero(~ok))
    if failures > MAX_FAILURE_FRACTION * resamples:
        raise FitError(f"{failures}/{resamples} resample fits failed; "
                       "uncertainty estimate unreliable")
    return float(np.std(p[ok, 2], ddof=1))


def monte_carlo_peak_bytes(trace: OpticalDepthTrace, resamples: int,
                           window: tuple[float, float] = FIT_WINDOW) -> int:
    """Estimated peak memory of monte_carlo_uncertainty on this trace,
    from the resample count and the number of window points alone."""
    t = np.asarray(trace.t_points, dtype=float)
    points = int(np.count_nonzero((t >= window[0]) & (t <= window[1])))
    return MC_LIVE_ROW_ARRAYS * 8 * resamples * points


def fit_with_uncertainty(trace: OpticalDepthTrace, resamples: int = 10_000,
                         seed: int = 0, **kwargs) -> RiseTimeFit:
    """Convenience composition: direct fit plus Monte-Carlo tau uncertainty.

    The refits use the direct fit's window, so a custom ``window`` applies
    to both.
    """
    fit = fit_rise_time(trace, **kwargs)
    return replace(fit, tau_uncertainty=monte_carlo_uncertainty(
        trace, resamples=resamples, seed=seed, window=fit.fit_window))
