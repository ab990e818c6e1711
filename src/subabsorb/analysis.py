"""Trace analysis: optical-depth extraction, exponential rise-time fitting
with endpoint slack, Poisson-count synthesis, and Monte-Carlo uncertainty.

The fit model over the window [tau_a, 8 tau_a] is

    sigma(t) = s_ss - (s_ss - s_init) * exp(-(t - t0)/tau),   t0 = tau_a,

with s_init and s_ss box-constrained to +-5% of their estimates (the
initial and steady-state optical depths are only known to that level) and
tau bounded to [tau_a/10, 20 tau_a].  The model is linear in s_ss and
s_init, so the fit runs in tau alone (variable projection): at each trial
tau the two levels are the exact weighted least-squares solution in their
boxes, and safeguarded Newton steps on that reduced cost move tau from its
start at 2 tau_a, batched over rows.  Every fit goes through one core,
which derives the estimates, boxes and start of each row: fit_rise_times
fits a stack of traces (every trace of a sweep) and the thousands of
Monte-Carlo refits run through it, both in blocks of MC_BLOCK rows.
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
#: (block rows, window points) float64 arrays alive at once at the peak of a
#: block of fitted rows: the rows, their y w^2, and the exponential and its
#: two products, whose rows also take the residuals of the rows that leave;
#: beside them, the rows moved into freed slots and a few dozen per-row
#: vectors.  tracemalloc measures 6.1 to 6.9 for blocks of MC_BLOCK
#: Monte-Carlo refits (92 and 45 window points, 10^4 and 4 x 10^4
#: resamples), and 6.7 to 6.8 for fit_rise_times on 1200 and 2048
#: collective traces (141 window points)
MC_LIVE_ROW_ARRAYS = 8
#: rows fitted together: Monte-Carlo resamples drawn and refitted at once,
#: and the traces of one fit_rise_times block (a sweep, or one z-grid batch
#: of one).  Every block pays for its own slowest rows, so a smaller block
#: runs slower; a larger one holds more memory
MC_BLOCK = 2048


class FitError(RuntimeError):
    """Fit did not converge; carries the last residual vector and, from
    fit_rise_times, the ``index`` of the first trace that failed."""

    def __init__(self, message, residuals=None, index=None):
        super().__init__(message)
        self.residuals = residuals
        self.index = index


class DegenerateTraceError(ValueError):
    """Transmission vanished (or worse) inside the analysis window; from
    fit_rise_times, ``index`` is the first trace that failed."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


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
    level_saturated: bool = False


def optical_depth_trace(trace: TransmissionTrace) -> OpticalDepthTrace:
    """Pointwise sigma(t) = ln(I_input/I_output) with Poisson-style propagation.

    Defined only where both intensities are positive; a non-positive output
    anywhere inside the fit window FIT_WINDOW is a degenerate trace.
    """
    t = np.asarray(trace.t_points, dtype=float)
    i_in = np.asarray(trace.intensity_input, dtype=float)
    i_out = np.asarray(trace.intensity_output, dtype=float)
    in_window = (t >= FIT_WINDOW[0]) & (t <= FIT_WINDOW[1])
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
# batched fit in tau, the endpoint levels solved exactly at each tau

def _box_solve2(h, g, box):
    """Minimize q(x) = x.H x / 2 - g.x over a box, row by row: h (3, B)
    holds (h00, h11, h01) of positive semi-definite 2x2 matrices H, g is
    (2, B), box (2, 2, B) the lower and upper bounds; returns x (2, B).
    The unconstrained minimum x* is the answer if it lies in the box, else
    the minimum lies on an edge that x* violates: the better of the two
    points that hold x_j at x*_j clipped and take the other coordinate's
    1-D minimum, clipped.  A singular H sends x* to infinity along its null
    vector, the way q falls; a row that is not finite gets a box point."""
    h00, h11, h01 = h
    lo, hi = box
    h_o, g_o, lo_o, hi_o = h[1::-1], g[::-1], lo[::-1], hi[::-1]
    # the held and free coordinates of both edge points, as rows (held_0,
    # free_0, free_1, held_1): the point that holds x_j is z[2j:2j + 2]
    z = np.empty((4, h.shape[1]))
    held, free = z[::3], z[1:3]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det = h00 * h11 - h01 * h01
        x = h_o * g - h01 * g_o
        x = np.divide(x, det, where=det > 0, out=x * np.inf)
        np.fmin(np.fmax(x, lo), hi, out=held)       # a NaN takes the lower bound
        inside = held == x
        inside = inside[0] & inside[1]
        slope = g_o - h01 * held
        # a flat or undefined 1-D minimum takes the bound its slope points to
        line_min = np.divide(slope, h_o, where=h_o > 0, out=np.where(slope > 0, hi_o, lo_o))
        np.fmin(np.fmax(line_min, lo_o), hi_o, out=free)
        q = held * (0.5 * h[:2] * held - g) + free * (0.5 * h_o * free - slope)
        return np.where(inside, x, np.where(q[1] < q[0], z[2:], z[:2]))


def _fit_batch(t, y, w, p0, lo, hi, t0):
    """Fit tau alone over a batch of traces (variable projection).

    t: (T,);  y, w: (B, T);  p0, lo, hi: (B, 3) for (s_ss, s_init, tau).
    Returns (params, cost, iterations, converged_mask), cost the weighted
    sum of squares at params; a row whose data or weights are not finite
    is returned unconverged, with a NaN cost, after 0 iterations.  The
    model s_ss (1 - e) + s_init e, e = exp(-(t - t0)/tau), is linear in its
    levels, which each iteration solves exactly in their boxes, then takes
    a Newton step on that reduced cost in tau: exact curvature over the
    free levels, or Gauss-Newton where that is not positive.  A bracket
    from the gradient's sign holds the step; one that leaves it bisects
    the bracket, or lands on the tau box where the bracket ends there.  A
    row converges at the iteration after a step below 1e-8 tau or at a
    zero step or gradient.  The rows still iterating hold the first n slots
    of buffers allocated once: a row that leaves writes its results, and an
    active row from beyond the new n moves into its slot, so each leave
    moves only as many rows as left.  Each per-row sum is a moment of e or
    e^2 against w^2 (t - t0)^k or of e y w^2 against (t - t0)^k, taken row
    by row with einsum, so no row depends on the rest of its batch or on
    its slot; weights shared by all rows (a stride-0 w) stay one (3, T)
    matrix of w^2 (t - t0)^k.
    """
    b, n_t = y.shape
    dt = t - t0
    neg_dt = -dt
    powers = np.stack([np.ones_like(dt), dt, dt * dt])
    shared = w.strides[0] == 0
    w2 = w[:1] ** 2 if shared else w ** 2
    wk = powers * w2[0] if shared else powers[:, None] * w2   # w^2 (t - t0)^k
    yw2 = y * w2
    p = np.clip(p0, lo, hi)
    # per-row state: tau, the bracket of its minimum, the tau box, sum w^2,
    # sum y w^2, the lower and the upper (s_ss, s_init)
    state = np.stack([p[:, 2], lo[:, 2], hi[:, 2], lo[:, 2], hi[:, 2],
                      np.broadcast_to(np.einsum('bt->b', w2), (b,)), np.einsum('bt->b', yw2),
                      lo[:, 0], lo[:, 1], hi[:, 0], hi[:, 1]])
    cost, converged, iterations = np.full(b, np.nan), np.zeros(b, bool), np.zeros(b, int)
    # the working set: the first n slots of state, yw2, rows, small and a
    # per-row wk
    rows = np.flatnonzero(np.isfinite(state[5]) & np.isfinite(state[6]))
    n = rows.size
    if n < b:
        state[:, :n], yw2[:n] = state[:, rows], yw2[rows]
        if not shared:
            wk[:, :n] = wk[:, rows]
    small = np.zeros(n, dtype=bool)      # the last step was below 1e-8 tau
    e_buf = np.empty((3, n, n_t))
    hg_buf = np.empty((5, n))            # h and g of _box_solve2
    u_buf = np.empty((2, 2, n))          # u0 and u1, both (exact; Gauss-Newton)
    x_buf = np.zeros((2, n))             # a term of the exact curvature; row 1 stays 0
    for it in range(MAX_ITERATIONS):
        if n == 0:
            break
        tau, lo_b, hi_b, lo_tau, hi_tau, s0, ysum = state[:7, :n]
        box = state[7:, :n].reshape(2, 2, n)
        e, e2, ye = e_buf[:, :n]
        np.divide(neg_dt, tau[:, None], out=e)
        np.exp(e, out=e)
        np.multiply(e, e, out=e2)
        np.multiply(e, yw2[:n], out=ye)
        if shared:
            a0, a1, a2 = np.einsum('bt,kt->kb', e, wk)
            b0, b1, b2 = np.einsum('bt,kt->kb', e2, wk)
        else:
            a0, a1, a2 = np.einsum('bt,kbt->kb', e, wk[:, :n])
            b0, b1, b2 = np.einsum('bt,kbt->kb', e2, wk[:, :n])
        y0, y1, y2 = np.einsum('bt,kt->kb', ye, powers)
        hg = hg_buf[:, :n]
        h, g = hg[:3], hg[3:]
        np.subtract(s0, 2.0 * a0, out=hg[0])
        hg[0] += b0
        hg[1] = b0
        np.subtract(a0, b0, out=hg[2])
        np.subtract(ysum, y0, out=hg[3])
        hg[4] = y0
        s_ss, s_init = levels = _box_solve2(h, g, box)
        c = s_init - s_ss
        cb1 = c * b1
        # sums of w^2 r e (t - t0)^k, k = 1, 2, r the unweighted residual
        r1 = s_ss * a1 + cb1 - y1
        r2 = s_ss * a2 + c * b2 - y2
        # gradient and curvature (exact; Gauss-Newton) times tau^2/2 and tau^4/2
        grad = c * r1
        free = (box[0] < levels) & (levels < box[1])
        u = u_buf[:, :, :n]
        np.multiply(c, a1 - b1, out=u[0, 1])
        np.subtract(u[0, 1], r1, out=u[0, 0])
        np.add(cb1, r1, out=u[1, 0])
        u[1, 1] = cb1
        u *= free[:, None]
        u0, u1 = u
        m00, m11 = np.where(free, h[:2], 1.0)
        m01 = h[2] * (free[0] & free[1])
        x = x_buf[:, :n]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.multiply(c, r2 - 2.0 * tau * r1, out=x[0])
            curv = (c * c * b2 + x - (m11 * u0 * u0 - 2.0 * m01 * u0 * u1 + m00 * u1 * u1)
                    / (m00 * m11 - m01 * m01))
            step = -grad * tau * tau / np.where(curv[0] > 0, curv[0], curv[1])
        # the minimum lies on the descent side of tau
        np.copyto(hi_b, tau, where=grad > 0)
        np.copyto(lo_b, tau, where=grad < 0)
        new = tau + step
        out = ~((new > lo_b) & (new < hi_b))
        at_box = np.where(step > 0, hi_b == hi_tau, lo_b == lo_tau)
        new = np.where(out, np.where(at_box, np.minimum(np.maximum(new, lo_b), hi_b),
                                     0.5 * (lo_b + hi_b)), new)
        newly = small[:n] | (new == tau) | (grad == 0)
        # leaving rows keep this iteration's levels, tau and cost
        leave = newly | (it + 1 == MAX_ITERATIONS)
        gone = leave.nonzero()[0]
        if gone.size:
            done = rows[gone]
            # their residuals and weighted residuals, in the rows of e^2
            # and e y w^2, which this iteration no longer reads
            r, rw = e_buf[1:, :gone.size]
            np.take(e, gone, axis=0, out=r)
            r *= c[gone, None]
            r += s_ss[gone, None]
            r -= np.take(y, done, axis=0, out=rw)
            np.multiply(r, wk[0] if shared else wk[0, gone], out=rw)
            cost[done] = np.einsum('bt,bt->b', rw, r)
            p[done, 0], p[done, 1], p[done, 2] = s_ss[gone], s_init[gone], tau[gone]
            iterations[done] = it + 1
            converged[done] = newly[gone]
        np.less(np.abs(new - tau), 1e-8 * tau, out=small[:n])
        tau[:] = new
        if gone.size:
            # the active rows from the tail take the slots of those that left
            n -= gone.size
            movers = n + (~leave[n:]).nonzero()[0]
            if movers.size:
                holes = gone[:movers.size]
                state[:, holes], yw2[holes], rows[holes], small[holes] = (
                    state[:, movers], yw2[movers], rows[movers], small[movers])
                if not shared:
                    wk[:, holes] = wk[:, movers]
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


def _fit_rows(t, y, u):
    """Fit every row of y (B, T) on the FIT_WINDOW samples t (T,), weighted
    by u, (T,) or (B, T).  The tail mean is taken from a C-contiguous copy, so
    each row's estimate is bitwise the 1-D ``np.mean`` of its tail.
    Returns _fit_batch's (params, cost, iterations, converged), the weights
    and the (B, 3) boxes lo and hi.
    """
    if t.size < 10:
        raise DomainError("need at least 10 samples inside the fit window")
    w = np.broadcast_to(_fit_weights(u), y.shape)
    tail = t >= FIT_WINDOW[1] - (FIT_WINDOW[1] - FIT_WINDOW[0]) * TAIL_FRACTION
    b = len(y)
    sss_est = np.ascontiguousarray(y[:, tail]).mean(axis=1)
    lo, hi = _boxes(sss_est, y[:, 0], b)
    p0 = np.stack([sss_est, y[:, 0], np.full(b, TAU_INITIAL)], axis=1)
    return _fit_batch(t, y, w, p0, lo, hi, t0=FIT_WINDOW[0]) + (w, lo, hi)


def fit_rise_times(traces) -> list[RiseTimeFit]:
    """Weighted exponential-rise fits of traces on one time grid, batched.

    Each trace is fitted on FIT_WINDOW as it would be alone.  Its
    steady-state estimate is the mean over the trailing eighth of the
    window, its initial estimate the first window sample.  The squared
    residuals are weighted by 1/u_sigma^2 when every uncertainty in the
    trace's window is positive; a window of zero uncertainties (a model
    trace) is fitted with unit weights, and one that mixes zero and positive
    uncertainties raises DomainError.  The traces are fitted MC_BLOCK at a
    time, so the working memory stops growing with their number, and a
    block whose traces all carry the same uncertainties holds one row of
    weights.  The first trace that fails is named by the error's ``index``:
    DegenerateTraceError if its window holds a value that is not finite,
    FitError if its fit does not converge.  No traces give no fits.
    ``bound_saturated`` flags a tau that ended on a bound of TAU_BOUNDS, and
    ``level_saturated`` a level that ended on an edge of its box, both within
    1e-9 relative: such a value is a bound, not a measurement.
    """
    if not traces:
        return []
    t = np.asarray(traces[0].t_points, dtype=float)
    if any(not np.array_equal(tr.t_points, t) for tr in traces[1:]):
        raise DomainError("fit_rise_times needs traces on one time grid")
    mask = (t >= FIT_WINDOW[0]) & (t <= FIT_WINDOW[1])
    tw = t[mask]
    fits = []
    for start in range(0, len(traces), MC_BLOCK):
        block = traces[start:start + MC_BLOCK]
        yw = np.stack([np.asarray(tr.sigma, dtype=float)[mask] for tr in block])
        uw = np.stack([np.asarray(tr.u_sigma, dtype=float)[mask] for tr in block])
        if (uw == uw[0]).all():
            uw = uw[0]
        # a row that is not finite comes back unconverged
        p, cost, iters, ok, w, lo, hi = _fit_rows(tw, yw, uw)
        if not ok.all():
            i = int(np.argmin(ok))
            if not np.isfinite(yw[i]).all():
                raise DegenerateTraceError("undefined sigma inside the fit window",
                                           index=start + i)
            raise FitError(f"no convergence after {MAX_ITERATIONS} iterations",
                           residuals=(p[i], cost[i]), index=start + i)
        s_ss, s_init, tau = p[:, 0:1], p[:, 1:2], p[:, 2:3]
        resid = s_ss - (s_ss - s_init) * np.exp(-(tw - FIT_WINDOW[0]) / tau) - yw
        chi2 = np.sum((resid * w) ** 2, axis=1) / max(len(tw) - 3, 1)
        rms = np.sqrt(np.mean(resid ** 2, axis=1))
        on_edge = (p <= lo + 1e-9 * np.abs(lo)) | (p >= hi - 1e-9 * np.abs(hi))
        fits += [RiseTimeFit(tau=float(p[i, 2]), sigma_init=float(p[i, 1]),
                             sigma_ss_fit=float(p[i, 0]), fit_window=FIT_WINDOW,
                             residual_rms=float(rms[i]), reduced_chi_squared=float(chi2[i]),
                             n_iterations=int(iters[i]), bound_saturated=bool(on_edge[i, 2]),
                             level_saturated=bool(on_edge[i, :2].any()))
                 for i in range(len(p))]
    return fits


def fit_rise_time(trace: OpticalDepthTrace) -> RiseTimeFit:
    """fit_rise_times of this one trace."""
    return fit_rise_times([trace])[0]


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
                            seed: int = 0) -> float:
    """Std of refitted tau over Gaussian perturbations of each trace point.

    All noise comes from one stream: resample i adds row i of
    ``np.random.default_rng(seed).standard_normal((resamples, T))``, scaled
    by u_sigma, to the T window points, so the first R rows of a longer run
    are the R-resample run.  The rows are drawn into one reused buffer and
    refitted MC_BLOCK at a time, which draws the same stream, and only the
    taus of the converged refits are kept between blocks.  The perturbed
    rows go through the same fit core as fit_rise_times, weighted by the
    trace's own u_sigma, so each refit's estimates, boxes and start are
    those of a direct fit of that row.  Returns the standard deviation of
    the tau sample.  A trace with no positive uncertainty inside the window
    returns exactly 0 without refitting, whatever the uncertainties outside
    it.
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
    mask = (t >= FIT_WINDOW[0]) & (t <= FIT_WINDOW[1])
    uw = np.asarray(trace.u_sigma, dtype=float)[mask]
    if not np.any(uw > 0):
        return 0.0
    tw = t[mask]
    yw = np.asarray(trace.sigma, dtype=float)[mask]
    rng = np.random.default_rng(seed)
    taus = np.empty(resamples)       # taus of the refits that passed, in row order
    kept = 0
    noise = np.empty((min(MC_BLOCK, resamples), len(uw)))
    for start in range(0, resamples, MC_BLOCK):
        pert = rng.standard_normal(out=noise[:min(MC_BLOCK, resamples - start)])
        pert *= uw
        pert += yw
        p, cost, _, ok = _fit_rows(tw, pert, uw)[:4]
        ok &= np.isfinite(cost) & np.all(np.isfinite(p), axis=1)
        good = p[ok, 2]
        taus[kept:kept + good.size] = good
        kept += good.size
    failures = resamples - kept
    if failures > MAX_FAILURE_FRACTION * resamples:
        raise FitError(f"{failures}/{resamples} resample fits failed; "
                       "uncertainty estimate unreliable")
    return float(np.std(taus[:kept], ddof=1))


def fit_peak_bytes(t_points, rows: int) -> int:
    """Estimated working memory of fitting ``rows`` traces on the time grid
    t_points, from the row count and the number of FIT_WINDOW points alone:
    the row arrays of one block of at most MC_BLOCK rows."""
    t = np.asarray(t_points, dtype=float)
    points = int(np.count_nonzero((t >= FIT_WINDOW[0]) & (t <= FIT_WINDOW[1])))
    return MC_LIVE_ROW_ARRAYS * 8 * min(rows, MC_BLOCK) * points


def monte_carlo_peak_bytes(trace: OpticalDepthTrace, resamples: int) -> int:
    """Estimated peak memory of monte_carlo_uncertainty on this trace: one
    block's row arrays (fit_peak_bytes) and the kept taus, 8 bytes per
    resample."""
    return fit_peak_bytes(trace.t_points, resamples) + 8 * resamples


def fit_with_uncertainty(trace: OpticalDepthTrace, resamples: int = 10_000,
                         seed: int = 0) -> RiseTimeFit:
    """Convenience composition: direct fit plus Monte-Carlo tau uncertainty."""
    return replace(fit_rise_time(trace), tau_uncertainty=monte_carlo_uncertainty(
        trace, resamples=resamples, seed=seed))
