"""Correctness checks on the outputs of one benchmark run.

Each check compares what the program wrote against a computation made here,
apart from the program, or against a property the method must have.  No
function in this file imports ``subabsorb``: the oracles are written from
the physics, so a fault in the package cannot hide in its own reference.

Every check returns a ``Check``; none raises on a wrong output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import erf, spherical_jn

TWO_PI = 2.0 * math.pi
K_A = TWO_PI                      # resonant wavevector, wavelengths as length unit

# Tolerances, each set from the error budget of the computation it guards.
SIGMA_RTOL = 1e-10                # CSV values carry 12 significant digits
DILUTE_GATE = 0.05                # single-atom law: |tau/2tau_a - 1| (criterion 7)
BETA_TREND_TOL = 1e-6             # subabsorption excess may not grow with beta by more
P_OF_T_ATOL = 1e-9                # independent evolution vs program P(t)
PROPAGATION_RTOL = 2e-5           # Laplace series vs method-of-lines I_out
GRID_TRACE_ATOL = 1e-9            # rho00 + rho11 = 1 (FieldGrid.validate)
GRID_PURITY_RTOL = 1e-9           # |rho01|^2 <= rho00 rho11, relative to rho11
COVERAGE_TARGET = 0.6827          # one-sigma coverage of a Gaussian error
COVERAGE_ALPHA = 1e-3             # two-sided binomial p-value that fails
CHI2_RANGE = (0.7, 1.3)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


# ----------------------------------------------------------------------
# sweep tables

def read_csv(path) -> np.ndarray:
    """Rows of one CSV the program wrote, below its header line."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def sigma_ss_of_cube(atom_count: int, requested_sigma: float) -> float:
    """Steady-state optical depth 3N/(2 pi a^2) of the cube the sweep builds.

    The side a is the one that gives the requested optical depth; the value
    returned is recomputed from that side.
    """
    side = math.sqrt(3.0 * atom_count / (TWO_PI * requested_sigma))
    return 3.0 * atom_count / (TWO_PI * side * side)


def check_sigma_ss(rows: np.ndarray, requested: list[float], atom_count: int) -> Check:
    """Each row's sigma_ss equals 3N/(2 pi a^2) of its cube."""
    if len(rows) != len(requested):
        return Check("sigma_ss_formula", False,
                     f"{len(rows)} rows for {len(requested)} requested points")
    expected = np.array([sigma_ss_of_cube(atom_count, s) for s in requested])
    err = np.max(np.abs(rows[:, 1] - expected) / expected)
    return Check("sigma_ss_formula", bool(err <= SIGMA_RTOL),
                 f"max relative error {err:.2e} over {len(rows)} rows "
                 f"(tolerance {SIGMA_RTOL:g})")


def check_dilute_law(rows: np.ndarray) -> Check:
    """The most dilute rows meet the single-atom rise law tau = 2 tau_a."""
    dilute = rows[rows[:, 1] == rows[:, 1].min()]
    dev = np.abs(dilute[:, 2] - 1.0)
    return Check("dilute_2tau_a_law", bool(np.all(dev <= DILUTE_GATE)),
                 f"sigma_ss = {dilute[0, 1]:.4g}: tau/2tau_a = "
                 f"{np.round(dilute[:, 2], 4).tolist()} (gate 1 +- {DILUTE_GATE})")


def check_dense_subabsorption(rows: np.ndarray) -> Check:
    """The densest beta = 0 row rises slower than a single atom."""
    undamped = rows[rows[:, 0] == 0.0]
    if len(undamped) == 0:
        return Check("dense_subabsorption", False, "no beta = 0 row")
    row = undamped[np.argmax(undamped[:, 1])]
    return Check("dense_subabsorption", bool(row[2] > 1.0),
                 f"sigma_ss = {row[1]:.4g}, beta = 0: tau/2tau_a = {row[2]:.4f} (gate > 1)")


def check_beta_trend(rows: np.ndarray) -> Check:
    """At every optical depth, the subabsorption excess does not grow with beta.

    The excess is max(tau/2tau_a - 1, 0).  tau itself is not monotone in
    beta at high optical depth: partly suppressed couplings give a rise
    faster than a single atom's (tau/2tau_a ~ 0.92 at sigma_ss = 2), and
    full suppression brings it back to 1.  Dephasing may only remove the
    slowing, never add to it.
    """
    worst = -math.inf
    for sigma in np.unique(rows[:, 1]):
        at = rows[rows[:, 1] == sigma]
        at = at[np.argsort(at[:, 0])]
        if len(at) > 1:
            excess = np.maximum(at[:, 2] - 1.0, 0.0)
            worst = max(worst, float(np.max(np.diff(excess))))
    return Check("excess_non_increasing_in_beta", bool(worst <= BETA_TREND_TOL),
                 f"largest rise of max(tau/2tau_a - 1, 0) between neighbouring beta = "
                 f"{worst:.3g} (tolerance {BETA_TREND_TOL:g})")


def check_strictly_falling(values: np.ndarray, taus: np.ndarray, label: str) -> Check:
    """tau falls strictly as the swept value grows."""
    order = np.argsort(values)
    steps = np.diff(taus[order])
    return Check(label, bool(len(steps) > 0 and np.all(steps < 0)),
                 f"tau/2tau_a = {np.round(taus[order], 5).tolist()} at "
                 f"{np.round(values[order], 4).tolist()}")


# ----------------------------------------------------------------------
# collective model

def gamma_dd(beta_over_2pi_hz_cm3: float, atom_count: int, side: float,
             lifetime_ns: float, wavelength_nm: float) -> float:
    """Dephasing rate beta*n in units of the decay rate, from SI inputs."""
    n_per_cm3 = atom_count / (side * wavelength_nm * 1e-7) ** 3
    return TWO_PI * beta_over_2pi_hz_cm3 * n_per_cm3 * lifetime_ns * 1e-9


def cooperative_decay_matrix(positions: np.ndarray, mode: str) -> np.ndarray:
    """Off-diagonal cooperative decay rates Gamma_jk of x-polarised dipoles.

    Gamma_jk = 3/2 [(1 - cos^2 th) j0(kr) + (3 cos^2 th - 1) j1(kr)/(kr)],
    th the angle between x and r_jk (th = 0 in scalar mode).
    """
    d = positions[:, None, :] - positions[None, :, :]
    r = np.sqrt(np.sum(d * d, axis=-1))
    np.fill_diagonal(r, 1.0)
    kr = K_A * r
    cos2 = (d[..., 0] / r) ** 2 if mode == "vectorial" else np.ones_like(r)
    g = 1.5 * ((1.0 - cos2) * spherical_jn(0, kr)
               + (3.0 * cos2 - 1.0) * spherical_jn(1, kr) / kr)
    np.fill_diagonal(g, 0.0)
    return g


def collective_dipole_trace(positions: np.ndarray, suppression: float,
                            t_points: np.ndarray, mode: str = "vectorial") -> np.ndarray:
    """P(t) of a step-driven ensemble, normalised to its steady state.

    The amplitudes obey dc/dt = -H c + b with H = (I + S Gamma)/2 and
    b_j = -i exp(i k z_j).  The steady state comes from an LU solve and the
    transient from one Pade matrix exponential of H over a time step,
    applied once per output time: no eigendecomposition is used.
    """
    n = len(positions)
    h = 0.5 * (np.eye(n) + suppression * cooperative_decay_matrix(positions, mode))
    drive = -1j * np.exp(1j * K_A * positions[:, 2])
    rhs = np.stack([drive.real, drive.imag], axis=1)
    steady = np.linalg.solve(h, rhs)
    dt = np.diff(t_points)
    if not np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
        raise ValueError("output times must be evenly spaced")
    step = scipy.linalg.expm(-dt[0] * h)
    decay = steady.copy()
    phase = np.exp(-1j * K_A * positions[:, 2])
    raw = np.empty(len(t_points))
    for i in range(len(t_points)):
        c = steady - decay
        raw[i] = abs((c[:, 0] + 1j * c[:, 1]) @ phase)
        decay = step @ decay
    steady_dipole = abs((steady[:, 0] + 1j * steady[:, 1]) @ phase)
    return raw / steady_dipole


def check_dipole_traces(samples: list[dict]) -> Check:
    """Program P(t) of captured realizations vs the independent evolution.

    Each sample holds positions, suppression, mode, t_points and the
    program's p_normalized.
    """
    if not samples:
        return Check("p_of_t_independent", False, "no realization captured")
    worst = 0.0
    for s in samples:
        ref = collective_dipole_trace(s["positions"], s["suppression"],
                                      s["t_points"], s["mode"])
        worst = max(worst, float(np.max(np.abs(np.asarray(s["p_normalized"]) - ref))))
    return Check("p_of_t_independent", bool(worst <= P_OF_T_ATOL),
                 f"{len(samples)} realizations (N = "
                 f"{sorted({len(s['positions']) for s in samples})}): max |dP| = "
                 f"{worst:.2e} (tolerance {P_OF_T_ATOL:g})")


# ----------------------------------------------------------------------
# propagation model

def step_response(t: np.ndarray, sigma_ss: float, detuning: float,
                  n_terms: int = 80) -> np.ndarray:
    """Output field of a unit step through a uniform slab, weak-field limit.

    The Laplace transform of the linearised Bloch/propagation pair is
    (1/p) exp(-(sigma_ss/4)/(p + a)), a = 1/2 + i*detuning.  Expanding the
    exponential and inverting term by term gives
    sum_n (-sigma_ss/(4a))^n / n! * P(n, a t), with P the regularised lower
    incomplete gamma function, here built by its downward recursion.
    """
    a = 0.5 + 1j * detuning
    x = a * np.asarray(t, dtype=float)
    ex = np.exp(-x)
    term_p = np.ones_like(x)              # P(0, x)
    x_pow = np.ones_like(x)               # x^(n-1)/(n-1)!
    coef = 1.0 + 0.0j
    total = np.ones_like(x)
    for n in range(1, n_terms):
        term_p = term_p - x_pow * ex
        x_pow = x_pow * x / n
        coef = coef * (-sigma_ss / (4.0 * a)) / n
        total = total + coef * term_p
    return total


def ramp_envelope(t: np.ndarray, kind: str, rise: float) -> np.ndarray:
    """Unit-peak drive envelope: a step, or an erf ramp centred at t = rise."""
    t = np.asarray(t, dtype=float)
    if kind == "step" or rise == 0.0:
        return np.where(t >= 0.0, 1.0, 0.0)
    width = rise / (2.0 * 1.2815515655446004)        # 10-90 span of a Gaussian
    return 0.5 * (1.0 + erf((t - rise) / (math.sqrt(2.0) * width)))


def propagated_intensity(t: np.ndarray, sigma_ss: float, detuning: float,
                         kind: str, rise: float) -> np.ndarray:
    """|Omega_out/Omega_peak|^2 for the given drive, by Duhamel superposition.

    The input is a sum of small steps, one per time step at its midpoint,
    plus the step of its value at t = 0; each is propagated by the step
    response.  t must be evenly spaced from 0.
    """
    dt = t[1] - t[0]
    drive = ramp_envelope(t, kind, rise)
    out = drive[0] * step_response(t, sigma_ss, detuning)
    half = step_response((np.arange(len(t) - 1) + 0.5) * dt, sigma_ss, detuning)
    jumps = np.diff(drive)
    out[1:] += np.convolve(half, jumps)[: len(t) - 1]
    return np.abs(out) ** 2


def check_propagation_traces(traces: list[dict]) -> Check:
    """Program I_out vs the Laplace-series oracle, for every written trace.

    Each trace holds t (tau_a units), i_in, i_out, sigma_ss, detuning,
    kind and rise (tau_a units).
    """
    if not traces:
        return Check("i_out_laplace_oracle", False, "no trace written")
    worst_out = worst_in = 0.0
    for tr in traces:
        t = np.asarray(tr["t"])
        ref_in = ramp_envelope(t, tr["kind"], tr["rise"]) ** 2
        ref_out = propagated_intensity(t, tr["sigma_ss"], tr["detuning"],
                                       tr["kind"], tr["rise"])
        scale = np.max(ref_out)
        worst_out = max(worst_out, float(np.max(np.abs(tr["i_out"] - ref_out)) / scale))
        worst_in = max(worst_in, float(np.max(np.abs(tr["i_in"] - ref_in))))
    ok = worst_out <= PROPAGATION_RTOL and worst_in <= PROPAGATION_RTOL
    return Check("i_out_laplace_oracle", bool(ok),
                 f"{len(traces)} traces: max |dI_out|/max I_out = {worst_out:.2e}, "
                 f"max |dI_in| = {worst_in:.2e} (tolerance {PROPAGATION_RTOL:g})")


def check_grid_invariants(rho00: np.ndarray, rho11: np.ndarray,
                          rho01: np.ndarray) -> Check:
    """Dumped grid keeps rho00 + rho11 = 1 and |rho01|^2 <= rho00 rho11."""
    trace_err = float(np.max(np.abs(rho00 + rho11 - 1.0)))
    excess = np.abs(rho01) ** 2 - rho00 * rho11
    purity = float(np.max(excess)) / max(float(np.max(rho11)), 1e-300)
    ok = trace_err <= GRID_TRACE_ATOL and purity <= GRID_PURITY_RTOL
    return Check("grid_trace_and_purity", bool(ok),
                 f"max |rho00 + rho11 - 1| = {trace_err:.2e} (tolerance "
                 f"{GRID_TRACE_ATOL:g}); max (|rho01|^2 - rho00 rho11)/max rho11 = "
                 f"{purity:.2e} (tolerance {GRID_PURITY_RTOL:g})")


# ----------------------------------------------------------------------
# photon-count fits

def binomial_two_sided_p(k: int, n: int, p: float) -> float:
    """Two-sided p-value of k successes in n trials: twice the smaller tail."""
    pmf = [math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(n + 1)]
    return min(1.0, 2.0 * min(sum(pmf[: k + 1]), sum(pmf[k:])))


def check_fit_records(records: list[dict | None], tau_true_ns: float) -> list[Check]:
    """Convergence, one-sigma coverage of the known tau, and median chi^2."""
    done = [r for r in records if r is not None]
    checks = [Check("every_fit_converges", len(done) == len(records) and len(done) > 0,
                    f"{len(done)}/{len(records)} fits returned a record")]
    if not done:
        return checks
    covered = sum(abs(r["tau_ns"] - tau_true_ns) <= r["tau_err_ns"] for r in done)
    p_value = binomial_two_sided_p(covered, len(done), COVERAGE_TARGET)
    checks.append(Check("coverage_consistent_with_68pc", p_value >= COVERAGE_ALPHA,
                        f"{covered}/{len(done)} intervals hold tau = {tau_true_ns:g} ns; "
                        f"binomial p = {p_value:.3g} (fails below {COVERAGE_ALPHA:g})"))
    chi2 = float(np.median([r["chi2_reduced"] for r in done]))
    checks.append(Check("median_reduced_chi2", CHI2_RANGE[0] <= chi2 <= CHI2_RANGE[1],
                        f"median reduced chi^2 = {chi2:.3f} (gate {list(CHI2_RANGE)})"))
    return checks


# ----------------------------------------------------------------------
# reruns

def check_identical_files(first: dict[str, bytes], second: dict[str, bytes]) -> Check:
    """Two passes wrote the same set of files with the same bytes."""
    same_names = sorted(first) == sorted(second)
    differing = [k for k in first if k in second and first[k] != second[k]]
    ok = same_names and not differing and len(first) > 0
    return Check("outputs_byte_identical", bool(ok),
                 f"{len(first)} files compared; differing: {differing[:3]}"
                 + ("" if same_names else "; file sets differ"))
