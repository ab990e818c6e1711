"""Non-interacting-gas solver: two-level density-matrix equations coupled to
slowly-varying-envelope propagation on a space-time grid.

The medium is uniform, so after scaling the propagation coordinate by the
medium length the whole problem depends on a single optical-depth number:
the field obeys  dOmega/dzeta = -i*(sigma_ss/2)*rho01  (natural units,
zeta = z/L in [0,1]), which at steady state on resonance gives the
Beer-Lambert amplitude attenuation exp(-sigma_ss/2).

Everything is in local time t' = t - z/c; for sub-millimeter samples the
difference from lab time is irrelevant and outputs are labeled plain t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import DomainError, PulseShape

DEFAULT_T_MAX = 8.0          # tau_a units
DEFAULT_STEPS_PER_TAU = 200  # RK4 time steps per tau_a
MAX_ALPHA_DZ = 0.05          # resolution guard on optical depth per z step


class ResolutionError(ValueError):
    """Spatial grid too coarse for the requested optical depth."""


@dataclass(frozen=True)
class FieldGrid:
    """Space-time samples of the drive field and density-matrix elements.

    Arrays are indexed [z, t].  z_points is zeta = z/L on [0, 1] and
    t_points spans [0, t_max] in tau_a units.  A grid from propagate_batch
    without ``full_grid`` holds only the two planes zeta = 0 and zeta = 1.
    """

    z_points: np.ndarray
    t_points: np.ndarray
    rabi: np.ndarray
    rho00: np.ndarray
    rho11: np.ndarray
    rho01: np.ndarray
    sigma_ss: float


@dataclass(frozen=True)
class TransmissionTrace:
    """Paired input/output intensity traces (|Omega|^2, common normalization).

    u_input/u_output carry per-point 1-sigma uncertainties for count data;
    noiseless simulation traces leave them None.
    """

    t_points: np.ndarray
    intensity_input: np.ndarray
    intensity_output: np.ndarray
    u_input: np.ndarray | None = None
    u_output: np.ndarray | None = None


class _StateViews(NamedTuple):
    """Views of one (rho00, rho11, rho01) x row x z buffer that the RK4
    stages read or write: the three planes, the real parts of the
    populations, and rho01 over the flattened rows shifted by one node
    each way (for the trapezoid sums of the field march)."""

    r00: np.ndarray
    r11: np.ndarray
    r01: np.ndarray
    r00_re: np.ndarray
    r11_re: np.ndarray
    r01_next: np.ndarray
    r01_prev: np.ndarray

    @classmethod
    def of(cls, state):
        flat = state[2].reshape(-1)
        return cls(*state, state[0].real, state[1].real, flat[1:], flat[:-1])


def default_z_steps(sigma_ss: float) -> int:
    return max(50, math.ceil(20.0 * sigma_ss))


def propagate_pulse(pulse: PulseShape, depth, t_max: float = DEFAULT_T_MAX,
                    steps_per_tau: int = DEFAULT_STEPS_PER_TAU,
                    z_steps: int | None = None) -> FieldGrid:
    """Solve the coupled Bloch/propagation system on a space-time grid.

    Method of lines: z is discretized (the field at each time level follows
    from the boundary drive plus a cumulative trapezoid of the coherence,
    which is the z march of the propagation equation), and the resulting
    coupled system for all z nodes is advanced in t with classical RK4.
    Boundary condition Omega(z=0, t) = pulse.envelope(t); uniform density.
    The full grid is kept; this is a batch of one through propagate_batch.
    """
    return propagate_batch([pulse], [depth], t_max=t_max, steps_per_tau=steps_per_tau,
                           z_steps=z_steps, full_grid=True)[0]


def propagate_batch(pulses, depths, t_max: float = DEFAULT_T_MAX,
                    steps_per_tau: int = DEFAULT_STEPS_PER_TAU,
                    z_steps: int | None = None, full_grid: bool = False) -> list[FieldGrid]:
    """Propagate several (pulse, depth) rows through one RK4 time loop.

    The rows share the time axis and the number of z steps (by default
    default_z_steps of each depth, which must then agree); detuning,
    envelope and optical depth are per row.  Every row is advanced by the
    same elementwise arithmetic as a batch of one, so its grid does not
    depend on which other rows share the batch.  Without ``full_grid`` the
    returned grids hold only the zeta = 0 and zeta = 1 planes, which is all
    that transmission_from_grid reads.  A depth is the optical depth sigma_ss,
    one per pulse; an empty or unpaired batch raises DomainError.

    The time loop creates no arrays: each RK4 stage writes its field and
    derivative into buffers made once per call, through views also made
    once, since at these sizes numpy's per-call overhead, not arithmetic,
    bounds the loop.  The floating-point operations and their order are
    those of the whole-array RK4 expressions (y + h2*k1, ...,
    y + h6*(k1 + 2*k2 + 2*k3 + k4)), so the grids carry the same bits.  The
    populations are held complex with a zero imaginary part.
    """
    pulses = list(pulses)
    sigmas = [float(d) for d in depths]
    if not sigmas:
        raise DomainError("a batch needs at least one (pulse, depth) row")
    if len(pulses) != len(sigmas):
        raise DomainError(f"{len(pulses)} pulses for {len(sigmas)} depths; "
                          "a batch pairs one pulse with each depth")
    if any(s < 0 for s in sigmas):
        raise DomainError("sigma_ss must be >= 0")
    steps = {default_z_steps(s) if z_steps is None else z_steps for s in sigmas}
    if len(steps) != 1:
        raise ResolutionError("rows of one batch need the same number of z steps")
    z_steps = steps.pop()
    if z_steps < 1:
        raise ResolutionError("need at least one z step")
    for sigma_ss in sigmas:
        if sigma_ss / z_steps > MAX_ALPHA_DZ:
            raise ResolutionError(
                f"alpha*dz = {sigma_ss / z_steps:.3g} > {MAX_ALPHA_DZ}; "
                "use >= 20 z-steps per unit optical depth")

    n_t = int(round(steps_per_tau * t_max))
    t = np.linspace(0.0, t_max, n_t + 1)
    dt = t[1] - t[0]
    nz = z_steps + 1
    half_dz = 0.5 * (1.0 / z_steps)         # zeta = z/L
    rows = len(sigmas)
    recorded = slice(None) if full_grid else slice(None, None, z_steps)

    # per-row constants, spread along z so that every product is elementwise
    neg_damp = np.repeat([[-(0.5 + 1j * p.detuning)] for p in pulses], nz, axis=1)
    i_half_alpha = np.repeat([[1j * (0.5 * s)] for s in sigmas], nz, axis=1)
    # boundary drive per time level and row, at t_k and at the RK4 midpoints,
    # held complex so that no stage casts it
    boundary = np.stack([p.envelope(t) for p in pulses], axis=1)[:, :, None] + 0j
    bnd_mid = np.stack([p.envelope(t[:-1] + 0.5 * dt) for p in pulses],
                       axis=1)[:, :, None] + 0j

    # Every stage writes into these buffers.  pairs[b, j] = rho01[b, j + 1]
    # + rho01[b, j] comes from one add over the flattened rows; pairs[b, -1]
    # straddles two rows and is never read.
    pairs = np.empty((rows, nz), dtype=complex)
    pairs_flat = pairs.reshape(-1)[:-1]
    pairs_read = pairs[:, :-1]
    integ = np.zeros((rows, nz), dtype=complex)
    integ_tail = integ[:, 1:]
    om = np.empty((rows, nz), dtype=complex)        # the field of the stage
    scratch = np.empty((rows, nz), dtype=complex)
    cross = scratch.imag                            # Im(om conj(rho01)), a view
    k1, k2, k3, k4 = (np.empty((3, rows, nz), dtype=complex) for _ in range(4))
    for d in (k1, k2, k3, k4):
        d[:2].imag = 0.0                            # populations stay real
    y = np.zeros((3, rows, nz), dtype=complex)      # (rho00, rho11, rho01) x row x z
    y[0] = 1.0
    ys = np.empty_like(y)                           # the state of a stage

    def field_profile(v, bnd):
        # dOmega/dzeta = -i*(sigma_ss/2)*rho01, marched by cumulative trapezoid
        np.add(v.r01_next, v.r01_prev, out=pairs_flat)
        np.multiply(pairs_flat, half_dz, out=pairs_flat)
        np.add.accumulate(pairs_read, axis=1, out=integ_tail)
        np.multiply(i_half_alpha, integ, out=scratch)
        np.subtract(bnd, scratch, out=om)

    def deriv(v, d):
        # d rho11 = -rho11 + Im(om conj(rho01)), the cross term
        # 0.5j*(om rho01* - om* rho01) bit for bit; d rho00 = -d rho11
        np.multiply(om, np.conj(v.r01, out=scratch), out=scratch)
        np.subtract(cross, v.r11_re, out=d.r11_re)
        np.negative(d.r11_re, out=d.r00_re)
        # d rho01 = -(1/2 + i detuning) rho01 + (0.5j om) (rho11 - rho00)
        np.subtract(v.r11, v.r00, out=d.r01)
        np.multiply(0.5j, om, out=scratch)
        np.multiply(scratch, d.r01, out=scratch)
        np.multiply(neg_damp, v.r01, out=d.r01)
        np.add(d.r01, scratch, out=d.r01)

    def stage(h, k):
        # the stage state y + h*k
        np.multiply(h, k, out=ys)
        np.add(y, ys, out=ys)

    zeta = np.linspace(0.0, 1.0, nz)[recorded]
    rabi = np.empty((rows, len(zeta), n_t + 1), dtype=complex)
    pop = np.empty((2, rows, len(zeta), n_t + 1))       # rho00, rho11
    coh = np.empty((rows, len(zeta), n_t + 1), dtype=complex)

    h2 = 0.5 * dt
    h6 = dt / 6.0
    # views are made once: the buffers they look into are updated in place
    y_v, ys_v, k1_v, k2_v, k3_v, k4_v = map(_StateViews.of, (y, ys, k1, k2, k3, k4))
    om_rec, pop_rec, coh_rec = om[:, recorded], y[:2, :, recorded].real, y[2, :, recorded]
    field_profile(y_v, boundary[0])
    rabi[..., 0] = om_rec
    pop[..., 0] = pop_rec
    coh[..., 0] = coh_rec
    for k in range(n_t):
        bm, bnd_next = bnd_mid[k], boundary[k + 1]
        deriv(y_v, k1_v)
        stage(h2, k1)
        field_profile(ys_v, bm)
        deriv(ys_v, k2_v)
        stage(h2, k2)
        field_profile(ys_v, bm)
        deriv(ys_v, k3_v)
        stage(dt, k3)
        field_profile(ys_v, bnd_next)
        deriv(ys_v, k4_v)
        # y + h6*(k1 + 2*k2 + 2*k3 + k4), summed in that order into k1
        np.multiply(2, k2, out=k2)
        np.add(k1, k2, out=k1)
        np.multiply(2, k3, out=k3)
        np.add(k1, k3, out=k1)
        np.add(k1, k4, out=k1)
        np.multiply(h6, k1, out=k1)
        np.add(y, k1, out=y)
        # the field at t_{k+1} is also the next step's first-stage field
        field_profile(y_v, bnd_next)
        rabi[..., k + 1] = om_rec
        pop[..., k + 1] = pop_rec
        coh[..., k + 1] = coh_rec

    return [FieldGrid(z_points=zeta, t_points=t, rabi=rabi[b],
                      rho00=pop[0, b], rho11=pop[1, b], rho01=coh[b], sigma_ss=sigma_ss)
            for b, sigma_ss in enumerate(sigmas)]


def simulate_transmission(pulse: PulseShape, depth, t_max: float = DEFAULT_T_MAX,
                          steps_per_tau: int = DEFAULT_STEPS_PER_TAU,
                          z_steps: int | None = None) -> TransmissionTrace:
    """Full pipeline: propagate and return paired intensity traces.

    Intensities are |Omega|^2 normalized to the peak input, so I_input
    approaches 1 after the turn-on.
    """
    grid = propagate_batch([pulse], [depth], t_max=t_max, steps_per_tau=steps_per_tau,
                           z_steps=z_steps)[0]
    return transmission_from_grid(grid, pulse)


def transmission_from_grid(grid: FieldGrid, pulse: PulseShape) -> TransmissionTrace:
    """Input and output intensities of a propagated grid, normalized to the
    peak input |Omega|^2 of ``pulse``."""
    scale = pulse.amplitude**2
    if scale == 0:
        raise DomainError("pulse amplitude must be positive for a transmission trace")
    i_in = np.abs(grid.rabi[0]) ** 2 / scale
    i_out = np.abs(grid.rabi[-1]) ** 2 / scale
    return TransmissionTrace(t_points=grid.t_points, intensity_input=i_in,
                             intensity_output=i_out)
