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
    populations over the flattened rows (a one-dimensional view takes
    numpy's trivial loop, a strided two-dimensional one its iterator), and
    rho01 over the flattened rows shifted by one node each way (for the
    trapezoid sums of the field march)."""

    r00: np.ndarray
    r11: np.ndarray
    r01: np.ndarray
    r00_re: np.ndarray
    r11_re: np.ndarray
    r01_next: np.ndarray
    r01_prev: np.ndarray

    @classmethod
    def of(cls, state):
        r00, r11, r01 = (plane.reshape(-1) for plane in state)
        return cls(*state, r00.real, r11.real, r01[1:], r01[:-1])


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

    The time loop allocates nothing.  At these sizes (rows x (z_steps + 1)
    nodes) numpy's fixed cost per call, not arithmetic, bounds the loop, so
    each of its about 70 calls per step is made at numpy's per-call floor:
    outputs are passed positionally; every elementwise operand is
    contiguous or one-dimensional, which numpy runs in its trivial loop
    rather than its general iterator (so the boundary drive is spread along
    z by two copies per step, not broadcast in four field marches); every
    scalar operand (dt/2, dt, dt/6, 2, 0.5j and dz/2) is a 0-d complex128
    array made once; and each stage writes into buffers, through views,
    made once per call.  numpy converts a Python scalar operand of a
    complex array to exactly that complex128 value on every call, so the
    0-d operands spare the conversion and move no bit.  k1..k4 share one
    buffer, so that 2*k2 and 2*k3 take one multiply, and the state shares
    one with the field, so that a time level is recorded by two copies:
    rho01 and the field into one complex array, the populations into one
    real array, whose C-contiguous [z, t] planes the grids view.
    The floating-point operations and their order are those of the
    whole-array RK4 expressions (y + h2*k1, ..., y + h6*(k1 + 2*k2 + 2*k3
    + k4)) of tests/reference.py, so the grids carry the same bits.  The
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
    rows = len(sigmas)
    recorded = slice(None) if full_grid else slice(None, None, z_steps)
    # zeta = z/L, so dz = 1/z_steps
    h1, h2, h6, two, half_j, half_dz = (
        np.array(v, dtype=complex)
        for v in (dt, 0.5 * dt, dt / 6.0, 2, 0.5j, 0.5 * (1.0 / z_steps)))

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
    scratch = np.empty((rows, nz), dtype=complex)
    cross = scratch.reshape(-1).imag                # Im(om conj(rho01)), a view
    ks = np.empty((4, 3, rows, nz), dtype=complex)  # k1..k4
    ks[:, :2].imag = 0.0                            # populations stay real
    k1, k2, k3, k4 = ks
    k23 = ks[1:3]
    # (rho00, rho11, rho01) x row x z, then the field of the stage
    state = np.zeros((4, rows, nz), dtype=complex)
    state[0] = 1.0
    y, om = state[:3], state[3]
    ys = np.empty_like(y)                           # the state of a stage
    # the boundary drive at the midpoint and at t_{k+1}, spread along z once
    # per step for the two field marches that read each: a march that
    # broadcast it would take numpy's iterator and fill a buffer
    mid_z = np.empty((rows, nz), dtype=complex)
    next_z = np.empty((rows, nz), dtype=complex)

    # local names spare each of the loop's calls a global and an attribute
    # lookup, a few percent of a step
    add, multiply, subtract, negative, conjugate = (
        np.add, np.multiply, np.subtract, np.negative, np.conjugate)
    accumulate, copyto = np.add.accumulate, np.copyto

    def field_profile(v, bnd):
        # dOmega/dzeta = -i*(sigma_ss/2)*rho01, marched by cumulative trapezoid
        add(v.r01_next, v.r01_prev, pairs_flat)
        multiply(pairs_flat, half_dz, pairs_flat)
        accumulate(pairs_read, 1, None, integ_tail)
        multiply(i_half_alpha, integ, scratch)
        subtract(bnd, scratch, om)

    def deriv(v, d):
        # d rho11 = -rho11 + Im(om conj(rho01)), the cross term
        # 0.5j*(om rho01* - om* rho01) bit for bit; d rho00 = -d rho11
        conjugate(v.r01, scratch)
        multiply(om, scratch, scratch)
        subtract(cross, v.r11_re, d.r11_re)
        negative(d.r11_re, d.r00_re)
        # d rho01 = -(1/2 + i detuning) rho01 + (0.5j om) (rho11 - rho00)
        subtract(v.r11, v.r00, d.r01)
        multiply(half_j, om, scratch)
        multiply(scratch, d.r01, scratch)
        multiply(neg_damp, v.r01, d.r01)
        add(d.r01, scratch, d.r01)

    def stage(h, k):
        # the stage state y + h*k
        multiply(h, k, ys)
        add(y, ys, ys)

    zeta = np.ascontiguousarray(np.linspace(0.0, 1.0, nz)[recorded])
    # the time levels of (rho01, field) and of (rho00, rho11), [plane, row, z, t]
    coh_rabi = np.empty((2, rows, len(zeta), n_t + 1), dtype=complex)
    pop = np.empty((2, rows, len(zeta), n_t + 1))
    coh_rabi_t, pop_t = np.moveaxis(coh_rabi, -1, 0), np.moveaxis(pop, -1, 0)

    # views are made once: the buffers they look into are updated in place
    y_v, ys_v, k1_v, k2_v, k3_v, k4_v = map(_StateViews.of, (y, ys, k1, k2, k3, k4))
    coh_rabi_rec, pop_rec = state[2:, :, recorded], state[:2, :, recorded].real
    copyto(next_z, boundary[0])
    field_profile(y_v, next_z)
    copyto(coh_rabi_t[0], coh_rabi_rec)
    copyto(pop_t[0], pop_rec)
    for bm, bnd_next, coh_rabi_k, pop_k in zip(bnd_mid, boundary[1:], coh_rabi_t[1:],
                                               pop_t[1:]):
        copyto(mid_z, bm)
        copyto(next_z, bnd_next)
        deriv(y_v, k1_v)
        stage(h2, k1)
        field_profile(ys_v, mid_z)
        deriv(ys_v, k2_v)
        stage(h2, k2)
        field_profile(ys_v, mid_z)
        deriv(ys_v, k3_v)
        stage(h1, k3)
        field_profile(ys_v, next_z)
        deriv(ys_v, k4_v)
        # y + h6*(k1 + 2*k2 + 2*k3 + k4), summed in that order into k1
        multiply(two, k23, k23)
        add(k1, k2, k1)
        add(k1, k3, k1)
        add(k1, k4, k1)
        multiply(h6, k1, k1)
        add(y, k1, y)
        # the field at t_{k+1} is also the next step's first-stage field
        field_profile(y_v, next_z)
        copyto(coh_rabi_k, coh_rabi_rec)
        copyto(pop_k, pop_rec)

    return [FieldGrid(z_points=zeta, t_points=t, rabi=coh_rabi[1, b], rho00=pop[0, b],
                      rho11=pop[1, b], rho01=coh_rabi[0, b], sigma_ss=sigma_ss)
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
