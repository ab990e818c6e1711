"""Reference implementations that the package is checked against.

They are not part of the package because no run calls them: the direct
RK4 integration of the amplitude equations, the plane-wave drive vector it
is driven by, the first-order weak-field closed form of the propagation
model, and that model's RK4 time loop written as whole-array expressions.
"""

import numpy as np

from subabsorb.core import DomainError
from subabsorb.coupled_dipole import K_A
from subabsorb.maxwell_bloch import DEFAULT_STEPS_PER_TAU, DEFAULT_T_MAX, default_z_steps


def drive_vector(positions, amplitude: float) -> np.ndarray:
    """Plane-wave drive along z: Omega_j = Omega_0 exp(i k z_j)."""
    return amplitude * np.exp(1j * K_A * np.asarray(positions)[:, 2])


def pad_systems(hs, omegas):
    """Stack coupling matrices and drives of different N as (B, n, n) and
    (B, n), n the largest N, padded with zero rows, columns and drive.  A
    padded amplitude has zero derivative and starts at 0, so it stays
    exactly 0 and leaves the other amplitudes of its system unchanged."""
    n = max(len(omega) for omega in omegas)
    h = np.zeros((len(hs), n, n))
    omega = np.zeros((len(hs), n), dtype=complex)
    for i, (hi, oi) in enumerate(zip(hs, omegas)):
        h[i, :len(oi), :len(oi)] = hi
        omega[i, :len(oi)] = oi
    return h, omega


def rk4_amplitudes(h, omega_vec, t_points, substeps: int = 40) -> np.ndarray:
    """Direct fixed-step RK4 integration of dc/dt = -H c - i Omega_vec for a
    batch of systems, h (B, N, N) and omega_vec (B, N).

    Reference integrator that the closed form is checked against.  Returns
    the amplitudes (B, len(t_points), N); each RK4 stage is one stacked
    matmul over the batch.  pad_systems stacks systems of different N.
    """
    t_points = np.asarray(t_points, dtype=float)
    h = np.asarray(h, dtype=complex)
    b = -1j * np.asarray(omega_vec)
    out = np.zeros((len(b), len(t_points), b.shape[1]), dtype=complex)
    c = np.zeros_like(b)
    if t_points[0] != 0.0:
        raise DomainError("t_points must start at 0 (ground-state initial condition)")

    def f(c):
        return -(h @ c[..., None])[..., 0] + b

    for i in range(1, len(t_points)):
        span = t_points[i] - t_points[i - 1]
        m = max(1, substeps)
        dt = span / m
        for _ in range(m):
            k1 = f(c)
            k2 = f(c + 0.5 * dt * k1)
            k3 = f(c + 0.5 * dt * k2)
            k4 = f(c + dt * k3)
            c = c + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[:, i] = c
    return out


def analytic_weak_field(t, z_over_length, sigma_ss: float, detuning: float = 0.0):
    """Closed-form weak-field step response Omega(z,t')/Omega_0.

    Omega(z,t') = Omega(0,t') * exp(-(alpha z/2)(1 - exp(-t'/2))) with
    alpha*L = sigma_ss.  Stated on resonance only; exact to first order in
    sigma_ss (the coherence is assumed to track the local instantaneous
    field, which neglects pulse reshaping at higher optical depth).
    """
    if detuning != 0.0:
        raise DomainError("the closed form is stated on resonance only")
    t = np.asarray(t, dtype=float)
    exponent = -(sigma_ss * z_over_length / 2.0) * (1.0 - np.exp(-t / 2.0))
    return np.exp(exponent)


def whole_array_rk4_batch(pulses, depths, t_max=DEFAULT_T_MAX,
                          steps_per_tau=DEFAULT_STEPS_PER_TAU, z_steps=None,
                          full_grid=False):
    """The Maxwell-Bloch time loop of propagate_batch as whole-array
    expressions: every stage allocates its field (a cumsum trapezoid of
    rho01 from the boundary drive), derivative and stage state, and the
    step is y + h6*(k1 + 2*k2 + 2*k3 + k4).  The cross term is
    0.5j*(om rho01* - om* rho01) and every scalar a Python number.  Returns
    (rabi, rho00, rho11, rho01), each indexed [row, z, t]."""
    sigmas = [float(d) for d in depths]
    if z_steps is None:
        z_steps = default_z_steps(sigmas[0])
    n_t = int(round(steps_per_tau * t_max))
    t = np.linspace(0.0, t_max, n_t + 1)
    dt = t[1] - t[0]
    half_dz = 0.5 * (1.0 / z_steps)
    recorded = slice(None) if full_grid else slice(None, None, z_steps)
    neg_damp = np.array([[-(0.5 + 1j * p.detuning)] for p in pulses])
    i_half_alpha = np.array([[1j * (0.5 * s)] for s in sigmas])
    boundary = np.stack([p.envelope(t) for p in pulses], axis=1)[:, :, None] + 0j
    bnd_mid = np.stack([p.envelope(t[:-1] + 0.5 * dt) for p in pulses],
                       axis=1)[:, :, None] + 0j

    def field_profile(r01, bnd):
        integ = np.zeros(r01.shape, dtype=complex)
        integ[:, 1:] = np.cumsum((r01[:, 1:] + r01[:, :-1]) * half_dz, axis=1)
        return bnd - i_half_alpha * integ

    def deriv(y, om):
        r00, r11, r01 = y
        cross = 0.5j * (om * np.conj(r01) - np.conj(om) * r01)
        return np.stack([r11 + cross, -r11 - cross,
                         neg_damp * r01 + 0.5j * om * (r11 - r00)])

    y = np.zeros((3, len(sigmas), z_steps + 1), dtype=complex)
    y[0] = 1.0
    om = field_profile(y[2], boundary[0])
    rabi, states = [om[:, recorded]], [y[:, :, recorded]]
    h2, h6 = 0.5 * dt, dt / 6.0
    for k in range(n_t):
        k1 = deriv(y, om)
        y2 = y + h2 * k1
        k2 = deriv(y2, field_profile(y2[2], bnd_mid[k]))
        y3 = y + h2 * k2
        k3 = deriv(y3, field_profile(y3[2], bnd_mid[k]))
        y4 = y + dt * k3
        k4 = deriv(y4, field_profile(y4[2], boundary[k + 1]))
        y = y + h6 * (k1 + 2 * k2 + 2 * k3 + k4)
        om = field_profile(y[2], boundary[k + 1])
        rabi.append(om[:, recorded])
        states.append(y[:, :, recorded])
    states = np.stack(states, axis=-1)
    return np.stack(rabi, axis=-1), states[0].real, states[1].real, states[2]
