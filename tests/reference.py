"""Reference implementations that the package is checked against.

They are not part of the package because no run calls them: the direct
RK4 integration of the amplitude equations, the plane-wave drive vector it
is driven by, and the first-order weak-field closed form of the
propagation model.
"""

import numpy as np

from subabsorb.core import DomainError
from subabsorb.coupled_dipole import K_A


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
