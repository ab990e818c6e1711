"""Domain types, unit conventions, and the conversions shared by the solvers.

Everything internal runs in natural units:

* rates in units of the single-atom decay rate ``Gamma_a``,
* times in units of the excited-state lifetime ``tau_a = 1/Gamma_a``,
* lengths in units of the transition wavelength ``lambda_a`` (so the
  resonant wavevector is ``k_a = 2*pi``).

The physics depends only on the dimensionless ratios (detuning/Gamma_a,
gamma_DD/Gamma_a, k_a*r), so SI values enter exactly twice: when parsing a
config file and when labeling output columns.  ``AtomicSpecies`` holds the
two SI anchors (lifetime, wavelength) needed for those conversions.
Intensities are reported as |Omega|^2 in units of Gamma_a^2, which is
proportional to physical intensity; the dipole matrix element and the
impedance of free space never appear on their own.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

#: resonant two-level cross-section in units of lambda_a^2: 3 lambda^2 / (2 pi)
RESONANT_CROSS_SECTION = 3.0 / TWO_PI


class DomainError(ValueError):
    """A physical argument is outside its valid domain."""


class ConfigError(ValueError):
    """A config file is malformed or violates a type invariant."""


@dataclass(frozen=True)
class AtomicSpecies:
    """Two-level transition constants (SI anchors for unit conversion).

    Defaults are the D2 cycling transition of a common alkali: 26.2 ns
    lifetime, 780 nm wavelength.  ``decay_rate * lifetime == 1`` holds
    exactly because the rate is derived, never stored.
    """

    excited_lifetime_ns: float = 26.2
    wavelength_nm: float = 780.0

    def __post_init__(self):
        if not (self.excited_lifetime_ns > 0 and self.wavelength_nm > 0):
            raise DomainError("species constants must be strictly positive")

    @property
    def lifetime_s(self) -> float:
        return self.excited_lifetime_ns * 1e-9

    @property
    def decay_rate_rad_per_s(self) -> float:
        return 1.0 / self.lifetime_s

    @property
    def wavelength_cm(self) -> float:
        return self.wavelength_nm * 1e-7

    @property
    def wavelength_um(self) -> float:
        return self.wavelength_nm * 1e-3

    def time_to_ns(self, t_natural):
        """Convert times in tau_a units to nanoseconds."""
        return t_natural * self.excited_lifetime_ns

    def density_to_per_cm3(self, n_per_lambda3: float) -> float:
        """Convert a density from atoms/lambda_a^3 to atoms/cm^3."""
        return n_per_lambda3 / self.wavelength_cm**3


@dataclass(frozen=True)
class PulseShape:
    """Excitation pulse envelope in natural units.

    kind: "step" turns on at t=0 and stays constant; "smooth_ramp" is a
    shifted error-function profile with the given 10-90 rise (in tau_a
    units), centered at t = rise_10_90 so it is essentially off at t=0.
    amplitude: peak Rabi frequency in units of Gamma_a.
    detuning: Delta = omega_atom - omega_laser in units of Gamma_a.
    """

    kind: str = "smooth_ramp"
    amplitude: float = 1e-3
    detuning: float = 0.0
    rise_10_90: float = 8.0 / 26.2   # 8 ns at the default lifetime

    def __post_init__(self):
        if self.kind not in ("step", "smooth_ramp"):
            raise DomainError(f"unknown pulse kind {self.kind!r}")
        if self.rise_10_90 < 0:
            raise DomainError("rise_10_90 must be >= 0")
        if self.amplitude < 0:
            raise DomainError("amplitude must be >= 0")
        if self.amplitude > 0.1:
            warnings.warn(
                "pulse amplitude exceeds 0.1*Gamma_a; the weak-excitation "
                "analysis assumes |Omega| << Gamma_a",
                stacklevel=2,
            )

    def envelope(self, t):
        """Drive amplitude Omega(t) in Gamma_a units (array-safe, real).

        The ramp is amplitude * (1 + erf((t - rise_10_90) / (sqrt(2) s))) / 2,
        with erf taken elementwise from the standard library's ``math.erf``,
        so a ramped pulse needs no scipy.  The result has the shape of t.
        """
        import numpy as np

        t = np.asarray(t, dtype=float)
        if self.kind == "step" or self.rise_10_90 == 0.0:
            return np.where(t >= 0.0, self.amplitude, 0.0)
        # 10-90 width of an erf ramp is 2*1.28155*s for the underlying
        # gaussian of std s
        s = self.rise_10_90 / 2.5631031310892007
        x = (t - self.rise_10_90) / (math.sqrt(2.0) * s)
        erf = np.asarray(np.frompyfunc(math.erf, 1, 1)(x), dtype=float)
        return self.amplitude * 0.5 * (1.0 + erf)


@dataclass(frozen=True)
class EnsembleConfig:
    """Disordered-ensemble geometry and dephasing inputs.

    Geometry is a uniform rectangular box with sides in lambda_a units.
    ``atom_count == 0`` is accepted so the empty-ensemble limit of the
    optical-depth map is well defined; the samplers and solvers require
    at least one atom.  A packing that provably cannot hold the atoms at
    their pair exclusion is refused here, before any sampling.
    """

    atom_count: int = 500
    box: tuple[float, float, float] = (50.0, 50.0, 50.0)
    beta_over_2pi_hz_cm3: float = 0.0
    min_pair_separation: float = 0.05
    rng_seed: int = 1
    realization_count: int = 10

    def __post_init__(self):
        if self.atom_count < 0:
            raise DomainError("atom_count must be >= 0")
        if len(self.box) != 3 or any(a <= 0 for a in self.box):
            raise DomainError("box sides must be three strictly positive lengths")
        if self.min_pair_separation >= min(self.box):
            raise DomainError(f"min_pair_separation {self.min_pair_separation:g} must be "
                              f"smaller than the box {self.box}")
        if self.min_pair_separation < 0:
            raise DomainError("min_pair_separation must be >= 0")
        # balls of radius r_min/2 around the atoms are disjoint and lie inside
        # the box grown by r_min/2 on every side: more volume than that is
        # provably impossible, whatever the rejection sampler would do
        r_min = self.min_pair_separation
        if (self.atom_count * (math.pi / 6.0) * r_min**3
                > math.prod(a + r_min for a in self.box)):
            raise DomainError(f"{self.atom_count} atoms with pair exclusion {r_min:g} "
                              f"cannot fit in box {self.box}")
        if self.beta_over_2pi_hz_cm3 < 0:
            raise DomainError("dephasing coefficient must be >= 0")
        if self.realization_count < 1:
            raise DomainError("realization_count must be >= 1")
        if self.rng_seed < 0:
            raise DomainError("rng_seed must be >= 0")

    @property
    def volume(self) -> float:
        ax, ay, az = self.box
        return ax * ay * az

    @property
    def density(self) -> float:
        """Number density in atoms/lambda_a^3."""
        return self.atom_count / self.volume

    def gamma_dd(self, species: AtomicSpecies) -> float:
        """Density-dependent dephasing rate gamma_DD = beta*n in Gamma_a units."""
        n_cm3 = species.density_to_per_cm3(self.density)
        return gamma_dd_from_beta(self.beta_over_2pi_hz_cm3, n_cm3, species)


def gamma_dd_from_beta(beta_over_2pi_hz_cm3: float, density_per_cm3: float,
                       species: AtomicSpecies = AtomicSpecies()) -> float:
    """Dephasing rate gamma_DD = beta*n, returned in units of Gamma_a.

    ``beta`` is supplied as beta/2pi in Hz cm^3 (the conventional quote),
    so gamma_DD = 2*pi*(beta/2pi)*n in rad/s, then divided by Gamma_a.
    """
    if beta_over_2pi_hz_cm3 < 0 or density_per_cm3 < 0:
        raise DomainError("dephasing coefficient and density must be >= 0")
    gamma_dd_rad_per_s = TWO_PI * beta_over_2pi_hz_cm3 * density_per_cm3
    return gamma_dd_rad_per_s * species.lifetime_s


def optical_depth_from_geometry(config: EnsembleConfig) -> float:
    """On-resonance steady-state optical depth sigma_ss of a uniform box.

    sigma_ss = n * sigma_0 * L with sigma_0 = 3 lambda^2/(2 pi) and the
    propagation length L equal to the box side along z.
    """
    return config.density * RESONANT_CROSS_SECTION * config.box[2]


def box_side_for_sigma_ss(sigma_ss: float, atom_count: int) -> float:
    """Cube side (lambda_a units) giving the requested optical depth.

    Inverts sigma_ss = 3 N / (2 pi a^2) for a cube of side a.
    """
    if sigma_ss <= 0 or atom_count < 1:
        raise DomainError("need sigma_ss > 0 and at least one atom")
    return math.sqrt(3.0 * atom_count / (TWO_PI * sigma_ss))


# ----------------------------------------------------------------------
# config file parsing (SI units at the boundary; see docs/config_schema.json)

def species_from_dict(d: dict) -> AtomicSpecies:
    d = _section(d, "species", ("excited_lifetime_ns", "wavelength_nm"))
    return AtomicSpecies(
        excited_lifetime_ns=_number(d, "excited_lifetime_ns", 26.2),
        wavelength_nm=_number(d, "wavelength_nm", 780.0),
    )


def pulse_from_dict(d: dict, species: AtomicSpecies) -> PulseShape:
    d = _section(d, "pulse", ("kind", "rabi_peak_rad_per_s", "detuning_rad_per_s",
                              "rise_10_90_ns"))
    gamma = species.decay_rate_rad_per_s
    kind = d.get("kind", "smooth_ramp")
    amp = _number(d, "rabi_peak_rad_per_s", 1e-3 * gamma) / gamma
    det = _number(d, "detuning_rad_per_s", 0.0) / gamma
    rise = _number(d, "rise_10_90_ns", 8.0) / species.excited_lifetime_ns
    return PulseShape(kind=kind, amplitude=amp, detuning=det, rise_10_90=rise)


def ensemble_from_dict(d: dict, species: AtomicSpecies) -> EnsembleConfig:
    """The ensemble section; its box keeps the default, because each
    collective point's cube comes from the sweep."""
    d = _section(d, "ensemble", ("atom_count", "beta_over_2pi_hz_cm3",
                                 "min_pair_separation_um", "rng_seed", "realization_count"))
    lam_um = species.wavelength_um
    return EnsembleConfig(
        atom_count=_integer(d, "atom_count", 500),
        beta_over_2pi_hz_cm3=_number(d, "beta_over_2pi_hz_cm3", 0.0),
        min_pair_separation=_number(d, "min_pair_separation_um", 0.05 * lam_um) / lam_um,
        rng_seed=_integer(d, "rng_seed", 1),
        realization_count=_integer(d, "realization_count", 10),
    )


def _section(d, name: str, keys: tuple[str, ...]) -> dict:
    """``d``, checked to be a JSON object that holds only ``keys``: a
    misspelt key would otherwise be ignored, and a different experiment
    run.  Anything else raises ConfigError naming the section and key."""
    if not isinstance(d, dict):
        raise ConfigError(f"{name} must be a JSON object, got {d!r}")
    for key in d:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in {name}")
    return d


def _integer(d: dict, key: str, default: int) -> int:
    """``d[key]`` as an int; a JSON number with a fractional part, a
    boolean or a string raises ConfigError instead of being truncated."""
    value = d.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _number(d: dict, key: str, default: float) -> float:
    """``d[key]`` as a float; a boolean, a string or a value that is not
    finite raises ConfigError instead of being converted."""
    return _finite_number(key, d.get(key, default))


def _numbers(d: dict, key: str, default: list | None = None) -> tuple[float, ...]:
    """``d[key]``, a list of numbers each checked as by _number, as a tuple
    of floats.  Without a default the key is required (KeyError)."""
    values = d[key] if default is None else d.get(key, default)
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{key} must be a list of numbers, got {values!r}")
    return tuple(_finite_number(key, v) for v in values)


def _finite_number(key: str, value) -> float:
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:     # an integer too large for a float
            pass
    raise ConfigError(f"{key} must be a finite number, got {value!r}")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config number {text} is not finite")
    return value


def load_config_dict(path) -> dict:
    """The JSON object in ``path``; NaN, Infinity and float literals that
    overflow (such as 1e999) raise ConfigError."""
    try:
        with open(path) as fh:
            data = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data
