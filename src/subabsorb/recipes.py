"""Configuration-driven experiment runner.

Each built-in recipe reproduces one of the theory curves as a deterministic
parameter sweep; custom sweeps load from a JSON file with the same fields
(see docs/config_schema.json).  Every sweep point is fitted for its
rise-time and lands as one CSV row; traces, per-realization data, and a
provenance sidecar are written next to it.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import math
import os
import subprocess
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, analysis, coupled_dipole, maxwell_bloch
from .core import (AtomicSpecies, ConfigError, DomainError, EnsembleConfig,
                   PulseShape, box_side_for_sigma_ss, ensemble_from_dict,
                   load_config_dict, optical_depth_from_geometry, pulse_from_dict,
                   species_from_dict)

#: the parameters each model can sweep
MODEL_PARAMETERS = {
    "maxwell_bloch": ("sigma_ss", "detuning"),
    "coupled_dipole": ("sigma_ss", "box_side", "beta"),
}

#: dephasing coefficients (beta/2pi, Hz cm^3) of the standard suppression sweep
BETA_SET = (0.0, 9e-7, 2.8e-6, 9e-6, 2.8e-5, 9e-5)
BEST_BETA = 4.9e-5

DEFAULT_OD_GRID = tuple(float(x) for x in np.geomspace(0.02, 2.0, 20))

#: largest estimated peak memory (bytes) of a recipe; anything above it is
#: refused at load.  Catalog recipes are estimated at 6 MiB or less and an
#: N = 1500 collective sweep at 52 MiB; 2 GiB admits N up to about 9400
MEMORY_BUDGET = 2 * 1024**3
#: N x N float64 arrays live at once in a collective realization: H0, and
#: the input copy and the factor of its Cholesky certificate
CD_LIVE_MATRICES = 3
#: Maxwell-Bloch bytes per z node and batch row of the RK4 state and its
#: stage temporaries, and per recorded (z, t) sample and row
MB_NODE_BYTES = 640
MB_SAMPLE_BYTES = 48

#: failures that end a sweep early; the completed rows are still written
FIT_ERRORS = (analysis.FitError, analysis.DegenerateTraceError)
MODEL_ERRORS = (coupled_dipole.PerturbativeBoundError,
                coupled_dipole.DensityTooHighError, DomainError)
SWEEP_ERRORS = FIT_ERRORS + MODEL_ERRORS


@dataclass(frozen=True)
class ExperimentRecipe:
    name: str
    model: str
    swept_parameter: str
    sweep_values: tuple[float, ...]
    species: AtomicSpecies = AtomicSpecies()
    pulse: PulseShape = PulseShape()
    ensemble: EnsembleConfig = EnsembleConfig()
    mode: str = "vectorial"
    sigma_ss_fixed: float = 0.5        # optical depth for non-sigma_ss MB sweeps
    od_grid: tuple[float, ...] = ()    # inner optical-depth grid for beta sweeps
    dump_grid: bool = False
    description: str = ""

    def __post_init__(self):
        # the name is the run directory under --out, so it must not leave it
        if self.name in ("", ".", "..") or os.path.split(self.name) != ("", self.name):
            raise ConfigError(f"recipe name {self.name!r} is not one plain path component")
        if self.mode not in ("vectorial", "scalar"):
            raise ConfigError(f"unknown coupling mode {self.mode!r}")
        if self.model not in MODEL_PARAMETERS:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.swept_parameter not in MODEL_PARAMETERS[self.model]:
            raise ConfigError(f"swept parameter {self.swept_parameter!r} not supported "
                              f"by the {self.model} model")
        if len(self.sweep_values) == 0:
            raise ConfigError("sweep_values must be non-empty")
        diffs = np.diff(self.sweep_values)
        if len(diffs) and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ConfigError("sweep_values must be strictly monotone")
        depths = (self.sigma_ss_fixed,) + self.od_grid
        if self.swept_parameter == "sigma_ss":
            depths += self.sweep_values
        if min(depths) <= 0:
            raise ConfigError("sigma_ss values, sigma_ss_fixed and od_grid must be > 0")
        if (self.swept_parameter == "box_side"
                and min(self.sweep_values) <= self.ensemble.min_pair_separation):
            raise ConfigError("box_side values must exceed min_pair_separation")
        if self.model == "coupled_dipole" and self.ensemble.atom_count < 1:
            raise ConfigError("the coupled_dipole model needs ensemble.atom_count >= 1")
        need = peak_bytes(self)
        if need > MEMORY_BUDGET:
            raise ConfigError(f"recipe {self.name!r} needs about {need / 2**30:.3g} GiB, "
                              f"above the {MEMORY_BUDGET / 2**30:g} GiB memory budget")

    def to_dict(self) -> dict:
        lam_um = self.species.wavelength_um
        gamma = self.species.decay_rate_rad_per_s
        return {
            "name": self.name,
            "model": self.model,
            "swept_parameter": self.swept_parameter,
            "sweep_values": list(self.sweep_values),
            "mode": self.mode,
            "sigma_ss_fixed": self.sigma_ss_fixed,
            "od_grid": list(self.od_grid),
            "dump_grid": self.dump_grid,
            "species": {
                "excited_lifetime_ns": self.species.excited_lifetime_ns,
                "wavelength_nm": self.species.wavelength_nm,
            },
            "pulse": {
                "kind": self.pulse.kind,
                "rabi_peak_rad_per_s": self.pulse.amplitude * gamma,
                "detuning_rad_per_s": self.pulse.detuning * gamma,
                "rise_10_90_ns": self.pulse.rise_10_90 * self.species.excited_lifetime_ns,
            },
            "ensemble": {
                "atom_count": self.ensemble.atom_count,
                "box_side_um": [a * lam_um for a in self.ensemble.box],
                "beta_over_2pi_hz_cm3": self.ensemble.beta_over_2pi_hz_cm3,
                "min_pair_separation_um": self.ensemble.min_pair_separation * lam_um,
                "rng_seed": self.ensemble.rng_seed,
                "realization_count": self.ensemble.realization_count,
            },
        }


def peak_bytes(recipe: ExperimentRecipe) -> int:
    """Estimated peak memory of running ``recipe``, from its sizes alone.

    Collective: CD_LIVE_MATRICES N x N float64 arrays.  Maxwell-Bloch: the
    largest batch of points sharing a z grid, each row holding its RK4
    state on z_steps + 1 nodes and its recorded planes (both ends, or every
    node with ``dump_grid``) at every time step.
    """
    if recipe.model == "coupled_dipole":
        return CD_LIVE_MATRICES * 8 * recipe.ensemble.atom_count**2
    batches = Counter(maxwell_bloch.default_z_steps(_mb_input(recipe, value)[1])
                      for value in recipe.sweep_values)
    t_steps = round(maxwell_bloch.DEFAULT_STEPS_PER_TAU * maxwell_bloch.DEFAULT_T_MAX) + 1
    return max(rows * ((z + 1) * MB_NODE_BYTES
                       + (z + 1 if recipe.dump_grid else 2) * t_steps * MB_SAMPLE_BYTES)
               for z, rows in batches.items())


def recipe_from_dict(data: dict) -> ExperimentRecipe:
    try:
        species = species_from_dict(data.get("species", {}))
        pulse = pulse_from_dict(data.get("pulse", {}), species)
        ensemble = ensemble_from_dict(data.get("ensemble", {}), species)
        return ExperimentRecipe(
            name=str(data["name"]),
            model=str(data["model"]),
            swept_parameter=str(data["swept_parameter"]),
            sweep_values=tuple(float(v) for v in data["sweep_values"]),
            species=species,
            pulse=pulse,
            ensemble=ensemble,
            mode=str(data.get("mode", "vectorial")),
            sigma_ss_fixed=float(data.get("sigma_ss_fixed", 0.5)),
            od_grid=tuple(float(v) for v in data.get("od_grid", [])),
            dump_grid=bool(data.get("dump_grid", False)),
            description=str(data.get("description", "")),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad recipe config: {exc}") from exc


def load_recipe(path) -> ExperimentRecipe:
    return recipe_from_dict(load_config_dict(path))


def recipe_catalog() -> list[ExperimentRecipe]:
    """Built-in recipes, one per reproduced theory figure."""
    step = PulseShape(kind="step")
    n500 = EnsembleConfig(atom_count=500, rng_seed=1000, realization_count=10)
    return [
        ExperimentRecipe(
            name="fig4a_mb", model="maxwell_bloch", swept_parameter="sigma_ss",
            sweep_values=tuple(float(x) for x in np.geomspace(0.024, 1.11, 16)),
            description="propagation-model rise-time vs steady-state optical depth"),
        ExperimentRecipe(
            name="fig4b_best_beta", model="coupled_dipole", swept_parameter="sigma_ss",
            sweep_values=DEFAULT_OD_GRID, pulse=step,
            ensemble=replace(n500, beta_over_2pi_hz_cm3=BEST_BETA),
            description="collective model at the best-fit dephasing coefficient"),
        ExperimentRecipe(
            name="fig6_boxes", model="coupled_dipole", swept_parameter="box_side",
            sweep_values=(50.0, 20.0, 15.0, 12.0), pulse=step, ensemble=n500,
            description="dipole build-up for shrinking cubes at fixed atom number"),
        ExperimentRecipe(
            name="fig7_beta", model="coupled_dipole", swept_parameter="beta",
            sweep_values=BETA_SET, od_grid=DEFAULT_OD_GRID, pulse=step, ensemble=n500,
            description="rise-time vs optical depth for the dephasing-coefficient family"),
        ExperimentRecipe(
            name="fig8_trace", model="maxwell_bloch", swept_parameter="sigma_ss",
            sweep_values=(0.5,), dump_grid=True,
            description="single propagation run with the full space-time grid dump"),
        ExperimentRecipe(
            name="fig9_scalar_vs_vectorial", model="coupled_dipole",
            swept_parameter="beta", sweep_values=BETA_SET, od_grid=DEFAULT_OD_GRID,
            pulse=step, ensemble=n500, mode="scalar",
            description="the fig7 family with the coupling angle fixed to zero"),
        ExperimentRecipe(
            name="fig10_detuning", model="maxwell_bloch", swept_parameter="detuning",
            sweep_values=(0.0, 1.0 / 3.0, 0.5), sigma_ss_fixed=0.5,
            description="absorption transients at fixed optical depth and three detunings"),
        ExperimentRecipe(
            name="fig11_detuning_sweep", model="maxwell_bloch",
            swept_parameter="detuning",
            sweep_values=tuple(round(0.1 * k, 10) for k in range(12)),
            sigma_ss_fixed=1.0,
            description="rise-time vs laser detuning near unit optical depth"),
    ]


def get_recipe(name: str) -> ExperimentRecipe:
    for recipe in recipe_catalog():
        if recipe.name == name:
            return recipe
    raise ConfigError(f"no recipe named {name!r}; try 'subabsorb list'")


# ----------------------------------------------------------------------
# execution

@dataclass(frozen=True)
class SweepRow:
    swept_value: float
    sigma_ss: float
    tau_over_2tau_a: float
    tau_err_over_2tau_a: float
    seed: int


@dataclass
class SweepResult:
    recipe: ExperimentRecipe
    rows: list[SweepRow]
    provenance: dict
    complete: bool = True


def _git_hash() -> str:
    """Commit of the checkout the package was imported from, or "unknown"."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=5,
                             cwd=os.path.dirname(os.path.abspath(__file__)))
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def _blas_build() -> str:
    """Name and version of the BLAS numpy was built against, or "unknown"."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):           # older numpy has no dict mode
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"


def _config_hash(recipe: ExperimentRecipe) -> str:
    blob = json.dumps(recipe.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _mb_input(recipe: ExperimentRecipe, value: float) -> tuple[PulseShape, float]:
    """The pulse and optical depth of the Maxwell-Bloch point ``value``."""
    if recipe.swept_parameter == "sigma_ss":
        return recipe.pulse, value
    return replace(recipe.pulse, detuning=value), recipe.sigma_ss_fixed


def _mb_grids(recipe: ExperimentRecipe, index: int) -> dict:
    """Grids of point ``index`` and of every point on the same z grid,
    propagated in one time loop and keyed by point index.  Only a
    ``dump_grid`` recipe keeps the full grids."""
    inputs = [_mb_input(recipe, value) for value in recipe.sweep_values]
    z_steps = maxwell_bloch.default_z_steps(inputs[index][1])
    group = [i for i, (_, sigma_ss) in enumerate(inputs)
             if maxwell_bloch.default_z_steps(sigma_ss) == z_steps]
    grids = maxwell_bloch.propagate_batch([inputs[i][0] for i in group],
                                          [inputs[i][1] for i in group],
                                          full_grid=recipe.dump_grid)
    return dict(zip(group, grids))


def _mb_point(recipe: ExperimentRecipe, value: float, seed: int, grid):
    pulse, sigma_ss = _mb_input(recipe, value)
    trace = maxwell_bloch.transmission_from_grid(grid, pulse)
    fit = analysis.fit_rise_time(analysis.optical_depth_trace(trace))
    row = SweepRow(swept_value=value, sigma_ss=sigma_ss,
                   tau_over_2tau_a=fit.tau / 2.0, tau_err_over_2tau_a=0.0, seed=seed)
    artifacts = {"trace": trace}
    if recipe.dump_grid:
        artifacts["grid"] = grid
    return row, artifacts


def _cd_point(recipe: ExperimentRecipe, value: float, side: float, beta: float,
              seed: int, realizations: int, spectra: dict):
    """Realizations seed .. seed+M-1 of a cube of side ``side`` at dephasing
    coefficient ``beta``; the row holds the mean fitted tau and its standard
    error.  ``spectra`` is shared by every point of the sweep, so a geometry
    seen again at another beta is sampled and read once.
    """
    config = replace(recipe.ensemble, box=(side, side, side), rng_seed=seed,
                     realization_count=realizations, beta_over_2pi_hz_cm3=beta)
    sigma_ss = optical_depth_from_geometry(config)
    result = coupled_dipole.run_ensemble(config, species=recipe.species,
                                         pulse=recipe.pulse, mode=recipe.mode,
                                         spectra=spectra)
    fits = analysis.fit_rise_times([analysis.trace_from_dipole(tr, sigma_ss)
                                    for tr in result.traces])
    taus = np.asarray([fit.tau for fit in fits])
    err = taus.std(ddof=1) / math.sqrt(len(taus)) if len(taus) > 1 else 0.0
    row = SweepRow(swept_value=value, sigma_ss=sigma_ss,
                   tau_over_2tau_a=float(taus.mean() / 2.0),
                   tau_err_over_2tau_a=float(err / 2.0), seed=seed)
    return row, {"ensemble": result, "config": config, "sigma_ss": sigma_ss}


def _write_mb_artifacts(out_dir, index, artifacts, species):
    trace = artifacts["trace"]
    t_ns = species.time_to_ns(trace.t_points)
    _write_csv(os.path.join(out_dir, f"point_{index:02d}_trace.csv"),
               ["t_ns", "I_input", "I_output"],
               zip(t_ns, trace.intensity_input, trace.intensity_output))
    grid = artifacts.get("grid")
    if grid is not None:
        np.savez_compressed(
            os.path.join(out_dir, f"point_{index:02d}_grid.npz"),
            z_points=grid.z_points, t_ns=species.time_to_ns(grid.t_points),
            rabi=grid.rabi, rho00=grid.rho00, rho11=grid.rho11, rho01=grid.rho01,
            sigma_ss=grid.sigma_ss)


def _write_cd_artifacts(out_dir, index, artifacts, species):
    result = artifacts["ensemble"]
    config = artifacts["config"]
    sigma_ss = artifacts["sigma_ss"]
    t_ns = species.time_to_ns(result.t_points)
    _write_csv(os.path.join(out_dir, f"point_{index:02d}_aggregate.csv"),
               ["t_ns", "P_mean", "P_stderr"],
               zip(t_ns, result.p_mean, result.p_stderr))
    gamma_dd = config.gamma_dd(species)
    for r, (trace, realization, seed) in enumerate(
            zip(result.traces, result.realizations, result.seeds)):
        _write_csv(os.path.join(out_dir, f"point_{index:02d}_real_{r:02d}.csv"),
                   ["t_ns", "P_normalized"], zip(t_ns, trace.p_normalized))
        meta = {"seed": seed, "positions_hash": realization.positions_hash(),
                "sigma_ss": sigma_ss, "gamma_dd_over_gamma": gamma_dd}
        with open(os.path.join(out_dir, f"point_{index:02d}_real_{r:02d}.json"),
                  "w") as fh:
            json.dump(meta, fh, indent=1, sort_keys=True)


def run_recipe(recipe: ExperimentRecipe, out_dir, seed: int | None = None,
               realizations: int | None = None) -> SweepResult:
    """Execute every sweep point, fit rise-times, write CSV + JSON outputs.

    Points run one after another and each writes its traces as it
    finishes, so a rerun with the same seeds is byte-identical.  Maxwell-
    Bloch points on a common z grid are propagated together, in one
    batched time loop, when the first of them is reached.  A fit or
    model failure (SWEEP_ERRORS) aborts the sweep with the completed rows
    flushed, the provenance marked incomplete and an ``error`` record; fit
    failures are re-raised as FitError, the others as their own type.
    """
    base_seed = recipe.ensemble.rng_seed if seed is None else int(seed)
    n_real = recipe.ensemble.realization_count if realizations is None else int(realizations)
    if n_real < 1:
        raise ConfigError("realizations must be >= 1")
    if base_seed < 0:
        raise ConfigError("seed must be >= 0")
    out_dir = str(out_dir)
    run_dir = os.path.join(out_dir, recipe.name)
    os.makedirs(run_dir, exist_ok=True)
    spectra: dict = {}      # realization spectra shared by every collective point
    ensemble = recipe.ensemble

    # (trace index, swept value, optical depth or cube side, beta, seed)
    if recipe.swept_parameter == "beta":
        # Every beta runs the optical-depth grid with seeds from the grid
        # index only, so all beta values see the same disorder realizations
        # and the suppression trend is not confounded by configuration
        # noise.  These points write no traces.
        od_grid = recipe.od_grid or DEFAULT_OD_GRID
        points = [(None, beta, od, beta, base_seed + k * n_real)
                  for beta in recipe.sweep_values for k, od in enumerate(od_grid)]
    else:
        points = [(index, value, value, ensemble.beta_over_2pi_hz_cm3,
                   base_seed + index * n_real)
                  for index, value in enumerate(recipe.sweep_values)]

    write = _write_mb_artifacts if recipe.model == "maxwell_bloch" else _write_cd_artifacts
    rows: list[SweepRow] = []
    error: Exception | None = None
    grids: dict = {}        # propagated Maxwell-Bloch points not yet fitted
    for index, value, depth_or_side, beta, point_seed in points:
        try:
            if recipe.model == "maxwell_bloch":
                if index not in grids:
                    grids.update(_mb_grids(recipe, index))
                row, artifacts = _mb_point(recipe, value, base_seed, grids.pop(index))
            else:
                side = depth_or_side if recipe.swept_parameter == "box_side" else \
                    box_side_for_sigma_ss(depth_or_side, ensemble.atom_count)
                row, artifacts = _cd_point(recipe, value, side, beta, point_seed,
                                           n_real, spectra)
        except SWEEP_ERRORS as exc:
            error = exc
            break
        rows.append(row)
        if index is not None:
            write(run_dir, index, artifacts, recipe.species)
    complete = error is None

    provenance = {
        "recipe": recipe.name,
        "config_hash": _config_hash(recipe),
        "git_hash": _git_hash(),
        "versions": {"subabsorb": __version__, "numpy": np.__version__,
                     "blas": _blas_build()},
        "base_seed": base_seed,
        "realizations": n_real,
        "complete": complete,
        "config": recipe.to_dict(),
    }
    if error is not None:
        provenance["error"] = {"type": type(error).__name__, "message": str(error)}
    _write_csv(os.path.join(run_dir, "sweep.csv"),
               ["swept_value", "sigma_ss", "tau_over_2tau_a", "tau_err_over_2tau_a",
                "seed"],
               [(r.swept_value, r.sigma_ss, r.tau_over_2tau_a, r.tau_err_over_2tau_a,
                 r.seed) for r in rows])
    meta = dict(provenance)
    meta["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(os.path.join(run_dir, "sweep_meta.json"), "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)

    result = SweepResult(recipe=recipe, rows=rows, provenance=provenance,
                         complete=complete)
    if error is not None:
        message = f"sweep {recipe.name} aborted: {error}; partial results in {run_dir}"
        if isinstance(error, FIT_ERRORS):
            raise analysis.FitError(message) from error
        raise type(error)(message) from error
    return result
