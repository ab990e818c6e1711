"""Configuration-driven experiment runner.

Each built-in recipe reproduces one of the theory curves as a deterministic
parameter sweep; custom sweeps load from a JSON file with the same fields
(see docs/config_schema.json).  Every sweep point is fitted for its
rise-time and lands as one CSV row; traces, per-realization data, and a
provenance sidecar are written next to it.
"""

from __future__ import annotations

import datetime
import functools
import hashlib
import json
import math
import os
import subprocess
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, analysis, coupled_dipole, maxwell_bloch
from .core import (AtomicSpecies, ConfigError, DomainError, EnsembleConfig,
                   PulseShape, _number, _numbers, _section, box_side_for_sigma_ss,
                   ensemble_from_dict, load_config_dict, optical_depth_from_geometry,
                   pulse_from_dict, species_from_dict)

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
#: refused at load.  Catalog recipes are estimated at 15 MiB or less (the
#: 1200 traces of fig7_beta and fig9_scalar_vs_vectorial, fitted in one
#: block; every other recipe 6 MiB or less).  An N = 1500 collective sweep
#: is estimated at 52 MiB when a point may read S >= 1 - delta (beta = 0),
#: and at 18.8 MiB when every read is provably below it (peak_bytes), as at
#: the best-fit beta; 2 GiB admits N up to about 9400 for the first kind
#: and about 22 300 for the second
MEMORY_BUDGET = 2 * 1024**3
#: N x N float64 arrays live at once in a collective realization that may
#: be certified: the dense H0, the input copy and the factor of its
#: Cholesky certificate.  A failed factorization ends the point, so no
#: eigensolver workspace follows it: an upper bound for every recipe.  A
#: sweep that provably certifies nothing holds H0 as block rows instead,
#: about half of one such array (peak_bytes)
CD_LIVE_MATRICES = 3
#: Maxwell-Bloch bytes per z node and batch row: the RK4 state with the
#: field (64), the stage state (48), k1..k4 (192) and seven complex z
#: buffers (112: the trapezoid pairs and sums, a scratch plane, two per-row
#: constants, and the boundary drive at the midpoint and at t_{k+1})
MB_NODE_BYTES = 416
#: per recorded (z, t) sample and row: rho01 and the field (complex, 32)
#: and the two populations (real, 16)
MB_SAMPLE_BYTES = 48
#: per time level and row: the complex boundary drive at t_k and at the RK4
#: midpoints (32), with room for the shared time axis (8) and the loop's
#: fixed 15 KB of views and small arrays
MB_STEP_BYTES = 64

#: failures that end a sweep early (OSError: an output that cannot be
#: written); the completed rows are still written
FIT_ERRORS = (analysis.FitError, analysis.DegenerateTraceError)
MODEL_ERRORS = (coupled_dipole.PerturbativeBoundError,
                coupled_dipole.DensityTooHighError, DomainError)
SWEEP_ERRORS = FIT_ERRORS + MODEL_ERRORS + (OSError,)


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
        if not self.pulse.amplitude > 0:
            raise ConfigError("pulse rabi_peak_rad_per_s must be > 0")
        if self.model == "coupled_dipole" and self.ensemble.atom_count < 1:
            raise ConfigError("the coupled_dipole model needs ensemble.atom_count >= 1")
        # the collective model solves a resonant step drive and reads only
        # the pulse amplitude, so any other pulse would be silently ignored
        if self.model == "coupled_dipole" and (self.pulse.kind != "step"
                                               or self.pulse.detuning != 0):
            raise ConfigError("the coupled_dipole model needs a step pulse on resonance")
        try:
            need = peak_bytes(self)
        except DomainError as exc:
            raise ConfigError(f"collective sweep point: {exc}") from exc
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
                "beta_over_2pi_hz_cm3": self.ensemble.beta_over_2pi_hz_cm3,
                "min_pair_separation_um": self.ensemble.min_pair_separation * lam_um,
                "rng_seed": self.ensemble.rng_seed,
                "realization_count": self.ensemble.realization_count,
            },
        }


def peak_bytes(recipe: ExperimentRecipe) -> int:
    """Estimated peak memory of running ``recipe``, from its sizes alone.

    Collective: every point's EnsembleConfig is built (_cd_points), so a
    geometry it refuses raises DomainError here.  The estimate is the
    larger of the model pass and the fit.  The model pass is
    CD_LIVE_MATRICES N x N float64 arrays, unless every point provably
    reads its geometry uncertified: sampling keeps every pair at least the
    pair exclusion apart, so the Gram margin at the exclusion bounds every
    geometry's delta, and a sweep whose largest S is below 1 minus that
    margin holds H0 as its upper block rows (coupled_dipole.H0_BLOCK_ROWS).
    It is then charged those rows and the ten pair arrays of the widest
    ASSEMBLY_BLOCK x N assembly piece (_exchange's three separation
    components and seven more); the Lanczos vectors, 16 bytes per atom
    each, stay below that up to 128 steps (the sweeps here take tens).  A
    zero exclusion proves nothing.  The fit holds every realization's
    dipole trace and its sigma and u_sigma, each point's mean and standard
    error on T_POINTS, and one fit block (analysis.fit_peak_bytes).
    Maxwell-Bloch: the largest batch of points sharing a z grid, each row
    holding its recorded planes (both ends, or every node with
    ``dump_grid``) and the larger of its RK4 buffers (z_steps + 1 nodes and
    the boundary drive at every time level) and its share of the fit: two
    intensities, sigma and u_sigma at every time level, and the fit block.
    """
    if recipe.model == "coupled_dipole":
        configs = [config for _, _, config in _cd_points(recipe, recipe.ensemble.rng_seed)]
        points, rows = len(configs), len(configs) * recipe.ensemble.realization_count
        n, r_min = recipe.ensemble.atom_count, recipe.ensemble.min_pair_separation
        model = CD_LIVE_MATRICES * 8 * n**2
        if r_min > 0 and max(coupled_dipole.suppression_factor(c.gamma_dd(recipe.species))
                             for c in configs) < 1.0 - coupled_dipole._gram_margin(n, r_min):
            height = coupled_dipole.H0_BLOCK_ROWS
            model = 8 * (sum(min(height, n - s) * (n - s) for s in range(0, n, height))
                         + 10 * coupled_dipole.ASSEMBLY_BLOCK * n)
        t = coupled_dipole.T_POINTS
        return max(model,
                   (3 * rows + 2 * points) * 8 * len(t) + analysis.fit_peak_bytes(t, rows))
    t_steps = round(maxwell_bloch.DEFAULT_STEPS_PER_TAU * maxwell_bloch.DEFAULT_T_MAX) + 1
    t = np.linspace(0.0, maxwell_bloch.DEFAULT_T_MAX, t_steps)
    return max(len(batch) * t_steps * (z + 1 if recipe.dump_grid else 2) * MB_SAMPLE_BYTES
               + max(len(batch) * ((z + 1) * MB_NODE_BYTES + t_steps * MB_STEP_BYTES),
                     len(batch) * 4 * 8 * t_steps + analysis.fit_peak_bytes(t, len(batch)))
               for z, batch in _mb_batches(recipe).items())


def recipe_from_dict(data: dict) -> ExperimentRecipe:
    try:
        _section(data, "config", ("name", "model", "swept_parameter", "sweep_values",
                                  "mode", "sigma_ss_fixed", "od_grid", "dump_grid",
                                  "description", "species", "pulse", "ensemble"))
        if not isinstance(data.get("dump_grid", False), bool):
            raise ConfigError("dump_grid must be true or false")
        species = species_from_dict(data.get("species", {}))
        pulse = pulse_from_dict(data.get("pulse", {}), species)
        ensemble = ensemble_from_dict(data.get("ensemble", {}), species)
        return ExperimentRecipe(
            name=str(data["name"]),
            model=str(data["model"]),
            swept_parameter=str(data["swept_parameter"]),
            sweep_values=_numbers(data, "sweep_values"),
            species=species,
            pulse=pulse,
            ensemble=ensemble,
            mode=str(data.get("mode", "vectorial")),
            sigma_ss_fixed=_number(data, "sigma_ss_fixed", 0.5),
            od_grid=_numbers(data, "od_grid", []),
            dump_grid=data.get("dump_grid", False),
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


@functools.cache
def _git_hash() -> str:
    """Commit of the checkout the package was imported from, or "unknown".
    Asked of git once per process."""
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
    except KeyError:
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"


def _config_hash(recipe: ExperimentRecipe) -> str:
    blob = json.dumps(recipe.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_csv(path, header, columns):
    """One line per row of ``columns`` (equal-length sequences or arrays),
    floats as ``.12g`` and integers in full.  Arrays are read as Python
    numbers first, which format about twice as fast as numpy scalars; the
    line template is taken from the types of the first row."""
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    first = next(rows, None)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        if first is None:
            return
        line = ",".join("%s" if isinstance(v, (int, np.integer)) else "%.12g"
                        for v in first) + "\n"
        fh.write(line % first)
        fh.writelines(line % row for row in rows)


def _mb_batches(recipe: ExperimentRecipe) -> dict[int, list[tuple[int, PulseShape, float]]]:
    """The (index, pulse, optical depth) of every Maxwell-Bloch point, grouped
    by z steps: each group is propagated in one time loop.  The z steps grow
    with the depth and the sweep is monotone, so the groups are runs of
    consecutive points."""
    batches: dict = {}
    for index, value in enumerate(recipe.sweep_values):
        if recipe.swept_parameter == "sigma_ss":
            pulse, sigma_ss = recipe.pulse, value
        else:
            pulse, sigma_ss = replace(recipe.pulse, detuning=value), recipe.sigma_ss_fixed
        batches.setdefault(maxwell_bloch.default_z_steps(sigma_ss), []).append(
            (index, pulse, sigma_ss))
    return batches


def _fit_points(traces, per_point: int, error):
    """Fit the traces of consecutive points, ``per_point`` each, in one
    fit_rise_times call.  Returns the fits of the points before the first
    one that fails to fit, and the first failure in point order: that fit
    failure, else ``error`` (what ended the model pass, or None).  Each fit
    is that of its trace alone, so the refit of the points before a failure
    gives their fits bit for bit."""
    if not traces:
        return [], error
    try:
        return analysis.fit_rise_times(traces), error
    except FIT_ERRORS as exc:
        return analysis.fit_rise_times(traces[:exc.index - exc.index % per_point]), exc


def _mb_rows(recipe: ExperimentRecipe, run_dir: str, base_seed: int):
    """Propagate each z-grid batch once and fit its traces in one call, then
    write and yield its points in order.  A failure ends the sweep after the
    points before it: the first trace that cannot be built stops the batch's
    model pass, and the points from the first one that fails to fit on are
    dropped.  Only a ``dump_grid`` recipe keeps and writes the full grids."""
    species = recipe.species
    for batch in _mb_batches(recipe).values():
        grids = maxwell_bloch.propagate_batch(
            [pulse for _, pulse, _ in batch], [sigma_ss for _, _, sigma_ss in batch],
            full_grid=recipe.dump_grid)
        done, traces, error = [], [], None
        for (index, pulse, sigma_ss), grid in zip(batch, grids):
            try:
                trace = maxwell_bloch.transmission_from_grid(grid, pulse)
                traces.append(analysis.optical_depth_trace(trace))
            except FIT_ERRORS + MODEL_ERRORS as exc:
                error = exc
                break
            done.append((index, sigma_ss, trace, grid if recipe.dump_grid else None))
        # the other grids are freed before the fit and the next batch
        del grids, grid
        fits, error = _fit_points(traces, 1, error)
        for (index, sigma_ss, trace, grid), fit in zip(done, fits):
            _write_csv(os.path.join(run_dir, f"point_{index:02d}_trace.csv"),
                       ["t_ns", "I_input", "I_output"],
                       [species.time_to_ns(trace.t_points), trace.intensity_input,
                        trace.intensity_output])
            if recipe.dump_grid:
                np.savez(os.path.join(run_dir, f"point_{index:02d}_grid.npz"),
                         z_points=grid.z_points, t_ns=species.time_to_ns(grid.t_points),
                         rabi=grid.rabi, rho00=grid.rho00, rho11=grid.rho11,
                         rho01=grid.rho01, sigma_ss=grid.sigma_ss)
            yield SweepRow(swept_value=recipe.sweep_values[index], sigma_ss=sigma_ss,
                           tau_over_2tau_a=fit.tau / 2.0, tau_err_over_2tau_a=0.0,
                           seed=base_seed)
        if error is not None:
            raise error


def _cd_points(recipe: ExperimentRecipe, base_seed: int):
    """(swept value, point index, EnsembleConfig) of every collective point.

    Each config is the point's cube, beta, first seed and realization
    count, so building it checks the point's geometry (DomainError).  Point
    k runs seeds base_seed + k*M .. base_seed + k*M + M-1.  A beta sweep
    runs the optical-depth grid at every beta with the point index of the
    grid only, so all beta values see the same disorder realizations and
    the suppression trend is not confounded by configuration noise."""
    ensemble = recipe.ensemble
    n_real = ensemble.realization_count

    def point(value, k, side, beta):
        return value, k, replace(ensemble, box=(side, side, side),
                                 rng_seed=base_seed + k * n_real,
                                 beta_over_2pi_hz_cm3=beta)

    def side(sigma_ss):
        return box_side_for_sigma_ss(sigma_ss, ensemble.atom_count)

    if recipe.swept_parameter == "beta":
        return [point(beta, k, side(od), beta) for beta in recipe.sweep_values
                for k, od in enumerate(recipe.od_grid or DEFAULT_OD_GRID)]
    return [point(value, k, value if recipe.swept_parameter == "box_side" else side(value),
                  ensemble.beta_over_2pi_hz_cm3)
            for k, value in enumerate(recipe.sweep_values)]


def _cd_rows(recipe: ExperimentRecipe, run_dir: str, base_seed: int):
    """Run every collective point, fit all their traces in one call, then
    write and yield the points in order.

    A point runs the realizations of its config (see _cd_points) and its
    row holds the mean fitted tau and its standard error; a beta sweep's
    points write no traces.
    Point index k names a geometry: ``spectra`` is shared by every point,
    so k is sampled and read once, and certified then if any point at k
    reads S >= 1 - delta.  A failure ends the sweep after the points before
    it: the first model error stops the model pass, and the points from the
    first one that fails to fit on are dropped.
    """
    species, n_real = recipe.species, recipe.ensemble.realization_count
    points = _cd_points(recipe, base_seed)
    largest = {}
    for _, k, config in points:
        suppression = coupled_dipole.suppression_factor(config.gamma_dd(species))
        largest[k] = max(suppression, largest.get(k, suppression))
    spectra: dict = {}
    done, traces, error = [], [], None
    for value, k, config in points:
        sigma_ss = optical_depth_from_geometry(config)
        try:
            result = coupled_dipole.run_ensemble(config, species=species, pulse=recipe.pulse,
                                                 mode=recipe.mode, spectra=spectra,
                                                 largest_suppression=largest[k])
            traces += [analysis.trace_from_dipole(tr, sigma_ss) for tr in result.traces]
        except MODEL_ERRORS as exc:
            error = exc
            break
        # a beta sweep keeps only the traces it fits
        done.append((value, k, config, sigma_ss,
                     None if recipe.swept_parameter == "beta" else result))
    fits, error = _fit_points(traces, n_real, error)
    for (value, k, config, sigma_ss, result), start in zip(done, range(0, len(fits), n_real)):
        taus = np.asarray([fit.tau for fit in fits[start:start + n_real]])
        err = taus.std(ddof=1) / math.sqrt(len(taus)) if len(taus) > 1 else 0.0
        if result is not None:
            _write_cd_traces(os.path.join(run_dir, f"point_{k:02d}"), result,
                            sigma_ss, config.gamma_dd(species), species)
        yield SweepRow(swept_value=value, sigma_ss=sigma_ss,
                       tau_over_2tau_a=float(taus.mean() / 2.0),
                       tau_err_over_2tau_a=float(err / 2.0), seed=config.rng_seed)
    if error is not None:
        raise error


def _write_cd_traces(prefix, result, sigma_ss, gamma_dd, species):
    """The aggregate P(t) and each realization's trace and sidecar."""
    t_ns = species.time_to_ns(result.t_points)
    _write_csv(f"{prefix}_aggregate.csv", ["t_ns", "P_mean", "P_stderr"],
               [t_ns, result.p_mean, result.p_stderr])
    for r, (trace, realization, seed) in enumerate(
            zip(result.traces, result.realizations, result.seeds)):
        _write_csv(f"{prefix}_real_{r:02d}.csv", ["t_ns", "P_normalized"],
                   [t_ns, trace.p_normalized])
        meta = {"seed": seed, "positions_hash": realization.positions_hash(),
                "sigma_ss": sigma_ss, "gamma_dd_over_gamma": gamma_dd}
        with open(f"{prefix}_real_{r:02d}.json", "w") as fh:
            json.dump(meta, fh, indent=1, sort_keys=True)


def run_recipe(recipe: ExperimentRecipe, out_dir, seed: int | None = None,
               realizations: int | None = None) -> list[SweepRow]:
    """Execute every sweep point, fit rise-times, write CSV + JSON outputs,
    and return the rows.

    The model's row generator (_mb_rows or _cd_rows) runs its points, fits
    their traces in one call (per z-grid batch for Maxwell-Bloch), then
    writes each point's traces before yielding its row, so a rerun with the
    same seeds is byte-identical.  A fit, model or write failure
    (SWEEP_ERRORS) ends the sweep: sweep.csv holds the rows of the points
    before the first failure in point order, no later point writes a file,
    and sweep_meta.json is marked incomplete with an ``error`` record
    naming that failure.  Fit failures are then re-raised as FitError, the
    others as their own type; an OSError keeps its errno and filename.
    When sweep.csv or sweep_meta.json cannot be written either, that
    OSError is raised instead.  ``realizations`` overrides the recipe's
    realization count, and a recipe whose override exceeds MEMORY_BUDGET
    is refused with ConfigError before anything is written.
    """
    base_seed = recipe.ensemble.rng_seed if seed is None else int(seed)
    if base_seed < 0:
        raise ConfigError("seed must be >= 0")
    if realizations is not None:
        if int(realizations) < 1:
            raise ConfigError("realizations must be >= 1")
        # rebuilt, so that the memory budget is checked for the override
        recipe = replace(recipe, ensemble=replace(recipe.ensemble,
                                                  realization_count=int(realizations)))
    n_real = recipe.ensemble.realization_count
    run_dir = os.path.join(str(out_dir), recipe.name)
    os.makedirs(run_dir, exist_ok=True)

    rows = (_mb_rows(recipe, run_dir, base_seed) if recipe.model == "maxwell_bloch"
            else _cd_rows(recipe, run_dir, base_seed))
    collected: list[SweepRow] = []
    error: Exception | None = None
    try:
        for row in rows:
            collected.append(row)
    except SWEEP_ERRORS as exc:
        error = exc

    meta = {
        "recipe": recipe.name,
        "config_hash": _config_hash(recipe),
        "git_hash": _git_hash(),
        "versions": {"subabsorb": __version__, "numpy": np.__version__,
                     "blas": _blas_build()},
        "base_seed": base_seed,
        "realizations": n_real,
        "complete": error is None,
        "config": recipe.to_dict(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if error is not None:
        meta["error"] = {"type": type(error).__name__, "message": str(error)}
    header = ["swept_value", "sigma_ss", "tau_over_2tau_a", "tau_err_over_2tau_a", "seed"]
    _write_csv(os.path.join(run_dir, "sweep.csv"), header,
               [[getattr(r, name) for r in collected] for name in header])
    with open(os.path.join(run_dir, "sweep_meta.json"), "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)

    if error is not None:
        head, tail = f"sweep {recipe.name} aborted: ", f"; partial results in {run_dir}"
        if isinstance(error, FIT_ERRORS):
            raise analysis.FitError(f"{head}{error}{tail}") from error
        if isinstance(error, OSError) and error.errno is not None:
            # keeps errno and filename, which str() shows as OSError does
            raise type(error)(error.errno, f"{head}{error.strerror}{tail}",
                              error.filename) from error
        raise type(error)(f"{head}{error}{tail}") from error
    return collected
