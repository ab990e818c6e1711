"""The four benchmark workloads.

Each workload writes its inputs (JSON sweep configs or photon-count trace
CSVs) from the seed, runs passes through ``subabsorb.cli.main`` in process,
and checks what a pass wrote.  An operation is one sweep row, or one fit
record for ``count_fits``; a pass attempts the same operations every time.

Configs start from a catalog recipe's own ``to_dict()``, so the species,
pulse, mode and dephasing match the catalog; the seed picks the sweep
points and the disorder seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import traceback

import numpy as np

import checks

LIFETIME_NS = 26.2
T_GRID = np.linspace(0.0, 8.0, 161)        # collective output times (tau_a)


def call_cli(cli, argv) -> int | None:
    """One in-process CLI call with its stdout discarded; None if it raised."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except Exception:                   # a failed operation, counted by the caller
            traceback.print_exc(file=sys.stderr)
            return None


def write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)


def stratified(rng, lo, hi, n, log=True):
    """n increasing values, one from the middle 80% of each of n equal bins."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    edges = np.linspace(a, b, n + 1)
    width = edges[1] - edges[0]
    x = edges[:-1] + width * (0.1 + 0.8 * rng.random(n))
    return [float(v) for v in (np.exp(x) if log else x)]


def read_rows(run_dir) -> np.ndarray:
    path = os.path.join(run_dir, "sweep.csv")
    rows = checks.read_csv(path) if os.path.exists(path) else np.empty(0)
    return rows if rows.size else np.empty((0, 5))


def output_files(pass_dir, suffixes) -> dict[str, bytes]:
    """Bytes of every file under pass_dir whose name ends in one of suffixes."""
    files = {}
    for base, _, names in os.walk(pass_dir):
        for name in names:
            if name.endswith(suffixes):
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, pass_dir)] = fh.read()
    return files


class Workload:
    name = ""
    compared_suffixes = (".csv",)

    def __init__(self, inputs_dir, seed):
        self.inputs_dir = inputs_dir
        self.rng = np.random.default_rng(seed)
        self.configs: list[tuple[str, str]] = []      # (recipe name, JSON path)

    def prepare(self, recipes):
        """Write the inputs from the seed."""
        raise NotImplementedError

    def config_paths(self) -> list[str]:
        """Configs a CLI invocation loads (timed in set-up)."""
        return [path for _, path in self.configs]

    def first_call(self, out_dir) -> list[str]:
        """argv of the smallest CLI call that finishes the lazy set-up."""
        raise NotImplementedError

    def run_pass(self, cli, out_dir) -> int:
        """One pass; returns the number of failed operations."""
        raise NotImplementedError

    def capture(self, modules):
        """Context manager recording what the checks need during one pass."""
        return contextlib.nullcontext()

    def checks(self, first_dir, last_dir) -> list[checks.Check]:
        return [checks.check_identical_files(
            output_files(first_dir, self.compared_suffixes),
            output_files(last_dir, self.compared_suffixes))]


class _SweepWorkload(Workload):
    """Workloads whose operations are the rows of JSON-config sweeps."""

    def __init__(self, inputs_dir, seed):
        super().__init__(inputs_dir, seed)
        self.rows_of: dict[str, int] = {}          # rows each config's sweep makes

    @property
    def ops_per_pass(self) -> int:
        return sum(self.rows_of.values())

    def _write_config(self, name, data, rows):
        path = os.path.join(self.inputs_dir, f"{name}.json")
        write_json(path, data)
        self.configs.append((name, path))
        self.rows_of[name] = rows

    def _write_probe(self, data):
        """Write the config that the set-up call runs."""
        self.tiny = os.path.join(self.inputs_dir, "setup_probe.json")
        write_json(self.tiny, dict(data, name="setup_probe"))

    def first_call(self, out_dir):
        return ["run", self.tiny, "--out", out_dir]

    def run_pass(self, cli, out_dir):
        failed = 0
        for name, path in self.configs:
            code = call_cli(cli, ["run", path, "--out", out_dir])
            if code != 0:
                rows = len(read_rows(os.path.join(out_dir, name)))
                failed += self.rows_of[name] - rows
        return failed


class _CollectiveWorkload(_SweepWorkload):
    """Coupled-dipole sweeps; realizations are captured for the P(t) check."""

    def capture(self, modules):
        cd = modules["coupled_dipole"]
        captured = self.captured = []
        original = cd.run_realization

        def recording(config, seed, *args, **kwargs):
            trace, realization = original(config, seed, *args, **kwargs)
            captured.append({"config": config, "positions": realization.positions,
                             "t_points": trace.t_points,
                             "p_normalized": trace.p_normalized})
            return trace, realization

        @contextlib.contextmanager
        def installed():
            cd.run_realization = recording
            try:
                yield
            finally:
                cd.run_realization = original

        return installed()

    def _write_probe(self, data, **sweep):
        """One point, one realization of 64 atoms, same model and pulse."""
        tiny = json.loads(json.dumps(data))
        tiny.update(sweep)
        tiny["ensemble"].update(atom_count=64, realization_count=1)
        super()._write_probe(tiny)

    def _dipole_check(self, picks, data) -> checks.Check:
        """P(t) check on the captured realizations at the picked indices.

        picks holds (capture index, requested sigma_ss, beta); the cube side
        and the suppression are recomputed here from the config's inputs.
        """
        species = data["species"]
        n = data["ensemble"]["atom_count"]
        samples = []
        for index, sigma, beta in picks:
            if index >= len(self.captured):
                return checks.Check("p_of_t_independent", False,
                                    f"realization {index} was not run")
            got = self.captured[index]
            side = math.sqrt(3.0 * n / (checks.TWO_PI * sigma))
            if (not np.allclose(got["config"].box, side, rtol=1e-12, atol=0.0)
                    or not np.allclose(got["t_points"], T_GRID, rtol=0.0, atol=1e-12)):
                return checks.Check("p_of_t_independent", False,
                                    f"realization {index} is not the sigma_ss = {sigma} "
                                    "cube on the 161-point time grid")
            g = checks.gamma_dd(beta, n, side, species["excited_lifetime_ns"],
                                species["wavelength_nm"])
            samples.append({"positions": got["positions"], "mode": data["mode"],
                            "suppression": 1.0 / (1.0 + g * g), "t_points": T_GRID,
                            "p_normalized": got["p_normalized"]})
        return checks.check_dipole_traces(samples)


class CollectiveBetaFamily(_CollectiveWorkload):
    """fig7 dephasing family: six beta over a seeded four-point optical-depth grid."""

    name = "collective_beta_family"

    def prepare(self, recipes):
        data = recipes.get_recipe("fig7_beta").to_dict()
        grid = ([float(self.rng.uniform(0.02, 0.04))]
                + stratified(self.rng, 0.1, 1.0, 2)
                + [float(self.rng.uniform(1.6, 2.0))])
        data.update(name="beta_family", od_grid=grid)
        data["ensemble"].update(rng_seed=int(self.rng.integers(1, 2**31)),
                                realization_count=1)
        self.data = data
        self._write_config("beta_family", data, len(data["sweep_values"]) * len(grid))
        self._write_probe(data, sweep_values=[0.0], od_grid=[1.0])

    def checks(self, first_dir, last_dir):
        data = self.data
        grid = data["od_grid"]
        betas = data["sweep_values"]
        rows = read_rows(os.path.join(first_dir, "beta_family"))
        requested = [od for _ in betas for od in grid]
        out = [checks.check_sigma_ss(rows, requested, data["ensemble"]["atom_count"])]
        if len(rows) == len(requested):
            out += [checks.check_dilute_law(rows), checks.check_dense_subabsorption(rows),
                    checks.check_beta_trend(rows)]
        # densest cube at the smallest and the largest beta (one realization each)
        last = len(grid) - 1
        picks = [(last, grid[-1], betas[0]),
                 ((len(betas) - 1) * len(grid) + last, grid[-1], betas[-1])]
        out.append(self._dipole_check(picks, data))
        return out + super().checks(first_dir, last_dir)


class CollectiveLargeN(_CollectiveWorkload):
    """sigma_ss sweep at N = 1500 and the best-fit beta, traces written."""

    name = "collective_large_n"
    atom_count = 1500
    realizations = 2

    def prepare(self, recipes):
        data = recipes.get_recipe("fig4b_best_beta").to_dict()
        sweep = [float(self.rng.uniform(0.05, 0.1)), float(self.rng.uniform(1.0, 2.0))]
        data.update(name="large_n", sweep_values=sweep)
        data["ensemble"].update(atom_count=self.atom_count,
                                rng_seed=int(self.rng.integers(1, 2**31)),
                                realization_count=self.realizations)
        self.data = data
        self._write_config("large_n", data, len(sweep))
        self._write_probe(data, sweep_values=[1.0])

    def checks(self, first_dir, last_dir):
        data = self.data
        sweep = data["sweep_values"]
        rows = read_rows(os.path.join(first_dir, "large_n"))
        out = [checks.check_sigma_ss(rows, sweep, self.atom_count)]
        if len(rows) == len(sweep):
            out.append(checks.check_dilute_law(rows))
        # first realization of the densest point
        beta = data["ensemble"]["beta_over_2pi_hz_cm3"]
        picks = [((len(sweep) - 1) * self.realizations, sweep[-1], beta)]
        out.append(self._dipole_check(picks, data))
        return out + super().checks(first_dir, last_dir)


class PropagationSweeps(_SweepWorkload):
    """fig4a_mb, fig8_trace (grid dump) and fig11_detuning_sweep, seeded points."""

    name = "propagation_sweeps"

    def prepare(self, recipes):
        fig4a = recipes.get_recipe("fig4a_mb").to_dict()
        lo, hi = fig4a["sweep_values"][0], fig4a["sweep_values"][-1]
        fig4a["sweep_values"] = stratified(self.rng, lo, hi, 4)
        fig8 = recipes.get_recipe("fig8_trace").to_dict()
        fig8["sweep_values"] = [float(self.rng.uniform(0.3, 0.7))]
        fig11 = recipes.get_recipe("fig11_detuning_sweep").to_dict()
        fig11["sweep_values"] = stratified(self.rng, 0.0, fig11["sweep_values"][-1], 3,
                                           log=False)
        self.data = {}
        for data in (fig4a, fig8, fig11):
            self.data[data["name"]] = data
            self._write_config(data["name"], data, len(data["sweep_values"]))
        self._write_probe(dict(fig8, dump_grid=False))

    def _traces(self, first_dir):
        traces = []
        for name, data in self.data.items():
            pulse = data["pulse"]
            gamma = 1e9 / data["species"]["excited_lifetime_ns"]
            for index, value in enumerate(data["sweep_values"]):
                path = os.path.join(first_dir, name, f"point_{index:02d}_trace.csv")
                if not os.path.exists(path):
                    continue
                arr = checks.read_csv(path)
                swept = data["swept_parameter"]
                traces.append({
                    "t": arr[:, 0] / data["species"]["excited_lifetime_ns"],
                    "i_in": arr[:, 1], "i_out": arr[:, 2],
                    "sigma_ss": value if swept == "sigma_ss" else data["sigma_ss_fixed"],
                    "detuning": (value if swept == "detuning"
                                 else pulse["detuning_rad_per_s"] / gamma),
                    "kind": pulse["kind"],
                    "rise": pulse["rise_10_90_ns"] / data["species"]["excited_lifetime_ns"]})
        return traces

    def checks(self, first_dir, last_dir):
        out = [checks.check_propagation_traces(self._traces(first_dir))]
        rows = read_rows(os.path.join(first_dir, "fig4a_mb"))
        out.append(checks.check_strictly_falling(rows[:, 1], rows[:, 2],
                                                 "fig4a_tau_falls_with_sigma_ss"))
        grid_path = os.path.join(first_dir, "fig8_trace", "point_00_grid.npz")
        if os.path.exists(grid_path):
            with np.load(grid_path) as grid:
                out.append(checks.check_grid_invariants(grid["rho00"], grid["rho11"],
                                                        grid["rho01"]))
        else:
            out.append(checks.Check("grid_trace_and_purity", False, "no grid dump"))
        return out + super().checks(first_dir, last_dir)


class CountFits(Workload):
    """Poisson photon-count traces of a tau = 2 tau_a rise, fitted by the CLI.

    Criterion-11 parameters: 10^5 cycles, 30 photons per pulse, 4 ns bins,
    sigma(t) = 0.1 (1 - exp(-t/2)) on [0, 8] tau_a, 10^4 Monte-Carlo
    resamples per fit.
    """

    name = "count_fits"
    compared_suffixes = (".json",)
    traces = 8
    cycles = 100_000
    photons_per_pulse = 30.0
    bin_ns = 4.0
    sigma_ss = 0.1
    resamples = 10_000

    @property
    def ops_per_pass(self) -> int:
        return self.traces

    def prepare(self, recipes):
        width = self.bin_ns / LIFETIME_NS
        n_bins = int(8.0 / width)
        t = (np.arange(n_bins) + 0.5) * width
        sigma = self.sigma_ss * (1.0 - np.exp(-t / 2.0))
        mean_in = self.cycles * self.photons_per_pulse / n_bins
        self.paths = []
        self.fit_seeds = []
        for k in range(self.traces):
            counts_in = self.rng.poisson(mean_in, size=n_bins).astype(float)
            counts_out = self.rng.poisson(mean_in * np.exp(-sigma)).astype(float)
            path = os.path.join(self.inputs_dir, f"trace_{k:02d}.csv")
            with open(path, "w") as fh:
                fh.write("t_ns,I_input,I_output,u_input,u_output\n")
                for row in zip(t * LIFETIME_NS, counts_in / self.cycles,
                               counts_out / self.cycles,
                               np.sqrt(np.maximum(counts_in, 1.0)) / self.cycles,
                               np.sqrt(np.maximum(counts_out, 1.0)) / self.cycles):
                    fh.write(",".join(repr(float(v)) for v in row) + "\n")
            self.paths.append(path)
            self.fit_seeds.append(int(self.rng.integers(0, 2**31)))

    def first_call(self, out_dir):
        return ["fit", self.paths[0], "--resamples", "200",
                "--out", os.path.join(out_dir, "setup_probe.json")]

    def run_pass(self, cli, out_dir):
        failed = 0
        for k, path in enumerate(self.paths):
            code = call_cli(cli, ["fit", path, "--resamples", str(self.resamples),
                                  "--seed", str(self.fit_seeds[k]),
                                  "--out", os.path.join(out_dir, f"fit_{k:02d}.json")])
            failed += code != 0
        return failed

    def checks(self, first_dir, last_dir):
        records = []
        for k in range(self.traces):
            path = os.path.join(first_dir, f"fit_{k:02d}.json")
            if os.path.exists(path):
                with open(path) as fh:
                    records.append(json.load(fh))
            else:
                records.append(None)
        return (checks.check_fit_records(records, 2.0 * LIFETIME_NS)
                + super().checks(first_dir, last_dir))


WORKLOADS = {w.name: w for w in (CollectiveBetaFamily, CollectiveLargeN,
                                 PropagationSweeps, CountFits)}
