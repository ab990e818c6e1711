import errno
import json
import os
import subprocess
import sys
import tracemalloc
import zipfile
from dataclasses import replace

import numpy as np
import pytest

from subabsorb import __version__, analysis, cli, coupled_dipole, maxwell_bloch, recipes
from subabsorb.core import (ConfigError, EnsembleConfig, PulseShape,
                            optical_depth_from_geometry)
from subabsorb.recipes import (ExperimentRecipe, get_recipe, load_recipe,
                               recipe_catalog, recipe_from_dict, run_recipe)

STEP = PulseShape(kind="step")


def tiny_cd_recipe(**overrides):
    kwargs = dict(
        name="tiny_cd", model="coupled_dipole", swept_parameter="box_side",
        sweep_values=(14.0, 10.0), pulse=STEP,
        ensemble=EnsembleConfig(atom_count=60, rng_seed=77, realization_count=3))
    kwargs.update(overrides)
    return ExperimentRecipe(**kwargs)


def counting_batches(monkeypatch):
    """Record the number of rows of every maxwell_bloch.propagate_batch call."""
    rows_per_call = []
    original = maxwell_bloch.propagate_batch

    def counting(pulses, depths, **kwargs):
        rows_per_call.append(len(pulses))
        return original(pulses, depths, **kwargs)

    monkeypatch.setattr(maxwell_bloch, "propagate_batch", counting)
    return rows_per_call


def counting_certificates(monkeypatch):
    """Record the size of every H0 that coupled_dipole._certify certifies."""
    sizes = []
    original = coupled_dipole._certify

    def counting(h0):
        sizes.append(len(h0))
        return original(h0)

    monkeypatch.setattr(coupled_dipole, "_certify", counting)
    return sizes


def jamming_sampler(monkeypatch):
    """Lower the sampler's rejection limit, so that a cube of side 0.1
    lambda, inside the volume bound for 40 atoms 0.05 lambda apart but far
    above the jamming density of random insertion, aborts at once with
    DensityTooHighError."""
    monkeypatch.setattr(coupled_dipole, "MAX_REJECTIONS", 20_000)


def failing_cholesky(monkeypatch, below=float("inf")):
    """Make np.linalg.cholesky fail, as on an H0 that is not positive, for
    the spectra of cubes with sides below ``below`` (every cube by default),
    so the certificate's own failure branch runs."""
    original = coupled_dipole.realization_spectrum

    def refuse(h0):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    def spectrum(config, *args, **kwargs):
        if not config.box[0] < below:
            return original(config, *args, **kwargs)
        with monkeypatch.context() as inner:
            inner.setattr(np.linalg, "cholesky", refuse)
            return original(config, *args, **kwargs)

    monkeypatch.setattr(coupled_dipole, "realization_spectrum", spectrum)


def failing_fit_row(monkeypatch, row):
    """Make row ``row`` of every rise-time fit batch that has one fail to
    converge; a batch of fewer rows fits as before."""
    original = analysis._fit_batch

    def failing(*args, **kwargs):
        p, cost, iters, ok = original(*args, **kwargs)
        ok[row:row + 1] = False
        return p, cost, iters, ok

    monkeypatch.setattr(analysis, "_fit_batch", failing)


def counting_fit_calls(monkeypatch):
    """Record the number of traces of every analysis.fit_rise_times call."""
    traces_per_call = []
    original = analysis.fit_rise_times

    def counting(traces):
        traces_per_call.append(len(traces))
        return original(traces)

    monkeypatch.setattr(analysis, "fit_rise_times", counting)
    return traces_per_call


def point_prefixes(run_dir):
    """The point_XX prefixes of the regular files in run_dir."""
    return sorted({p.name[:8] for p in run_dir.iterdir()
                   if p.is_file() and p.name.startswith("point_")})


def write_rise_csv(path, u_sigma):
    """A noiseless 60-point sigma(t) rise over [0, 8] tau_a, with these uncertainties."""
    t_ns = np.linspace(0, 8 * 26.2, 60)
    with open(path, "w") as fh:
        fh.write("t_ns,sigma,u_sigma\n")
        for a, u in zip(t_ns, np.broadcast_to(u_sigma, t_ns.shape)):
            fh.write(f"{a:.10g},{0.3 * (1 - np.exp(-a / 52.4)):.12g},{u}\n")


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestCatalog:
    def test_at_least_eight_unique_recipes(self):
        cat = recipe_catalog()
        assert len(cat) >= 8
        names = [r.name for r in cat]
        assert len(set(names)) == len(names)
        for expected in ["fig4a_mb", "fig4b_best_beta", "fig6_boxes", "fig7_beta",
                         "fig8_trace", "fig9_scalar_vs_vectorial", "fig10_detuning",
                         "fig11_detuning_sweep"]:
            assert expected in names

    def test_best_beta_value(self):
        r = get_recipe("fig4b_best_beta")
        assert r.ensemble.beta_over_2pi_hz_cm3 == pytest.approx(4.9e-5)

    def test_fig7_beta_set(self):
        r = get_recipe("fig7_beta")
        assert r.sweep_values == (0.0, 9e-7, 2.8e-6, 9e-6, 2.8e-5, 9e-5)

    def test_fig10_detunings(self):
        r = get_recipe("fig10_detuning")
        assert r.sigma_ss_fixed == 0.5
        np.testing.assert_allclose(r.sweep_values, (0.0, 1 / 3, 0.5))

    def test_unknown_recipe(self):
        with pytest.raises(ConfigError):
            get_recipe("fig99")

    def test_round_trip_serialization(self):
        for r in recipe_catalog():
            clone = recipe_from_dict(r.to_dict())
            assert clone.name == r.name
            assert clone.sweep_values == pytest.approx(r.sweep_values)
            assert clone.ensemble.box == pytest.approx(r.ensemble.box)
            assert clone.pulse.amplitude == pytest.approx(r.pulse.amplitude)

    def test_monotone_sweep_enforced(self):
        with pytest.raises(ConfigError):
            ExperimentRecipe(name="x", model="maxwell_bloch",
                             swept_parameter="sigma_ss", sweep_values=(0.1, 0.3, 0.2))

    def test_oversized_configs_refused_at_load(self):
        # only config objects are built here: nothing is sampled or propagated
        mb = dict(name="x", model="maxwell_bloch", swept_parameter="sigma_ss")
        with pytest.raises(ConfigError, match="memory budget"):
            ExperimentRecipe(**mb, sweep_values=(1e6,))      # 2e7 z nodes
        with pytest.raises(ConfigError, match="memory budget"):
            ExperimentRecipe(**mb, sweep_values=(2000.0,), dump_grid=True)
        with pytest.raises(ConfigError, match="memory budget"):
            recipe_from_dict({**mb, "sweep_values": [1e6]})
        # the collective estimate is 3 N^2 doubles: 9459 fits in 2 GiB, 9460 not
        assert recipes.CD_LIVE_MATRICES * 8 * 9459**2 <= recipes.MEMORY_BUDGET
        tiny_cd_recipe(ensemble=EnsembleConfig(atom_count=9459))
        with pytest.raises(ConfigError, match="memory budget"):
            tiny_cd_recipe(ensemble=EnsembleConfig(atom_count=9460))

    def test_budget_admits_the_catalog_and_the_benchmark_sizes(self):
        for recipe in recipe_catalog():
            assert recipes.peak_bytes(recipe) < recipes.MEMORY_BUDGET / 100
        # collective_large_n runs N = 1500; a propagation sweep that batches
        # many points on one z grid is counted once per row
        assert recipes.peak_bytes(tiny_cd_recipe(ensemble=EnsembleConfig(atom_count=1500))) \
            < recipes.MEMORY_BUDGET / 10
        one = ExperimentRecipe(name="x", model="maxwell_bloch", swept_parameter="detuning",
                               sweep_values=(0.0,), sigma_ss_fixed=100.0)
        ten = replace(one, sweep_values=tuple(0.1 * k for k in range(10)))
        assert recipes.peak_bytes(ten) == 10 * recipes.peak_bytes(one)

    @pytest.mark.parametrize("values,dump_grid", [((0.1, 0.2, 0.3, 0.4), False),
                                                  ((0.5,), True)],
                             ids=["four-rows", "full-grid"])
    def test_estimate_bounds_the_propagation_peak(self, values, dump_grid):
        # the recipe is one z-grid batch; its propagation is traced after a
        # warm-up call, so one-time allocations do not count
        recipe = ExperimentRecipe(name="x", model="maxwell_bloch", swept_parameter="sigma_ss",
                                  sweep_values=values, dump_grid=dump_grid)
        (batch,) = recipes._mb_batches(recipe).values()
        pulses, depths = [pulse for _, pulse, _ in batch], [depth for _, _, depth in batch]
        maxwell_bloch.propagate_batch(pulses, depths, full_grid=dump_grid)
        tracemalloc.start()
        try:
            maxwell_bloch.propagate_batch(pulses, depths, full_grid=dump_grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        estimate = recipes.peak_bytes(recipe)
        # an upper bound, and not a loose one
        assert 0.75 * estimate < peak < estimate

    def test_estimate_bounds_an_uncertified_collective_peak(self):
        # fig4b_best_beta's beta at N = 1500: every read is provably below
        # 1 - delta, so H0 is held as block rows and the estimate charges
        # them; the model pass is traced after a warm-up call
        catalog = get_recipe("fig4b_best_beta")
        recipe = replace(catalog, name="x", sweep_values=(1.5,),
                         ensemble=replace(catalog.ensemble, atom_count=1500,
                                          realization_count=1))
        [(_, _, config)] = recipes._cd_points(recipe, recipe.ensemble.rng_seed)
        suppression = coupled_dipole.suppression_factor(config.gamma_dd(recipe.species))
        coupled_dipole.realization_spectrum(config, config.rng_seed, suppression=suppression)
        tracemalloc.start()
        try:
            spectrum = coupled_dipole.realization_spectrum(config, config.rng_seed,
                                                           suppression=suppression)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spectrum.gram_margin is not None
        estimate = recipes.peak_bytes(recipe)
        # an upper bound, and not a loose one
        assert 0.75 * estimate < peak < estimate
        # a zero exclusion proves nothing: the certificate arrays are charged
        unproven = replace(recipe, ensemble=replace(recipe.ensemble, min_pair_separation=0.0))
        assert recipes.peak_bytes(unproven) == recipes.CD_LIVE_MATRICES * 8 * 1500**2

    @pytest.mark.parametrize("model,parameter", [("coupled_dipole", "detuning"),
                                                 ("maxwell_bloch", "beta"),
                                                 ("maxwell_bloch", "box_side")])
    def test_unsupported_model_parameter_pair(self, model, parameter):
        with pytest.raises(ConfigError, match="not supported"):
            ExperimentRecipe(name="x", model=model, swept_parameter=parameter,
                             sweep_values=(1.0, 2.0))


class TestRunRecipe:
    def test_outputs_and_formats(self, tmp_path):
        rows = run_recipe(tiny_cd_recipe(), tmp_path)
        run_dir = tmp_path / "tiny_cd"
        header = (run_dir / "sweep.csv").read_text().splitlines()[0]
        assert header == "swept_value,sigma_ss,tau_over_2tau_a,tau_err_over_2tau_a,seed"
        assert len(rows) == 2
        # per-realization trace + sidecar, plus the aggregate
        assert (run_dir / "point_00_real_00.csv").exists()
        assert (run_dir / "point_00_aggregate.csv").exists()
        meta = json.loads((run_dir / "point_00_real_02.json").read_text())
        assert set(meta) == {"seed", "positions_hash", "sigma_ss",
                             "gamma_dd_over_gamma"}
        prov = json.loads((run_dir / "sweep_meta.json").read_text())
        assert prov["recipe"] == "tiny_cd"
        assert prov["complete"] is True
        assert "config_hash" in prov and "git_hash" in prov and "timestamp" in prov

    def test_git_hash_is_the_package_checkout(self, tmp_path, monkeypatch):
        package_dir = os.path.dirname(os.path.abspath(recipes.__file__))
        out = subprocess.run(["git", "-C", package_dir, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        expected = out.stdout.strip() if out.returncode == 0 else "unknown"
        monkeypatch.chdir(tmp_path)
        recipes._git_hash.cache_clear()
        assert recipes._git_hash() == expected

    def test_git_runs_at_most_once_per_process(self, tmp_path, monkeypatch):
        calls = []
        original = subprocess.run

        def counting(cmd, *args, **kwargs):
            calls.append(cmd)
            return original(cmd, *args, **kwargs)

        monkeypatch.setattr(recipes.subprocess, "run", counting)
        recipes._git_hash.cache_clear()
        recipe = tiny_cd_recipe(sweep_values=(14.0,),
                                ensemble=EnsembleConfig(atom_count=20, rng_seed=77,
                                                        realization_count=1))
        run_recipe(recipe, tmp_path / "a")
        run_recipe(recipe, tmp_path / "b")
        assert len([cmd for cmd in calls if cmd[0] == "git"]) <= 1
        for run in ("a", "b"):
            prov = json.loads((tmp_path / run / "tiny_cd" / "sweep_meta.json").read_text())
            assert prov["git_hash"] == recipes._git_hash()

    def test_rows_positive_tau(self, tmp_path):
        for row in run_recipe(tiny_cd_recipe(), tmp_path):
            assert row.tau_over_2tau_a > 0

    def test_csv_number_formats(self, tmp_path):
        # floats as .12g, integers (the seed column) in full, from arrays
        # and from lists
        columns = [[0.1, -2.5e-13, np.inf, -0.0], np.array([1.0 / 3.0, np.nan, -np.inf, 5e-324]),
                   [7, 10**13, True, np.int64(-2)], np.array([3, 4, 5, 6])]
        recipes._write_csv(tmp_path / "a.csv", ["x", "y", "seed", "k"], columns)
        assert (tmp_path / "a.csv").read_text() == \
            "x,y,seed,k\n0.1,0.333333333333,7,3\n-2.5e-13,nan,10000000000000,4\n" \
            "inf,-inf,True,5\n-0,4.94065645841e-324,-2,6\n"
        recipes._write_csv(tmp_path / "b.csv", ["x", "seed"], [[], []])
        assert (tmp_path / "b.csv").read_text() == "x,seed\n"

    def test_byte_identical_rerun(self, tmp_path):
        recipe = tiny_cd_recipe()
        run_recipe(recipe, tmp_path / "a")
        run_recipe(recipe, tmp_path / "b")
        for name in sorted(os.listdir(tmp_path / "a" / "tiny_cd")):
            if name.endswith(".csv"):
                assert read_bytes(tmp_path / "a" / "tiny_cd" / name) == \
                    read_bytes(tmp_path / "b" / "tiny_cd" / name), name

    def test_seed_override_changes_rows(self, tmp_path):
        recipe = tiny_cd_recipe()
        a = run_recipe(recipe, tmp_path / "a", seed=77)
        b = run_recipe(recipe, tmp_path / "b", seed=1234)
        assert a[0].tau_over_2tau_a != b[0].tau_over_2tau_a
        assert b[0].seed == 1234

    def test_mb_sweep_with_traces(self, tmp_path):
        recipe = ExperimentRecipe(name="mb2", model="maxwell_bloch",
                                  swept_parameter="sigma_ss", sweep_values=(0.1, 0.5))
        rows = run_recipe(recipe, tmp_path)
        trace = (tmp_path / "mb2" / "point_01_trace.csv").read_text().splitlines()
        assert trace[0] == "t_ns,I_input,I_output"
        assert len(rows) == 2
        assert rows[0].tau_over_2tau_a > rows[1].tau_over_2tau_a

    def test_grid_dump(self, tmp_path, monkeypatch):
        rows_per_call = counting_batches(monkeypatch)
        recipe = ExperimentRecipe(name="dump", model="maxwell_bloch",
                                  swept_parameter="sigma_ss", sweep_values=(0.5,),
                                  dump_grid=True)
        run_recipe(recipe, tmp_path / "a")
        # the trace and the dumped grid come from one propagation
        assert rows_per_call == [1]
        path = tmp_path / "a" / "dump" / "point_00_grid.npz"
        with np.load(path) as grid:
            assert {"z_points", "t_ns", "rabi", "rho00", "rho11", "rho01",
                    "sigma_ss"} <= set(grid.files)
            assert grid["rabi"].shape == (len(grid["z_points"]), len(grid["t_ns"]))
            # positions across the medium as the fraction zeta = z/L
            np.testing.assert_array_equal(grid["z_points"],
                                          np.linspace(0.0, 1.0, len(grid["z_points"])))
        # the bytes np.savez writes for the grid of the point propagated alone
        alone = maxwell_bloch.propagate_pulse(recipe.pulse, 0.5)
        reference = tmp_path / "reference.npz"
        np.savez(reference, z_points=alone.z_points,
                 t_ns=recipe.species.time_to_ns(alone.t_points), rabi=alone.rabi,
                 rho00=alone.rho00, rho11=alone.rho11, rho01=alone.rho01,
                 sigma_ss=alone.sigma_ss)
        assert read_bytes(path) == read_bytes(reference)
        with zipfile.ZipFile(path) as archive:
            assert {info.compress_type for info in archive.infolist()} \
                == {zipfile.ZIP_STORED}
        # entries carry a fixed timestamp, so a rerun writes the same bytes
        run_recipe(recipe, tmp_path / "b")
        assert read_bytes(path) == read_bytes(tmp_path / "b" / "dump" / "point_00_grid.npz")

    def test_mb_points_propagate_in_one_batch_per_z_grid(self, tmp_path, monkeypatch):
        # sigma_ss 2.6 needs 52 z steps, the others the default 50
        values = (0.4, 1.0, 2.6)
        singles = []
        for k, value in enumerate(values):
            one = ExperimentRecipe(name=f"one{k}", model="maxwell_bloch",
                                   swept_parameter="sigma_ss", sweep_values=(value,))
            singles.append(run_recipe(one, tmp_path)[0])
        rows_per_call = counting_batches(monkeypatch)
        recipe = ExperimentRecipe(name="mb3", model="maxwell_bloch",
                                  swept_parameter="sigma_ss", sweep_values=values)
        rows = run_recipe(recipe, tmp_path)
        assert rows_per_call == [2, 1]
        assert rows == singles
        for k in range(3):
            assert read_bytes(tmp_path / "mb3" / f"point_{k:02d}_trace.csv") == \
                read_bytes(tmp_path / f"one{k}" / "point_00_trace.csv")

    def test_one_fit_call_per_sweep_or_z_grid_batch(self, tmp_path, monkeypatch):
        traces_per_call = counting_fit_calls(monkeypatch)
        recipe = ExperimentRecipe(
            name="beta2", model="coupled_dipole", swept_parameter="beta",
            sweep_values=(0.0, 9e-5), od_grid=(0.1, 0.4), pulse=STEP,
            ensemble=EnsembleConfig(atom_count=50, rng_seed=5, realization_count=2))
        assert len(run_recipe(recipe, tmp_path)) == 4
        assert traces_per_call == [8]            # 2 beta x 2 depths x 2 realizations
        traces_per_call.clear()
        # sigma_ss 2.6 needs 52 z steps, the others the default 50
        mb = ExperimentRecipe(name="mb3", model="maxwell_bloch",
                              swept_parameter="sigma_ss", sweep_values=(0.4, 1.0, 2.6))
        assert len(run_recipe(mb, tmp_path)) == 3
        assert traces_per_call == [2, 1]

    def test_provenance_records_versions(self, tmp_path):
        run_recipe(tiny_cd_recipe(sweep_values=(14.0,)), tmp_path, realizations=1)
        meta = json.loads((tmp_path / "tiny_cd" / "sweep_meta.json").read_text())
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert meta["versions"] == {"subabsorb": __version__,
                                    "numpy": np.__version__,
                                    "blas": f"{blas['name']} {blas['version']}"}

    def test_zero_realizations_rejected_before_output(self, tmp_path):
        with pytest.raises(ConfigError):
            run_recipe(tiny_cd_recipe(), tmp_path / "runs", realizations=0)
        assert not (tmp_path / "runs").exists()

    def test_negative_seed_rejected_before_output(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            run_recipe(tiny_cd_recipe(), tmp_path / "runs", seed=-40)
        assert not (tmp_path / "runs").exists()

    def test_cd_point_taus_match_per_trace_fits(self, tmp_path):
        # one fit_rise_times call per sweep gives the taus of fitting each
        # realization on its own
        ensemble = EnsembleConfig(atom_count=100, box=(4.0, 4.0, 4.0), rng_seed=21,
                                  realization_count=6)
        [row] = run_recipe(tiny_cd_recipe(sweep_values=(4.0,), ensemble=ensemble), tmp_path)
        sigma_ss = optical_depth_from_geometry(ensemble)
        taus = np.asarray([
            analysis.fit_rise_time(analysis.trace_from_dipole(tr, sigma_ss)).tau
            for tr in coupled_dipole.run_ensemble(ensemble, pulse=STEP).traces])
        assert row.tau_over_2tau_a == float(taus.mean() / 2.0)
        assert row.tau_err_over_2tau_a == float(taus.std(ddof=1) / np.sqrt(6) / 2.0)

    def test_write_error_keeps_errno_and_filename(self, tmp_path):
        # a directory where the first point's trace goes
        blocked = tmp_path / "fig10_detuning" / "point_00_trace.csv"
        blocked.mkdir(parents=True)
        with pytest.raises(IsADirectoryError) as info:
            run_recipe(get_recipe("fig10_detuning"), tmp_path)
        assert info.value.errno == errno.EISDIR
        assert info.value.filename == str(blocked)
        assert "sweep fig10_detuning aborted" in str(info.value)
        assert str(blocked) in str(info.value)

    def test_beta_sweep_rows_carry_inner_grid(self, tmp_path):
        recipe = ExperimentRecipe(
            name="beta2", model="coupled_dipole", swept_parameter="beta",
            sweep_values=(0.0, 9e-5), od_grid=(0.1, 0.4), pulse=STEP,
            ensemble=EnsembleConfig(atom_count=50, rng_seed=5, realization_count=2))
        rows = run_recipe(recipe, tmp_path)
        assert len(rows) == 4
        # same inner grid point shares its seed across beta values
        by_beta = {}
        for row in rows:
            by_beta.setdefault(row.swept_value, []).append(row)
        seeds0 = [r.seed for r in by_beta[0.0]]
        seeds1 = [r.seed for r in by_beta[9e-5]]
        assert seeds0 == seeds1
        ods = [round(r.sigma_ss, 6) for r in by_beta[0.0]]
        assert ods == [0.1, 0.4]

    def test_beta_sweep_samples_each_realization_once(self, tmp_path, monkeypatch):
        calls = []
        original = coupled_dipole.sample_positions

        def counting(config, seed):
            calls.append((config.box, seed))
            return original(config, seed)

        monkeypatch.setattr(coupled_dipole, "sample_positions", counting)
        recipe = ExperimentRecipe(
            name="beta3", model="coupled_dipole", swept_parameter="beta",
            sweep_values=(0.0, 9e-6, 9e-5), od_grid=(0.1, 0.4), pulse=STEP,
            ensemble=EnsembleConfig(atom_count=50, rng_seed=5, realization_count=2))
        assert len(run_recipe(recipe, tmp_path)) == 6
        # 2 optical depths x 2 realizations, shared by all three beta
        assert len(calls) == 4
        assert len(set(calls)) == 4


class TestLazyCertificate:
    """Sweeps run the positivity certificate only for geometries that a point
    reads at S >= 1 - delta, once each, however the points are ordered."""

    ENSEMBLE = EnsembleConfig(atom_count=50, rng_seed=5, realization_count=2)

    def best_beta_recipe(self, beta):
        return replace(get_recipe("fig4b_best_beta"), sweep_values=(0.1, 0.5, 1.5),
                       ensemble=replace(self.ENSEMBLE, beta_over_2pi_hz_cm3=beta))

    def beta_recipe(self, betas):
        return ExperimentRecipe(name="beta_order", model="coupled_dipole",
                                swept_parameter="beta", sweep_values=betas,
                                od_grid=(0.1, 0.4), pulse=STEP, ensemble=self.ENSEMBLE)

    def test_best_beta_sweep_certifies_nothing(self, tmp_path, monkeypatch):
        sizes = counting_certificates(monkeypatch)
        recipe = self.best_beta_recipe(recipes.BEST_BETA)
        assert recipe.ensemble.beta_over_2pi_hz_cm3 == 4.9e-5
        assert len(run_recipe(recipe, tmp_path)) == 3
        assert sizes == []

    def test_undephased_sweep_certifies_each_geometry_once(self, tmp_path, monkeypatch):
        sizes = counting_certificates(monkeypatch)
        assert len(run_recipe(self.best_beta_recipe(0.0), tmp_path)) == 3
        assert sizes == [50] * 6          # 3 points x 2 realizations

    def test_undephased_beta_listed_last_certifies_once_with_the_same_rows(
            self, tmp_path, monkeypatch):
        sizes = counting_certificates(monkeypatch)
        assembled = []
        original = coupled_dipole.build_coupling_matrix
        monkeypatch.setattr(coupled_dipole, "build_coupling_matrix",
                            lambda *args: assembled.append(args) or original(*args))
        late = run_recipe(self.beta_recipe((9e-5, 0.0)), tmp_path / "late")
        assert sizes == [50] * 4          # 2 optical depths x 2 realizations
        assert len(assembled) == 4        # each geometry assembled once
        early = run_recipe(self.beta_recipe((0.0, 9e-5)), tmp_path / "early")
        assert len(sizes) == 8
        assert len(assembled) == 8
        assert late == early[2:] + early[:2]


class TestCli:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4a_mb" in out and "fig11_detuning_sweep" in out

    def test_run_custom_config(self, tmp_path, capsys):
        cfg = {"name": "cli_mb", "model": "maxwell_bloch",
               "swept_parameter": "sigma_ss", "sweep_values": [0.2],
               "pulse": {"kind": "step", "rabi_peak_rad_per_s": 38167.0}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = cli.main(["run", str(path), "--out", str(tmp_path / "runs")])
        assert code == 0
        assert (tmp_path / "runs" / "cli_mb" / "sweep.csv").exists()

    def test_run_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SUBABSORB_OUT", str(tmp_path / "envruns"))
        monkeypatch.chdir(tmp_path)
        cfg = {"name": "cli_env", "model": "maxwell_bloch",
               "swept_parameter": "sigma_ss", "sweep_values": [0.1]}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert cli.main(["run", str(tmp_path / "cfg.json")]) == 0
        assert (tmp_path / "envruns" / "cli_env" / "sweep.csv").exists()

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        assert cli.main(["run", str(path)]) == 3
        assert cli.main(["run", "no_such_recipe"]) == 3

    @pytest.mark.parametrize("fields,argv", [
        ({"swept_parameter": "sigma_ss", "sweep_values": [-0.5, 0.5]}, []),
        ({"sigma_ss_fixed": 0.0}, []),
        ({"swept_parameter": "box_side", "sweep_values": [20.0, 0.05]}, []),
        ({"swept_parameter": "detuning", "sweep_values": [0.0, 0.5]}, []),
        ({}, ["--realizations", "0"]),
        ({"swept_parameter": "box_side", "sweep_values": [20.0],
          "ensemble": {"atom_count": 0, "rng_seed": 3, "realization_count": 1}}, []),
        ({"ensemble": {"atom_count": 20, "rng_seed": -3, "realization_count": 1}}, []),
        ({}, ["--seed", "-40"]),
        ({"sigma_ss_fixed": float("nan")}, []),
        ({"species": {"excited_lifetime_ns": float("inf")}}, []),
        ({"pulse": {"kind": "step", "rabi_peak_rad_per_s": float("nan")}}, []),
        ({"ensemble": {"atom_count": 20, "rng_seed": 3, "realization_count": 1,
                       "beta_over_2pi_hz_cm3": float("nan")}}, []),
        ({"ensemble": {"atom_count": 20, "rng_seed": 3, "realization_count": 1,
                       "min_pair_separation_um": float("nan")}}, []),
        ({"name": "../escaped"}, []),
        ({"name": "inner/escaped"}, []),
        ({"name": ""}, []),
        ({"name": "."}, []),
        ({"name": ".."}, []),
        ({"mode": "bogus"}, []),
        ({"pulse": {"kind": "smooth_ramp"}}, []),
        ({"pulse": {"kind": "step", "detuning_rad_per_s": 1.31 / 26.2e-9}}, []),
        ({"swept_parameter": "beta", "sweep_values": [-1e-5, 0.0]}, []),
        ({"dump_grid": "false"}, []),
        ({"ensemble": {"atom_count": 64.9, "rng_seed": 3, "realization_count": 1}}, []),
        ({"ensemble": {"atom_count": 20, "rng_seed": 3.7, "realization_count": 1}}, []),
        ({"ensemble": {"atom_count": 20, "rng_seed": 3, "realization_count": 2.5}}, []),
        ({"ensemble": {"atom_count": 20, "rng_seed": 3, "realization_count": 1,
                       "beta_over_2pi_hz_cm3": "inf"}}, []),
        ({"ensemble": {"atom_count": 20, "rng_seed": 3, "realization_count": 1,
                       "beta_over_2pi_hz_cm3": True}}, []),
        ({"ensemble": {"atom_count": 20, "rng_seed": 3, "realization_count": 1,
                       "min_pair_separation_um": "0.039"}}, []),
        ({"species": {"wavelength_nm": "780"}}, []),
        ({"pulse": {"kind": "step", "rabi_peak_rad_per_s": True}}, []),
        ({"sweep_values": ["0.5"]}, []),
        ({"sigma_ss_fixed": False}, []),
        ({"swept_parameter": "beta", "sweep_values": [0.0], "od_grid": [0.5, "1"]}, []),
    ])
    def test_bad_values_fail_at_load(self, tmp_path, fields, argv):
        cfg = {"name": "cd_bad", "model": "coupled_dipole",
               "swept_parameter": "sigma_ss", "sweep_values": [0.5],
               "pulse": {"kind": "step"},
               "ensemble": {"atom_count": 20, "rng_seed": 3, "realization_count": 1}}
        cfg.update(fields)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "runs" / "inner"
        assert cli.main(["run", str(path), "--out", str(out)] + argv) == cli.EXIT_CONFIG
        assert sorted(os.listdir(tmp_path)) == ["bad.json"]

    @pytest.mark.parametrize("literal", ["1e999", "1" + "0" * 400],
                             ids=["float", "integer"])
    def test_overflowing_number_fails_at_load(self, tmp_path, literal):
        cfg = {"name": "mb_big", "model": "maxwell_bloch", "swept_parameter": "detuning",
               "sweep_values": [0.0, 0.5], "species": {"excited_lifetime_ns": "BIG"}}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(cfg).replace('"BIG"', literal))
        out = tmp_path / "runs"
        assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
        assert not out.exists()

    def test_model_error_exit_code_keeps_completed_rows(self, tmp_path, monkeypatch):
        # the second cube jams before it holds 40 atoms 0.05 lambda apart
        jamming_sampler(monkeypatch)
        cfg = {"name": "cd_dense", "model": "coupled_dipole",
               "swept_parameter": "box_side", "sweep_values": [14.0, 0.1],
               "pulse": {"kind": "step"},
               "ensemble": {"atom_count": 40, "rng_seed": 3, "realization_count": 2}}
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "runs")]) == \
            cli.EXIT_MODEL
        run_dir = tmp_path / "runs" / "cd_dense"
        rows = (run_dir / "sweep.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("14,")
        meta = json.loads((run_dir / "sweep_meta.json").read_text())
        assert meta["complete"] is False
        assert meta["error"]["type"] == "DensityTooHighError"

    def test_mb_fit_error_exit_code_keeps_completed_rows(self, tmp_path, monkeypatch):
        # both points share a z grid, so they are fitted in one batch, whose
        # second trace does not converge
        failing_fit_row(monkeypatch, 1)
        cfg = {"name": "mb_fail", "model": "maxwell_bloch",
               "swept_parameter": "sigma_ss", "sweep_values": [0.1, 0.5]}
        path = tmp_path / "fail.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "runs")]) == \
            cli.EXIT_FIT
        run_dir = tmp_path / "runs" / "mb_fail"
        rows = (run_dir / "sweep.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("0.1,")
        assert (run_dir / "point_00_trace.csv").exists()
        assert not (run_dir / "point_01_trace.csv").exists()
        meta = json.loads((run_dir / "sweep_meta.json").read_text())
        assert meta["complete"] is False
        assert meta["error"]["type"] == "FitError"

    def cd_box_config(self, tmp_path, sweep_values):
        cfg = {"name": "cd_boxes", "model": "coupled_dipole",
               "swept_parameter": "box_side", "sweep_values": sweep_values,
               "pulse": {"kind": "step"},
               "ensemble": {"atom_count": 40, "rng_seed": 3, "realization_count": 2}}
        path = tmp_path / "boxes.json"
        path.write_text(json.dumps(cfg))
        return ["run", str(path), "--out", str(tmp_path / "runs")]

    def test_cd_fit_error_exit_code_keeps_completed_points(self, tmp_path, monkeypatch):
        # 3 points x 2 realizations in one fit batch; row 3 is point 1's second
        failing_fit_row(monkeypatch, 3)
        assert cli.main(self.cd_box_config(tmp_path, [14.0, 10.0, 8.0])) == cli.EXIT_FIT
        run_dir = tmp_path / "runs" / "cd_boxes"
        rows = (run_dir / "sweep.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("14,")
        assert point_prefixes(run_dir) == ["point_00"]
        assert (run_dir / "point_00_aggregate.csv").is_file()
        assert (run_dir / "point_00_real_01.json").is_file()
        meta = json.loads((run_dir / "sweep_meta.json").read_text())
        assert meta["complete"] is False
        assert meta["error"]["type"] == "FitError"

    def test_fit_error_before_a_model_error_is_recorded(self, tmp_path, monkeypatch):
        # point 1 fails to fit and point 2 jams before it holds 40 atoms 0.05
        # lambda apart: the first failure in point order ends the sweep
        failing_fit_row(monkeypatch, 2)
        jamming_sampler(monkeypatch)
        assert cli.main(self.cd_box_config(tmp_path, [14.0, 10.0, 0.1])) == cli.EXIT_FIT
        run_dir = tmp_path / "runs" / "cd_boxes"
        assert len((run_dir / "sweep.csv").read_text().splitlines()) == 2
        assert point_prefixes(run_dir) == ["point_00"]
        meta = json.loads((run_dir / "sweep_meta.json").read_text())
        assert meta["error"]["type"] == "FitError"

    def test_failing_first_point_makes_no_fit_call(self, tmp_path, monkeypatch):
        traces_per_call = counting_fit_calls(monkeypatch)
        jamming_sampler(monkeypatch)
        assert cli.main(self.cd_box_config(tmp_path, [0.1, 14.0])) == cli.EXIT_MODEL
        assert traces_per_call == []
        run_dir = tmp_path / "runs" / "cd_boxes"
        assert len((run_dir / "sweep.csv").read_text().splitlines()) == 1
        assert point_prefixes(run_dir) == []

    def test_strong_drive_exit_code(self, tmp_path):
        # 20 atoms at 0.05 Gamma_a: sum |c_j|^2 ~ 4 N Omega^2 = 0.2 > NORM_BUDGET
        cfg = {"name": "cd_strong", "model": "coupled_dipole",
               "swept_parameter": "sigma_ss", "sweep_values": [0.5],
               "pulse": {"kind": "step", "rabi_peak_rad_per_s": 0.05 / 26.2e-9},
               "ensemble": {"atom_count": 20, "rng_seed": 3, "realization_count": 1}}
        path = tmp_path / "strong.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "runs")]) == \
            cli.EXIT_MODEL
        meta = json.loads((tmp_path / "runs" / "cd_strong" / "sweep_meta.json")
                          .read_text())
        assert meta["complete"] is False
        assert meta["error"]["type"] == "PerturbativeBoundError"

    def test_non_positive_spectrum_exit_code(self, tmp_path, monkeypatch):
        failing_cholesky(monkeypatch)
        cfg = {"name": "cd_negative", "model": "coupled_dipole",
               "swept_parameter": "sigma_ss", "sweep_values": [0.5],
               "pulse": {"kind": "step"},
               "ensemble": {"atom_count": 20, "rng_seed": 3, "realization_count": 1}}
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "runs")]) == \
            cli.EXIT_MODEL
        meta = json.loads((tmp_path / "runs" / "cd_negative" / "sweep_meta.json")
                          .read_text())
        assert meta["complete"] is False
        assert meta["error"]["type"] == "DomainError"
        assert "not positive" in meta["error"]["message"]

    @pytest.mark.parametrize("out, blocker", [("file", "file"),
                                              ("file/runs", "file"),
                                              ("runs", "runs/fig10_detuning")])
    def test_run_out_through_a_file_fails_first(self, tmp_path, monkeypatch, capsys,
                                                out, blocker):
        def no_run(*args, **kwargs):
            raise AssertionError("the recipe ran")

        monkeypatch.setattr(recipes, "run_recipe", no_run)
        (tmp_path / blocker).parent.mkdir(exist_ok=True)
        (tmp_path / blocker).write_text("kept\n")
        before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
        assert cli.main(["run", "fig10_detuning", "--out", str(tmp_path / out)]) == \
            cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert str(tmp_path / blocker) in err
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before
        assert (tmp_path / blocker).read_text() == "kept\n"

    def test_unwritable_point_output_exit_code_keeps_completed_rows(self, tmp_path, capsys):
        # a directory where the second point's trace goes: the first point's
        # row and trace are kept, and the sweep record says what failed
        run_dir = tmp_path / "runs" / "fig10_detuning"
        (run_dir / "point_01_trace.csv").mkdir(parents=True)
        assert cli.main(["run", "fig10_detuning", "--out", str(tmp_path / "runs")]) == \
            cli.EXIT_OUTPUT
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1
        assert "point_01_trace.csv" in err
        rows = (run_dir / "sweep.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("0,")
        assert (run_dir / "point_00_trace.csv").is_file()
        assert not (run_dir / "point_02_trace.csv").exists()
        meta = json.loads((run_dir / "sweep_meta.json").read_text())
        assert meta["complete"] is False
        assert meta["error"]["type"] == "IsADirectoryError"

    def test_unwritable_fit_record_exit_code(self, tmp_path, monkeypatch, capsys):
        # the disk fills while the record is written
        def full_disk(path, mode="r", *args, **kwargs):
            if "w" in mode:
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", full_disk, raising=False)
        write_rise_csv(tmp_path / "trace.csv", 0.005)
        out = tmp_path / "fit.json"
        assert cli.main(["fit", str(tmp_path / "trace.csv"), "--resamples", "20",
                         "--out", str(out)]) == cli.EXIT_OUTPUT
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1
        assert "No space left on device" in err
        assert not out.exists()

    def test_documented_example_config_runs(self, tmp_path):
        example = os.path.join(os.path.dirname(__file__), os.pardir, "docs",
                               "example_sweep.json")
        assert cli.main(["run", example, "--realizations", "2",
                         "--out", str(tmp_path)]) == cli.EXIT_OK
        rows = (tmp_path / "dense_cubes" / "sweep.csv").read_text().splitlines()
        assert len(rows) == 5
        assert [float(row.split(",")[0]) for row in rows[1:]] == [30.0, 20.0, 14.0, 10.0]

    def test_fit_out_in_missing_directory_fails_first(self, tmp_path, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("the fit ran")

        monkeypatch.setattr(analysis, "fit_with_uncertainty", no_fit)
        path = tmp_path / "trace.csv"
        path.write_text("t_ns,sigma\n0,0\n")
        out = tmp_path / "missing" / "fit.json"
        assert cli.main(["fit", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
        assert not out.parent.exists()

    def test_fit_out_naming_a_directory_fails_first(self, tmp_path, monkeypatch, capsys):
        # refused at load: no resample noise is drawn and the directory is left as it was
        def refuse(*args, **kwargs):
            raise AssertionError("the fit started")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        write_rise_csv(tmp_path / "trace.csv", 0.005)
        out = tmp_path / "fits"
        out.mkdir()
        assert cli.main(["fit", str(tmp_path / "trace.csv"), "--out", str(out)]) == \
            cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert str(out) in err
        assert list(out.iterdir()) == []

    def test_fit_trace_csv(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        t_ns = np.linspace(0, 8 * 26.2, 210)
        u = np.full_like(t_ns, 0.005)
        sigma = 0.3 * (1 - np.exp(-t_ns / 52.4)) + rng.normal(size=len(t_ns)) * u
        path = tmp_path / "trace.csv"
        with open(path, "w") as fh:
            fh.write("t_ns,sigma,u_sigma\n")
            for row in zip(t_ns, sigma, u):
                fh.write(",".join(f"{v:.10g}" for v in row) + "\n")
        code = cli.main(["fit", str(path), "--resamples", "400", "--seed", "2",
                         "--out", str(tmp_path / "fit.json")])
        assert code == 0
        record = json.loads((tmp_path / "fit.json").read_text())
        assert set(record) == {"tau_ns", "tau_err_ns", "sigma_init", "sigma_ss_fit",
                               "chi2_reduced", "n_iterations", "bound_saturated",
                               "level_saturated", "window", "seed"}
        assert record["tau_ns"] == pytest.approx(52.4, rel=0.1)
        # the direct fit's own convergence record, as fit_rise_time returns it
        direct = analysis.fit_rise_time(cli._read_trace_csv(str(path), 26.2))
        assert record["n_iterations"] == direct.n_iterations > 0
        assert record["bound_saturated"] is direct.bound_saturated is False
        assert record["level_saturated"] is direct.level_saturated is False
        assert record["tau_err_ns"] > 0
        assert record["window"] == [26.2, 8 * 26.2]

    def test_fit_intensity_csv(self, tmp_path):
        t_ns = np.linspace(0, 8 * 26.2, 300)
        sigma = 0.4 * (1 - np.exp(-t_ns / 52.4))
        path = tmp_path / "trace.csv"
        with open(path, "w") as fh:
            fh.write("t_ns,I_input,I_output\n")
            for a, s in zip(t_ns, sigma):
                fh.write(f"{a:.10g},1.0,{np.exp(-s):.12g}\n")
        assert cli.main(["fit", str(path), "--resamples", "10"]) == 0

    def test_fit_too_few_resamples_exit_code(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_rise_csv(path, 0.005)
        for resamples in ("1", "-3"):
            out = tmp_path / f"fit{resamples}.json"
            assert cli.main(["fit", str(path), "--resamples", resamples,
                             "--out", str(out)]) == cli.EXIT_MODEL
            assert not out.exists()

    def test_fit_oversized_resamples_refused_before_allocating(self, tmp_path, monkeypatch):
        # the refusal comes before the resample noise is drawn or any fit runs;
        # no large array is ever allocated here
        def refuse(*args, **kwargs):
            raise AssertionError("the fit started")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(analysis, "fit_with_uncertainty", refuse)
        path = tmp_path / "trace.csv"
        write_rise_csv(path, 0.005)
        trace = cli._read_trace_csv(str(path), 26.2)
        block = analysis.MC_BLOCK
        # one block's row arrays, over the 52 window points, and 8 bytes per
        # resample for the kept taus
        block_bytes = analysis.MC_LIVE_ROW_ARRAYS * 8 * block * 52
        for resamples in (2, block, block + 1, 10**6):
            assert analysis.monte_carlo_peak_bytes(trace, resamples) == \
                analysis.MC_LIVE_ROW_ARRAYS * 8 * min(resamples, block) * 52 + 8 * resamples
        most = (recipes.MEMORY_BUDGET - block_bytes) // 8
        assert most > 10**8
        assert analysis.monte_carlo_peak_bytes(trace, most) <= recipes.MEMORY_BUDGET
        assert analysis.monte_carlo_peak_bytes(trace, most + 1) > recipes.MEMORY_BUDGET
        out = tmp_path / "fit.json"
        for resamples in (most + 1, 10**12):
            assert cli.main(["fit", str(path), "--resamples", str(resamples),
                             "--out", str(out)]) == cli.EXIT_CONFIG
        assert not out.exists()

    def test_fit_mixed_zero_uncertainty_exit_code(self, tmp_path):
        path = tmp_path / "trace.csv"
        u_sigma = np.full(60, 0.005)
        u_sigma[30] = 0.0
        write_rise_csv(path, u_sigma)
        out = tmp_path / "fit.json"
        assert cli.main(["fit", str(path), "--resamples", "200",
                         "--out", str(out)]) == cli.EXIT_MODEL
        assert not out.exists()

    def test_runs_and_fits_load_no_scipy_special_or_linalg(self, tmp_path):
        # a fresh interpreter, so modules imported by other tests do not count;
        # numpy is the only runtime dependency, so no scipy module may load
        mb = {"name": "ramp_mb", "model": "maxwell_bloch",
              "swept_parameter": "sigma_ss", "sweep_values": [0.2],
              "pulse": {"kind": "smooth_ramp"}}
        cd = {"name": "cd64", "model": "coupled_dipole",
              "swept_parameter": "sigma_ss", "sweep_values": [0.5],
              "pulse": {"kind": "step"},
              "ensemble": {"atom_count": 64, "rng_seed": 3, "realization_count": 1}}
        (tmp_path / "mb.json").write_text(json.dumps(mb))
        (tmp_path / "cd.json").write_text(json.dumps(cd))
        write_rise_csv(tmp_path / "trace.csv", 0.005)
        script = (
            "import sys\n"
            "from subabsorb import cli\n"
            "out = sys.argv[1]\n"
            "codes = [cli.main(['run', out + '/mb.json', '--out', out + '/runs']),\n"
            "         cli.main(['run', out + '/cd.json', '--out', out + '/runs']),\n"
            "         cli.main(['fit', out + '/trace.csv', '--resamples', '200'])]\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "print('RESULT', codes, loaded)\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = [line for line in proc.stdout.splitlines() if line.startswith("RESULT")]
        assert result == ["RESULT [0, 0, 0] []"]
        assert (tmp_path / "runs" / "ramp_mb" / "sweep.csv").exists()
        assert (tmp_path / "runs" / "cd64" / "sweep.csv").exists()

    def test_fit_negative_seed_fails_before_fitting(self, tmp_path, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("the fit ran")

        monkeypatch.setattr(analysis, "fit_with_uncertainty", no_fit)
        write_rise_csv(tmp_path / "trace.csv", 0.005)
        out = tmp_path / "fit.json"
        assert cli.main(["fit", str(tmp_path / "trace.csv"), "--seed", "-1",
                         "--out", str(out)]) == cli.EXIT_CONFIG
        assert not out.exists()

    def test_fit_header_wider_than_rows(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t_ns,sigma,u_sigma,extra\n0,0,0.1\n26.2,0.1,0.1\n")
        assert cli.main(["fit", str(path)]) == cli.EXIT_CONFIG

    def test_fit_missing_columns(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("a,b\n1,2\n")
        assert cli.main(["fit", str(path)]) == 3


class TestLoadRecipe:
    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_recipe(tmp_path / "nope.json")

    def test_load_and_run_cd_config(self, tmp_path):
        cfg = {
            "name": "cd_json", "model": "coupled_dipole",
            "swept_parameter": "box_side", "sweep_values": [12.0, 9.0],
            "pulse": {"kind": "step", "rabi_peak_rad_per_s": 38167.0},
            "ensemble": {"atom_count": 40, "rng_seed": 3, "realization_count": 2},
        }
        path = tmp_path / "cd.json"
        path.write_text(json.dumps(cfg))
        recipe = load_recipe(path)
        assert len(run_recipe(recipe, tmp_path / "out")) == 2


def _blocked_second_trace(monkeypatch, run_dir):
    # a directory where the second point's trace goes
    (run_dir / "point_01_trace.csv").mkdir(parents=True)


CD_BOXES = {"model": "coupled_dipole", "swept_parameter": "box_side",
            "sweep_values": [14.0, 10.0, 8.0], "pulse": {"kind": "step"},
            "ensemble": {"atom_count": 40, "rng_seed": 3, "realization_count": 2}}
MB_DEPTHS = {"model": "maxwell_bloch", "swept_parameter": "sigma_ss",
             "sweep_values": [0.1, 0.3, 0.5]}


def _model_must_not_run(monkeypatch, run_dir):
    def refuse(*args, **kwargs):
        raise AssertionError("the model ran")

    monkeypatch.setattr(coupled_dipole, "run_ensemble", refuse)


class TestFailureMatrix:
    """One row per documented sweep failure, through cli.main: its exit code,
    one stderr line, and what is left on disk."""

    @pytest.mark.parametrize("fields, argv, setup, code, prefix, error, finished", [
        (CD_BOXES, [], lambda mp, d: failing_fit_row(mp, 2),
         cli.EXIT_FIT, "fit error: ", "FitError", 1),
        (MB_DEPTHS, [], lambda mp, d: failing_fit_row(mp, 1),
         cli.EXIT_FIT, "fit error: ", "FitError", 1),
        ({**CD_BOXES, "sweep_values": [14.0, 10.0, 0.1]}, [],
         lambda mp, d: jamming_sampler(mp),
         cli.EXIT_MODEL, "model error: ", "DensityTooHighError", 2),
        ({**CD_BOXES, "pulse": {"kind": "step", "rabi_peak_rad_per_s": 0.05 / 26.2e-9}},
         [], None, cli.EXIT_MODEL, "model error: ", "PerturbativeBoundError", 0),
        (CD_BOXES, [], lambda mp, d: failing_cholesky(mp, below=12.0),
         cli.EXIT_MODEL, "model error: ", "DomainError", 1),
        (MB_DEPTHS, [], _blocked_second_trace,
         cli.EXIT_OUTPUT, "output error: ", "IsADirectoryError", 1),
        ({**MB_DEPTHS, "sweep_values": [0.3, 0.1, 0.5]}, [], None,
         cli.EXIT_CONFIG, "config error: ", None, None),
        # 3 points x 10^6 realizations would hold about 10.8 GiB of traces
        (CD_BOXES, ["--realizations", "1000000"], _model_must_not_run,
         cli.EXIT_CONFIG, "config error: ", None, None),
        # the second cube, 0.0031 lambda, is below the 0.05 lambda exclusion
        ({**CD_BOXES, "swept_parameter": "sigma_ss", "sweep_values": [0.5, 1e6]}, [],
         _model_must_not_run, cli.EXIT_CONFIG, "config error: ", None, None),
        ({**CD_BOXES, "sweep_values": [14.0, 10.0, 0.06]}, [], _model_must_not_run,
         cli.EXIT_CONFIG, "config error: ", None, None),
        ({**MB_DEPTHS, "dump_grdi": True}, [], None,
         cli.EXIT_CONFIG, "config error: ", None, None),
        ({**MB_DEPTHS, "pulse": {"knid": "step"}}, [], None,
         cli.EXIT_CONFIG, "config error: ", None, None),
        ({**MB_DEPTHS, "species": [26.2, 780]}, [], None,
         cli.EXIT_CONFIG, "config error: ", None, None),
        ({**MB_DEPTHS, "pulse": {"rabi_peak_rad_per_s": 0}}, [], None,
         cli.EXIT_CONFIG, "config error: ", None, None),
        ({**CD_BOXES, "pulse": {"kind": "step", "rabi_peak_rad_per_s": 0}}, [],
         _model_must_not_run, cli.EXIT_CONFIG, "config error: ", None, None),
    ], ids=["cd-fit", "mb-fit", "density", "perturbative", "non-positive-spectrum",
            "point-write", "config", "realizations-over-budget", "cube-below-exclusion",
            "infeasible-packing", "unknown-key", "unknown-section-key", "list-section",
            "mb-zero-amplitude", "cd-zero-amplitude"])
    def test_sweep_failure(self, tmp_path, monkeypatch, capsys, fields, argv, setup, code,
                           prefix, error, finished):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"name": "failing", **fields}))
        run_dir = tmp_path / "runs" / "failing"
        if setup is not None:
            setup(monkeypatch, run_dir)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "runs"), *argv]) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1
        if error is None:
            assert not (tmp_path / "runs").exists()
            return
        meta = json.loads((run_dir / "sweep_meta.json").read_text())
        assert meta["complete"] is False
        assert meta["error"]["type"] == error
        assert meta["error"]["message"]
        rows = (run_dir / "sweep.csv").read_text().splitlines()
        values = fields["sweep_values"]
        assert [float(row.split(",")[0]) for row in rows[1:]] == values[:finished]
        assert point_prefixes(run_dir) == [f"point_{k:02d}" for k in range(finished)]
