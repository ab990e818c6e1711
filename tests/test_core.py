import json
import math

import numpy as np
import pytest

from subabsorb.core import (AtomicSpecies, ConfigError, DomainError, EnsembleConfig,
                            PulseShape, RESONANT_CROSS_SECTION, box_side_for_sigma_ss,
                            ensemble_from_dict, gamma_dd_from_beta, load_config_dict,
                            optical_depth_from_geometry, pulse_from_dict,
                            species_from_dict)


class TestAtomicSpecies:
    def test_defaults(self):
        sp = AtomicSpecies()
        assert sp.excited_lifetime_ns == 26.2
        assert sp.wavelength_nm == 780.0

    def test_exact_product_invariants(self):
        sp = AtomicSpecies(excited_lifetime_ns=13.7, wavelength_nm=532.0)
        assert sp.decay_rate_rad_per_s * sp.lifetime_s == 1.0

    @pytest.mark.parametrize("tau,lam", [(0.0, 780.0), (-1.0, 780.0), (26.2, 0.0)])
    def test_rejects_nonpositive(self, tau, lam):
        with pytest.raises(DomainError):
            AtomicSpecies(excited_lifetime_ns=tau, wavelength_nm=lam)

    @pytest.mark.parametrize("t_nat", [0.0, 1.0, 2.0, 7.99])
    def test_si_round_trip_time(self, t_nat):
        sp = AtomicSpecies()
        back = sp.time_to_ns(t_nat) / sp.excited_lifetime_ns
        assert back == pytest.approx(t_nat, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("n", [1e-4, 0.01, 0.3])
    def test_si_round_trip_density(self, n):
        sp = AtomicSpecies()
        back = sp.density_to_per_cm3(n) * sp.wavelength_cm**3
        assert back == pytest.approx(n, rel=1e-12)

    def test_density_conversion_value(self):
        # 0.01 atoms/lambda^3 at 780 nm; hand conversion via (780e-7 cm)^3
        sp = AtomicSpecies()
        assert sp.density_to_per_cm3(0.01) == pytest.approx(2.10725062796e10, rel=1e-9)


class TestGammaDD:
    def test_zero_coefficient(self):
        assert gamma_dd_from_beta(0.0, 1e12) == 0.0

    def test_reported_coefficient_value(self):
        # beta/2pi = 4.9e-5 Hz cm^3 at n = 0.01 atoms/lambda^3; the expected
        # ratio comes from an independent hand conversion with lambda = 780 nm,
        # tau_a = 26.2 ns
        sp = AtomicSpecies()
        n = sp.density_to_per_cm3(0.01)
        g = gamma_dd_from_beta(4.9e-5, n, sp)
        assert g == pytest.approx(0.169978280512, rel=1e-9)
        assert g > 0 and np.isfinite(g)

    @pytest.mark.parametrize("beta,n", [(2e-6, 3e10), (9e-5, 7.7e11)])
    def test_linear_in_both_arguments(self, beta, n):
        base = gamma_dd_from_beta(beta, n)
        assert gamma_dd_from_beta(2 * beta, n) == pytest.approx(2 * base, rel=1e-12)
        assert gamma_dd_from_beta(beta, 2 * n) == pytest.approx(2 * base, rel=1e-12)

    def test_negative_inputs_rejected(self):
        with pytest.raises(DomainError):
            gamma_dd_from_beta(-1e-6, 1e10)
        with pytest.raises(DomainError):
            gamma_dd_from_beta(1e-6, -1e10)


class TestOpticalDepth:
    def test_hand_evaluated_cubes(self):
        cfg = EnsembleConfig(atom_count=500, box=(50.0, 50.0, 50.0))
        assert optical_depth_from_geometry(cfg) == pytest.approx(
            0.0954929658551372, rel=1e-12)
        cfg = EnsembleConfig(atom_count=500, box=(15.0, 15.0, 15.0))
        assert optical_depth_from_geometry(cfg) == pytest.approx(
            1.06103295394597, rel=1e-11)

    def test_empty_ensemble(self):
        cfg = EnsembleConfig(atom_count=0, box=(10.0, 10.0, 10.0))
        assert optical_depth_from_geometry(cfg) == 0.0

    @pytest.mark.parametrize("n_atoms", [10, 100, 1000])
    @pytest.mark.parametrize("side", [5.0, 12.0, 40.0])
    def test_scales_as_n_over_side_squared(self, n_atoms, side):
        cfg = EnsembleConfig(atom_count=n_atoms, box=(side, side, side))
        od = optical_depth_from_geometry(cfg)
        expected = n_atoms * RESONANT_CROSS_SECTION / side**2
        assert od == pytest.approx(expected, rel=1e-12)

    def test_propagation_length_is_z_side(self):
        cfg = EnsembleConfig(atom_count=100, box=(5.0, 6.0, 7.0))
        assert optical_depth_from_geometry(cfg) == pytest.approx(
            100 / (5 * 6 * 7) * RESONANT_CROSS_SECTION * 7.0, rel=1e-12)

    def test_box_side_inversion(self):
        side = box_side_for_sigma_ss(0.5, 500)
        cfg = EnsembleConfig(atom_count=500, box=(side, side, side))
        assert optical_depth_from_geometry(cfg) == pytest.approx(0.5, rel=1e-12)


class TestPulseShape:
    def test_step_envelope(self):
        p = PulseShape(kind="step", amplitude=2e-3)
        t = np.array([-0.5, 0.0, 1.0, 5.0])
        np.testing.assert_allclose(p.envelope(t), [0.0, 2e-3, 2e-3, 2e-3])

    def test_ramp_10_90_width(self):
        p = PulseShape(kind="smooth_ramp", amplitude=1e-3, rise_10_90=8.0 / 26.2)
        t = np.linspace(0, 2, 20001)
        env = p.envelope(t) / 1e-3
        t10 = t[np.argmax(env >= 0.1)]
        t90 = t[np.argmax(env >= 0.9)]
        assert t90 - t10 == pytest.approx(8.0 / 26.2, rel=1e-3)
        assert env[0] < 0.01

    def test_ramp_matches_scipy_erf(self):
        from scipy.special import erf

        p = PulseShape(kind="smooth_ramp", amplitude=1e-3)
        s = p.rise_10_90 / 2.5631031310892007
        # both tails and the ramp, in units of the erf argument
        x = np.linspace(-7.0, 7.0, 14001)
        t = p.rise_10_90 + math.sqrt(2.0) * s * x
        reference = p.amplitude * 0.5 * (1.0 + erf(x))
        # on the amplitude's scale: in the lower tail 1 + erf(x) cancels, so
        # one ulp of erf there is far more than 1e-15 of the tiny envelope
        np.testing.assert_allclose(p.envelope(t), reference, rtol=1e-15,
                                   atol=1e-15 * p.amplitude)

    def test_ramp_is_half_amplitude_at_rise(self):
        p = PulseShape(kind="smooth_ramp", amplitude=3e-3, rise_10_90=0.4)
        assert p.envelope(p.rise_10_90) == p.amplitude / 2

    def test_envelope_keeps_input_shape(self):
        for kind in ("step", "smooth_ramp"):
            p = PulseShape(kind=kind)
            assert np.shape(p.envelope(0.3)) == ()
            grid = np.linspace(-1.0, 2.0, 12).reshape(3, 4)
            env = p.envelope(grid)
            assert env.shape == (3, 4) and env.dtype == np.float64
            np.testing.assert_array_equal(env.ravel(), p.envelope(grid.ravel()))
            assert p.envelope(grid[1, 2]) == env[1, 2]

    def test_strong_drive_warns(self):
        with pytest.warns(UserWarning):
            PulseShape(kind="step", amplitude=0.5)

    def test_default_is_weak(self):
        assert PulseShape().amplitude < 0.01

    def test_bad_kind(self):
        with pytest.raises(DomainError):
            PulseShape(kind="sawtooth")


class TestEnsembleConfig:
    def test_density(self):
        cfg = EnsembleConfig(atom_count=500, box=(12.0, 12.0, 12.0))
        assert cfg.density == pytest.approx(500 / 1728.0, rel=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(atom_count=-1),
        dict(box=(0.0, 10.0, 10.0)),
        dict(min_pair_separation=11.0, box=(10.0, 10.0, 10.0)),
        dict(beta_over_2pi_hz_cm3=-1e-6),
        dict(realization_count=0),
    ])
    def test_invariants(self, kwargs):
        with pytest.raises(DomainError):
            EnsembleConfig(**kwargs)

    def test_gamma_dd_uses_density(self):
        sp = AtomicSpecies()
        cfg = EnsembleConfig(atom_count=500, box=(15.0, 15.0, 15.0),
                             beta_over_2pi_hz_cm3=4.9e-5)
        expected = gamma_dd_from_beta(4.9e-5, sp.density_to_per_cm3(cfg.density), sp)
        assert cfg.gamma_dd(sp) == pytest.approx(expected, rel=1e-12)


class TestConfigParsing:
    def test_full_round_trip(self, tmp_path):
        data = {
            "species": {"excited_lifetime_ns": 26.2, "wavelength_nm": 780.0},
            "pulse": {"kind": "step", "rabi_peak_rad_per_s": 3.8167e4,
                      "detuning_rad_per_s": 1.272e7, "rise_10_90_ns": 8.0},
            "ensemble": {"atom_count": 200, "box_side_um": [15.6, 15.6, 15.6],
                         "beta_over_2pi_hz_cm3": 4.9e-5,
                         "min_pair_separation_um": 0.039,
                         "rng_seed": 11, "realization_count": 4},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        raw = load_config_dict(path)
        sp = species_from_dict(raw["species"])
        pulse = pulse_from_dict(raw["pulse"], sp)
        ens = ensemble_from_dict(raw["ensemble"], sp)
        assert pulse.amplitude == pytest.approx(3.8167e4 * sp.lifetime_s, rel=1e-12)
        assert pulse.detuning == pytest.approx(1.272e7 * 26.2e-9, rel=1e-12)
        # 15.6 um = 20 lambda at 780 nm
        assert ens.box[0] == pytest.approx(20.0, rel=1e-12)
        assert ens.min_pair_separation == pytest.approx(0.05, rel=1e-12)
        assert ens.rng_seed == 11

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config_dict(path)

    def test_bad_box(self):
        with pytest.raises(ConfigError):
            ensemble_from_dict({"box_side_um": [1.0, 2.0]}, AtomicSpecies())

    @pytest.mark.parametrize("section,data", [
        ("species", {"wavelength_nm": True}),
        ("species", {"excited_lifetime_ns": "26.2"}),
        ("pulse", {"rabi_peak_rad_per_s": float("nan")}),
        ("pulse", {"rise_10_90_ns": None}),
        ("ensemble", {"beta_over_2pi_hz_cm3": "inf"}),
        ("ensemble", {"beta_over_2pi_hz_cm3": float("inf")}),
        ("ensemble", {"min_pair_separation_um": False}),
        ("ensemble", {"box_side_um": [15.6, True, 15.6]}),
        ("ensemble", {"box_side_um": "15.6"}),
        ("ensemble", {"box_side_um": [15.6, 15.6, 10**400]}),
    ])
    def test_numbers_must_be_finite_json_numbers(self, section, data):
        # a boolean, a string or a non-finite value is refused, not converted
        parse = {"species": species_from_dict,
                 "pulse": lambda d: pulse_from_dict(d, AtomicSpecies()),
                 "ensemble": lambda d: ensemble_from_dict(d, AtomicSpecies())}[section]
        with pytest.raises(ConfigError, match="must be a"):
            parse(data)

    def test_integer_numbers_are_numbers(self):
        assert species_from_dict({"wavelength_nm": 780}).wavelength_nm == 780.0
        ens = ensemble_from_dict({"box_side_um": [39, 39, 39]}, AtomicSpecies())
        assert ens.box == (50.0, 50.0, 50.0)
