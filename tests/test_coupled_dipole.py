import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from scipy.special import spherical_jn

from subabsorb import coupled_dipole
from subabsorb.core import (AtomicSpecies, DomainError, EnsembleConfig, PulseShape,
                            box_side_for_sigma_ss)
from subabsorb.coupled_dipole import (GRAM_ROUNDING, SAMPLE_BLOCK, DensityTooHighError,
                                      EnsembleRealization, PerturbativeBoundError,
                                      H0_BLOCK_ROWS, T_POINTS, _exchange, _gram_margin,
                                      _h0_block_rows, _readout, _spectrum,
                                      build_coupling_matrix,
                                      dipole_trace, evolve_closed_form,
                                      realization_spectrum, run_ensemble,
                                      run_realization, sample_positions, spectral_trace,
                                      suppression_factor)
from subabsorb.recipes import BETA_SET

from reference import drive_vector, pad_systems, rk4_amplitudes

STEP = PulseShape(kind="step")

# Im(F)/Gamma_a at (theta, k*r), frozen from a 30-digit symbolic evaluation of
# the exchange-coupling expression (F is purely imaginary)
GOLDEN_COUPLING = [
    (0.0, 0.4, -0.492045579081948),
    (0.0, math.pi / 2, -0.387018413198394),
    (0.0, math.pi, -0.151981775463507),
    (0.0, 2 * math.pi, 0.0379954438658767),
    (0.0, 9.7, -0.0148955519248725),
    (math.pi / 6, math.pi, -0.0949886096646917),
    (math.pi / 4, 0.4, -0.488091090684847),
    (math.pi / 4, 2 * math.pi, 0.00949886096646917),
    (math.pi / 2, math.pi / 2, -0.283955622676489),
    (math.pi / 2, math.pi, 0.0759908877317533),
    (math.pi / 2, 9.7, 0.0284601955302927),
]


def vec_at(theta, kr):
    """Separation vector with angle theta to x-hat and length kr/2pi (lambda units)."""
    r = kr / (2 * math.pi)
    return np.array([math.cos(theta), math.sin(theta), 0.0]) * r


def textbook_coupling_f(r_vec, mode="vectorial"):
    """F for separation vectors r_vec (..., 3) as the formula reads, x polarization.

    Complex throughout, with the separation taken from an np.sum over the
    last axis; the package's real, per-component kernel must give the same
    bits.
    """
    r = np.sqrt(np.sum(r_vec**2, axis=-1))
    kr = 2.0 * math.pi * r
    cos2 = np.ones_like(r) if mode == "scalar" else (r_vec[..., 0] / r) ** 2
    near = (np.cos(kr) / kr**2 - np.sin(kr) / kr**3) * (1.0 - 3.0 * cos2)
    return -0.75j * (np.sin(kr) * (1.0 - cos2) / kr + near)


def dephased(h0, suppression):
    """H(S) = I/2 + S (H0 - I/2) as an assembly would write it: every coupling
    scaled by S, the diagonal decay left at 1/2."""
    h = suppression * h0
    np.fill_diagonal(h, 0.5)
    return h


def exchange(r_vec, mode="vectorial"):
    """The package's kernel i*F on the components of separation vectors (..., 3)."""
    return _exchange(r_vec[..., 0], r_vec[..., 1], r_vec[..., 2], mode=mode)


class TestCouplingF:
    def test_matches_textbook_expression_bit_for_bit(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=(4000, 3)) * rng.uniform(0.01, 30.0, size=(4000, 1))
        for mode in ("vectorial", "scalar"):
            expected = (1j * textbook_coupling_f(v, mode=mode)).real
            np.testing.assert_array_equal(exchange(v, mode=mode), expected)
            np.testing.assert_array_equal(exchange(v.reshape(40, 100, 3), mode=mode),
                                          expected.reshape(40, 100))

    @pytest.mark.parametrize("theta,kr,expected", GOLDEN_COUPLING)
    def test_golden_table(self, theta, kr, expected):
        # the table holds Im(F) and the kernel returns i*F, so Im(F) = -i*F
        assert -exchange(vec_at(theta, kr)) == pytest.approx(expected, rel=1e-12)

    def test_spec_points_closed_form(self):
        # theta = 0, kr = pi: the polarization-transverse term vanishes and
        # F = -i (3/pi^2) Gamma/2; theta = pi/2 flips the near-field sign
        assert -exchange(vec_at(0.0, math.pi)) == pytest.approx(-3.0 / math.pi**2 / 2.0,
                                                                rel=1e-12)
        assert -exchange(vec_at(math.pi / 2, math.pi)) == pytest.approx(
            1.5 / math.pi**2 / 2.0, rel=1e-12)

    def test_far_field_decay(self):
        assert abs(exchange(vec_at(0.7, 1e6))) < 1e-5

    def test_scalar_mode_is_theta_zero(self):
        scalar = exchange(vec_at(1.1, 2.3), mode="scalar")
        aligned = exchange(vec_at(0.0, 2.3))
        assert scalar == pytest.approx(aligned, rel=1e-12)

    def test_reciprocity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.normal(size=3)
            assert exchange(v) == pytest.approx(exchange(-v), rel=1e-12)

    def test_coincident_atoms_raise(self):
        pair = EnsembleRealization(positions=np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]),
                                   min_pair_distance=0.0)
        with pytest.raises(DomainError):
            build_coupling_matrix(pair)


def reference_sample_positions(config, seed):
    """Sequential insertion, one candidate per draw: the sampler that
    sample_positions reproduces bit for bit.

    Returns the positions, the minimum pair distance and the longest run of
    consecutive rejections; past MAX_REJECTIONS consecutive rejections it
    raises as sample_positions does.
    """
    n = config.atom_count
    rng = np.random.default_rng(seed)
    box = np.asarray(config.box)
    r_min2 = config.min_pair_separation**2
    pts = np.empty((n, 3))
    count = rejections = longest = 0
    min_d2 = math.inf
    while count < n:
        cand = rng.uniform(0.0, 1.0, size=3) * box
        if count:
            d2 = float(np.min(np.sum((pts[:count] - cand) ** 2, axis=1)))
            if d2 < r_min2:
                rejections += 1
                longest = max(longest, rejections)
                if rejections > coupled_dipole.MAX_REJECTIONS:
                    raise DensityTooHighError(
                        "pair-exclusion rejection sampling did not terminate")
                continue
            min_d2 = min(min_d2, d2)
        pts[count] = cand
        count += 1
        rejections = 0
    return pts, math.sqrt(min_d2), longest


# (atom_count, box side, r_min): dilute; dense, with rejection runs longer
# than several blocks; the first block clashing with itself (134 to 175 of its pairs
# are closer than r_min, for each seed); no exclusion; N = 1 and 2; an N that is not a
# multiple of the draw block
SAMPLER_CASES = [(500, 12.0, 0.05), (80, 1.0, 0.22), (30, 1.0, 0.3), (40, 2.0, 0.0),
                 (1, 5.0, 0.05), (2, 0.5, 0.3), (3 * SAMPLE_BLOCK + 5, 3.0, 0.3)]


class TestSampler:
    @pytest.mark.parametrize("n,side,r_min", SAMPLER_CASES)
    def test_matches_sequential_reference(self, n, side, r_min):
        cfg = EnsembleConfig(atom_count=n, box=(side, side, side),
                             min_pair_separation=r_min)
        for seed in (0, 3, 11):
            ref_pos, ref_min, _ = reference_sample_positions(cfg, seed)
            r = sample_positions(cfg, seed)
            np.testing.assert_array_equal(r.positions, ref_pos)
            assert r.min_pair_distance == ref_min
            assert r.positions.flags.c_contiguous

    def test_rejection_limit_aborts_like_sequential_sampling(self, monkeypatch):
        # feasible but crowded: the longest run of consecutive rejections
        # covers whole blocks; one below it aborts, it itself does not
        cfg = EnsembleConfig(atom_count=80, box=(1.0, 1.0, 1.0), min_pair_separation=0.22)
        ref_pos, _, longest = reference_sample_positions(cfg, 3)
        assert longest > 2 * SAMPLE_BLOCK
        for limit in (5, longest - 1):
            monkeypatch.setattr(coupled_dipole, "MAX_REJECTIONS", limit)
            with pytest.raises(DensityTooHighError, match="did not terminate"):
                sample_positions(cfg, 3)
        monkeypatch.setattr(coupled_dipole, "MAX_REJECTIONS", longest)
        np.testing.assert_array_equal(sample_positions(cfg, 3).positions, ref_pos)

    def test_jammed_packing_aborts(self, monkeypatch):
        # within the volume bound, but random insertion jams at 9 atoms (for
        # seed 0 the ninth comes after 5682 rejections, and no tenth in the
        # next 2.9*10^5 draws): no acceptance ends the run, the limit alone
        # stops it
        cfg = EnsembleConfig(atom_count=10, box=(1.0, 1.0, 1.0), min_pair_separation=0.6)
        monkeypatch.setattr(coupled_dipole, "MAX_REJECTIONS", 20_000)
        for sampler in (reference_sample_positions, sample_positions):
            with pytest.raises(DensityTooHighError, match="did not terminate"):
                sampler(cfg, 0)

    def test_single_atom(self):
        cfg = EnsembleConfig(atom_count=1, box=(5.0, 5.0, 5.0))
        r = sample_positions(cfg, seed=3)
        assert r.positions.shape == (1, 3)
        assert np.all(r.positions >= 0) and np.all(r.positions <= 5.0)

    def test_determinism(self):
        cfg = EnsembleConfig(atom_count=100, box=(10.0, 10.0, 10.0))
        a = sample_positions(cfg, seed=42)
        b = sample_positions(cfg, seed=42)
        assert np.array_equal(a.positions, b.positions)
        c = sample_positions(cfg, seed=43)
        assert not np.array_equal(a.positions, c.positions)

    def test_exhaustive_pair_distances_n500(self):
        cfg = EnsembleConfig(atom_count=500, box=(12.0, 12.0, 12.0),
                             min_pair_separation=0.05)
        r = sample_positions(cfg, seed=7)
        diff = r.positions[:, None, :] - r.positions[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=-1))
        iu = np.triu_indices(500, 1)
        assert iu[0].size == 124_750
        assert np.min(dist[iu]) >= 0.05
        assert r.min_pair_distance >= 0.05
        assert np.all(r.positions >= 0) and np.all(r.positions <= 12.0)

    @pytest.mark.parametrize("r_min", [0.0, 0.3])
    def test_min_pair_distance_is_the_brute_force_minimum(self, r_min):
        cfg = EnsembleConfig(atom_count=40, box=(2.0, 2.0, 2.0),
                             min_pair_separation=r_min)
        r = sample_positions(cfg, seed=11)
        diff = r.positions[:, None, :] - r.positions[None, :, :]
        dist = np.sqrt(np.sum(diff**2, axis=-1))
        assert r.min_pair_distance == np.min(dist[np.triu_indices(40, 1)])
        assert sample_positions(replace(cfg, atom_count=1), seed=11) \
            .min_pair_distance == math.inf

    def test_dense_feasible_packing_passes_the_bound(self):
        # exclusion balls fill a third of the box, near the jamming limit of
        # sequential random insertion; the volume bound must not reject it
        cfg = EnsembleConfig(atom_count=80, box=(1.0, 1.0, 1.0),
                             min_pair_separation=0.2)
        r = sample_positions(cfg, seed=3)
        assert r.atom_count == 80
        assert r.min_pair_distance >= 0.2

    def test_impossible_density_is_refused_by_the_config(self):
        # beyond the volume bound no sampler runs: the config itself is refused
        with pytest.raises(DomainError, match="cannot fit"):
            EnsembleConfig(atom_count=80, box=(1.0, 1.0, 1.0), min_pair_separation=0.45)


class TestCouplingMatrix:
    def test_two_atom_hand_built(self):
        cfg = EnsembleConfig(atom_count=2, box=(5.0, 5.0, 5.0))
        r = sample_positions(cfg, seed=5)
        built = build_coupling_matrix(r)
        f01 = textbook_coupling_f(r.positions[0] - r.positions[1])
        expected = np.array([[0.5, 1j * f01], [1j * f01, 0.5]])
        np.testing.assert_allclose(built, expected, rtol=1e-14)

    def test_complex_symmetric_with_decay_diagonal(self):
        cfg = EnsembleConfig(atom_count=30, box=(6.0, 6.0, 6.0))
        r = sample_positions(cfg, seed=1)
        h = build_coupling_matrix(r)
        np.testing.assert_allclose(h, h.T, rtol=0, atol=0)
        np.testing.assert_allclose(np.diag(h), 0.5, rtol=0, atol=0)
        assert np.all(np.isfinite(h))

    def test_suppression_halves_at_gamma(self):
        # gamma_DD = Gamma_a halves the couplings: the spectral read at that S
        # is the closed form of H0 with its couplings halved, its diagonal kept
        assert suppression_factor(1.0) == 0.5
        cfg = EnsembleConfig(atom_count=10, box=(4.0, 4.0, 4.0))
        spectrum = realization_spectrum(cfg, 2)
        trace = spectral_trace(spectrum, suppression_factor(1.0), 1e-3)
        r = spectrum.realization
        h = dephased(build_coupling_matrix(r), 0.5)
        omega = drive_vector(r.positions, 1e-3)
        ref = dipole_trace(evolve_closed_form(h, omega, T_POINTS), r, h, omega)
        np.testing.assert_allclose(trace.p_normalized, ref.p_normalized, rtol=0, atol=1e-13)
        assert trace.steady_state_raw == pytest.approx(ref.steady_state_raw, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 64, 65, 200, 700])
    @pytest.mark.parametrize("mode", ["vectorial", "scalar"])
    def test_blocked_assembly_matches_all_pairs_reference(self, n, mode):
        # references: every pair at once through triu_indices, mirrored, from
        # the package's kernel and from the textbook expression
        cfg = EnsembleConfig(atom_count=n, box=(5.0, 5.0, 5.0))
        r = sample_positions(cfg, seed=4)
        pos = r.positions
        iu = np.triu_indices(n, 1)
        d = pos[iu[0]] - pos[iu[1]]
        built = build_coupling_matrix(r, mode=mode)
        assert built.dtype == np.float64
        # the stored block rows are the upper rows of H0 from the diagonal
        # on: N = 700 is one block of 512 rows and one of 188
        blocks = _h0_block_rows(r, mode, H0_BLOCK_ROWS)
        assert [len(h) for h in blocks] == [min(H0_BLOCK_ROWS, n - s)
                                            for s in range(0, n, H0_BLOCK_ROWS)]
        for i_f in (exchange(d, mode=mode), (1j * textbook_coupling_f(d, mode=mode)).real):
            expected = np.zeros((n, n))
            expected[iu] = i_f
            expected[(iu[1], iu[0])] = i_f
            np.fill_diagonal(expected, 0.5)
            np.testing.assert_array_equal(built, expected)
            for s, h in zip(range(0, n, H0_BLOCK_ROWS), blocks):
                np.testing.assert_array_equal(h, expected[s:s + H0_BLOCK_ROWS, s:])

    def test_large_dephasing_decouples(self):
        # S = 1/(1 + 10^12): every atom rises alone, as 1 - e^{-t/2}
        cfg = EnsembleConfig(atom_count=5, box=(3.0, 3.0, 3.0))
        trace = spectral_trace(realization_spectrum(cfg, 2), suppression_factor(1e6), 1e-3)
        np.testing.assert_allclose(trace.p_normalized, 1.0 - np.exp(-T_POINTS / 2.0),
                                   rtol=0, atol=1e-10)

    def test_suppression_monotone(self):
        vals = [suppression_factor(g) for g in [0.0, 0.5, 1.0, 3.0, 10.0]]
        assert vals[0] == 1.0
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestEvolution:
    def test_single_atom_closed_form(self):
        # dc/dt = -c/2 - i Omega  =>  c(t) = -2i Omega (1 - e^{-t/2})
        h = np.array([[0.5 + 0.0j]])
        omega = np.array([1e-3 + 0.0j])
        t = np.linspace(0, 8, 81)
        state = evolve_closed_form(h, omega, t)
        expected = -2j * 1e-3 * (1.0 - np.exp(-t / 2.0))
        np.testing.assert_allclose(state.amplitudes[:, 0], expected, rtol=1e-12,
                                   atol=1e-18)
        assert state.amplitudes[0, 0] == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_closed_form_vs_rk4_small_n(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 21))
        side = float(rng.uniform(2.0, 6.0))
        cfg = EnsembleConfig(atom_count=n, box=(side, side, side))
        r = sample_positions(cfg, seed=seed + 100)
        h = build_coupling_matrix(r)
        omega = drive_vector(r.positions, 1e-3)
        t = np.linspace(0, 8, 41)
        cf = evolve_closed_form(h, omega, t)
        rk = rk4_amplitudes(h[None], omega[None], t, substeps=100)[0]
        scale = np.max(np.abs(cf.amplitudes))
        assert np.max(np.abs(cf.amplitudes - rk)) / scale < 1e-6

    def test_padded_batch_steps_each_system_as_alone(self):
        # systems of 3, 7 and 12 atoms in one padded batch: the padding stays
        # exactly 0, and each system's amplitudes are those of a batch of one
        # up to the summation order of the stacked matmul
        t = np.linspace(0, 8, 9)
        hs, omegas = [], []
        for n, seed in ((3, 1), (7, 2), (12, 3)):
            r = sample_positions(EnsembleConfig(atom_count=n, box=(3.0, 3.0, 3.0)), seed)
            hs.append(build_coupling_matrix(r))
            omegas.append(drive_vector(r.positions, 1e-3))
        batch = rk4_amplitudes(*pad_systems(hs, omegas), t, substeps=20)
        for h, omega, got in zip(hs, omegas, batch):
            n = len(omega)
            assert np.all(got[:, n:] == 0)
            alone = rk4_amplitudes(h[None], omega[None], t, substeps=20)[0]
            np.testing.assert_allclose(got[:, :n], alone, rtol=0,
                                       atol=1e-14 * np.max(np.abs(alone)))

    def test_linearity_in_drive(self):
        cfg = EnsembleConfig(atom_count=12, box=(4.0, 4.0, 4.0))
        r = sample_positions(cfg, seed=9)
        h = build_coupling_matrix(r)
        t = np.linspace(0, 8, 17)
        base = evolve_closed_form(h, drive_vector(r.positions, 1e-4), t)
        scaled = evolve_closed_form(h, drive_vector(r.positions, 5e-4), t)
        np.testing.assert_allclose(scaled.amplitudes, 5.0 * base.amplitudes,
                                   rtol=1e-10, atol=1e-18)

    def test_excitation_stays_perturbative(self):
        cfg = EnsembleConfig(atom_count=50, box=(6.0, 6.0, 6.0))
        r = sample_positions(cfg, seed=4)
        h = build_coupling_matrix(r)
        state = evolve_closed_form(h, drive_vector(r.positions, 1e-3),
                                   np.linspace(0, 8, 61))
        assert np.max(state.excitation_norm()) < 1e-2

    def test_perturbative_bound_enforced(self):
        h = np.array([[0.5 + 0.0j]])
        with pytest.raises(PerturbativeBoundError):
            evolve_closed_form(h, np.array([0.3 + 0.0j]), np.linspace(0, 8, 9))

    @pytest.mark.parametrize("h", [[[0.5 + 0.1j]], [[-0.5]]])
    def test_closed_form_needs_real_positive_h(self, h):
        with pytest.raises(DomainError):
            evolve_closed_form(np.array(h), np.array([1e-3 + 0.0j]), np.linspace(0, 8, 9))


class TestDipoleTrace:
    def test_single_atom_rise(self):
        cfg = EnsembleConfig(atom_count=1, box=(5.0, 5.0, 5.0))
        trace, _ = run_realization(cfg, seed=0, pulse=STEP)
        # the one readout grid: step tau_a/20 on [0, 8 tau_a]
        np.testing.assert_array_equal(trace.t_points, np.linspace(0.0, 8.0, 161))
        expected = 1.0 - np.exp(-trace.t_points / 2.0)
        np.testing.assert_allclose(trace.p_normalized, expected, rtol=1e-9,
                                   atol=1e-12)

    def test_single_atom_fitted_tau(self):
        from subabsorb.analysis import fit_rise_time, trace_from_dipole
        cfg = EnsembleConfig(atom_count=1, box=(5.0, 5.0, 5.0))
        trace, _ = run_realization(cfg, seed=0, pulse=STEP)
        fit = fit_rise_time(trace_from_dipole(trace, 0.1))
        assert fit.tau == pytest.approx(2.0, rel=1e-6)

    def test_starts_at_zero(self):
        cfg = EnsembleConfig(atom_count=40, box=(8.0, 8.0, 8.0))
        trace, _ = run_realization(cfg, seed=1, pulse=STEP)
        assert trace.p_normalized[0] == 0.0

    def test_decay_spectrum_positive(self):
        # every collective mode decays, so P(t) settles for a fixed realization
        cfg = EnsembleConfig(atom_count=60, box=(5.0, 5.0, 5.0))
        r = sample_positions(cfg, seed=12)
        h = build_coupling_matrix(r)
        lam = np.linalg.eigvalsh(h.real)
        assert np.all(lam > 0)

    def test_normalization_invariant_under_drive_scale(self):
        cfg = EnsembleConfig(atom_count=25, box=(6.0, 6.0, 6.0))
        a, _ = run_realization(cfg, seed=3, pulse=PulseShape(kind="step", amplitude=1e-3))
        b, _ = run_realization(cfg, seed=3, pulse=PulseShape(kind="step", amplitude=2e-3))
        np.testing.assert_allclose(a.p_normalized, b.p_normalized, rtol=1e-10)


class TestEnsembleAveraging:
    def test_single_realization_matches_run(self):
        cfg = EnsembleConfig(atom_count=30, box=(8.0, 8.0, 8.0), rng_seed=5,
                             realization_count=1)
        res = run_ensemble(cfg, pulse=STEP)
        solo, _ = run_realization(cfg, seed=5, pulse=STEP)
        np.testing.assert_allclose(res.p_mean, solo.p_normalized, rtol=0, atol=0)
        assert np.all(res.p_stderr == 0)

    def test_bit_identical_reruns(self):
        cfg = EnsembleConfig(atom_count=40, box=(10.0, 10.0, 10.0), rng_seed=21,
                             realization_count=4)
        a = run_ensemble(cfg, pulse=STEP)
        b = run_ensemble(cfg, pulse=STEP)
        assert np.array_equal(a.p_mean, b.p_mean)
        assert np.array_equal(a.p_stderr, b.p_stderr)
        assert a.seeds == b.seeds == (21, 22, 23, 24)

    def test_mean_is_fixed_order_average(self):
        cfg = EnsembleConfig(atom_count=20, box=(7.0, 7.0, 7.0), rng_seed=9,
                             realization_count=3)
        res = run_ensemble(cfg, pulse=STEP)
        stack = np.stack([tr.p_normalized for tr in res.traces])
        np.testing.assert_allclose(res.p_mean, stack.mean(axis=0), rtol=0, atol=0)

    def test_subabsorption_at_moderate_density(self):
        # 15 lambda cube at N=500: mean fitted tau exceeds 2 tau_a by more
        # than its standard error
        from subabsorb.analysis import fit_rise_time, trace_from_dipole
        from subabsorb.core import optical_depth_from_geometry
        cfg = EnsembleConfig(atom_count=500, box=(15.0, 15.0, 15.0), rng_seed=400,
                             realization_count=10)
        sigma_ss = optical_depth_from_geometry(cfg)
        res = run_ensemble(cfg, pulse=STEP)
        taus = np.array([fit_rise_time(trace_from_dipole(tr, sigma_ss)).tau
                         for tr in res.traces])
        excess = taus.mean() - 2.0
        stderr = taus.std(ddof=1) / math.sqrt(len(taus))
        assert excess > stderr


class TestSharedSpectrum:
    """run_realization reads P(t) from one spectrum per geometry."""

    CFG = EnsembleConfig(atom_count=60, box=(3.0, 3.0, 3.0))

    @staticmethod
    def amplitude_path(cfg, seed, pulse=STEP):
        r = sample_positions(cfg, seed)
        suppression = suppression_factor(cfg.gamma_dd(AtomicSpecies()))
        h = dephased(build_coupling_matrix(r), suppression)
        omega = drive_vector(r.positions, pulse.amplitude)
        state = evolve_closed_form(h, omega, np.linspace(0.0, 8.0, 161))
        return dipole_trace(state, r, h, omega)

    def test_matches_amplitude_path_for_every_beta(self):
        spectra = {}
        suppressions = []
        for beta in BETA_SET:
            cfg = replace(self.CFG, beta_over_2pi_hz_cm3=beta)
            suppressions.append(suppression_factor(cfg.gamma_dd(AtomicSpecies())))
            trace, _ = run_realization(cfg, seed=8, pulse=STEP, spectra=spectra)
            ref = self.amplitude_path(cfg, 8)
            np.testing.assert_allclose(trace.p_normalized, ref.p_normalized,
                                       rtol=0, atol=1e-13)
            assert trace.steady_state_raw == pytest.approx(ref.steady_state_raw,
                                                           rel=1e-13)
        assert len(spectra) == 1
        # the family spans undamped to almost fully suppressed couplings
        assert suppressions[0] == 1.0 and suppressions[-1] < 1e-3

    def test_cached_spectrum_gives_identical_trace(self):
        spectra = {}
        first, _ = run_realization(self.CFG, seed=8, pulse=STEP, spectra=spectra)
        again, _ = run_realization(self.CFG, seed=8, pulse=STEP, spectra=spectra)
        alone, _ = run_realization(self.CFG, seed=8, pulse=STEP)
        assert np.array_equal(first.p_normalized, again.p_normalized)
        assert np.array_equal(first.p_normalized, alone.p_normalized)

    def test_norm_guard_on_shared_path(self):
        strong = PulseShape(kind="step", amplitude=0.05)
        with pytest.raises(PerturbativeBoundError):
            run_realization(self.CFG, seed=8, pulse=strong, spectra={})

    def test_non_positive_node_raises(self):
        spectrum = realization_spectrum(self.CFG, 8)
        assert spectrum.lambda0[0] > 0 and spectrum.gram_margin is None
        # a rule whose smallest node is below zero has no steady state
        shifted = replace(spectrum, lambda0=spectrum.lambda0 - spectrum.lambda0[0] - 1e-3)
        with pytest.raises(DomainError, match="not positive"):
            spectral_trace(shifted, 1.0, 1e-3)


def reference_p_of_t(positions, suppression, t_points, mode):
    """Normalized P(t) from cooperative decay rates, an LU steady state and
    matrix exponentials; it shares no code with the package.

    Gamma_jk = 3/2 [(1 - cos^2 th) j0(kr) + (3 cos^2 th - 1) j1(kr)/kr] with
    th the angle between r_jk and the x polarization (th = 0 in scalar mode),
    H = (I + S Gamma)/2, and c(t) = (I - exp(-H t)) H^{-1} b for the step
    drive b_j = -i exp(i k z_j).
    """
    n = len(positions)
    gamma = np.zeros((n, n))
    for j in range(n):
        for k in range(n):
            if j == k:
                continue
            d = positions[j] - positions[k]
            r = math.sqrt(d @ d)
            kr = 2.0 * math.pi * r
            cos2 = 1.0 if mode == "scalar" else (d[0] / r) ** 2
            gamma[j, k] = 1.5 * ((1.0 - cos2) * spherical_jn(0, kr)
                                 + (3.0 * cos2 - 1.0) * spherical_jn(1, kr) / kr)
    h = 0.5 * (np.eye(n) + suppression * gamma)
    kz = 2.0 * math.pi * positions[:, 2]
    c_ss = scipy.linalg.lu_solve(scipy.linalg.lu_factor(h + 0j), -1j * np.exp(1j * kz))
    readout = np.exp(-1j * kz)
    raw = np.array([abs((c_ss - scipy.linalg.expm(-h * t) @ c_ss) @ readout)
                    for t in t_points])
    return raw / abs(c_ss @ readout)


class TestSpectralOracle:
    """spectral_trace against an evolution that shares no code with it."""

    @pytest.mark.parametrize("mode", ["vectorial", "scalar"])
    @pytest.mark.parametrize("suppression", [1.0, 0.3, 1e-3])
    def test_matches_reference_small_n(self, mode, suppression):
        rng = np.random.default_rng(31)
        for seed in range(6):
            n = int(rng.integers(2, 21))
            side = float(rng.uniform(0.8, 3.0))
            cfg = EnsembleConfig(atom_count=n, box=(side, side, side))
            spectrum = realization_spectrum(cfg, seed, mode=mode)
            trace = spectral_trace(spectrum, suppression, 1e-3)
            ref = reference_p_of_t(spectrum.realization.positions, suppression, T_POINTS, mode)
            np.testing.assert_allclose(trace.p_normalized, ref, rtol=0, atol=1e-9)
            if suppression == 1.0:
                solo, _ = run_realization(cfg, seed, pulse=STEP, mode=mode)
                np.testing.assert_allclose(solo.p_normalized, ref, rtol=0, atol=1e-9)


def eigh_reference(spectrum, mode):
    """The full spectrum of H0 with the eigenvector weights |Q^T e^{ikz}|^2."""
    h0 = build_coupling_matrix(spectrum.realization, mode=mode)
    lam, q = np.linalg.eigh(h0)
    kz = 2.0 * math.pi * spectrum.realization.positions[:, 2]
    proj = q.T @ np.stack([np.cos(kz), np.sin(kz)], axis=1)
    return replace(spectrum, lambda0=lam, weights=proj[:, 0] ** 2 + proj[:, 1] ** 2)


def assert_same_readout(spectrum, reference, suppression, rtol):
    """P(t), the steady state and the peak sum |c|^2 agree to rtol."""
    a = spectral_trace(spectrum, suppression, 1e-3)
    b = spectral_trace(reference, suppression, 1e-3)
    np.testing.assert_allclose(a.p_normalized, b.p_normalized, rtol=rtol, atol=0)
    assert a.steady_state_raw == pytest.approx(b.steady_state_raw, rel=rtol, abs=0)
    peaks = [np.max(_readout(0.5 + suppression * (s.lambda0 - 0.5), s.weights)[1])
             for s in (spectrum, reference)]
    assert peaks[0] == pytest.approx(peaks[1], rel=rtol, abs=0)


class TestLanczosReadout:
    """The Gauss rule of realization_spectrum against a full eigendecomposition."""

    @pytest.mark.parametrize("mode", ["vectorial", "scalar"])
    @pytest.mark.parametrize("n, seed, betas", [(300, 1, BETA_SET), (400, 2, BETA_SET),
                                                (500, 3, BETA_SET), (700, 4, BETA_SET[1:])],
                             ids=["300-1", "400-2", "500-3", "700-4"])
    def test_dense_geometries_match_eigh_at_every_beta(self, n, seed, betas, mode):
        # read without beta = 0, the N = 700 geometry is uncertified, and
        # Lanczos reads H0 as block rows of 512 and 188
        side = box_side_for_sigma_ss(2.0, n)
        cfg = EnsembleConfig(atom_count=n, box=(side, side, side))
        suppressions = [suppression_factor(
            replace(cfg, beta_over_2pi_hz_cm3=beta).gamma_dd(AtomicSpecies())) for beta in betas]
        spectrum = realization_spectrum(cfg, seed, mode=mode, suppression=max(suppressions))
        assert (spectrum.gram_margin is None) == (0.0 in betas)
        assert len(spectrum.lambda0) <= n
        reference = eigh_reference(spectrum, mode)
        for suppression in suppressions:
            assert_same_readout(spectrum, reference, suppression, rtol=1e-12)
        again = realization_spectrum(cfg, seed, mode=mode, suppression=max(suppressions))
        assert np.array_equal(again.lambda0, spectrum.lambda0)
        assert np.array_equal(again.weights, spectrum.weights)

    def test_basis_grows_without_a_second_copy(self):
        # N = 700 in block rows of 512 and 188 takes more than 32 nodes, so
        # the basis grows from 32 to 64 rows.  Beyond its input blocks the
        # rule holds that basis, a few vectors of N and the readout's
        # (T_POINTS, nodes) arrays, never the old and the grown basis at once
        n = 700
        side = box_side_for_sigma_ss(2.0, n)
        realization = sample_positions(EnsembleConfig(atom_count=n, box=(side, side, side)), 4)
        blocks = _h0_block_rows(realization, "vectorial", H0_BLOCK_ROWS)
        drive = np.exp(1j * coupled_dipole.K_A * realization.positions[:, 2])
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            nodes, _ = coupled_dipole._gauss_rule(blocks, drive)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert 32 < len(nodes) <= 64
        assert peak <= 16 * n * (64 + 8) + 4 * 8 * len(T_POINTS) * len(nodes)

    @pytest.mark.parametrize("mode", ["vectorial", "scalar"])
    def test_small_dense_geometry_reaches_the_cap_and_is_exact(self, mode):
        side = box_side_for_sigma_ss(2.0, 20)
        cfg = EnsembleConfig(atom_count=20, box=(side, side, side))
        for seed in range(3):
            spectrum = realization_spectrum(cfg, seed, mode=mode)
            reference = eigh_reference(spectrum, mode)
            assert len(spectrum.lambda0) == 20
            np.testing.assert_allclose(spectrum.lambda0, reference.lambda0, rtol=0,
                                       atol=1e-13)
            for suppression in (1.0, 0.3, 1e-3):
                assert_same_readout(spectrum, reference, suppression, rtol=1e-12)

    def test_node_count_never_exceeds_n(self):
        for n in (1, 2, 3, 5, 8):
            cfg = EnsembleConfig(atom_count=n, box=(0.6, 0.6, 0.6), min_pair_separation=0.0)
            for seed in range(4):
                spectrum = realization_spectrum(cfg, seed)
                assert len(spectrum.lambda0) <= n
                assert_same_readout(spectrum, eigh_reference(spectrum, "vectorial"), 1.0,
                                    rtol=1e-12)

    def test_drive_in_one_plane_starts_from_one_vector(self):
        # every atom at the same z: b = e^{ikz} is one phase times a real
        # vector, and cos kz and sin kz are parallel
        positions = np.array([[0.0, 0.0, 0.3], [0.4, 0.1, 0.3], [0.1, 0.5, 0.3]])
        realization = EnsembleRealization(positions=positions, min_pair_distance=0.4)
        h0 = build_coupling_matrix(realization)
        spectrum = _spectrum(realization, [h0])
        assert len(spectrum.lambda0) == 3
        assert_same_readout(spectrum, eigh_reference(spectrum, "vectorial"), 1.0,
                            rtol=1e-12)

    def test_drive_in_an_invariant_subspace_stops_at_breakdown(self):
        # H0 built so that b = e^{ikz} lies in a 3-dimensional invariant
        # subspace: the Krylov space closes after 3 steps, well before k = N
        n = 20
        rng = np.random.default_rng(0)
        positions = rng.uniform(0.0, 2.0, size=(n, 3))
        pairs = np.linalg.norm(positions[:, None] - positions[None], axis=-1)
        realization = EnsembleRealization(
            positions=positions, min_pair_distance=float(pairs[np.triu_indices(n, 1)].min()))
        kz = 2.0 * math.pi * positions[:, 2]
        drive = np.stack([np.cos(kz), np.sin(kz)], axis=1)
        # eigenvectors: an orthonormal basis whose first 3 columns span cos kz,
        # sin kz and one more direction, rotated so b weighs on all three;
        # their eigenvalues are well apart, so the breakdown residual stays
        # about 10x below the floor
        q, _ = np.linalg.qr(np.column_stack([drive, rng.normal(size=(n, n - 2))]))
        q[:, :3] = q[:, :3] @ np.linalg.qr(rng.normal(size=(3, 3)))[0]
        lam = np.concatenate([[0.3, 0.8, 1.4], rng.uniform(0.2, 1.5, size=n - 3)])
        h0 = (q * lam) @ q.T
        h0 = 0.5 * (h0 + h0.T)
        spectrum = _spectrum(realization, [h0])
        assert len(spectrum.lambda0) == 3
        values, vecs = np.linalg.eigh(h0)
        weights = np.sum((vecs.T @ drive) ** 2, axis=1)
        seen = weights > 1e-12 * n
        assert np.count_nonzero(seen) == 3
        np.testing.assert_allclose(spectrum.lambda0, values[seen], rtol=0, atol=1e-13)
        np.testing.assert_allclose(spectrum.weights, weights[seen], rtol=1e-10)
        assert_same_readout(spectrum, replace(spectrum, lambda0=values, weights=weights), 1.0,
                            rtol=1e-12)

    def test_negative_mode_without_drive_weight_is_still_caught(self):
        """A negative eigenvalue whose eigenvector is orthogonal to the drive
        never enters the Krylov space; the Cholesky certificate still sees it."""
        side = box_side_for_sigma_ss(2.0, 200)
        cfg = EnsembleConfig(atom_count=200, box=(side, side, side))
        realization = sample_positions(cfg, 4)
        h_true = build_coupling_matrix(realization)
        kz = 2.0 * math.pi * realization.positions[:, 2]
        drive = np.stack([np.cos(kz), np.sin(kz)], axis=1)
        basis, _ = np.linalg.qr(drive)
        q = np.random.default_rng(0).normal(size=len(kz))
        for _ in range(2):
            q -= basis @ (basis.T @ q)
        q /= np.linalg.norm(q)
        assert np.sum((drive.T @ q) ** 2) < 1e-25
        # q is an eigenvector of h0 with eigenvalue lam_neg; the rest of the
        # spectrum is the compression of h_true to the complement of q
        lam_neg = -1e-3
        proj = np.eye(len(q)) - np.outer(q, q)
        h0 = proj @ h_true @ proj + lam_neg * np.outer(q, q)
        h0 = 0.5 * (h0 + h0.T)
        assert np.linalg.eigvalsh(h0)[0] == pytest.approx(lam_neg, abs=1e-12)
        # the rule alone cannot see it: uncertified, its nodes are all positive
        margin = _gram_margin(realization.atom_count, realization.min_pair_distance)
        uncertified = _spectrum(realization, [h0], gram_margin=margin)
        assert uncertified.lambda0[0] > 0
        with pytest.raises(DomainError, match="not positive"):
            _spectrum(realization, [h0])

    def test_sampled_geometries_are_certified(self):
        for n, sigma_ss, mode in [(60, 0.05, "vectorial"), (300, 2.0, "scalar")]:
            side = box_side_for_sigma_ss(sigma_ss, n)
            cfg = EnsembleConfig(atom_count=n, box=(side, side, side))
            assert realization_spectrum(cfg, 1, mode=mode).gram_margin is None


def exchange_longdouble(dx, dy, dz, mode):
    """The real exchange kernel of _exchange in extended precision, for
    separations taken exactly from float64 positions."""
    ld = np.longdouble
    dx, dy, dz = (np.asarray(c, dtype=ld) for c in (dx, dy, dz))
    r = np.sqrt(dx * dx + dy * dy + dz * dz)
    kr = 2 * ld("3.14159265358979323846264338327950288") * r
    cos2 = ld(1) if mode == "scalar" else (dx / r) ** 2
    near = (np.cos(kr) / kr**2 - np.sin(kr) / kr**3) * (1 - 3 * cos2)
    return ld(0.75) * ((1 - cos2) * np.sin(kr) / kr + near), kr


class TestGramMargin:
    """The rounding bound behind the Gram margin delta of _gram_margin."""

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="needs an extended-precision long double")
    @pytest.mark.parametrize("mode", ["vectorial", "scalar"])
    def test_entry_rounding_within_the_derived_bound(self, mode):
        # |computed - exact| <= GRAM_ROUNDING eps (1 + (kr)^-2) per entry,
        # from near-field cancellation at 1e-4 lambda to the far field
        rng = np.random.default_rng(5)
        eps = np.finfo(float).eps
        for scale in (1e-4, 1e-3, 1e-2, 0.05, 0.3, 1.0, 5.0, 20.0):
            a = rng.uniform(0.0, 12.0, size=(3, 20_000))
            step = rng.normal(size=(3, 20_000))
            step *= scale * rng.uniform(0.5, 2.0, size=20_000) / np.linalg.norm(step, axis=0)
            b = a - step
            computed = _exchange(*(a - b), mode=mode)
            exact, kr = exchange_longdouble(*(a.astype(np.longdouble) - b), mode=mode)
            ratio = np.abs(computed - exact) / (eps * (1 + kr**-2))
            assert float(ratio.max()) <= GRAM_ROUNDING

    @pytest.mark.parametrize("mode", ["vectorial", "scalar"])
    @pytest.mark.parametrize("r_min", [0.05, 0.01, 0.001])
    def test_smallest_eigenvalue_within_half_the_margin(self, mode, r_min):
        lowest = []
        for side in (1.0, 2.0, 4.0, 8.0, 12.0):
            for n, seed in ((40, 1), (300, 2)):
                cfg = EnsembleConfig(atom_count=n, box=(side,) * 3, min_pair_separation=r_min)
                realization = sample_positions(cfg, seed)
                lam = np.linalg.eigvalsh(build_coupling_matrix(realization, mode=mode))[0]
                margin = _gram_margin(realization.atom_count, realization.min_pair_distance)
                assert lam >= -margin / 2
                assert margin < 1e-3
                lowest.append(lam)
        # the dense cubes do reach rounding level, so the check has teeth
        assert min(lowest) < 1e-10

    def test_close_pair_without_exclusion_always_certifies(self, monkeypatch):
        cfg = EnsembleConfig(atom_count=200, box=(3.0,) * 3, min_pair_separation=0.0)
        sampled = sample_positions(cfg, 1)
        positions = sampled.positions.copy()
        positions[1] = positions[0] + [1e-8, 0.0, 0.0]
        diff = positions[:, None, :] - positions[None, :, :]
        dist = np.sqrt(np.sum(diff**2, axis=-1))[np.triu_indices(200, 1)]
        close = EnsembleRealization(positions=positions, min_pair_distance=float(dist.min()))
        assert _gram_margin(close.atom_count, close.min_pair_distance) >= 1.0
        monkeypatch.setattr(coupled_dipole, "sample_positions", lambda config, seed: close)
        # the close pair's subradiant mode sits at the rounding level, where
        # a Cholesky factorization goes either way; the H0 of the sampled
        # geometry, which it passes, stands in so the S = 1 read can finish
        monkeypatch.setattr(coupled_dipole, "build_coupling_matrix",
                            lambda realization, mode: build_coupling_matrix(sampled, mode))
        certified = []
        original = coupled_dipole._certify
        monkeypatch.setattr(coupled_dipole, "_certify",
                            lambda h0: certified.append(h0) or original(h0))
        spectrum = realization_spectrum(cfg, 1, suppression=0.0)
        assert len(certified) == 1
        assert spectrum.gram_margin is None
        trace = spectral_trace(spectrum, 1.0, 1e-3)
        assert np.all(np.isfinite(trace.p_normalized))


class TestLazyCertificate:
    """The certificate runs only for a spectrum whose largest read has
    S >= 1 - delta, once, when the spectrum is made."""

    CFG = EnsembleConfig(atom_count=80, box=(3.0, 3.0, 3.0), rng_seed=8)

    def test_dephased_read_leaves_the_certificate_for_later(self):
        spectrum = realization_spectrum(self.CFG, 8, suppression=0.5)
        margin = _gram_margin(spectrum.realization.atom_count,
                              spectrum.realization.min_pair_distance)
        assert spectrum.gram_margin == margin
        certified = realization_spectrum(self.CFG, 8)
        assert certified.gram_margin is None
        assert np.array_equal(spectrum.lambda0, certified.lambda0)
        assert np.array_equal(spectrum.weights, certified.weights)
        with pytest.raises(ValueError, match="certificate"):
            spectral_trace(spectrum, 1.0, 1e-3)
        a = spectral_trace(spectrum, 0.5, 1e-3)
        b = spectral_trace(certified, 0.5, 1e-3)
        assert np.array_equal(a.p_normalized, b.p_normalized)
        # the rule is strict: S = 1 - delta certifies, the float below it
        # does not, and that spectrum reads it but not 1 - delta
        edge = 1.0 - margin
        below = np.nextafter(edge, 0.0)
        assert realization_spectrum(self.CFG, 8, suppression=edge).gram_margin is None
        uncertified = realization_spectrum(self.CFG, 8, suppression=below)
        assert uncertified.gram_margin == margin
        spectral_trace(uncertified, below, 1e-3)
        with pytest.raises(ValueError, match="certificate"):
            spectral_trace(uncertified, edge, 1e-3)

    def test_undephased_read_after_a_dephased_one_certifies_once(self, monkeypatch):
        calls = []
        original = coupled_dipole._certify

        def counting(h0):
            calls.append(h0.copy())
            return original(h0)

        monkeypatch.setattr(coupled_dipole, "_certify", counting)
        dephased = replace(self.CFG, beta_over_2pi_hz_cm3=9e-5)
        # passed the largest S, the first (dephased) call certifies at once
        spectra = {}
        run_realization(dephased, 8, pulse=STEP, spectra=spectra, largest_suppression=1.0)
        assert len(calls) == 1
        for cfg in (self.CFG, self.CFG, dephased):
            trace, _ = run_realization(cfg, 8, pulse=STEP, spectra=spectra,
                                       largest_suppression=1.0)
        [spectrum] = spectra.values()
        assert spectrum.gram_margin is None
        assert len(calls) == 1
        # on the H0 bits that the undephased read alone would certify
        assert np.array_equal(calls[0], build_coupling_matrix(spectrum.realization))
        alone, _ = run_realization(self.CFG, 8, pulse=STEP)
        assert len(calls) == 2
        assert np.array_equal(calls[1], calls[0])
        undephased, _ = run_realization(self.CFG, 8, pulse=STEP, spectra=spectra)
        assert np.array_equal(undephased.p_normalized, alone.p_normalized)
        # not passed it, the dephased call decides from its own S: no
        # certificate, and a later undephased read is refused
        spectra = {}
        run_realization(dephased, 8, pulse=STEP, spectra=spectra)
        assert len(calls) == 2
        with pytest.raises(ValueError, match="certificate"):
            run_realization(self.CFG, 8, pulse=STEP, spectra=spectra)
