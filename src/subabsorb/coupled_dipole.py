"""Collective solver: single-excitation amplitudes of a driven disordered
ensemble with photon-exchange couplings and density-dependent dephasing.

The amplitude vector obeys  dc/dt = -H c + b  with b_j = -i*Omega_j.
build_coupling_matrix assembles the undephased H0: H0_jj = 1/2 (single-atom
amplitude decay, Gamma_a units) and H0_jk = i*F_jk, F_jk the pairwise
exchange coupling, purely imaginary here, so H0 is real symmetric.
Dephasing scales the couplings, never the diagonal decay, by
S = 1/(1 + (gamma_DD/Gamma_a)^2): H(S) = I/2 + S*(H0 - I/2), whose
closed-form step response is

    c(t) = (I - exp(-H t)) H^{-1} b.

The readout P(t), its steady state and sum |c_j|^2 are quadratic forms
b^H f(H) b of the drive in units of -i*Omega0, b = e^{ikz}, with f(lambda) =
(1 - e^{-lambda t})/lambda, its square, or 1/lambda; H is real symmetric,
so each equals u^T f(H) u + v^T f(H) v for u = cos(kz), v = sin(kz).
Hermitian Lanczos on H0, started from b alone, gives the Gauss rule for
these forms: its nodes are the Ritz values, the eigenvalues of a real
tridiagonal T, its weights ||b||^2 times the squared first components of
T's eigenvectors, and m steps integrate every polynomial of degree up to
2m-1 exactly (Golub & Welsch 1969; Golub & Meurant, Matrices, Moments and
Quadrature, 2010).  Every H(S) has the same Krylov space, and the rule at
S is the rule of H0 with its nodes mapped by lambda -> 1/2 + S*(lambda -
1/2).  That map, in spectral_trace, is the one place where dephasing
enters the model, so one Lanczos run per realization serves every
gamma_DD (see RealizationSpectrum).

Every H(S) with S < 1 is positive by structure: H0 = Gamma/2 is half the
cooperative decay matrix, a Gram matrix in both coupling modes (Lehmberg,
Phys. Rev. A 2, 883 (1970)), so H(S) = (1 - S)/2 I + S H0 has no eigenvalue
below (1 - S)/2, less the rounding of the assembly.  That rounding is
bounded by half the realization's Gram margin delta (_gram_margin).  Before
a geometry's first read, the largest S it will be read at decides, once,
whether H0 needs a certificate: at S >= 1 - delta it gets a Cholesky
factorization, whose failure raises DomainError (_certify).

That decision also sets how H0 is stored.  The certificate needs the dense
N x N matrix (build_coupling_matrix).  Lanczos needs only products with
H0, so a geometry read below 1 - delta alone is held as its upper block
rows of H0_BLOCK_ROWS rows (_h0_block_rows): about N^2/2 + 256 N doubles,
11.4 MiB at N = 1500 against 17.2 MiB dense.  Every N <= H0_BLOCK_ROWS
is one block, the dense matrix, with the same bits either way.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .core import AtomicSpecies, DomainError, EnsembleConfig, PulseShape, TWO_PI

K_A = TWO_PI                      # resonant wavevector, lambda_a = 1
#: readout grid of every collective trace: step tau_a/20 on [0, 8 tau_a],
#: read-only because all traces share it
T_POINTS = np.linspace(0.0, 8.0, 161)
T_POINTS.setflags(write=False)
NORM_BUDGET = 1e-2                # perturbative bound on sum |c_j|^2
MAX_REJECTIONS = 1_000_000
SAMPLE_BLOCK = 64                 # candidate positions drawn and tested together
ASSEMBLY_BLOCK = 64               # rows of H filled per block of pair separations
#: rows per stored block of an H0 that no certificate reads (_h0_block_rows)
H0_BLOCK_ROWS = 512
#: Lanczos stops once the S = 1 readout moves by less than this, relative,
#: over LANCZOS_STRIDE steps
LANCZOS_TOL = 1e-13
LANCZOS_STRIDE = 4                # Lanczos steps between readout checks
#: c of _gram_margin: every assembled entry of H0 is within
#: GRAM_ROUNDING * eps * (1 + (k r)^-2) of its exact value
GRAM_ROUNDING = 32


class DensityTooHighError(RuntimeError):
    """Rejection sampling cannot place atoms at the requested density."""


class PerturbativeBoundError(RuntimeError):
    """The single-excitation truncation is no longer justified."""


@dataclass(frozen=True)
class EnsembleRealization:
    """One sampled atom configuration (positions in lambda_a units)."""

    positions: np.ndarray
    min_pair_distance: float

    @property
    def atom_count(self) -> int:
        return len(self.positions)

    def positions_hash(self) -> str:
        return hashlib.sha256(np.ascontiguousarray(self.positions).tobytes()).hexdigest()[:16]


@dataclass(frozen=True)
class AmplitudeState:
    """Excited-state amplitudes c_j(t), rows indexed by t_points."""

    t_points: np.ndarray
    amplitudes: np.ndarray

    def excitation_norm(self) -> np.ndarray:
        return np.sum(np.abs(self.amplitudes) ** 2, axis=1)


@dataclass(frozen=True)
class DipoleTrace:
    """Ensemble dipole envelope |sum_j c_j e^{-i k z_j}| normalized to steady state."""

    t_points: np.ndarray
    p_normalized: np.ndarray
    steady_state_raw: float


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a_i - b_j|^2 for points a (3, m) and b (3, k) in component rows, as (m, k).

    Summed as (dx*dx + dy*dy) + dz*dz, the order numpy's sum over a
    length-3 last axis uses, so the bits match np.sum(diff**2, axis=-1).
    """
    d = np.subtract.outer(a[0], b[0])
    d2 = d * d
    for c in (1, 2):
        np.subtract.outer(a[c], b[c], out=d)
        d *= d
        d2 += d
    return d2


def sample_positions(config: EnsembleConfig, seed: int) -> EnsembleRealization:
    """Uniform i.i.d. positions in the box, rejecting pairs closer than r_min.

    Deterministic for a given seed, and the same positions as inserting one
    candidate at a time: a candidate closer than min_pair_separation to any
    atom accepted before it is dropped and the next one is drawn.
    Candidates are drawn SAMPLE_BLOCK at a time, as rows of one
    rng.uniform call (the same stream as one draw per candidate).  Each
    block is tested against all accepted atoms at once; survivors that
    clash with an earlier accepted candidate of their own block are then
    dropped in draw order.  A packing beyond the volume bound never gets
    here (EnsembleConfig refuses it); more than MAX_REJECTIONS consecutive
    rejections (counted in draw order) abort.
    """
    n = config.atom_count
    if n < 1:
        raise DomainError("sampling requires at least one atom")
    r_min = config.min_pair_separation
    rng = np.random.default_rng(seed)
    box = np.asarray(config.box)
    r_min2 = r_min**2
    not_earlier = ~np.tri(SAMPLE_BLOCK, k=-1, dtype=bool)   # [j, i] with i >= j
    pts = np.empty((3, n))  # accepted atoms, one row per component
    count = 0
    rejections = 0          # consecutive, in draw order
    min_d2 = math.inf       # over the pairs of accepted atoms
    while count < n:
        cand = (rng.uniform(0.0, 1.0, size=(SAMPLE_BLOCK, 3)) * box).T.copy()
        to_old = _squared_distances(cand, pts[:, :count])
        within = _squared_distances(cand, cand)
        within[not_earlier] = math.inf
        ok = to_old.min(axis=1, initial=math.inf) >= r_min2
        clash = (within < r_min2) & ok
        for j in np.flatnonzero(ok & clash.any(axis=1)):
            ok[j] = not np.any(clash[j] & ok)
        acc = np.flatnonzero(ok)[:n - count]
        done = count + len(acc) == n
        # rejection runs in draw order: before each acceptance, and the one
        # still open at the end of the block
        runs = np.diff(acc, prepend=-1 - rejections) - 1
        rejections = 0 if done else (SAMPLE_BLOCK - 1 - acc[-1] if len(acc)
                                     else rejections + SAMPLE_BLOCK)
        if max(runs.max(initial=0), rejections) > MAX_REJECTIONS:
            raise DensityTooHighError("pair-exclusion rejection sampling did not terminate")
        if len(acc):
            min_d2 = min(min_d2, float(to_old[acc].min(initial=math.inf)),
                         float(within[np.ix_(acc, acc)].min()))
        pts[:, count:count + len(acc)] = cand[:, acc]
        count += len(acc)
    return EnsembleRealization(positions=pts.T.copy(), min_pair_distance=math.sqrt(min_d2))


def _exchange(dx, dy, dz, mode: str = "vectorial") -> np.ndarray:
    """i*F for separation component arrays dx, dy, dz (Gamma_a units), real.

    The pairwise exchange coupling is

    F = -(i/2)*(3/8pi)*[4pi(1-cos^2 th)*sin(kr)/kr
                        + 4pi(1-3cos^2 th)*(cos(kr)/(kr)^2 - sin(kr)/(kr)^3)]

    with th the angle between the x polarization of the drive and the
    separation; scalar mode fixes th = 0.  F is purely imaginary, so its
    real counterpart i*F = 0.75*[...] is returned.  Coincident atoms raise
    DomainError.
    """
    r = np.sqrt((dx * dx + dy * dy) + dz * dz)
    if np.any(r < 1e-300):
        raise DomainError("coincident atoms: pair separation is zero")
    kr = K_A * r
    if mode == "scalar":
        cos2 = 1.0
    elif mode == "vectorial":
        cos2 = (dx / r) ** 2
    else:
        raise DomainError(f"unknown coupling mode {mode!r}")
    # sin(kr) is evaluated once, into the array that becomes the bracket, so
    # at most four pair-sized temporaries are live besides r, kr and cos2
    bracket = np.sin(kr)
    near = (np.cos(kr) / kr**2 - bracket / kr**3) * (1.0 - 3.0 * cos2)
    bracket *= 1.0 - cos2
    bracket /= kr
    bracket += near
    bracket *= 0.75
    return bracket


def suppression_factor(gamma_dd: float) -> float:
    """Lorentzian-like reduction of the exchange couplings, 1/(1+(gamma_DD)^2)."""
    if gamma_dd < 0:
        raise DomainError("gamma_dd must be >= 0")
    return 1.0 / (1.0 + gamma_dd**2)


def _h0_block_rows(realization: EnsembleRealization, mode: str,
                   height: int) -> list[np.ndarray]:
    """H0 as its upper block rows of ``height`` rows (the last one shorter).

    The block at rows s..e holds columns s..N: its diagonal square, with
    the lower triangle mirrored in, and the rectangle to the right of it.
    One block of height N is thus the dense H0; shorter blocks never hold
    the lower triangle outside their diagonal squares.

    Pairs are evaluated from the separation components dx, dy, dz, never as
    (..., 3) rows: first the triangles of the block's diagonal pieces of
    ASSEMBLY_BLOCK rows in one call, then, piece by piece, the rectangle to
    the right of each, written to the upper triangle and mirrored into the
    block's diagonal square.  The pair temporaries hold at most
    ASSEMBLY_BLOCK * N pairs.
    """
    x, y, z = realization.positions.T.copy()
    n = len(x)
    blocks = []
    for s in range(0, n, height):
        # the block in coordinates of atoms s..N: rows 0..m, columns 0..N-s
        xs, ys, zs = x[s:], y[s:], z[s:]
        m = min(height, n - s)
        # zeros although every entry is written: with np.empty the peak RSS
        # of N=1500 sweeps was one N*N matrix higher in 8 of 19 benchmark runs
        h = np.zeros((m, n - s))
        starts = range(0, m, ASSEMBLY_BLOCK)
        # the triangles of all diagonal pieces, in one call
        j, k = np.concatenate([np.add(np.triu_indices(min(ASSEMBLY_BLOCK, m - i0), 1), i0)
                               for i0 in starts], axis=1)
        h[j, k] = h[k, j] = _exchange(xs[j] - xs[k], ys[j] - ys[k], zs[j] - zs[k], mode)
        for i0 in starts:
            i1 = min(i0 + ASSEMBLY_BLOCK, m)
            piece = _exchange(np.subtract.outer(xs[i0:i1], xs[i1:]),
                              np.subtract.outer(ys[i0:i1], ys[i1:]),
                              np.subtract.outer(zs[i0:i1], zs[i1:]), mode)
            h[i0:i1, i1:] = piece
            h[i1:, i0:i1] = piece[:, :m - i1].T
        np.fill_diagonal(h, 0.5)
        blocks.append(h)
    return blocks


def build_coupling_matrix(realization: EnsembleRealization,
                          mode: str = "vectorial") -> np.ndarray:
    """Assemble the dense H0: diagonal 1/2, off-diagonals i*F_jk.

    F is purely imaginary, so H0 is returned as a real float64 matrix, filled
    with i*F from the real kernel _exchange.  Dephasing enters only in
    spectral_trace, which maps the nodes of H0's Gauss rule to each S.
    This is the one block of height N of _h0_block_rows: 8 N^2 bytes
    (17.2 MiB at N = 1500), which the Cholesky certificate needs; a
    geometry that no certificate reads is held as H0_BLOCK_ROWS-row blocks
    instead (realization_spectrum).
    """
    (h,) = _h0_block_rows(realization, mode, realization.atom_count)
    return h


def evolve_closed_form(h, omega_vec, t_points) -> AmplitudeState:
    """Step-drive solution c(t) = (I - exp(-H t)) H^{-1} (-i Omega_vec).

    H must be real symmetric with a positive spectrum; one eigendecomposition
    serves all output times.  The spectral readout is checked against it,
    and it against a direct RK4 integration (tests/reference.py).
    """
    h = np.asarray(h)
    t_points = np.asarray(t_points, dtype=float)
    b = -1j * np.asarray(omega_vec, dtype=complex)
    if t_points[0] != 0.0:
        raise DomainError("t_points must start at 0 (ground-state initial condition)")
    if np.iscomplexobj(h) and np.any(h.imag):
        raise DomainError("the closed form needs a real symmetric H")
    lam, q = np.linalg.eigh(h.real)
    if not lam[0] > 0:
        raise DomainError(f"coupling spectrum is not positive: lambda_min = {lam[0]:.3g}")
    wb = q.T @ b
    # c(t) = Q diag((1-e^{-lam t})/lam) Q^T b; expm1 keeps small-lam
    # (deeply subradiant) modes accurate
    phi = -np.expm1(-np.outer(t_points, lam)) / lam[None, :]
    state = AmplitudeState(t_points=t_points, amplitudes=(phi * wb[None, :]) @ q.T)
    peak = float(np.max(state.excitation_norm()))
    if peak > NORM_BUDGET:
        raise PerturbativeBoundError(
            f"sum |c_j|^2 reached {peak:.3g} > {NORM_BUDGET}; weaken the drive")
    return state


def dipole_trace(state: AmplitudeState, realization: EnsembleRealization,
                 h: np.ndarray, omega_vec: np.ndarray) -> DipoleTrace:
    """Phase-referenced dipole envelope P(t) = |sum_j c_j e^{-i k z_j}|, steady state = 1.

    Removing the drive phase makes atoms excited in phase with the laser add
    coherently, so the single-atom limit reduces to 1 - exp(-t/2).  The
    normalization is the exact steady state H^{-1}(-i Omega_vec), from a
    linear solve.
    """
    phase = np.exp(-1j * K_A * realization.positions[:, 2])
    raw = np.abs(state.amplitudes @ phase)
    steady = float(np.abs(np.linalg.solve(h, -1j * np.asarray(omega_vec)) @ phase))
    if steady < 1e-15 * realization.atom_count * float(np.max(np.abs(omega_vec))):
        raise DomainError("steady-state dipole too small to normalize against")
    return DipoleTrace(t_points=state.t_points, p_normalized=raw / steady,
                       steady_state_raw=steady)


@dataclass(frozen=True)
class RealizationSpectrum:
    """Dephasing-independent Gauss rule of one realization.

    lambda0 are the nodes (Ritz values of H0 = H(gamma_DD = 0), ascending)
    and weights the Gauss weights of the Lanczos rule for the drive
    b = e^{ikz}: sum_j weights_j f(lambda0_j) = b^H f(H0) b for the readout
    functions f.  There are at most N nodes, and fewer when b lies in a
    smaller invariant subspace; with all of them the rule is the spectrum
    that b sees, with the eigenvector weights |(Q^T b)_j|^2.

    Ritz values lie inside [lambda_min, lambda_max] of H0, so a positive
    smallest node does not prove H0 positive.  Positivity is settled when
    the spectrum is made, in one of two ways:
    - gram_margin is delta: no certificate; the Gram structure of H0
      proves every H(S) with S < 1 - delta positive, and reads at
      S >= 1 - delta are refused;
    - gram_margin is None: a Cholesky factorization of H0 succeeded, which
      proves every H(S) with S <= 1 positive.  An H0 whose factorization
      fails has no spectrum: _certify raises DomainError.
    """

    realization: EnsembleRealization
    lambda0: np.ndarray
    weights: np.ndarray
    gram_margin: float | None


def _readout(lam: np.ndarray, w: np.ndarray):
    """sum_j w_j phi_j(t), sum_j w_j phi_j(t)^2 and sum_j w_j/lambda_j on
    T_POINTS for phi_j(t) = (1 - e^{-lambda_j t})/lambda_j, in drive units."""
    # expm1 keeps small-lambda (deeply subradiant) modes accurate
    phi = -np.expm1(-np.outer(T_POINTS, lam)) / lam[None, :]
    return phi @ w, (phi * phi) @ w, np.sum(w / lam)


def _gauss_rule(blocks: list[np.ndarray], b: np.ndarray):
    """Nodes and weights of the Lanczos Gauss rule of H0, given as its upper
    block rows (_h0_block_rows), for the drive b = e^{ikz} (N,).

    Each step multiplies the real and imaginary parts of the newest Lanczos
    vector by H0: one matmul for a dense H0 (one block), two per block
    otherwise, with full reorthogonalization (classical Gram-Schmidt,
    twice) against every earlier one.  H0 is real symmetric, so T (k x k)
    is real tridiagonal: alpha on its diagonal and the norms beta of the
    new vectors beside it.  T is diagonalized every LANCZOS_STRIDE steps;
    with T = V diag(theta) V^T the nodes are theta and the weights
    ||b||^2 V[0, :]^2.  The run stops on breakdown, when k reaches N (the
    rule is then exact), or once the S = 1 readout (_readout on T_POINTS:
    P(t), sum |c|^2 and the steady state) has moved by less than
    LANCZOS_TOL, relative to its largest value, since the previous check.
    Every step is a fixed sequence of BLAS and LAPACK calls, so a rerun
    gives the same bits.

    S = 1 is the hardest suppression to converge.  The rule at S integrates
    f(1/2 + S*(lambda - 1/2)) at S = 1, and the Gauss error for a function
    is at most twice the total weight times its best uniform polynomial
    approximation error of degree 2m-1 on [lambda_min, lambda_max].  The
    eigenvalues of H0 average to 1/2 (trace N/2), so for S <= 1 the mapped
    interval [1/2 + S*(lambda_min - 1/2), 1/2 + S*(lambda_max - 1/2)] lies
    inside the S = 1 interval: it is narrower and its smallest lambda, where
    1/lambda and phi_t vary fastest, is larger.  Every readout function is
    thus approximated at least as well at S < 1 as at S = 1.
    """
    n = len(b)
    eps_n = n * np.finfo(float).eps
    norm2 = np.vdot(b, b).real
    cap = min(n, 32)
    basis = np.empty((cap, n), dtype=complex)   # Lanczos vectors, as rows
    basis[0] = b / math.sqrt(norm2)
    alpha, beta = [], []
    k = 1
    previous = None
    while True:
        q2 = np.stack([basis[k - 1].real, basis[k - 1].imag])
        # (H0 q)^T, H0 being symmetric: the block at rows s..e adds to
        # columns s..N, and its rectangle, mirrored, to columns s..e
        w = q2[:, :len(blocks[0])] @ blocks[0]
        for h in blocks:
            s = n - h.shape[1]
            e = s + len(h)
            if s:
                w[:, s:] += q2[:, s:e] @ h
            if e < n:
                w[:, s:e] += q2[:, e:] @ h[:, e - s:].T
        w = w[0] + 1j * w[1]
        floor = eps_n * np.linalg.norm(w)
        # basis^H w, conjugated twice so the basis is never copied
        coef = (basis[:k] @ w.conj()).conj()
        w -= coef @ basis[:k]
        again = (basis[:k] @ w.conj()).conj()
        w -= again @ basis[:k]
        alpha.append((coef[-1] + again[-1]).real)
        size = np.linalg.norm(w)
        exact = size <= floor or k == n
        if exact or k % LANCZOS_STRIDE == 0:
            tri = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
            nodes, vecs = np.linalg.eigh(tri)
            weights = norm2 * vecs[0] ** 2
            if exact:
                return nodes, weights
            readout = _readout(nodes, weights)
            if previous is not None and all(
                    np.max(np.abs(x - y)) <= LANCZOS_TOL * np.max(np.abs(x))
                    for x, y in zip(readout, previous)):
                return nodes, weights
            previous = readout
        if k == cap:
            # grown in place (realloc), so the old rows are never copied
            # beside the new buffer; no view of the basis is alive here
            cap = min(n, 2 * cap)
            basis.resize((cap, n), refcheck=False)
        beta.append(size)
        basis[k] = w / size
        k += 1


def _gram_margin(atom_count: int, min_pair_distance: float) -> float:
    """delta = 2 * a bound on ||computed H0 - exact H0||_2 for N atoms no
    two of which are closer than d = min_pair_distance: every H(S) with
    S < 1 - delta assembled from them is positive (its eigenvalues are at
    least (1 - S)/2 - S*delta/2).  The bound grows as d shrinks, so the
    pair exclusion in place of d bounds every geometry sampled with it.

    With u = eps/2 and every operation, sin, cos and pow rounded to within
    1 ulp, a first-order tally over _exchange gives, per entry at x = k r:
    - x = K_A*r itself carries at most 5.5u (differences, squares, sums,
      sqrt, K_A), and cos^2 th at most 12u absolute;
    - evaluating the exact coupling at the perturbed x costs
      0.75*(1.07 + 2*0.31)*5.5u = 7u (|cos x - sin x/x| <= 1.07 and
      |x g'(x)| <= 0.31 for the near bracket g = cos x/x^2 - sin x/x^3);
    - the far term sin(x)(1 - cos^2)/x and the angular factors of the near
      term add 26u once scaled by 0.75;
    - the near bracket cancels: its two terms are each about 1/x^2, and
      their 9u of relative rounding leaves 0.75*2*9u/x^2 = 13.5u/x^2
      absolute (the factor 2 is |1 - 3 cos^2|).
    That is about 17 eps (1 + x^-2); GRAM_ROUNDING = 32 doubles it for the
    second-order terms and kernels of up to 2 ulp.  Every pair is at least
    d apart and the diagonal is exact, so the 2-norm,
    at most the largest row sum of |error|, is below
    N * GRAM_ROUNDING * eps * (1 + (k d)^-2).  At N = 200 a pair closer
    than 2.6e-7 lambda makes delta >= 1, and every read is then certified.
    """
    near = 1.0 / (K_A * min_pair_distance)
    return 2.0 * atom_count * GRAM_ROUNDING * np.finfo(float).eps * (1.0 + near * near)


def _certify(h0: np.ndarray) -> None:
    """Prove H0 positive definite by a Cholesky factorization; raise
    DomainError when it fails."""
    try:
        np.linalg.cholesky(h0)
    except np.linalg.LinAlgError as exc:
        raise DomainError("coupling spectrum is not positive: the Cholesky "
                          "factorization of H0 failed") from exc


def _spectrum(realization: EnsembleRealization, blocks: list[np.ndarray],
              gram_margin: float | None = None) -> RealizationSpectrum:
    """The Gauss rule of H0, given as its upper block rows (_h0_block_rows),
    for the realization's drive, and its positivity.

    H0 is certified now unless gram_margin is given, which only an H0
    assembled from the realization may claim, and only for reads below
    1 - gram_margin.  A certified H0 is one dense block ([h0]).
    """
    lambda0, weights = _gauss_rule(blocks, np.exp(1j * K_A * realization.positions[:, 2]))
    if gram_margin is None:
        (h0,) = blocks
        _certify(h0)
    return RealizationSpectrum(realization=realization, lambda0=lambda0, weights=weights,
                               gram_margin=gram_margin)


def realization_spectrum(config: EnsembleConfig, seed: int, mode: str = "vectorial",
                         suppression: float = 1.0) -> RealizationSpectrum:
    """Sample one realization and read the Gauss rule of its undephased H0.

    ``suppression`` is the largest S that any read of the spectrum will
    make.  H0 is certified now, once, when it is at least 1 - delta
    (_gram_margin); it is then assembled dense (build_coupling_matrix), as
    the Cholesky factorization needs.  Below that the Gram bound proves
    every such read positive, no certificate runs, and H0 is held as its
    upper block rows of H0_BLOCK_ROWS rows, which Lanczos alone reads.  The
    default certifies.
    """
    realization = sample_positions(config, seed)
    margin = _gram_margin(realization.atom_count, realization.min_pair_distance)
    if suppression < 1.0 - margin:
        return _spectrum(realization, _h0_block_rows(realization, mode, H0_BLOCK_ROWS),
                         margin)
    return _spectrum(realization, [build_coupling_matrix(realization, mode)])


def spectral_trace(spectrum: RealizationSpectrum, suppression: float,
                   amplitude: float) -> DipoleTrace:
    """P(t) on T_POINTS at one suppression S from the shared Gauss rule, in O(T*m).

    With phi_j(t) = (1 - e^{-lambda_j t})/lambda_j and
    lambda = 1/2 + S*(lambda0 - 1/2):
    raw P(t) = Omega0 |sum_j w_j phi_j(t)|, steady state Omega0 |sum_j w_j/lambda_j|
    and sum |c_j|^2 = Omega0^2 sum_j w_j phi_j(t)^2.  Below
    S = 1 - gram_margin positivity comes from the Gram structure of H0,
    above it from the Cholesky certificate; reading a spectrum made
    without the certificate above 1 - gram_margin raises ValueError.  A
    node that is not positive has no steady state and raises DomainError.
    """
    if spectrum.gram_margin is not None and not suppression < 1.0 - spectrum.gram_margin:
        raise ValueError(f"S = {suppression!r} needs the positivity certificate, which "
                         "this spectrum was made without")
    # at S = 1 use lambda0 itself: 0.5 + (lambda0 - 0.5) can round
    lam = (spectrum.lambda0 if suppression == 1.0
           else 0.5 + suppression * (spectrum.lambda0 - 0.5))
    if not lam[0] > 0:
        raise DomainError(f"coupling spectrum is not positive: smallest node {lam[0]:.3g}")
    amp = abs(amplitude)
    p, c2, inverse = _readout(lam, spectrum.weights)
    peak = float(np.max(amp**2 * c2))
    if peak > NORM_BUDGET:
        raise PerturbativeBoundError(
            f"sum |c_j|^2 reached {peak:.3g} > {NORM_BUDGET}; weaken the drive")
    raw = amp * np.abs(p)
    steady = float(amp * abs(inverse))
    if steady < 1e-15 * spectrum.realization.atom_count * amp:
        raise DomainError("steady-state dipole too small to normalize against")
    return DipoleTrace(t_points=T_POINTS, p_normalized=raw / steady,
                       steady_state_raw=steady)


def run_realization(config: EnsembleConfig, seed: int,
                    species: AtomicSpecies = AtomicSpecies(),
                    pulse: PulseShape | None = None, mode: str = "vectorial",
                    spectra: dict | None = None, largest_suppression: float | None = None,
                    ) -> tuple[DipoleTrace, EnsembleRealization]:
    """One disorder realization: sample, read its Gauss rule, reduce to P(t) on T_POINTS.

    ``spectra`` is an optional cache of RealizationSpectrum keyed by the
    geometry (seed, box, atom_count, min_pair_separation, mode); a sweep
    over the dephasing coefficient passes the same dict for every value so
    each geometry is sampled and read once.  ``largest_suppression`` is
    the largest S that any read of the geometry will make, by default the
    S of this call.  Positivity is decided from it once, when the spectrum
    is made (realization_spectrum), so a later read above it raises
    ValueError (spectral_trace).
    """
    if pulse is None:
        pulse = PulseShape(kind="step")
    spectra = {} if spectra is None else spectra
    key = (seed, config.box, config.atom_count, config.min_pair_separation, mode)
    suppression = suppression_factor(config.gamma_dd(species))
    spectrum = spectra.get(key)
    if spectrum is None:
        spectrum = spectra[key] = realization_spectrum(
            config, seed, mode=mode,
            suppression=suppression if largest_suppression is None else largest_suppression)
    trace = spectral_trace(spectrum, suppression, pulse.amplitude)
    return trace, spectrum.realization


@dataclass(frozen=True)
class EnsembleResult:
    """Configuration average of P(t) over independent realizations."""

    t_points: np.ndarray
    p_mean: np.ndarray
    p_stderr: np.ndarray
    traces: tuple[DipoleTrace, ...]
    realizations: tuple[EnsembleRealization, ...]
    seeds: tuple[int, ...]


def run_ensemble(config: EnsembleConfig, species: AtomicSpecies = AtomicSpecies(),
                 pulse: PulseShape | None = None, mode: str = "vectorial",
                 spectra: dict | None = None,
                 largest_suppression: float | None = None) -> EnsembleResult:
    """Average P(t) over realization_count independent realizations.

    Seeds are rng_seed + 0 .. rng_seed + (M-1); the average runs in fixed
    index order so results do not depend on execution interleaving.  Any
    failed realization aborts the batch.  ``spectra`` and
    ``largest_suppression`` are passed on to run_realization.
    """
    seeds = tuple(config.rng_seed + i for i in range(config.realization_count))
    traces, realizations = zip(*(
        run_realization(config, s, species=species, pulse=pulse, mode=mode,
                        spectra=spectra, largest_suppression=largest_suppression)
        for s in seeds))
    stack = np.stack([tr.p_normalized for tr in traces])
    mean = stack.mean(axis=0)
    if len(traces) > 1:
        stderr = stack.std(axis=0, ddof=1) / math.sqrt(len(traces))
    else:
        stderr = np.zeros_like(mean)
    return EnsembleResult(t_points=traces[0].t_points, p_mean=mean, p_stderr=stderr,
                          traces=traces, realizations=realizations, seeds=seeds)
