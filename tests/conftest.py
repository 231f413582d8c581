import numpy as np
import pytest

from massbath import EigenPropagator, GklsCoefficients, XState, to_product_basis
from massbath.measures import _coherence_parts


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)


def vacuum_like(lam: float) -> GklsCoefficients:
    """Vacuum-structure coefficients with gray*Gamma0 = 1 and spatial factor lam."""
    return GklsCoefficients(a1=0.25, b1=0.25, a2=0.25 * lam, b2=0.25 * lam)


def propagate_eigen(initial: XState, rates, tau: float) -> XState:
    """The exact propagator's state at one time, as one XState."""
    return EigenPropagator(rates).state(initial, tau)


def state_arrays(states) -> tuple[np.ndarray, ...]:
    """The measures' array entries (pop_g, pop_a, pop_s, pop_e, |coh_ge|,
    re coh_as, im coh_as) of a state sequence."""
    fields = ("pop_g", "pop_a", "pop_s", "pop_e", "coh_ge", "coh_as")
    columns = [np.array([getattr(s, name) for s in states]) for name in fields]
    return (*columns[:4], *_coherence_parts(*columns[4:]))


def wootters_concurrence(rho: np.ndarray) -> float:
    """Eigenvalue construction of the concurrence for an arbitrary 4x4 state."""
    sigma_y = np.array([[0.0, -1j], [1j, 0.0]])
    flip = np.kron(sigma_y, sigma_y)
    rho_tilde = flip @ rho.conj() @ flip
    evals = np.linalg.eigvals(rho @ rho_tilde)
    lams = np.sqrt(np.abs(np.sort(evals.real)))
    return max(0.0, lams[3] - lams[2] - lams[1] - lams[0])


def partial_transpose_negativity(rho: np.ndarray) -> float:
    """Doubled sum of negative eigenvalues of the partial transpose."""
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    evals = np.linalg.eigvalsh(pt)
    return float(np.sum(np.maximum(0.0, -2.0 * evals)))


def state_distance(x: XState, y: XState) -> float:
    return max(
        abs(x.pop_g - y.pop_g),
        abs(x.pop_a - y.pop_a),
        abs(x.pop_s - y.pop_s),
        abs(x.pop_e - y.pop_e),
        abs(x.coh_ge - y.coh_ge),
        abs(x.coh_as - y.coh_as),
    )


def check_block_positivity(state: XState, tol: float = 1e-9) -> None:
    pops = state.populations()
    assert pops.min() >= -tol
    assert abs(pops.sum() - 1.0) <= 1e-10
    assert abs(state.coh_ge) ** 2 <= state.pop_g * state.pop_e + tol
    assert abs(state.coh_as) ** 2 <= state.pop_a * state.pop_s + tol


def mp_expm_populations(generator, pops0, tau: float, dps: int = 40) -> np.ndarray:
    """Populations expm(generator*tau) @ pops0 from a dps-digit mpmath expm;
    pops0 is one population vector (4,) or several as columns (4, M)."""
    import mpmath

    with mpmath.workdps(dps):
        gen = mpmath.matrix([[mpmath.mpf(float(x)) for x in row] for row in generator])
        vec = mpmath.matrix(np.asarray(pops0, dtype=float).tolist())
        out = mpmath.expm(gen * mpmath.mpf(float(tau))) * vec
        return np.array(out.tolist(), dtype=float).reshape(np.shape(pops0))


def mp_conserving_expm_populations(generator, pops0, tau: float, dps: int = 40) -> np.ndarray:
    """As mp_expm_populations, with each diagonal entry rebuilt at dps digits
    as M_jj = -sum_{i != j} M_ij. The float columns sum to roundoff, not 0, so
    the plain reference's top eigenvalue is ~1e-16 and its trace drifts as tau
    grows; this one conserves probability."""
    import mpmath

    with mpmath.workdps(dps):
        gen = mpmath.matrix([[mpmath.mpf(float(x)) for x in row] for row in generator])
        for j in range(4):
            gen[j, j] = -mpmath.fsum(gen[i, j] for i in range(4) if i != j)
        vec = mpmath.matrix(np.asarray(pops0, dtype=float).tolist())
        out = mpmath.expm(gen * mpmath.mpf(float(tau))) * vec
        return np.array(out.tolist(), dtype=float).reshape(np.shape(pops0))


def mp_reference_state(rates, initial: XState, tau: float) -> XState:
    """State at tau from a 40-digit matrix exponential of the generator."""
    import mpmath

    pops = mp_expm_populations(rates.generator, initial.populations(), tau)
    with mpmath.workdps(40):
        fade_ge = float(mpmath.exp(-mpmath.mpf(rates.decay_ge) * mpmath.mpf(float(tau))))
        fade_as = float(mpmath.exp(-mpmath.mpf(rates.decay_as) * mpmath.mpf(float(tau))))
    return XState(*pops, coh_ge=initial.coh_ge * fade_ge, coh_as=initial.coh_as * fade_as)


def off_x_magnitude(state: XState) -> float:
    rho = to_product_basis(state)
    mask = np.zeros((4, 4), dtype=bool)
    for i in range(4):
        mask[i, i] = True
        mask[i, 3 - i] = True
    return float(np.max(np.abs(rho[~mask])))
