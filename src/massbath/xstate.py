"""X-form two-qubit states in the coupled basis and their propagators.

The coupled basis is {G = |00>, A = (|10>-|01>)/sqrt2, S = (|10>+|01>)/sqrt2,
E = |11>}. X-form states (only diagonal plus anti-diagonal entries in the
product basis) stay X-form under the rate equations used here, so a state is
fully described by four populations and the two coherences G-E and A-S.

Three propagators are provided: the vacuum closed form, an exact linear-system
propagator by eigendecomposition (with a matrix-exponential fallback for
defective generators), and an adaptive Runge-Kutta integrator that serves as
an independent oracle for the other two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    LambdaSingularError,
    NonXFormError,
    NotAStateError,
    StepUnderflowError,
)
from .field_bath import GklsCoefficients

POP_TOL = 1e-10
PSD_TOL = 1e-10
OFF_X_TOL = 1e-12

# |spatial factor| closer to 1 than this is routed away from the closed form.
LAMBDA_SINGULAR_BAND = 1e-6

CLOSED_FORM = "closed_form"
EIGEN = "eigen"
ODE = "ode"
FROZEN = "frozen"

__all__ = [
    "XState",
    "RateMatrix",
    "Trajectory",
    "EigenPropagator",
    "from_product_basis",
    "to_product_basis",
    "build_rate_matrix",
    "decay_factor",
    "closed_form_state",
    "propagate_eigen",
    "integrate_ode",
    "closed_form_trajectory",
    "eigen_trajectory",
    "random_xstate",
    "CLOSED_FORM",
    "EIGEN",
    "ODE",
    "FROZEN",
    "LAMBDA_SINGULAR_BAND",
]


@dataclass(frozen=True)
class XState:
    """An X-form two-qubit density matrix in the coupled basis.

    Hermiticity is structural: only rho_GE and rho_AS are stored, their
    transposes are the conjugates. Construction validates positivity of the
    two 2x2 blocks, which for X states is the full PSD condition.
    """

    pop_g: float
    pop_a: float
    pop_s: float
    pop_e: float
    coh_ge: complex = 0j
    coh_as: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "pop_g", float(self.pop_g))
        object.__setattr__(self, "pop_a", float(self.pop_a))
        object.__setattr__(self, "pop_s", float(self.pop_s))
        object.__setattr__(self, "pop_e", float(self.pop_e))
        object.__setattr__(self, "coh_ge", complex(self.coh_ge))
        object.__setattr__(self, "coh_as", complex(self.coh_as))
        pops = (self.pop_g, self.pop_a, self.pop_s, self.pop_e)
        if not all(math.isfinite(p) for p in pops):
            raise NotAStateError(f"non-finite populations {pops}")
        if not (math.isfinite(abs(self.coh_ge)) and math.isfinite(abs(self.coh_as))):
            raise NotAStateError("non-finite coherences")
        if min(pops) < -POP_TOL:
            raise NotAStateError(f"negative population in {pops}")
        trace = self.pop_g + self.pop_a + self.pop_s + self.pop_e
        if abs(trace - 1.0) > POP_TOL:
            raise NotAStateError(f"trace {trace} differs from 1 beyond {POP_TOL}")
        if abs(self.coh_ge) ** 2 > self.pop_g * self.pop_e + PSD_TOL:
            raise NotAStateError("G-E coherence violates block positivity")
        if abs(self.coh_as) ** 2 > self.pop_a * self.pop_s + PSD_TOL:
            raise NotAStateError("A-S coherence violates block positivity")

    @classmethod
    def ground(cls) -> "XState":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def excited(cls) -> "XState":
        return cls(0.0, 0.0, 0.0, 1.0)

    @classmethod
    def antisymmetric(cls) -> "XState":
        return cls(0.0, 1.0, 0.0, 0.0)

    @classmethod
    def symmetric(cls) -> "XState":
        return cls(0.0, 0.0, 1.0, 0.0)

    @classmethod
    def bell_ge(cls) -> "XState":
        """(|00> + |11>)/sqrt2, maximally entangled in the G-E block."""
        return cls(0.5, 0.0, 0.0, 0.5, coh_ge=0.5)

    @classmethod
    def diagonal(cls, e: float, g: float, a: float, s: float) -> "XState":
        """Diagonal coupled-basis state from populations (e, g, a, s)."""
        return cls(pop_g=g, pop_a=a, pop_s=s, pop_e=e)

    def populations(self) -> np.ndarray:
        return np.array([self.pop_g, self.pop_a, self.pop_s, self.pop_e])

    def is_close(self, other: "XState", tol: float = 1e-12) -> bool:
        return (
            abs(self.pop_g - other.pop_g) <= tol
            and abs(self.pop_a - other.pop_a) <= tol
            and abs(self.pop_s - other.pop_s) <= tol
            and abs(self.pop_e - other.pop_e) <= tol
            and abs(self.coh_ge - other.coh_ge) <= tol
            and abs(self.coh_as - other.coh_as) <= tol
        )


def from_product_basis(rho) -> XState:
    """Convert an X-form density matrix in the product basis {00,01,10,11}.

    Raises NonXFormError if any entry off the diagonal/anti-diagonal exceeds
    1e-12, NotAStateError if the matrix is not Hermitian, unit trace and PSD.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise NotAStateError(f"expected a 4x4 matrix, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise NotAStateError("matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > POP_TOL or abs(np.trace(rho).imag) > POP_TOL:
        raise NotAStateError(f"trace {np.trace(rho)} differs from 1")
    if np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) < -POP_TOL:
        raise NotAStateError("matrix is not positive semidefinite")
    x_mask = np.zeros((4, 4), dtype=bool)
    for i in range(4):
        x_mask[i, i] = True
        x_mask[i, 3 - i] = True
    off = np.max(np.abs(rho[~x_mask]))
    if off > OFF_X_TOL:
        raise NonXFormError(f"off-X entry of magnitude {off} exceeds {OFF_X_TOL}")
    pop_g = rho[0, 0].real
    pop_e = rho[3, 3].real
    pop_a = 0.5 * (rho[1, 1] + rho[2, 2] - rho[1, 2] - rho[2, 1]).real
    pop_s = 0.5 * (rho[1, 1] + rho[2, 2] + rho[1, 2] + rho[2, 1]).real
    coh_as = 0.5 * (rho[2, 2] - rho[1, 1] + rho[2, 1] - rho[1, 2])
    coh_ge = rho[0, 3]
    return XState(pop_g, pop_a, pop_s, pop_e, coh_ge=coh_ge, coh_as=coh_as)


def to_product_basis(state: XState) -> np.ndarray:
    """Inverse of from_product_basis; round-trips to 1e-14."""
    rho = np.zeros((4, 4), dtype=complex)
    half = 0.5 * (state.pop_a + state.pop_s)
    re_as = state.coh_as.real
    im_as = state.coh_as.imag
    rho[0, 0] = state.pop_g
    rho[3, 3] = state.pop_e
    rho[1, 1] = half - re_as
    rho[2, 2] = half + re_as
    rho[1, 2] = 0.5 * (state.pop_s - state.pop_a) - 1j * im_as
    rho[2, 1] = rho[1, 2].conjugate()
    rho[0, 3] = state.coh_ge
    rho[3, 0] = state.coh_ge.conjugate()
    return rho


@dataclass(frozen=True)
class RateMatrix:
    """Generator of the coupled-basis rate equations.

    `generator` acts on the population vector (pop_g, pop_a, pop_s, pop_e);
    both coherences decay at rates decay_as = decay_ge = 4*a1.
    """

    generator: np.ndarray
    decay_as: float
    decay_ge: float

    def __post_init__(self):
        gen = np.array(self.generator, dtype=float)
        if gen.shape != (4, 4):
            raise ValueError(f"generator must be 4x4, got {gen.shape}")
        if not (np.all(np.isfinite(gen)) and math.isfinite(self.decay_as + self.decay_ge)):
            raise ValueError("rates must be finite")
        scale = max(1.0, float(np.max(np.abs(gen))))
        col_sums = gen.sum(axis=0)
        if np.max(np.abs(col_sums)) > 1e-12 * scale:
            raise ValueError(f"generator columns must sum to zero, got {col_sums}")
        off = gen[~np.eye(4, dtype=bool)]
        if np.min(off) < -1e-12 * scale:
            raise ValueError("off-diagonal rates must be non-negative")
        if self.decay_as < 0.0 or self.decay_ge < 0.0:
            raise ValueError("coherence decay rates must be non-negative")
        gen.setflags(write=False)
        object.__setattr__(self, "generator", gen)

    @property
    def is_frozen(self) -> bool:
        return (
            not self.generator.any()
            and self.decay_as == 0.0
            and self.decay_ge == 0.0
        )


def build_rate_matrix(coeffs: GklsCoefficients) -> RateMatrix:
    """Assemble the population generator and coherence decay rates.

    The four channels are the cascades through the symmetric/antisymmetric
    states: downward rates 2(a1+b1 +- (a2+b2)) and upward (absorption) rates
    2(a1-b1 +- (a2-b2)); the diagonal is minus the column sum, so probability
    is conserved exactly.
    """
    a1, b1, a2, b2 = coeffs.a1, coeffs.b1, coeffs.a2, coeffs.b2
    down_a = 2.0 * (a1 + b1 - a2 - b2)  # E -> A and A -> G
    down_s = 2.0 * (a1 + b1 + a2 + b2)  # E -> S and S -> G
    up_a = 2.0 * (a1 - b1 - a2 + b2)  # G -> A and A -> E
    up_s = 2.0 * (a1 - b1 + a2 - b2)  # G -> S and S -> E
    gen = np.array(
        [
            [-(up_a + up_s), down_a, down_s, 0.0],
            [up_a, -(down_a + up_a), 0.0, down_a],
            [up_s, 0.0, -(down_s + up_s), down_s],
            [0.0, up_a, up_s, -(down_a + down_s)],
        ]
    )
    rate = 4.0 * a1
    return RateMatrix(generator=gen, decay_as=rate, decay_ge=rate)


def decay_factor(tau: float, gray: float, g0: float) -> float:
    """Exponential decay scale exp(-gray * Gamma0 * tau) of the vacuum solution."""
    if not (math.isfinite(tau) and math.isfinite(gray) and math.isfinite(g0)):
        raise ValueError("non-finite input")
    if tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    return math.exp(-gray * g0 * tau)


def _closed_form_populations(e0, a0, s0, lam, xi):
    """Populations of the vacuum closed form; xi may be an array.

    pop_g comes from the trace so the total is exactly one.
    """
    ratio_a = (1.0 - lam) / (1.0 + lam)
    ratio_s = (1.0 + lam) / (1.0 - lam)
    xi2 = xi * xi
    pop_a = (ratio_a * e0 + a0) * xi ** (1.0 - lam) - ratio_a * e0 * xi2
    pop_s = (ratio_s * e0 + s0) * xi ** (1.0 + lam) - ratio_s * e0 * xi2
    pop_e = e0 * xi2
    pop_g = 1.0 - pop_a - pop_s - pop_e
    return pop_g, pop_a, pop_s, pop_e


def closed_form_state(initial: XState, lam: float, xi: float) -> XState:
    """Vacuum-bath state at the time implied by xi = exp(-gray*Gamma0*tau).

    Valid only in the vacuum regime (a1 == b1). Raises LambdaSingularError
    inside the |lam| ~ 1 band, where callers must use propagate_eigen.
    """
    if not (math.isfinite(lam) and math.isfinite(xi)):
        raise ValueError("non-finite input")
    if abs(lam) > 1.0 - LAMBDA_SINGULAR_BAND:
        raise LambdaSingularError(
            f"|lam| = {abs(lam)} is within {LAMBDA_SINGULAR_BAND} of 1; "
            "use propagate_eigen"
        )
    if not 0.0 < xi <= 1.0:
        raise ValueError(f"xi must lie in (0, 1], got {xi}")
    if xi == 1.0:
        return initial
    pop_g, pop_a, pop_s, pop_e = _closed_form_populations(
        initial.pop_e, initial.pop_a, initial.pop_s, lam, xi
    )
    return XState(
        pop_g,
        pop_a,
        pop_s,
        pop_e,
        coh_ge=xi * initial.coh_ge,
        coh_as=xi * initial.coh_as,
    )


class EigenPropagator:
    """Exact propagator for one RateMatrix or a stack of them.

    Diagonalizes every generator once, in real arithmetic: the physical
    generators obey detailed balance (up_a*down_s == up_s*down_a), so their
    spectrum is real. A generator whose eigenvalues are not all real, or whose
    eigendecomposition does not reconstruct it to 1e-12 (defective spectrum,
    e.g. at |spatial factor| = 1 where two decay channels merge), falls back
    to scaling-and-squaring matrix exponentials.
    """

    def __init__(self, rates: RateMatrix | Sequence[RateMatrix]):
        self.rates = rates
        self._single = isinstance(rates, RateMatrix)
        stack = [rates] if self._single else list(rates)
        gens = np.stack([r.generator for r in stack])
        self._gens = gens
        frozen = np.array([r.is_frozen for r in stack])
        eigvals, eigvecs = np.linalg.eig(gens)
        real = True
        if np.iscomplexobj(eigvals):
            real = np.all(eigvals.imag == 0.0, axis=-1)
            eigvals, eigvecs = eigvals.real, eigvecs.real
        try:
            inv = np.linalg.inv(eigvecs)
        except np.linalg.LinAlgError:
            inv = np.stack([_inverse_or_nan(v) for v in eigvecs])
        count = len(stack)
        rebuilt = (eigvecs * eigvals[:, None, :]) @ inv
        residual = np.abs(rebuilt - gens).reshape(count, 16).max(1)
        scale = np.maximum(1.0, np.abs(gens).reshape(count, 16).max(1))
        # NaN residuals (singular eigenvectors) fail the check too.
        self._frozen = frozen
        self._use_expm = ~frozen & ~(real & (residual <= 1e-12 * scale))
        self._fallback = np.flatnonzero(self._use_expm)
        # Frozen generators propagate exactly through the identity; the modes
        # of fallback generators are placeholders that expm overwrites.
        trivial = frozen | self._use_expm
        if trivial.any():
            eigvals[trivial] = 0.0
            eigvecs[trivial] = inv[trivial] = np.eye(4)
        self._eigvals, self._inv = eigvals, inv
        self._eigvecs_t = np.swapaxes(eigvecs, 1, 2)[:, None]

    def populations(self, pops0: np.ndarray, taus: np.ndarray) -> np.ndarray:
        """Population vectors at each tau.

        taus is one time grid shared by every generator, shape (K,), or
        per-generator grids of shape (N, ..., K), each row along the last
        axis one grid. Returns taus' shape plus a trailing axis of 4 for a
        single RateMatrix (taus of shape (K,)), else (N, ..., K, 4).
        """
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        if (taus < 0.0).any():
            raise ValueError("tau must be >= 0")
        pops0 = np.asarray(pops0, dtype=float)
        shared = taus.ndim == 1
        rows = taus.reshape(1 if shared else taus.shape[0], -1, taus.shape[-1])
        count = len(self._eigvals)
        if self._fallback.size == count:
            out = np.empty((count,) + rows.shape[1:] + (4,))
        else:
            modes = np.exp(rows[..., None] * self._eigvals[:, None, None, :])
            modes *= (self._inv @ pops0)[:, None, None, :]
            out = modes @ self._eigvecs_t
        for n in self._fallback:
            for r, row in enumerate(rows[0 if shared else n]):
                out[n, r] = _expm_populations(self._gens[n], pops0, row)
        out = out.reshape((count,) + (taus.shape if shared else taus.shape[1:]) + (4,))
        return out[0] if self._single else out

    def state(self, initial: XState, tau: float) -> XState:
        if not self._single:
            raise ValueError("state() needs a propagator for a single RateMatrix")
        if tau < 0.0 or not math.isfinite(tau):
            raise ValueError(f"tau must be finite and >= 0, got {tau}")
        if self._frozen[0] or tau == 0.0:
            return initial
        pops = self.populations(initial.populations(), np.array([tau]))[0]
        return XState(
            pops[0],
            pops[1],
            pops[2],
            pops[3],
            coh_ge=initial.coh_ge * math.exp(-self.rates.decay_ge * tau),
            coh_as=initial.coh_as * math.exp(-self.rates.decay_as * tau),
        )


def _inverse_or_nan(matrix: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        return np.full_like(matrix, np.nan)


def _expm_populations(gen: np.ndarray, pops0: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Populations by matrix exponentials; shape (len(taus), 4).

    A uniform grid t0 + k*dt costs two exponentials, expm(G t0) @ pops0 and
    expm(G dt), whose powers are applied by repeated squaring: the samples
    filled so far are advanced by P = expm(G dt)^filled, then P is squared.
    Any other grid takes one exponential per time.
    """
    from scipy.linalg import expm

    count = taus.size
    t0 = taus[0]
    dt = (taus[-1] - t0) / max(count - 1, 1)
    uniform = count > 2 and np.max(
        np.abs(taus - (t0 + dt * np.arange(count)))
    ) <= 4.0 * np.finfo(float).eps * max(taus[-1], 1.0)
    if not uniform:
        return np.stack([expm(gen * t) @ pops0 for t in taus])
    out = np.empty((count, 4))
    out[0] = expm(gen * t0) @ pops0
    power = expm(gen * dt)
    filled = 1
    while filled < count:
        take = min(filled, count - filled)
        out[filled : filled + take] = out[:take] @ power.T
        filled += take
        if filled < count:
            power = power @ power
    return out


def propagate_eigen(initial: XState, rates: RateMatrix, tau: float) -> XState:
    """Exact propagation by eigendecomposition of the population generator."""
    return EigenPropagator(rates).state(initial, tau)


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered samples (tau in units 1/Gamma0, state) plus the method used.

    Factories attach an exact point-evaluator so that event detection can
    refine crossings beyond the sample grid; it does not take part in
    equality comparisons.
    """

    taus: tuple[float, ...]
    states: tuple[XState, ...]
    method: str
    evaluate: Callable[[float], XState] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        if len(self.taus) != len(self.states):
            raise ValueError("taus and states must have equal length")
        if not self.taus:
            raise ValueError("trajectory must contain at least one sample")
        if any(b <= a for a, b in zip(self.taus, self.taus[1:])):
            raise ValueError("taus must be strictly increasing")

    def __len__(self) -> int:
        return len(self.taus)

    def __iter__(self) -> Iterator[tuple[float, XState]]:
        return iter(zip(self.taus, self.states))


# Runge-Kutta-Fehlberg 4(5) tableau.
_RKF_C = (0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2)
_RKF_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_RKF_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)
_RKF_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)

MIN_STEP = 1e-14


def integrate_ode(
    initial: XState,
    rates: RateMatrix,
    tau_end: float,
    tol: float = 1e-10,
) -> Trajectory:
    """Adaptive RKF45 integration of the full rate equations (oracle route).

    Integrates the four populations together with both coherences as an
    8-component real system, keeping the local error per step below tol.
    Samples are the accepted steps. Raises StepUnderflowError if the required
    step drops below 1e-14.
    """
    if not tau_end > 0.0:
        raise ValueError(f"tau_end must be > 0, got {tau_end}")
    if not 1e-13 <= tol <= 1e-6:
        raise ValueError(f"tol must lie in [1e-13, 1e-6], got {tol}")

    gen = rates.generator
    decay = np.array([rates.decay_ge, rates.decay_ge, rates.decay_as, rates.decay_as])

    def rhs(y: np.ndarray) -> np.ndarray:
        out = np.empty(8)
        out[:4] = gen @ y[:4]
        out[4:] = -decay * y[4:]
        return out

    y = np.array(
        [
            initial.pop_g,
            initial.pop_a,
            initial.pop_s,
            initial.pop_e,
            initial.coh_ge.real,
            initial.coh_ge.imag,
            initial.coh_as.real,
            initial.coh_as.imag,
        ]
    )

    def snapshot(vec: np.ndarray) -> XState:
        return XState(
            vec[0],
            vec[1],
            vec[2],
            vec[3],
            coh_ge=complex(vec[4], vec[5]),
            coh_as=complex(vec[6], vec[7]),
        )

    rate_scale = max(float(np.max(np.abs(gen))), rates.decay_as, rates.decay_ge)
    if rate_scale == 0.0:
        # Frozen dynamics: constant trajectory with two samples.
        evaluator = EigenPropagator(rates)
        return Trajectory(
            taus=(0.0, tau_end),
            states=(initial, initial),
            method=ODE,
            evaluate=lambda t, _p=evaluator, _s=initial: _p.state(_s, t),
        )

    taus = [0.0]
    states = [initial]
    t = 0.0
    h = min(tau_end, 0.1 / rate_scale)
    stages = np.empty((6, 8))
    while t < tau_end:
        remaining = tau_end - t
        if remaining - h < MIN_STEP:
            # Stretch the step onto tau_end rather than leave a sliver
            # below MIN_STEP; landing by t += h could miss through roundoff.
            h = remaining
        if h < MIN_STEP:
            raise StepUnderflowError(f"step {h} below {MIN_STEP} at tau={t}")
        stages[0] = rhs(y)
        for i in range(1, 6):
            incr = sum(a * stages[j] for j, a in enumerate(_RKF_A[i]))
            stages[i] = rhs(y + h * incr)
        y5 = y + h * sum(b * k for b, k in zip(_RKF_B5, stages))
        y4 = y + h * sum(b * k for b, k in zip(_RKF_B4, stages))
        err = float(np.max(np.abs(y5 - y4)))
        if err <= tol:
            t = tau_end if h == remaining else t + h
            y = y5
            taus.append(t)
            states.append(snapshot(y))
            grow = 5.0 if err == 0.0 else min(5.0, 0.9 * (tol / err) ** 0.2)
            h *= max(grow, 1.0)
        else:
            h *= max(0.2, 0.9 * (tol / err) ** 0.2)

    evaluator = EigenPropagator(rates)
    return Trajectory(
        taus=tuple(taus),
        states=tuple(states),
        method=ODE,
        evaluate=lambda tt, _p=evaluator, _s=initial: _p.state(_s, tt),
    )


def closed_form_trajectory(
    initial: XState,
    lam: float,
    gray: float,
    g0: float,
    taus: Sequence[float],
) -> Trajectory:
    """Sample the vacuum closed form on a time grid (times in true units)."""

    def at(tau: float) -> XState:
        return closed_form_state(initial, lam, decay_factor(tau, gray, g0))

    return Trajectory(
        taus=tuple(float(t) for t in taus),
        states=tuple(at(t) for t in taus),
        method=CLOSED_FORM,
        evaluate=at,
    )


def eigen_trajectory(
    initial: XState, rates: RateMatrix, taus: Sequence[float]
) -> Trajectory:
    """Sample the eigendecomposition propagator on a time grid."""
    prop = EigenPropagator(rates)
    return Trajectory(
        taus=tuple(float(t) for t in taus),
        states=tuple(prop.state(initial, t) for t in taus),
        method=FROZEN if rates.is_frozen else EIGEN,
        evaluate=lambda t: prop.state(initial, t),
    )


def random_xstate(
    rng: np.random.Generator,
    diagonal: bool = False,
    pure: bool = False,
) -> XState:
    """Draw a random valid X state (uniform Dirichlet populations).

    With diagonal=True the state is diagonal in the coupled basis (no
    coherences). With pure=True, returns a random pure X state, which lives
    either in the span of {|00>, |11>} or of {|01>, |10>}.
    """
    if pure:
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps /= np.linalg.norm(amps)
        alpha, beta = amps
        if rng.random() < 0.5:
            return XState(
                pop_g=abs(alpha) ** 2,
                pop_a=0.0,
                pop_s=0.0,
                pop_e=abs(beta) ** 2,
                coh_ge=alpha * np.conj(beta),
            )
        sym = (alpha + beta) / math.sqrt(2.0)
        anti = (beta - alpha) / math.sqrt(2.0)
        return XState(
            pop_g=0.0,
            pop_a=abs(anti) ** 2,
            pop_s=abs(sym) ** 2,
            pop_e=0.0,
            coh_as=anti * np.conj(sym),
        )
    if diagonal:
        g, a, s, e = rng.dirichlet(np.ones(4))
        return XState(pop_g=g, pop_a=a, pop_s=s, pop_e=e)
    diag = rng.dirichlet(np.ones(4))  # product-basis populations 00,01,10,11
    mag_ge = math.sqrt(diag[0] * diag[3]) * rng.random()
    mag_as = math.sqrt(diag[1] * diag[2]) * rng.random()
    anti_ge = mag_ge * np.exp(2j * math.pi * rng.random())
    anti_as = mag_as * np.exp(2j * math.pi * rng.random())
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3] = diag
    rho[0, 3] = anti_ge
    rho[3, 0] = np.conj(anti_ge)
    rho[1, 2] = anti_as
    rho[2, 1] = np.conj(anti_as)
    return from_product_basis(rho)
