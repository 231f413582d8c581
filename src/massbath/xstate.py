"""X-form two-qubit states in the coupled basis and their propagators.

The coupled basis is {G = |00>, A = (|10>-|01>)/sqrt2, S = (|10>+|01>)/sqrt2,
E = |11>}. X-form states (only diagonal plus anti-diagonal entries in the
product basis) stay X-form under the rate equations used here, so a state is
fully described by four populations and the two coherences G-E and A-S.

One exact propagator, EigenPropagator, takes a RateStack to arrays (XState
objects are built only at the public entry points) and picks a route per
generator: the identity for frozen dynamics, the closed-form cascade solution
for generators without upward rates (the vacuum), an eigendecomposition in
general, and uniformized matrix exponentials for generators that do not
diagonalize cleanly. An adaptive Runge-Kutta integrator is the oracle.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import NonXFormError, NotAStateError, StepUnderflowError
from .field_bath import GklsCoefficients

POP_TOL = 1e-10
PSD_TOL = 1e-10
OFF_X_TOL = 1e-12

# Routes of a propagated generator (and the RKF45 oracle's ODE).
CLOSED_FORM = "closed_form"
EIGEN = "eigen"
EXPM = "expm"
ODE = "ode"
FROZEN = "frozen"
_ROUTES = np.array([FROZEN, CLOSED_FORM, EIGEN, EXPM], dtype=object)

__all__ = [
    "XState",
    "RateMatrix",
    "RateStack",
    "Trajectory",
    "EigenPropagator",
    "from_product_basis",
    "to_product_basis",
    "build_rate_matrix",
    "decay_factor",
    "closed_form_state",
    "integrate_ode",
    "integrate_ode_many",
    "closed_form_trajectory",
    "eigen_trajectory",
    "random_xstate",
    "CLOSED_FORM",
    "EIGEN",
    "EXPM",
    "ODE",
    "FROZEN",
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


def from_product_basis(rho) -> XState:
    """Convert an X-form density matrix in the product basis {00,01,10,11}.

    Raises NonXFormError if any entry off the diagonal/anti-diagonal exceeds
    1e-12, NotAStateError if the matrix is not finite, Hermitian, unit trace and PSD.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise NotAStateError(f"expected a 4x4 matrix, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise NotAStateError("matrix has an entry that is not finite")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise NotAStateError("matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > POP_TOL or abs(np.trace(rho).imag) > POP_TOL:
        raise NotAStateError(f"trace {np.trace(rho)} differs from 1")
    if np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) < -POP_TOL:
        raise NotAStateError("matrix is not positive semidefinite")
    x_mask = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]
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
    both coherences decay at rates decay_as = decay_ge = 4*a1. Rates that
    would take a state out of the positive cone raise ValueError.
    """

    generator: np.ndarray
    decay_as: float
    decay_ge: float

    def __post_init__(self):
        gen = np.array(self.generator, dtype=float)
        if gen.shape != (4, 4):
            raise ValueError(f"generator must be 4x4, got {gen.shape}")
        fault = _rate_fault(gen[None], np.array([self.decay_as]), np.array([self.decay_ge]))
        if fault is not None:
            raise ValueError(fault[1])
        gen.setflags(write=False)
        object.__setattr__(self, "generator", gen)

    @property
    def is_frozen(self) -> bool:
        return bool(RateStack.of([self]).frozen[0])


class RateStack(NamedTuple):
    """The rates of N cells as arrays, each cell within RateMatrix's rules:
    generators (N, 4, 4) and coherence decay rates decay_as, decay_ge (N,)."""

    generator: np.ndarray
    decay_as: np.ndarray
    decay_ge: np.ndarray

    @classmethod
    def of(cls, rates: Sequence[RateMatrix]) -> "RateStack":
        return cls(*(np.array([getattr(r, name) for r in rates]) for name in cls._fields))

    def take(self, index) -> "RateStack":
        return RateStack(*(rates[index] for rates in self))

    @property
    def frozen(self) -> np.ndarray:
        return ~self.generator.any(axis=(1, 2)) & (self.decay_as == 0.0) & (self.decay_ge == 0.0)


def _rate_fault(gens: np.ndarray, decay_as: np.ndarray, decay_ge: np.ndarray):
    """(index, message) of the first cell of a RateStack's arrays that breaks
    a rule of RateMatrix, or None. Each rule is one array test over the cells."""
    with np.errstate(invalid="ignore", over="ignore"):
        scale = 1e-12 * np.maximum(1.0, np.abs(gens).max(axis=(1, 2)))
        col_sums = gens.sum(axis=1)
        out = -np.diagonal(gens, axis1=1, axis2=2)
        bound_ge, bound_as = 0.5 * (out[:, 0] + out[:, 3]), 0.5 * (out[:, 1] + out[:, 2])
        # The last is positivity (GKLS): a coherence decays at least at the mean
        # rate out of the two populations it couples; build_rate_matrix sits on it.
        rules = {
            "rates must be finite":
                ~(np.isfinite(gens).all(axis=(1, 2)) & np.isfinite(decay_as + decay_ge)),
            "generator columns must sum to zero, got {0}": np.abs(col_sums).max(axis=1) > scale,
            "off-diagonal rates must be non-negative":
                gens[:, ~np.eye(4, dtype=bool)].min(axis=1) < -scale,
            "coherence decay rates must be non-negative": (decay_as < 0.0) | (decay_ge < 0.0),
            "coherence decay rates (ge {1}, as {2}) fall below the positivity bound "
            "(ge {3}, as {4})": np.minimum(decay_ge - bound_ge, decay_as - bound_as) < -scale,
        }
    failing = np.logical_or.reduce(list(rules.values()))
    if not failing.any():
        return None
    k = int(np.argmax(failing))
    rule = next(rule for rule, mask in rules.items() if mask[k])
    return k, rule.format(*(a[k] for a in (col_sums, decay_ge, decay_as, bound_ge, bound_as)))


def _generators(a1, b1, a2, b2):
    """Population generators (..., 4, 4) and coherence decay rates 4*a1 of
    coefficients a1, b1, a2, b2 that broadcast (floats or arrays).

    The four channels are the cascades through the symmetric/antisymmetric
    states: downward rates 2(a1+b1 +- (a2+b2)) and upward (absorption) rates
    2(a1-b1 +- (a2-b2)); the diagonal is minus the column sum, so probability
    is conserved exactly.
    """
    down_a = 2.0 * (a1 + b1 - a2 - b2)  # E -> A and A -> G
    down_s = 2.0 * (a1 + b1 + a2 + b2)  # E -> S and S -> G
    up_a = 2.0 * (a1 - b1 - a2 + b2)  # G -> A and A -> E
    up_s = 2.0 * (a1 - b1 + a2 - b2)  # G -> S and S -> E
    zero = np.zeros_like(down_a)
    gen = np.array([
        [-(up_a + up_s), down_a, down_s, zero],
        [up_a, -(down_a + up_a), zero, down_a],
        [up_s, zero, -(down_s + up_s), down_s],
        [zero, up_a, up_s, -(down_a + down_s)],
    ])
    return np.moveaxis(gen, (0, 1), (-2, -1)), 4.0 * a1


def build_rate_matrix(coeffs: GklsCoefficients) -> RateMatrix:
    """The population generator and coherence decay rates of one cell (see _generators)."""
    gen, rate = _generators(coeffs.a1, coeffs.b1, coeffs.a2, coeffs.b2)
    return RateMatrix(generator=gen, decay_as=rate, decay_ge=rate)


def decay_factor(tau: float, gray: float, g0: float) -> float:
    """Exponential decay scale exp(-gray * Gamma0 * tau) of the vacuum solution."""
    if not (math.isfinite(tau) and math.isfinite(gray) and math.isfinite(g0)):
        raise ValueError("non-finite input")
    if tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    return math.exp(-gray * g0 * tau)


def _decay(rate, t, out):
    """(exp(-rate*t), t*psi(rate*t)) into out = (fade, span); psi(z) = -expm1(-z)/z, psi(0) = 1.

    The second is the integral of exp(-rate*s) over s in [0, t].
    """
    x = np.multiply(-rate, t, out=out[1])
    fade = np.exp(x, out=out[0])
    span = np.expm1(x, out=x)
    live = rate > 0.0
    span /= -np.where(live, rate, 1.0)
    if not np.all(live):
        np.copyto(span, t, where=~live)
    return fade, span


def _cascade(pops0, d_a, d_s, t, out=None):
    """Populations (pop_g, pop_a, pop_s, pop_e) of the cascade E -> A -> G,
    E -> S -> G at times t, written into the planes out[0..3] (new if None).

    d_a = rate(E -> A) = rate(A -> G) and d_s = rate(E -> S) = rate(S -> G)
    broadcast against t. With psi(z) = -expm1(-z)/z (psi(0) = 1),

        pop_e = e0 exp(-(d_a + d_s) t)
        pop_a = exp(-d_a t) (a0 + e0 d_a t psi(d_s t)), likewise pop_s,

    and pop_g from the trace. Nothing divides by a difference of rates, so
    the solution stays exact where a rate vanishes (|lam| = 1 in the vacuum)
    and at any time, however late.
    """
    g0, a0, s0, e0 = pops0
    out = np.empty((4,) + np.broadcast(e0, d_a, t).shape) if out is None else out
    pop_g, pop_a, pop_s, pop_e = out
    # In place, since temporaries cost as much as the arithmetic on them.
    fade_a, span_a = _decay(d_a, t, (pop_g, pop_s))
    fade_s, span_s = _decay(d_s, t, (pop_e, pop_a))
    np.multiply(e0 * d_a, span_s, out=pop_a)
    pop_a += a0
    pop_a *= fade_a
    np.multiply(e0 * d_s, span_a, out=pop_s)
    pop_s += s0
    pop_s *= fade_s
    np.multiply(np.multiply(e0, fade_a, out=fade_a), fade_s, out=pop_e)
    np.subtract(g0 + a0 + s0 + e0, pop_a, out=pop_g)
    pop_g -= pop_s
    pop_g -= pop_e
    return pop_g, pop_a, pop_s, pop_e


# The cascade generator is d_a*_CASCADE_A + d_s*_CASCADE_S, entry for entry
# as build_rate_matrix lays it out when the upward rates vanish.
_CASCADE_A = np.array([[0, 1, 0, 0], [0, -1, 0, 1], [0, 0, 0, 0], [0, 0, 0, -1]], dtype=float)
_CASCADE_S = np.array([[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, -1, 1], [0, 0, 0, -1]], dtype=float)


def _xstates(pops, coh_ge, coh_as) -> tuple[XState, ...]:
    """Validated states from (K, 4) populations and K coherence pairs."""
    return tuple(
        XState(p[0], p[1], p[2], p[3], coh_ge=ge, coh_as=as_)
        for p, ge, as_ in zip(pops, coh_ge, coh_as)
    )


def _check_states(pops, coh_ge, coh_as) -> None:
    """Raise what XState raises for the first row that is not a state. Only
    rows a vectorised screen of XState's checks flags (nan and inf fail them;
    |c|**2 is inflated by 1e-12 over numpy's last-bit error) are built."""
    pop_g, pop_a, pop_s, pop_e = pops.T
    ge2, as2 = (np.abs(c) ** 2 * (1.0 + 1e-12) for c in (coh_ge, coh_as))
    ok = ((pops.min(axis=1) >= -POP_TOL) & (abs(pop_g + pop_a + pop_s + pop_e - 1.0) <= POP_TOL)
          & (ge2 <= pop_g * pop_e + PSD_TOL) & (as2 <= pop_a * pop_s + PSD_TOL))
    _xstates(pops[~ok], coh_ge[~ok], coh_as[~ok])


def _vacuum_rates(lam) -> RateStack:
    """The vacuum in the decay exponent u = gray*Gamma0*tau at spatial
    factors lam (a float or an array): the cascade with d_a = 1 - lam and
    d_s = 1 + lam, both coherences decaying at rate 1."""
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    if not np.all((lams >= -1.0) & (lams <= 1.0)):
        raise ValueError(f"lam must lie in [-1, 1], got {lam}")
    d_a, d_s = (1.0 - lams)[:, None, None], (1.0 + lams)[:, None, None]
    return RateStack(d_a * _CASCADE_A + d_s * _CASCADE_S, *np.ones((2, lams.size)))


def closed_form_state(initial: XState, lam: float, xi: float) -> XState:
    """Vacuum-bath state at the time implied by xi = exp(-gray*Gamma0*tau).

    Valid only in the vacuum regime (a1 == b1), for any lam in [-1, 1].
    """
    if not 0.0 < xi <= 1.0:
        raise ValueError(f"xi must lie in (0, 1], got {xi}")
    return EigenPropagator(_vacuum_rates(lam)).state(initial, -math.log(xi))


class EigenPropagator:
    """Exact propagator of a RateStack of N generators (a RateMatrix is a stack
    of one): `populations` and `evolve` return arrays, `state` one XState.

    Picks one route per generator, reported in `routes`: FROZEN (all rates
    zero; the identity), CLOSED_FORM (no upward rates, as in the vacuum: the
    cascade solution), EIGEN or EXPM. EIGEN diagonalizes the generator once,
    in real arithmetic: the physical generators obey detailed balance
    (up_a*down_s == up_s*down_a), so their spectrum is real. A generator whose
    eigenvalues are not all real, or whose eigenvectors V have eps * kappa >
    1e-12, kappa = max entry of |V| |V^-1| (nearly defective, as for a thermal
    bath at |spatial factor| ~ 1; kappa is scale-free), takes EXPM: matrix
    exponentials by uniformization, a sum of nonnegative terms accurate entry
    by entry, for every EXPM generator and time row in one batched call.

    `populations` stores the populations population-major, one contiguous
    plane each, behind the (..., 4) view it returns. `take` slices a stack,
    routes and eigendecompositions included, without diagonalizing again.
    """

    def __init__(self, rates: RateStack | RateMatrix):
        if isinstance(rates, RateMatrix):
            rates = RateStack.of([rates])
        self.rates = rates
        gens = rates.generator
        frozen = rates.frozen
        # d_a and d_s of the cascade are the G <- A and G <- S rates.
        pattern = gens[:, 0, 1, None, None] * _CASCADE_A + gens[:, 0, 2, None, None] * _CASCADE_S
        cascade = ~frozen & np.all(gens == pattern, axis=(1, 2))
        # Each generator's route, as an index into _ROUTES.
        codes = np.where(frozen, 0, np.where(cascade, 1, 3))
        self._eig = ()  # eigenvalues, eigenvectors and their inverses, per generator
        rest = np.flatnonzero(codes == 3)
        if rest.size:
            ok, *parts = _diagonalize(gens[rest])
            codes[rest[ok]] = 2
            self._eig = tuple(np.zeros((len(gens),) + part.shape[1:]) for part in parts)
            for full, part in zip(self._eig, parts):
                full[rest] = part
        self._set_routes(codes)

    def _set_routes(self, codes: np.ndarray) -> None:
        """routes from route codes, and each route taken with its generators (None: all)."""
        self._codes, self.routes = codes, _ROUTES[codes]
        sizes = np.bincount(codes, minlength=len(_ROUTES))
        self._groups = [(_ROUTES[c], None if sizes[c] == codes.size else np.flatnonzero(codes == c))
                        for c in np.flatnonzero(sizes)]

    def take(self, index) -> "EigenPropagator":
        """The propagator of the stack of generators at `index`, an index
        array or a slice: itself when that selects every generator in order."""
        every = np.arange(len(self._codes))
        if np.array_equal(every[index], every):
            return self
        sub = copy.copy(self)
        sub.rates = self.rates.take(index)
        sub._eig = tuple(part[index] for part in self._eig)
        sub._set_routes(self._codes[index])
        return sub

    def populations(self, pops0: np.ndarray, taus: np.ndarray) -> np.ndarray:
        """Population vectors at each tau, in a fresh array.

        pops0 is one initial population vector shared by every generator,
        shape (4,), or one per generator, shape (N, 4). taus is one time grid
        shared by every generator, shape (K,), or per-generator grids of
        shape (N, ..., K), each row along the last axis one grid. Returns
        (N, ..., K, 4), a view whose [..., p] planes are C-contiguous.
        """
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        if not (taus.size and taus.min() >= 0.0 and taus.max() < math.inf):
            raise ValueError("tau must be finite and >= 0, and taus not empty")
        shared = taus.ndim == 1
        count = len(self._codes)
        if not shared and taus.shape[0] != count:
            raise ValueError(f"need {count} per-generator grids, got {taus.shape[0]}")
        pops0 = np.asarray(pops0, dtype=float)
        if pops0.shape not in ((4,), (count, 4)):
            raise ValueError(f"pops0 must have shape (4,) or ({count}, 4), got {pops0.shape}")
        rows = taus.reshape(1 if shared else count, -1, taus.shape[-1])
        out = self._planes(pops0, rows, np.empty((4, count) + rows.shape[1:]))
        out = out.reshape((4, count) + (taus.shape if shared else taus.shape[1:]))
        return out.transpose(*range(1, out.ndim), 0)  # np.moveaxis(out, 0, -1), faster

    def _planes(self, pops0: np.ndarray, rows: np.ndarray, out: np.ndarray,
                scratch=(None, None)):
        """populations, unchecked, on time rows (N or 1, R, K) into the planes
        out (4, N, R, K), returned: each route's formula on its generators,
        into out itself on a one-route stack, else into that route's planes
        in scratch[1], scattered into out. scratch holds two flat float
        buffers of 4 N R K or more, for the eigen modes and for a route's
        planes (None: new ones)."""
        for route, index in self._groups:
            k = slice(None) if index is None else index  # one route: no index copies
            planes = out if index is None else _carve(scratch[1], (4, index.size) + rows.shape[1:])
            p0 = pops0 if pops0.ndim == 1 else pops0[k]
            grid = rows if len(rows) == 1 else rows[k]
            gens = self.rates.generator[k]
            if route == FROZEN:
                planes[...] = p0.T.reshape(4, -1, 1, 1)
            elif route == CLOSED_FORM:
                d_a, d_s = gens[:, 0, 1, None, None], gens[:, 0, 2, None, None]
                _cascade(p0 if p0.ndim == 1 else p0.T[..., None, None], d_a, d_s, grid, planes)
            elif route == EIGEN:
                eigvals, eigvecs, inv = (part[k] for part in self._eig)
                modes = _carve(scratch[0], planes.shape[1:3] + (4, grid.shape[-1]))
                np.multiply(grid[:, :, None, :], eigvals[:, None, :, None], out=modes)
                np.exp(modes, out=modes)
                modes *= _apply(inv, p0)[:, None, :, None]
                np.matmul(eigvecs[:, None], modes, out=planes.transpose(1, 2, 0, 3))
            else:
                grids = np.broadcast_to(grid, (len(gens),) + grid.shape[1:])
                p0 = np.broadcast_to(p0, (len(gens), 4))
                planes[...] = np.moveaxis(_uniformized_populations(gens, p0, grids), -1, 0)
            if index is not None:
                out[:, index] = planes
        return out

    def tail(self, pops0: np.ndarray, tau: float, weights: np.ndarray):
        """(center, radius), each (N, W): w·p(t) lies within center ± radius
        for each row w of weights (W, 4) at all t >= tau, from pops0 (4,).
        EIGEN: c = V^-1 pops0; the stationary mode (largest eigenvalue, set to
        0 by _diagonalize) is the center and mode j adds |w·V_j c_j| e^(lambda_j tau).
        CLOSED_FORM, FROZEN: A, S and E only drain, so pa, ps, pe lie in [0, X]
        and pg in [1 - X, 1], X = (pa + ps + pe)(tau). EXPM: radius inf. Each
        population widens by 64 eps sum_j |V_ij c_j| + eps (sum 1 off EIGEN)."""
        count, eps = len(self._codes), np.finfo(float).eps
        center, spread, scale = np.zeros((count, 4)), np.zeros((count, 4, 4)), np.ones((count, 4))
        for route, index in self._groups:
            k = slice(None) if index is None else index
            if route in (FROZEN, CLOSED_FORM):  # frozen: the cascade without rates
                gens = self.rates.generator[k]
                excited = sum(_cascade(pops0, gens[:, 0, 1], gens[:, 0, 2], tau)[1:])[:, None]
                center[k] = [1.0, 0.0, 0.0, 0.0] + excited * [-0.5, 0.5, 0.5, 0.5]
                spread[k] = 0.5 * excited[:, :, None] * np.eye(4)
            elif route == EIGEN:
                eigvals, eigvecs, inv = (part[k] for part in self._eig)
                amps = eigvecs * _apply(inv, pops0)[:, None, :]  # V_ij c_j
                stat = eigvals == eigvals.max(axis=1, keepdims=True)
                center[k] = (amps * stat[:, None, :]).sum(axis=2)
                fade = np.where(stat, 0.0, np.exp(np.minimum(eigvals, 0.0) * tau))
                spread[k], scale[k] = amps * fade[:, None, :], np.abs(amps).sum(axis=2)
        radius = np.abs(weights @ spread).sum(axis=2) + (64.0 * eps * scale + eps) @ np.abs(weights).T
        radius[self.routes == EXPM] = np.inf
        return center @ weights.T, radius

    def evolve(self, pops0: np.ndarray, coh_ge, coh_as, taus: np.ndarray):
        """(populations, coh_ge, coh_as) at taus: populations(pops0, taus), and
        both coherences (N, ..., K), each faded at its generator's decay rate;
        coh_ge and coh_as are scalars or one per generator, shape (N,)."""
        taus = np.asarray(taus, dtype=float)
        pops = self.populations(pops0, taus)
        shape = (-1,) + (1,) * (pops.ndim - 2)  # per generator, against taus

        def faded(coh, decay):
            return np.reshape(coh, shape) * np.exp(-decay.reshape(shape) * taus)

        return pops, faded(coh_ge, self.rates.decay_ge), faded(coh_as, self.rates.decay_as)

    def state(self, initial: XState, tau: float) -> XState:
        """The state at one time tau; needs a propagator of one generator."""
        if len(self._codes) != 1:
            raise ValueError(f"state() needs a propagator of one generator, got {len(self._codes)}")
        if tau < 0.0 or not math.isfinite(tau):
            raise ValueError(f"tau must be finite and >= 0, got {tau}")
        if self.routes[0] == FROZEN or tau == 0.0:
            return initial
        return _xstates(*_sampler(self, initial)(np.array([tau])))[0]


def _sampler(prop: EigenPropagator, initial: XState, rate: float = 1.0):
    """The exact evaluator of a trajectory from initial under a one-generator
    propagator: times (M,) -> (populations (M, 4), coh_ge, coh_as) at rate*times."""
    pops0, coh_ge, coh_as = initial.populations(), initial.coh_ge, initial.coh_as

    def at(taus):
        out = prop.evolve(pops0, coh_ge, coh_as, rate * np.asarray(taus, dtype=float))
        return tuple(part[0] for part in out)

    return at


def _carve(buffer, shape: tuple) -> np.ndarray:
    """A C-contiguous array of `shape` at the start of a flat float buffer (new if None)."""
    return np.empty(shape) if buffer is None else buffer[:math.prod(shape)].reshape(shape)


def _apply(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """matrices[n] @ vectors[n] for matrices (N, 4, 4) and vectors (N, 4) or (4,)."""
    return (matrices @ vectors[..., None])[..., 0]


def _diagonalize(gens: np.ndarray):
    """(ok, eigvals, eigvecs, inv) of a stack of generators, in real arithmetic.

    ok is False where an eigenvalue is complex or eps * kappa > 1e-12, kappa =
    max entry of |V| |V^-1|: the eigenvector method's error follows cond(V)
    (Moler & Van Loan 2003). A singular V's NaN inverse fails too.
    """
    eigvals, eigvecs = np.linalg.eig(gens)
    real = True
    if np.iscomplexobj(eigvals):
        real = np.all(eigvals.imag == 0.0, axis=-1)
        eigvals, eigvecs = eigvals.real, eigvecs.real
    # The generator conserves probability: its largest eigenvalue is 0 exactly.
    eigvals[np.arange(len(gens)), eigvals.argmax(axis=1)] = 0.0
    try:
        inv = np.linalg.inv(eigvecs)
    except np.linalg.LinAlgError:
        inv = np.stack([_inverse_or_nan(v) for v in eigvecs])
    kappa = (np.abs(eigvecs) @ np.abs(inv)).max(axis=(1, 2))
    return real & (np.finfo(float).eps * kappa <= 1e-12), eigvals, eigvecs, inv


def _inverse_or_nan(matrix: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        return np.full_like(matrix, np.nan)


def _uniformized(gens: np.ndarray, h: np.ndarray) -> np.ndarray:
    """exp(gens[n] * h[n]) for generators (N, 4, 4) with nonnegative
    off-diagonal rates and zero column sums, and times h >= 0 of shape (N,).

    Uniformization (Jensen 1953): with c = max|G_ii| and the stochastic
    P = I + G/c, exp(G h) = e^(-x) sum_k x^k/k! P^k at x = c h / 2^s <= 1/2
    (Horner, 16 terms), squared s times. No term is negative, so small
    entries keep a small relative error. Each column is divided by its sum,
    which G conserves, after the sum and after every squaring, lest rounding
    compound over the squarings.
    """
    rate = np.abs(np.diagonal(gens, axis1=1, axis2=2)).max(axis=1)
    rate = np.where(rate > 0.0, rate, 1.0)
    squarings = np.maximum(np.frexp(2.0 * rate * h)[1], 0)
    x = np.ldexp(rate * h, -squarings)[:, None, None]
    step = (np.eye(4) + gens / rate[:, None, None]) * x
    out = np.eye(4) + step / 15.0
    for k in range(14, 0, -1):
        out = np.eye(4) + (step / k) @ out
    out /= out.sum(axis=1, keepdims=True)
    for level in range(squarings.max(initial=0)):
        live = np.flatnonzero(squarings > level)
        square = out[live] @ out[live]
        out[live] = square / square.sum(axis=1, keepdims=True)
    return out


def _uniformized_populations(gens: np.ndarray, pops0: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Populations (N, R, K, 4) of generators (N, 4, 4) from initial
    populations (N, 4) on time rows (N, R, K).

    One batched _uniformized call serves every row. A uniform row t0 + k*dt
    takes exp(G t0) @ pops0 and exp(G dt), applied by repeated squaring: the
    samples filled so far are advanced by exp(G dt)^filled, which is then
    squared and renormalized. Any other row takes one exponential per time.
    """
    count = rows.shape[-1]
    t0 = rows[..., 0]
    dt = (rows[..., -1] - t0) / max(count - 1, 1)
    spread = np.abs(rows - (t0[..., None] + dt[..., None] * np.arange(count))).max(axis=-1)
    uniform = (count > 2) & (spread <= 4.0 * np.finfo(float).eps * np.maximum(rows[..., -1], 1.0))
    cell = np.broadcast_to(np.arange(len(gens))[:, None], uniform.shape)
    ends, points = cell[uniform], cell[~uniform].repeat(count)
    times = np.concatenate([t0[uniform], dt[uniform], rows[~uniform].ravel()])
    exps = _uniformized(gens[np.concatenate([ends, ends, points])], times)
    out = np.empty(rows.shape + (4,))
    out[~uniform] = _apply(exps[2 * ends.size:], pops0[points]).reshape(-1, count, 4)
    run = np.empty((ends.size, count, 4))
    run[:, 0] = _apply(exps[:ends.size], pops0[ends])
    power = np.swapaxes(exps[ends.size:2 * ends.size], 1, 2)  # rows are columns
    filled = 1
    while filled < count:
        take = min(filled, count - filled)
        run[:, filled:filled + take] = run[:, :take] @ power
        filled += take
        if filled < count:
            power = power @ power
            power /= power.sum(axis=2, keepdims=True)
    out[uniform] = run
    return out


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Samples of one propagation at increasing times taus (K floats, units
    1/Gamma0): populations (K, 4) as (g, a, s, e), coh_ge and coh_as (K,),
    each sample a state (NotAStateError otherwise), built as XState objects
    (`states`) only when read. Factories attach `at`, the exact evaluator of
    the same propagation, times (M,) -> (populations, coh_ge, coh_as).
    """

    taus: tuple[float, ...]
    populations: np.ndarray
    coh_ge: np.ndarray
    coh_as: np.ndarray
    method: str
    at: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]] | None = field(
        default=None, repr=False
    )

    def __post_init__(self):
        taus = np.array(self.taus, dtype=float)
        arrays = (np.array(self.populations, dtype=float), np.array(self.coh_ge, dtype=complex),
                  np.array(self.coh_as, dtype=complex))
        if taus.ndim != 1 or not taus.size:
            raise ValueError("trajectory must contain at least one sample")
        if [a.shape for a in arrays] != [(taus.size, 4), (taus.size,), (taus.size,)]:
            raise ValueError(f"need populations (K, 4) and coherences (K,) for K = {taus.size}")
        if np.any(taus[1:] <= taus[:-1]):
            raise ValueError("taus must be strictly increasing")
        _check_states(*arrays)
        for name, array in zip(("populations", "coh_ge", "coh_as"), arrays):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "taus", tuple(taus.tolist()))

    @cached_property
    def states(self) -> tuple[XState, ...]:
        return _xstates(self.populations, self.coh_ge, self.coh_as)

    def __len__(self) -> int:
        return len(self.taus)

    def __iter__(self) -> Iterator[tuple[float, XState]]:
        return iter(zip(self.taus, self.states))


# Runge-Kutta-Fehlberg 4(5) tableau: stages, then fifth- and fourth-order weights.
_RKF_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 4, 0.0, 0.0, 0.0, 0.0],
    [3 / 32, 9 / 32, 0.0, 0.0, 0.0],
    [1932 / 2197, -7200 / 2197, 7296 / 2197, 0.0, 0.0],
    [439 / 216, -8.0, 3680 / 513, -845 / 4104, 0.0],
    [-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40],
])
_RKF_B = np.array([
    [16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55],
    [25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0],
])

MIN_STEP = 1e-14


def _rkf45(gen: np.ndarray, y0: np.ndarray, tau_end: np.ndarray, tol: float):
    """Adaptive RKF45 for N linear systems dy/dtau = gen[n] @ y, in lockstep.

    gen is (N, 8, 8), y0 (N, 8), tau_end (N,). In each pass every system
    still running attempts one step of its own size h and keeps it if
    max|y5 - y4| <= tol; h then grows at most 5x, or shrinks at most 5x.
    A system leaves once it lands on its tau_end. Yields (rows, taus, ys)
    of the steps accepted in each pass.
    """
    rows, t = np.arange(len(y0)), np.zeros(len(y0))
    y = np.array(y0, dtype=float)
    scale = np.abs(gen).max(axis=(1, 2), initial=0.0)
    # Frozen dynamics (all rates zero) take one exact step of tau_end.
    inf = np.full(len(y0), math.inf)
    h = np.minimum(tau_end, np.divide(0.1, scale, out=inf, where=scale > 0.0))
    while rows.size:
        remaining = tau_end - t
        # Stretch the step onto tau_end rather than leave a sliver below
        # MIN_STEP; landing by t += h could miss through roundoff.
        h = np.where(remaining - h < MIN_STEP, remaining, h)
        short = np.flatnonzero(h < MIN_STEP)
        if short.size:
            n = short[0]
            raise StepUnderflowError(
                f"step {h[n]} below {MIN_STEP} at tau={t[n]} (system {rows[n]})"
            )
        stages = np.empty((6,) + y.shape)
        flat = stages.reshape(6, -1)
        stages[0] = np.einsum("nij,nj->ni", gen, y)
        for i in range(1, 6):
            incr = (_RKF_A[i, :i] @ flat[:i]).reshape(y.shape)
            stages[i] = np.einsum("nij,nj->ni", gen, y + h[:, None] * incr)
        y5, y4 = y + h[:, None] * (_RKF_B @ flat).reshape((2,) + y.shape)
        err = np.abs(y5 - y4).max(axis=1)
        ok = err <= tol
        with np.errstate(divide="ignore"):
            factor = np.clip(0.9 * (tol / err) ** 0.2, np.where(ok, 1.0, 0.2), 5.0)
        t = np.where(ok, np.where(h == remaining, tau_end, t + h), t)
        y = np.where(ok[:, None], y5, y)
        h = h * factor
        yield rows[ok], t[ok], y[ok]
        live = t < tau_end
        if not live.all():
            rows, gen, y, t, h, tau_end = (a[live] for a in (rows, gen, y, t, h, tau_end))


def _ode_system(initials: Sequence[XState], rates: Sequence[RateMatrix] | RateStack):
    """Generators (N, 8, 8) and initial vectors (N, 8) of the real ODE systems.

    A state's vector holds the four populations, then coh_ge and coh_as as
    (real, imag) pairs; its generator is block-diagonal: the population
    generator, then minus each coherence's decay rate.
    """
    if not isinstance(rates, RateStack):
        rates = RateStack.of(rates)
    count = len(initials)
    if len(rates.generator) != count:
        raise ValueError(f"need one rate per state, got {len(rates.generator)} for {count}")
    gen = np.zeros((count, 8, 8))
    gen[:, :4, :4] = rates.generator
    decay = np.stack([-rates.decay_ge, -rates.decay_as], axis=1)
    gen[:, range(4, 8), range(4, 8)] = np.repeat(decay, 2, axis=1)
    y0 = np.array([
        (s.pop_g, s.pop_a, s.pop_s, s.pop_e,
         s.coh_ge.real, s.coh_ge.imag, s.coh_as.real, s.coh_as.imag)
        for s in initials
    ]).reshape(-1, 8)
    return gen, y0


def _ode_times(tau_ends: Sequence[float], tol: float) -> np.ndarray:
    """tau_ends as an array, once they and tol are checked."""
    tau_ends = np.asarray(tau_ends, dtype=float)
    bad = np.flatnonzero(~((tau_ends > 0.0) & (tau_ends < math.inf)))
    if bad.size:
        raise ValueError(
            f"tau_end must be finite and > 0, got {tau_ends[bad[0]]} (system {bad[0]})"
        )
    if not 1e-13 <= tol <= 1e-6:
        raise ValueError(f"tol must lie in [1e-13, 1e-6], got {tol}")
    return tau_ends


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
    tau_end = _ode_times([tau_end], tol)
    gen, y0 = _ode_system([initial], [rates])
    passes = list(_rkf45(gen, y0, tau_end, tol))
    taus = np.concatenate([[0.0]] + [t for _, t, _ in passes])
    ys = np.concatenate([y0] + [y for _, _, y in passes])
    coh = ys[:, 4:].view(complex)
    return Trajectory(taus, ys[:, :4], coh[:, 0], coh[:, 1], ODE,
                      at=_sampler(EigenPropagator(rates), initial))


def integrate_ode_many(
    initials: Sequence[XState],
    rates: Sequence[RateMatrix] | RateStack,
    tau_ends: Sequence[float],
    tol: float = 1e-10,
) -> tuple[XState, ...]:
    """Final states of integrate_ode for many systems, integrated in lockstep.

    rates is a RateStack or a sequence of RateMatrix, one per system. System n
    keeps its own step control, as in integrate_ode(initials[n], rates[n],
    tau_ends[n], tol); all systems advance in the same array passes.
    """
    tau_ends = _ode_times(tau_ends, tol)
    if tau_ends.shape != (len(initials),):
        raise ValueError(f"need one tau_end per system, got shape {tau_ends.shape}")
    finals = np.empty((len(initials), 8))
    for rows, _, ys in _rkf45(*_ode_system(initials, rates), tau_ends, tol):
        finals[rows] = ys
    coh = finals[:, 4:].view(complex)
    return _xstates(finals[:, :4], coh[:, 0], coh[:, 1])


def closed_form_trajectory(
    initial: XState,
    lam: float,
    gray: float,
    g0: float,
    taus: Sequence[float],
) -> Trajectory:
    """Sample the vacuum closed form on a time grid (times in true units).
    Needs lam in [-1, 1], gray in [0, 1], g0 > 0 and taus finite and >= 0."""
    taus = np.asarray(taus, dtype=float)
    if not (0.0 <= gray <= 1.0 and 0.0 < g0 < math.inf):
        raise ValueError(f"need gray in [0, 1] and g0 > 0, got gray={gray}, g0={g0}")
    if not (np.isfinite(taus).all() and (taus >= 0.0).all()):
        raise ValueError("taus must be finite and >= 0")
    at = _sampler(EigenPropagator(_vacuum_rates(lam)), initial, gray * g0)
    return Trajectory(taus, *at(taus), CLOSED_FORM, at=at)


def eigen_trajectory(
    initial: XState, rates: RateMatrix, taus: Sequence[float]
) -> Trajectory:
    """Sample the propagator on a time grid; method is the route it took."""
    prop = EigenPropagator(rates)
    at = _sampler(prop, initial)
    return Trajectory(taus, *at(taus), prop.routes[0], at=at)


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
            return XState(abs(alpha) ** 2, 0.0, 0.0, abs(beta) ** 2, coh_ge=alpha * np.conj(beta))
        sym = (alpha + beta) / math.sqrt(2.0)
        anti = (beta - alpha) / math.sqrt(2.0)
        return XState(0.0, abs(anti) ** 2, abs(sym) ** 2, 0.0, coh_as=anti * np.conj(sym))
    if diagonal:
        g, a, s, e = rng.dirichlet(np.ones(4))
        return XState(pop_g=g, pop_a=a, pop_s=s, pop_e=e)
    diag = rng.dirichlet(np.ones(4))  # product-basis populations 00,01,10,11
    mag_ge = math.sqrt(diag[0] * diag[3]) * rng.random()
    mag_as = math.sqrt(diag[1] * diag[2]) * rng.random()
    anti_ge = mag_ge * np.exp(2j * math.pi * rng.random())
    anti_as = mag_as * np.exp(2j * math.pi * rng.random())
    # from_product_basis' complex arithmetic on rho[1, 1], rho[2, 2], rho[1, 2]
    # = anti_as and rho[2, 1], in its order, so every bit is the same.
    rho_11, rho_22, rho_21 = np.complex128(diag[1]), np.complex128(diag[2]), np.conj(anti_as)
    pop_a = 0.5 * (rho_11 + rho_22 - anti_as - rho_21).real
    pop_s = 0.5 * (rho_11 + rho_22 + anti_as + rho_21).real
    coh_as = 0.5 * (rho_22 - rho_11 + rho_21 - anti_as)
    return XState(diag[0], pop_a, pop_s, diag[3], coh_ge=anti_ge, coh_as=coh_as)
