"""Spectral properties of the massive scalar bath and the GKLS rate coefficients.

Everything is expressed in natural units (hbar = c = k_B = 1). The physics
depends only on the dimensionless combinations m/omega, T/omega, omega*L and
Gamma0*tau, so :meth:`FieldBathConfig.from_ratios` is the recommended entry
point: it fixes omega = 1 and picks the coupling so that the single-qubit
emission rate Gamma0 = mu^2 omega / (2 pi) equals one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

__all__ = [
    "FieldBathConfig",
    "GklsCoefficients",
    "gray_factor",
    "spatial_factor",
    "gamma0",
    "vacuum_coefficients",
    "thermal_coefficients",
    "coefficients",
    "spectral_density",
]


def _require_finite(**values) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _sinc(x: float) -> float:
    """sin(x)/x with a series guard against cancellation near x = 0."""
    if abs(x) < 1e-4:
        x2 = x * x
        return 1.0 - (x2 / 6.0) * (1.0 - x2 / 20.0)
    return math.sin(x) / x


@dataclass(frozen=True)
class FieldBathConfig:
    """Parameters of two identical qubits coupled to a scalar bath.

    Attributes:
        mass: field mass m >= 0, in the same units as omega.
        omega: level spacing of each qubit, > 0.
        mu: dimensionless qubit-field coupling, > 0.
        separation: inter-qubit distance L >= 0.
        temperature: bath temperature T > 0, or None for the vacuum.
    """

    mass: float
    omega: float
    mu: float
    separation: float
    temperature: float | None = None

    def __post_init__(self):
        _require_finite(
            mass=self.mass, omega=self.omega, mu=self.mu, separation=self.separation
        )
        if self.omega <= 0.0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if self.mu <= 0.0:
            raise ValueError(f"mu must be > 0, got {self.mu}")
        if self.mass < 0.0:
            raise ValueError(f"mass must be >= 0, got {self.mass}")
        if self.separation < 0.0:
            raise ValueError(f"separation must be >= 0, got {self.separation}")
        if self.temperature is not None:
            _require_finite(temperature=self.temperature)
            if self.temperature <= 0.0:
                raise ValueError(
                    f"thermal temperature must be > 0, got {self.temperature}"
                )

    @property
    def is_thermal(self) -> bool:
        return self.temperature is not None

    @property
    def gamma0(self) -> float:
        """Single-qubit spontaneous emission rate in the massless vacuum."""
        return gamma0(self.mu, self.omega)

    @classmethod
    def from_ratios(
        cls,
        mass_ratio: float,
        separation: float,
        temp_ratio: float | None = None,
    ) -> "FieldBathConfig":
        """Build a config from dimensionless ratios m/omega, omega*L, T/omega.

        Uses omega = 1 and mu = sqrt(2 pi), so rates come out in units of
        Gamma0 and times in units of 1/Gamma0.
        """
        return cls(
            mass=mass_ratio,
            omega=1.0,
            mu=math.sqrt(TWO_PI),
            separation=separation,
            temperature=temp_ratio,
        )


@dataclass(frozen=True)
class GklsCoefficients:
    """The four rate coefficients driving the coupled-basis rate equations.

    a1/b1 are the same-qubit (sum/difference) spectral weights, a2/b2 the
    cross-qubit ones; a2 = lam*a1 and b2 = lam*b1 for a common bath.
    """

    a1: float
    b1: float
    a2: float
    b2: float

    def __post_init__(self):
        _require_finite(a1=self.a1, b1=self.b1, a2=self.a2, b2=self.b2)
        tol = 1e-12 * max(1.0, abs(self.a1), abs(self.b1))
        if self.a1 < -tol or self.b1 < -tol:
            raise ValueError(f"a1 and b1 must be >= 0, got {self.a1}, {self.b1}")
        if abs(self.a2) > self.a1 + tol or abs(self.b2) > self.b1 + tol:
            raise ValueError("cross coefficients must satisfy |a2| <= a1, |b2| <= b1")
        if self.b1 > self.a1 + tol:
            raise ValueError("b1 must not exceed a1 (absorption bounded by emission)")

    @property
    def is_frozen(self) -> bool:
        """True when every rate vanishes and the dynamics is the identity."""
        return self.a1 == 0.0 and self.b1 == 0.0 and self.a2 == 0.0 and self.b2 == 0.0


def gray_factor(mass: float, omega: float) -> float:
    """Rate-suppression factor of a massive field: sqrt(1 - m^2/w^2), or 0.

    Only field modes above the mass gap are resonant with the qubits, which
    rescales every transition rate by this factor; for omega <= mass there are
    no resonant modes at all and the dynamics freezes (returns exactly 0).
    """
    _require_finite(mass=mass, omega=omega)
    if omega <= 0.0:
        raise ValueError(f"omega must be > 0, got {omega}")
    if mass < 0.0:
        raise ValueError(f"mass must be >= 0, got {mass}")
    if omega <= mass:
        return 0.0
    ratio = mass / omega
    return math.sqrt(1.0 - ratio * ratio)


def spatial_factor(omega: float, separation: float, gray: float) -> float:
    """Cross- to same-qubit coefficient ratio sin(w L g)/(w L g).

    Continuous sinc limit: returns exactly 1.0 when w*L*g == 0, which covers
    both zero separation and frozen dynamics (gray == 0).
    """
    _require_finite(omega=omega, separation=separation, gray=gray)
    if omega <= 0.0:
        raise ValueError(f"omega must be > 0, got {omega}")
    if separation < 0.0:
        raise ValueError(f"separation must be >= 0, got {separation}")
    if not 0.0 <= gray <= 1.0:
        raise ValueError(f"gray factor must lie in [0, 1], got {gray}")
    return _sinc(omega * separation * gray)


def gamma0(mu: float, omega: float) -> float:
    """Spontaneous emission rate mu^2 omega / (2 pi) of a single qubit."""
    _require_finite(mu=mu, omega=omega)
    if mu <= 0.0:
        raise ValueError(f"mu must be > 0, got {mu}")
    if omega <= 0.0:
        raise ValueError(f"omega must be > 0, got {omega}")
    return mu * mu * omega / TWO_PI


def _weights(same, lam, coth):
    """(a1, b1, a2, b2) from the same-qubit weight gray*Gamma0/4, the spatial
    factor lam and coth(w/(2T)), floats or arrays; coth = 1.0 is the vacuum."""
    return same * coth, same, lam * same * coth, lam * same


def _bath_coefficients(config: FieldBathConfig, coth: float) -> GklsCoefficients:
    gray = gray_factor(config.mass, config.omega)
    lam = spatial_factor(config.omega, config.separation, gray)
    return GklsCoefficients(*_weights(0.25 * gray * config.gamma0, lam, coth))


def vacuum_coefficients(config: FieldBathConfig) -> GklsCoefficients:
    """Rate coefficients for the bath in its vacuum state.

    a1 = b1 = gray*Gamma0/4 and a2 = b2 = lam*a1; equality of a and b reflects
    the absence of absorption from the vacuum.
    """
    if config.is_thermal:
        raise ValueError("vacuum_coefficients requires a vacuum config")
    return _bath_coefficients(config, 1.0)


def thermal_coefficients(config: FieldBathConfig) -> GklsCoefficients:
    """Rate coefficients for a thermal bath at config.temperature.

    The symmetric weights pick up the detailed-balance factor coth(w/(2T))
    while the antisymmetric ones are temperature independent:
    a1 = (gray*Gamma0/4) coth(w beta/2), b1 = gray*Gamma0/4, a2/b2 = lam*a1/b1.
    """
    if not config.is_thermal:
        raise ValueError("thermal_coefficients requires a thermal config")
    return _bath_coefficients(config, 1.0 / math.tanh(0.5 * config.omega / config.temperature))


def coefficients(config: FieldBathConfig) -> GklsCoefficients:
    """Dispatch to the vacuum or thermal coefficients per the config bath."""
    if config.is_thermal:
        return thermal_coefficients(config)
    return vacuum_coefficients(config)


def spectral_density(zeta: float, mass: float, separation: float) -> tuple[float, float]:
    """Fourier transforms of the same- and cross-qubit field correlations.

    Returns (g_same, g_cross) at frequency zeta:

        g_same  = sqrt(zeta^2 - m^2) / (2 pi)            for zeta > m, else 0
        g_cross = sin(L sqrt(zeta^2 - m^2)) / (2 pi L)   for zeta > m, else 0

    with the continuous L -> 0 limit g_cross -> g_same. The vacuum carries no
    spectral weight at or below the mass gap, and none at negative frequency.
    This route is kept independent of the coefficient formulas above so it can
    serve as their oracle.
    """
    _require_finite(zeta=zeta, mass=mass, separation=separation)
    if mass < 0.0:
        raise ValueError(f"mass must be >= 0, got {mass}")
    if separation < 0.0:
        raise ValueError(f"separation must be >= 0, got {separation}")
    if zeta <= mass:
        return 0.0, 0.0
    momentum = math.sqrt(zeta * zeta - mass * mass)
    g_same = momentum / TWO_PI
    g_cross = g_same * _sinc(separation * momentum)
    return g_same, g_cross
