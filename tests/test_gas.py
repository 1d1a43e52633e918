"""Constitutive-law unit tests: pressure, sound speed, enthalpy, Mach."""

import numpy as np
import pytest

from selfsim import (DomainError, GasLaw, GasVariant, RangeError, Regime,
                     enthalpy, enthalpy_inverse, mach, pressure,
                     sound_speed_sq)

GAMMAS = (-1.0, -0.5, 0.5, 1.0, 1.4, 2.0, 3.0)


def test_pressure_golden_gamma2():
    law = GasLaw(a=2.0, gamma=2.0, rho_floor=0.5)
    # p = a^2/gamma (rho^gamma - floor^gamma) = 2 (rho^2 - 0.25)
    assert pressure(law, 1.5) == pytest.approx(2.0 * (2.25 - 0.25))
    assert pressure(law, 0.5) == pytest.approx(0.0)


def test_pressure_chaplygin():
    law = GasLaw(a=1.0, gamma=-1.0, rho_floor=0.1)
    # p = -(1/rho - 1/floor), increasing in rho
    rho = np.linspace(0.2, 2.0, 50)
    p = pressure(law, rho)
    assert np.all(np.diff(p) > 0)
    assert pressure(law, 1.0) == pytest.approx(-(1.0 - 10.0))


def test_dark_energy_variant():
    law = GasLaw(a=1.0, gamma=-0.5, rho_floor=0.1,
                 variant=GasVariant.DARK_ENERGY)
    rho = np.linspace(0.2, 2.0, 50)
    assert np.all(sound_speed_sq(law, rho) > 0)
    fd = (pressure(law, rho + 1e-7) - pressure(law, rho - 1e-7)) / 2e-7
    assert np.max(np.abs(fd - sound_speed_sq(law, rho))) < 1e-6


@pytest.mark.parametrize("gamma", GAMMAS)
def test_sound_speed_is_pressure_derivative(gamma):
    law = GasLaw(a=1.3, gamma=gamma, rho_floor=0.1)
    rho = np.linspace(0.3, 3.0, 37)
    dr = 1e-6
    fd = (pressure(law, rho + dr) - pressure(law, rho - dr)) / (2 * dr)
    c2 = sound_speed_sq(law, rho)
    assert np.all(c2 > 0)
    assert np.max(np.abs(fd - c2) / c2) < 1e-6


@pytest.mark.parametrize("gamma", GAMMAS)
def test_enthalpy_round_trip(gamma):
    law = GasLaw(a=0.9, gamma=gamma, rho_floor=0.2)
    rho = np.linspace(0.3, 4.0, 29)
    back = enthalpy_inverse(law, enthalpy(law, rho))
    assert np.max(np.abs(back - rho) / rho) < 1e-10


@pytest.mark.parametrize("gamma", [-1.0, -0.5, -0.25])
def test_dark_energy_enthalpy(gamma):
    law = GasLaw(a=1.3, gamma=gamma, rho_floor=0.2,
                 variant=GasVariant.DARK_ENERGY)
    rho = np.linspace(0.25, 3.0, 37)
    h = enthalpy(law, rho)
    assert np.max(np.abs(enthalpy_inverse(law, h) - rho)) < 1e-13
    # H' = p'(rho) / rho = c^2 / rho
    dr = 1e-6
    fd = (enthalpy(law, rho + dr) - enthalpy(law, rho - dr)) / (2 * dr)
    assert np.max(np.abs(fd - sound_speed_sq(law, rho) / rho)) < 1e-8


def test_enthalpy_isothermal_log_law():
    law = GasLaw(a=2.0, gamma=1.0, rho_floor=0.5)
    assert enthalpy(law, 0.5 * np.e) == pytest.approx(4.0)
    assert sound_speed_sq(law, 123.0) == pytest.approx(4.0)


def test_enthalpy_isothermal_needs_anchor():
    law = GasLaw(a=1.0, gamma=1.0)  # rho_floor = 0 allowed for gamma >= 1
    with pytest.raises(DomainError):
        enthalpy(law, 1.0)


def test_law_validation():
    with pytest.raises(DomainError):
        GasLaw(a=0.0)
    with pytest.raises(DomainError):
        GasLaw(gamma=0.0)
    with pytest.raises(DomainError):
        GasLaw(gamma=-1.5, rho_floor=0.1)
    with pytest.raises(DomainError):
        GasLaw(rho_floor=-1.0)
    with pytest.raises(DomainError):
        GasLaw(gamma=0.5)  # gamma < 1 needs a positive floor
    with pytest.raises(DomainError):
        GasLaw(gamma=0.5, rho_floor=0.1, variant=GasVariant.DARK_ENERGY)


def test_density_admissibility():
    law = GasLaw(gamma=0.5, rho_floor=0.2)
    with pytest.raises(DomainError):
        pressure(law, 0.2)  # must exceed the floor for gamma < 1
    law2 = GasLaw(gamma=2.0, rho_floor=0.2)
    with pytest.raises(DomainError):
        pressure(law2, 0.1)
    with pytest.raises(DomainError):
        pressure(law2, np.nan)


def test_enthalpy_inverse_range_errors():
    law = GasLaw(gamma=2.0, rho_floor=0.5)
    with pytest.raises(RangeError):
        enthalpy_inverse(law, -10.0)  # below the attainable range
    with pytest.raises(RangeError):
        enthalpy_inverse(law, np.inf)


def test_scalar_in_scalar_out():
    law = GasLaw()
    assert isinstance(pressure(law, 1.0), float)
    assert isinstance(pressure(law, np.arange(1, 4, dtype=float)), np.ndarray)


def test_mach_classification():
    m, r = mach(0.5, 1.0)
    assert (m, r) == (0.5, Regime.SUBSONIC)
    _, r = mach(2.0, 1.0)
    assert r == Regime.SUPERSONIC
    _, r = mach(1.0 + 1e-13, 1.0)
    assert r == Regime.SONIC
    with pytest.raises(DomainError):
        mach(1.0, 0.0)
    with pytest.raises(DomainError):
        mach(-1.0, 1.0)
