"""Unit conventions and parameter validation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dleit.core import (
    FieldPair,
    MediumParams,
    validate_perturbative,
    wrap_phase,
    wrap_signed,
)

angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
magnitudes = st.floats(min_value=0.05, max_value=5.0, allow_nan=False)


def test_wrap_phase_range_and_values():
    assert wrap_phase(0.0) == 0.0
    assert wrap_phase(2 * np.pi) == pytest.approx(0.0, abs=1e-15)
    assert wrap_phase(-0.1) == pytest.approx(2 * np.pi - 0.1)
    assert wrap_phase(7.0) == pytest.approx(7.0 - 2 * np.pi)


def test_wrap_signed_range_and_values():
    assert wrap_signed(np.pi) == pytest.approx(np.pi)
    assert wrap_signed(-np.pi) == pytest.approx(np.pi)
    assert wrap_signed(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
    assert wrap_signed(0.3) == pytest.approx(0.3)


@given(angles)
def test_wrap_phase_is_congruent_mod_two_pi(phi):
    wrapped = wrap_phase(phi)
    assert 0.0 <= wrapped < 2 * np.pi
    assert np.cos(wrapped) == pytest.approx(np.cos(phi), abs=1e-9)
    assert np.sin(wrapped) == pytest.approx(np.sin(phi), abs=1e-9)


@given(angles)
def test_wrap_signed_is_congruent_mod_two_pi(phi):
    wrapped = wrap_signed(phi)
    assert -np.pi < wrapped <= np.pi
    assert np.cos(wrapped) == pytest.approx(np.cos(phi), abs=1e-9)
    assert np.sin(wrapped) == pytest.approx(np.sin(phi), abs=1e-9)


non_finite = st.sampled_from([np.nan, np.inf, -np.inf])


@given(non_finite, st.sampled_from(["alpha", "delta", "gamma21", "omega_c", "omega_d"]))
def test_medium_params_rejects_non_finite_inputs(bad, field):
    kwargs = {"alpha": 5.0, "delta": 1.0, "gamma21": 0.01, "omega_c": 1.0, "omega_d": 1.0j}
    kwargs[field] = bad
    with pytest.raises(ValueError):
        MediumParams(**kwargs)
    if field.startswith("omega"):
        kwargs[field] = complex(1.0, bad)
        with pytest.raises(ValueError):
            MediumParams(**kwargs)


def test_medium_params_validation():
    with pytest.raises(ValueError):
        MediumParams(alpha=-1.0)
    with pytest.raises(ValueError):
        MediumParams(alpha=1.0, gamma21=-0.1)
    with pytest.raises(ValueError):
        MediumParams(alpha=1.0, omega_c=0.0, omega_d=0.0)
    params = MediumParams(alpha=5.0, delta=2.0)
    assert params.omega_sq == pytest.approx(2.0)
    assert params.is_balanced
    phased = MediumParams(alpha=1.0, omega_c=np.exp(0.3j), omega_d=np.exp(0.5j))
    assert phased.omega_sq == pytest.approx(2.0)


@given(non_finite, st.sampled_from(["omega_p", "omega_s"]), st.booleans())
def test_field_pair_rejects_non_finite_inputs(bad, field, imaginary):
    kwargs = {"omega_p": 0.01, "omega_s": 0.01j}
    kwargs[field] = complex(0.01, bad) if imaginary else bad
    with pytest.raises(ValueError, match="finite"):
        FieldPair(**kwargs)


def test_field_pair_coerces_to_complex():
    pair = FieldPair(omega_p=1, omega_s=0.5)
    assert isinstance(pair.omega_p, complex)
    assert pair.omega_s == 0.5 + 0.0j


def test_xi_examples():
    balanced = MediumParams(alpha=1.0, delta=0.0)
    assert balanced.xi == 1j
    detuned = MediumParams(alpha=1.0, delta=16.5)
    assert detuned.xi == pytest.approx(16.5 + 1j)


@given(
    delta=st.floats(min_value=-40.0, max_value=40.0, allow_nan=False),
    mag_c=magnitudes,
    mag_d=magnitudes,
)
def test_xi_imaginary_part_is_exactly_one(delta, mag_c, mag_d):
    params = MediumParams(alpha=1.0, delta=delta, omega_c=mag_c, omega_d=mag_d)
    assert params.xi.imag == 1.0


def test_validate_perturbative_examples():
    params = MediumParams(alpha=1.0, omega_c=1.0, omega_d=1.0)
    ok = validate_perturbative(params, FieldPair(0.01, 0.01))
    assert bool(ok) and ok.violations == ()
    bad = validate_perturbative(params, FieldPair(0.5, 0.01))
    assert not bool(bad)
    assert any("probe" in v for v in bad.violations)
    zero = validate_perturbative(params, FieldPair(0.0, 0.0), ratio_threshold=0.0)
    assert bool(zero)


def test_validate_perturbative_flags_signal_against_drive():
    params = MediumParams(alpha=1.0, omega_c=1.0, omega_d=0.05)
    bad = validate_perturbative(params, FieldPair(0.0, 0.04))
    assert not bool(bad)
    assert any("signal" in v for v in bad.violations)
