import itertools
import math

import numpy as np
import pytest

import drope.verification as verification
from drope.errors import ConfigurationError
from drope.rotary import FrequencySchedule
from drope.verification import (
    FAULT_ROPE_FREQS_IN_FANGLE,
    VerificationConfig,
    run_verification,
)


@pytest.mark.parametrize("settings", [
    {"trials": 0},
    {"d_k_values": ()},
    {"counterexample_seeds": 0},
    {"counterexample_seeds": -3},
])
def test_settings_that_would_run_no_trials_are_rejected(settings):
    with pytest.raises(ConfigurationError):
        run_verification(VerificationConfig(**settings))


def test_smallest_accepted_settings_run_every_property():
    results = run_verification(
        VerificationConfig(trials=1, d_k_values=(2,), counterexample_seeds=1)
    )
    assert all(result.trials >= 1 for result in results)


def test_shift_identity_holds_where_the_dot_product_is_near_zero():
    # this seed draws a nearly orthogonal (q, k) pair: an error taken
    # relative to the dot product itself read 1.7e-8 against 1e-8
    results = run_verification(VerificationConfig(seed=2052635727))
    by_name = {result.name: result for result in results}
    for name in ("position_shift_identity", "angle_shift_identity"):
        assert by_name[name].passed
        assert by_name[name].max_error < 1e-11
        assert by_name[name].tolerance == 1e-8


def test_a_wrong_frequency_in_the_position_shift_fails(monkeypatch):
    real = verification.rope_embed
    calls = itertools.count()

    def mutant(x, m, sched):
        # each trial embeds q, k, shifted q, shifted k: detune the last
        if next(calls) % 4 == 3:
            sched = FrequencySchedule(sched.d_k, sched.freqs * (1.0 + 1e-7))
        return real(x, m, sched)

    monkeypatch.setattr(verification, "rope_embed", mutant)
    result = verification._check_position_shift_identity(VerificationConfig(trials=200))
    assert not result.passed


def test_periodicity_checks_the_operators_not_a_random_pair():
    # one of this seed's 100 random pairs gives a multi-frequency gap of
    # 3.3e-4, below ROPE_GAP_MIN, though the operators differ by 1.676
    result = verification._check_counterexample(VerificationConfig(seed=842892897))
    assert result.passed and result.trials == 100
    assert result.max_error < 1e-15 and result.tolerance == 1e-10
    assert "multi-frequency 1.676e+00" in result.detail
    assert "min 3.344e-04" in result.detail


def test_periodicity_operator_gap_has_its_closed_form():
    freqs = FrequencySchedule.default(8).freqs
    closed_form = 2.0 * max(abs(math.sin(math.pi * f)) for f in freqs)
    result = verification._check_counterexample(VerificationConfig())
    assert f"multi-frequency {closed_form:.3e}" in result.detail
    faulty = verification._check_counterexample(
        VerificationConfig(fault_injection=FAULT_ROPE_FREQS_IN_FANGLE)
    )
    assert not faulty.passed
    assert faulty.max_error == pytest.approx(closed_form, rel=1e-12)
    assert np.isclose(closed_form, 1.676, atol=1e-3)
