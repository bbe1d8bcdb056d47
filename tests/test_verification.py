import itertools

import pytest

import drope.verification as verification
from drope.errors import ConfigurationError
from drope.rotary import FrequencySchedule
from drope.verification import VerificationConfig, run_verification


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
