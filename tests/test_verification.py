import pytest

from drope.errors import ConfigurationError
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
