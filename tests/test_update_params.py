"""Tests for the tuning parameter bundle."""

import math

import pytest

from repro.api import config_from_spec
from repro.update import TuningParameters
from repro.update.generalized import MAX_PIGGYBACK_OBJECTS


class TestDefaults:
    def test_paper_defaults_match_table1(self):
        params = TuningParameters.paper_defaults()
        assert params.epsilon == pytest.approx(0.003)
        assert params.distance_threshold == pytest.approx(0.03)
        assert params.level_threshold is None  # "height - 1", the maximum
        assert params.piggyback is True

    def test_frozen(self):
        params = TuningParameters()
        with pytest.raises(Exception):
            params.epsilon = 0.5


class TestValidation:
    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            TuningParameters(epsilon=-0.001)

    def test_negative_distance_threshold_rejected(self):
        with pytest.raises(ValueError):
            TuningParameters(distance_threshold=-1)

    def test_negative_level_threshold_rejected(self):
        with pytest.raises(ValueError):
            TuningParameters(level_threshold=-1)

    def test_zero_level_threshold_allowed(self):
        assert TuningParameters(level_threshold=0).level_threshold == 0

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_epsilon_rejected(self, value):
        with pytest.raises(ValueError, match="epsilon"):
            TuningParameters(epsilon=value)

    def test_negative_piggyback_limit_rejected(self):
        # The piggyback limit is the constant MAX_PIGGYBACK_OBJECTS; a spec may
        # repeat it but cannot set any other limit.
        with pytest.raises(ValueError, match="max_piggyback_objects"):
            config_from_spec({"params": {"max_piggyback_objects": -1}})
        spec = {"params": {"max_piggyback_objects": MAX_PIGGYBACK_OBJECTS}}
        assert config_from_spec(spec).params == TuningParameters()


class TestOverrides:
    def test_with_overrides_returns_new_object(self):
        params = TuningParameters()
        tweaked = params.with_overrides(epsilon=0.03)
        assert tweaked.epsilon == 0.03
        assert params.epsilon == 0.003
        assert tweaked is not params

    def test_with_overrides_keeps_unrelated_fields(self):
        tweaked = TuningParameters().with_overrides(distance_threshold=0.3)
        assert tweaked.epsilon == 0.003
        assert tweaked.piggyback is True
