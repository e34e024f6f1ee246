"""Tests for :class:`repro.core.config.IndexConfig`."""

import pytest

from repro.api import config_from_spec
from repro.core import IndexConfig
from repro.update import TuningParameters


class TestDefaults:
    def test_defaults_follow_the_paper(self):
        config = IndexConfig()
        assert config.page_size == 1024
        assert config.buffer_percent == 1.0
        assert config.strategy == "GBU"
        assert config.use_summary_for_queries is True
        assert config.params.epsilon == pytest.approx(0.003)

    def test_strategy_is_normalised_to_upper_case(self):
        assert IndexConfig(strategy="gbu").strategy == "GBU"
        assert IndexConfig(strategy="lbu").strategy == "LBU"


class TestValidation:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            IndexConfig(strategy="BTREE")

    def test_unknown_split_rejected(self):
        # The tree always splits quadratically; a spec naming any other split
        # cannot be honoured.
        with pytest.raises(ValueError, match="split"):
            config_from_spec({"split": "hilbert"})

    def test_negative_page_size_rejected(self):
        with pytest.raises(ValueError):
            IndexConfig(page_size=-1)

    def test_negative_buffer_rejected(self):
        with pytest.raises(ValueError):
            IndexConfig(buffer_percent=-0.5)

    def test_bad_bulk_fill_rejected(self):
        # Bulk loading always packs at the fixed fill; older specs may only
        # repeat that value.
        with pytest.raises(ValueError, match="bulk_load_fill"):
            config_from_spec({"bulk_load_fill": 0.0})
        with pytest.raises(ValueError, match="bulk_load_fill"):
            config_from_spec({"bulk_load_fill": 1.5})


class TestDerivedProperties:
    def test_only_lbu_needs_parent_pointers(self):
        assert IndexConfig(strategy="LBU").needs_parent_pointers
        for name in ("TD", "NAIVE", "GBU"):
            assert not IndexConfig(strategy=name).needs_parent_pointers

    def test_with_overrides_replaces_fields(self):
        config = IndexConfig()
        tweaked = config.with_overrides(strategy="TD", buffer_percent=5.0)
        assert tweaked.strategy == "TD"
        assert tweaked.buffer_percent == 5.0
        assert config.strategy == "GBU"  # original untouched

    def test_with_overrides_of_nested_params(self):
        config = IndexConfig()
        tweaked = config.with_overrides(params=TuningParameters(epsilon=0.03))
        assert tweaked.params.epsilon == 0.03

    def test_describe_mentions_key_settings(self):
        text = IndexConfig(strategy="LBU", buffer_percent=3.0).describe()
        assert "LBU" in text
        assert "3%" in text
        assert "eps=0.003" in text

    def test_describe_reports_max_level_threshold(self):
        assert "L=max" in IndexConfig().describe()
        explicit = IndexConfig(params=TuningParameters(level_threshold=2))
        assert "L=2" in explicit.describe()
