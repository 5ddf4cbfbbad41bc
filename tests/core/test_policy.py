"""Tests for the policy interface and VectorPolicy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import InfoModel, VectorPolicy
from repro.exceptions import PolicyError


class TestVectorPolicy:
    def test_lookup_and_tail(self):
        p = VectorPolicy(np.array([0.1, 0.9]), tail=0.5)
        assert p.activation_probability(1, 1) == pytest.approx(0.1)
        assert p.activation_probability(1, 2) == pytest.approx(0.9)
        assert p.activation_probability(1, 3) == pytest.approx(0.5)
        assert p.activation_probability(99, 100) == pytest.approx(0.5)

    def test_recency_probabilities_table(self):
        p = VectorPolicy(np.array([0.1, 0.9]), tail=0.5)
        table, tail = p.recency_probabilities(4)
        np.testing.assert_allclose(table, [0.1, 0.9, 0.5, 0.5])
        assert tail == 0.5

    def test_table_shorter_than_vector(self):
        p = VectorPolicy(np.array([0.1, 0.9, 0.3]))
        table, _ = p.recency_probabilities(2)
        np.testing.assert_allclose(table, [0.1, 0.9])

    def test_default_info_model(self):
        assert VectorPolicy(np.zeros(1)).info_model == InfoModel.FULL

    def test_partial_info_model(self):
        p = VectorPolicy(np.zeros(1), info_model=InfoModel.PARTIAL)
        assert p.info_model == InfoModel.PARTIAL

    def test_no_slot_fast_path(self):
        assert VectorPolicy(np.zeros(1)).slot_probabilities(10) is None

    def test_rejects_invalid_recency(self):
        with pytest.raises(PolicyError):
            VectorPolicy(np.zeros(1)).activation_probability(1, 0)

    def test_rejects_bad_vector(self):
        with pytest.raises(PolicyError):
            VectorPolicy(np.array([[0.5]]))
        with pytest.raises(PolicyError):
            VectorPolicy(np.array([1.5]))
        with pytest.raises(PolicyError):
            VectorPolicy(np.array([0.5]), tail=-0.2)

    @pytest.mark.parametrize(
        "vector",
        [[0.2, np.nan, 1.0], [np.nan], [0.5, np.inf], [-np.inf, 0.5]],
        ids=["nan-inside", "nan-only", "inf", "-inf"],
    )
    def test_rejects_non_finite_entries(self, vector):
        # NaN passes a min()/max() range test unless it is written to fail.
        with pytest.raises(PolicyError, match="finite"):
            VectorPolicy(np.array(vector), tail=1.0)

    def test_clips_rounding_noise(self):
        p = VectorPolicy(np.array([1.0 + 5e-13, -5e-13]))
        assert p.activation_probability(1, 1) == 1.0
        assert p.activation_probability(1, 2) == 0.0
