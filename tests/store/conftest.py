"""Shared fixtures for the persistent-store suite.

Provides deterministic synthetic sample columns (no campaign run
needed — the store layer takes plain sample-schema columns, with no
dataset behind them) plus one real TINY campaign dataset for the
end-to-end fixtures.
"""

from __future__ import annotations

from typing import Dict

import numpy as np
import pytest

from repro.store.format import SAMPLE_SCHEMA


def synthetic_columns(rows: int, seed: int = 0) -> Dict[str, np.ndarray]:
    """Deterministic sample columns of the canonical schema."""
    rng = np.random.default_rng(seed)
    rtt = np.round(rng.uniform(1.0, 300.0, rows), 3)
    rtt[rng.random(rows) < 0.05] = np.nan
    return {
        "probe_id": rng.integers(1, 5000, rows).astype("<i4"),
        "target_index": rng.integers(0, 101, rows).astype("<i4"),
        "timestamp": (1_500_000_000 + np.arange(rows, dtype="<i8") * 10_800),
        "rtt_min": rtt.astype("<f8"),
        "rtt_avg": (rtt * 1.1).astype("<f8"),
        "sent": np.full(rows, 3, dtype="<i2"),
        "rcvd": rng.integers(0, 4, rows).astype("<i2"),
    }


def columns_equal(left: Dict[str, np.ndarray], right: Dict[str, np.ndarray]) -> bool:
    """Bit-exact column comparison (NaNs compare equal by byte identity)."""
    if set(left) != set(right):
        return False
    for name in left:
        a, b = np.asarray(left[name]), np.asarray(right[name])
        if a.dtype != b.dtype or len(a) != len(b):
            return False
        if a.tobytes() != b.tobytes():
            return False
    return True


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "store"


@pytest.fixture(scope="session")
def tiny_dataset():
    """One frozen TINY campaign dataset (shared; treated read-only)."""
    from repro.core.campaign import Campaign, CampaignScale

    campaign = Campaign.from_paper(scale=CampaignScale.TINY, seed=7)
    dataset = campaign.run()
    return campaign, dataset


SCHEMA_COLUMNS = tuple(name for name, _ in SAMPLE_SCHEMA)
