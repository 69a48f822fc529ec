"""Package-level sanity: version, public surfaces, constants coherence."""

import repro
from repro import constants


class TestPackage:
    def test_version(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_subpackages_import(self):
        import repro.apps
        import repro.atlas
        import repro.cloud
        import repro.core
        import repro.edge
        import repro.frame
        import repro.geo
        import repro.net
        import repro.scholar
        import repro.viz  # noqa: F401

    def test_all_exports_resolve(self):
        """Every name in each subpackage's __all__ must exist."""
        import repro.apps
        import repro.atlas
        import repro.cloud
        import repro.core
        import repro.edge
        import repro.frame
        import repro.geo
        import repro.net
        import repro.scholar
        import repro.viz

        for module in (
            repro.apps, repro.atlas, repro.cloud, repro.core, repro.edge,
            repro.frame, repro.geo, repro.net, repro.scholar, repro.viz,
        ):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)

    def test_campaign_import_loads_no_store_module(self):
        """Collection reaches the store only inside functions, so a fresh
        ``import repro.core.campaign`` loads no ``repro.store`` module and
        a campaign's set-up does not pay for importing the store."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "import sys, repro.core.campaign; "
            "print(sorted(m for m in sys.modules "
            "if m == 'repro.store' or m.startswith('repro.store.')))"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        assert result.stdout.strip() == "[]"

    def test_all_lists_sorted(self):
        """Keep the public indexes tidy (review aid)."""
        import repro.frame
        import repro.geo

        for module in (repro.frame, repro.geo):
            assert list(module.__all__) == sorted(module.__all__)


class TestConstantsCoherence:
    def test_threshold_ordering(self):
        assert constants.MTP_MS < constants.PL_MS < constants.HRT_MS

    def test_mtp_budget_decomposition(self):
        assert constants.MTP_DISPLAY_MS + constants.MTP_COMPUTE_BUDGET_MS == (
            constants.MTP_MS
        )
        assert constants.MTP_HUD_MS < constants.MTP_COMPUTE_BUDGET_MS

    def test_fz_bounds(self):
        assert constants.FZ_LATENCY_LOW_MS < constants.FZ_LATENCY_HIGH_MS
        assert constants.FZ_LATENCY_HIGH_MS == constants.HRT_MS

    def test_campaign_parameters(self):
        assert constants.MEASUREMENT_INTERVAL_S == 3 * 3600
        assert constants.CAMPAIGN_MONTHS == 9
        assert constants.NUM_CLOUD_REGIONS == 101
        assert constants.NUM_PROVIDERS == 7
        assert constants.NUM_DATACENTER_COUNTRIES == 21
        assert constants.NUM_PROBE_COUNTRIES == 166

    def test_fig4_buckets_ascend(self):
        edges = constants.FIG4_BUCKETS_MS
        assert list(edges) == sorted(edges)
        assert edges[-1] == float("inf")

    def test_paper_country_counts_consistent(self):
        total_fast = (
            constants.PAPER_COUNTRIES_UNDER_10MS
            + constants.PAPER_COUNTRIES_10_TO_20MS
        )
        assert total_fast < constants.NUM_PROBE_COUNTRIES
        assert constants.PAPER_COUNTRIES_OVER_PL < constants.NUM_PROBE_COUNTRIES
