"""Shared constants for the Latency Shears reproduction.

Values are taken directly from the paper (Mohan et al., HotNets '20) or from
the sources the paper cites.  Each constant carries a short provenance note so
downstream modules do not have to re-derive them.
"""

from __future__ import annotations

from typing import Tuple

# ---------------------------------------------------------------------------
# Human-perception latency thresholds (paper §3, Figure 2).
# ---------------------------------------------------------------------------

#: Motion-to-Photon threshold in milliseconds.  Inputs and their rendered
#: effect must stay in sync within this budget or users experience motion
#: sickness (paper §3, citing Mania et al. [43]).
MTP_MS = 20.0

#: Portion of the MTP budget consumed by the display pipeline itself
#: (refresh rate, pixel switching; paper §3 citing Choi et al. [16]).
MTP_DISPLAY_MS = 13.0

#: Remaining MTP budget for compute + rendering + network RTT.
MTP_COMPUTE_BUDGET_MS = MTP_MS - MTP_DISPLAY_MS

#: The strictest MTP compute budget observed for HUD systems in the NASA
#: study the paper cites (Bailey et al. [7]).
MTP_HUD_MS = 2.5

#: Perceivable Latency threshold in milliseconds — the delay at which visual
#: feedback lag becomes noticeable (paper §3, citing Raaen et al. [54]).
PL_MS = 100.0

#: Human Reaction Time in milliseconds — stimulus to motor response (paper
#: §3, citing Woods et al. [73]).
HRT_MS = 250.0

# ---------------------------------------------------------------------------
# Measurement campaign parameters (paper §4.1).
# ---------------------------------------------------------------------------

#: Number of cloud regions with compute datacenters targeted by the study.
NUM_CLOUD_REGIONS = 101

#: Number of countries hosting those regions.
NUM_DATACENTER_COUNTRIES = 21

#: Number of cloud providers measured.
NUM_PROVIDERS = 7

#: Minimum size of the probe population ("3200+ RIPE Atlas probes").
MIN_PROBES = 3200

#: Number of countries the probes are distributed over.
NUM_PROBE_COUNTRIES = 166

#: Ping interval used by the campaign (every three hours).
MEASUREMENT_INTERVAL_S = 3 * 3600

#: Campaign duration: "nine months of data collection" starting Sept 2019.
CAMPAIGN_MONTHS = 9

#: Campaign start, expressed as a Unix timestamp (2019-09-01 00:00:00 UTC).
CAMPAIGN_START_TS = 1_567_296_000

#: Approximate size of the published dataset.
DATASET_DATAPOINTS = 3_200_000

#: One row of the dataset — one ping — as its columns in canonical order,
#: with explicit little-endian dtypes.  The one declaration of the sample
#: row: the in-memory dataset holds its columns in these dtypes and the
#: store writes them byte for byte.  It lives in this leaf module so both
#: layers import it and neither imports the other.
SAMPLE_SCHEMA: Tuple[Tuple[str, str], ...] = (
    ("probe_id", "<i4"),
    ("target_index", "<i4"),
    ("timestamp", "<i8"),
    ("rtt_min", "<f8"),
    ("rtt_avg", "<f8"),
    ("sent", "<i2"),
    ("rcvd", "<i2"),
)

# ---------------------------------------------------------------------------
# Figure 4 latency buckets (map legend).
# ---------------------------------------------------------------------------

#: Upper edges (ms) of the choropleth buckets used in Figure 4.
FIG4_BUCKETS_MS = (10.0, 20.0, 50.0, 100.0, float("inf"))

#: Human-readable labels of the Figure 4 buckets (map legend order).
FIG4_BUCKET_LABELS = ("<10 ms", "10-20 ms", "20-50 ms", "50-100 ms", ">100 ms")

# ---------------------------------------------------------------------------
# Feasibility-zone boundaries (paper §5, Figure 8).
# ---------------------------------------------------------------------------

#: Lower latency bound of the edge feasibility zone: current wireless
#: last-mile access latency (~10 ms; paper §5).
FZ_LATENCY_LOW_MS = 10.0

#: Upper latency bound of the feasibility zone: the human reaction time,
#: which the cloud already supports almost globally (paper §5).
FZ_LATENCY_HIGH_MS = HRT_MS

#: Bandwidth threshold for edge aggregation gains: ~1 GB generated per
#: entity per day (paper §5, estimated from Jiang et al. [35]).
FZ_BANDWIDTH_GB_PER_DAY = 1.0

# ---------------------------------------------------------------------------
# Headline results the reproduction is calibrated against (paper §4.2-4.3).
# ---------------------------------------------------------------------------

#: Countries whose best probe reaches a datacenter under 10 ms.
PAPER_COUNTRIES_UNDER_10MS = 32

#: Additional countries in the 10-20 ms bucket.
PAPER_COUNTRIES_10_TO_20MS = 21

#: Countries (mostly in Africa) that cannot reach the cloud within PL.
PAPER_COUNTRIES_OVER_PL = 16

#: Multiplier by which wireless probes are slower than wired ones (Fig 7).
PAPER_WIRELESS_PENALTY = 2.5

#: Added last-mile wireless latency range reported by prior work (ms).
PAPER_WIRELESS_ADDED_MS = (10.0, 40.0)

#: Facebook study checkpoint: most users reach cloud services within 40 ms.
PAPER_FACEBOOK_MS = 40.0
