"""Tests for repro.atlas.api.sources."""

import pytest

from repro.atlas.api.sources import AtlasSource, select_all
from repro.atlas.population import generate_population
from repro.errors import AtlasError, ProbeSelectionError


@pytest.fixture(scope="module")
def fleet():
    return generate_population(seed=3)


class TestValidation:
    def test_type_checked(self):
        with pytest.raises(AtlasError):
            AtlasSource(type="galaxy", value="x", requested=1)

    def test_requested_positive(self):
        with pytest.raises(AtlasError):
            AtlasSource(type="country", value="DE", requested=0)

    def test_area_values_checked(self):
        with pytest.raises(AtlasError):
            AtlasSource(type="area", value="ATLANTIS", requested=1)
        AtlasSource(type="area", value="WW", requested=1)
        AtlasSource(type="area", value="EU", requested=1)

    def test_tags_lowercased(self):
        source = AtlasSource(
            type="country", value="DE", requested=1, tags_include=("LTE",)
        )
        assert source.tags_include == ("lte",)

    def test_api_struct(self):
        source = AtlasSource(
            type="country", value="DE", requested=5,
            tags_include=("ethernet",), tags_exclude=("datacentre",),
        )
        struct = source.build_api_struct()
        assert struct["tags"] == {"include": ["ethernet"], "exclude": ["datacentre"]}


class TestSelection:
    def test_country_selection(self, fleet):
        chosen = AtlasSource(type="country", value="DE", requested=10).select(fleet)
        assert len(chosen) == 10
        assert all(p.country_code == "DE" for p in chosen)

    def test_requested_caps_result(self, fleet):
        chosen = AtlasSource(type="country", value="LU", requested=500).select(fleet)
        assert len(chosen) == 12  # Luxembourg only has 12 probes

    def test_area_continent(self, fleet):
        chosen = AtlasSource(type="area", value="AF", requested=30).select(fleet)
        assert all(p.continent == "AF" for p in chosen)

    def test_area_worldwide(self, fleet):
        chosen = AtlasSource(type="area", value="WW", requested=50).select(fleet)
        assert len(chosen) == 50

    def test_probes_list(self, fleet):
        wanted = [fleet[5].probe_id, fleet[10].probe_id]
        source = AtlasSource(
            type="probes", value=f"{wanted[0]},{wanted[1]}", requested=10
        )
        chosen = source.select(fleet)
        assert [p.probe_id for p in chosen] == sorted(wanted)

    def test_bad_probes_value(self, fleet):
        with pytest.raises(AtlasError):
            AtlasSource(type="probes", value="1,x", requested=1).select(fleet)

    def test_asn_selection(self, fleet):
        asn = fleet[0].asn
        chosen = AtlasSource(type="asn", value=str(asn), requested=99).select(fleet)
        assert all(p.asn == asn for p in chosen)

    def test_tag_include(self, fleet):
        chosen = AtlasSource(
            type="area", value="WW", requested=100, tags_include=("lte",)
        ).select(fleet)
        assert all("lte" in p.tags for p in chosen)

    def test_tag_exclude(self, fleet):
        chosen = AtlasSource(
            type="area", value="WW", requested=100, tags_exclude=("datacentre",)
        ).select(fleet)
        assert all("datacentre" not in p.tags for p in chosen)

    def test_empty_match_raises(self, fleet):
        with pytest.raises(ProbeSelectionError):
            AtlasSource(
                type="country", value="DE", requested=5,
                tags_include=("satellite", "datacentre"),
            ).select(fleet)

    def test_deterministic_order(self, fleet):
        source = AtlasSource(type="country", value="FR", requested=7)
        assert [p.probe_id for p in source.select(fleet)] == [
            p.probe_id for p in source.select(fleet)
        ]


class TestSelectAll:
    def test_union_deduplicates(self, fleet):
        a = AtlasSource(type="country", value="DE", requested=5)
        b = AtlasSource(type="area", value="EU", requested=5)
        union = select_all([a, b], fleet)
        ids = [p.probe_id for p in union]
        assert len(ids) == len(set(ids))
        assert ids == sorted(ids)

    def test_requires_sources(self, fleet):
        with pytest.raises(AtlasError):
            select_all([], fleet)


def _reference_select(source, probes):
    """``AtlasSource.select`` as a walk over the whole pool, normalizing
    each probe's tags — the selection the id lookup must reproduce."""
    from collections.abc import Mapping

    from repro.atlas.probes import ProbeStatus

    if isinstance(probes, Mapping):
        probes = list(probes.values())
    wanted_ids = source._wanted_probe_ids() if source.type == "probes" else None

    def tags_match(probe):
        tags = set(probe.tags)
        if source.tags_include and not set(source.tags_include).issubset(tags):
            return False
        if source.tags_exclude and set(source.tags_exclude).intersection(tags):
            return False
        return True

    matching = [
        probe
        for probe in probes
        if probe.status is ProbeStatus.CONNECTED
        and source._matches_locality(probe, wanted_ids)
        and tags_match(probe)
    ]
    if not matching:
        raise ProbeSelectionError("no match")
    matching.sort(key=lambda probe: probe.probe_id)
    return matching[: source.requested]


class TestLookupMatchesTheWalk:
    @pytest.mark.parametrize(
        "source",
        [
            AtlasSource(type="country", value="DE", requested=40, tags_include=("ethernet",)),
            AtlasSource(type="area", value="EU", requested=60, tags_exclude=("lte",)),
            AtlasSource(type="asn", value="3320", requested=10),
            AtlasSource(type="area", value="WW", requested=5000),
        ],
    )
    def test_pool_or_id_map(self, fleet, source):
        by_id = {probe.probe_id: probe for probe in fleet}
        try:
            expected = _reference_select(source, fleet)
        except ProbeSelectionError:
            expected = None
        for pool in (fleet, by_id):
            if expected is None:
                with pytest.raises(ProbeSelectionError):
                    source.select(pool)
            else:
                assert source.select(pool) == expected

    def test_probes_source_looks_ids_up(self, fleet):
        by_id = {probe.probe_id: probe for probe in fleet}
        ids = sorted(by_id)
        # Unknown ids, duplicates and an order other than the pool's.
        wanted = [ids[40], ids[3], 10**9, ids[3], *ids[100:400:7]]
        source = AtlasSource(
            type="probes", value=",".join(map(str, wanted)), requested=30
        )
        expected = _reference_select(source, fleet)
        assert source.select(by_id) == source.select(fleet) == expected

    @pytest.mark.parametrize("scale", ["TINY", "SMALL"])
    def test_every_campaign_target_matches_the_reference_walk(self, scale, monkeypatch):
        from repro.core.campaign import Campaign, CampaignScale

        def created(select):
            monkeypatch.setattr(AtlasSource, "select", select)
            campaign = Campaign.from_paper(scale=getattr(CampaignScale, scale), seed=7)
            campaign.create_measurements()
            platform = campaign.platform
            return {
                vm.key: (msm_id, platform.measurement(msm_id).probes)
                for vm, msm_id in zip(platform.fleet, campaign.measurement_ids)
            }

        lookup = created(AtlasSource.select)
        walk = created(_reference_select)
        assert len(lookup) == 101
        assert lookup == walk
