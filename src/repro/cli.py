"""Command-line interface.

Exposes the reproduction as a small tool::

    repro footprint                 # Figure 3: regions + probe fleet
    repro run --scale tiny          # run a campaign, print headline report
    repro run --faults flaky        # same, through a chaos transport
    repro run --resume state/       # checkpointed, resumable collection
    repro figure 5 --scale tiny     # regenerate one figure as text
    repro apps                      # Figure 2/8 catalog and verdicts
    repro whatif                    # 5G what-if scenario table
    repro export --out DIR          # campaign + figure-data bundles
    repro store write cache/        # collect once into a catalog store
    repro run --store cache/        # cache hit: reopen instead of collect
    repro store verify cache/       # checksum every committed store
    repro store scrub cache/        # classify ALL damage (never stops early)
    repro store repair cache/entry  # surgically rebuild damaged chunks
    repro run --worker-faults crashy  # supervised, self-healing collection

Every subcommand accepts ``--seed`` (default 7), ``--faults`` (chaos
profile for the collection transport), ``--workers`` (how many forked
workers share the collection's window ranges; the frozen dataset and
any committed store are byte-identical at any worker count),
``--log-level`` / ``--json-logs`` (shared structured
logging, see :mod:`repro.obs.logconfig`), and ``--metrics-out`` (export
the run's metrics snapshot as JSON plus Prometheus text).  ``repro obs
report`` runs an instrumented campaign and prints the full health +
telemetry picture; ``repro report --health`` embeds the same report.
Campaign-consuming subcommands (run / figure / report / validate /
export / obs) also take ``--store DIR`` — collect through a
content-addressed catalog so identical campaigns become cache hits —
and ``--from-store PATH`` to open one committed store directly; ``repro
store {write,info,verify,scrub,repair,gc}`` manages the catalog itself
(``verify --strict --json`` emits a machine-readable per-chunk damage
report and exits nonzero on *any* damage, debris included).  ``repro run
--worker-faults {steady,crashy,wedged,pathological}`` injects (seeded,
deterministic) worker crashes and hangs into the collection loop, which
heals each death by respawning the dead range's unfinished windows — the
dataset stays byte-identical.  Designed to be driven
programmatically too: :func:`main` takes an argv list and returns an exit
code, printing results to stdout (notices go to stderr).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--scale",
        choices=["tiny", "small", "medium", "full"],
        default="tiny",
        help="campaign size (default tiny)",
    )
    parser.add_argument(
        "--faults",
        choices=["none", "flaky", "outage", "hostile"],
        default="none",
        help="collect through a fault-injecting transport (default none); "
        "all faults are seeded, so runs replay deterministically",
    )
    parser.add_argument(
        "--workers",
        default="auto",
        metavar="N",
        help="collection workers: an integer, or 'auto' to match the "
        "machine (default auto; tiny campaigns stay serial).  The frozen "
        "dataset is byte-identical at any worker count, faults included",
    )
    parser.add_argument(
        "--worker-faults",
        choices=["steady", "crashy", "wedged", "pathological"],
        default="steady",
        dest="worker_faults",
        help="inject seeded worker crashes/hangs; the collection loop "
        "respawns each dead range's unfinished windows (default steady: "
        "no worker chaos). Recoverable chaos converges to the "
        "byte-identical dataset",
    )
    from repro.obs import LOG_LEVELS

    parser.add_argument(
        "--log-level",
        choices=list(LOG_LEVELS),
        default="warning",
        dest="log_level",
        help="log verbosity for the shared 'repro' logger (default warning)",
    )
    parser.add_argument(
        "--json-logs",
        action="store_true",
        dest="json_logs",
        help="emit log records as JSON lines instead of plain text",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        dest="metrics_out",
        help="write the run's metrics snapshot to PATH as JSON, plus "
        "Prometheus text exposition next to it (PATH with a .prom suffix). "
        "The snapshot is deterministic: a pure function of (seed, fault "
        "profile, retry policy, worker count)",
    )


def _add_store_args(parser: argparse.ArgumentParser) -> None:
    """Persistent-store options for campaign-consuming subcommands."""
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="catalog of persistent campaign stores: an identical campaign "
        "(same seed/faults/scale/schedule) is re-opened from DIR as a "
        "verified zero-copy mmap instead of being re-synthesized; a miss "
        "collects normally and commits the store for next time",
    )
    parser.add_argument(
        "--from-store",
        default=None,
        metavar="PATH",
        dest="from_store",
        help="load the dataset straight from one committed store directory "
        "(no synthesis at all); probe/target tables are rebuilt from the "
        "store's recorded provenance seed",
    )


def _dataset_from_store(path, obs):
    """Open one concrete store directory as a verified dataset."""
    from repro.errors import StoreError
    from repro.store import open_dataset

    try:
        return open_dataset(path, obs=obs)
    except StoreError as exc:
        raise SystemExit(f"cannot load store {path}: {exc}")


def _run_with_store(campaign, workers, store, worker_faults=None):
    """``campaign.run`` with store errors surfaced as clean exits."""
    from repro.errors import StoreError

    try:
        return campaign.run(
            workers=workers, store=store, worker_faults=worker_faults
        )
    except StoreError as exc:
        where = getattr(store, "root", store)
        raise SystemExit(
            f"store-backed run failed: {exc}\n"
            f"(inspect with `repro store scrub {where}`, then "
            f"`repro store repair` the damaged entry — or delete it to "
            f"re-collect)"
        )


def _resolve_worker_faults(args):
    """Map ``--worker-faults`` to what :meth:`Campaign.collect` takes."""
    profile = getattr(args, "worker_faults", "steady")
    return None if profile == "steady" else profile


def _print_supervision(campaign) -> None:
    """One-line worker-chaos summary: deaths, and respawns (one per death
    that left windows to collect)."""
    supervision = getattr(campaign, "supervision", None)
    if supervision is None:
        return
    line = (f"worker chaos {supervision.profile}: "
            f"{supervision.crashes} crashes, {supervision.hangs} hangs "
            f"({supervision.hangs_recovered} recovered), "
            f"{supervision.respawns} respawns")
    if supervision.degraded:
        line += (f"; DEGRADED: {len(supervision.quarantined)} of "
                 f"{supervision.windows} windows quarantined")
    print(line)
    print()


def _resolve_cli_workers(args):
    """Map the ``--workers`` string to what :meth:`Campaign.collect` takes.

    ``auto`` resolves to serial for tiny campaigns — forking workers
    costs more than a tiny collection — and defers to
    :func:`~repro.core.campaign.resolve_workers` otherwise.
    """
    raw = getattr(args, "workers", "auto")
    if raw == "auto":
        return 1 if getattr(args, "scale", "tiny") == "tiny" else "auto"
    try:
        workers = int(raw)
    except ValueError:
        raise SystemExit(f"--workers must be an integer or 'auto': {raw!r}")
    if workers < 1:
        raise SystemExit(f"--workers must be positive: {workers}")
    return workers


def _build_campaign(args):
    from repro.core.campaign import Campaign, CampaignScale
    from repro.obs import Obs

    faults = getattr(args, "faults", "none")
    scale = next(s for s in CampaignScale if s.label == args.scale)
    return Campaign.from_paper(
        scale=scale,
        seed=args.seed,
        faults=faults,
        obs=Obs(),
    )


def _write_metrics(campaign, path) -> None:
    """Export the campaign's metrics snapshot: JSON at ``path``, the
    Prometheus text exposition next to it."""
    import json
    from pathlib import Path

    out = Path(path)
    if out.parent != Path("."):
        out.parent.mkdir(parents=True, exist_ok=True)
    registry = campaign.obs.registry
    out.write_text(json.dumps(registry.snapshot(), indent=2, sort_keys=True) + "\n")
    prom = out.with_suffix(".prom")
    prom.write_text(registry.to_prometheus())
    print(f"metrics written to {out} and {prom}", file=sys.stderr)


def _maybe_write_metrics(campaign, args) -> None:
    out = getattr(args, "metrics_out", None)
    if out and campaign.obs.enabled:
        _write_metrics(campaign, out)


def _run_campaign(args):
    campaign = _build_campaign(args)
    if getattr(args, "from_store", None):
        dataset = _dataset_from_store(args.from_store, campaign.obs)
        _maybe_write_metrics(campaign, args)
        return campaign, dataset
    dataset = _run_with_store(
        campaign,
        _resolve_cli_workers(args),
        getattr(args, "store", None),
        worker_faults=_resolve_worker_faults(args),
    )
    _maybe_write_metrics(campaign, args)
    return campaign, dataset


def _campaign_dataset(args):
    return _run_campaign(args)[1]


def _cmd_footprint(args) -> int:
    from repro.atlas.population import population_summary
    from repro.cloud.regions import datacenter_countries, regions_per_provider
    from repro.viz import bar_chart

    print("Cloud regions per provider:")
    print(bar_chart(regions_per_provider(), fmt="{:.0f}"))
    print(f"\ndatacenter countries: {len(datacenter_countries())}")
    print(f"probe fleet: {population_summary(seed=args.seed)}")
    return 0


def _resume_collect(campaign, state_dir, workers=None, worker_faults=None):
    """Checkpointed collection: resume from (and persist to) ``state_dir``.

    Returns the completed dataset, or ``None`` after saving state when
    the transport gave out mid-collection — re-running the same command
    picks up where it stopped without duplicating a sample.
    """
    from repro.core.campaign import CollectionCheckpoint
    from repro.core.dataset import CampaignDataset
    from repro.errors import CollectionInterruptedError

    state_dir.mkdir(parents=True, exist_ok=True)
    checkpoint_path = state_dir / "checkpoint.json"
    partial_path = state_dir / "partial.csv"
    try:
        checkpoint = (
            CollectionCheckpoint.load(checkpoint_path)
            if checkpoint_path.exists()
            else CollectionCheckpoint()
        )
        dataset = None
        if partial_path.exists():
            dataset = CampaignDataset.from_frame(
                CampaignDataset.load_csv(partial_path),
                campaign.platform.probes,
                campaign.platform.fleet,
                dedup=True,
                obs=campaign.obs,
            )
            print(f"resuming: {len(checkpoint.high_water)} measurements "
                  f"already collected")
    except (ValueError, KeyError, OSError) as exc:
        print(f"corrupt resume state in {state_dir}: {exc}", file=sys.stderr)
        print("remove the state directory (or its bad file) and re-run",
              file=sys.stderr)
        raise SystemExit(2)
    try:
        dataset = campaign.collect(
            checkpoint=checkpoint,
            dataset=dataset,
            workers=workers,
            worker_faults=worker_faults,
        )
    except CollectionInterruptedError as exc:
        exc.checkpoint.save(checkpoint_path)
        exc.dataset.export_csv(partial_path)
        print(f"collection interrupted: {exc}", file=sys.stderr)
        print(f"state saved to {state_dir}; re-run to resume", file=sys.stderr)
        return None
    checkpoint_path.unlink(missing_ok=True)
    partial_path.unlink(missing_ok=True)
    return dataset


def _cmd_run(args) -> int:
    from pathlib import Path

    from repro.core.completeness import collection_health
    from repro.core.report import headline_report

    campaign = _build_campaign(args)
    workers = _resolve_cli_workers(args)
    worker_faults = _resolve_worker_faults(args)
    if args.from_store:
        if args.resume or args.store:
            raise SystemExit("--from-store cannot combine with --resume/--store")
        dataset = _dataset_from_store(args.from_store, campaign.obs)
    elif args.store:
        if args.resume:
            raise SystemExit(
                "--store and --resume are mutually exclusive (a store-backed "
                "collection commits only complete campaigns)"
            )
        dataset = _run_with_store(
            campaign, workers, args.store, worker_faults=worker_faults
        )
    elif args.resume:
        campaign.create_measurements()
        dataset = _resume_collect(
            campaign, Path(args.resume), workers=workers,
            worker_faults=worker_faults,
        )
        if dataset is None:
            return 3
    else:
        campaign.create_measurements()
        dataset = campaign.collect(workers=workers, worker_faults=worker_faults)
    _maybe_write_metrics(campaign, args)
    _print_supervision(campaign)
    if args.faults != "none":
        health = collection_health(campaign)
        transport = health["transport"]
        print(f"chaos profile {transport['profile']}: "
              f"{sum(transport['faults'].values())} faults injected, "
              f"{transport['retries']} retries, "
              f"{health['quarantined']} quarantined, "
              f"{health['duplicates_dropped']} duplicates dropped")
        print()
    report = headline_report(dataset)
    print(report.summary())
    print()
    for claim, values in report.paper_comparison().items():
        print(f"{claim:38s} paper={values['paper']:<8.2f} "
              f"measured={values['measured']:.2f}")
    return 0


def _cmd_figure(args) -> int:
    from repro.viz import bucket_listing, cdf_plot, line_chart, table, world_map

    number = args.number
    if number in (1, 2, 8):
        # Figures that need no campaign.
        if number == 1:
            from repro.core.trends import collect_figure1, detect_eras

            figure1 = collect_figure1(seed=args.seed)
            eras = detect_eras(figure1)
            series = {}
            for keyword in ("cloud computing", "edge computing"):
                sub = figure1.filter(figure1["keyword"] == keyword)
                series[keyword.split()[0]] = [
                    (int(y), float(v))
                    for y, v in zip(sub["year"], sub["search_interest"])
                ]
            print(line_chart(series))
            print(f"eras: CDN until {eras.cdn_until}, cloud from "
                  f"{eras.cloud_from}, edge from {eras.edge_from}")
            return 0
        if number == 2:
            from repro.apps.quadrants import quadrant_table

            for quadrant, apps in quadrant_table().items():
                print(f"{quadrant.name}: " + ", ".join(a.name for a in apps))
            return 0
        from repro.apps.feasibility import assess_all

        for slug, verdict in assess_all().items():
            print(f"{slug:24s} {verdict.value}")
        return 0

    dataset = _campaign_dataset(args)
    if number == 3:
        print(f"targets: {len(dataset.targets)}  probes: {len(dataset.probes)}")
        return 0
    if number == 4:
        from repro.core.proximity import country_min_latency

        frame = country_min_latency(dataset)
        print(world_map(frame))
        print()
        print(bucket_listing(frame))
        return 0
    if number == 5:
        from repro.core.proximity import min_rtt_cdf_by_continent

        print(cdf_plot(min_rtt_cdf_by_continent(dataset), x_max=200.0))
        return 0
    if number == 6:
        from repro.core.distributions import all_samples_cdf_by_continent, threshold_table

        print(cdf_plot(all_samples_cdf_by_continent(dataset), x_max=300.0))
        print()
        print(table(threshold_table(dataset)))
        return 0
    if number == 7:
        from repro.core.lastmile import cohort_timeseries, wireless_penalty

        print(table(cohort_timeseries(dataset, bucket_s=2 * 86_400)))
        print(f"\nwireless penalty: {wireless_penalty(dataset):.2f}x")
        return 0
    print(f"unknown figure number: {number}", file=sys.stderr)
    return 2


def _cmd_apps(args) -> int:
    from repro.apps.catalog import all_applications
    from repro.apps.feasibility import FeasibilityZone, assess
    from repro.apps.quadrants import classify

    zone = FeasibilityZone()
    print(f"{'application':26s} {'quadrant':9s} {'overlap':>8s}  verdict")
    for app in all_applications():
        print(f"{app.name:26s} {classify(app).name:9s} "
              f"{zone.overlap(app):>7.0%}  {assess(app, zone).value}")
    return 0


def _cmd_whatif(args) -> int:
    from repro.core.whatif import SCENARIOS, scenario_report, verdict_changes

    report = scenario_report()
    print(f"{'scenario':14s} {'floor ms':>9s} {'in zone':>8s} {'rescued B$':>11s}")
    for name in SCENARIOS:
        row = report[name]
        print(f"{name:14s} {row['wireless_floor_ms']:>9.1f} "
              f"{row['apps_in_zone']:>8d} {row['rescued_market_busd']:>11.0f}")
    print("\nverdict changes under promised 5G:")
    for change in verdict_changes("5g-promised"):
        print(f"  {change.slug}: {change.baseline.name} -> {change.scenario.name}")
    return 0


def _cmd_validate(args) -> int:
    from repro.core.report import headline_report
    from repro.core.validation import all_pass, summary_text, validate

    dataset = _campaign_dataset(args)
    results = validate(headline_report(dataset))
    print(summary_text(results))
    return 0 if all_pass(results) else 1


def _cmd_report(args) -> int:
    import json

    from repro.core.paper_report import generate_report, write_report

    if args.health:
        from repro.core.completeness import health_report

        campaign, dataset = _run_campaign(args)
        print(json.dumps(
            health_report(campaign, dataset), indent=2, sort_keys=True,
            default=float,
        ))
        return 0
    dataset = _campaign_dataset(args)
    if args.out:
        write_report(dataset, args.out, seed=args.seed)
        print(f"report written to {args.out}")
    else:
        print(generate_report(dataset, seed=args.seed))
    return 0


def _cmd_obs(args) -> int:
    """Run an instrumented campaign and print its telemetry report."""
    import json

    from repro.core.completeness import health_report

    campaign, dataset = _run_campaign(args)
    report = health_report(campaign, dataset)
    print(json.dumps(report, indent=2, sort_keys=True, default=float))
    if args.trace_out:
        campaign.obs.tracer.export_jsonl(args.trace_out)
        print(f"trace written to {args.trace_out}", file=sys.stderr)
    return 0


def _per_row(size: int, rows: int) -> str:
    return f"{size / rows:.3f}" if rows else "-"


def _scrub_targets(path):
    """Scrub ``path`` (one store or a whole catalog) → (reports, extra).

    ``extra`` is catalog-level damage (uncommitted / dangling entries);
    empty when ``path`` is a single store.
    """
    from repro.store import is_store_dir, scrub, scrub_catalog

    if is_store_dir(path):
        return [scrub(path)], []
    return scrub_catalog(path)


def _cmd_store(args) -> int:
    """Persistent-store maintenance: write / info / verify / scrub /
    repair / gc / stats (zone-map backfill)."""
    import json
    from pathlib import Path

    import numpy as np

    from repro.store import (
        CampaignCatalog,
        Manifest,
        is_store_dir,
    )

    path = Path(args.path)

    if args.action == "write":
        campaign = _build_campaign(args)
        catalog = CampaignCatalog(path)
        already = catalog.lookup(campaign, obs=campaign.obs)
        if already is not None:
            print(f"store already committed: {already.path} "
                  f"({already.rows:,} rows)")
            return 0
        dataset = _run_with_store(campaign, _resolve_cli_workers(args), catalog)
        _maybe_write_metrics(campaign, args)
        committed = catalog.lookup(campaign, obs=campaign.obs)
        print(f"store committed: {committed.path}")
        print(f"rows: {len(dataset):,}  shards: "
              f"{len(committed.manifest.shards)}  "
              f"bytes: {committed.manifest.total_chunk_bytes():,}")
        return 0

    if args.action == "info":
        if is_store_dir(path):
            manifest = Manifest.load(path)
            print(f"store: {path}")
            zoned, total = manifest.zone_map_coverage()
            print(f"rows: {manifest.rows:,}  shards: {len(manifest.shards)}  "
                  f"generation: {manifest.generation}  "
                  f"bytes: {manifest.total_chunk_bytes():,}  "
                  f"zone maps: {zoned}/{total}")
            print("schema: " + ", ".join(
                f"{name}:{dtype}" for name, dtype in manifest.schema
            ))
            raw = sum(np.dtype(dtype).itemsize for _, dtype in manifest.schema)
            print(f"format: v{manifest.version}  bytes/sample: "
                  f"{_per_row(manifest.total_chunk_bytes(), manifest.rows)} of {raw} raw")
            for name, (size, encodings) in manifest.column_bytes().items():
                itemsize = np.dtype(manifest.dtype_of(name)).itemsize
                print(f"  {name:<13} {_per_row(size, manifest.rows):>7} of {itemsize} "
                      f"B/sample  " + ", ".join(
                          f"{encoding} x{count}"
                          for encoding, count in sorted(encodings.items())))
            if manifest.provenance:
                print("provenance: " + json.dumps(
                    manifest.provenance, sort_keys=True
                ))
            return 0
        catalog = CampaignCatalog(path)
        entries = catalog.entries()
        if not entries:
            print(f"{path}: no committed stores")
            return 0
        print(f"catalog: {path} ({len(entries)} stores)")
        for fingerprint in entries:
            manifest = Manifest.load(catalog.path_for(fingerprint))
            provenance = manifest.provenance or {}
            print(f"  {fingerprint[:16]}…  rows={manifest.rows:,}  "
                  f"scale={provenance.get('scale', '?')}  "
                  f"faults={provenance.get('fault_profile', '?')}  "
                  f"seed={provenance.get('seed', '?')}")
        return 0

    if args.action in ("verify", "scrub"):
        reports, catalog_damage = _scrub_targets(path)
        if not reports and not catalog_damage:
            print(f"{path}: nothing to verify", file=sys.stderr)
            return 2
        corrupt = sum(1 for report in reports if not report.intact)
        littered = (
            sum(1 for report in reports if not report.ok) - corrupt
            + len(catalog_damage)
        )
        if getattr(args, "json", False):
            payload = {
                "path": str(path),
                "ok": corrupt == 0 and littered == 0,
                "intact": corrupt == 0,
                "stores": [report.as_dict() for report in reports],
                "catalog_damage": [d.as_dict() for d in catalog_damage],
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for report in reports:
                if report.intact:
                    status = "ok" if report.ok else "ok (debris)"
                    print(f"{status} {report.path} ({report.rows:,} rows, "
                          f"{report.shards} shards)")
                else:
                    from repro.store.scrub import INTEGRITY_KINDS

                    first = next(
                        d for d in report.damage if d.kind in INTEGRITY_KINDS
                    )
                    print(f"CORRUPT {report.path}: {first.kind} {first.file}"
                          + (f" ({first.detail})" if first.detail else ""))
                if args.action == "scrub" or not report.intact:
                    for damage in report.damage:
                        print(f"  {damage.kind:18s} {damage.file}"
                              + (f"  {damage.detail}" if damage.detail else ""))
            for damage in catalog_damage:
                print(f"  {damage.kind:18s} {damage.file}"
                      + (f"  {damage.detail}" if damage.detail else ""))
            if corrupt:
                print(f"{corrupt} damaged store(s): quarantine + rebuild "
                      f"with `repro store repair {path}`")
        if corrupt:
            return 1
        if getattr(args, "strict", False) and littered:
            return 1
        return 0

    if args.action == "stats":
        from repro.store import backfill_zone_maps

        if is_store_dir(path):
            targets = [path]
        else:
            catalog = CampaignCatalog(path)
            targets = [catalog.path_for(f) for f in catalog.entries()]
            if not targets:
                print(f"{path}: no committed stores", file=sys.stderr)
                return 2
        for target in targets:
            manifest, updated = backfill_zone_maps(
                target, refresh=getattr(args, "refresh", False)
            )
            zoned, total = manifest.zone_map_coverage()
            print(f"{target}: {updated} zone maps "
                  f"{'refreshed' if getattr(args, 'refresh', False) else 'backfilled'}, "
                  f"coverage {zoned}/{total} chunks")
        return 0

    if args.action == "repair":
        from repro.errors import StoreRepairError
        from repro.store import repair

        reports, _ = _scrub_targets(path)
        damaged = [r for r in reports if not r.intact or not r.ok]
        if not damaged:
            print(f"{path}: nothing to repair")
            return 0
        for report in damaged:
            try:
                result = repair(report.path)
            except StoreRepairError as exc:
                raise SystemExit(f"repair failed: {exc}")
            print(f"repaired {result.path}: "
                  f"{len(result.repaired_chunks)} chunks rebuilt from "
                  f"{result.resynthesized_windows} re-synthesized windows, "
                  f"{len(result.quarantined)} damaged originals quarantined, "
                  f"{len(result.swept)} debris files swept")
        return 0

    # gc
    if is_store_dir(path):
        from repro.store import gc_store

        removed = gc_store(path)
    else:
        removed = CampaignCatalog(path).gc()
    for name in removed:
        print(f"removed {name}")
    print(f"gc: {len(removed)} entries removed from {path}")
    return 0


def _cmd_export(args) -> int:
    from pathlib import Path

    from repro.core.distributions import all_samples_cdf_by_continent
    from repro.core.proximity import country_min_latency, min_rtt_cdf_by_continent
    from repro.viz import ecdf_payload, export_figure, frame_payload

    dataset = _campaign_dataset(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset.export_csv(out / "dataset.csv")
    export_figure(out / "fig4.json", figure="fig4",
                  data=frame_payload(country_min_latency(dataset)))
    export_figure(out / "fig5.json", figure="fig5",
                  data=ecdf_payload(min_rtt_cdf_by_continent(dataset)))
    export_figure(out / "fig6.json", figure="fig6",
                  data=ecdf_payload(all_samples_cdf_by_continent(dataset)))
    print(f"exported dataset + figure bundles to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Latency Shears reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    footprint = sub.add_parser("footprint", help="Figure 3 footprint")
    _add_common(footprint)
    footprint.set_defaults(func=_cmd_footprint)

    run = sub.add_parser(
        "run", aliases=["collect"], help="run a campaign, print headline report"
    )
    _add_common(run)
    run.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="checkpoint collection state in DIR; an interrupted run "
        "(exit code 3) resumes from it without duplicating samples",
    )
    _add_store_args(run)
    run.set_defaults(func=_cmd_run)

    figure = sub.add_parser("figure", help="regenerate a figure as text")
    figure.add_argument("number", type=int, choices=range(1, 9))
    _add_common(figure)
    _add_store_args(figure)
    figure.set_defaults(func=_cmd_figure)

    apps = sub.add_parser("apps", help="application catalog and verdicts")
    _add_common(apps)
    apps.set_defaults(func=_cmd_apps)

    whatif = sub.add_parser("whatif", help="5G what-if scenario table")
    _add_common(whatif)
    whatif.set_defaults(func=_cmd_whatif)

    export = sub.add_parser("export", help="export dataset + figure bundles")
    _add_common(export)
    export.add_argument("--out", default="out")
    _add_store_args(export)
    export.set_defaults(func=_cmd_export)

    validate = sub.add_parser(
        "validate",
        help="check a campaign against the paper's shape "
        "(use --scale small; tiny under-samples some claims)",
    )
    _add_common(validate)
    _add_store_args(validate)
    validate.set_defaults(func=_cmd_validate)

    report = sub.add_parser(
        "report", help="render the full Markdown reproduction report"
    )
    _add_common(report)
    report.add_argument("--out", default=None)
    report.add_argument(
        "--health",
        action="store_true",
        help="print the campaign health report (collection + transport + "
        "fleet completeness + metrics) as JSON instead of the Markdown "
        "report",
    )
    _add_store_args(report)
    report.set_defaults(func=_cmd_report)

    obs = sub.add_parser(
        "obs", help="run an instrumented campaign, report its telemetry"
    )
    obs.add_argument("action", choices=["report"])
    _add_common(obs)
    obs.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        dest="trace_out",
        help="write the span trace as JSONL to PATH",
    )
    _add_store_args(obs)
    obs.set_defaults(func=_cmd_obs)

    store = sub.add_parser(
        "store",
        help="persistent campaign stores: write, inspect, verify, scrub, "
        "repair, gc, stats (zone-map backfill)",
    )
    store.add_argument(
        "action",
        choices=["write", "info", "verify", "scrub", "repair", "gc", "stats"],
        help="write: collect the campaign (common options) into a catalog "
        "at PATH; info: summarize a store or catalog; verify: full "
        "checksum pass (exit 1 on corruption); scrub: classify every "
        "problem without stopping at the first; repair: quarantine "
        "damaged chunks and rebuild them from re-synthesized windows; "
        "gc: sweep uncommitted or orphaned store files; stats: backfill "
        "per-chunk zone maps (min/max/nulls) into pre-v2 manifests so "
        "scans can prune",
    )
    store.add_argument("path", help="store directory or catalog root")
    store.add_argument(
        "--strict",
        action="store_true",
        help="verify: exit nonzero on ANY damage, debris and catalog "
        "litter included (default: only integrity damage fails)",
    )
    store.add_argument(
        "--refresh",
        action="store_true",
        help="stats: recompute every zone map from chunk bytes, not just "
        "the missing ones",
    )
    store.add_argument(
        "--json",
        action="store_true",
        help="verify/scrub: emit the machine-readable per-chunk damage "
        "report instead of text lines",
    )
    _add_common(store)
    store.set_defaults(func=_cmd_store)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.obs import logging_config

    from repro.errors import CampaignError

    args = build_parser().parse_args(argv)
    logging_config(
        level=getattr(args, "log_level", "warning"),
        json_logs=getattr(args, "json_logs", False),
    )
    try:
        return args.func(args)
    except CampaignError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
