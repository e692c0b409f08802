"""Campaign execution: cache-resumable runs + store publication.

:func:`run_campaign` is deliberately thin: all durability lives in the
:class:`~repro.exec.cache.ResultCache` (per-cell results; what makes a
rerun resume instead of recompute) and the
:class:`~repro.campaign.store.ArtifactStore` (rendered deliverables; what
``repro-serve`` reads).  The runner itself keeps no state files, so
killing it at any point loses at most the in-flight cells and those
completed since the last batched cache write.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, List, Optional

from repro.campaign.manifest import CampaignSpec
from repro.campaign.store import ArtifactStore
from repro.exec import ClusterExecutor, ResultCache
from repro.experiments.figures import FIGURES, format_figure, render_figures
from repro.experiments.sweep import SweepResult
from repro.experiments.table1 import table1_from_sweep


class CampaignInterrupted(RuntimeError):
    """A run stopped at its ``stop_after_cells`` budget (exit code 3).

    Everything simulated so far is durably cached, so running the same
    manifest against the same cache resumes exactly where this stopped.
    """

    def __init__(self, campaign: str, entry: str, simulated: int) -> None:
        super().__init__(
            f"campaign {campaign!r} stopped in entry {entry!r} after "
            f"simulating {simulated} cell(s); completed cells are cached — "
            f"re-run the same manifest to resume")
        self.campaign = campaign
        self.entry = entry
        self.simulated = simulated


@dataclasses.dataclass(frozen=True)
class EntryStatus:
    """Cache coverage of one campaign entry (no simulations performed)."""

    name: str
    cells: int
    cached: int

    @property
    def missing(self) -> int:
        return self.cells - self.cached

    @property
    def complete(self) -> bool:
        return self.cached == self.cells


@dataclasses.dataclass(frozen=True)
class EntryRun:
    """What one entry of a completed :func:`run_campaign` call did."""

    name: str
    cells: int
    from_cache: int
    simulated: int


@dataclasses.dataclass(frozen=True)
class CampaignReport:
    """Outcome of a completed :func:`run_campaign` call."""

    campaign: str
    entries: List[EntryRun]
    #: Path of the store index, when a store was given.
    index_path: Optional[Path]
    #: Assembled sweep per entry name (manifest order).
    sweeps: Dict[str, SweepResult]

    @property
    def cells(self) -> int:
        return sum(entry.cells for entry in self.entries)

    @property
    def from_cache(self) -> int:
        return sum(entry.from_cache for entry in self.entries)

    @property
    def simulated(self) -> int:
        return sum(entry.simulated for entry in self.entries)


# ---------------------------------------------------------------------- #
def campaign_status(spec: CampaignSpec,
                    cache: ResultCache) -> List[EntryStatus]:
    """Per-entry cache coverage, via the O(1) :meth:`has_current` probe.

    Never deserializes a result and never simulates — cheap enough to
    poll while a campaign runs elsewhere against the same cache root.
    """
    status = []
    for entry, settings in spec.expand():
        configs = settings.cell_configs()
        cached = sum(1 for config in configs if cache.has_current(config))
        status.append(EntryStatus(name=entry.name, cells=len(configs),
                                  cached=cached))
    return status


def run_campaign(spec: CampaignSpec,
                 cache: Optional[ResultCache] = None,
                 store: Optional[ArtifactStore] = None,
                 stop_after_cells: Optional[int] = None,
                 scheduler: Optional[ClusterExecutor] = None,
                 ) -> CampaignReport:
    """Run (or resume) every entry of ``spec``; optionally publish.

    Parameters
    ----------
    cache:
        The result cache — *mandatory*, here or on ``scheduler`` (not
        both): campaign resumability is nothing but cache content
        addressing.
    store:
        When given, every completed entry's deliverables (sweep JSON,
        per-figure text, combined figures, Table I) are published as
        content-addressed blobs and the campaign index is written, so a
        ``repro-serve`` pointed at the store can answer queries with
        zero simulations.
    stop_after_cells:
        Deterministic kill switch for resume testing: simulate exactly
        the first this-many missing cells (in manifest and grid order),
        flush them to the cache, then raise :class:`CampaignInterrupted`.
    scheduler:
        The :class:`~repro.exec.ClusterExecutor` every entry runs on;
        defaults to an in-process one.  A pooled executor's workers are
        reused across all entries (spawn once, run the whole campaign
        warm); the caller keeps ownership — close it (or use it as a
        context manager) after the campaign.

    Cells already cached are never re-simulated; an interrupted or
    crashed campaign therefore resumes by re-running the same call.
    Per-entry ``from_cache``/``simulated`` come from the executor's
    counters; its ``stage_seconds`` accumulate into
    ``total_stage_seconds`` across the campaign.
    """
    if scheduler is None:
        scheduler = ClusterExecutor(cache=cache)
    elif cache is not None:
        if scheduler.cache is not None:
            raise ValueError("pass the cache on the scheduler or via "
                             "cache=, not both")
        scheduler.cache = cache
    cache = scheduler.cache
    if cache is None:
        raise ValueError(
            "run_campaign needs a cache (pass cache= or a scheduler with "
            "one): campaign resumability lives in the result cache")
    remaining = stop_after_cells
    entries: List[EntryRun] = []
    sweeps: Dict[str, SweepResult] = {}
    for entry, settings in spec.expand():
        if remaining is not None:
            missing = [config for config in settings.cell_configs()
                       if not cache.has_current(config)]
            if len(missing) > remaining:
                scheduler.run(missing[:remaining])
                # The budget is exhausted here by construction: earlier
                # entries consumed (stop_after_cells - remaining) and the
                # run above just simulated the final `remaining`.
                raise CampaignInterrupted(
                    campaign=spec.name, entry=entry.name,
                    simulated=stop_after_cells or 0)
            remaining -= len(missing)
        sweeps[entry.name] = scheduler.run_sweep(settings)
        entries.append(EntryRun(name=entry.name,
                                cells=len(settings.grid()),
                                from_cache=scheduler.cells_from_cache,
                                simulated=scheduler.cells_streamed))
    index_path = None
    if store is not None:
        index_path = publish_campaign(spec, sweeps, store)
    return CampaignReport(campaign=spec.name, entries=entries,
                          index_path=index_path, sweeps=sweeps)


def publish_campaign(spec: CampaignSpec, sweeps: Dict[str, SweepResult],
                     store: ArtifactStore) -> Path:
    """Publish every entry's deliverables to ``store``; returns the index.

    Blobs are content-addressed, so republishing an unchanged campaign
    writes nothing new and the index maps to the same digests — which is
    exactly the byte-identity contract between ``repro-serve`` responses
    and ``repro-sweep render`` output.
    """
    entries_doc: Dict[str, object] = {}
    for entry, settings in spec.expand():
        sweep = sweeps[entry.name]
        figures = {figure_id: store.put_text(format_figure(sweep, figure_id))
                   for figure_id in sorted(FIGURES)}
        table1_text = table1_from_sweep(sweep)
        entries_doc[entry.name] = {
            "sweep": store.put_text(sweep.to_json()),
            "figures": figures,
            "figures_all": store.put_text(render_figures(sweep)),
            "table1": (None if table1_text is None
                       else store.put_text(table1_text)),
            "cells": len(settings.grid()),
        }
    return store.put_index(spec.name, {
        "campaign": spec.to_dict(),
        "entries": entries_doc,
    })
