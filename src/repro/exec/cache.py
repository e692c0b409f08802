"""Content-addressed on-disk result cache.

A :class:`ResultCache` stores one JSON entry per completed simulation,
keyed by a stable SHA-256 hash of the scenario configuration.  Re-running
a sweep, a figure, or an ablation therefore only pays for the cells whose
configuration actually changed; everything else is reloaded from disk.

Key properties
--------------
* **Content-addressed.**  The key is derived from the canonical JSON form
  of the config (sorted keys, compact separators), so two structurally
  identical configs always map to the same entry regardless of how they
  were constructed.  The ``trace`` flag is excluded from the key because
  tracing changes what is logged, never what is measured.
* **Durable artifact.**  Each entry stores both the config and the full
  :class:`~repro.scenario.results.ScenarioResult`, so a cache directory
  doubles as a self-describing archive of every simulation ever run.
* **One layout: packed segments.**  Every write goes through
  :meth:`ResultCache.put_many`, which stores a batch of entries as one
  segment file (``<root>/packs/<id>.pack``): a one-line JSON offset index
  followed by the concatenated entry bodies, written to a unique temp
  file, fsynced once and atomically renamed into place.  A single
  :meth:`ResultCache.put` is a pack of one.  Entries stay O(1) to probe
  (seek + bounded read).
* **Crash/concurrency safe.**  A reader never observes a half-written
  segment; corrupt or stale entries are treated as misses, never as
  errors.
* **Version-guarded.**  Each entry records the ``repro`` package version
  that produced it; entries from another version are misses.  Any change
  that alters simulation behaviour must therefore bump
  ``repro.version.__version__`` — that is what keeps a long-lived cache
  directory from silently serving pre-change results as current.

Caches written by older releases may still hold loose per-entry files
(``<root>/<2-char>/<key>.json``).  No reader serves them: ``stats`` and
``verify`` name each one, and :meth:`ResultCache.pack_all` (CLI:
``repro-cache pack``) migrates them into segments once.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import time
from pathlib import Path
from typing import (
    Collection, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.scenario.config import ScenarioConfig
from repro.scenario.results import ScenarioResult
from repro.version import __version__

#: Bump when the on-disk entry layout changes; older entries become misses.
CACHE_FORMAT_VERSION = 1

#: Bytes read by the :meth:`ResultCache.has_current` bounded probe —
#: comfortably larger than the fixed header every entry starts with
#: (format version + 64-hex key + repro version ≈ 120 bytes).
_PROBE_HEADER_BYTES = 512

#: Bump when the packed-segment layout changes; older packs become misses.
PACK_FORMAT_VERSION = 1

#: Default number of entries consolidated into one segment by ``pack_all``
#: and ``merge_from``.
PACK_BATCH_SIZE = 1024

#: Where an entry lives: ``(segment_path, offset, length)``.
_Location = Tuple[Path, int, int]


def atomic_write_text(path: Union[str, os.PathLike], text: str,
                      encoding: str = "utf-8") -> Path:
    """Write ``text`` to ``path`` atomically (unique temp + ``os.replace``).

    The durable-artifact discipline shared by the cache, sweep/shard
    artifacts, and the campaign artifact store: a reader never observes
    a half-written file, and a killed writer leaves only a
    ``.{name}.{pid}.tmp`` orphan that sweepers recognise.
    """
    target = Path(path)
    tmp = target.parent / f".{target.name}.{os.getpid()}.tmp"
    tmp.write_text(text, encoding=encoding)
    os.replace(tmp, target)
    return target


def _entry_header(key: str) -> str:
    """The fixed JSON prefix every entry written for ``key`` starts with.

    Entries open with the three guard fields in a byte-exact layout so
    :meth:`ResultCache.has_current` can validate an entry from a small
    bounded read instead of parsing the (potentially large) ``result``
    payload.  The prefix cannot be spoofed by entry *content*: JSON
    string values escape the quote characters the layout relies on.
    """
    return (f'{{"format_version": {CACHE_FORMAT_VERSION}, '
            f'"key": "{key}", '
            f'"repro_version": {json.dumps(__version__)}, ')


def _entry_text(key: str, config: ScenarioConfig,
                result: ScenarioResult) -> str:
    """The exact bytes of an entry: the guard header, then the body.

    The body is the sorted-key JSON object; readers that need the
    payload (:meth:`ResultCache.get`) parse the whole entry, while
    :meth:`ResultCache.has_current` validates it from the header alone.
    """
    body = json.dumps({
        "version": CACHE_FORMAT_VERSION,
        "repro_version": __version__,
        "key": key,
        "config": config.to_dict(),
        "result": result.to_dict(),
    }, sort_keys=True)
    return _entry_header(key) + body[1:]


def _migrated_entry(key: str, data: bytes) -> bytes:
    """The bytes a loose entry is packed as by :meth:`ResultCache.pack_all`.

    Entries written before the guard header existed are re-emitted
    through :func:`_entry_text` when they are current and well-formed,
    so the packed bytes equal what the writer produces today.  Every
    other entry (already headered, stale, or corrupt) moves verbatim and
    keeps reading exactly as it did: stale stays stale, corrupt stays
    corrupt for :meth:`ResultCache.verify` to report.
    """
    if data.startswith(b'{"format_version": '):
        return data
    try:
        payload = json.loads(data.decode("utf-8"))
        if (payload.get("version") != CACHE_FORMAT_VERSION
                or payload.get("repro_version") != __version__
                or payload.get("key") != key):
            return data
        config = ScenarioConfig.from_dict(payload["config"])
        result = ScenarioResult.from_dict(payload["result"])
    except (ValueError, KeyError, TypeError, AttributeError):
        return data
    return _entry_text(key, config, result).encode("utf-8")


def _temp_file_pid(name: str) -> Optional[int]:
    """The writer pid encoded in a ``.{key}.{pid}.tmp`` file name."""
    parts = name.split(".")
    try:
        return int(parts[-2])
    except (IndexError, ValueError):
        return None


def _pack_payload(entries: Sequence[Tuple[str, bytes]]) -> Tuple[str, bytes]:
    """Serialize ``(key, entry_bytes)`` pairs into one packed segment.

    The segment is a single JSON header line — pack format version plus
    a ``key -> [offset, length]`` index, offsets relative to the end of
    the header line — followed by the concatenated raw entry bytes.
    Returns ``(pack_id, file_bytes)`` where ``pack_id`` is derived from
    the entry bytes, so identical batches are content-addressed to the
    same segment file.
    """
    index: Dict[str, List[int]] = {}
    chunks: List[bytes] = []
    offset = 0
    for key, data in entries:
        index[key] = [offset, len(data)]
        chunks.append(data)
        offset += len(data)
    blob = b"".join(chunks)
    header = json.dumps({"pack_format": PACK_FORMAT_VERSION,
                         "entries": index},
                        sort_keys=True, separators=(",", ":")) + "\n"
    pack_id = hashlib.sha256(blob).hexdigest()[:32]
    return pack_id, header.encode("utf-8") + blob


def _read_pack_index(path: Path) -> Optional[Dict[str, Tuple[int, int]]]:
    """Parse a segment's header line into ``key -> (abs_offset, length)``.

    Returns ``None`` when the header is unreadable or from another pack
    format version — the whole segment then reads as a miss.
    """
    try:
        with open(path, "rb") as handle:
            header_line = handle.readline()
        header = json.loads(header_line.decode("utf-8"))
        if header.get("pack_format") != PACK_FORMAT_VERSION:
            return None
        data_start = len(header_line)
        return {str(key): (data_start + int(span[0]), int(span[1]))
                for key, span in dict(header["entries"]).items()}
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None


def _read_span(path: Path, offset: int, length: int) -> Optional[bytes]:
    """Read ``length`` bytes at ``offset``; ``None`` if short or gone."""
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            data = handle.read(length)
    except OSError:
        return None
    return data if len(data) == length else None


def config_key(config: ScenarioConfig) -> str:
    """Stable SHA-256 hex digest identifying ``config``'s simulation.

    The ``trace`` flag is dropped before hashing: it only controls
    logging, so traced and untraced runs of the same scenario share a
    cache entry.
    """
    payload = config.to_dict()
    payload.pop("trace", None)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """On-disk cache mapping :class:`ScenarioConfig` to :class:`ScenarioResult`.

    Parameters
    ----------
    root:
        Directory holding the cache; created (with parents) if missing.
        Entries live in packed segments under ``<root>/packs/``.
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ValueError(
                f"cache root {str(self.root)!r} exists and is not a "
                f"directory") from exc
        #: Number of successful lookups since this object was created.
        self.hits: int = 0
        #: Number of failed lookups (absent or unreadable entries).
        self.misses: int = 0
        #: Cached pack index: (the segments' (name, mtime, size) it was
        #: built from, index).
        self._pack_cache: Optional[
            Tuple[Tuple[Tuple[str, int, int], ...],
                  Dict[str, Tuple[_Location, ...]]]] = None

    # ------------------------------------------------------------------ #
    def _pack_files(self) -> List[Path]:
        """Every packed segment, sorted by name (one directory listing).

        Sorted at the source so every consumer (index, stats, verify,
        prune, gc, merge) walks segments in the same deterministic order
        on any filesystem.
        """
        packs_dir = self.root / "packs"
        try:
            names = sorted(entry.name for entry in os.scandir(packs_dir)
                           if entry.name.endswith(".pack")
                           and not entry.name.startswith("."))
        except FileNotFoundError:
            return []
        return [packs_dir / name for name in names]

    def _loose_files(self) -> List[Path]:
        """Loose entry files from the pre-pack layout, in sorted order.

        Nothing serves them; they exist only to be reported by
        :meth:`stats`/:meth:`verify` and migrated by :meth:`pack_all`.
        """
        return sorted(self.root.glob("??/*.json"))

    def _pack_index(self) -> Dict[str, Tuple[_Location, ...]]:
        """``key -> locations`` across all segments, in segment order.

        Lists ``packs/`` once per call and rebuilds only when a segment
        appeared, vanished or was rewritten (one header-line read per
        segment), so batches flushed by concurrent writers — e.g. pool
        workers mid-sweep — become visible to this reader.  A key may
        live in several segments (a stale entry and its re-simulated
        successor); readers take the first location, in sorted segment
        order, that passes the guards, which keeps lookups deterministic.
        """
        files = self._pack_files()
        stats: List[Tuple[str, int, int]] = []
        for path in files:
            try:
                stat = os.stat(path)
            except OSError:  # pragma: no cover - racing deleter
                continue
            stats.append((path.name, stat.st_mtime_ns, stat.st_size))
        signature = tuple(stats)
        if self._pack_cache is not None and self._pack_cache[0] == signature:
            return self._pack_cache[1]
        index: Dict[str, Tuple[_Location, ...]] = {}
        for path in files:
            entries = _read_pack_index(path)
            if entries is None:
                continue
            for key in sorted(entries):
                offset, length = entries[key]
                index[key] = index.get(key, ()) + ((path, offset, length),)
        self._pack_cache = (signature, index)
        return index

    def _logical_entries(self) -> Iterator[Tuple[str, bytes, Path]]:
        """Yield ``(key, raw_bytes, segment)`` for every packed entry.

        Sorted segments, sorted keys within each — the one deterministic
        walk :meth:`merge_from` copies from.
        """
        for pack_path in self._pack_files():
            index = _read_pack_index(pack_path)
            if index is None:
                continue
            for key in sorted(index):
                data = _read_span(pack_path, *index[key])
                if data is not None:
                    yield key, data, pack_path

    def temp_files(self) -> List[Path]:
        """Temporary files left behind by in-flight or crashed writers.

        Writers go through ``.{name}.{pid}.tmp`` files; a writer that
        dies between write and rename orphans its temp file.  Reads
        never touch them, but they accumulate forever unless swept — see
        :meth:`sweep_temp_files`.
        """
        return sorted(itertools.chain(self.root.glob(".*.tmp"),
                                      self.root.glob("??/.*.tmp"),
                                      self.root.glob("packs/.*.tmp")))

    def sweep_temp_files(self, min_age_seconds: float = 0.0,
                         pids: Optional[Collection[int]] = None) -> int:
        """Delete orphaned writer temp files; returns how many were removed.

        ``min_age_seconds`` protects live writers: only temp files whose
        mtime is at least that old are deleted (pass ``0`` to sweep
        everything, safe when no sweep is running against this root).
        ``pids`` restricts the sweep to temp files written by those
        process ids (the ``.{key}.{pid}.tmp`` name component) — how a
        scheduler sweeps up after workers it *knows* are dead without
        racing other writers that may share the cache root.
        """
        cutoff = time.time() - min_age_seconds  # repro-lint: ignore[D-wallclock] mtime GC only
        removed = 0
        for tmp in self.temp_files():
            if pids is not None and _temp_file_pid(tmp.name) not in pids:
                continue
            try:
                if tmp.stat().st_mtime <= cutoff:
                    tmp.unlink()
                    removed += 1
            except OSError:  # pragma: no cover - racing writer/deleter
                pass
        return removed

    def __contains__(self, config: ScenarioConfig) -> bool:
        return config_key(config) in self._pack_index()

    def __len__(self) -> int:
        return len(self._pack_index())

    # ------------------------------------------------------------------ #
    def get(self, config: ScenarioConfig) -> Optional[ScenarioResult]:
        """The cached result for ``config``, or ``None`` on a miss.

        Unreadable, corrupt, or format-incompatible entries count as
        misses; the next write of the same cell supersedes them.
        """
        return self._get(config_key(config), self._pack_index())

    def _get(self, key: str, index: Dict[str, Tuple[_Location, ...]],
             ) -> Optional[ScenarioResult]:
        for location in index.get(key, ()):
            data = _read_span(*location)
            try:
                if data is None:
                    raise ValueError("truncated entry")
                payload = json.loads(data.decode("utf-8"))
                if payload.get("version") != CACHE_FORMAT_VERSION:
                    raise ValueError("incompatible cache entry version")
                if payload.get("repro_version") != __version__:
                    raise ValueError("entry from a different simulator version")
                result = ScenarioResult.from_dict(payload["result"])
            except (ValueError, KeyError, TypeError, AttributeError):
                continue
            self.hits += 1
            return result
        self.misses += 1
        return None

    def has_current(self, config: ScenarioConfig) -> bool:
        """Whether a valid, current-version entry for ``config`` exists.

        The same version/format guards as :meth:`get`, but without
        deserializing the result and without touching the hit/miss
        counters — a cheap existence probe (used by the scheduler's
        progress heartbeat, where only *whether* a cell completed
        matters, not its content).

        Cost is O(1)-ish, not O(entry size): the probe reads a small
        bounded head and byte-compares it against the exact
        :func:`_entry_header` prefix every entry is written with, so a
        multi-MB ``result`` payload is never read, let alone parsed.
        """
        key = config_key(config)
        header = _entry_header(key).encode("utf-8")
        for path, offset, length in self._pack_index().get(key, ()):
            head = _read_span(path, offset, min(length, _PROBE_HEADER_BYTES))
            if head is not None and head.startswith(header):
                return True
        return False

    def lookup(self, configs: Sequence[ScenarioConfig],
               ) -> Tuple[Dict[int, ScenarioResult], List[int]]:
        """Batch :meth:`get`: split ``configs`` into hits and misses.

        Returns ``(hits, misses)`` where ``hits`` maps positions in
        ``configs`` to their cached results (in position order) and
        ``misses`` lists the positions that must be simulated.  This is
        the primitive behind cache-aware scheduling: the executor serves
        the hits immediately and only simulates the misses.  The
        ``packs/`` directory is listed once for the whole batch.
        """
        index = self._pack_index()
        hits: Dict[int, ScenarioResult] = {}
        misses: List[int] = []
        for position, config in enumerate(configs):
            result = self._get(config_key(config), index)
            if result is None:
                misses.append(position)
            else:
                hits[position] = result
        return hits, misses

    def put(self, config: ScenarioConfig, result: ScenarioResult) -> Path:
        """Store one result; returns its segment (a pack of one)."""
        return self.put_many([(config, result)])

    def put_many(self, items: Sequence[Tuple[ScenarioConfig,
                                             ScenarioResult]],
                 ) -> Path:
        """Store a batch of results as one packed segment; returns it.

        The whole batch lands under ``<root>/packs/`` durably with a
        single fsync — per-entry write+rename would otherwise dominate
        cache write cost for many small entries.
        """
        if not items:
            raise ValueError("put_many needs at least one entry")
        entries: List[Tuple[str, bytes]] = []
        for config, result in items:
            key = config_key(config)
            entries.append(
                (key, _entry_text(key, config, result).encode("utf-8")))
        return self._write_pack(entries)

    def _write_pack(self, entries: Sequence[Tuple[str, bytes]]) -> Path:
        """Durably write one packed segment (temp + fsync + rename)."""
        pack_id, blob = _pack_payload(entries)
        packs_dir = self.root / "packs"
        packs_dir.mkdir(parents=True, exist_ok=True)
        target = packs_dir / f"{pack_id}.pack"
        tmp = packs_dir / f".{pack_id}.{os.getpid()}.tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.write(fd, blob)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, target)
        return target

    def pack_all(self, batch_size: int = PACK_BATCH_SIZE) -> Tuple[int, int]:
        """Migrate loose entry files into packed segments (one-time).

        Entries keep their keys and guards: see :func:`_migrated_entry`
        for how pre-header entries are re-emitted.  Each loose file is
        deleted once its segment is durable.  Returns
        ``(segments_written, entries_packed)``.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        loose = self._loose_files()
        segments = packed = 0
        for start in range(0, len(loose), batch_size):
            batch: List[Tuple[str, bytes]] = []
            sources: List[Path] = []
            for path in loose[start:start + batch_size]:
                try:
                    data = path.read_bytes()
                except OSError:  # pragma: no cover - racing deleter
                    continue
                batch.append((path.stem, _migrated_entry(path.stem, data)))
                sources.append(path)
            if not batch:
                continue
            self._write_pack(batch)
            segments += 1
            for path in sources:
                try:
                    path.unlink()
                    packed += 1
                except OSError:  # pragma: no cover - racing deleter
                    pass
        return segments, packed

    def clear(self) -> int:
        """Delete every entry; returns the number of entries removed."""
        removed = 0
        for pack_path in self._pack_files():
            index = _read_pack_index(pack_path)
            try:
                pack_path.unlink()
                removed += len(index) if index is not None else 0
            except OSError:  # pragma: no cover - racing deleter
                pass
        return removed

    # ------------------------------------------------------------------ #
    # maintenance (the substrate of the ``repro-cache`` CLI)
    # ------------------------------------------------------------------ #
    def stats(self) -> "CacheStats":
        """Shallow inventory: entry/byte counts per recorded repro version.

        Entries are only read far enough to extract their version stamps;
        unparseable ones are counted as ``unreadable`` rather than
        raised.  Use :meth:`verify` for the deep (re-hash) check.
        """
        by_version: Dict[str, int] = {}
        packs = entries = unreadable = total_bytes = 0
        for pack_path in self._pack_files():
            packs += 1
            try:
                total_bytes += pack_path.stat().st_size
            except OSError:  # pragma: no cover - racing deleter
                pass
            index = _read_pack_index(pack_path)
            if index is None:
                unreadable += 1
                continue
            for key in sorted(index):
                entries += 1
                data = _read_span(pack_path, *index[key])
                try:
                    if data is None:
                        raise ValueError("truncated packed entry")
                    payload = json.loads(data.decode("utf-8"))
                    version = str(payload.get("repro_version"))
                except ValueError:
                    unreadable += 1
                    continue
                by_version[version] = by_version.get(version, 0) + 1
        return CacheStats(root=self.root, entries=entries,
                          total_bytes=total_bytes, unreadable=unreadable,
                          temp_files=len(self.temp_files()),
                          by_version=dict(sorted(by_version.items())),
                          current_version=__version__, packs=packs,
                          loose_files=[str(path.relative_to(self.root))
                                       for path in self._loose_files()])

    def verify(self) -> List["CacheProblem"]:
        """Deep integrity check of every entry; returns found problems.

        For each packed entry: the JSON must parse, the recorded key
        must match the index key, and — for entries stamped with the
        *current* repro version — the stored config must rebuild and
        re-hash to that same key.  Entries from other versions are
        reported as ``stale`` (well-formed misses, prunable but not
        corrupt).  A problem inside a segment carries the offending
        ``key`` so :meth:`prune` can drop just that entry.  Every loose
        file is reported as ``loose``: it is never served until
        :meth:`pack_all` migrates it.
        """
        problems: List[CacheProblem] = []
        for pack_path in self._pack_files():
            index = _read_pack_index(pack_path)
            if index is None:
                problems.append(CacheProblem(
                    pack_path, "corrupt", "unreadable pack header"))
                continue
            for key in sorted(index):
                found = self._verify_entry(
                    key, _read_span(pack_path, *index[key]))
                if found is not None:
                    problems.append(CacheProblem(
                        pack_path, found[0],
                        f"entry {key[:12]}…: {found[1]}", key=key))
        for path in self._loose_files():
            problems.append(CacheProblem(
                path, "loose", "loose entry file is not served; run "
                f"`repro-cache pack {self.root}` to migrate it"))
        return problems

    @staticmethod
    def _verify_entry(key: str, data: Optional[bytes],
                      ) -> Optional[Tuple[str, str]]:
        """``(kind, detail)`` for a defective entry, ``None`` if sound."""
        if data is None:
            return "corrupt", "spans past end of segment"
        try:
            payload = json.loads(data.decode("utf-8"))
        except ValueError as exc:
            return "corrupt", f"unreadable JSON: {exc}"
        if not isinstance(payload, dict):
            return "corrupt", "entry is not a JSON object"
        if payload.get("version") != CACHE_FORMAT_VERSION:
            return ("stale", f"cache format "
                    f"{payload.get('version')!r} != {CACHE_FORMAT_VERSION}")
        if payload.get("key") != key:
            return ("corrupt", f"recorded key {payload.get('key')!r} "
                    f"does not match the index key")
        if payload.get("repro_version") != __version__:
            return ("stale", f"repro "
                    f"{payload.get('repro_version')!r} != {__version__}")
        try:
            config = ScenarioConfig.from_dict(payload["config"])
            ScenarioResult.from_dict(payload["result"])
        except (ValueError, KeyError, TypeError) as exc:
            return "corrupt", f"entry does not deserialize: {exc}"
        if config_key(config) != key:
            return ("corrupt", "stored config re-hashes to "
                    f"{config_key(config)[:12]}…, not the entry key")
        return None

    def prune(self, temp_min_age_seconds: float = 0.0,
              dry_run: bool = False) -> "PruneReport":
        """Remove corrupt entries, stale-version entries, and orphan temps.

        After a prune, every remaining entry is a servable hit for the
        current ``repro`` version.  With ``dry_run`` nothing is deleted;
        the report shows what *would* go.  A defective entry is dropped
        by rewriting its segment with only the sound entries (the
        segment itself goes when none survive or its header is
        unreadable).  Loose files are reported but never deleted:
        :meth:`pack_all` can still migrate them.
        """
        problems = self.verify()
        removed_corrupt = removed_stale = 0
        drops: Dict[Path, List[str]] = {}
        for problem in problems:
            if problem.kind == "loose":
                continue
            drops.setdefault(problem.path, [])
            if problem.key is not None:
                drops[problem.path].append(problem.key)
            if problem.kind == "corrupt":
                removed_corrupt += 1
            else:
                removed_stale += 1
        if not dry_run:
            for pack_path in sorted(drops):
                self._rewrite_pack(pack_path, set(drops[pack_path]))
        temps = self.temp_files()
        if dry_run:
            cutoff = time.time() - temp_min_age_seconds  # repro-lint: ignore[D-wallclock] mtime GC only
            removed_temps = 0
            for tmp in temps:
                try:
                    if tmp.stat().st_mtime <= cutoff:
                        removed_temps += 1
                except OSError:  # pragma: no cover - racing writer
                    pass
        else:
            removed_temps = self.sweep_temp_files(temp_min_age_seconds)
        return PruneReport(corrupt=removed_corrupt, stale=removed_stale,
                           temp_files=removed_temps, dry_run=dry_run,
                           problems=problems)

    def _rewrite_pack(self, pack_path: Path, drop_keys: Collection[str],
                      ) -> None:
        """Rewrite a segment without ``drop_keys`` (delete it if empty)."""
        index = _read_pack_index(pack_path)
        survivors: List[Tuple[str, bytes]] = []
        if index is not None:
            for key in sorted(index):
                if key in drop_keys:
                    continue
                data = _read_span(pack_path, *index[key])
                if data is not None:
                    survivors.append((key, data))
        replacement: Optional[Path] = None
        if survivors:
            replacement = self._write_pack(survivors)
        if replacement != pack_path:
            try:
                pack_path.unlink()
            except OSError:  # pragma: no cover - racing deleter
                pass

    def gc(self, max_age_seconds: Optional[float] = None,
           max_total_bytes: Optional[int] = None,
           dry_run: bool = False) -> List[Path]:
        """Expire segments by age and/or shrink the cache to a byte budget.

        ``max_age_seconds`` drops segments whose mtime is older; after
        that, ``max_total_bytes`` drops the *oldest* surviving segments
        until the remainder fits.  A segment ages and is dropped as one
        unit (its entries were written in one batch).  Returns the
        (would-be) deleted paths.
        """
        if max_age_seconds is None and max_total_bytes is None:
            raise ValueError("gc needs max_age_seconds and/or max_total_bytes")
        now = time.time()  # repro-lint: ignore[D-wallclock] entry-age GC, never a result input
        entries: List[Tuple[float, int, Path]] = []
        for path in self._pack_files():
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - racing deleter
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()  # oldest first
        doomed: List[Path] = []
        survivors: List[Tuple[float, int, Path]] = []
        for mtime, size, path in entries:
            if max_age_seconds is not None and now - mtime > max_age_seconds:
                doomed.append(path)
            else:
                survivors.append((mtime, size, path))
        if max_total_bytes is not None:
            total = sum(size for _, size, _ in survivors)
            for _, size, path in survivors:
                if total <= max_total_bytes:
                    break
                doomed.append(path)
                total -= size
        if not dry_run:
            for path in doomed:
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - racing deleter
                    pass
        return doomed

    def merge_from(self, source: Union["ResultCache", str, os.PathLike],
                   ) -> "MergeStats":
        """Copy every entry of ``source`` into this cache, as packs.

        This is how sharded sweeps come back together: each shard runs
        against its own cache root, then the roots are merged into one.
        Entries are content-addressed, so a same-key collision should
        carry identical bytes; when it does not (``conflicts``), the
        existing destination entry is kept and the difference reported
        rather than silently overwritten.  New entries land in packed
        segments of :data:`PACK_BATCH_SIZE`; orphan temp files in the
        source are never copied.
        """
        if not isinstance(source, ResultCache):
            # Unlike the constructor (which creates missing roots), a merge
            # source must already exist: silently "merging" a typo'd path
            # would drop that shard's entries and report success.
            if not Path(source).is_dir():
                raise ValueError(
                    f"merge source {str(source)!r} is not an existing "
                    f"cache directory")
            source = ResultCache(source)
        if source.root.resolve() == self.root.resolve():
            raise ValueError("cannot merge a cache into itself")
        index = self._pack_index()
        incoming: Dict[str, bytes] = {}
        identical = conflicts = 0
        conflict_paths: List[Path] = []
        for key, data, path in source._logical_entries():
            existing = [_read_span(*location)
                        for location in index.get(key, ())]
            if key in incoming:
                existing.append(incoming[key])
            if data in existing:
                identical += 1
            elif existing:
                # Keep what is already here (or was copied first).
                conflicts += 1
                conflict_paths.append(index[key][0][0] if key in index
                                      else path)
            else:
                incoming[key] = data
        entries = sorted(incoming.items())
        for start in range(0, len(entries), PACK_BATCH_SIZE):
            self._write_pack(entries[start:start + PACK_BATCH_SIZE])
        return MergeStats(copied=len(incoming), identical=identical,
                          conflicts=conflicts, conflict_paths=conflict_paths)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"ResultCache(root={str(self.root)!r}, entries={len(self)}, "
                f"hits={self.hits}, misses={self.misses})")


# ---------------------------------------------------------------------- #
# maintenance report types
# ---------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class CacheStats:
    """Shallow inventory of a cache directory (see :meth:`ResultCache.stats`)."""

    root: Path
    entries: int
    total_bytes: int
    unreadable: int
    temp_files: int
    #: entry count per recorded ``repro_version`` stamp.
    by_version: Dict[str, int]
    current_version: str
    #: Packed segment files under ``<root>/packs/``.
    packs: int = 0
    #: Loose entry files (relative paths) awaiting ``repro-cache pack``.
    loose_files: List[str] = dataclasses.field(default_factory=list)

    @property
    def current(self) -> int:
        """Entries servable by the current ``repro`` version."""
        return self.by_version.get(self.current_version, 0)


@dataclasses.dataclass(frozen=True)
class CacheProblem:
    """One defective cache entry found by :meth:`ResultCache.verify`.

    ``kind`` is ``"corrupt"`` (unreadable, mis-keyed, or undeserializable),
    ``"stale"`` (well-formed but from another format/repro version) or
    ``"loose"`` (a pre-pack entry file awaiting ``repro-cache pack``).
    ``key`` is set when the defect is one entry *inside* a packed
    segment — ``path`` is then the segment file, and prune drops just
    that entry by rewriting the segment.
    """

    path: Path
    kind: str
    detail: str
    key: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class PruneReport:
    """What :meth:`ResultCache.prune` removed (or would remove)."""

    corrupt: int
    stale: int
    temp_files: int
    dry_run: bool
    problems: List[CacheProblem]


@dataclasses.dataclass(frozen=True)
class MergeStats:
    """Outcome of :meth:`ResultCache.merge_from`."""

    copied: int
    identical: int
    conflicts: int
    conflict_paths: List[Path]
