"""Persistent, content-addressed cache for profiling artifacts.

Profiling sweeps and shared-cache baselines are the expensive steps of
every experiment, and both are pure functions of content hashes
(:attr:`~repro.exp.scenario.Scenario.profile_key` /
:attr:`~repro.exp.scenario.Scenario.baseline_key`).  The in-process
payload memo in :mod:`repro.exp.runner` already exploits that within
one session; :class:`ProfileCache` extends it across sessions and CI
runs by storing each measurement's JSON payload as one file under a
content-addressed path::

    <root>/<kind>/<key[:2]>/<key>.json

where ``kind`` is ``profile`` or ``baseline``.  Only the runner reads
and writes entries; the workers it ships tasks to receive their
measurements inside the tasks.  The design rules, in the
replay/consistency spirit of memory-centric transports: identical keys
must yield identical payloads no matter where they were computed, and
a damaged entry must *never* poison a run.

- **Atomic writes.**  Entries are written to a temp file in the target
  directory and ``os.replace``-d into place, so readers only ever see
  complete files and concurrent writers of one key safely race to an
  identical result (last writer wins; both wrote the same content).
- **Versioned envelopes.**  Every file carries ``cache_version`` (the
  envelope/payload layout) *and* ``repro_version`` (the simulator that
  measured it).  Either one stale or future is a miss, never parsed
  further: content keys hash scenario *inputs*, so only the version
  gate keeps a warm cache from serving measurements taken by an older
  simulator whose behavior has since changed.  Bump
  ``repro.__version__`` with any behavior-affecting simulator change.
- **Corruption detection.**  The envelope stores a SHA-256 checksum of
  the canonical payload JSON.  Truncated files, bad JSON, checksum or
  key mismatches all count as misses: the caller recomputes, and the
  recompute's atomic ``put`` overwrites the damage.  No cache problem
  ever raises into a sweep.

- **Bounded growth, on demand.**  ``gc(max_bytes)`` and ``python -m
  repro.exp.cache gc --max-bytes N`` prune the least-recently-written
  entries (LRU by mtime) down to a size budget; ``put`` never prunes.
  Deletion is a single ``unlink`` per entry, so a concurrent reader
  either wins the race (POSIX keeps an opened file's data alive) or
  sees an ordinary miss and recomputes.

The cache root defaults to ``$REPRO_PROFILE_CACHE`` when set, else
``$XDG_CACHE_HOME/repro/profiles`` (``~/.cache/repro/profiles``).
``python -m repro.exp.cache stats|clear|gc`` inspects, empties or
prunes it.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from repro import __version__ as REPRO_VERSION
from repro.errors import ConfigurationError
from repro.exp.cli import quiet_broken_pipe
from repro.exp.scenario import content_hash

__all__ = [
    "CACHE_ENV_VAR",
    "CACHE_VERSION",
    "KIND_BASELINE",
    "KIND_PROFILE",
    "ProfileCache",
    "default_cache_dir",
    "resolve_cache",
]

#: Bump when the envelope or payload layout changes incompatibly;
#: entries with any other version read as misses.
#: v2: baseline envelopes no longer persist ``task_stats`` (nothing
#: downstream reads them -- see ``run_metrics_to_payload``), and
#: content keys exclude the hierarchy engine.  v1 entries read as
#: misses and are recomputed/overwritten in place.
CACHE_VERSION = 2

#: Environment override for the default cache root.
CACHE_ENV_VAR = "REPRO_PROFILE_CACHE"

KIND_PROFILE = "profile"
KIND_BASELINE = "baseline"
_KINDS = (KIND_PROFILE, KIND_BASELINE)

_PathLike = Union[str, Path]


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_PROFILE_CACHE`` or the XDG cache dir."""
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "profiles"


def _checksum(payload: Any) -> str:
    """Full SHA-256 of the canonical payload JSON.

    The same canonicalisation as every other content key in
    :mod:`repro.exp.scenario` -- one rule, so cache checksums can never
    drift from scenario identities.
    """
    return content_hash(payload, digits=64)


def _check_kind(kind: str) -> None:
    if kind not in _KINDS:
        raise ConfigurationError(
            f"unknown cache kind {kind!r} (known: {', '.join(_KINDS)})"
        )


class ProfileCache:
    """On-disk store of profiling payloads, addressed by content key.

    ``get`` returns the stored payload or ``None`` -- *any* problem
    with an entry (missing, truncated, wrong version, bad checksum)
    is a miss, and the recomputed entry's ``put`` overwrites the
    damage.  ``put`` is atomic.  Payloads are plain JSON: the runner
    memoizes and ships them as they are, and only workers decode them
    (the codec is in :mod:`repro.exp.scenario`).
    """

    def __init__(self, root: Optional[_PathLike] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        #: Process-local traffic counters (reported by :meth:`stats`).
        self.hit_count = 0
        self.miss_count = 0
        self.rejected_count = 0

    # -- paths -------------------------------------------------------------

    def entry_path(self, kind: str, key: str) -> Path:
        """Content-addressed location of one entry."""
        _check_kind(kind)
        return self.root / kind / key[:2] / f"{key}.json"

    def _entry_files(self, kind: Optional[str] = None) -> Iterator[Path]:
        for k in _KINDS if kind is None else (kind,):
            bucket = self.root / k
            if bucket.is_dir():
                yield from sorted(bucket.glob("*/*.json"))

    def _litter_files(self, kind: Optional[str] = None) -> Iterator[Path]:
        """Temp files a crashed writer left behind (never valid entries)."""
        for k in _KINDS if kind is None else (kind,):
            bucket = self.root / k
            if bucket.is_dir():
                yield from sorted(bucket.glob("*/.*.tmp"))

    # -- raw payload access ------------------------------------------------

    def get(self, kind: str, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or ``None`` on any problem."""
        path = self.entry_path(kind, key)
        try:
            raw = path.read_text()
        except OSError:
            self.miss_count += 1
            return None
        except UnicodeDecodeError:  # binary corruption, not valid text
            return self._reject(path)
        try:
            envelope = json.loads(raw)
        except ValueError:
            return self._reject(path)
        if (
            not isinstance(envelope, dict)
            or envelope.get("cache_version") != CACHE_VERSION
            or envelope.get("repro_version") != REPRO_VERSION
            or envelope.get("kind") != kind
            or envelope.get("key") != key
            or "payload" not in envelope
            or envelope.get("checksum") != _checksum(envelope["payload"])
        ):
            return self._reject(path)
        self.hit_count += 1
        return envelope["payload"]

    def put(self, kind: str, key: str, payload: Dict[str, Any]) -> Path:
        """Atomically store ``payload`` under ``key``; returns the path."""
        path = self.entry_path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {
            "cache_version": CACHE_VERSION,
            "repro_version": REPRO_VERSION,
            "kind": kind,
            "key": key,
            "checksum": _checksum(payload),
            "payload": payload,
        }
        handle, tmp_name = tempfile.mkstemp(
            prefix=f".{key[:8]}-", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(handle, "w") as tmp:
                tmp.write(json.dumps(envelope, sort_keys=True))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def _reject(self, path: Path) -> None:
        """Count a damaged entry as a miss.

        The file is deliberately *not* unlinked: the recompute that
        follows every miss ends in an atomic :meth:`put` that
        overwrites it, and unlinking here could race a concurrent
        writer that already replaced the damage with a healed entry.
        """
        self.rejected_count += 1
        self.miss_count += 1
        return None

    # -- maintenance -------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Entry counts and sizes on disk plus this process's traffic."""
        per_kind = {}
        total_entries = 0
        total_bytes = 0
        for kind in _KINDS:
            entries = 0
            size = 0
            for path in self._entry_files(kind):
                entries += 1
                try:
                    size += path.stat().st_size
                except OSError:
                    pass
            for path in self._litter_files(kind):
                try:
                    size += path.stat().st_size  # crashed-writer leftovers
                except OSError:
                    pass
            per_kind[kind] = {"entries": entries, "bytes": size}
            total_entries += entries
            total_bytes += size
        return {
            "root": str(self.root),
            "entries": total_entries,
            "bytes": total_bytes,
            "kinds": per_kind,
            "process": {
                "hits": self.hit_count,
                "misses": self.miss_count,
                "rejected": self.rejected_count,
            },
        }

    #: Temp files younger than this are presumed to belong to a *live*
    #: writer (between mkstemp and the atomic replace) and are left
    #: alone by :meth:`gc`; only older orphans count as crash litter.
    LITTER_MAX_AGE_S = 60.0

    def gc(self, max_bytes: Optional[int] = None) -> Dict[str, int]:
        """Prune least-recently-used entries down to ``max_bytes``.

        ``max_bytes=None`` keeps every valid entry.  Recency is the file
        mtime: ``put`` rewrites an entry's file, so re-measured (or
        healed) entries count as fresh, while entries no sweep has
        written for the longest go first.  Orphaned writer
        temp files older than :attr:`LITTER_MAX_AGE_S` are always
        removed (younger ones may belong to an in-flight ``put`` and
        are spared).  Deletion is atomic per entry (one ``unlink``): a
        concurrent reader either opened the file before the unlink --
        POSIX keeps its data alive -- or sees a plain miss and
        recomputes; no reader can observe a partial entry.  Returns
        ``{"removed", "freed_bytes", "kept", "kept_bytes"}``.
        """
        import time as _time

        if max_bytes is not None and max_bytes < 0:
            raise ConfigurationError(
                f"max_bytes must be >= 0, got {max_bytes}"
            )
        removed = 0
        freed = 0
        now = _time.time()
        for litter in self._litter_files():
            try:
                stat = litter.stat()
                if now - stat.st_mtime < self.LITTER_MAX_AGE_S:
                    continue  # possibly a live writer's temp
                litter.unlink()
                removed += 1
                freed += stat.st_size
            except OSError:
                pass
        entries = []
        total = 0
        for path in self._entry_files():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        kept = len(entries)
        if max_bytes is not None and total > max_bytes:
            entries.sort()  # oldest mtime first
            for _mtime, size, path in entries:
                if total <= max_bytes:
                    break
                try:
                    path.unlink()
                except OSError:
                    continue
                total -= size
                removed += 1
                freed += size
                kept -= 1
        return {
            "removed": removed,
            "freed_bytes": freed,
            "kept": kept,
            "kept_bytes": total,
        }

    def clear(self) -> int:
        """Remove every entry (and writer litter); returns files deleted."""
        removed = 0
        for files in (self._entry_files(), self._litter_files()):
            for path in files:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        for kind in _KINDS:
            bucket = self.root / kind
            if bucket.is_dir():
                for sub in sorted(bucket.glob("*")):
                    try:
                        sub.rmdir()
                    except OSError:
                        pass
                try:
                    bucket.rmdir()
                except OSError:
                    pass
        return removed

    def __repr__(self) -> str:
        return f"<ProfileCache {self.root}>"


def resolve_cache(
    spec: Union[None, bool, _PathLike, ProfileCache],
) -> Optional[ProfileCache]:
    """Normalise a user-facing cache argument.

    ``None``/``False`` disable disk caching, ``True`` uses the default
    root (env override honoured), a path uses that root, and a
    :class:`ProfileCache` passes through.
    """
    if spec is None or spec is False:
        return None
    if spec is True:
        return ProfileCache()
    if isinstance(spec, ProfileCache):
        return spec
    if isinstance(spec, (str, Path)):
        return ProfileCache(spec)
    raise ConfigurationError(
        f"cache must be None, bool, path, or ProfileCache, got {spec!r}"
    )


# -- CLI -----------------------------------------------------------------------


def _format_bytes(count: int) -> str:
    size = float(count)
    for unit in ("B", "KB", "MB", "GB"):
        if size < 1024 or unit == "GB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024
    return f"{int(size)} B"  # pragma: no cover - loop always returns


@quiet_broken_pipe
def main(argv: Optional[list] = None) -> int:
    """``python -m repro.exp.cache stats|clear|gc [--dir PATH]``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.exp.cache",
        description="Inspect, prune or empty the persistent profile cache.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("stats", "entry counts and sizes per kind"),
        ("clear", "delete every cached entry"),
        ("gc", "prune least-recently-used entries to a size budget"),
    ):
        command = sub.add_parser(name, help=help_text)
        command.add_argument(
            "--dir",
            default=None,
            help=f"cache root (default: ${CACHE_ENV_VAR} or "
            f"{Path('~/.cache/repro/profiles')})",
        )
        if name == "gc":
            command.add_argument(
                "--max-bytes",
                type=int,
                default=None,
                help="size budget in bytes (0 empties the cache; "
                "omitted: remove only crashed-writer litter, keep "
                "every valid entry)",
            )
        if name == "stats":
            command.add_argument(
                "--json",
                action="store_true",
                help="emit the stats dict as one JSON object (for the "
                "sweep service /status endpoint and scripts)",
            )
    args = parser.parse_args(argv)
    cache = ProfileCache(args.dir)
    if args.command == "gc":
        result = cache.gc(max_bytes=args.max_bytes)
        print(
            f"gc {cache.root}: removed {result['removed']} files "
            f"({_format_bytes(result['freed_bytes'])}), kept "
            f"{result['kept']} entries "
            f"({_format_bytes(result['kept_bytes'])})"
        )
    elif args.command == "stats" and args.json:
        print(json.dumps(cache.stats(), sort_keys=True))
    elif args.command == "stats":
        stats = cache.stats()
        print(f"profile cache at {stats['root']}")
        for kind in _KINDS:
            info = stats["kinds"][kind]
            print(
                f"  {kind + 's':10s} {info['entries']:6d} entries  "
                f"{_format_bytes(info['bytes'])}"
            )
        print(
            f"  {'total':10s} {stats['entries']:6d} entries  "
            f"{_format_bytes(stats['bytes'])}"
        )
    elif args.command == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.root}")
    return 0
