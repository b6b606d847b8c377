"""The unified result store: append-only JSONL with a stable schema.

Every executed scenario becomes one :class:`ScenarioRecord` -- a plain
JSON object with a ``schema`` version, the full scenario spec, a flat
``axes`` view for filtering, raw metric counters for the shared and
partitioned runs, the partition plan, and a ``timing`` block that is
explicitly *excluded* from identity comparisons (wall times differ
between runs; everything else must not).

Derived quantities (miss-reduction factor, CPI improvement) are
computed from the raw counters on access rather than stored, so the
JSONL stays pure JSON (no ``Infinity`` literals) and derived
definitions can evolve without invalidating old stores.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.method import cpi_improvement, reduction_factor
from repro.errors import ConfigurationError
from repro.exp.scenario import Scenario, content_hash

__all__ = ["ResultStore", "ScenarioRecord", "SCHEMA_VERSION"]

#: Bump when the record layout changes incompatibly.
SCHEMA_VERSION = 1

_PathLike = Union[str, Path]


class ScenarioRecord:
    """One scenario's result: a schema-stable dict with typed accessors."""

    def __init__(self, payload: Dict[str, Any]):
        if payload.get("schema") != SCHEMA_VERSION:
            raise ConfigurationError(
                f"record schema {payload.get('schema')!r} != "
                f"{SCHEMA_VERSION} (regenerate the store)"
            )
        self.payload = payload

    # -- identity ----------------------------------------------------------

    @property
    def scenario_id(self) -> str:
        return self.payload["scenario_id"]

    @property
    def profile_key(self) -> Optional[str]:
        return self.payload["profile_key"]

    @property
    def scenario(self) -> Scenario:
        """The spec, reconstructed."""
        return Scenario.from_dict(self.payload["scenario"])

    @property
    def axes(self) -> Dict[str, Any]:
        """Flat view of the record for filtering and tables."""
        return self.payload["axes"]

    @property
    def mode(self) -> str:
        return self.payload["axes"]["mode"]

    # -- metrics -----------------------------------------------------------

    @property
    def shared(self) -> Optional[Dict[str, Any]]:
        """Raw counters of the shared-cache run (None if not run)."""
        return self.payload["metrics"]["shared"]

    @property
    def partitioned(self) -> Optional[Dict[str, Any]]:
        """Raw counters of the partitioned run (None for shared mode)."""
        return self.payload["metrics"]["partitioned"]

    @property
    def plan(self) -> Optional[Dict[str, int]]:
        """owner -> units of the optimized plan (set mode only)."""
        plan = self.payload["plan"]
        return None if plan is None else plan["units_by_owner"]

    @property
    def predicted_misses(self) -> Optional[float]:
        plan = self.payload["plan"]
        return None if plan is None else plan["predicted_misses"]

    @property
    def compositionality_max_rel_diff(self) -> Optional[float]:
        comp = self.payload["compositionality"]
        return None if comp is None else comp["max_relative_difference"]

    # -- derived headline numbers -----------------------------------------

    @property
    def shared_miss_rate(self) -> Optional[float]:
        shared = self.shared
        return None if shared is None else shared["miss_rate"]

    @property
    def partitioned_miss_rate(self) -> Optional[float]:
        part = self.partitioned
        return None if part is None else part["miss_rate"]

    @property
    def miss_reduction_factor(self) -> Optional[float]:
        """Shared misses / partitioned misses; ``inf`` for a perfect run."""
        if self.shared is None or self.partitioned is None:
            return None
        return reduction_factor(
            self.shared["misses"], self.partitioned["misses"]
        )

    @property
    def cpi_improvement(self) -> Optional[float]:
        if self.shared is None or self.partitioned is None:
            return None
        return cpi_improvement(
            self.shared["mean_cpi"], self.partitioned["mean_cpi"]
        )

    # -- comparisons -------------------------------------------------------

    def canonical(self) -> Dict[str, Any]:
        """The record minus the timing block (for identity checks)."""
        return {k: v for k, v in self.payload.items() if k != "timing"}

    def to_json_line(self) -> str:
        return json.dumps(self.payload, sort_keys=True)

    def __repr__(self) -> str:
        return f"<ScenarioRecord {self.scenario_id} {self.axes}>"


class ResultStore:
    """Append-only collection of scenario records, optionally on disk.

    With a ``path`` the store mirrors every appended record to a JSONL
    file as it arrives (results stream; a crashed sweep keeps what it
    finished).  ``ResultStore.load(path)`` reads one back.
    """

    def __init__(self, path: Optional[_PathLike] = None, append: bool = False):
        self.path = Path(path) if path is not None else None
        self.records: List[ScenarioRecord] = []
        if self.path is not None:
            if self.path.exists() and append:
                for record in self._read(self.path):
                    self.records.append(record)
            else:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self.path.write_text("")

    # -- building ----------------------------------------------------------

    def append(self, record: Union[ScenarioRecord, Dict[str, Any]]) -> ScenarioRecord:
        """Add one record, mirroring it to the JSONL file if attached.

        The mirror write is one ``os.write`` on an ``O_APPEND``
        descriptor -- the kernel serialises the offset update, so
        concurrent appenders (a sweep service worker fleet and a local
        run sharing one store file) interleave whole lines, never
        torn ones.  No userspace buffering: the line is durable in the
        page cache when this returns, so a crashed sweep keeps every
        record it streamed.
        """
        if not isinstance(record, ScenarioRecord):
            record = ScenarioRecord(record)
        self.records.append(record)
        if self.path is not None:
            data = (record.to_json_line() + "\n").encode("utf-8")
            fd = os.open(
                str(self.path),
                os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                0o644,
            )
            try:
                os.write(fd, data)
            finally:
                os.close(fd)
        return record

    @staticmethod
    def _read(path: Path) -> Iterator[ScenarioRecord]:
        for line in path.read_text().splitlines():
            line = line.strip()
            if line:
                yield ScenarioRecord(json.loads(line))

    @classmethod
    def load(cls, path: _PathLike) -> "ResultStore":
        """Read a store back from its JSONL file (in-memory copy)."""
        store = cls()
        for record in cls._read(Path(path)):
            store.records.append(record)
        return store

    # -- querying ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[ScenarioRecord]:
        return iter(self.records)

    def filter(
        self,
        predicate: Optional[Callable[[ScenarioRecord], bool]] = None,
        **axes: Any,
    ) -> "ResultStore":
        """Records matching every given axis value (and ``predicate``).

        ``store.filter(workload="mpeg2", solver="dp")`` matches against
        the flat ``axes`` view of each record.  ``scenario_id`` and
        ``profile_key`` match the record's identity fields instead
        (``profile_key=None`` selects the records that needed no
        profiling).  Results keep append order.
        """
        identity = {
            key: axes.pop(key) for key in ("scenario_id", "profile_key")
            if key in axes
        }
        subset = ResultStore()
        for record in self.records:
            if any(getattr(record, k) != v for k, v in identity.items()):
                continue
            if any(record.axes.get(k) != v for k, v in axes.items()):
                continue
            if predicate is not None and not predicate(record):
                continue
            subset.records.append(record)
        return subset

    #: Columns to_table understands beyond raw axis names.
    DERIVED_COLUMNS: Dict[str, Callable[[ScenarioRecord], Any]] = {
        "scenario_id": lambda r: r.scenario_id,
        "shared_miss_rate": lambda r: r.shared_miss_rate,
        "partitioned_miss_rate": lambda r: r.partitioned_miss_rate,
        "miss_reduction_factor": lambda r: r.miss_reduction_factor,
        "cpi_improvement": lambda r: r.cpi_improvement,
        "compositionality": lambda r: r.compositionality_max_rel_diff,
        "predicted_misses": lambda r: r.predicted_misses,
        "shared_misses": lambda r: None if r.shared is None else r.shared["misses"],
        "partitioned_misses":
            lambda r: None if r.partitioned is None else r.partitioned["misses"],
    }

    #: Default to_table columns.
    DEFAULT_COLUMNS = (
        "workload", "mode", "l2_kb", "l2_ways", "n_cpus", "solver", "seed",
        "shared_miss_rate", "partitioned_miss_rate", "miss_reduction_factor",
        "cpi_improvement",
    )

    def to_table(
        self, columns: Optional[Sequence[str]] = None
    ) -> Tuple[List[str], List[List[Any]]]:
        """(header, rows) over all records.

        Columns name either a flat axis (``workload``, ``l2_kb``, ...)
        or a derived metric (see :attr:`DERIVED_COLUMNS`).
        """
        columns = list(columns if columns is not None else self.DEFAULT_COLUMNS)
        rows = []
        for record in self.records:
            row = []
            for column in columns:
                if column in self.DERIVED_COLUMNS:
                    row.append(self.DERIVED_COLUMNS[column](record))
                else:
                    row.append(record.axes.get(column))
            rows.append(row)
        return columns, rows

    # -- identity ----------------------------------------------------------

    def canonical(self) -> List[Dict[str, Any]]:
        """All records minus timing blocks, in append order."""
        return [record.canonical() for record in self.records]

    def fingerprint(self) -> str:
        """Stable hash of the canonical records (timing excluded).

        Two runs of the same grid -- any worker count -- must agree.
        """
        return content_hash(self.canonical())
