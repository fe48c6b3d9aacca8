"""Structure diagnostics: level histograms, type counts, sample-size stats.

Operational visibility into the leveled structure — what the §5 analysis
reasons about, exposed as data: how many matches per level, how full
their sample spaces still are (the lazy scheme lets live samples shrink
below the settle-time size), how many cross edges each match carries
relative to its heavy threshold.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.dynamic_matching import DynamicMatching
from repro.core.level_structure import EDGE_TYPE_CODES, EdgeType


@dataclass(frozen=True)
class LevelStats:
    """Aggregates for all matches on one level."""

    level: int
    matches: int
    total_settle_size: int
    total_live_samples: int
    total_cross: int
    max_cross_fill: float  # max over matches of |C(m)| / heavy threshold

    @property
    def mean_sample_retention(self) -> float:
        """Live samples / settle-time samples — 1.0 right after settling,
        decaying as the user deletes sampled edges (laziness at work)."""
        if self.total_settle_size == 0:
            return 1.0
        return self.total_live_samples / self.total_settle_size


@dataclass(frozen=True)
class StructureReport:
    """Snapshot of the whole structure's composition."""

    num_edges: int
    type_counts: Dict[str, int]
    levels: List[LevelStats]

    @property
    def num_matches(self) -> int:
        return self.type_counts.get(EdgeType.MATCHED.value, 0)

    @property
    def max_level(self) -> int:
        return max((l.level for l in self.levels), default=-1)


def structure_report(dm: DynamicMatching) -> StructureReport:
    """Build a :class:`StructureReport` in O(structure size) from the
    structure's snapshot columns: one read-only, uncharged path for
    either backend."""
    s = dm.structure
    cols = s.snapshot_columns()
    type_counts = dict(Counter(EDGE_TYPE_CODES[c].value for c in cols["edges"]["type"]))

    m = cols["matches"]
    per_level: Dict[int, List[Tuple[int, int, int]]] = {}
    for level, settle, slen, clen in zip(m["level"], m["settle"], m["slen"], m["clen"]):
        per_level.setdefault(level, []).append((settle, slen, clen))

    levels: List[LevelStats] = []
    for level in sorted(per_level):
        rows = per_level[level]
        settle, slen, clen = zip(*rows)
        threshold = s.heavy_factor * (s.rank**2) * (s.alpha**level)
        max_fill = 0.0
        if threshold > 0:
            max_fill = max(clen) / threshold
        levels.append(
            LevelStats(
                level=level,
                matches=len(rows),
                total_settle_size=sum(settle),
                total_live_samples=sum(slen),
                total_cross=sum(clen),
                max_cross_fill=max_fill,
            )
        )
    return StructureReport(
        num_edges=len(cols["edges"]["eid"]), type_counts=type_counts, levels=levels
    )


def format_report(report: StructureReport) -> str:
    """Human-readable multi-line rendering."""
    lines = [
        f"edges: {report.num_edges}  "
        + "  ".join(f"{k}: {v}" for k, v in sorted(report.type_counts.items()))
    ]
    for ls in report.levels:
        lines.append(
            f"  level {ls.level}: {ls.matches} matches, "
            f"samples {ls.total_live_samples}/{ls.total_settle_size} live, "
            f"{ls.total_cross} cross (max fill {ls.max_cross_fill:.2f})"
        )
    return "\n".join(lines)
