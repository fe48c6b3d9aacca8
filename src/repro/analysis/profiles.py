"""Work profiles: attribute ledger work to algorithm phases.

Every charge in the library carries a tag (``greedy``, ``add_match``,
``dict_batch``, ...).  :func:`work_profile` rolls the per-tag counters up
into the coarse phases of Fig. 2, giving the breakdown the §5 analysis
reasons about (light vs heavy vs final work, data-structure overhead).

The per-tag counters live in two equivalent places: the ledger's own
``by_tag`` dict (ground truth) and the ``repro_ledger_work_by_tag_total``
metric family, which :func:`repro.workloads.runner.run_stream` advances
by each batch's ``by_tag`` delta when it observes a
:class:`~repro.core.DynamicMatching`.  :func:`work_profile` accepts
either source, so a live service can compute the E13 phase attribution
from a metrics scrape without touching the algorithm.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.parallel.ledger import Ledger

#: Metric family the observer publishes per-batch per-tag work into.
WORK_BY_TAG_METRIC = "repro_ledger_work_by_tag_total"

# tag -> coarse phase
_PHASES: Dict[str, str] = {
    # static matcher
    "par_sort": "greedy match",
    "par_init": "greedy match",
    "par_assign": "greedy match",
    "par_delete": "greedy match",
    "update_top": "greedy match",
    "find_next": "greedy match",
    "counting_sort": "greedy match",
    "radix_sort": "greedy match",
    "group_by": "greedy match",
    "semisort": "greedy match",
    "sum_by": "greedy match",
    "remove_duplicates": "greedy match",
    "random_permutation": "greedy match",
    "seq_sort": "greedy match",
    "seq_index": "greedy match",
    "seq_match": "greedy match",
    # structure edits
    "add_match": "structure edits",
    "remove_match": "structure edits",
    "add_cross_edge": "structure edits",
    "remove_cross_edge": "structure edits",
    "register": "structure edits",
    "level_scan": "adjust cross edges",
    "adjust_dedupe": "adjust cross edges",
    # batch bookkeeping
    "free_check": "batch bookkeeping",
    "insert_filter": "batch bookkeeping",
    "is_heavy": "batch bookkeeping",
    "settle_stolen": "batch bookkeeping",
    # hash-table substrate
    "dict_batch": "hash tables",
    "dict_rehash": "hash tables",
    "dict_elements": "hash tables",
}


def tag_work(source) -> Dict[str, float]:
    """Per-tag work from either accounting source.

    ``source`` is a :class:`Ledger` (reads ``by_tag`` directly) or a
    :class:`repro.obs.MetricsRegistry` (reads the published
    ``repro_ledger_work_by_tag_total`` family; empty dict when the
    registry has none).
    """
    if isinstance(source, Ledger):
        return dict(source.by_tag)
    fam = source.get(WORK_BY_TAG_METRIC)
    if fam is None:
        return {}
    return {labels["tag"]: child.value for labels, child in fam.samples()}


def work_profile(source) -> List[Tuple[str, float, float]]:
    """Roll up per-tag work (from a ledger or a metrics registry) into
    phases.

    Returns ``[(phase, work, fraction)]`` sorted by work, descending.
    Unrecognized tags are grouped under "other".
    """
    phases: Dict[str, float] = {}
    for tag, work in tag_work(source).items():
        phase = _PHASES.get(tag, "other")
        phases[phase] = phases.get(phase, 0.0) + work
    total = sum(phases.values())
    rows = [
        (phase, work, work / total if total else 0.0)
        for phase, work in phases.items()
    ]
    rows.sort(key=lambda r: -r[1])
    return rows


def untagged_work(ledger: Ledger) -> float:
    """Work charged without a tag (should stay near zero — a canary for
    accounting gaps)."""
    return ledger.work - sum(ledger.by_tag.values())
