"""Correctness checks applied to every benchmark trial.

A trial passes when it completed within its ``max_rounds`` horizon and
its counters obey the conservation identities of one dissemination run:

* ``sessions == aborted + data_transfers``
* ``recoded_packets == sessions``
* ``data_transfers == useful + redundant + lost``
* ``duplicated <= data_transfers - lost``
* ``data_until_complete[n] >= k`` for every completed node (or
  interest pair, with that content's ``k``)
* every completion round lies in ``[0, rounds]``

:func:`check_result` checks a result object
(:class:`~repro.gossip.metrics.DisseminationResult` or
:class:`~repro.content.metrics.CatalogueResult`).  :func:`check_record`
checks the flat ``key_metrics()`` record a fleet aggregate keeps, where
the per-node identities are only visible through their images: the
completed fraction, a non-negative overhead and a mean completion round
inside the run.
"""

from __future__ import annotations

import dataclasses
import json

__all__ = [
    "canonical",
    "check_record",
    "check_result",
    "tally",
    "work_counts",
]

def _counter_identities(c, violations: list[str]) -> None:
    """The identities shared by results and records (``c`` maps names)."""
    if c["sessions"] != c["aborted"] + c["data_transfers"]:
        violations.append(
            f"sessions {c['sessions']} != aborted {c['aborted']} "
            f"+ data_transfers {c['data_transfers']}"
        )
    if c["recoded_packets"] != c["sessions"]:
        violations.append(
            f"recoded_packets {c['recoded_packets']} != sessions "
            f"{c['sessions']}"
        )
    delivered = c["useful_transfers"] + c["redundant_transfers"]
    if c["data_transfers"] != delivered + c["lost_transfers"]:
        violations.append(
            f"data_transfers {c['data_transfers']} != useful + redundant "
            f"+ lost ({delivered + c['lost_transfers']})"
        )
    if c["duplicated_transfers"] > c["data_transfers"] - c["lost_transfers"]:
        violations.append(
            f"duplicated {c['duplicated_transfers']} > data_transfers - lost "
            f"({c['data_transfers'] - c['lost_transfers']})"
        )


_COUNTERS = (
    "sessions",
    "aborted",
    "data_transfers",
    "recoded_packets",
    "useful_transfers",
    "redundant_transfers",
    "lost_transfers",
    "duplicated_transfers",
)


def check_result(result, max_rounds: int) -> list[str]:
    """Violations of one finished trial's result object (empty: pass)."""
    violations: list[str] = []
    if not result.all_complete:
        violations.append(
            f"incomplete after {result.rounds} rounds "
            f"({result.completed_count} done)"
        )
    if result.rounds > max_rounds:
        violations.append(f"rounds {result.rounds} > max_rounds {max_rounds}")
    _counter_identities(
        {name: getattr(result, name) for name in _COUNTERS}, violations
    )
    ks = getattr(result, "content_ks", None)
    for key, completed_at in result.completion_rounds.items():
        k = result.k if ks is None else ks[key[0]]
        shipped = result.data_until_complete.get(key)
        if shipped is None or shipped < k:
            violations.append(
                f"data_until_complete[{key}] = {shipped} < k = {k}"
            )
        if not 0 <= completed_at <= result.rounds:
            violations.append(
                f"completion round {completed_at} of {key} outside "
                f"[0, {result.rounds}]"
            )
    if ks is not None and not (
        result.cache_served <= result.edge_served <= result.data_transfers
    ):
        violations.append(
            f"cache_served {result.cache_served} <= edge_served "
            f"{result.edge_served} <= data_transfers "
            f"{result.data_transfers} does not hold"
        )
    return violations


def check_record(record: dict[str, object], max_rounds: int) -> list[str]:
    """Violations of one fleet trial record (``key_metrics()`` plus ids)."""
    violations: list[str] = []
    if record.get("completed_fraction") != 1.0:
        violations.append(
            f"completed_fraction {record.get('completed_fraction')} != 1"
        )
    if record["rounds"] > max_rounds:
        violations.append(f"rounds {record['rounds']} > max_rounds {max_rounds}")
    _counter_identities(record, violations)
    overhead = record.get("overhead")
    if overhead is None or overhead < 0:
        violations.append(f"overhead {overhead} < 0: some node got < k packets")
    mean_round = record.get("average_completion_round")
    if mean_round is None or not 0 <= mean_round <= record["rounds"]:
        violations.append(
            f"average_completion_round {mean_round} outside "
            f"[0, {record['rounds']}]"
        )
    return violations


def tally(violations: list[list[str]]) -> tuple[int, int, list[str]]:
    """``(attempted, failed, first messages)`` over per-trial violations."""
    failed = sum(1 for v in violations if v)
    return len(violations), failed, [msg for v in violations for msg in v][:20]


def _plain(value):
    if hasattr(value, "snapshot"):  # OpCounter
        return value.snapshot()
    if isinstance(value, dict):
        return {
            ",".join(map(str, key)) if isinstance(key, tuple) else str(key): v
            for key, v in value.items()
        }
    return value


def canonical(result) -> str:
    """Every field of a result object as sorted JSON, for byte comparison."""
    payload = {
        f.name: _plain(getattr(result, f.name))
        for f in dataclasses.fields(result)
    }
    payload["type"] = type(result).__name__
    return json.dumps(payload, sort_keys=True)


def work_counts(items) -> dict[str, int]:
    """Summed exact work counts of trial results or fleet records.

    Results contribute ``rounds``, ``sessions`` and, where they carry
    operation counters, ``ops.recode.<op>`` / ``ops.decode.<op>``
    totals; records contribute ``rounds`` and ``sessions`` only.
    """
    counts = {"rounds": 0, "sessions": 0}
    for item in items:
        if isinstance(item, dict):
            counts["rounds"] += item["rounds"]
            counts["sessions"] += item["sessions"]
            continue
        counts["rounds"] += item.rounds
        counts["sessions"] += item.sessions
        for side in ("recode", "decode"):
            ops = getattr(item, f"{side}_ops", None)
            if ops is None:
                continue
            for op, n in ops.counts.items():
                key = f"ops.{side}.{op}"
                counts[key] = counts.get(key, 0) + n
    return counts
