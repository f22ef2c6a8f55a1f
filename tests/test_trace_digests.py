"""The trace format, pinned by digest.

``data/trace-digests.json`` holds one SHA-256 per forced trace: every family,
n = 2..5, every third branch (``itertools.product`` order), one seeded
payload and one seeded Haar input per (family, n).  A digest covers the
normalized events (probabilities rounded to 1e-12) and the final state hash,
so any change to what a trace records, or in which order, shows here.
Regenerate the fixture only for a deliberate schema change:
``PYTHONPATH=src python tests/test_trace_digests.py``.
"""

import hashlib
import itertools
import json
from pathlib import Path

from telegate import ProtocolFamily, ProtocolSpec, random_involution, random_state, random_unitary
from telegate.cli import _normalized_events, record_trace

FIXTURE = Path(__file__).parent / "data" / "trace-digests.json"
PAYLOAD_SEED = 8
INPUT_SEED = 9


def trace_digests() -> dict[str, list[str]]:
    """``"family n"`` -> the digests of its traces, in branch order."""
    digests = {}
    for family in ProtocolFamily:
        for n in range(2, 6):
            series_ch = family is ProtocolFamily.SERIES_SIMULTANEOUS_CH
            payload = (random_involution if series_ch else random_unitary)(PAYLOAD_SEED)
            spec = ProtocolSpec(family, n, payload)
            state = random_state(n, INPUT_SEED)
            branches = list(itertools.product((0, 1), repeat=spec.num_measurements))[::3]
            digests[f"{family.value} {n}"] = [
                _digest(record_trace(spec, state, list(branch))) for branch in branches
            ]
    return digests


def _digest(trace: dict) -> str:
    pinned = [_normalized_events(trace["events"]), trace["final_state_hash"]]
    return hashlib.sha256(json.dumps(pinned).encode()).hexdigest()


def test_traces_match_their_recorded_digests():
    recorded = json.loads(FIXTURE.read_text())
    assert sum(map(len, recorded.values())) == 348
    assert trace_digests() == recorded


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(trace_digests(), indent=1) + "\n")
