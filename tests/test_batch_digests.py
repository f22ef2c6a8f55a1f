"""The verifier's batch results, pinned by digest.

``data/batch-digests.json`` holds one SHA-256 per case: every family at
n = 2..6, plus non-involutory ``series-ch`` at n = 3..5, each over two
seeded Haar inputs and one basis input.  A digest covers ``_force_all``'s
probabilities and fidelities (rounded to 1e-12), its impossibility flags and
its ledger; for n <= 5 it also covers the final register rows of the same
batch run (rounded to 1e-12).  Any change to what the batch computes shows
here.  Regenerate the fixture only for a deliberate change of results:
``PYTHONPATH=src python tests/test_batch_digests.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from telegate import (
    ProtocolFamily,
    ProtocolSpec,
    basis_state,
    build_batch,
    random_involution,
    random_state,
    random_unitary,
    run_protocol,
    topology_for,
)
from telegate.verify import _force_all

FIXTURE = Path(__file__).parent / "data" / "batch-digests.json"
PAYLOAD_SEED = 11
INPUT_SEED = 12
ROWS_UP_TO_N = 5


def _cases():
    for family in ProtocolFamily:
        for n in range(2, 7):
            series_ch = family is ProtocolFamily.SERIES_SIMULTANEOUS_CH
            payload = (random_involution if series_ch else random_unitary)(PAYLOAD_SEED + n)
            yield f"{family.value} {n}", ProtocolSpec(family, n, payload), True
    for n in range(3, 6):
        payload = random_unitary(PAYLOAD_SEED + n)
        spec = ProtocolSpec(ProtocolFamily.SERIES_SIMULTANEOUS_CH, n, payload)
        yield f"{spec.family.value} {n} non-involutory", spec, False


def _inputs(n: int):
    return [
        random_state(n, INPUT_SEED + n),
        random_state(n, INPUT_SEED + 100 + n),
        basis_state(n, ("10" * n)[:n]),
    ]


def _rounded(values: np.ndarray) -> list:
    """``values`` rounded to 1e-12, with -0.0 read as 0.0."""
    if np.iscomplexobj(values):
        values = np.stack([values.real, values.imag], axis=-1)
    return (np.round(values, 12) + 0.0).tolist()


def batch_digests() -> dict[str, str]:
    """Case name -> the digest of its batch results."""
    digests = {}
    for name, spec, enforce_involution in _cases():
        inputs = _inputs(spec.n)
        probabilities, fidelities, impossible, ledger = _force_all(
            spec, inputs, enforce_involution
        )
        pinned = [
            _rounded(probabilities),
            _rounded(fidelities),
            impossible.tolist(),
            [ledger.ebits, ledger.cbits],
        ]
        if spec.n <= ROWS_UP_TO_N:
            net = build_batch(topology_for(spec.family), spec.n, inputs)
            run_protocol(spec, net, None, enforce_involution=enforce_involution)
            pinned.append(_rounded(net.register))
        digests[name] = hashlib.sha256(json.dumps(pinned).encode()).hexdigest()
    return digests


def test_batches_match_their_recorded_digests():
    recorded = json.loads(FIXTURE.read_text())
    assert len(recorded) == 18
    assert batch_digests() == recorded


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(batch_digests(), indent=1) + "\n")
