"""The verifier's batch results, pinned by digest.

``data/batch-digests.json`` holds one SHA-256 per case: every family at
n = 2..6, plus non-involutory ``series-ch`` at n = 3..5, each over two
seeded Haar inputs and one basis input.  A digest covers ``_force_all``'s
probabilities and fidelities (rounded to 1e-12), its impossibility flags and
its ledger; it also covers the final register rows of the same batch run,
rounded to 1e-12 and hashed as little-endian doubles: every row for
n <= 5, and every 16th branch of each input at n = 6.  Any change to what
the batch computes shows here.  Regenerate the fixture only for a
deliberate change of results: ``PYTHONPATH=src python tests/test_batch_digests.py``.
"""

import hashlib
import json
from collections import defaultdict
from pathlib import Path

import numpy as np

from telegate import (
    ProtocolFamily,
    ProtocolSpec,
    basis_state,
    random_involution,
    random_state,
    random_unitary,
    run_protocol,
)
from telegate.verify import _force_all

FIXTURE = Path(__file__).parent / "data" / "batch-digests.json"
PAYLOAD_SEED = 11
INPUT_SEED = 12
ROWS_UP_TO_N = 5
ROW_STRIDE = 16  # above ROWS_UP_TO_N, the final rows of every 16th branch


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
    return (np.round(values, 12) + 0.0).tolist()


def _rounded_bytes(values: np.ndarray) -> bytes:
    """``values`` rounded to 1e-12, with -0.0 read as 0.0, as little-endian doubles."""
    return (np.round(values, 12) + 0.0).astype("<c16").tobytes()


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
        net = spec.network(inputs)
        run_protocol(spec, net, None, enforce_involution=enforce_involution)
        rows = net.register.reshape(len(inputs), 1 << spec.num_measurements, -1)
        stride = 1 if spec.n <= ROWS_UP_TO_N else ROW_STRIDE
        digest = hashlib.sha256(json.dumps(pinned).encode())
        digest.update(_rounded_bytes(rows[:, ::stride]))
        digests[name] = digest.hexdigest()
    return digests


def test_batches_match_their_recorded_digests():
    recorded = json.loads(FIXTURE.read_text())
    assert len(recorded) == 18
    assert batch_digests() == recorded


def test_only_the_n2_pair_shares_a_digest():
    # parallel-cu and series-ncu are the same protocol at n = 2 (one pair,
    # the same payload); every other case must pin results of its own
    cases = defaultdict(list)
    for name, digest in json.loads(FIXTURE.read_text()).items():
        cases[digest].append(name)
    shared = [names for names in cases.values() if len(names) > 1]
    assert shared == [["parallel-cu 2", "series-ncu 2"]]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(batch_digests(), indent=1) + "\n")
