"""Property tests at the trace boundary.

A trace's events alone, applied by brute force, give its probabilities and
final state.  A trace survives a JSON round trip and replays, and a golden
trace whose fields are deleted, retyped or resized makes ``telegate replay``
exit 0, 1 or 2 with at most one line on stderr, never a traceback.
"""

import contextlib
import copy
import io
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telegate import (
    MeasurementBasis,
    ProtocolFamily,
    ProtocolSpec,
    StateVector,
    random_involution,
    random_state,
    random_unitary,
)
from telegate.cli import _normalized_events, _pairs_to_amplitudes, main, record_trace
from telegate.protocols import LocalGate
from conftest import (
    computational_projector_probability,
    hadamard_projector_probability,
    naive_embedded_matrix,
    projected_remainder,
)
from reference_states import with_all_pairs

GOLDEN_TRACES = [
    json.loads(path.read_text())
    for path in sorted((Path(__file__).parent / "data").glob("trace-*.json"))
]


def _replay(trace) -> tuple[int, str]:
    """Exit code and stderr of ``telegate replay`` on ``trace`` written as JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.json"
        path.write_text(json.dumps(trace))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["replay", str(path)])
    return code, err.getvalue()


def _apply_events(spec, state, events) -> np.ndarray:
    """The register after ``events`` alone, each gate as a dense embedded
    matrix and each measurement as a brute-force projection whose Born
    probability must be the recorded one."""
    net = with_all_pairs(spec.network([state]))
    register = net.state
    labels = [net.label_at(i) for i in range(register.num_qubits)]
    gates = {op.gate.label: op.gate for op in spec.ops if isinstance(op, LocalGate)}
    amps = register.amplitudes
    for ev in events:
        if ev["type"] == "gate":
            targets = [labels.index(q) for q in ev["qubits"]]
            amps = naive_embedded_matrix(gates[ev["gate"]].matrix, targets, len(labels)) @ amps
        elif ev["type"] == "measure":
            q, basis = labels.index(ev["qubit"]), MeasurementBasis(ev["basis"])
            before = StateVector(len(labels), amps)
            born = (
                computational_projector_probability
                if basis is MeasurementBasis.COMPUTATIONAL
                else hadamard_projector_probability
            )
            assert abs(born(before, q, ev["outcome"]) - ev["probability"]) < 1e-12
            amps = projected_remainder(before, q, basis, ev["outcome"])
            del labels[q]
    return amps


@pytest.mark.parametrize("family", list(ProtocolFamily))
def test_the_events_alone_give_the_final_state(family):
    series_ch = family is ProtocolFamily.SERIES_SIMULTANEOUS_CH
    spec = ProtocolSpec(family, 3, random_involution(5) if series_ch else random_unitary(5))
    state = random_state(3, 6)
    for branch in itertools.product((0, 1), repeat=spec.num_measurements):
        trace = record_trace(spec, state, list(branch))
        final = _pairs_to_amplitudes(trace["final_state"])
        np.testing.assert_allclose(
            _apply_events(spec, state, trace["events"]), final, rtol=0, atol=1e-10
        )


@st.composite
def _recordings(draw):
    family = draw(st.sampled_from(list(ProtocolFamily)))
    n = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    series_ch = family is ProtocolFamily.SERIES_SIMULTANEOUS_CH
    payload = random_involution(seed) if series_ch else random_unitary(seed)
    spec = ProtocolSpec(family, n, payload)
    bits = spec.num_measurements
    branch = draw(st.lists(st.integers(0, 1), min_size=bits, max_size=bits))
    return spec, random_state(n, seed), branch


@settings(max_examples=40, deadline=None)
@given(_recordings())
def test_a_trace_round_trips_through_json_and_replays(recording):
    spec, state, branch = recording
    trace = record_trace(spec, state, branch)
    loaded = json.loads(json.dumps(trace))
    assert loaded == trace
    assert _replay(loaded) == (0, "")
    input_state = StateVector(spec.n, _pairs_to_amplitudes(loaded["input"]))
    replayed = record_trace(spec, input_state, loaded["branch"])
    assert _normalized_events(replayed["events"]) == _normalized_events(loaded["events"])
    assert replayed["final_state_hash"] == loaded["final_state_hash"]


# JSON values, with numbers past the float range and at its edges drawn often
_EXTREMES = st.sampled_from([10**400, -(10**400), 1e300, float("inf"), float("nan")])
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
_JSON = st.recursive(
    _SCALARS | _EXTREMES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


def _mutate(data, trace) -> None:
    """Delete, retype or resize one field of ``trace``, at any depth."""
    parent, key = trace, data.draw(st.sampled_from(sorted(trace)))
    while isinstance(parent[key], (dict, list)) and parent[key] and data.draw(st.booleans()):
        node = parent[key]
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(keys))
    value = parent[key]
    how = data.draw(st.sampled_from(["delete", "retype", "resize"]))
    if how == "delete":
        del parent[key]
    elif how == "resize" and isinstance(value, (list, str)) and value:
        size = data.draw(st.integers(0, 2 * len(value) + 1))
        parent[key] = (value * (size // len(value) + 1))[:size]
    else:
        parent[key] = data.draw(_JSON)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(GOLDEN_TRACES), st.integers(1, 3), st.data())
def test_a_fuzzed_trace_exits_with_a_code_never_a_traceback(golden, mutations, data):
    trace = copy.deepcopy(golden)
    for _ in range(mutations):
        if trace:
            _mutate(data, trace)
    code, err = _replay(trace)
    assert code in (0, 1, 2)
    assert len(err.splitlines()) == (0 if code == 0 else 1), err
