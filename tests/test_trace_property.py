"""Property tests at the trace boundary.

A trace survives a JSON round trip and replays, and a golden trace whose
fields are deleted, retyped or resized makes ``telegate replay`` exit 0, 1
or 2 with at most one line on stderr, never a traceback.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from telegate import (
    ProtocolFamily,
    ProtocolSpec,
    StateVector,
    random_involution,
    random_state,
    random_unitary,
)
from telegate.cli import _normalized_events, _pairs_to_amplitudes, main, record_trace

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
