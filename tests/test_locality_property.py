"""Property test: a local gate, plain or conditional, is refused exactly when
the party does not hold the qubit label it names, whatever the bits it is
conditioned on.  A measured label and a name that was never a label are held
by no party."""

from hypothesis import given, settings
from hypothesis import strategies as st

from telegate import (
    LocalityViolation,
    ProtocolFamily,
    ProtocolSpec,
    hadamard,
    measurement_schedule,
    pauli_x,
    random_state,
)
from telegate.network import Unforced
from reference_states import paper_layout


def _owner(label: str, n: int) -> int:
    """Holder of a stable label, read off the documented layout: every ``ti``
    belongs to the target n, every other label to the party its number names."""
    return n if label[0] == "t" else int(label[1:])


@st.composite
def _cases(draw):
    family = draw(st.sampled_from(list(ProtocolFamily)))
    n = draw(st.integers(2, 4))
    party = draw(st.integers(1, n + 1))  # n + 1 is no party
    # every label the network ever has, and one no network has
    spec = ProtocolSpec(family, n, hadamard())
    edges = spec.network([random_state(n, 0)]).bell_pairs
    label = draw(st.sampled_from(paper_layout(edges, n) + ["q0"]))
    schedule = measurement_schedule(spec)
    prefix = schedule[: draw(st.integers(0, len(schedule)))]
    if draw(st.booleans()):  # a batch, its outcomes left open
        outcomes = [Unforced(k) for k in range(len(prefix))]
    else:
        outcomes = draw(st.lists(st.integers(0, 1), min_size=len(prefix), max_size=len(prefix)))
    # None: a plain gate; otherwise the bits a correction is conditioned on
    bits = draw(st.none() | st.lists(st.sampled_from([0, 1, *outcomes]), min_size=1, max_size=3))
    return spec, party, label, list(zip(prefix, outcomes)), bits


@settings(max_examples=200, deadline=None)
@given(_cases())
def test_gate_refused_iff_label_is_not_held(case):
    spec, party, label, measured, bits = case
    n = spec.n
    unforced = any(isinstance(outcome, Unforced) for _, outcome in measured)
    inputs = [random_state(n, 0), random_state(n, 1)] if unforced else [random_state(n, 0)]
    net = spec.network(inputs)
    gone = set()
    for (who, measured_label, basis), outcome in measured:
        net.local_measure(who, measured_label, basis, outcome)
        gone.add(measured_label)
    tags = []
    if bits is not None and party <= n:
        sender = 1 if party != 1 else 2
        for k, bit in enumerate(bits):
            net.send_cbit(sender, party, bit, f"m{k}")
            tags.append(f"m{k}")

    foreign = label == "q0" or label in gone or _owner(label, n) != party
    try:
        if bits is None:
            net.local_apply(party, pauli_x(), [label])
        else:
            net.apply_if(party, pauli_x(), [label], tags)
    except LocalityViolation:
        assert foreign
    else:
        assert not foreign
