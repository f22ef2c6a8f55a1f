"""Property test: a local gate, plain or conditional, is refused exactly when
the party does not hold the qubit, whatever the bits it is conditioned on."""

from hypothesis import given, settings
from hypothesis import strategies as st

from telegate import (
    LocalityViolation,
    ProtocolFamily,
    ProtocolSpec,
    build_network,
    hadamard,
    measurement_schedule,
    pauli_x,
    random_state,
    topology_for,
)
from telegate.network import Unforced, build_batch


def _owner(label: str, n: int) -> int:
    """Holder of a stable label, read off the documented layout: every ``ti``
    belongs to the target n, every other label to the party its number names."""
    return n if label[0] == "t" else int(label[1:])


@st.composite
def _cases(draw):
    family = draw(st.sampled_from(list(ProtocolFamily)))
    n = draw(st.integers(2, 4))
    party = draw(st.integers(1, n + 1))  # n + 1 is no party
    index = draw(st.integers(-2, 3 * n))
    spec = ProtocolSpec(family, n, hadamard())
    schedule = measurement_schedule(spec)
    prefix = schedule[: draw(st.integers(0, len(schedule)))]
    if draw(st.booleans()):  # a batch, its outcomes left open
        outcomes = [Unforced(k) for k in range(len(prefix))]
    else:
        outcomes = draw(st.lists(st.integers(0, 1), min_size=len(prefix), max_size=len(prefix)))
    # None: a plain gate; otherwise the bits a correction is conditioned on
    bits = draw(st.none() | st.lists(st.sampled_from([0, 1, *outcomes]), min_size=1, max_size=3))
    return spec, party, index, list(zip(prefix, outcomes)), bits


@settings(max_examples=200, deadline=None)
@given(_cases())
def test_gate_refused_iff_index_is_foreign(case):
    spec, party, index, measured, bits = case
    n = spec.n
    kind = topology_for(spec.family)
    unforced = any(isinstance(outcome, Unforced) for _, outcome in measured)
    if unforced:
        net = build_batch(kind, n, [random_state(n, 0), random_state(n, 1)])
    else:
        net, _ = build_network(kind, n, random_state(n, 0))
    live = [net.label_at(i) for i in range(3 * n - 2)]
    for (who, label, basis), outcome in measured:
        net.local_measure(who, net.qubit_index(label), basis, outcome)
        live.remove(label)
    tags = []
    if bits is not None and party <= n:
        sender = 1 if party != 1 else 2
        for k, bit in enumerate(bits):
            net.send_cbit(sender, party, bit, f"m{k}")
            tags.append(f"m{k}")

    foreign = not 0 <= index < len(live) or _owner(live[index], n) != party
    try:
        if bits is None:
            net.local_apply(party, pauli_x(), [index])
        else:
            net.apply_if(party, pauli_x(), [index], tags)
    except LocalityViolation:
        assert foreign
    else:
        assert not foreign
