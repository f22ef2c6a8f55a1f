"""Property test: a local gate is refused exactly when the party does not hold the qubit."""

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


def _owner(label: str, n: int) -> int:
    """Holder of a stable label, read off the documented layout: every ``ti``
    belongs to the target n, every other label to the party its number names."""
    return n if label[0] == "t" else int(label[1:])


@st.composite
def _cases(draw):
    family = draw(st.sampled_from(list(ProtocolFamily)))
    n = draw(st.integers(2, 4))
    party = draw(st.integers(1, n))
    index = draw(st.integers(-2, 3 * n))
    spec = ProtocolSpec(family, n, hadamard())
    schedule = measurement_schedule(spec)
    prefix = schedule[: draw(st.integers(0, len(schedule)))]
    outcomes = draw(st.lists(st.integers(0, 1), min_size=len(prefix), max_size=len(prefix)))
    return spec, party, index, list(zip(prefix, outcomes))


@settings(max_examples=200, deadline=None)
@given(_cases())
def test_local_apply_refused_iff_index_is_foreign(case):
    spec, party, index, measured = case
    n = spec.n
    net, _ = build_network(topology_for(spec.family), n, random_state(n, 0))
    live = [net.label_at(i) for i in range(3 * n - 2)]
    for (who, label, basis), outcome in measured:
        net.local_measure(who, net.qubit_index(label), basis, outcome)
        live.remove(label)

    foreign = not 0 <= index < len(live) or _owner(live[index], n) != party
    try:
        net.local_apply(party, pauli_x(), [index])
    except LocalityViolation:
        assert foreign
    else:
        assert not foreign
