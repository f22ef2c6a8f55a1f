"""Specs own their op lists and batch orders and gates own their I ⊕ b
blocks: each is worked out once per object, however many other specs and
gates are in use between two uses of it."""

import dataclasses
from collections import Counter

from telegate import (
    ProtocolFamily,
    ProtocolSpec,
    controlled,
    random_involution,
    random_state,
    random_unitary,
    verify_inputs,
)
from telegate import gates, network, protocols

FAMILIES = list(ProtocolFamily)


def _specs(count):
    """``count`` distinct valid specs at n = 3, cycling through the families."""
    specs = []
    for seed in range(count):
        family = FAMILIES[seed % 3]
        payload = (
            random_involution(seed)
            if family is ProtocolFamily.SERIES_SIMULTANEOUS_CH
            else random_unitary(seed)
        )
        specs.append(ProtocolSpec(family, 3, payload))
    return specs


def test_each_spec_builds_its_op_list_once(monkeypatch):
    specs = _specs(12)
    built = Counter()
    for family, record in list(protocols._PROTOCOLS.items()):

        def counted(n, cu, builder=record.build):
            built[cu.label] += 1
            return builder(n, cu)

        monkeypatch.setitem(
            protocols._PROTOCOLS, family, dataclasses.replace(record, build=counted)
        )
    psi = random_state(3, 0)
    for _ in range(2):
        for spec in specs:
            assert verify_inputs(spec, [psi]).passed
    assert built == Counter({"C" + spec.payload.label: 1 for spec in specs})


def test_each_spec_orders_its_batch_once_from_its_own_list(monkeypatch):
    specs = _specs(12)
    ordered = []
    order = protocols._batch_order

    def counted(ops, edges):
        ordered.append(ops)
        return order(ops, edges)

    monkeypatch.setattr(protocols, "_batch_order", counted)
    psi = random_state(3, 0)
    for _ in range(2):
        for spec in specs:
            assert verify_inputs(spec, [psi]).passed
    assert len(ordered) == len(specs)
    assert all(ops is spec.ops for ops, spec in zip(ordered, specs))
    # the payload does not change the list's shape, so specs that differ
    # only in payload get equal orders
    for family in FAMILIES:
        orders = {spec._batch for spec in specs if spec.family is family}
        assert len(orders) == 1, family


def test_each_gate_is_classified_once(monkeypatch):
    classified = Counter()
    classify = gates._classify

    def counted(m):
        classified[id(m)] += 1
        return classify(m)

    monkeypatch.setattr(gates, "_classify", counted)
    cus = [controlled(random_unitary(seed), 1) for seed in range(40)]
    amps = random_state(2, 1).amplitudes[None].copy()
    for _ in range(2):
        for cu in cus:
            network._apply(amps, 2, cu, [0, 1])
    assert classified == Counter({id(cu.matrix): 1 for cu in cus})
