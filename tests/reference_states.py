"""Hand-expanded register states used as frozen oracles for the 3-party runs.

The dictionaries spell out, term by term, the joint states of the seven-qubit
registers and the intermediate/final states of each protocol stage, written
directly from the ket expansions (bitstring -> index into the input
amplitudes d_0..d_7).  Tests compare simulator output against these literal
transcriptions rather than against code that shares logic with the simulator.

They are written in the paper's register layout (:func:`paper_layout`) on
the paper's two distributions, :func:`star` and :func:`path`, transcribed
here apart from the package.  A network starts from the data qubits and
joins each Bell pair when it is first named, so tests read its live register
in the paper's order through :func:`in_paper_order`, after
:func:`with_all_pairs` where every pair must be in.
"""

from __future__ import annotations

import math

import numpy as np

from telegate import Network, StateVector
from telegate.network import BellEdge


def star(n: int) -> tuple[BellEdge, ...]:
    """The parallel distribution: control party i and the target n share
    the pair ``e{i}``/``t{i}``, for i = 1 .. n-1."""
    return tuple(BellEdge(i, f"e{i}", n, f"t{i}") for i in range(1, n))


def path(n: int) -> tuple[BellEdge, ...]:
    """The series distribution: party i and party i+1 share the pair
    ``f{i}``/``r{i+1}``, for i = 1 .. n-1, so the path ends at the target."""
    return tuple(BellEdge(i, f"f{i}", i + 1, f"r{i + 1}") for i in range(1, n))


def paper_layout(edges: tuple[BellEdge, ...], n: int) -> list[str]:
    """The paper's register order with n parties (party n is the target):
    party by party, the halves each shares with a lower party, its data
    qubit, then the halves it shares with a higher party.

    * :func:`star`: ``d1 e1 d2 e2 ... d{n-1} e{n-1} t1 ... t{n-1} dn``
    * :func:`path`: ``d1 f1 | r2 d2 f2 | ... | rn dn``
    """
    halves = [(e.party_a, e.label_a, e.party_b) for e in edges]
    halves += [(e.party_b, e.label_b, e.party_a) for e in edges]
    order = []
    for p in range(1, n + 1):
        order += [label for party, label, peer in halves if party == p and peer < p]
        order.append(f"d{p}")
        order += [label for party, label, peer in halves if party == p and peer > p]
    return order


def with_all_pairs(net: Network) -> Network:
    """``net`` with every Bell pair tensored in, so all 3n - 2 qubits are live."""
    for edge in net.bell_pairs:
        net.qubit_index(edge.label_a)
    return net


def in_paper_order(net: Network) -> np.ndarray:
    """The register's rows with its live qubits permuted into the paper's
    layout; labels of the layout that are not live are skipped, and no pair
    is tensored in."""
    order = paper_layout(net.bell_pairs, net.n)
    rows, size = net.register.shape
    live = [net.label_at(i) for i in range(size.bit_length() - 1)]
    axes = [live.index(label) for label in order if label in live]
    cube = net.register.reshape((rows,) + (2,) * len(live))
    return cube.transpose([0] + [1 + a for a in axes]).reshape(rows, size)


# Initial 7-qubit register for the parallel layout (order: d1 e1 d2 e2 t1 t2 d3),
# every term carrying coefficient d_i / 2.
PARALLEL_REGISTER_TERMS = {
    "0000000": 0, "0000001": 1, "0010000": 2, "0010001": 3,
    "1000000": 4, "1000001": 5, "1010000": 6, "1010001": 7,
    "0001010": 0, "0001011": 1, "0011010": 2, "0011011": 3,
    "1001010": 4, "1001011": 5, "1011010": 6, "1011011": 7,
    "0100100": 0, "0100101": 1, "0110100": 2, "0110101": 3,
    "1100100": 4, "1100101": 5, "1110100": 6, "1110101": 7,
    "0101110": 0, "0101111": 1, "0111110": 2, "0111111": 3,
    "1101110": 4, "1101111": 5, "1111110": 6, "1111111": 7,
}

# Initial 7-qubit register for the series layout (order: d1 f1 r2 d2 f2 r3 d3),
# every term carrying coefficient d_i / 2.
SERIES_REGISTER_TERMS = {
    "0000000": 0, "0000001": 1, "0001000": 2, "0001001": 3,
    "1000000": 4, "1000001": 5, "1001000": 6, "1001001": 7,
    "0000110": 0, "0000111": 1, "0001110": 2, "0001111": 3,
    "1000110": 4, "1000111": 5, "1001110": 6, "1001111": 7,
    "0110000": 0, "0110001": 1, "0111000": 2, "0111001": 3,
    "1110000": 4, "1110001": 5, "1111000": 6, "1111001": 7,
    "0110110": 0, "0110111": 1, "0111110": 2, "0111111": 3,
    "1110110": 4, "1110111": 5, "1111110": 6, "1111111": 7,
}

# Six-qubit state (order: d1 r2 d2 f2 r3 d3) after the first relay party has
# folded its control bit into the forward half; coefficient d_i / sqrt(2).
SERIES_CH_RELAY_TERMS = {
    "000000": 0, "000001": 1, "001100": 2, "001101": 3,
    "000110": 0, "000111": 1, "001010": 2, "001011": 3,
    "110100": 4, "110101": 5, "111000": 6, "111001": 7,
    "110010": 4, "110011": 5, "111110": 6, "111111": 7,
}

# Same stage for the n-controlled protocol: the relay folds the AND (not the
# XOR) of the control bits into the forward half; coefficient d_i / sqrt(2).
SERIES_NCU_RELAY_TERMS = {
    "000000": 0, "000001": 1, "001000": 2, "001001": 3,
    "000110": 0, "000111": 1, "001110": 2, "001111": 3,
    "110000": 4, "110001": 5, "111100": 6, "111101": 7,
    "110110": 4, "110111": 5, "111010": 6, "111011": 7,
}


def state_from_terms(terms: dict[str, int], d: np.ndarray, scale: float) -> StateVector:
    num_qubits = len(next(iter(terms)))
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    for bits, index in terms.items():
        amps[int(bits, 2)] += d[index] * scale
    return StateVector(num_qubits, amps)


def parallel_register_state(d: np.ndarray) -> StateVector:
    return state_from_terms(PARALLEL_REGISTER_TERMS, d, 0.5)


def series_register_state(d: np.ndarray) -> StateVector:
    return state_from_terms(SERIES_REGISTER_TERMS, d, 0.5)


def series_ch_relay_state(d: np.ndarray) -> StateVector:
    return state_from_terms(SERIES_CH_RELAY_TERMS, d, 1 / math.sqrt(2))


def series_ncu_relay_state(d: np.ndarray) -> StateVector:
    return state_from_terms(SERIES_NCU_RELAY_TERMS, d, 1 / math.sqrt(2))


def _from_blocks(num_qubits: int, blocks: list[tuple[str, np.ndarray]]) -> StateVector:
    """Assemble a state from (prefix bitstring, 2-vector on the last qubit)."""
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    for prefix, vec in blocks:
        base = int(prefix, 2) << 1
        amps[base] += vec[0]
        amps[base + 1] += vec[1]
    return StateVector(num_qubits, amps)


def parallel_after_target_ops(d: np.ndarray, u: np.ndarray) -> StateVector:
    """Five-qubit state (order: d1 d2 t1 t2 d3) once the target has applied
    its flips and both controlled-payload gates: the halves mirror the control
    bits and the data qubit carries u^(number of set controls)."""
    u2 = u @ u
    return _from_blocks(5, [
        ("0000", np.array([d[0], d[1]])),
        ("0101", u @ np.array([d[2], d[3]])),
        ("1010", u @ np.array([d[4], d[5]])),
        ("1111", u2 @ np.array([d[6], d[7]])),
    ])


def parallel_final(d: np.ndarray, u: np.ndarray) -> StateVector:
    u2 = u @ u
    return _from_blocks(3, [
        ("00", np.array([d[0], d[1]])),
        ("01", u @ np.array([d[2], d[3]])),
        ("10", u @ np.array([d[4], d[5]])),
        ("11", u2 @ np.array([d[6], d[7]])),
    ])


def series_ch_after_target(d: np.ndarray, h: np.ndarray) -> StateVector:
    """Five-qubit state (order: d1 r2 d2 r3 d3) after the target's controlled
    payload: the payload has fired exactly where the controls XOR to 1."""
    return _from_blocks(5, [
        ("0000", np.array([d[0], d[1]])),
        ("0011", h @ np.array([d[2], d[3]])),
        ("1101", h @ np.array([d[4], d[5]])),
        ("1110", np.array([d[6], d[7]])),
    ])


def series_ch_final(d: np.ndarray, h: np.ndarray) -> StateVector:
    return _from_blocks(3, [
        ("00", np.array([d[0], d[1]])),
        ("01", h @ np.array([d[2], d[3]])),
        ("10", h @ np.array([d[4], d[5]])),
        ("11", np.array([d[6], d[7]])),
    ])


def series_ncu_after_target(d: np.ndarray, u: np.ndarray) -> StateVector:
    """Five-qubit state (order: d1 r2 d2 r3 d3): payload fired only where both
    control bits are 1."""
    return _from_blocks(5, [
        ("0000", np.array([d[0], d[1]])),
        ("0010", np.array([d[2], d[3]])),
        ("1100", np.array([d[4], d[5]])),
        ("1111", u @ np.array([d[6], d[7]])),
    ])


def series_ncu_after_first_backstep(d: np.ndarray, u: np.ndarray) -> StateVector:
    """Four-qubit state (order: d1 r2 d2 d3) after the target's half has been
    measured out and the relay's conditional phase fix applied."""
    return _from_blocks(4, [
        ("000", np.array([d[0], d[1]])),
        ("001", np.array([d[2], d[3]])),
        ("110", np.array([d[4], d[5]])),
        ("111", u @ np.array([d[6], d[7]])),
    ])


def series_ncu_final(d: np.ndarray, u: np.ndarray) -> StateVector:
    return _from_blocks(3, [
        ("00", np.array([d[0], d[1]])),
        ("01", np.array([d[2], d[3]])),
        ("10", np.array([d[4], d[5]])),
        ("11", u @ np.array([d[6], d[7]])),
    ])


def random_coefficients(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    return d / np.linalg.norm(d)
