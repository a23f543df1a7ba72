from __future__ import annotations

import numpy as np
import pytest

from qmeasure.statevec import PureState, Register


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def random_pair(rng: np.random.Generator, min_modulus: float = 0.0) -> tuple[complex, complex]:
    """Random complex amplitude pair; components redrawn until above min_modulus."""
    while True:
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        if min_modulus == 0.0 or np.all(np.abs(raw) > min_modulus):
            return (complex(raw[0]), complex(raw[1]))


def random_state(rng: np.random.Generator, labels: tuple[str, ...]) -> PureState:
    """Haar-ish random dense state over the given labels."""
    dim = 2 ** len(labels)
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(Register(labels), vec / np.linalg.norm(vec))


def labels(n: int) -> tuple[str, ...]:
    return tuple(f"q{i}" for i in range(n))


def assert_unchanged(state: PureState, stored: dict) -> None:
    """The state holds the attributes ``stored`` took from it, bound to the
    same objects."""
    assert vars(state).keys() == stored.keys()
    assert all(vars(state)[key] is value for key, value in stored.items())


def _single(amplitudes: str) -> str:
    return (
        '{"subsystems": [{"label": "s", "amplitudes": ' + amplitudes + "}],"
        ' "script": [{"op": "branches", "basis": "X"}]}'
    )


#: Documents that once escaped as tracebacks instead of a report or a coded error.
HOSTILE_INPUTS = {
    "400-digit integer": _single("[[1" + "0" * 399 + ", 0], [0, 0]]"),
    "100000 nested lists": '{"subsystems": ' + "[" * 100_000 + "]" * 100_000 + "}",
    "norm overflows": _single("[[1e308, 0], [1e308, 0]]"),
    "norm underflows": _single("[[1e-320, 0], [1e-320, 0]]"),
}
