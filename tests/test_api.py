"""The package's public surface: what it exports, and what it no longer does."""

import pytest

import cascade_sim
from cascade_sim import bitframe, rng

# Deleted because nothing in the package or its tools called them.
REMOVED = [
    (cascade_sim, "Permutation"),
    (cascade_sim, "apply_permutation"),
    (cascade_sim, "invert_permutation"),
    (bitframe, "Permutation"),
    (bitframe, "apply_permutation"),
    (bitframe, "invert_permutation"),
    (bitframe.BitFrame, "to01"),
    (rng, "bit_stream"),
]


def test_every_exported_name_resolves():
    assert len(set(cascade_sim.__all__)) == len(cascade_sim.__all__)
    for name in cascade_sim.__all__:
        assert getattr(cascade_sim, name, None) is not None, name


@pytest.mark.parametrize(
    "owner, name", REMOVED, ids=[f"{owner.__name__}.{name}" for owner, name in REMOVED]
)
def test_removed_names_stay_gone(owner, name):
    assert not hasattr(owner, name)
    assert name not in cascade_sim.__all__
