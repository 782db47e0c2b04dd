"""The package's public surface: what it exports, and what it no longer does."""

import ast
from pathlib import Path

import pytest

import cascade_sim
from cascade_sim import bitframe, channel, engine, rng

# Deleted because nothing in the package or its tools called them, or because
# the behaviour they served is gone (the responder no longer probes an error
# frontier before it bisects).
REMOVED = [
    (cascade_sim, "Permutation"),
    (cascade_sim, "apply_permutation"),
    (cascade_sim, "invert_permutation"),
    (bitframe, "Permutation"),
    (bitframe, "apply_permutation"),
    (bitframe, "invert_permutation"),
    (bitframe.BitFrame, "to01"),
    (rng, "bit_stream"),
    (channel.Direction, "wire_byte"),
    (engine, "error_frontier"),
]


# The root exports the experiment API; everything else is reached through
# its module.
EXPERIMENT_API = {
    "Bsc",
    "FixedErrors",
    "FixedRoundsBreak",
    "QuietRoundsBreak",
    "ThresholdBreak",
    "SessionTemplate",
    "QberSweep",
    "LengthSweep",
    "run_trial",
    "run_trial_detailed",
    "run_paired_trial",
    "sweep_qber",
    "sweep_length",
    "compare_aggregation",
    "TrialRecord",
    "PairedOutcome",
    "export_records",
    "load_records",
    "CascadeError",
    "ConfigurationError",
    "ProtocolError",
    "DecodeError",
    "TransportError",
}


def test_the_root_exports_the_experiment_api_only():
    assert set(cascade_sim.__all__) == EXPERIMENT_API
    assert len(EXPERIMENT_API) == 23
    for name in ("run_session_pair", "read_transcript", "start", "step", "SessionConfig"):
        assert not hasattr(cascade_sim, name), name


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


# perfbench/layers.py wraps these paritytree names where the engine imports
# them; the engine itself no longer calls them.
UNUSED_ON_PURPOSE = {
    ("engine.py", name)
    for name in (
        "build_tree",
        "iter_nodes",
        "mark_compromised",
        "mark_error_leaf",
        "multi_error_frontier",
        "set_syndrome",
    )
}


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
            used.update(element.value for element in node.value.elts)
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                parsed = ast.walk(ast.parse(note.value, mode="eval"))
                used.update(name.id for name in parsed if isinstance(name, ast.Name))
    return {(path.name, name) for name in imported - used}


def test_modules_import_nothing_they_never_use():
    source = Path(cascade_sim.__file__).parent
    unused = set().union(*(_unused_imports(path) for path in sorted(source.glob("*.py"))))
    assert unused == UNUSED_ON_PURPOSE
