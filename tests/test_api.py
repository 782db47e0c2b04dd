"""The package's public surface: what it exports, and what it no longer does."""

import ast
from pathlib import Path

import pytest

import cascade_sim
from cascade_sim import bitframe, channel, engine, paritytree, rng

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
    (bitframe.BitFrame, "zeros"),
    (bitframe, "parity"),
    (rng, "bit_stream"),
    (channel.Direction, "wire_byte"),
    (engine, "error_frontier"),
    (engine, "Role"),
    (paritytree, "format_tree"),
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


# Public names that nothing in the package, its tools or the gates calls,
# kept on purpose.
UNCALLED_ON_PURPOSE = {
    # The reader of what write_transcript writes, kept for a transcript tool.
    "channel.read_transcript",
}


def _public_definitions(path):
    """``(qualified, key)`` of each public top-level function or class and of
    each public method: a top-level name is found by its ``module.name``, a
    method by its bare name.  A property is data, like a dataclass field, and
    is not listed."""
    module = path.stem
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", f"{module}.{node.name}"
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if (
                    isinstance(method, ast.FunctionDef)
                    and not method.name.startswith("_")
                    and not any(ast.unparse(d) == "property" for d in method.decorator_list)
                ):
                    yield f"{module}.{node.name}.{method.name}", method.name


def _package_module(node):
    """The package module an ``ast.ImportFrom`` reads: its name, ``""`` for
    the package itself, or ``None`` outside the package."""
    parts = node.module.split(".") if node.module else []
    if node.level == 0:
        if parts[:1] != ["cascade_sim"]:
            return None
        parts = parts[1:]
    return ".".join(parts)


def _module_of(node, bound):
    """The package module an expression names (``""`` for the package), or ``None``."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute) and _module_of(node.value, bound) == "":
        return node.attr
    return None


def _referenced_names(path, own=None):
    """The names a file uses: each bare name (an ``ast.Name``, an
    ``ast.Attribute`` or an import alias), and ``module.name`` for each name
    it reaches through a package module: an import from that module, an
    attribute of a name bound to it or, in module ``own``'s file, a use."""
    tree = ast.parse(path.read_text())
    names = set()
    bound = {}  # a local name bound to a package module, to that module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "cascade_sim":
                    bound[alias.asname or package] = module if alias.asname else ""
        elif isinstance(node, ast.ImportFrom) and (module := _package_module(node)) is not None:
            for alias in node.names:
                names.add(f"{module}.{alias.name}")
                if not module:
                    bound[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
            if own:
                names.add(f"{own}.{node.id}")
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            if (module := _module_of(node.value, bound)) is not None:
                names.add(f"{module}.{node.attr}")
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def test_every_public_name_has_a_caller():
    # A definition is not a reference, so a name counts only where it is
    # used: anywhere in the package, in perfbench or in the gates.  A
    # top-level name counts only where it is reached through its own module;
    # a method counts wherever its bare name appears.
    root = Path(__file__).resolve().parents[1]
    source = root / "src" / "cascade_sim"
    modules = sorted(source.glob("*.py"))
    callers = [*(root / "perfbench").glob("*.py"), root / "tests" / "test_acceptance.py"]
    referenced = set().union(
        *(_referenced_names(path, path.stem) for path in modules),
        *(_referenced_names(path) for path in callers),
    )
    defined = [entry for path in modules for entry in _public_definitions(path)]
    uncalled = {qualified for qualified, key in defined if key not in referenced}
    # Equality, so an allow-listed name that gains a caller fails too.
    assert uncalled == UNCALLED_ON_PURPOSE
