"""Every tracing hook of the benchmark names an attribute that exists.

`perfbench/tracing.py` wraps each (module, attribute) pair of its HOOKS in a
span; a name renamed or removed in `src/` would otherwise show only as an
AttributeError in a traced benchmark run.  The file is read with `ast`, not
imported, so this check needs none of the benchmark's set-up."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _hooks() -> list[tuple[str, str]]:
    """The (module, attribute) pair at the head of each HOOKS entry."""
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    (hooks,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["HOOKS"]
    ]
    return [(ast.literal_eval(entry.elts[0]), ast.literal_eval(entry.elts[1])) for entry in hooks.elts]


def test_every_hook_names_an_attribute_of_its_module():
    hooks = _hooks()
    assert len(hooks) > 5
    assert all(module.startswith("perfcode.") for module, _ in hooks)
    missing = [f"{module}.{name}" for module, name in hooks if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"hooks that name no attribute: {missing}"
