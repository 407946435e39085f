import ast
import inspect
from pathlib import Path

import privsynth
from privsynth import errors


def test_all_is_unique_sorted_and_resolves():
    names = privsynth.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(privsynth, name)] == []


def test_every_leaf_error_type_is_raised():
    # an error type that no ``raise`` names is dead surface
    types = [t for _, t in inspect.getmembers(errors, inspect.isclass)
             if issubclass(t, errors.PrivsynthError) and t.__module__ == errors.__name__]
    leaves = {t.__name__ for t in types if not any(o is not t and issubclass(o, t) for o in types)}
    raised = set()
    for path in Path(privsynth.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    assert len(leaves) > 1
    assert sorted(leaves - raised) == []
