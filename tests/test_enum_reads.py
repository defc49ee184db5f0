"""Enum members reach per-record and per-alert code as module constants.

On Python 3.10 and 3.11 reading a member off its Enum class costs several
times a global lookup, so outside the generator no module reads one, except
in the one module-level statement that binds members to constants of the
same names (INCOMING = Direction.INCOMING, or one tuple assignment).
"""

import ast
import pathlib

import pytest

import flowsentry

ENUMS = {"Direction", "ScanKind", "Protocol"}
PACKAGE = pathlib.Path(flowsentry.__file__).parent
# The generator builds corpora, not detections: it runs once per file made.
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "generator.py")


def _member_read(node):
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ENUMS
        and node.attr.isupper()
    )


def _binds_constants(statement):
    """True for `NAME = Enum.NAME`, or a tuple of such pairs in one statement."""
    if not isinstance(statement, ast.Assign) or len(statement.targets) != 1:
        return False
    target, value = statement.targets[0], statement.value
    targets = target.elts if isinstance(target, ast.Tuple) else [target]
    values = value.elts if isinstance(value, ast.Tuple) else [value]
    return len(targets) == len(values) and all(
        isinstance(name, ast.Name) and _member_read(member) and name.id == member.attr
        for name, member in zip(targets, values)
    )


@pytest.mark.parametrize("module", MODULES)
def test_enum_members_are_read_only_where_constants_are_bound(module):
    path = PACKAGE / module
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    bindings = [statement for statement in tree.body if _binds_constants(statement)]
    assert len(bindings) <= 1, f"{module}: bind the constants in one statement"
    allowed = {id(node) for statement in bindings for node in ast.walk(statement)}
    reads = [
        f"{module}:{node.lineno}: {node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if _member_read(node) and id(node) not in allowed
    ]
    assert reads == []
