"""No arrays on the filter's per-step path.

A step works on 3-vectors and 3x3 matrices, where a numpy call costs
0.3-1 us of dispatch around tens of nanoseconds of arithmetic, and building
or reading back a small array costs as much.  So the values passed between
the step's layers hold tuples of Python floats, and every layer evaluates
its products as scalar expressions on them (see the "Cost" note of
``uwbnav.navfilter``).  Every function listed below runs at least once per
filter step (every value the step reads or builds is a dataclass, built by
the harness from a checked block or by the listed function that returns
it).

Read from the syntax tree of each listed function's body (so docstrings,
comments and the annotations of its signature, which are never evaluated,
do not count), any of these fails the test with the function's name and
line:

- an ``ast.MatMult`` node (``@``), or an ``ndarray.dot``/``vdot`` call;
- a reference to ``np`` or ``numpy``;
- a ``.tolist()`` or ``.reshape()`` call, which would mean an array crossed
  a layer boundary.

Code that multiplies whole ``(n, 3, 3)`` stacks keeps numpy, because
scalar expressions do not broadcast over leading axes.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "uwbnav"

PER_STEP = {
    "navfilter": (
        "_rows", "_gate", "_product", "correction_terms", "predict", "update", "step_with_fix", "step",
    ),
    "attitude": ("_check_measured", "_weights", "_unit", "build_triads"),
    "liegroup": (
        "cross3", "_rodrigues_coefficients", "se23_exp", "quat_normalize", "_quat_rot_rows",
        "quat_multiply", "quat_from_rotvec",
    ),
    "uwb": (
        "_finite", "_check_rank", "_check_condition", "_position",
        "toa_solve", "tdoa_solve", "solve_fix",
    ),
}

ARRAY_NAMES = ("np", "numpy")
ARRAY_METHODS = ("dot", "vdot", "tolist", "reshape")


def _array_uses(fn: ast.FunctionDef) -> list[tuple[int, str]]:
    """``(line, what)`` for every array operation in the body of ``fn``."""
    found = []
    for node in (sub for stmt in fn.body for sub in ast.walk(stmt)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "'@'"))
        elif isinstance(node, ast.Name) and node.id in ARRAY_NAMES:
            found.append((node.lineno, f"'{node.id}'"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ARRAY_METHODS
        ):
            found.append((node.lineno, f"'.{node.func.attr}()'"))
    return found


def test_per_step_functions_use_no_matmul():
    found, missing = [], []
    for module, names in PER_STEP.items():
        tree = ast.parse((SRC / f"{module}.py").read_text())
        defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for name in names:
            if name not in defs:
                missing.append(f"{module}.{name}")
                continue
            found += [f"{module}.{name} line {line}: {what}" for line, what in _array_uses(defs[name])]
    assert not missing, f"listed per-step functions not found: {missing}"
    assert not found, f"array operations on the per-step path (use float expressions): {found}"
