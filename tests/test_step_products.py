"""No array products on the filter's per-step path.

A step works on 3-vectors and 3x3 matrices, where a numpy call costs
0.3-1 us of dispatch around tens of nanoseconds of arithmetic.  So the
step's layers read their arrays once with ``tolist`` and evaluate every
product as scalar expressions on Python floats (see the "Cost" note of
``uwbnav.navfilter``).  Every function listed below runs at least once per
filter step.  An ``ast.MatMult`` node anywhere in its body (read from the
syntax tree, so docstrings and comments do not count) fails this test
with the function's name and line; so does an ``ndarray.dot``/``vdot``
call in a function of the float layers (``navfilter``, ``attitude``,
``liegroup``).  The position solvers in ``uwb`` factor small systems and
keep ``ndarray.dot``, which gives the bits of ``@`` for 2-D/1-D operands
at a fraction of its dispatch.  Code that multiplies whole ``(n, 3, 3)``
stacks keeps ``@``, because neither form broadcasts over leading axes.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "uwbnav"

PER_STEP = {
    "navfilter": ("_rows", "_gate", "_product", "correction_terms", "predict", "update", "step_with_fix", "step"),
    "attitude": ("_check_measured", "_weights", "_unit", "build_triads"),
    "liegroup": (
        "cross3", "_rodrigues_coefficients", "_se23_blocks", "quat_normalize", "_quat_rot_rows", "quat_to_rot",
        "quat_multiply", "quat_from_rotvec",
    ),
    "uwb": ("_factor", "_solve", "toa_solve", "tdoa_solve", "solve_fix"),
}
FLOAT_LAYERS = ("navfilter", "attitude", "liegroup")


def test_per_step_functions_use_no_matmul():
    found, missing = [], []
    for module, names in PER_STEP.items():
        tree = ast.parse((SRC / f"{module}.py").read_text())
        defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for name in names:
            if name not in defs:
                missing.append(f"{module}.{name}")
                continue
            for node in ast.walk(defs[name]):
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                    found.append(f"{module}.{name} line {node.lineno}: '@'")
                elif (
                    module in FLOAT_LAYERS
                    and isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("dot", "vdot")
                ):
                    found.append(f"{module}.{name} line {node.lineno}: '.{node.func.attr}'")
    assert not missing, f"listed per-step functions not found: {missing}"
    assert not found, f"array products on the per-step path (use float expressions): {found}"
