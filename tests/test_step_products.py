"""No ``@`` on the filter's per-step path.

``ndarray.__matmul__`` goes through the generalized-ufunc machinery, whose
dispatch costs several times a 3x3 product itself; ``ndarray.dot`` gives
the same bits for the 2-D/1-D operands of a step at a fraction of the
cost.  Every function listed below runs at least once per filter step, so
an ``ast.MatMult`` node anywhere in its body (read from the syntax tree,
so docstrings and comments do not count) fails this test with the
function's name and line.  Code that multiplies whole stacks keeps ``@``,
because ``dot`` does not broadcast over leading axes.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "uwbnav"

PER_STEP = {
    "navfilter": ("_gate", "correction_terms", "predict", "update", "step_with_fix", "step"),
    "attitude": ("_check_measured", "_unit", "build_triads"),
    "liegroup": ("cross3", "_se23_blocks", "quat_normalize", "quat_to_rot", "quat_multiply", "quat_from_rotvec"),
    "uwb": ("_factor", "_solve", "toa_solve", "_finish_tdoa", "tdoa_solve_main_bs", "tdoa_solve_ring", "solve_fix"),
}


def test_per_step_functions_use_no_matmul():
    found, missing = [], []
    for module, names in PER_STEP.items():
        tree = ast.parse((SRC / f"{module}.py").read_text())
        defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for name in names:
            if name not in defs:
                missing.append(f"{module}.{name}")
                continue
            found += [
                f"{module}.{name} line {node.lineno}"
                for node in ast.walk(defs[name])
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
            ]
    assert not missing, f"listed per-step functions not found: {missing}"
    assert not found, f"'@' on the per-step path (use ndarray.dot): {found}"
