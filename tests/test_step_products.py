"""No arrays on the filter's per-step path.

A step works on 3-vectors and 3x3 matrices, where a numpy call costs
0.3-1 us of dispatch around tens of nanoseconds of arithmetic, and building
or reading back a small array costs as much.  So the values passed between
the step's layers hold tuples of Python floats, and every layer evaluates
its products as scalar expressions on them (see the "Cost" note of
``uwbnav.navfilter``).  Every function listed below runs at least once per
filter step under at least one topology and attitude variant (every value
the step reads or builds is a dataclass, built by the harness from a
checked block or by the listed function that returns it);
``test_every_listed_function_runs_each_step`` counts the calls.

Read from the syntax tree of each listed function's body (so docstrings,
comments and the annotations of its signature, which are never evaluated,
do not count), any of these fails the test with the function's name and
line:

- an ``ast.MatMult`` node (``@``), or an ``ndarray.dot``/``vdot`` call;
- a reference to ``np`` or ``numpy``;
- a ``.tolist()`` or ``.reshape()`` call, which would mean an array crossed
  a layer boundary.

The straight-line solvers ``uwb`` generates run each step too, from no
module-level definition; the test parses their sources (``uwb._source``)
by the same rules, for every topology at each row count of 4 to 12
anchors.

Code that multiplies whole ``(n, 3, 3)`` stacks keeps numpy, because
scalar expressions do not broadcast over leading axes.
"""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import uwbnav
from uwbnav import uwb
from uwbnav.harness import RunConfig, synthesize_measurements
from uwbnav.sim import generate_trajectory
from uwbnav.uwb import TOPOLOGIES

SRC = Path(__file__).resolve().parent.parent / "src" / "uwbnav"

PER_STEP = {
    "navfilter": (
        "_rows", "_gate", "_product", "correction_terms", "predict", "update", "step_with_fix", "step",
    ),
    "attitude": ("_unit", "build_triads"),
    "liegroup": ("cross3", "_rodrigues_coefficients", "se23_exp", "_quat_rot_rows", "quat_turn"),
    "uwb": ("_solver", "solve_fix"),
}
# the straight-line solvers uwb generates, bound to an anchor set on its first solve: one per topology and row
# count, so their sources are parsed for every topology at the row counts of 4 to 12 anchors
GENERATED = [(topology, rows) for topology in TOPOLOGIES for rows in range(3, 13)]

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
    for topology, rows in GENERATED:
        tree = ast.parse(uwb._source(topology, rows))
        for fn in tree.body:  # the factory, whose body holds the solver
            found += [f"{topology} {rows}-row {fn.name} line {line}: {what}" for line, what in _array_uses(fn)]
    assert not missing, f"listed per-step functions not found: {missing}"
    assert not found, f"array operations on the per-step path (use float expressions): {found}"


def _count_calls(monkeypatch, counts: Counter) -> None:
    """Wrap every listed function, in each uwbnav module whose globals bind it, with a counter into ``counts``."""
    modules = [importlib.import_module(f"uwbnav.{info.name}") for info in pkgutil.iter_modules(uwbnav.__path__)]
    for home, names in PER_STEP.items():
        for name in names:
            fn = getattr(importlib.import_module(f"uwbnav.{home}"), name)

            def counted(*args, _fn=fn, _key=f"{home}.{name}", **kwargs):
                counts[_key] += 1
                return _fn(*args, **kwargs)

            for module in modules:
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counted)


def test_every_listed_function_runs_each_step(monkeypatch):
    # a listed function the step stopped calling would keep its place in
    # PER_STEP, and its array checks, for nothing
    counts, runs = Counter(), {}
    _count_calls(monkeypatch, counts)
    for topology in TOPOLOGIES:
        for variant in ("matrix", "quaternion"):
            cfg = RunConfig(topology=topology, variant=variant, duration=0.5)
            env, anchors, gains = cfg.env(), cfg.anchor_set(), cfg.gains()
            traj = generate_trajectory(cfg.trajectory, {"duration": cfg.duration, "rate": cfg.rate}, env)
            imu, ranges = synthesize_measurements(traj, anchors, topology, cfg.noise(), env)
            state = cfg.initial_state()
            counts.clear()
            for i in range(len(traj) - 1):
                state, diag = uwbnav.navfilter.step(state, imu[i], ranges[i], anchors, env, gains, cfg.dt)
                assert not diag.dropout, (topology, variant, diag.dropout_reason)
            runs[topology, variant] = (len(traj) - 1, Counter(counts))
    assert all(steps > 0 for steps, _ in runs.values())
    listed = [f"{home}.{name}" for home, names in PER_STEP.items() for name in names]
    rare = [key for key in listed if not any(seen[key] >= steps for steps, seen in runs.values())]
    assert not rare, f"listed functions that run less than once per step in every configuration: {rare}"
