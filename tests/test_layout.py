"""The package holds only code that a command or the benchmark reaches.

Reachability follows names through code bodies: a module-level function,
class or constant is reached when a reached body names it, directly or as
an attribute.  Docstrings are string constants and name nothing.  The roots
are ``cli.main``, which reaches every subcommand through the parser, and the
package attributes that the benchmark scripts use.  Test-only references
live in ``tests/helpers.py``.
"""

import ast
from pathlib import Path

import chargepair

SRC = Path(chargepair.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: functions that no program calls yet, each kept for the ROADMAP item that
#: gives it a program caller next
AWAITING_CALLER = {
    "translation_operator": "item 5: momentum blocks",
    "dimension_series_limit": "item 11: estimators with a stated regime",
    "predicted_dimension": "item 13: the conformal tower",
}


def _names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_function_is_reached_from_a_command_or_the_benchmark():
    functions, uses, roots = {}, {}, {"main"}
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bound = {stmt.name}
                if isinstance(stmt, ast.FunctionDef):
                    functions[stmt.name] = f"{path.stem}.{stmt.name}"
            else:
                bound = {n.id for n in ast.walk(stmt)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            for name in bound:
                uses.setdefault(name, set()).update(_names(stmt))
    modules = {path.stem for path in SRC.glob("*.py")}
    for path in PERFBENCH.glob("*.py"):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in modules:
                roots.add(n.attr)
            elif isinstance(n, ast.ImportFrom) and (n.module or "").startswith("chargepair"):
                roots.update(alias.name for alias in n.names)
    reached, frontier = set(), set(roots)
    while frontier:
        name = frontier.pop()
        if name in uses and name not in reached:
            reached.add(name)
            frontier |= uses[name]
    unreached = sorted(functions[name] for name in set(functions) - reached - set(AWAITING_CALLER))
    assert not unreached, f"{len(unreached)} unreached: {', '.join(unreached)}"
    # an exception goes once its item gives it a caller
    assert set(AWAITING_CALLER) <= set(functions) - reached
