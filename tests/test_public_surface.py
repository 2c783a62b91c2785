"""Every public top-level function and class of the package has a caller,
and every defaulted parameter of a package function is passed by one.

A public name whose only caller is its own test is surface that no command,
acceptance criterion or benchmark needs: it goes, or it is listed below as a
reference implementation that the tests compare the production path against.
Likewise a default that no call in src/ or bench/ overrides is a setting only
tests use: it becomes a constant, or it is listed with the reason it stays.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "scalehom"

#: public names kept without a caller in src/ or bench/, with the reason
REFERENCE_IMPLEMENTATIONS = {
    "adjugate": "adj(F) with F adj(F) = det(F) id, against which det is checked",
    "flux_lambda": "flux form of lambda, checked against the energy form",
    "first_order_gradient_energy": "linearized corrector the small-amplitude solve must match",
    "occupancy_counts": "cell counts showing a divergence-free drift keeps the uniform law",
    "load_snapshot": "reads back the field_state.bin that snapshot_bytes makes",
}


#: defaulted parameters ("module.function.parameter") that no call in src/
#: or bench/ passes, with the reason each stays a parameter
UNPASSED_DEFAULTS: dict[str, str] = {}


def public_definitions() -> dict[str, str]:
    """Public top-level function and class names of the package, by module."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                out[node.name] = path.stem
    return out


def _sources() -> list[ast.Module]:
    """Parsed modules of src/ and bench/."""
    return [ast.parse(path.read_text())
            for path in [*PACKAGE.glob("*.py"), *(ROOT / "bench").rglob("*.py")]]


def references() -> set[str]:
    """Names and attributes used in src/ and bench/, outside the top-level
    definition of the same name, plus the console entry point."""
    seen = set()
    for tree in _sources():
        for top in tree.body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else \
                    node.attr if isinstance(node, ast.Attribute) else None
                if name is not None and name != own:
                    seen.add(name)
    # console entry points, "module:function" in pyproject.toml
    seen.update(re.findall(r'"[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text()))
    return seen


def test_every_public_name_has_a_caller():
    used = references()
    orphans = sorted(f"{module}.{name}" for name, module in public_definitions().items()
                     if name not in used and name not in REFERENCE_IMPLEMENTATIONS)
    assert orphans == []


def test_reference_implementations_exist():
    assert set(REFERENCE_IMPLEMENTATIONS) <= set(public_definitions())


def _called_name(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else None


def _defaulted(fn: ast.FunctionDef, offset: int):
    """(parameter, call position or None for keyword-only) of each defaulted
    parameter of ``fn``; ``offset`` is 1 where a call does not pass the first
    parameter (``self`` or ``cls``)."""
    pos = [*fn.args.posonlyargs, *fn.args.args]
    first = len(pos) - len(fn.args.defaults)
    for i, arg in enumerate(pos[first:], first):
        yield arg.arg, i - offset
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def defaulted_parameters():
    """(qualified name, name its calls use, parameter, call position) of every
    defaulted parameter of the package's functions and methods, outside the
    reference implementations; a class's calls construct it by its name."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if getattr(node, "name", None) in REFERENCE_IMPLEMENTATIONS:
                continue
            if isinstance(node, ast.FunctionDef):
                for param, k in _defaulted(node, 0):
                    yield f"{path.stem}.{node.name}", node.name, param, k
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if not isinstance(fn, ast.FunctionDef):
                        continue
                    static = any(_called_name(d) == "staticmethod"
                                 for d in fn.decorator_list)
                    called = node.name if fn.name == "__init__" else fn.name
                    for param, k in _defaulted(fn, 0 if static else 1):
                        yield f"{path.stem}.{node.name}.{fn.name}", called, param, k


def calls() -> dict[str, list[tuple[float, set[str]]]]:
    """Called name -> (positional arguments, keyword names) of each call in
    src/ and bench/.  A call also counts for the target of a module-level
    alias (``stream = rng.sfc64_stream``), ``cls(...)`` in a class body for
    the class, and ``call(label, module.fn, *args, **kwargs)``, the way the
    benchmark harness calls, for ``fn`` with the arguments after it."""
    trees = _sources()
    aliases = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and _called_name(node.value):
                aliases.setdefault(_called_name(node.targets[0]), set()).add(
                    _called_name(node.value))
    out = {}

    def record(name, args, keywords):
        starred = any(isinstance(a, ast.Starred) for a in args)
        entry = (float("inf") if starred else len(args),
                 {k.arg for k in keywords if k.arg is not None})
        for target in {name, *aliases.get(name, ())}:
            out.setdefault(target, []).append(entry)

    for tree in trees:
        for top in tree.body:
            cls = top.name if isinstance(top, ast.ClassDef) else None
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                name = _called_name(node.func)
                record(cls if name == "cls" and cls else name, node.args, node.keywords)
                for i, arg in enumerate(node.args):
                    if isinstance(arg, ast.Attribute):
                        record(arg.attr, node.args[i + 1:], node.keywords)
    return out


def unpassed_defaults() -> set[str]:
    seen = calls()
    return {f"{qual}.{param}" for qual, called, param, k in defaulted_parameters()
            if not any(param in keywords or (k is not None and n > k)
                       for n, keywords in seen.get(called, ()))}


def test_every_default_is_passed_by_a_caller():
    assert unpassed_defaults() == set(UNPASSED_DEFAULTS)
