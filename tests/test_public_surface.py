"""Every public top-level function and class of the package has a caller.

A public name whose only caller is its own test is surface that no command,
acceptance criterion or benchmark needs: it goes, or it is listed below as a
reference implementation that the tests compare the production path against.
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
    "coupled_refinement": "common-noise study of the Euler scheme's weak order",
    "occupancy_counts": "cell counts showing a divergence-free drift keeps the uniform law",
    "load_snapshot": "reads back what save_snapshot writes",
}


def public_definitions() -> dict[str, str]:
    """Public top-level function and class names of the package, by module."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                out[node.name] = path.stem
    return out


def references() -> set[str]:
    """Names and attributes used in src/ and bench/, outside the top-level
    definition of the same name, plus the console entry point."""
    seen = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "bench").rglob("*.py")]:
        for top in ast.parse(path.read_text()).body:
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
