import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kgsig"

# top-level names that no command runs, each kept for a reason of its own
KEPT = (
    ("lattice.laplacian", "the dense operator that the closed-form sine basis is checked against"),
    ("signature.assemble", "the dense matrix of the signature blocks, A2's spectrum check"),
    ("state.two_point", "the paper's omega2(f, g), which A4 and the state tests evaluate"),
    ("minkowski.mink_symplectic", "Minkowski oracle: the symplectic form on the mass shell"),
    ("minkowski.mink_scalar_product", "Minkowski oracle: the scalar product on the mass shell"),
    ("minkowski.mink_signature_action", "Minkowski oracle: the signature operator's action"),
    ("minkowski.mink_cauchy_inverse", "Minkowski oracle: shell amplitudes from Cauchy data"),
    ("massfamily.apply_T", "the paper's mass multiplication T, on families the Gram tests pair"),
    ("massfamily.integrate_p", "the paper's p-map, which README names and a mode oracle checks"),
)


def unreferenced_names():
    """module.name for every top-level function and class of the package that
    no code in the package names (as a name or an attribute) outside its own
    body; docstrings and comments are not code, so they do not count."""
    defined, referenced = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        own = {}  # id of each node inside a top-level definition -> its name
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name))
                own.update((id(sub), node.name) for sub in ast.walk(node))
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            else:
                continue
            if own.get(id(sub)) != name:
                referenced.add(name)
    return {
        f"{module}.{name}" for module, name in defined
        if name not in referenced
        and not (module == "cli" and (name == "main" or name.startswith("cmd_")))  # entry points
    }


def test_every_top_level_name_is_used_by_the_package_or_kept_by_name():
    # the package holds what its commands run; a test-only route belongs in
    # tests/, and a kept name that gained a caller or went leaves the list
    assert unreferenced_names() == {name for name, _ in KEPT}
