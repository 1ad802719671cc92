import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kgsig"

# names (top-level, or public class members) that no command runs, each kept
# for a reason of its own
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
    ("lattice.SpectralBasis.synthesize", "the inverse transform that the round-trip tests check"),
    ("massfamily.MassWeight.mass_moment", "the mass-moment oracle that ROADMAP item 10 keeps"),
)


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unreferenced_names():
    """module.name for every top-level function and class of the package, and
    module.Class.name for every public method and property of its classes,
    that no code in the package names (as a name or an attribute) outside its
    own body; docstrings and comments are not code, so they do not count.
    Dunders are left out: operators and the interpreter call them."""
    defined, referenced = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        own = {}  # id of each node inside a definition -> the names it defines

        def define(node, qualified):
            defined.append((path.stem, qualified, node.name))
            for sub in ast.walk(node):
                own.setdefault(id(sub), set()).add(node.name)

        for node in tree.body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                define(node, node.name)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCTIONS) and not item.name.startswith("_"):
                        define(item, f"{node.name}.{item.name}")
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            else:
                continue
            if name not in own.get(id(sub), ()):
                referenced.add(name)
    return {
        f"{module}.{qualified}" for module, qualified, name in defined
        if name not in referenced
        and not (module == "cli" and (name == "main" or name.startswith("cmd_")))  # entry points
    }


def test_every_top_level_name_is_used_by_the_package_or_kept_by_name():
    # the package holds what its commands run; a test-only route belongs in
    # tests/, and a kept name that gained a caller or went leaves the list
    assert unreferenced_names() == {name for name, _ in KEPT}
