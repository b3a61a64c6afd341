"""Source hygiene checked with the standard library's ast module: every
module-level import of a codimflow module is used in that module, every
private module-level function or class is referenced somewhere in the
package, and every public one somewhere in the package or the benchmark
harness: a reference from the tests alone does not count. The package
__init__ binds no name but __version__, so each public name is imported from
the one module that defines it. No module imports scipy at top level: the
semi-implicit step loads it on first use. The README's scenarios parse as
the commands that read them do."""

import ast
import pathlib

import pytest

from codimflow.config import parse_config
from codimflow.lagrangian import PotentialFlowConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "codimflow"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TREES = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The names that module-level imports bind, with their line numbers."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including those in quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= used_names(ast.parse(ann.value, mode="eval"))
    return used


def test_no_module_imports_scipy_at_top_level():
    # scipy costs about 0.3 s of every start; only the semi-implicit step
    # needs it, and its functions import it themselves (an `if
    # TYPE_CHECKING:` import, for annotations, is not at top level)
    stray = []
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]   # None for `from . import x`
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                stray.append(f"{module}.py:{node.lineno}")
    assert not stray, f"scipy imported at module level: {stray}"


def test_package_init_binds_only_the_version():
    # any other name bound there would be a second import path to it
    docstring, *rest = TREES["__init__"].body
    assert [ast.unparse(node).split(" =")[0] for node in rest] == ["__version__"]


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"cli", "config", "flow", "geometry", "grid"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_private_definitions_are_referenced():
    # a private function or class is read by name (ast.Name) or as a module
    # attribute (ast.Attribute); its own definition reads neither
    referenced = set()
    for tree in TREES.values():
        referenced |= used_names(tree)
        referenced |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    orphans = [f"{module}.{node.name}" for module, tree in TREES.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and node.name not in referenced]
    assert not orphans, f"unreferenced private definitions: {orphans}"


def module_references(path: pathlib.Path, tree: ast.Module) -> set[tuple[str, str]]:
    """The (module, name) pairs a file reads from codimflow modules: the
    names it imports from them, the attributes it reads off a name spelled
    as the module, and, in the benchmark's tracer, the (home, attribute)
    entries of TARGETS, which it wraps by name."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.level or node.module.startswith("codimflow.")):
            refs |= {(node.module.rsplit(".", 1)[-1], alias.name) for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            refs.add((node.value.id, node.attr))
    if path.name == "tracing.py":
        targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                       and getattr(node.targets[0], "id", None) == "TARGETS")
        refs |= {(home.value.rsplit(".", 1)[-1], attr.value) for _, home, attr in
                 (entry.elts for entry in targets.elts)}
    return refs


# Public definitions that only the tests read, each until the ROADMAP item
# named gives it a caller in a run path (or deletes it). No other exemption.
AWAITING_CALLER = {
    "geometry.graph_singular_values": "ROADMAP item 9",
    "lagrangian.angle_evolution_residual": "ROADMAP item 8",
}


def test_public_definitions_are_referenced():
    # a public function or class is referenced from another module of the
    # package or the benchmark harness, or in its own module outside its own
    # definition: one that only the tests read is a second path to what the
    # tests could reach through the first.
    files = [*MODULES, *(ROOT / "perfbench").glob("*.py")]
    referenced = set().union(*(module_references(p, ast.parse(p.read_text())) for p in files))
    orphans = []
    for module, tree in TREES.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                    and (module, node.name) not in referenced
                    and not any(node.name in used_names(ast.Module(body=[other], type_ignores=[]))
                                for other in tree.body if other is not node)):
                orphans.append(f"{module}.{node.name}")
    assert sorted(orphans) == sorted(AWAITING_CALLER), (
        f"public definitions read by no package or benchmark file: {orphans}, "
        f"exempt while awaiting a caller: {sorted(AWAITING_CALLER)}")


def test_readme_scenarios_parse():
    # every ini block of the README parses as `run` reads it, and the
    # potential one as `lagrangian` does too: no removed or misspelt key can
    # linger in a documented example
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = [b.split("```", 1)[0] for b in text.split("```ini\n")[1:]]
    kinds = [parse_config(b).initial_kind for b in blocks]
    assert kinds == ["catalog", "potential"]
    parse_config(blocks[1], flow_type=PotentialFlowConfig, flow_sources=("potential",))
