"""The public API ledger: every exported name is reached by something.

The API of the package is the ``__all__`` of each module; the package
itself re-exports nothing. A name in the ``__all__`` of an audited module
is reached when code reaches it from one of these roots:

- library code that runs: module-level statements, and every definition of
  the CLI, ``verify``, ``_kernels`` and ``errors`` modules, followed through
  the definitions they use (a name used only by another dead name is dead);
- the benchmark harness, ``perfbench/*.py``;
- the acceptance gate, ``tests/test_acceptance.py``;
- ``ORACLES``, the test-only names kept because each cross-checks a kept
  function by an independent route.

Uses are read from the code (``ast`` names and attributes), never from
docstrings or comments. A name reached from no root is dead surface: delete
it with its tests rather than list it here.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sobolev_lab"
AUDITED = ("conformal", "cylinder", "duality", "specialfn", "stability", "zonal")
SUBMODULES = AUDITED + ("errors", "verify", "_kernels")

# module.name -> the kept function it cross-checks, and how
ORACLES = {
    "conformal.radial_transfer": "maps the bubble to q_zeta(0) = 1",
    "cylinder.ode_residual": "checks that u0 zeroes V'",
    "cylinder.u_min_turning": "seeds the mpmath reference that checks period",
    "cylinder.quotient_profile": "the grid quotient of the DOP853 branch, "
    "the second route to orbit_branch_value",
    "cylinder.distance_to_branch": "the delta in deficit >= c_T delta^2, "
    "the oracle of c_T",
    "zonal.projection_kernel": "checks the ZonalBasis normalization behind "
    "from_coeffs and eval_zonal by an independent route",
}

class _Uses(ast.NodeVisitor):
    """The (module, name) pairs a file's code uses, per top-level definition.

    ``own`` is the library module the file is, or None for a file outside
    the package; only the package's own files credit a bare name to their
    own module. A bare name bound inside the enclosing definition (an
    argument or an assignment) is a local, not a use of the module's name.
    """

    def __init__(self, tree: ast.Module, own):
        self.own = own
        self.names = {}  # local alias -> (module, name)
        self.modules = {}  # local alias -> module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                self._bind(node)
        self.by_def = {None: set()}
        self.current, self.local = None, frozenset()
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                self.current = stmt.name
                self.local = self._bound(stmt)
                self.by_def.setdefault(stmt.name, set())
                self.generic_visit(stmt)
                self.current, self.local = None, frozenset()
            else:
                self.visit(stmt)

    def _bind(self, node: ast.ImportFrom) -> None:
        if node.level == 1:
            module = node.module
        elif node.module and node.module.split(".")[0] == "sobolev_lab":
            module = node.module.partition(".")[2] or None
        else:
            return
        for alias in node.names:
            local = alias.asname or alias.name
            if module is None:
                self.modules[local] = alias.name
            else:
                self.names[local] = (module, alias.name)

    @staticmethod
    def _bound(stmt) -> frozenset:
        out = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.arg):
                out.add(node.arg)
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                out.add(node.id)
        return frozenset(out)

    def _use(self, module, name) -> None:
        self.by_def[self.current].add((module, name))

    def visit_Name(self, node):
        if not isinstance(node.ctx, ast.Load):
            return
        if node.id in self.names:
            self._use(*self.names[node.id])
        elif self.own and node.id not in self.local and node.id != self.current:
            self._use(self.own, node.id)

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name) and node.value.id in self.modules:
            self._use(self.modules[node.value.id], node.attr)
        self.generic_visit(node)

    def visit_Tuple(self, node):
        # perfbench names the bindings it wraps as ("span", "module", "name")
        strs = [
            e.value
            for e in node.elts
            if isinstance(e, ast.Constant) and isinstance(e.value, str)
        ]
        for module in set(strs) & set(AUDITED):
            for name in strs:
                self._use(module, name)
        self.generic_visit(node)


def _uses(path: Path, own=None) -> _Uses:
    return _Uses(ast.parse(path.read_text()), own)


def _external_uses() -> set:
    """What the benchmark harness and the acceptance gate use."""
    paths = sorted((ROOT / "perfbench").glob("*.py"))
    paths.append(ROOT / "tests" / "test_acceptance.py")
    return set().union(*(set().union(*_uses(p).by_def.values()) for p in paths))


def _reached(extra_roots) -> set:
    """Every (module, name) reached from the library's roots and ``extra_roots``."""
    graph, roots = {}, set(extra_roots)
    for path in SRC.glob("*.py"):
        module = path.stem
        for name, uses in _uses(path, module).by_def.items():
            graph[(module, name)] = uses
            if name is None or module not in AUDITED:
                roots |= uses
    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo.extend(graph.get(key, ()))
    return seen


def _exported() -> set:
    return {
        (m, name)
        for m in AUDITED
        for name in importlib.import_module("sobolev_lab." + m).__all__
    }


def _keys(table) -> set:
    return {tuple(key.split(".")) for key in table}


def test_every_exported_name_is_reached():
    reached = _reached(_external_uses() | _keys(ORACLES))
    dead = sorted("%s.%s" % key for key in _exported() - reached)
    assert not dead, "exported but reached from no root: %s" % ", ".join(dead)


def test_every_oracle_is_exported_test_only_and_names_what_it_checks():
    exported = _exported()
    reached = _reached(_external_uses())
    kept = {name for (_, name) in exported & reached}
    for key, reason in ORACLES.items():
        module, name = key.split(".")
        assert (module, name) in exported, "stale oracle: %s is not exported" % key
        assert (module, name) not in reached, (
            "stale oracle: %s is reached without the ledger" % key
        )
        checked = set(re.findall(r"[A-Za-z_]\w*", reason)) & kept
        assert checked, "oracle %s names no kept function it checks" % key


def test_import_loads_every_submodule():
    # the package imports its submodules, so `import sobolev_lab` still
    # loads (and times) the whole library
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")])
    )
    code = "import sys, sobolev_lab; print(' '.join(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    missing = [m for m in SUBMODULES if "sobolev_lab." + m not in out]
    assert not missing, "import sobolev_lab left out: %s" % ", ".join(missing)


def _module_imports(tree: ast.Module) -> set:
    """The names a module's top-level import statements bind."""
    out = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            out |= {(a.asname or a.name).split(".")[0] for a in stmt.names}
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            out |= {a.asname or a.name for a in stmt.names}
    return out


def test_no_library_module_imports_a_name_it_never_uses():
    # a deletion that leaves its import behind fails here: the tier-1 run
    # has no other lint step
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        module = importlib.import_module("sobolev_lab." + path.stem)
        kept = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        kept |= set(getattr(module, "__all__", ()))
        unused += [
            "%s.%s" % (path.stem, name) for name in sorted(_module_imports(tree) - kept)
        ]
    assert not unused, "imported but never used: %s" % ", ".join(unused)
