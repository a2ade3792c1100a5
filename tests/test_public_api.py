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
it with its tests rather than list it here. The parameter ledger at the end
holds the defaulted parameters of exported functions to the same rule: a
parameter is kept while one of these roots sets it, or while ``TEST_KNOBS``
names the test that needs it.
"""

import ast
import importlib
import inspect
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

def _imports(tree: ast.Module) -> tuple:
    """(names, modules) a file imports from the package, wherever it imports.

    names maps a local alias to (module, name), modules a local alias to a
    module.
    """
    names, modules = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            module = node.module
        elif node.module and node.module.split(".")[0] == "sobolev_lab":
            module = node.module.partition(".")[2] or None
        else:
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            if module is None:
                modules[local] = alias.name
            else:
                names[local] = (module, alias.name)
    return names, modules


class _Uses(ast.NodeVisitor):
    """The (module, name) pairs a file's code uses, per top-level definition.

    ``own`` is the library module the file is, or None for a file outside
    the package; only the package's own files credit a bare name to their
    own module. A bare name bound inside the enclosing definition (an
    argument or an assignment) is a local, not a use of the module's name.
    """

    def __init__(self, tree: ast.Module, own):
        self.own = own
        self.names, self.modules = _imports(tree)
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


def _modules_after_import() -> list:
    """sys.modules of a fresh interpreter after `import sobolev_lab`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")])
    )
    code = "import sys, sobolev_lab; print(' '.join(sorted(sys.modules)))"
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()


def test_import_loads_every_submodule():
    # the package imports its submodules, so `import sobolev_lab` still
    # loads (and times) the whole library
    out = _modules_after_import()
    missing = [m for m in SUBMODULES if "sobolev_lab." + m not in out]
    assert not missing, "import sobolev_lab left out: %s" % ", ".join(missing)


def test_import_loads_no_scipy_integrate():
    # the orbit's DOP853 owns its tableau and its starting step
    assert "scipy.integrate" not in _modules_after_import()


def _scipy_optimize_imports(tree: ast.Module) -> list:
    """The names a module imports from scipy.optimize, wherever it imports."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy.optimize"):
            out += [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            out += [a.name for a in node.names if a.name.startswith("scipy.optimize")]
    return out


def test_every_bracketed_root_runs_on_the_float_brentq():
    # cylinder and conformal bind _brentq.brentq; no module binds scipy's,
    # and conformal, which needs no other solver, imports no scipy.optimize
    import scipy.optimize

    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("sobolev_lab." + path.stem)
        assert not any(v is scipy.optimize.brentq for v in vars(module).values()), path.stem
        assert "brentq" not in _scipy_optimize_imports(ast.parse(path.read_text())), path.stem
    assert not _scipy_optimize_imports(ast.parse((SRC / "conformal.py").read_text()))
    brentq = importlib.import_module("sobolev_lab._brentq").brentq
    for name in ("cylinder", "conformal"):
        assert importlib.import_module("sobolev_lab." + name).brentq is brentq


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


# ---------------------------------------------------------------------------
# The parameter ledger: a defaulted parameter of an exported function is a
# knob, and a knob is kept only while a value of its own reaches it. A call
# that passes the parameter an expression, by position or by keyword, sets
# it. A call that forwards a parameter of an enclosing function under the
# same name sets it only when that parameter is set in turn; the default of
# a wrapper nobody sets decides nothing. The CLI reaches the library through
# ``_given(args, <flags>)``, which sets the library names of its flags, and
# ``run_suite``, which hands each suite the names it is given. Calls are read
# from the roots of the name ledger: the library, ``perfbench/*.py`` and the
# acceptance gate. A unit test sets no knob; a knob only a test sets stays
# only in ``TEST_KNOBS``.

LEDGER_MODULES = AUDITED + ("verify", "cli")
LEDGER_FILES = (
    sorted(SRC.glob("*.py"))
    + sorted((ROOT / "perfbench").glob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py"]
)

# module.function(parameter) -> (the test that sets it, why it stays). A
# discretization or a tolerance that only a test varies is no knob: the
# library reads it from its module constant at call time, and the test sets
# the constant (tests/test_self_convergence.py). An entry here is a parameter
# that chooses what the function computes, not how finely, so no module
# constant can stand for it.
TEST_KNOBS = {
    "cylinder.degenerate_quotient_curve(with_resolvent)": (
        "tests/test_cylinder.py::test_degenerate_curve_without_resolvent_sees_larger_constant",
        "picks the curve and its limit: false drops the resolvent correction and "
        "targets C_* E[u_*]/E[r]^2, the only numeric route to QuarticConstants.c_star",
    ),
}


def _file_key(path: Path) -> str:
    """A library file's module name; any other file's path."""
    return path.stem if path.parent == SRC else str(path.relative_to(ROOT))


def _given_names(call: ast.Call) -> set:
    """The library names that ``_given(args, <flags>)`` sets."""
    cli = importlib.import_module("sobolev_lab.cli")
    flags = []
    for arg in call.args[1:]:
        if isinstance(arg, ast.Constant):
            flags.append(arg.value)
        else:  # *_COMMAND_FLAGS["verify"]
            table = getattr(cli, arg.value.value.id)
            flags.extend(table[arg.value.slice.value])
    keys = (flag.replace("-", "_") for flag in flags)
    return {cli._LIBRARY_NAMES.get(key, key) for key in keys}


class _Calls(ast.NodeVisitor):
    """What the calls in one file pass to the functions they resolve.

    A call resolves to a name imported from the package, to a module
    attribute of the package, or to a top-level function of the file itself.
    ``passed`` collects (function, parameter) pairs given a value, and
    ``forwards`` the pairs (enclosing function, parameter) -> (function,
    parameter) of a forwarded name.
    """

    def __init__(self, path: Path, positional: dict, suites: list):
        tree = ast.parse(path.read_text())
        self.key, self.positional, self.suites = _file_key(path), positional, suites
        self.names, self.modules = _imports(tree)
        self.tops = {s.name: s for s in tree.body if isinstance(s, ast.FunctionDef)}
        # module-level dict literals, for a call's **NAME
        self.dicts = {}
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
                value = stmt.value
                if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "dict":
                    self.dicts[stmt.targets[0].id] = {k.arg for k in value.keywords}
        self.scopes = []  # (owner, parameter names) of the enclosing functions
        self.passed, self.forwards = set(), []
        self.visit(tree)

    def _scope(self, node):
        top = self.tops.get(getattr(node, "name", None)) is node
        owner = (self.key, node.name) if top else None
        args = node.args
        names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        self.scopes.append((owner, names))
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = visit_Lambda = _scope

    def _target(self, func):
        if isinstance(func, ast.Name):
            if func.id in self.names:
                return self.names[func.id]
            return (self.key, func.id) if func.id in self.tops else None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            module = self.modules.get(func.value.id)
            return (module, func.attr) if module else None
        return None

    def _give(self, dests, param, value) -> None:
        """Record param = value for each function in dests."""
        if isinstance(value, ast.Name) and value.id == param:
            for owner, names in reversed(self.scopes):
                if param in names:
                    self.forwards += [((owner, param), (f, param)) for f in dests]
                    return
        self.passed |= {(f, param) for f in dests}

    def visit_Call(self, node):
        self.generic_visit(node)
        target = self._target(node.func)
        if target == ("verify", "run_suite"):
            dests, params = self.suites, []  # run_suite(suite, **params)
        elif target in self.positional:
            dests, params = [target], self.positional[target]
        else:
            return
        for param, arg in zip(params, node.args):
            if isinstance(arg, ast.Starred):
                break
            self._give(dests, param, arg)
        for kw in node.keywords:
            value = kw.value
            if kw.arg is not None:
                self._give(dests, kw.arg, value)
            elif isinstance(value, ast.Call) and self._target(value.func) == ("cli", "_given"):
                self.passed |= {(f, p) for f in dests for p in _given_names(value)}
            elif isinstance(value, ast.Name) and value.id in self.dicts:
                self.passed |= {(f, p) for f in dests for p in self.dicts[value.id]}


def _passed_knobs() -> set:
    """Every module.function(parameter) a root passes a value."""
    positional = {}  # (file key, function) -> positional parameter names
    for path in LEDGER_FILES:
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.FunctionDef):
                args = stmt.args.posonlyargs + stmt.args.args
                positional[_file_key(path), stmt.name] = [a.arg for a in args]
    verify = importlib.import_module("sobolev_lab.verify")
    suites = [("verify", fn.__name__) for fn in verify.SUITES.values()]
    passed, forwards = set(), []
    for path in LEDGER_FILES:
        calls = _Calls(path, positional, suites)
        passed |= calls.passed
        forwards += calls.forwards
    grew = True
    while grew:
        new = {dest for src, dest in forwards if src in passed} - passed
        passed |= new
        grew = bool(new)
    return {"%s.%s(%s)" % (module, name, param) for (module, name), param in passed}


def _defaulted_knobs() -> set:
    """Every module.function(parameter) with a default, over the exported functions."""
    out = set()
    for module in LEDGER_MODULES:
        mod = importlib.import_module("sobolev_lab." + module)
        for name in mod.__all__:
            obj = getattr(mod, name)
            if not callable(obj) or isinstance(obj, type):
                continue
            for param in inspect.signature(obj).parameters.values():
                if param.default is not param.empty:
                    out.add("%s.%s(%s)" % (module, name, param.name))
    return out


def test_every_defaulted_parameter_is_passed_a_value():
    unset = sorted(_defaulted_knobs() - _passed_knobs() - set(TEST_KNOBS))
    assert not unset, "defaulted but never passed a value: %s" % ", ".join(unset)


def test_every_test_knob_is_defaulted_unset_by_the_roots_and_names_its_test():
    defaulted, passed = _defaulted_knobs(), _passed_knobs()
    for knob, (test, reason) in TEST_KNOBS.items():
        assert knob in defaulted, "stale knob: %s is not a defaulted parameter" % knob
        assert knob not in passed, "stale knob: a root sets %s" % knob
        path, name = test.split("::")
        tree = ast.parse((ROOT / path).read_text())
        tests = {s.name for s in tree.body if isinstance(s, ast.FunctionDef)}
        assert name in tests, "knob %s names no test %s" % (knob, test)
        assert reason
