"""Package hygiene: no module imports a name it never uses, no module
keeps state behind a `global` statement or holds an `assert`, instances
and operators keep no cached vectors, every public top-level function or
class has a use in the package or is exported, every export is reached
from a CLI command or a script (test-only code lives in `tests/`), every
defaulted parameter is set by some call outside the tests, one module
builds instances, and the package imports only the third-party modules
it needs, so a cold start stays small.

No linter ships with the test dependencies, so these are plain `ast`
scans.  `__init__.py` is exempt from the import scan: its imports are the
public re-exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "semifold"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = PACKAGE.parents[1] / "scripts"
PERFBENCH = PACKAGE.parents[1] / "perfbench"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_sees_an_unused_import():
    src = "import os\nfrom json import dumps, loads\nprint(loads('1'))\n"
    assert unused_imports(src) == [(1, "os"), (2, "dumps")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _names(nodes) -> set:
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.alias):
                out.add(node.name)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def unreached_names(sources: dict) -> list:
    """(module, name) of each public top-level function or class that no
    code of the package names outside its own definition.  `sources` maps
    file names to source text; names imported by `__init__.py` count as
    exported, hence reached."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    found = []
    for mod, tree in sorted(trees.items()):
        if mod == "__init__.py":
            continue
        elsewhere = _names(t for m, t in trees.items() if m != mod)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_") \
                    and node.name not in elsewhere \
                    and node.name not in _names(n for n in tree.body
                                                if n is not node):
                found.append((mod, node.name))
    return found


def test_scan_sees_an_unreached_name():
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": ("def exported(): pass\n"
                 "def used(): pass\n"
                 "def orphan(): return orphan\n"
                 "class Table: pass\n"
                 "TABLE = {'x': used}\n"),
        "b.py": "from .a import Table\n",
    }
    assert unreached_names(sources) == [("a.py", "orphan")]


def test_every_public_name_is_reached():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unreached_names(sources) == []


def top_definitions(tree) -> dict:
    """name -> node of each top-level function, class and assignment."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            defs.update((t.id, node) for t in targets
                        if isinstance(t, ast.Name))
    return defs


def exports_off_the_cli(sources: dict, scripts=()) -> list:
    """The names that `__init__.py` imports from the package's modules
    and that neither the CLI nor a script reaches.  `sources` maps file
    names to source text, and `scripts` holds the text of each script.
    The roots are cli.main, the COMMANDS table and every name a script
    uses; a name is reached from a root, or from the top-level definition
    (function, class or assignment) of a reached name, in any module.
    Test modules are no roots, so a name that only they use is off the
    CLI."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    defs = {}
    for mod, tree in trees.items():
        if mod != "__init__.py":
            for name, node in top_definitions(tree).items():
                defs.setdefault(name, []).append(node)
    cli = top_definitions(trees["cli.py"])
    todo = _names([cli["main"], cli["COMMANDS"]]) \
        | _names(ast.parse(text) for text in scripts)
    reached = set()
    while todo:
        name = todo.pop()
        reached.add(name)
        todo |= _names(defs.get(name, ())) - reached
    exported = {alias.asname or alias.name
                for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    return sorted(exported - reached)


def test_scan_sees_an_export_off_the_cli():
    sources = {
        "__init__.py": "from .a import run, table, fixture, tested\n",
        "cli.py": ("from .a import run\n"
                   "def cmd_go(args):\n"
                   "    return run(args)\n"
                   "COMMANDS = {'go': cmd_go}\n"
                   "def main(argv):\n"
                   "    return COMMANDS[argv[0]](argv)\n"
                   "def unused():\n"
                   "    return tested()\n"),
        "a.py": ("LIMIT = 3\n"
                 "def run(args):\n"
                 "    return step(args)\n"
                 "def step(args):\n"
                 "    return table(LIMIT)\n"
                 "def table(n): pass\n"
                 "def fixture(): pass\n"
                 "def tested(): pass\n"),
    }
    script = "import semifold as sf\nsf.fixture()\n"
    test_module = "from semifold import tested\ntested()\n"
    assert exports_off_the_cli(sources, [script]) == ["tested"]
    assert exports_off_the_cli(sources) == ["fixture", "tested"]
    assert exports_off_the_cli(sources, [script, test_module]) == []


def test_every_export_is_reached_from_a_command_or_a_script():
    """Every name the package exports is run by a CLI command or by a
    script of `scripts/`; what only tests call lives in `tests/`
    (reference.py).  The one exemption is the sub-supersolution method,
    monotone_iterate on an OrderedInterval: it is the paper's existence
    proof, which acceptance 4 reproduces, while the CLI reaches the same
    minimal solution by monotone Newton."""
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    scripts = [p.read_text() for p in SCRIPTS.glob("*.py")]
    assert exports_off_the_cli(sources, scripts) == [
        "OrderedInterval", "monotone_iterate"]


def _functions(tree):
    """(key, name, positions, defaulted) of each function of `tree`, at any
    depth: key is the name a call uses (a class's name for its __init__),
    positions the parameters a positional argument fills (a method's
    self or cls left out) and defaulted those with a default."""
    methods = {f: cls.name for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for f in cls.body}
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef):
            continue
        args = f.args
        positions = [a.arg for a in args.posonlyargs + args.args]
        defaulted = positions[len(positions) - len(args.defaults):] + [
            a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
        key, name = f.name, f.name
        if f in methods:
            name = f"{methods[f]}.{f.name}"
            if f.name == "__init__":
                key = methods[f]
            if "staticmethod" not in _names(f.decorator_list):
                positions = positions[1:]
        yield key, name, positions, defaulted


def unset_options(sources: dict, callers=()) -> list:
    """(module, function, parameter) of each defaulted parameter of a
    function in `sources` (file names to source text) that no call in
    `sources` or `callers` (source texts) sets: by keyword, by position,
    or through *args (every position) or **kwargs (every parameter).  A
    call matches every function of its name, bare or an attribute, and
    a call of a class is a call of its __init__."""
    functions = {}
    for mod, text in sources.items():
        for key, name, positions, defaulted in _functions(ast.parse(text)):
            functions.setdefault(key, []).append(
                (mod, name, positions, defaulted))
    set_ = set()
    for text in [*sources.values(), *callers]:
        for call in ast.walk(ast.parse(text)):
            if not isinstance(call, ast.Call):
                continue
            key = getattr(call.func, "attr", getattr(call.func, "id", None))
            for mod, name, positions, defaulted in functions.get(key, ()):
                if any(isinstance(a, ast.Starred) for a in call.args):
                    passed = positions
                else:
                    passed = positions[:len(call.args)]
                for k in call.keywords:
                    passed = passed + ([k.arg] if k.arg else defaulted)
                set_ |= {(mod, name, p) for p in passed}
    return sorted((mod, name, p) for found in functions.values()
                  for mod, name, _, defaulted in found for p in defaulted
                  if (mod, name, p) not in set_)


def test_scan_sees_an_unset_option():
    sources = {
        "a.py": ("def solve(u, tol=1e-10, maxit=50, *, damp=False):\n"
                 "    return step(u, 0.5), run(*u), go(u, **OPTS)\n"
                 "def step(u, h=1.0):\n"
                 "    def inner(v, w=2):\n"
                 "        return v\n"
                 "    return inner(u)\n"
                 "def run(a=0, b=1): pass\n"
                 "def go(a, b=1, *, c=2): pass\n"
                 "class Failure(Exception):\n"
                 "    def __init__(self, msg, steps=0, residual=None):\n"
                 "        super().__init__(msg)\n"
                 "    def report(self, full=False): pass\n"
                 "def fail(error):\n"
                 "    error.report(True)\n"
                 "    raise Failure('stuck', steps=3)\n"),
    }
    script = "import a\na.solve([0.0], maxit=10)\n"
    unset = [("a.py", "Failure.__init__", "residual"), ("a.py", "inner", "w"),
             ("a.py", "solve", "damp"), ("a.py", "solve", "tol")]
    assert unset_options(sources, [script]) == unset
    assert unset_options(sources) == sorted(
        unset + [("a.py", "solve", "maxit")])


def test_every_option_is_set_outside_the_tests():
    """A defaulted parameter of the package is an option: some call in the
    package, in `scripts/` or in perfbench's harness sets it, or it is a
    constant.  The one exemption is the sub-supersolution method, as for
    the export scan: monotone_iterate's shift and start are set by the
    tests that reproduce the paper's existence proof alone."""
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    callers = [p.read_text() for d in (SCRIPTS, PERFBENCH)
               for p in d.glob("*.py")]
    assert unset_options(sources, callers) == [
        ("subsuper.py", "monotone_iterate", "shift"),
        ("subsuper.py", "monotone_iterate", "start")]


def test_no_global_statement():
    found = [(p.name, node.lineno) for p in PACKAGE.glob("*.py")
             for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Global)]
    assert found == []


def assert_lines(source: str) -> list:
    """Lines of each `assert` statement, at any depth of the source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_scan_sees_an_assert():
    src = ("def f(x):\n"
           "    assert x > 0, 'x'\n"
           "    return x\n"
           "assert_x = 'not a statement'\n"
           "class C:\n"
           "    def g(self):\n"
           "        assert self\n")
    assert assert_lines(src) == [2, 7]


def test_src_has_no_assert():
    """No check of the package is an `assert` statement, which `python -O`
    strips: validation raises the package's errors."""
    found = [(p.name, line) for p in PACKAGE.glob("*.py")
             for line in assert_lines(p.read_text())]
    assert found == []


def cached_members(source: str, classes) -> list:
    """(class, line) of each `cached_property` and each
    `field(default_factory=...)` that a class named in `classes`
    declares: state derived from, or added to, its vectors."""
    def name(expr):  # `f` of a bare f or of module.f
        return getattr(expr, "attr", getattr(expr, "id", None))

    found = []
    for cls in ast.walk(ast.parse(source)):
        if not (isinstance(cls, ast.ClassDef) and cls.name in classes):
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.FunctionDef):
                found += [(cls.name, node.lineno) for d in node.decorator_list
                          if name(d) == "cached_property"]
            elif isinstance(node, ast.Call) and name(node.func) == "field" \
                    and any(k.arg == "default_factory" for k in node.keywords):
                found.append((cls.name, node.lineno))
    return sorted(found)


def test_scan_sees_cached_members():
    src = ("import functools\n"
           "from dataclasses import dataclass, field\n"
           "@dataclass\n"
           "class Op:\n"
           "    memo: dict = field(default_factory=dict)\n"
           "    size: int = field(default=0)\n"
           "    @functools.cached_property\n"
           "    def sums(self): return 1\n"
           "class Grid:\n"
           "    @functools.cached_property\n"
           "    def volumes(self): return 1\n")
    assert cached_members(src, {"Op"}) == [("Op", 5), ("Op", 8)]


def test_instances_and_operators_cache_no_vectors():
    """A ProblemInstance and a TridiagonalOperator hold only the vectors
    they are built from: at n = 64000 each derived vector would cost
    512 KiB for as long as the instance lives, to save one pass.  (A
    RadialGrid keeps its cell volumes, whose rebuild costs two n-length
    powers per use.)"""
    classes = {"ProblemInstance", "TridiagonalOperator"}
    found = [(p.name, *hit) for p in PACKAGE.glob("*.py")
             for hit in cached_members(p.read_text(), classes)]
    assert found == []


def savetxt_calls(source: str) -> list:
    """Lines that call `savetxt`, as `np.savetxt(...)` or a bare name."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "attr",
                              getattr(node.func, "id", None)) == "savetxt")


def test_scan_sees_a_savetxt_call():
    src = ("import numpy as np\n"
           "from numpy import savetxt\n"
           "np.savetxt('a.csv', [1.0])\n"
           "savetxt('b.csv', [2.0])\n"
           "writer = np.savetxt\n")
    assert savetxt_calls(src) == [3, 4]


def test_csv_has_one_writer():
    """CSV text comes from cli._csv_text alone, written and hashed by
    _Run.emit: no module calls savetxt."""
    found = [(p.name, line) for p in PACKAGE.glob("*.py")
             for line in savetxt_calls(p.read_text())]
    assert found == []


# the calls that assemble an instance's grid, operator and eigenpair
INSTANCE_PARTS = {"build_grid", "assemble_laplacian", "first_eigenpair"}
# the node counts of the coarser levels of an instance's chain of twins
TWIN_SIZES = {"COARSE_N", "LADDER_N"}


def instance_builds(source: str, builders=frozenset()) -> list:
    """(function, what) of each call of build_scenario_instance, of an
    INSTANCE_PARTS name or of one of `builders`, bare or as an attribute,
    of each twin, a `replace(..., grid=...)` call (what = "twin"), and of
    each use of a TWIN_SIZES name (what = that name).  `function` is the
    enclosing top-level definition, "<module>" outside one."""
    called = INSTANCE_PARTS | {"build_scenario_instance"} | set(builders)
    found = []
    for top in ast.parse(source).body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr",
                               getattr(node.func, "id", None))
                if name in called:
                    found.append((where, name))
                elif name == "replace" and any(k.arg == "grid"
                                               for k in node.keywords):
                    found.append((where, "twin"))
            elif isinstance(node, ast.Name) and node.id in TWIN_SIZES:
                found.append((where, node.id))
    return sorted(found)


def instance_builders(source: str) -> set:
    """The top-level functions of `source` that build an instance or a
    twin (instance_builds), directly or through another of them; reading
    a TWIN_SIZES name builds nothing."""
    builders = set()
    while True:
        found = {where for where, what in instance_builds(source, builders)
                 if where != "<module>" and what not in TWIN_SIZES}
        if found == builders:
            return builders
        builders = found


def test_scan_sees_instance_builds():
    src = ("from .config import COARSE_N, LADDER_N\n"
           "def start(cfg):\n"
           "    return config.build_scenario_instance(cfg)\n"
           "def fold(cfg):\n"
           "    twin = replace(cfg, grid={'n': str(COARSE_N)})\n"
           "    return build_grid(3, 1.0, 5), first_eigenpair(twin)\n"
           "def coarse(inst):\n"
           "    return inst.grid.n > LADDER_N\n"
           "def level(cfg):\n"
           "    return fold(cfg), area(cfg)\n"
           "def area(cfg):\n"
           "    return replace(cfg, weight=None)\n")
    assert instance_builds(src) == [
        ("coarse", "LADDER_N"), ("fold", "COARSE_N"), ("fold", "build_grid"),
        ("fold", "first_eigenpair"), ("fold", "twin"),
        ("start", "build_scenario_instance")]
    assert instance_builders(src) == {"fold", "level", "start"}
    assert ("level", "fold") in instance_builds(src, {"fold"})


def test_one_instance_builder():
    """config assembles every grid, operator and eigenpair, and only its
    _twin builds the scenario at another n, the next smaller TWIN_SIZES
    level; cli builds instances only through build_scenario_instance, in
    one place, _Run.  Outside config a TWIN_SIZES name is only read, by
    nonlinear.monotone_newton, which rises on the COARSE_N-node level."""
    config = (PACKAGE / "config.py").read_text()
    builders = instance_builders(config)
    builds = {p.name: instance_builds(p.read_text(), builders)
              for p in MODULES}
    whats = {what for _, what in builds["config.py"]}
    assert INSTANCE_PARTS | {"build_scenario_instance", "twin"} | TWIN_SIZES \
        <= whats <= INSTANCE_PARTS | {"twin"} | TWIN_SIZES | builders
    assert {where for where, what in builds["config.py"]
            if what in TWIN_SIZES | {"twin"}} == {"<module>", "_twin"}
    assert [(mod, where, what) for mod, found in builds.items()
            if mod != "config.py" for where, what in found
            if what not in builders] == [
                ("nonlinear.py", "monotone_newton", "COARSE_N")]
    assert builds["cli.py"] == [("_Run", "build_scenario_instance")]


def name_uses(source: str, names: set) -> list:
    """(function, name) of each use of one of `names`: a bare name, an
    attribute or an imported alias.  `function` is the enclosing
    top-level definition, "<module>" outside one."""
    found = []
    for top in ast.parse(source).body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            name = getattr(node, "id", getattr(node, "attr", None))
            if isinstance(node, ast.alias):
                name = node.name
            if name in names:
                found.append((where, name))
    return sorted(found)


def test_scan_sees_name_uses():
    src = ("from .nonlinear import SOLVE_TOL as tol, monotone_rise\n"
           "def fold(inst):\n"
           "    return nonlinear.SOLVE_TOL, find_fold(inst)\n"
           "LIMIT = 2 * SOLVE_TOL\n")
    assert name_uses(src, {"SOLVE_TOL", "find_fold"}) == [
        ("<module>", "SOLVE_TOL"), ("<module>", "SOLVE_TOL"),
        ("fold", "SOLVE_TOL"), ("fold", "find_fold")]


def test_one_convergence_test_and_one_fold():
    """SOLVE_TOL is named only in nonlinear, where it is defined and
    where the solvers stop at it, and in nonlinear only monotone_newton's
    defect report names row_scale: every solver stops on its correction,
    none on a row-scaled residual.  cli finds and refines the fold in one
    place, _fold."""
    sources = {p.name: p.read_text() for p in MODULES}
    assert sorted(mod for mod, text in sources.items()
                  if name_uses(text, {"SOLVE_TOL"})) == \
        ["nonlinear.py"]
    assert name_uses(sources["nonlinear.py"], {"row_scale"}) == [
        ("monotone_newton", "row_scale")]
    fold = {"find_fold", "refine_fold"}
    assert [where for where, _ in name_uses(sources["cli.py"], fold)
            if where != "<module>"] == ["_fold", "_fold"]


def footing_rules(source: str) -> list:
    """The enclosing top-level definition of each product of the number
    10, of either sign, and an abs() call: the fold ladder's default
    footing, -10 |tau*|."""
    def ten(node):
        try:
            return abs(ast.literal_eval(node)) == 10
        except (ValueError, TypeError):
            return False

    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) \
                    and any(map(ten, (node.left, node.right))) \
                    and any(isinstance(side, ast.Call)
                            and getattr(side.func, "id", None) == "abs"
                            for side in (node.left, node.right)):
                found.append(getattr(top, "name", "<module>"))
    return sorted(found)


def test_scan_sees_a_second_footing():
    src = ("def first_rung(inst):\n"
           "    return -10.0 * abs(tau_star(inst))\n"
           "def branch(inst):\n"
           "    t0 = abs(tau_star(inst)) * 10\n"
           "    return t0, 10 * tau_star(inst), 2.0 * abs(t0)\n"
           "START = -10 * abs(TAU)\n")
    assert footing_rules(src) == ["<module>", "branch", "first_rung"]


def test_one_owner_for_the_footing():
    """Only continuation.first_rung computes the fold ladder's default
    footing, and in continuation only it and find_fold, for its ceiling
    tau* + 1, read tau*.  cli and scripts/make_fixtures.py build no first
    rung themselves: they name neither monotone_rise nor ladder_range."""
    sources = {p.name: p.read_text() for p in MODULES}
    script = (SCRIPTS / "make_fixtures.py").read_text()
    assert {mod: found for mod, text in sources.items()
            if (found := footing_rules(text))} == {
        "continuation.py": ["first_rung"]}
    assert footing_rules(script) == []
    assert [where for where, _ in name_uses(sources["continuation.py"],
                                            {"tau_star"})
            if where != "<module>"] == ["find_fold", "first_rung"]
    for text in (sources["cli.py"], script):
        assert name_uses(text, {"monotone_rise", "ladder_range"}) == []


def tol_constants(source: str) -> list:
    """Names ending in _TOL that the module assigns at its top level."""
    return sorted(target.id for node in ast.parse(source).body
                  if isinstance(node, (ast.Assign, ast.AnnAssign))
                  for target in (node.targets if isinstance(node, ast.Assign)
                                 else [node.target])
                  if isinstance(target, ast.Name)
                  and target.id.endswith("_TOL"))


def test_scan_sees_tol_constants():
    src = ("SOLVE_TOL = 1e-10\n"
           "STEP_TOL: float = 1e-8\n"
           "TOLERANCE = 1.0\n"
           "def stop(size):\n"
           "    LOCAL_TOL = 1e-3\n"
           "    return size < LOCAL_TOL\n")
    assert tol_constants(src) == ["SOLVE_TOL", "STEP_TOL"]


def test_one_fixed_point_loop():
    """The solvers' tolerances live in nonlinear and the eigenpair's in
    eigen, and Picard and the shifted monotone iteration run one loop,
    _fixed_point, which stops through _correction_stop."""
    sources = {p.name: p.read_text() for p in MODULES}
    assert {mod: found for mod, text in sources.items()
            if (found := tol_constants(text))} == {
        "eigen.py": ["EIGENPAIR_TOL"],
        "nonlinear.py": ["FOLD_TOL", "SOLVE_TOL"]}
    assert ("_fixed_point", "_correction_stop") in name_uses(
        sources["nonlinear.py"], {"_correction_stop"})
    assert sorted(where for text in sources.values()
                  for where, _ in name_uses(text, {"_fixed_point"})
                  if where != "_fixed_point") == \
        ["monotone_iterate", "monotone_iterate", "picard_solve"]


# numpy's entry points into BLAS, which on long vectors wake OpenBLAS
# helper threads that burn a second core without a faster result
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "linalg"}


def blas_calls(source: str) -> list:
    """(line, what) of each use of numpy's BLAS entry points: an attribute
    np.<name> or numpy.<name>, a `from numpy import <name>`, an import of
    numpy.linalg, and the @ operator (decorators are not operators)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES \
                and getattr(node.value, "id", None) in ("np", "numpy"):
            found.append((node.lineno, f"np.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "numpy":
            found += [(node.lineno, f"{node.module}.{alias.name}")
                      for alias in node.names if alias.name in BLAS_NAMES
                      or node.module == "numpy.linalg"]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name == "numpy.linalg"]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
    return sorted(found)


def test_scan_sees_blas_calls():
    src = ("import numpy as np\n"
           "from numpy import dot, einsum\n"
           "from numpy.linalg import norm\n"
           "@staticmethod\n"
           "def f(a, b, grid):\n"
           "    a @= b\n"
           "    return (np.vdot(a, b), np.inner(a, b), np.matmul(a, b),\n"
           "            np.tensordot(a, b), np.linalg.norm(a), a @ b,\n"
           "            grid.dot(a, b), einsum('i,i->', a, b))\n")
    assert blas_calls(src) == [(2, "numpy.dot"), (3, "numpy.linalg.norm"),
                               (6, "@"), (7, "np.inner"), (7, "np.matmul"),
                               (7, "np.vdot"), (8, "@"), (8, "np.linalg"),
                               (8, "np.tensordot")]


def test_no_blas_call():
    """Sums go through grid.dot (einsum) and solves through semifold._lapack,
    so no command starts an OpenBLAS helper thread."""
    found = [(p.name, line, what) for p in PACKAGE.glob("*.py")
             for line, what in blas_calls(p.read_text())]
    assert found == []


# every third-party module the package may import; scipy.integrate alone
# would pull in scipy.optimize, sparse, spatial, fft and constants
THIRD_PARTY = {"numpy"}
# and where else: _lapack falls back on SciPy's LAPACK where numpy bundles
# no OpenBLAS of its own
FALLBACK = {("_lapack.py", "scipy.linalg.lapack")}


def third_party_imports(source: str) -> list:
    """(line, module) of each absolute import outside the standard
    library, at any depth of the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, m) for m in modules
                  if m.split(".")[0] not in sys.stdlib_module_names]
    return sorted(found)


def test_scan_sees_third_party_imports():
    src = ("from __future__ import annotations\n"
           "import json, numpy as np\n"
           "from . import grid\n"
           "from .grid import dot\n"
           "from scipy.linalg.lapack import dgtsv\n"
           "def f():\n"
           "    import scipy.optimize\n"
           "    from scipy.integrate import cumulative_trapezoid\n")
    assert third_party_imports(src) == [(2, "numpy"), (5, "scipy.linalg.lapack"),
                                        (7, "scipy.optimize"),
                                        (8, "scipy.integrate")]


def test_only_the_needed_third_party_modules():
    found = [(p.name, line, module) for p in PACKAGE.glob("*.py")
             for line, module in third_party_imports(p.read_text())
             if module not in THIRD_PARTY and (p.name, module) not in FALLBACK]
    assert found == []


COLD_START = """
import sys
import semifold.cli
from semifold import _lapack
from semifold.config import CANONICAL_CONFIG, build_scenario_instance, parse_config
build_scenario_instance(parse_config(CANONICAL_CONFIG))
print(_lapack.LIBRARY)
print(" ".join(sorted(m for m in sys.modules
                      if m.split(".")[0] in ("numpy", "scipy"))))
"""


def test_cold_start_loads_no_heavy_scipy_subpackage():
    """What every CLI call pays before its first solve: importing the CLI
    and building the canonical instance loads no scipy module at all when
    numpy bundles its OpenBLAS, and none of the heavy subpackages where
    the LAPACK routines fall back on scipy.linalg.lapack."""
    proc = subprocess.run([sys.executable, "-c", COLD_START],
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
                          capture_output=True, text=True, check=True)
    library, modules = proc.stdout.splitlines()
    loaded = set(modules.split())
    assert "numpy" in loaded  # the probe lists what it loaded
    scipy = {m for m in loaded if m.split(".")[0] == "scipy"}
    if library != "scipy.linalg.lapack":
        assert scipy == set()
    for heavy in ("scipy.integrate", "scipy.optimize", "scipy.sparse",
                  "scipy.spatial", "scipy.special"):
        assert heavy not in scipy
