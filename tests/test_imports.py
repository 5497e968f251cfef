"""Import hygiene: no module of the package imports a name it never
uses (the package's `__init__.py` re-exports by design), none reads
the environment, so a run depends only on its inputs, no private
function, class or method is left without a reference, every public
function is called in the package, exported or allowed with a reason,
no public function only forwards to another one under a second name,
and importing the CLI loads no module that only generates or inspects
code."""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "homlie"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # `import a.b` binds `a`, which attribute access then uses
    used |= {
        n.value.id
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
    }
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in used and name not in exported
    )


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom x import a, b\nprint(b)\n") == [
        "a (line 2)",
        "os (line 1)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def environment_reads(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ENVIRONMENT
        ):
            found.append(f"os.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [
                f"os.{alias.name} (line {node.lineno})"
                for alias in node.names
                if alias.name in ENVIRONMENT
            ]
    return found


def test_detects_an_environment_read():
    source = "import os\nfrom os import getenv\nif os.environ.get('X'):\n    pass\n"
    assert environment_reads(source) == ["os.getenv (line 2)", "os.environ (line 3)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_no_environment(path):
    assert environment_reads(path.read_text()) == []


def _references(node) -> Counter:
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def unreferenced_private(sources: dict) -> list[str]:
    """Private (one leading underscore, not a dunder) top-level functions
    and classes, and private methods, that no `Name` or `Attribute` node
    of the sources refers to outside their own definition.  A function
    registered through a decorator call, like the CLI's `@_task(...)`,
    counts as referenced."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = Counter()
    for tree in trees.values():
        total += _references(tree)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for module, tree in trees.items():
        nodes = [node for node in tree.body if isinstance(node, defs)]
        nodes += [
            member
            for node in nodes
            if isinstance(node, ast.ClassDef)
            for member in node.body
            if isinstance(member, defs[:2])
        ]
        for node in nodes:
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            if any(isinstance(d, ast.Call) for d in node.decorator_list):
                continue
            if total[name] == _references(node)[name]:
                found.append(f"{module}:{name} (line {node.lineno})")
    return sorted(found)


def test_detects_unreferenced_private_code():
    a = (
        "def _used(): pass\n"
        "def _recursive(k): return _recursive(k - 1)\n"
        "class _Dead:\n"
        "    def _helper(self): pass\n"
        "    def __init__(self): self._helper\n"
        "    def _orphan(self): pass\n"
        "@register('name')\n"
        "def _registered(): pass\n"
    )
    b = "from a import _used\n_used()\n"
    assert unreferenced_private({"a": a, "b": b}) == [
        "a:_Dead (line 3)",
        "a:_orphan (line 6)",
        "a:_recursive (line 2)",
    ]


def test_every_private_definition_is_referenced():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private(sources) == []


def unreferenced_public(sources: dict, exported) -> list[str]:
    """`module.name` of each public top-level function that no `Name` or
    `Attribute` node of the sources refers to outside its own definition
    and whose name is not in `exported`."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = Counter()
    for tree in trees.values():
        total += _references(tree)
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in exported
        and total[node.name] == _references(node)[node.name]
    )


def test_detects_an_unreferenced_public_function():
    a = (
        "def used(): pass\n"
        "def recursive(k): return recursive(k - 1)\n"
        "def exported(): pass\n"
        "def _private(): pass\n"
        "class Holder:\n"
        "    def method(self): pass\n"
    )
    b = "from a import used\nused()\n"
    assert unreferenced_public({"a": a, "b": b}, {"exported"}) == ["a.recursive"]


# public functions that no code in src calls and `homlie.__all__` does
# not export, each with the reason it stays
UNCALLED_PUBLIC = {
    "courant.check_closed_bracket_formula": "paper result, to become a task (ROADMAP item 10)",
    "dirac.dirac_to_algebroid": "paper result, to become a task (ROADMAP item 10)",
    "fixtures.algebroid_s0": "builds a benchmark workload (`perfbench/workloads.py`)",
    "fixtures.algebroid_s1": "builds a benchmark workload (`perfbench/workloads.py`)",
    "fixtures.algebroid_s2": "builds a benchmark workload (`perfbench/workloads.py`)",
    "fixtures.algebroid_s3": "builds a benchmark workload (`perfbench/workloads.py`)",
    "fixtures.standard_pi": "builds a benchmark workload (`perfbench/workloads.py`)",
    "poisson.classical_poisson_lift": "paper correspondence, to become a task (ROADMAP item 10)",
    "poisson.d_pi": "paper result, to become a task (ROADMAP item 10)",
}


def test_every_public_function_is_called_exported_or_allowed():
    import homlie

    sources = {p.stem: p.read_text() for p in MODULES}
    assert unreferenced_public(sources, set(homlie.__all__)) == sorted(UNCALLED_PUBLIC)


def _forwards(fn: ast.FunctionDef) -> bool:
    """True when fn's body, after any docstring, is one `return` of a
    call that passes fn's parameters through in order, as
    `p0.m(p1, ...)` or `g(p0, p1, ...)`."""
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    call = body[0].value
    if not isinstance(call, ast.Call) or call.keywords:
        return False
    params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    passed = [a.id if isinstance(a, ast.Name) else None for a in call.args]
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if [func.value.id, *passed] == params:
            return True
    return passed == params


def forwarding_functions(source: str) -> list[str]:
    """Public top-level functions that only forward to another callable."""
    return [
        f"{node.name} (line {node.lineno})"
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and _forwards(node)
    ]


def test_detects_a_forwarding_function():
    source = (
        "def pullback(phi, f):\n    return phi.pullback(f)\n"
        "def partial(f, i):\n    '''doc'''\n    return f.partial(i)\n"
        "def lie(ctx, X, D):\n    return schouten(ctx, X, D)\n"
        "def _private(a, b):\n    return a.m(b)\n"
        "def swapped(a, b):\n    return g(b, a)\n"
        "def extra(a, b):\n    return g(a, b, 1)\n"
        "def keyword(a, b):\n    return a.m(b, strict=True)\n"
        "def computed(a, b):\n    return a.m(b.dual())\n"
        "def two_steps(a, b):\n    c = a.m(b)\n    return c\n"
    )
    assert forwarding_functions(source) == [
        "pullback (line 1)",
        "partial (line 3)",
        "lie (line 6)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_public_function_only_forwards(path):
    assert forwarding_functions(path.read_text()) == []


# modules that `dataclasses` and `typing` pull in; no run of the CLI
# needs them, and every run, a fresh process, would pay to load them
START_UP_EXCLUDED = {"dataclasses", "inspect", "typing", "ast", "dis", "tokenize"}


def excluded_imports(statement: str) -> list[str]:
    """The modules of START_UP_EXCLUDED that `statement` adds to
    sys.modules in a fresh interpreter run with -S (no `site` imports),
    with the package's source directory on sys.path."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    return sorted(START_UP_EXCLUDED & set(out.stdout.split()))


def test_detects_an_excluded_import():
    assert {"dataclasses", "inspect"} <= set(excluded_imports("import dataclasses"))


def test_cli_start_up_loads_no_excluded_module():
    assert excluded_imports("import homlie, homlie.cli") == []
