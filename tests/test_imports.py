"""No module under src/martinwalk imports a name it never uses, defines a
private module-level name it never reads or sets an attribute that no one
reads, and the package exports nothing that no one reads.

No linter is a test dependency, so these are small ``ast`` checks: every
name an import binds, and every ``_name`` function, class or constant a
module defines at its top level, must be read somewhere in the module,
counting names inside string annotations.  ``__init__.py`` is exempt, since
its imports are the package's re-exports; each of those must be read by
another module, by the acceptance tests or by the README library example.
Every public top-level function or class and every public method must be
read by the package, the acceptance tests, the README library example or
the benchmark tracer's targets, bar the few names in ``UNREAD_PUBLIC``.
Every ``self.attr`` a module assigns must be read as ``.attr`` somewhere in
the package, the tests or the README library example.

numpy is imported only inside the functions that use it, or under ``if
TYPE_CHECKING:``, and ``concurrent.futures`` nowhere, so ``import
martinwalk`` and the exact commands (``verify``, ``kernel``, ``lift``) never
load them: a static check reads every module's import-time statements, and a
fresh interpreter runs the commands.  The ``np`` annotations still resolve
at run time.  No module imports ``dataclasses``, which would load
``inspect`` and ``ast`` into every command's start-up, and ``csv`` is
imported only by the CSV writer, so ``import martinwalk.cli`` loads none of
the three.

Each command loads only the modules it runs, again seen from fresh
interpreters: ``import martinwalk``, ``simulate`` and ``kernel`` load none of
``definetti``, ``harmonic`` and ``suites``; ``lift`` and ``estimate`` load
``definetti`` alone; ``verify`` loads all three.  The package serves the
exports of ``definetti`` and ``harmonic`` on first use, each the same object
as its module's attribute.

No public function in ``suites`` takes a degree ``d`` beside the ``walk`` or
``family`` it checks, since the two could disagree.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest
from test_tracer_targets import load_tracer

import martinwalk

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "martinwalk"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
README = ROOT / "README.md"
TESTS = sorted((ROOT / "tests").glob("*.py"))
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import outside ``from __future__``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _private(tree: ast.Module) -> dict[str, int]:
    """Name -> line of every top-level ``_name`` def, class or assignment."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    """Every name the module reads."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a string annotation such as "HarmonicFn" names what it annotates
            try:
                used |= _used(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unread_private_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unread = {name: line for name, line in _private(tree).items() if name not in used}
    assert not unread, f"{path.name}: private names never read {unread}"


def _readme_example() -> str:
    """The README's one ``python`` block, the library example."""
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    return block


def _reads(tree: ast.Module) -> set[str]:
    """Every name read outside the top-level definition of that name: loaded
    names, attribute names and names imported with ``from``."""
    reads = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            reads.update(name for name in names if name != own)
    return reads


def test_every_export_is_read():
    init = ast.parse((SRC / "__init__.py").read_text())
    exports = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    } | set(martinwalk._LAZY)
    readers = [p.read_text() for p in (*MODULES, ACCEPTANCE)] + [_readme_example()]
    reads = set().union(*(_reads(ast.parse(text)) for text in readers))
    unread = sorted(exports - reads)
    assert not unread, f"package exports read nowhere: {unread}"


def test_lazy_exports_are_their_modules_attributes():
    names = ", ".join(martinwalk._LAZY)
    imported = {}
    exec(f"from martinwalk import {names}", imported)
    for name, module in martinwalk._LAZY.items():
        defined = getattr(importlib.import_module(f"martinwalk.{module}"), name)
        assert getattr(martinwalk, name) is defined and imported[name] is defined, name
    with pytest.raises(AttributeError, match="no_such_name"):
        martinwalk.no_such_name


#: public names that nothing reads, each with the reason it stays
UNREAD_PUBLIC = {
    "polya_cotransition": (
        "the composition graph's universal cotransition in closed form, kept as the "
        "reference for the Kingman-graph extension on the ROADMAP"
    ),
}


def _public_definitions(tree: ast.Module) -> dict[str, str]:
    """Qualified name -> name of every public top-level function or class and
    of every public method of a top-level class."""
    out = {}
    for top in tree.body:
        if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        out[top.name] = top.name
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out[f"{top.name}.{node.name}"] = node.name
    return {qualified: name for qualified, name in out.items() if not name.startswith("_")}


def test_every_public_definition_is_read():
    """Only unit tests calling a name does not keep it: the package, the
    acceptance tests, the README library example or a benchmark trace target
    must read it."""
    readers = [p.read_text() for p in (*MODULES, ACCEPTANCE)] + [_readme_example()]
    reads = set().union(*(_reads(ast.parse(text)) for text in readers))
    reads |= {part for _, attr, _, _ in load_tracer().TARGETS for part in attr.split(".")}
    unread = sorted(
        f"{path.name}:{qualified}"
        for path in MODULES
        for qualified, name in _public_definitions(ast.parse(path.read_text())).items()
        if name not in reads and name not in UNREAD_PUBLIC
    )
    assert not unread, f"public names read only by unit tests, or by nothing: {unread}"


def test_no_suite_takes_a_degree_beside_its_chain():
    """A suite handed its chain reads d from it: a ``d`` parameter beside a
    ``walk`` or ``family`` could name one degree and check another."""
    tree = ast.parse((SRC / "suites.py").read_text())
    both = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args
            params = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
            if "d" in params and params & {"walk", "family"}:
                both.append(node.name)
    assert not both, f"suites that take d beside their chain: {both}"


def test_readme_example_runs():
    exec(compile(_readme_example(), str(README), "exec"), {})


def _attributes(tree: ast.AST, ctx: type) -> dict[str, int]:
    """Attribute name -> line of every ``.attr`` in the given context; for
    ``ast.Store``, only the ``self.attr`` targets."""
    return {
        node.attr: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ctx)
        and (ctx is ast.Load or isinstance(node.value, ast.Name) and node.value.id == "self")
    }


def test_every_attribute_is_read():
    readers = [p.read_text() for p in (*SRC.glob("*.py"), *TESTS)] + [_readme_example()]
    reads = set().union(*(_attributes(ast.parse(text), ast.Load) for text in readers))
    unread = {
        f"{path.name}:{line}": attr
        for path in MODULES
        for attr, line in _attributes(ast.parse(path.read_text()), ast.Store).items()
        if attr not in reads
    }
    assert not unread, f"attributes set and never read: {unread}"


#: numpy, which only the samplers use, and the process pool that ``fork_map`` replaced
SAMPLING_ONLY = ("numpy", "concurrent.futures")


def _import_time_imports(tree: ast.AST):
    """Every import statement that runs when the module is imported: the
    module body and class bodies, but not function bodies, nor the body of
    an ``if TYPE_CHECKING:``, which only a type checker runs."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            yield from _import_time_imports(ast.Module(body=node.orelse, type_ignores=[]))
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _import_time_imports(node)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_import_time_sampling_imports(path):
    offending = []
    for node in _import_time_imports(ast.parse(path.read_text(), filename=str(path))):
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
        for name in names:
            if any(name == m or name.startswith(m + ".") for m in SAMPLING_ONLY):
                offending.append(f"{path.name}:{node.lineno}: imports {name}")
    assert not offending, "import these inside the functions that use them: " + "; ".join(offending)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclasses_import(path):
    lines = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]
    assert not lines, f"{path.name}: imports dataclasses at lines {lines}"


def test_numpy_annotations_resolve():
    import numpy

    from martinwalk import DirectingEstimate, PolyaUrnSource, chain, definetti, uniform_walk

    assert typing.get_type_hints(chain.replicate_rng)["return"] is numpy.random.Generator
    for annotated in (
        chain.replicate_rows,
        definetti._markov_counts,
        DirectingEstimate,
        PolyaUrnSource.sample_final_counts,
        uniform_walk(2).sampler.sample_final_counts,
    ):
        assert numpy.ndarray in typing.get_type_hints(annotated).values(), annotated


SMALL_CONFIGS = {
    "verify": {"command": "verify", "d": 2, "budget": 4},
    "kernel": {"command": "kernel", "d": 2, "budget": 3, "alpha": ["1/3", "2/3"]},
    "simulate": {"command": "simulate", "d": 2, "horizon": 10, "replicates": 2},
    "estimate": {"command": "estimate", "source": {"kind": "polya", "initial": [1, 1]},
                 "horizon": 20, "replicates": 3},
    "lift": {"command": "lift", "points": ["1/3", "5/8"], "depth": 8},
}


def _run_in_fresh_interpreter(tmp_path, configs: dict, watched=SAMPLING_ONLY) -> dict:
    """Run ``cli.main`` on each {command: config} in one new interpreter that
    starts with ``import martinwalk``; return the exit statuses and which
    ``watched`` modules are loaded afterwards."""
    script = """
import json, sys
import martinwalk
from martinwalk import cli
tmp, configs, watched = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
statuses = {}
for command, doc in configs.items():
    path = f"{tmp}/{command}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    statuses[command] = cli.main([command, "--config", path, "--out", f"{tmp}/{command}.out"])
print(json.dumps({"statuses": statuses, "loaded": [m for m in watched if m in sys.modules]}))
"""
    return json.loads(
        _fresh_python(script, str(tmp_path), json.dumps(configs), json.dumps(watched))
    )


def _fresh_python(script: str, *args: str) -> str:
    """The stdout of ``script`` run with ``args`` in a new interpreter that
    imports the package from ``src``."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_exact_commands_never_load_numpy(tmp_path):
    configs = {command: SMALL_CONFIGS[command] for command in ("verify", "kernel", "lift")}
    result = _run_in_fresh_interpreter(tmp_path, configs)
    assert result == {"statuses": dict.fromkeys(configs, 0), "loaded": []}


def test_sampling_commands_load_numpy(tmp_path):
    configs = {command: SMALL_CONFIGS[command] for command in ("simulate", "estimate")}
    result = _run_in_fresh_interpreter(tmp_path, configs)
    assert result["statuses"] == dict.fromkeys(configs, 0)
    assert "numpy" in result["loaded"]


#: standard-library modules whose import cost every command would pay
START_UP_HEAVY = ("dataclasses", "inspect", "csv")


def test_cli_import_loads_no_start_up_heavy_module():
    script = "import sys, martinwalk.cli; print([m for m in sys.argv[1:] if m in sys.modules])"
    assert _fresh_python(script, *START_UP_HEAVY) == "[]\n"


#: the modules of the exact de Finetti and boundary-theory apparatus, which
#: ``verify`` runs and the other commands load only in part or not at all
EXACT_APPARATUS = ("martinwalk.definetti", "martinwalk.harmonic", "martinwalk.suites")


@pytest.mark.parametrize(
    "commands, loaded",
    [
        (("simulate", "kernel"), []),
        (("lift", "estimate"), ["martinwalk.definetti"]),
        (("verify",), list(EXACT_APPARATUS)),
    ],
    ids=["simulate-kernel", "lift-estimate", "verify"],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, commands, loaded):
    configs = {command: SMALL_CONFIGS[command] for command in commands}
    result = _run_in_fresh_interpreter(tmp_path, configs, EXACT_APPARATUS)
    assert result == {"statuses": dict.fromkeys(commands, 0), "loaded": loaded}


def test_package_import_loads_no_exact_apparatus():
    script = "import sys, martinwalk; print([m for m in sys.argv[1:] if m in sys.modules])"
    assert _fresh_python(script, *EXACT_APPARATUS) == "[]\n"
