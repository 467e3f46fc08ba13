import ast
import json
import re
from pathlib import Path

import schurweyl
from schurweyl import cli
from schurweyl.branching import SchurWeylTriplet
from schurweyl.graph import SWYEdge, SWYVertex, build
from schurweyl.tableaux import GTPattern
from schurweyl.transform import ExactSparseMatrix, decode, encode, state_from_json_obj

from oracles import module_caches

PACKAGE = Path(schurweyl.__file__).parent


def test_all_names_resolve():
    missing = [name for name in schurweyl.__all__ if not hasattr(schurweyl, name)]
    assert missing == []
    assert len(set(schurweyl.__all__)) == len(schurweyl.__all__)


def test_cache_inventory():
    # clearing the module-level caches must leave the package cold: a cache
    # held anywhere else (a method, a closure) would escape the count here
    decorator = re.compile(r"^\s*@(functools\.)?(cache|lru_cache)\b", re.MULTILINE)
    decorated = sum(
        len(decorator.findall(path.read_text())) for path in PACKAGE.glob("*.py")
    )
    decode(encode((1, 2, 3, 1), 3))
    build(2, 3)
    caches = module_caches()
    assert len(caches) == decorated
    assert any(c.cache_info().currsize for c in caches)
    for c in caches:
        c.cache_clear()
        assert c.cache_info().currsize == 0
    amplitudes = {c.__name__ for c in caches if c.__module__ == "schurweyl.amplitudes"}
    assert amplitudes == {"up_transitions", "down_transitions"}


def imported_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


def test_fraction_only_in_radicals():
    # exact coefficients are int pairs inside the ring; Fraction is only the
    # public face of Radical's constructor, terms and items
    importing = sorted(
        path.name for path in PACKAGE.rglob("*.py") if "fractions" in imported_modules(path)
    )
    assert importing == ["radicals.py"]


def test_cli_uses_json_only_through_loads_and_dumps():
    # perfbench/tracer.py replaces cli.json with a namespace that holds only
    # these two functions, so any other use would break every traced run
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    read = {
        id(node.value): node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }
    uses = [
        read.get(id(node))
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "json"
    ]
    assert set(uses) == {"loads", "dumps"}
    assert not [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json"
        or isinstance(node, ast.Import) and any(a.asname == "json" for a in node.names)
    ]


def referenced_names(path: Path) -> set[str]:
    """Names a module imports, defines, reads or looks up as attributes."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_weyl_rows_only_in_tableaux():
    # a Weyl tableau is a GT pattern inside the package; other modules reach
    # its rows only through gt_from_external and gt_to_external, and the
    # package root re-exports the two row converters as public API
    names = {path.name: referenced_names(path) for path in PACKAGE.rglob("*.py")}
    reaching = sorted(
        name for name, used in names.items() if used & {"gt_to_weyl", "weyl_to_gt"}
    )
    assert reaching == ["__init__.py", "tableaux.py"]
    assert not any("WeylTableau" in used for used in names.values())


def test_states_are_plain_dicts():
    # a state is a {label: amplitude} dict end to end; no wrapper class returns
    state = encode((1, 2, 3, 1), 3)
    assert type(state) is dict
    assert type(decode(state)) is dict
    assert type(state_from_json_obj(json.loads(cli._dumps_state(state, 3, 4)))) is dict
    defined = {
        node.name
        for path in PACKAGE.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    }
    assert not defined & {"SchurWeylState", "ComputationalState", "_AmplitudeMap"}



def module_level_tables(source: str) -> list[str]:
    """Names bound at the top level of ``source`` to a new dict, list or set."""
    displays = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    makers = {"dict", "list", "set", "defaultdict"}
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        made = isinstance(value, displays)
        if isinstance(value, ast.Call):
            func = value.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            made = name in makers
        if made:
            found += [ast.unparse(target) for target in targets]
    return found


def test_no_process_wide_label_table():
    # the branching engine numbers growth paths per call, the
    # state and graph writers and the reader keep their fragment and
    # amplitude tables per document, and the fans their hook tables per
    # miss, and the shared radicals live in a cache; a module-level table
    # would outlive the call, and no cache clear could renumber or empty it
    # consistently with what callers still hold
    names = ("branching.py", "transform.py", "cli.py", "graph.py", "amplitudes.py", "radicals.py")
    for name in names:
        assert module_level_tables((PACKAGE / name).read_text()) == [], name
    planted = (
        "A = {}\nB: list = []\nC = {1}\nD = dict()\nE = collections.defaultdict(int)\n"
        "F = [x for x in ()]\nG = (1, 2)\nH = frozenset()\n"
    )
    assert module_level_tables(planted) == ["A", "B", "C", "D", "E", "F"]


def defined_names(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level: functions, classes and assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_every_export_has_a_caller_or_a_documented_role():
    # a public name earns its place by serving the package or by a role
    # README names; the tests' oracles live in tests/oracles.py
    trees = {
        path.name: ast.parse(path.read_text())
        for path in PACKAGE.glob("*.py")
        if path.name != "__init__.py"
    }
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    idle = []
    for name in schurweyl.__all__:
        [home] = [module for module, tree in trees.items() if name in defined_names(tree)]
        called = any(
            # another module imports the name, or its own module reads it
            isinstance(node, ast.ImportFrom) and name in {alias.name for alias in node.names}
            if module != home
            else isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name
            for module, tree in trees.items()
            for node in ast.walk(tree)
        )
        if not (called or re.search(f"`{name}[`(]", readme)):
            idle.append(name)
    assert idle == []


def test_one_growth_path_reader():
    # tableaux.validate_path is the one growth-path reader and grown_row its
    # single-box rule; the prefix trie, the box helpers and the row-grid
    # oracles are gone from the package
    names = {path.name: referenced_names(path) for path in PACKAGE.rglob("*.py")}
    assert sorted(name for name, used in names.items() if "grown_row" in used) == ["tableaux.py"]
    gone = {
        "_PrefixTable",
        "BoxCoord",
        "removable_boxes",
        "remove_box",
        "syt_to_path",
        "enumerate_syt",
        "enumerate_weyl",
    }
    for path in PACKAGE.rglob("*.py"):
        tree = ast.parse(path.read_text())
        defined = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        }
        assert not (defined | defined_names(tree)) & gone, path.name
    assert not gone & set(schurweyl.__all__)


def test_records_are_tuples():
    # the immutable records are named tuples, which hash and compare at C
    # speed, so the branching engine keys its states by pattern and keeps no
    # pattern ids or per-call copies of the fans
    importing = sorted(
        path.name for path in PACKAGE.rglob("*.py") if "dataclasses" in imported_modules(path)
    )
    assert importing == []
    for record in (GTPattern, SchurWeylTriplet, SWYVertex, SWYEdge, ExactSparseMatrix):
        assert issubclass(record, tuple), record.__name__
    gone = {"pattern_id", "_up_fan", "_down_fan", "up_fans", "down_fans"}
    for path in PACKAGE.rglob("*.py"):
        assert not referenced_names(path) & gone, path.name


def test_terms_only_in_radicals():
    # a Radical is shared by every edge that has its value, so an in-place
    # edit of its term map would change them all: only the ring names it
    naming = sorted(
        path.name for path in PACKAGE.rglob("*.py") if "_terms" in referenced_names(path)
    )
    assert naming == ["radicals.py"]
