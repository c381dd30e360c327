"""Every name a kopt_lab module imports is used in that module, and every helper has a user.

No linter ships with the package, so this test is the dead-import check.
`__init__.py` is skipped: its imports are the package's exports.

It is also the dead-helper check: a public function, or a private function
or class, at the top level of `src/kopt_lab` must be referenced by `src`
code outside its own body, be named by a metric of `BENCHMARK.json`, or be
used by the benchmark's code (its `paths`).  A helper that only tests call
belongs in `tests/`.

And it keeps the one coordinate-distance rule in one place: in `tour.py`,
`np.abs` and `np.sqrt` appear only inside `_CoordinateDistances`.  So too
the one permutation check: in `tour.py`, a tour's order is closed into a
ring (`o + o[:1]`, or `np.concatenate((o, o[:1]))` for an array) only inside
`Tour._closed`, the ring that `Tour.validate` checks.  And the one distance
cache: in `tour.py`, the oracle `Instance.dist` is read only where
`Instance._pair_dist` builds the cache and in `tour_length`'s fold.

And every oracle kept in `tests/reference_*.py` is imported by some test
module: an oracle that no test compares against checks nothing.

And the one certificate tolerance: in `arborescence.py`, `CERT_EPS` is read
only inside `_check`, the pass/fail rule of every certificate inequality.

And the one permutation test: `np.bincount` is read only in
`tour._is_permutation`, which `Tour.validate`, the TSPLIB readers and
`lowerbound._check_walk` call, and in `tour._GridIndex.runs`, which counts
grid levels.  And the one summation order: no module but `lowerbound.py`,
whose closed forms add ints, calls builtin `sum`, which compensates a float
sum from Python 3.12 on; every float total is a `tour._left_fold`.

And the front door reads only public names: `cli.py` neither imports nor
reads an `_`-prefixed name of another `kopt_lab` module.  It prints the
records that the library returns, not fields it gathers from helpers.
"""

import ast
import json
from pathlib import Path

import pytest

import kopt_lab

MODULES = sorted(p for p in Path(kopt_lab.__file__).parent.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).resolve().parent
ROOT = Path(kopt_lab.__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Public functions kept without a caller in `src`, each with its reason.
KEPT = {
    "lowerbound.estimate_scan": "the paper's estimate of when the layered tour is k-optimal, "
                                "reported by the tests and the ROADMAP's q-table",
}


def imported_names(tree: ast.Module) -> dict:
    """{bound name: line} for every import outside `from __future__`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported_names(tree).items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    src = "import math\nfrom typing import Optional, Sequence\n\ndef f(x: Optional[int]):\n    return x\n"
    assert unused_imports(src) == [(1, "math"), (2, "Sequence")]


def test_checker_sees_attribute_and_annotation_uses():
    src = "import os.path\nfrom typing import List\n\ndef f(x: List[int]):\n    return os.path.sep\n"
    assert unused_imports(src) == []


def read_names(tree: ast.AST) -> set:
    """Every name that a Name or Attribute node of `tree` reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def is_checked(node: ast.stmt) -> bool:
    """Whether a top-level statement defines a helper the check covers: any function, or a private class."""
    return isinstance(node, ast.FunctionDef) or isinstance(node, ast.ClassDef) and node.name.startswith("_")


def unused_functions(sources: dict, named: set, used_elsewhere: set) -> list:
    """`<module>.<name>` of every top-level function or private class of `sources` that nothing uses.

    `sources` maps module names to their code.  A helper is used when
    `named` holds `<module>.<name>`, when `used_elsewhere` holds its name,
    or when a top-level statement of some module reads its name, other than
    the helper itself and the helpers found unused: a helper that only
    unused ones call is unused too.  Names match by name alone, whatever
    module they are read from.
    """
    statements, candidates = [], {}
    for mod, src in sources.items():
        for node in ast.parse(src).body:
            checked = is_checked(node)
            qualified = f"{mod}.{node.name}" if checked else None
            statements.append((qualified, read_names(node)))
            if checked and qualified not in named and node.name not in used_elsewhere:
                candidates[qualified] = node.name
    unused, changed = set(), True
    while changed:
        changed = False
        for qualified, name in candidates.items():
            if qualified not in unused and not any(
                    name in names for owner, names in statements
                    if owner != qualified and owner not in unused):
                unused.add(qualified)
                changed = True
    return sorted(unused)


def benchmark_names() -> set:
    """`<layer>.<function>` of every per-layer metric of BENCHMARK.json."""
    return {metric["name"].rpartition(".")[0] for metric in SPEC["per_layer"]}


def benchmark_code_reads() -> set:
    """Every name that the benchmark's code reads."""
    return set().union(*(read_names(ast.parse(path.read_text()))
                         for d in SPEC["paths"] for path in sorted((ROOT / d).rglob("*.py"))))


def test_every_public_function_has_a_user():
    """Public functions and private functions and classes alike."""
    sources = {path.stem: path.read_text() for path in MODULES}
    unused = unused_functions(sources, benchmark_names() | set(KEPT), benchmark_code_reads())
    assert unused == []


def test_checker_flags_a_function_only_tests_or_itself_call():
    sources = {
        "a": "def used():\n    return 1\n\ndef dead():\n    return used()\n\n"
             "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
             "def _private():\n    pass\n\n"
             "class _Box:\n    pass\n\nclass Public:\n    pass\n",
        "b": "from . import a\n\ndef caller():\n    return a.used()\n\n"
             "def traced():\n    pass\n\ndef benched():\n    pass\n\n"
             "if __name__ == '__main__':\n    caller()\n",
    }
    assert unused_functions(sources, {"b.traced"}, {"benched"}) == [
        "a._Box", "a._private", "a.dead", "a.recursive"]


def test_checker_flags_a_helper_that_only_unused_functions_call():
    sources = {"a": "def helper():\n    return 1\n\ndef dead():\n    return helper()\n"}
    assert unused_functions(sources, set(), set()) == ["a.dead", "a.helper"]


# The numpy distance kernels that only the coordinate-distance backend may call.
KERNELS = {"abs", "absolute", "sqrt"}


def kernel_uses(source: str, owner: str) -> list:
    """(line, name) of every `np.<kernel>` in `source` outside the top-level class `owner`."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name == owner:
            continue
        out += [(sub.lineno, f"np.{sub.attr}") for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute) and sub.attr in KERNELS
                and isinstance(sub.value, ast.Name) and sub.value.id == "np"]
    return sorted(out)


def test_coordinate_distances_are_computed_in_one_class():
    source = (Path(kopt_lab.__file__).parent / "tour.py").read_text()
    assert kernel_uses(source, "_CoordinateDistances") == []


def test_checker_flags_a_kernel_outside_the_class():
    src = ("import numpy as np\n\nclass _Box:\n    def f(self, a):\n        return np.sqrt(np.abs(a))\n\n"
           "def g(a):\n    return np.sqrt(a) + math.sqrt(2)\n\nh = np.absolute\n")
    assert kernel_uses(src, "_Box") == [(8, "np.sqrt"), (10, "np.absolute")]


def is_first_entry(node: ast.AST, seq: ast.AST) -> bool:
    """Whether `node` is `seq[:1]`, the sequence's first entry as a sequence."""
    if not isinstance(node, ast.Subscript):
        return False
    cut = node.slice
    return (isinstance(cut, ast.Slice) and cut.lower is None and cut.step is None
            and isinstance(cut.upper, ast.Constant) and cut.upper.value == 1
            and ast.dump(node.value) == ast.dump(seq))


def is_ring_build(node: ast.AST) -> bool:
    """Whether `node` closes a sequence into a ring by its own first entry: `x + x[:1]` or `np.concatenate((x, x[:1]))`."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return is_first_entry(node.right, node.left)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "concatenate"
            and node.args and isinstance(node.args[0], (ast.Tuple, ast.List)) and len(node.args[0].elts) == 2):
        return is_first_entry(node.args[0].elts[1], node.args[0].elts[0])
    return False


def owned_matches(source: str, match) -> list:
    """(line, enclosing class and function names, dotted) of every node of `source` for which match(node, owner)."""
    out = []

    def visit(node: ast.AST, owner: str):
        for child in ast.iter_child_nodes(node):
            if match(child, owner):
                out.append((child.lineno, owner))
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}".lstrip("."))
            else:
                visit(child, owner)

    visit(ast.parse(source), "")
    return sorted(out)


def ring_builds(source: str) -> list:
    """(line, owner) of every ring build in `source`."""
    return owned_matches(source, lambda node, owner: is_ring_build(node))


def test_a_tour_becomes_a_ring_in_one_check():
    """Every engine reads a tour through the ring that `Tour.validate` checks and returns.

    `Tour._closed` builds that ring, of a tuple (`o + o[:1]`) or of an
    ndarray (`np.concatenate((o, o[:1]))`), and nothing else in `tour.py`
    closes a sequence into a ring.
    """
    source = (Path(kopt_lab.__file__).parent / "tour.py").read_text()
    assert [owner for _, owner in ring_builds(source)] == ["Tour._closed", "Tour._closed"]


def test_checker_flags_a_ring_built_outside_the_check():
    src = ("class Tour:\n    def validate(self):\n        return self.order + self.order[:1]\n\n"
           "def _state(t):\n    def segments(tour):\n        return tour.order + tour.order[:1]\n"
           "    o = t.order\n    return o + o[:1], o + o[:2], o + t.order[:1]\n\nring = x + x[:1]\n"
           "a = np.concatenate((x, x[:1])), np.concatenate([x, x[:1]]), np.concatenate((x, y[:1]))\n"
           "b = np.concatenate((x, x[:2])), np.concatenate((x, x[:1], x)), np.stack((x, x[:1]))\n")
    assert ring_builds(src) == [(3, "Tour.validate"), (7, "_state.segments"), (9, "_state"), (11, ""),
                                (12, ""), (12, "")]


def is_oracle_read(node: ast.AST, owner: str) -> bool:
    """Whether `node` reads `inst.dist`, or `self.dist` inside class `Instance`: not a state's distance backend."""
    return (isinstance(node, ast.Attribute) and node.attr == "dist" and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and (node.value.id == "inst" or node.value.id == "self" and owner.startswith("Instance.")))


def test_the_oracle_is_read_only_to_build_the_cache():
    """Every engine reads `Instance._pair_dist`; only the cache and `tour_length`'s fold call `Instance.dist`."""
    source = (Path(kopt_lab.__file__).parent / "tour.py").read_text()
    assert {owner for _, owner in owned_matches(source, is_oracle_read)} == {"Instance._pair_dist", "tour_length"}


def test_checker_flags_an_oracle_read_outside_the_cache():
    src = ("class Instance:\n    def dist(self, i, j):\n        return 0\n\n"
           "    def _pair_dist(self):\n        return self.dist(0, 1)\n\n"
           "    def extended(self):\n        return [self.dist]\n\n"
           "class _TourState:\n    def __init__(self, inst):\n        self.dist = inst._pair_dist\n"
           "        self.edge = self.dist.edge\n\n"
           "def _find_improving_3move(inst, t):\n    d = inst.dist\n\n"
           "def tour_length(inst, t, state):\n    return inst.dist(0, 1) + state.dist.edge[0]\n")
    assert owned_matches(src, is_oracle_read) == [(6, "Instance._pair_dist"), (9, "Instance.extended"),
                                                  (17, "_find_improving_3move"), (20, "tour_length")]


def is_tolerance_read(node: ast.AST, owner: str) -> bool:
    """Whether `node` reads `CERT_EPS`, by name or as an attribute."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name == "CERT_EPS" and isinstance(node.ctx, ast.Load)


def test_the_certificate_tolerance_is_read_in_one_rule():
    source = (Path(kopt_lab.__file__).parent / "arborescence.py").read_text()
    assert [owner for _, owner in owned_matches(source, is_tolerance_read)] == ["_check"]


def test_checker_flags_a_tolerance_read_outside_the_rule():
    src = ("CERT_EPS = 1e-9\n\ndef _check(label, lhs, rhs):\n    return lhs <= rhs + CERT_EPS\n\n"
           "def certify(ratio, bound):\n    return ratio > bound + CERT_EPS * bound\n\n"
           "class Suite:\n    def run(self, eps=CERT_EPS):\n        return arborescence.CERT_EPS\n")
    assert owned_matches(src, is_tolerance_read) == [(4, "_check"), (7, "certify"), (10, "Suite.run"),
                                                       (11, "Suite.run")]


def bincount_reads(source: str) -> list:
    """(line, owner) of every read of `np.bincount` in `source`."""
    return owned_matches(source, lambda node, owner: isinstance(node, ast.Attribute) and node.attr == "bincount"
                         and isinstance(node.value, ast.Name) and node.value.id == "np")


def test_bincount_is_read_in_one_permutation_test():
    found = {f"{path.stem}.{owner}" for path in MODULES for _, owner in bincount_reads(path.read_text())}
    assert found == {"tour._is_permutation", "tour._GridIndex.runs"}


def test_checker_flags_a_second_permutation_test():
    src = ("def _is_permutation(ids: np.ndarray) -> bool:\n    n = len(ids)\n"
           "    return bool((np.bincount(ids.clip(0, n + 1), minlength=n + 2)[1:n + 1] == 1).all())\n\n"
           "class _GridIndex:\n    def runs(self, level):\n        return np.bincount(level), bincount(level)\n\n"
           "count = np.bincount\n")
    assert bincount_reads(src) == [(3, "_is_permutation"), (7, "_GridIndex.runs"), (9, "")]


def builtin_sums(source: str) -> list:
    """(line, owner) of every read of the name `sum`, Python's builtin; `np.sum` and `.sum()` are attributes."""
    return owned_matches(source, lambda node, owner: isinstance(node, ast.Name) and node.id == "sum"
                         and isinstance(node.ctx, ast.Load))


def test_floats_are_added_by_one_fold():
    assert [path.name for path in MODULES if path.name != "lowerbound.py" and builtin_sums(path.read_text())] == []


def test_checker_flags_a_builtin_sum():
    src = ("class Arborescence:\n    def c_total(self) -> float:\n        return sum(e.c for e in self.edges)\n\n"
           "    def w_total(self, w):\n        return _left_fold(e.w for e in self.edges) + np.sum(w) + w.sum()\n\n"
           "add = sum\n")
    assert builtin_sums(src) == [(3, "Arborescence.c_total"), (8, "")]


def unimported_oracles(sources: dict) -> list:
    """The `reference_*` modules of `sources` (module name -> code) that no `test_*` module imports."""
    imported = set()
    for mod, src in sources.items():
        if mod.startswith("test_"):
            for node in ast.walk(ast.parse(src)):
                if isinstance(node, ast.Import):
                    imported.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module)
    return sorted(mod for mod in sources if mod.startswith("reference_") and mod not in imported)


def test_every_oracle_is_imported_by_a_test():
    sources = {path.stem: path.read_text() for path in TESTS.glob("*.py")}
    assert any(mod.startswith("reference_") for mod in sources)
    assert unimported_oracles(sources) == []


def test_checker_flags_an_oracle_no_test_imports():
    sources = {
        "reference_a": "def f():\n    return 1\n",
        "reference_b": "from reference_a import f\n",
        "reference_c": "",
        "reference_d": "",
        "test_x": "import reference_c\nfrom reference_b import g\n\ndef test_y():\n    pass\n",
        "helper": "import reference_d\n",
    }
    assert unimported_oracles(sources) == ["reference_a", "reference_d"]


def is_private(name: str) -> bool:
    """Whether `name` is `_`-prefixed and not a dunder."""
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def root_name(node: ast.AST):
    """The name at the root of an attribute chain such as `a.b.c`, or None."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def foreign_private_reads(source: str) -> list:
    """(line, name) of every private name that `source` imports from `kopt_lab` or reads off a name imported from it.

    A read is an attribute chain from such a name (`lowerbound._x`,
    `kopt_lab.tour._x`).  The module's own private names are not foreign,
    and neither are dunders.
    """
    tree = ast.parse(source)
    ours, out = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.partition(".")[0] == "kopt_lab"):
            for alias in node.names:
                if is_private(alias.name):
                    out.append((node.lineno, alias.name))
                ours.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            ours.update(alias.asname or alias.name.partition(".")[0] for alias in node.names
                        if alias.name.partition(".")[0] == "kopt_lab")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and is_private(node.attr) and root_name(node) in ours:
            out.append((node.lineno, node.attr))
    return sorted(out)


def test_the_cli_reads_only_public_names():
    source = (Path(kopt_lab.__file__).parent / "cli.py").read_text()
    assert foreign_private_reads(source) == []


def test_checker_flags_a_private_name_of_another_module():
    src = ("import json\nimport kopt_lab.tour\nfrom . import lowerbound, tsplib as tl\n"
           "from .harness import SCHEMA, _check as check\nfrom .tour import Tour\n\n"
           "def _write_json(obj):\n    return json._default_encoder, obj.__dict__\n\n"
           "def cmd(inst, tour):\n    rep, examined = lowerbound._scan_2opt(inst, tour)\n"
           "    _write_json(lowerbound.scan_2opt_optimality(inst, tour))\n"
           "    return tl.__name__, tl._parse, Tour._closed, kopt_lab.tour._best_2move\n")
    assert foreign_private_reads(src) == [(4, "_check"), (11, "_scan_2opt"), (13, "_best_2move"),
                                          (13, "_closed"), (13, "_parse")]
