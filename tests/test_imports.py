"""Each command imports only what it runs, the package namespace
resolves its names lazily, and every name the bench tracer wraps exists.

The guard runs every subcommand in a fresh interpreter and compares the
modules loaded after the command with those loaded before it, which are
the bare interpreter's.
"""

import ast
import functools
import importlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import fusionkit

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fusionkit.__file__)))

# runs `fusionkit <argv>` (or only `import fusionkit` when argv is empty) and
# prints its exit code and the modules it added to a bare interpreter's
CHILD = """
import io, sys
bare = set(sys.modules)
argv = sys.argv[1:]
stdout, sys.stdout = sys.stdout, io.StringIO()
try:
    import fusionkit
    if argv:
        from fusionkit.cli import main
        code = main(argv)
    else:
        code = 0
except SystemExit as exc:
    code = exc.code
sys.stdout = stdout
print(code)
print(" ".join(sorted(set(sys.modules) - bare)))
"""


def _cyclic(n, letter):
    """Z/n as an explicit ring on e, x, x2, ..., x being ``letter``."""
    labels = ["e", letter] + [f"{letter}{k}" for k in range(2, n)]
    return {"kind": "explicit_ring", "basis": labels, "unit": "e",
            "conj": {labels[k]: labels[-k % n] for k in range(n)},
            "dim": {label: 1 for label in labels},
            "fusion": [[labels[i], labels[k], {labels[(i + k) % n]: 1}]
                       for i in range(1, n) for k in range(1, n)]}


FILES = {
    "z2.json": _cyclic(2, "g"),
    "z4.json": _cyclic(4, "a"),
    "emb.json": {"kind": "embedding", "sub": "z2.json", "ambient": "z4.json",
                 "map": {"e": "e", "g": "a2"}},
    "cert.json": {"kind": "certificate", "embedding": "emb.json",
                  "classes": ["e", "a"], "verified_depth": 4,
                  "factorization": {"e": ["e", "e"], "a2": ["e", "g"],
                                    "a": ["a", "e"], "a3": ["a", "g"]}},
    "rank1.json": {"kind": "module", "ring": "z2.json", "basis": ["j"],
                   "action": [["g", "j", {"j": 1}]]},
    "std-z2.json": {"kind": "module", "standard_of": "z2.json"},
    "std-z4.json": {"kind": "module", "standard_of": "z4.json"},
}

BASE = {"fusionkit", "fusionkit.cli", "fusionkit.elements", "fusionkit.rings",
        "fusionkit.modules", "fusionkit.serialize"}
INDUCTION = {"fusionkit.subrings", "fusionkit.induction"}

# (argv, exit code, the fusionkit modules it loads), every ring explicit:
# no command loads a construction (constructions, cyclotomic) it does not
# build, nor the census outside `enumerate`; `validate` and `product` on a
# ring load neither subrings nor induction
COMMANDS = [
    ([], 0, {"fusionkit"}),
    (["--help"], 0, {"fusionkit", "fusionkit.cli", "fusionkit.elements",
                     "fusionkit.rings"}),
    (["validate", "z4.json"], 0, BASE),
    (["product", "z4.json", "a", "a"], 0, BASE),
    (["divisible", "z4.json", "--sub", "emb.json"], 0,
     BASE | {"fusionkit.subrings"}),
    (["induce", "rank1.json", "--cert", "cert.json"], 0, BASE | INDUCTION),
    (["restrict", "std-z4.json", "--embed", "emb.json"], 0, BASE | INDUCTION),
    (["torsion", "std-z2.json"], 0, BASE),
    (["standard", "std-z2.json"], 0, BASE),
    (["enumerate", "z2.json", "--max-rank", "2", "--max-coeff", "1"], 0,
     BASE | {"fusionkit.census"}),
    (["standardize", "std-z2.json", "--cert", "cert.json"], 0,
     BASE | INDUCTION),
]


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """argv → (exit code, modules the command added), from fresh processes."""
    workdir = tmp_path_factory.mktemp("imports")
    for name, doc in FILES.items():
        (workdir / name).write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("FUSIONKIT_CACHE", None)

    def run(argv):
        done = subprocess.run([sys.executable, "-c", CHILD] + argv,
                              cwd=workdir, env=env, capture_output=True,
                              text=True, check=True)
        code, modules = done.stdout.splitlines()
        return int(code), set(modules.split())

    with ThreadPoolExecutor(max_workers=2) as pool:
        results = pool.map(run, [argv for argv, _, _ in COMMANDS])
        return {" ".join(argv): result
                for (argv, _, _), result in zip(COMMANDS, results)}


@pytest.mark.parametrize("argv, code, expected", COMMANDS,
                         ids=[" ".join(argv) or "import"
                              for argv, _, _ in COMMANDS])
def test_each_command_loads_only_its_modules(loaded, argv, code, expected):
    got_code, modules = loaded[" ".join(argv)]
    assert got_code == code
    assert {m for m in modules if m.split(".")[0] == "fusionkit"} == expected
    assert not modules & {"dataclasses", "inspect"}


# --- the package namespace ----------------------------------------------------


def test_every_table_entry_is_its_module_s_own_object():
    assert len(fusionkit.__all__) == len(set(fusionkit.__all__))
    assert set(fusionkit.__all__) == set(fusionkit._MODULE_OF)
    for name, module in fusionkit._MODULE_OF.items():
        owner = importlib.import_module(f"fusionkit.{module}")
        obj = getattr(fusionkit, name)
        assert obj is vars(owner)[name]
        assert obj.__module__ == owner.__name__, name


def test_star_import_dir_and_attribute_access():
    namespace = {}
    exec("from fusionkit import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(fusionkit.__all__)
    assert all(namespace[name] is getattr(fusionkit, name) for name in namespace)
    assert set(fusionkit.__all__) | {"__version__"} <= set(dir(fusionkit))
    import fusionkit as fk
    from fusionkit import constructions
    assert fk.free_product is constructions.free_product


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fusionkit.no_such_name
    assert not hasattr(fusionkit, "dataclass")


# --- the names the bench tracer wraps -----------------------------------------

TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "bench", "tracing.py")


def _traced_names():
    """(module, attribute path) of each entry of ``SPANS`` and ``COUNTS``,
    read from the tracer's source without importing it."""
    with open(TRACING, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    tables = {node.targets[0].id: ast.literal_eval(node.value)
              for node in tree.body if isinstance(node, ast.Assign)
              and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in ("SPANS", "COUNTS")}
    assert set(tables) == {"SPANS", "COUNTS"}
    return [(module, path) for module, path, _ in tables["SPANS"] + tables["COUNTS"]]


@pytest.mark.parametrize("module, path", _traced_names())
def test_every_traced_name_resolves(module, path):
    owner = importlib.import_module(module)
    assert callable(functools.reduce(getattr, path.split("."), owner))
