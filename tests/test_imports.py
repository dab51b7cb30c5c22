"""The import floor: importing the package loads no scipy or jsonschema module.

scipy is imported on first use by the two functions that need it (the
gaussian tail and the tail quadrature), so a run that needs neither never
pays for it; configs are checked by the package's own schema interpreter,
so no run loads jsonschema.  Each check runs in a fresh child process,
since this test process may already hold scipy and jsonschema.  Every
name a module lists in `__all__` exists, once, and no module reads another
module's private names.
"""

import ast
import importlib
import json
import pkgutil
from pathlib import Path

import pytest

import chainsup

_SCIPY_LOADED = "import sys; print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"

# the gaussian tail at a few t and three quadrature moments, as float hex
_VALUES = """
import json
import numpy as np
from chainsup import dist
t = np.array([0.0, 1e-8, 0.5, 1.0, 3.0, 40.0])
tail = [float(x).hex() for x in dist.gaussian().tail_value(t)]
quad = [dist.moment_quadrature(dist.sym_weibull(1.5), 3.3).hex(),
        dist.moment_quadrature(dist.sym_exponential(), 2.5).hex(),
        dist.log_concave_from_tail(lambda x: x ** 1.5).moment(3.0).hex()]
print(json.dumps([tail, quad]))
"""

# the values above when scipy.integrate and scipy.special were imported with
# the package (recorded with scipy 1.17.1)
_EAGER = [["0x0.0p+0", "0x1.1226ab2010fe4p-27", "0x1.ee59d69cd3bb0p-2",
           "0x1.25db19d4b92c8p+0", "0x1.7a8876879f4c5p+2", "0x1.91f528618f621p+9"],
          ["0x1.32cffe32b1e2fp+0", "0x1.24a7981b1e750p+0", "0x1.2797a3dd64d5ap+0"]]


_HEAVY_LOADED = ("import sys; print(sorted(k for k in sys.modules "
                 "if k.split('.')[0] in ('scipy', 'jsonschema')))")


@pytest.mark.parametrize("module", ["chainsup", "chainsup.cli"])
def test_import_loads_no_scipy(run_python, module):
    assert run_python(f"import {module}\n{_HEAVY_LOADED}").strip() == "[]"


# the greedy gamma and hull configs of the mc-certify benchmark workload,
# at fewer samples
_GREEDY_RUNS = """
from chainsup import cli
for experiment, count, n in (("gamma", 32, 16), ("hull", 16, 8)):
    cli.run({"experiment": experiment, "process": {"family": "sym_exponential"},
             "index_set": {"type": "sphere_random", "count": count, "n": n, "seed": 1},
             "params": {"mode": "greedy", "samples": 2_000, "seed": 1}})
"""


def test_greedy_gamma_and_hull_runs_load_no_scipy(run_python):
    # the metric's quadrature and its Gauss-Legendre nodes are numpy and
    # math alone; a scipy one would add its import to every such run
    assert run_python(f"{_GREEDY_RUNS}\n{_HEAVY_LOADED}").strip() == "[]"


def test_no_module_imports_jsonschema():
    src = Path(chainsup.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
        names += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
        assert not [m for m in names if m.split(".")[0] == "jsonschema"], path.name


def test_lazy_scipy_paths_give_the_eager_values(run_python):
    lazy_out = run_python(f"import chainsup.cli\n{_VALUES}\n{_SCIPY_LOADED}")
    lazy = json.loads(lazy_out.splitlines()[0])
    loaded = lazy_out.splitlines()[1]
    assert "'scipy.integrate'" in loaded and "'scipy.special'" in loaded
    eager = json.loads(run_python(
        f"import scipy.integrate, scipy.special\nimport chainsup.cli\n{_VALUES}"))
    assert lazy == eager
    got = [[float.fromhex(x) for x in row] for row in lazy]
    want = [[float.fromhex(x) for x in row] for row in _EAGER]
    assert got == [pytest.approx(row, rel=1e-13, abs=0) for row in want]


@pytest.mark.parametrize("name", ["chainsup"] + [
    f"chainsup.{m.name}" for m in pkgutil.iter_modules(chainsup.__path__)])
def test_all_lists_each_existing_name_once(name):
    module = importlib.import_module(name)
    listed = list(getattr(module, "__all__", ()))
    assert [n for n in listed if not hasattr(module, n)] == []
    assert sorted(n for n in set(listed) if listed.count(n) > 1) == []


def test_no_module_reads_another_modules_private_names():
    # the package imports its modules relatively: `from . import m [as a]`
    # binds a module name, `from .m import x` reads a name of m
    src = Path(chainsup.__file__).parent
    modules = {path.stem for path in src.glob("*.py")}
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    bound |= {a.asname or a.name for a in node.names if a.name in modules}
                else:
                    found += [f"{path.name}:{node.lineno} from .{node.module} import {a.name}"
                              for a in node.names if _private(a.name)]
        found += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in bound and _private(node.attr)]
    assert found == []


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
