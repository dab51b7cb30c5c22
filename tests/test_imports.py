"""The import floor: importing the package loads no scipy or jsonschema module.

scipy is imported on first use by the two functions that need it (the
gaussian tail and the tail quadrature), so a run that needs neither never
pays for it; configs are checked by the package's own schema interpreter,
so no run loads jsonschema.  Each check runs in a fresh child process,
since this test process may already hold scipy and jsonschema.
"""

import ast
import json
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
