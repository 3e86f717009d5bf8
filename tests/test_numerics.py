"""The single quadpack entry point: quad_careful against scipy's quad, the
QuadratureSpec rules, and the rule that no other module imports
scipy.integrate."""

import ast
import math
import warnings
from pathlib import Path

import pytest
from scipy.integrate import IntegrationWarning, quad

from vacuumlab import numerics
from vacuumlab.errors import NonConvergence
from vacuumlab.numerics import QuadratureSpec, quad_careful

SPEC = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-9, max_subdivisions=120)
SCIPY_SETTINGS = dict(limit=120, epsabs=1e-11, epsrel=1e-9)


@pytest.mark.parametrize("f, a, b, extra", [
    (lambda x: math.exp(-x) * math.cos(3.0 * x), 0.0, 2.0, {}),
    (lambda x: abs(x - 0.3) ** 0.5, 0.0, 1.0, {"points": [0.3]}),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 10.0, {"weight": "sin", "wvar": 5.0}),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 10.0, {"weight": "cos", "wvar": 5.0}),
    (lambda x: math.exp(-x) / (1.0 + x), 1.0, math.inf, {}),
], ids=["plain", "points", "sin", "cos", "to_inf"])
def test_quad_careful_is_scipy_quad_bit_for_bit(f, a, b, extra):
    assert quad_careful(f, a, b, SPEC, **extra) \
        == quad(f, a, b, **SCIPY_SETTINGS, **extra)[0]


@pytest.mark.parametrize("a, b, extra", [
    (0.0, 10.0, {}),
    (0.0, 10.0, {"weight": "cos", "wvar": 3.0}),
    (0.0, math.inf, {}),
], ids=["plain", "weighted", "to_inf"])
def test_non_finite_integral_raises(a, b, extra):
    # the integral of 1e308 over each range overflows the double range
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        with pytest.raises(NonConvergence):
            quad_careful(lambda x: 1e308, a, b, SPEC, **extra)


def test_spec_accepts_a_pure_relative_rule():
    assert QuadratureSpec(abs_tol=0.0, rel_tol=1e-12).abs_tol == 0.0


@pytest.mark.parametrize("tols", [
    dict(abs_tol=math.nan), dict(rel_tol=math.nan),
    dict(abs_tol=math.inf), dict(rel_tol=math.inf), dict(rel_tol=-math.inf),
    dict(abs_tol=-1e-12), dict(rel_tol=-1e-10),
    dict(abs_tol=0.0, rel_tol=0.0),
])
def test_spec_rejects_bad_tolerances(tols):
    with pytest.raises(ValueError):
        QuadratureSpec(**tols)


def _scipy_integrate_imports(source: str) -> list[int]:
    """Line numbers at which source imports scipy.integrate or reaches it
    as an attribute of scipy."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        elif isinstance(node, ast.Attribute) and node.attr == "integrate" \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "scipy":
            names = ["scipy.integrate"]
        else:
            continue
        if any(n == "scipy.integrate" or n.startswith("scipy.integrate.")
               for n in names):
            lines.append(node.lineno)
    return lines


def test_rule_detector_sees_every_import_form():
    for source in ("from scipy.integrate import quad",
                   "import scipy.integrate as si",
                   "from scipy import integrate",
                   "def f():\n    from scipy.integrate import quad",
                   "import scipy\nscipy.integrate.quad"):
        assert _scipy_integrate_imports(source), source
    assert not _scipy_integrate_imports("from scipy.special import kv")


def test_only_numerics_imports_scipy_integrate():
    package = Path(numerics.__file__).parent
    offenders = {path.name: _scipy_integrate_imports(path.read_text())
                 for path in sorted(package.glob("*.py"))
                 if path.name != "numerics.py"}
    assert {name: lines for name, lines in offenders.items() if lines} == {}
    assert _scipy_integrate_imports(Path(numerics.__file__).read_text())


def _private_package_imports(source: str) -> list[str]:
    """Private (_-prefixed, not dunder) names that source imports from
    vacuumlab, by relative or absolute import, at any depth."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "vacuumlab":
            continue
        names += [alias.name for alias in node.names
                  if alias.name.startswith("_")
                  and not alias.name.endswith("__")]
    return names


def test_rule_detector_sees_private_imports():
    for source in ("from .coulomb import _sine",
                   "def f():\n    from .coulomb import potential, _sine",
                   "from vacuumlab.vacuum import _root",
                   "from . import _helpers"):
        assert _private_package_imports(source), source
    for source in ("from . import __version__, coulomb",
                   "from .vacuum import density",
                   "from scipy.special import _ufuncs"):
        assert not _private_package_imports(source), source


def test_no_module_imports_private_names_of_another():
    package = Path(numerics.__file__).parent
    offenders = {path.name: _private_package_imports(path.read_text())
                 for path in sorted(package.glob("*.py"))}
    assert {name: found for name, found in offenders.items() if found} == {}
