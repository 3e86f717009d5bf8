"""The package's one quadrature rule, Gauss-Legendre, against 40-digit
mpmath, and the rules on the package's source: no module imports
scipy.integrate, scipy.optimize, scipy.sparse, scipy.linalg, decimal or
fractions, no module derives a Gauss-Legendre rule, no module but specfun
reaches scipy's real-axis Bessel K (coulomb's complex K0 aside), neither a
fresh import of the CLI nor a validate run loads any of those four
subpackages, the CLI or validate reaches every definition, and some caller
sets every defaulted parameter; and the rule on the tests: no test module
imports hypothesis."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from vacuumlab import numerics


def test_gauss_legendre_rule_is_correctly_rounded():
    # leggauss's own weights are up to 353 ulp off at the end nodes
    mp = pytest.importorskip("mpmath").mp
    nodes, weights = numerics._GL_NODES, numerics._GL_WEIGHTS
    assert len(nodes) == len(weights) == 20
    assert list(nodes) == [-x for x in nodes[::-1]]
    assert list(weights) == list(weights[::-1])
    with mp.workdps(40):
        for x, w in zip(nodes, weights):
            root = mp.findroot(lambda t: mp.legendre(20, t), mp.mpf(x))
            slope = 20 * (root * mp.legendre(20, root)
                          - mp.legendre(19, root)) / (root ** 2 - 1)
            assert x == float(root)
            assert w == float(2 / ((1 - root ** 2) * slope ** 2))


def _imports(source: str, target: str) -> list[int]:
    """Line numbers at which source imports the module target (dotted or
    not) or one below it: by import or from-import at any depth, by
    importorskip, import_module or __import__ of its name, or, for
    target = "scipy.<subpackage>", as an attribute of scipy."""
    parent, _, attr = target.rpartition(".")
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        elif isinstance(node, ast.Attribute) and node.attr == attr \
                and isinstance(node.value, ast.Name) \
                and node.value.id == parent:
            names = [target]
        elif isinstance(node, ast.Call) and node.args \
                and isinstance(node.args[0], ast.Constant) \
                and (getattr(node.func, "id", None)
                     or getattr(node.func, "attr", None)) \
                in ("importorskip", "import_module", "__import__"):
            names = [str(node.args[0].value)]
        else:
            continue
        if any(n == target or n.startswith(target + ".") for n in names):
            lines.append(node.lineno)
    return lines


def _package_imports(subpackage: str) -> dict[str, list[int]]:
    """{module file name: lines} of the package's modules that import
    scipy.<subpackage>."""
    package = Path(numerics.__file__).parent
    found = {path.name: _imports(path.read_text(), f"scipy.{subpackage}")
             for path in sorted(package.glob("*.py"))}
    return {name: lines for name, lines in found.items() if lines}


def test_rule_detector_sees_every_import_form():
    for sub in ("integrate", "optimize", "sparse", "linalg"):
        for source in (f"from scipy.{sub} import quad",
                       f"import scipy.{sub} as si",
                       f"from scipy import {sub}",
                       f"def f():\n    from scipy.{sub} import quad",
                       f"import scipy\nscipy.{sub}.quad",
                       f"from scipy.{sub}.linalg import expm_multiply"):
            assert _imports(source, f"scipy.{sub}"), source
        assert not _imports("from scipy.special import kv", f"scipy.{sub}")
    assert not _imports("from scipy.sparse.linalg import spsolve",
                        "scipy.linalg")


def test_rule_detector_sees_every_hypothesis_form():
    for source in ("import hypothesis",
                   "import hypothesis.strategies as st",
                   "from hypothesis import given, strategies",
                   "from hypothesis.strategies import floats",
                   "def f():\n    from hypothesis import example",
                   "hyp = pytest.importorskip('hypothesis')",
                   "importorskip('hypothesis.strategies')",
                   "importlib.import_module('hypothesis')",
                   "__import__('hypothesis')"):
        assert _imports(source, "hypothesis"), source
    for source in ("import hypothesis_extra",
                   "pytest.importorskip('mpmath')",
                   "name = 'hypothesis'",
                   "from . import seeded"):
        assert not _imports(source, "hypothesis"), source


def test_no_test_module_imports_hypothesis():
    # every test draws its points from a seeded numpy stream (seeded.py)
    found = {str(path): _imports(path.read_text(), "hypothesis")
             for path in sorted(Path(__file__).parent.rglob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_no_module_imports_scipy_integrate():
    assert _package_imports("integrate") == {}


def test_no_module_imports_scipy_optimize():
    assert _package_imports("optimize") == {}


def test_no_module_imports_scipy_sparse():
    assert _package_imports("sparse") == {}


def test_no_module_imports_scipy_linalg():
    assert _package_imports("linalg") == {}


def test_fresh_cli_import_loads_no_heavy_subpackage(tmp_path):
    # catches what the source rules cannot see: a subpackage that another
    # import pulls in (scipy.optimize loads scipy.linalg and scipy.sparse),
    # also where only a request imports it (validate imports validation)
    heavy = ["scipy.integrate", "scipy.optimize", "scipy.sparse",
             "scipy.linalg"]
    package_root = str(Path(numerics.__file__).parents[1])
    report = str(tmp_path / "report.json")
    validate = f"vacuumlab.cli.main(['validate', '--out', {report!r}]); "
    for run in ("", validate):
        loaded = subprocess.run(
            [sys.executable, "-c",
             f"import sys; sys.path.insert(0, {package_root!r}); "
             f"import vacuumlab.cli; {run}"
             f"print(sorted(set({heavy!r}) & set(sys.modules)))"],
            capture_output=True, text=True, check=True).stdout
        assert loaded.splitlines()[-1] == "[]", run
    assert json.loads(Path(report).read_text())["passed"]


def _references(source: str, name: str) -> list[int]:
    """Line numbers at which source reaches name, as a bare name, an
    attribute or a from-import (which catches an alias)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == name \
                or isinstance(node, ast.Attribute) and node.attr == name \
                or isinstance(node, ast.ImportFrom) \
                and any(alias.name == name for alias in node.names):
            lines.append(node.lineno)
    return lines


def test_rule_detector_sees_every_leggauss_form():
    for source in ("np.polynomial.legendre.leggauss(20)",
                   "from numpy.polynomial.legendre import leggauss",
                   "from numpy.polynomial import legendre\n"
                   "legendre.leggauss(8)",
                   "def f():\n    from numpy.polynomial.legendre import "
                   "leggauss as lg\n    return lg(4)"):
        assert _references(source, "leggauss"), source
    assert not _references("np.polynomial.legendre.legval(x, c)",
                           "leggauss")


def test_only_numerics_builds_a_gauss_legendre_rule():
    # numerics holds the rule as literals; no module derives one
    package = Path(numerics.__file__).parent
    offenders = {path.name: _references(path.read_text(), "leggauss")
                 for path in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in offenders.items() if lines} == {}


# real-axis Bessel K of scipy.special: specfun's Gamma(n, 0, b) recurrence
# is the package's one path to them; kve also serves coulomb's complex K0
_REAL_AXIS_BESSEL_K = ("kv", "kn", "k0e", "k1e")


def test_rule_detector_sees_every_bessel_k_form():
    for name in (*_REAL_AXIS_BESSEL_K, "kve"):
        for source in (f"from scipy.special import {name}",
                       f"from scipy.special import {name} as k",
                       f"import scipy.special\nscipy.special.{name}(1, x)",
                       f"def f(x):\n    from scipy import special\n"
                       f"    return special.{name}(2, x)"):
            assert _references(source, name), source
        for source in (f"x = '{name}'", f"from scipy.special import {name}p",
                       f"{name}p(1, x)"):
            assert not _references(source, name), source


def test_only_specfun_calls_real_axis_bessel_k():
    package = Path(numerics.__file__).parent
    sources = {path.stem: path.read_text()
               for path in sorted(package.glob("*.py"))}
    found = {(mod, name): _references(src, name)
             for mod, src in sources.items()
             for name in (*_REAL_AXIS_BESSEL_K, "kve")}
    allowed = {("specfun", name) for name in (*_REAL_AXIS_BESSEL_K, "kve")}
    allowed.add(("coulomb", "kve"))
    assert {key: lines for key, lines in found.items()
            if lines and key not in allowed} == {}


def test_rule_detector_sees_every_exact_arithmetic_import_form():
    for target, name in (("decimal", "Decimal"), ("fractions", "Fraction")):
        for source in (f"import {target}",
                       f"from {target} import {name}",
                       f"def f():\n    import {target} as d",
                       f"importlib.import_module('{target}')",
                       f"__import__('{target}')"):
            assert _imports(source, target), source
        for source in (f"import {target}x", f"x = {name}(1)",
                       f"from .numerics import {target}"):
            assert not _imports(source, target), source


def test_no_module_imports_decimal_or_fractions():
    # fixed numbers (the quadrature rule, the Bernoulli numbers) are
    # literals, checked against exact values in the tests
    package = Path(numerics.__file__).parent
    found = {path.name: _imports(path.read_text(), "decimal")
             + _imports(path.read_text(), "fractions")
             for path in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


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


def _imported(node: ast.ImportFrom) -> list[tuple[str, str, str]]:
    """(module, name, local name) for each name a relative package import
    binds; module is "__init__" for `from . import name`."""
    if node.level != 1:
        return []
    return [(node.module or "__init__", a.name, a.asname or a.name)
            for a in node.names]


def _unreachable_definitions(sources: dict[str, str],
                             roots: set[str]) -> list[str]:
    """Top-level definitions ("module.name") of the package {module name:
    source} that neither the definitions of the root modules nor any
    module-level statement reaches, following names, `m.name` after
    `from . import m`, and `from .m import name` at any depth (a module's
    imports are collected over its whole tree)."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    defs, code = {}, {}
    for mod, tree in trees.items():
        defs[mod], code[mod] = {}, []
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs[mod][stmt.name] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                for node in targets:
                    for sub in ast.walk(node):
                        if isinstance(sub, ast.Name):
                            defs[mod][sub.id] = stmt
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                code[mod].append(stmt)
    modules, names = {}, {}       # per module: local name -> target
    for mod, tree in trees.items():
        modules[mod], names[mod] = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for target, name, local in _imported(node):
                    if target == "__init__" and name in trees:
                        modules[mod][local] = name
                    else:
                        names[mod][local] = (target, name)

    def uses(mod, node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if sub.id in defs[mod]:
                    yield mod, sub.id
                elif sub.id in names[mod]:
                    yield names[mod][sub.id]
            elif isinstance(sub, ast.Attribute) \
                    and isinstance(sub.value, ast.Name) \
                    and sub.value.id in modules[mod]:
                yield modules[mod][sub.value.id], sub.attr

    todo = [(mod, name) for mod in roots for name in defs[mod]]
    todo += [key for mod in trees for stmt in code[mod]
             for key in uses(mod, stmt)]
    seen = set()
    while todo:
        mod, name = key = todo.pop()
        if key not in seen and name in defs.get(mod, {}):
            seen.add(key)
            todo += uses(mod, defs[mod][name])
    return [f"{mod}.{name}" for mod in sorted(defs) for name in defs[mod]
            if (mod, name) not in seen]


def test_rule_detector_follows_every_reference_form():
    package = {
        "__init__": "__version__ = '1'\nfrom . import a, b",
        "cli": "from . import a\nfrom .b import shown\n"
               "def main():\n    from .b import late\n"
               "    return a.used(), shown, late",
        "a": "LIMIT = 3\nclass Base: pass\nclass Used(Base): pass\n"
             "def used():\n    return Used(LIMIT)\ndef dead():\n    pass",
        "b": "from .a import Base as B\ndef shown(): pass\ndef late(): pass\n"
             "def helper(): return B\nTABLE = {1: helper}\n"
             "if __name__ == '__main__':\n    print(TABLE)",
        "c": "def orphan(): pass",
    }
    assert _unreachable_definitions(package, {"cli"}) == [
        "__init__.__version__", "a.dead", "c.orphan"]


def test_cli_or_validate_reaches_every_definition():
    package = Path(numerics.__file__).parent
    sources = {path.stem: path.read_text()
               for path in sorted(package.glob("*.py"))}
    unreached = _unreachable_definitions(sources, {"cli", "validation"})
    assert set(unreached) - {"__init__.__version__", "__init__.__all__"} \
        == set()


def _same_value(node: ast.expr, default: ast.expr) -> bool:
    """Whether an argument is the default again: the same expression, or a
    literal of the same value."""
    if ast.dump(node) == ast.dump(default):
        return True
    try:
        return ast.literal_eval(node) == ast.literal_eval(default)
    except ValueError:
        return False


def _unset_defaults(sources: dict[str, str]) -> list[str]:
    """Defaulted parameters ("module.function.parameter") of the package
    {module name: source} that no call in it sets to anything but the
    default.  A call reaches every function of its name (`f(...)` or
    `m.f(...)`), positional arguments by position (after self, for a
    method), `*args` and `**kwargs` every parameter.  Calls from inside the
    function itself do not count, nor does an argument that is the default
    again, nor a defaulted parameter of an enclosing function passed
    through, unless some caller sets that one."""
    functions = {}          # name -> [(module, def, positional names)]
    for mod, src in sources.items():
        tree = ast.parse(src)
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                if id(node) in methods:
                    positional = positional[1:]
                functions.setdefault(node.name, []).append(
                    (mod, node, positional))

    def defaults(fn):
        a = fn.args
        params = a.posonlyargs + a.args
        pairs = zip(params[len(params) - len(a.defaults):], a.defaults)
        kw = [(p, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]
        return {p.arg: d for p, d in [*pairs, *kw]}

    # (module, function, parameter) -> the (module, function, parameter)
    # keys whose being set sets it, or True once a call sets it outright
    setters = {(mod, fn.name, p): set() for entries in functions.values()
               for mod, fn, _ in entries for p in defaults(fn)}

    def visit(mod, node, scopes):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            own = {p.arg: None for p in
                   a.posonlyargs + a.args + a.kwonlyargs}
            if not isinstance(node, ast.Lambda):
                own.update({p: (mod, node.name, p) for p in defaults(node)})
            scopes = scopes + [(node, own)]
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name not in {getattr(f, "name", None) for f, _ in scopes}:
                for target_mod, fn, positional in functions.get(name, []):
                    own_defaults = defaults(fn)
                    passed = []
                    for i, arg in enumerate(node.args):
                        if isinstance(arg, ast.Starred):
                            passed += [(p, None) for p in positional[i:]]
                            break
                        if i < len(positional):
                            passed.append((positional[i], arg))
                    for kw in node.keywords:
                        passed += [(kw.arg, kw.value)] if kw.arg else \
                            [(p, None) for p in own_defaults]
                    for param, arg in passed:
                        key = (target_mod, fn.name, param)
                        if param not in own_defaults or setters[key] is True:
                            continue
                        if arg is not None \
                                and _same_value(arg, own_defaults[param]):
                            continue
                        source = None
                        if isinstance(arg, ast.Name):
                            for _, own in reversed(scopes):
                                if arg.id in own:
                                    source = own[arg.id]
                                    break
                        if source is None:
                            setters[key] = True
                        else:
                            setters[key].add(source)
        for child in ast.iter_child_nodes(node):
            visit(mod, child, scopes)

    for mod, src in sources.items():
        visit(mod, ast.parse(src), [])
    changed = True
    while changed:
        changed = False
        for key, via in setters.items():
            if via is not True and any(setters[k] is True for k in via):
                setters[key], changed = True, True
    return sorted(".".join(key) for key, via in setters.items()
                  if via is not True)


def test_rule_detector_sees_unset_defaults():
    package = {
        "a": "def f(x, scale=1.0, *, mode='abs', count=3, extra=None):\n"
             "    return f(x, 2.0, mode='rel')\n"
             "def g(x, tol=1e-8):\n    return f(x, extra=tol)\n"
             "def h(x, cap=CAP):\n"
             "    return f(x, mode=MODE, count=3.0) + g(x, cap)\n"
             "def p(x, y=0):\n    return x + y\n"
             "class K:\n    def m(self, y, flag=False):\n        return y\n"
             "def k(x):\n    return K().m(x, True)",
        "b": "from . import a\n"
             "def run(v, cap=CAP):\n"
             "    return (a.h(v, cap=CAP), a.p(*v),\n"
             "            (lambda w: a.g(w, 1e-08))(v))\n"
             "def main(argv=None):\n    return run(argv)",
    }
    # f.scale is set only by f itself, f.count only to its default's value,
    # g.tol only to 1e-08 == 1e-8 and h.cap only to its default's
    # expression; f.extra is g's unset tol passed through, as g(x, cap)
    # passes h's unset cap; MODE sets f.mode, True sets K.m.flag after self,
    # and *v every positional parameter of p
    assert _unset_defaults(package) == [
        "a.f.count", "a.f.extra", "a.f.scale", "a.g.tol", "a.h.cap",
        "b.main.argv", "b.run.cap"]
    package["b"] = package["b"].replace("cap=CAP)", "cap=2 * CAP)")
    # h.cap is set now, and through it g.tol and f.extra
    assert _unset_defaults(package) == [
        "a.f.count", "a.f.scale", "b.main.argv", "b.run.cap"]


def test_every_defaulted_parameter_is_set_by_a_caller():
    package = Path(numerics.__file__).parent
    sources = {path.stem: path.read_text()
               for path in sorted(package.glob("*.py"))}
    assert set(_unset_defaults(sources)) - {"cli.main.argv"} == set()
