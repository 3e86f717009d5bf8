"""Checks of the span tracer.  Run: python3 -m pytest perfbench"""

import types

import pytest

import tracer


def test_self_time_on_synthetic_tree():
    # root [0, 100] has children a [10, 40] and b [50, 90]; b has c [60, 70]
    spans = [("cli.main", 0, 100, -1, 0),
             ("casimir.a", 10, 40, 0, 0),
             ("coulomb.b", 50, 90, 0, 0),
             ("specfun.c", 60, 70, 2, 0)]
    assert tracer.self_times_ns(spans) == [30, 30, 30, 10]
    m = tracer.layer_metrics(spans, {}, {})
    assert m["cli.self_s"] == pytest.approx(30e-9)
    assert m["coulomb.self_s"] == pytest.approx(30e-9)
    assert m["coulomb.b.s"] == pytest.approx(40e-9)
    assert m["specfun.calls"] == 1
    assert sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS) \
        == pytest.approx(100e-9)


def test_evals_per_root_counts_potentials_under_the_root_search():
    spans = [("coulomb.sign_change_radius", 0, 10, -1, 0),
             ("cli.curve_potential", 1, 2, 0, 0),
             ("coulomb.potential_box", 1, 2, 1, 0),
             ("coulomb.potential_box", 3, 4, 0, 0),
             ("coulomb.potential_box", 20, 21, -1, 0)]   # a curve point
    m = tracer.layer_metrics(spans, {}, {})
    assert m["coulomb.evals_per_root"] == 2


def _fake_package():
    def scale(x):
        return 2.0 * x

    def fail():
        raise KeyError("boom")

    low = types.ModuleType("fake.specfun")
    scale.__module__ = fail.__module__ = low.__name__
    low.scale, low.fail = scale, fail

    def run(x):
        return high.scale(x) + 1.0

    def checks():
        return [f() for f in high.TABLE]

    high = types.ModuleType("fake.coulomb")
    run.__module__ = checks.__module__ = high.__name__
    high.scale, high.run, high.checks = scale, run, checks    # imported by name
    high.TABLE = (low.fail,)
    return low, high


def test_install_wraps_defining_and_importing_modules(monkeypatch):
    import scipy.integrate

    monkeypatch.setattr(scipy.integrate, "quad", scipy.integrate.quad)
    low, high = _fake_package()
    t = tracer.Tracer(KeyError)
    t.install({"specfun": low, "coulomb": high})
    assert high.run(1.0) == 3.0
    with pytest.raises(KeyError):
        high.checks()          # the dispatch tuple was rewrapped too
    names = [s[0] for s in t.closed_spans()]
    assert names == ["coulomb.run", "specfun.scale",
                     "coulomb.checks", "specfun.fail"]
    assert t.errors == {"specfun": 1, "coulomb": 1}


def test_quad_counts_go_to_the_innermost_span():
    from scipy.integrate import quad as real_quad

    t = tracer.Tracer()
    counted = t.counting_quad(real_quad)

    def integrate():
        return counted(lambda x: x * x, 0.0, 1.0)

    outer = t.wrap("casimir.outer", lambda: t.wrap("specfun.inner", integrate)())
    val, err = outer()
    assert val == pytest.approx(1.0 / 3.0)
    (index, (calls, neval, warned)), = t.quad.items()
    assert t.closed_spans()[index][0] == "specfun.inner"
    assert (calls, warned) == (1, 0) and neval == 21


def test_quad_warning_is_counted_and_reraised():
    import warnings

    from scipy.integrate import IntegrationWarning, quad as real_quad

    t = tracer.Tracer()
    counted = t.counting_quad(real_quad)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        counted(lambda x: abs(x - 0.3) ** -0.9, 0.0, 1.0, limit=3)
    assert t.quad[-1] == [1, t.quad[-1][1], 1]
    assert any(issubclass(w.category, IntegrationWarning) for w in caught)


def test_reset_starts_a_new_round_with_the_same_wrappers():
    from scipy.integrate import quad as real_quad

    t = tracer.Tracer()
    counted = t.counting_quad(real_quad)
    inner = t.wrap("specfun.inner", lambda: counted(lambda x: x, 0.0, 1.0))
    inner()
    t.reset()
    assert (t.closed_spans(), t.quad, t.errors) == ([], {}, {})
    inner()
    (name, *_), = t.closed_spans()
    assert name == "specfun.inner" and list(t.quad) == [0]
