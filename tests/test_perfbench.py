"""The benchmark harness in perfbench/ must keep working with the package:
its tracer patches every module it names, and its self-test runs the
package end to end."""

import functools
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import bosesemi

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_install_and_uninstall_restore_every_attribute():
    spans = _load_spans()
    modules = [bosesemi] + [importlib.import_module(f"bosesemi.{name}")
                            for name in spans.MODULES]
    before = [dict(vars(mod)) for mod in modules]
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = list(tracer._patched)
        assert patched
        assert all(getattr(mod, attr) is not val for mod, attr, val in patched)
    finally:
        tracer.uninstall()
    for mod, attr, val in patched:
        assert getattr(mod, attr) is val
    for mod, attrs in zip(modules, before):
        assert all(vars(mod)[name] is val for name, val in attrs.items())


def test_tracer_counts_every_quartic_solve(monkeypatch):
    # The batched solve is traced, because actions looks quartic_rows up
    # in its module globals.  A solve is one row of that call, and each of
    # the two public calls solves its own contour.
    spans = _load_spans()
    params = bosesemi.ModelParams(N=20, eps=0.0, v=1.0, g=-1.0 / 7.0)
    bosesemi.barrier(params)  # fixed points cached before tracing
    real, rows = bosesemi.roots.quartic_rows, []

    @functools.wraps(real)
    def counted(coeffs):
        rows.append(len(coeffs))
        return real(coeffs)

    for mod in (bosesemi.roots, bosesemi.actions):
        monkeypatch.setattr(mod, "quartic_rows", counted)
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, err, _ = tracer.run_op("lobe-and-tunnel", lambda: (
            bosesemi.action(params, -60.0, lobe="left"), bosesemi.tunneling(params, -60.0)))
    finally:
        tracer.uninstall()
    assert err is None
    assert sum(rows) == 2
    assert tracer.calls_by_name[("roots", "quartic_rows")] == sum(rows)


def test_double_well_spectrum_is_one_quantize_double_call():
    # The benchmark's quantize counters see one enumeration per spectrum,
    # for a double well (eps=0.5) and a single well (eps=1.5) alike.
    spans = _load_spans()
    for eps in (0.5, 1.5):
        params = bosesemi.ModelParams(N=20, eps=eps, v=1.0, g=-3.0 / 21.0)
        tracer = spans.Tracer()
        tracer.install()
        try:
            _, err, _ = tracer.run_op("spectrum", lambda: bosesemi.semiclassical_spectrum(params))
        finally:
            tracer.uninstall()
        assert err is None
        assert tracer.calls_by_name[("quantize", "quantize_double")] == 1
        assert tracer.calls_by_name[("quantize", "quantize_single")] == 0


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
