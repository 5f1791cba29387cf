import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bosesemi
from bosesemi.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [l for l in text.strip().split("\n")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


def test_spectrum_linear_case(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--particles", "2", "--g", "0",
                             "--epsilon", "0", "--method", "both")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "E_exact", "E_semiclassical", "abs_diff", "rel_diff"]
    assert len(rows) == 3
    exact = [float(r[1]) for r in rows]
    sc = [float(r[2]) for r in rows]
    assert exact == pytest.approx([-2.0, 0.0, 2.0], abs=1e-5)
    assert sc == pytest.approx(exact, abs=1e-5)
    assert all(float(r[3]) < 1e-6 for r in rows)


def test_spectrum_g_over_ns(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--particles", "2",
                           "--g-over-ns", "-0.9", "--epsilon", "0.3",
                           "--method", "both")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 3


def test_spectrum_single_method_leaves_blank(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--particles", "4", "--g", "0",
                           "--method", "exact")
    assert code == 0
    _, rows = parse_csv(out)
    assert all(r[2] == "" and r[3] == "" for r in rows)


def test_byte_identical_reruns(tmp_path, capsys):
    args = ["spectrum", "--particles", "6", "--g-over-ns", "-2", "--epsilon",
            "0.4", "--method", "both"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_json_schema(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--particles", "2", "--g", "0",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"config", "results"}
    assert doc["config"]["particles"] == 2
    assert len(doc["results"]) == 3
    assert set(doc["results"][0]) == {"n", "E_exact", "E_semiclassical",
                                      "abs_diff", "rel_diff"}


def test_sweep_long_format(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--particles", "2",
                           "--g-over-ns", "-0.5", "--sweep=-1:1:3")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["epsilon", "kind", "index", "E_exact", "E_sc"]
    levels = [r for r in rows if r[1] == "level"]
    stat = [r for r in rows if r[1] == "Hstat"]
    assert len(levels) == 9
    assert len(stat) == 6
    assert all(r[4] == "" for r in stat)


def test_sweep_single_point_matches_spectrum(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--particles", "3",
                           "--g-over-ns", "-0.5", "--epsilon", "0.3",
                           "--sweep", "0.3:0.3:1")
    assert code == 0
    _, sweep_rows = parse_csv(out)
    code, out2, _ = run_cli(capsys, "spectrum", "--particles", "3",
                            "--g-over-ns", "-0.5", "--epsilon", "0.3")
    assert code == 0
    _, spec_rows = parse_csv(out2)
    sweep_levels = [(r[2], r[3], r[4]) for r in sweep_rows if r[1] == "level"]
    spec_levels = [(r[0], r[1], r[2]) for r in spec_rows]
    assert sweep_levels == spec_levels


def test_sweep_bad_spec(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--particles", "2", "--sweep", "nonsense"])


def test_density_sections(capsys):
    code, out, _ = run_cli(capsys, "density", "--particles", "60",
                           "--g-over-ns", "-3", "--epsilon", "1", "--bins", "12")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["section", "E", "value", "label"]
    hist = [r for r in rows if r[0] == "histogram"]
    smooth = [r for r in rows if r[0] == "smooth"]
    stationary = [r for r in rows if r[0] == "stationary"]
    assert len(hist) == 12 and len(smooth) == 12
    assert len(stationary) == 4
    # Histogram integrates to one.
    es = np.array([float(r[1]) for r in hist])
    hs = np.array([float(r[2]) for r in hist])
    width = es[1] - es[0]
    assert np.sum(hs) * width == pytest.approx(1.0, abs=1e-4)


def test_density_flat_for_linear_case(capsys):
    code, out, _ = run_cli(capsys, "density", "--particles", "300", "--g", "0",
                           "--epsilon", "0", "--bins", "10")
    assert code == 0
    _, rows = parse_csv(out)
    hs = [float(r[2]) for r in rows if r[0] == "histogram"]
    assert max(hs) / min(hs) < 1.1


def test_density_smooth_column_integrates_to_one(capsys):
    code, out, _ = run_cli(capsys, "density", "--particles", "400",
                           "--g-over-ns", "-3", "--epsilon", "1",
                           "--bins", "80")
    assert code == 0
    _, rows = parse_csv(out)
    smooth = [(float(r[1]), float(r[2])) for r in rows
              if r[0] == "smooth" and r[2] != ""]
    es = np.array([e for e, _ in smooth])
    vs = np.array([v for _, v in smooth])
    width = es[1] - es[0]
    # trapezoid between bin centers plus the half-bin end caps
    integral = np.trapezoid(vs, es) + 0.5 * width * (vs[0] + vs[-1])
    assert integral == pytest.approx(1.0, abs=0.02)


def test_wavefunction_columns_and_norm(capsys):
    code, out, _ = run_cli(capsys, "wavefunction", "--particles", "14",
                           "--g-over-ns", "-0.6", "--epsilon", "0.6",
                           "--state", "0")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["p", "exact", "primitive", "uniform", "U_minus", "U_plus"]
    assert len(rows) == 15
    for col in (1, 2, 3):
        total = sum(float(r[col]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-4)
    # Potential overlay columns bound each other.
    assert all(float(r[4]) <= float(r[5]) + 1e-9 for r in rows)


def test_wavefunction_unsupported_uniform_warns(capsys):
    # Top state orbits the maximum: no uniform column, still exit 0.
    code, out, err = run_cli(capsys, "wavefunction", "--particles", "6",
                             "--g-over-ns", "-0.9", "--epsilon", "0",
                             "--state", "6")
    assert code == 0
    assert "uniform" in err
    _, rows = parse_csv(out)
    assert all(r[3] == "" for r in rows)
    assert all(r[1] != "" and r[2] != "" for r in rows)


def test_wavefunction_deep_symmetric_doublet(capsys):
    # Bisecting the plain level crosses the barrier top, where the total
    # action integrates across the saddle; both semiclassical forms are
    # undefined for a doublet, but the exact column is still printed.
    code, out, err = run_cli(capsys, "wavefunction", "--particles", "40",
                             "--g-over-ns", "-3", "--epsilon", "0",
                             "--state", "0")
    assert code == 0
    assert "primitive form unavailable" in err
    assert "uniform form unavailable" in err
    _, rows = parse_csv(out)
    assert sum(float(r[1]) for r in rows) == pytest.approx(1.0, abs=1e-4)


def test_wavefunction_keeps_other_columns_when_a_form_fails_to_converge(capsys, monkeypatch):
    # A quadrature that does not converge empties only its own form's
    # column, as an unsupported geometry does.
    from bosesemi import cli
    from bosesemi.quad import QuadratureError

    def fail(*args, **kw):
        raise QuadratureError("quadrature did not converge")

    monkeypatch.setattr(cli.wf, "primitive_wavefunction", fail)
    code, out, err = run_cli(capsys, "wavefunction", "--particles", "14", "--g-over-ns",
                             "-0.6", "--epsilon", "0.6", "--state", "0", "--method", "both")
    assert code == 0
    assert err.splitlines() == ["primitive form unavailable: quadrature did not converge"]
    _, rows = parse_csv(out)
    assert len(rows) == 15
    assert all(r[1] != "" and r[2] == "" and r[3] != "" for r in rows)


def test_wavefunction_primitive_on_the_upper_minimum(capsys):
    # State 3 quantizes a few ulp above the upper well minimum, inside
    # the roundoff sliver of the upper lobe; its primitive form builds.
    code, out, err = run_cli(capsys, "wavefunction", "--particles", "20", "--g-over-ns", "-3",
                             "--epsilon", "0.5", "--state", "3", "--method", "semiclassical")
    assert code == 0
    assert "primitive form unavailable" not in err
    _, rows = parse_csv(out)
    assert sum(float(r[2]) for r in rows) == pytest.approx(1.0, abs=1e-4)


def test_wavefunction_quantizes_the_level_once(capsys, monkeypatch):
    # Both semiclassical forms are built at one quantized energy.
    from bosesemi import cli, quantize, wavefun
    original = quantize.quantize_single
    calls = []

    def counted(*args, **kw):
        calls.append(args)
        return original(*args, **kw)

    for mod in (bosesemi, cli, quantize, wavefun):
        if getattr(mod, "quantize_single", None) is original:
            monkeypatch.setattr(mod, "quantize_single", counted)
    wavefun._level.cache_clear()  # a kept level would hide a builder's own solve
    code, _, _ = run_cli(capsys, "wavefunction", "--particles", "14", "--g-over-ns",
                         "-0.6", "--epsilon", "0.6", "--state", "0", "--method", "both")
    assert code == 0
    assert len(calls) == 1


def test_wavefunction_bad_state(capsys):
    code, _, err = run_cli(capsys, "wavefunction", "--particles", "4",
                           "--g", "0", "--state", "9")
    assert code == 1
    assert "state index" in err


def test_portrait_fixed_point_consistency(capsys):
    code, out, _ = run_cli(capsys, "portrait", "--particles", "10",
                           "--g-over-ns", "-3", "--epsilon", "-0.5",
                           "--grid", "8x9")
    assert code == 0
    _, rows = parse_csv(out)
    grid = [r for r in rows if r[0] == "grid"]
    assert len(grid) == 72
    from bosesemi.meanfield import hamiltonian
    from bosesemi.model import ModelParams
    params = ModelParams(N=10, eps=-0.5, v=1.0, g=-3.0 / 11.0)
    fps = [r for r in rows if r[0] == "fixed_point"]
    assert len(fps) == 4
    for r in fps:
        q, p, e = float(r[1]), float(r[2]), float(r[3])
        assert hamiltonian(params, q, p) == pytest.approx(e, abs=1e-4)
    sep = [r for r in rows if r[0] == "separatrix"]
    assert len(sep) == 1
    saddle = [r for r in fps if "saddle" in r[4]][0]
    assert float(sep[0][3]) == pytest.approx(float(saddle[3]))


def test_mutually_exclusive_interaction_flags(capsys):
    with pytest.raises(SystemExit):
        main(["spectrum", "--particles", "4", "--g", "0.1",
              "--g-over-ns", "-1"])


def test_console_entry_point(capsys):
    # Run in a separate process: the installed `bosesemi` script when there
    # is one, otherwise `python -m bosesemi` from the source tree.
    argv = ["spectrum", "--particles", "2", "--g", "0", "--method", "exact"]
    exe = shutil.which("bosesemi")
    cmd = [exe] if exe else [sys.executable, "-m", "bosesemi"]
    src = str(Path(bosesemi.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(cmd + argv, capture_output=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr.decode(errors="replace")
    assert out.stdout.startswith(b"n,E_exact")
    # The separate process runs the same program as the library call.
    code, expected, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.stdout == expected.encode()


def test_script_target_is_module_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["bosesemi"] == "bosesemi.cli:main"
    module, func = scripts["bosesemi"].split(":")
    import bosesemi.__main__
    assert getattr(importlib.import_module(module), func) is bosesemi.__main__.main
