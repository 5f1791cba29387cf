"""Self-test of the benchmark's checks: each must reject a wrong answer.

    python3 perfbench/selftest.py

Builds correct outputs with the program at small sizes, confirms that
the checks pass them, then plants one fault per case and confirms that
the named check fails.  Takes a few seconds; exits 1 if any case
misbehaves.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import bosesemi as bs  # noqa: E402
import bosesemi.cli as bs_cli  # noqa: E402

import checks  # noqa: E402
import oracle  # noqa: E402


def _failing(results):
    return {c.name for c in results if not c.ok}


def _case(label, clean, planted, expected):
    bad_clean = _failing(clean)
    bad_planted = _failing(planted)
    ok = not bad_clean and expected in bad_planted
    print(f"{'ok  ' if ok else 'FAIL'} {label}: clean output fails {sorted(bad_clean) or 'nothing'}; "
          f"planted fault fails {sorted(bad_planted) or 'nothing'} (expects {expected})")
    return ok


def level_moved():
    N, eps, g = 20, 1.5, -3.0 / 21
    p = bs.ModelParams(N=N, eps=eps, v=1.0, g=g)
    ex = bs.exact_spectrum(p).energies
    sc = bs.semiclassical_spectrum(p).energies
    w = oracle.eigenvalues(N, eps, 1.0, g)
    moved = sc.copy()
    moved[5] += 0.2 * (w[-1] - w[0]) / N
    return _case("a level moved by 0.2 spacings",
                 checks.spectra(N, eps, 1.0, g, ex, sc),
                 checks.spectra(N, eps, 1.0, g, ex, moved), "sc_vs_oracle_spacings")


def across_bin_edge(tmp):
    N, bins = 300, 60
    g = -3.0 / (N + 1)
    path = os.path.join(tmp, f"selftest-density-{os.getpid()}.csv")
    code = bs_cli.main(["density", "--particles", str(N), "--g-over-ns", "-3", "--epsilon",
                        "1", "--bins", str(bins), "--out", path])
    with open(path) as fh:
        text = fh.read()
    os.remove(path)
    # Move the interior eigenvalue nearest to an interior bin edge just
    # across it, and print the histogram that spectrum would give.
    w = oracle.eigenvalues(N, 1.0, 1.0, g)
    edges = np.linspace(w[0], w[-1], bins + 1)[1:-1]
    inner = w[1:-1]
    dist = np.abs(inner[:, None] - edges[None, :])
    i, k = np.unravel_index(np.argmin(dist), dist.shape)
    shifted = w.copy()
    step = 1e-6 * (w[-1] - w[0])
    shifted[i + 1] = edges[k] + (step if inner[i] < edges[k] else -step)
    heights, _ = np.histogram(shifted, bins, range=(w[0], w[-1]), density=True)
    rows = list(csv.reader(io.StringIO(text)))
    j = 0
    for row in rows[1:]:
        if row[0] == "histogram":
            row[2] = f"{heights[j]:.6g}"
            j += 1
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return _case("one eigenvalue moved across a histogram bin edge",
                 checks.density(N, 1.0, 1.0, g, bins, code, text),
                 checks.density(N, 1.0, 1.0, g, bins, code, out.getvalue()),
                 "hist_heights_digits")


def _state(p, n):
    spec = bs.exact_spectrum(p, want_vectors=True)
    return (bs.momentum_representation(spec, n), bs.primitive_wavefunction(p, n),
            bs.uniform_wavefunction(p, n))


def scaled_distribution():
    N, eps, g = 14, 0.6, -0.6 / 15
    p = bs.ModelParams(N=N, eps=eps, v=1.0, g=g)
    ex, pr, un = _state(p, 0)
    scaled = dataclasses.replace(un, values=un.values * 1.01)
    return _case("a distribution scaled by 1.01",
                 checks.state(N, eps, 1.0, g, 0, ex, pr, un),
                 checks.state(N, eps, 1.0, g, 0, ex, pr, scaled), "uniform_sum_off")


def off_by_one():
    N, eps, g = 14, 0.6, -0.6 / 15
    p = bs.ModelParams(N=N, eps=eps, v=1.0, g=g)
    right = _state(p, 0)
    wrong = _state(p, 1)
    return _case("an off-by-one state index",
                 checks.state(N, eps, 1.0, g, 0, *right),
                 checks.state(N, eps, 1.0, g, 0, *wrong), "primitive_energy_spacings")


def main():
    tmp = os.path.join(HERE, "out")
    os.makedirs(tmp, exist_ok=True)
    results = [level_moved(), across_bin_edge(tmp), scaled_distribution(), off_by_one()]
    print(f"{sum(results)} of {len(results)} planted faults caught")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
