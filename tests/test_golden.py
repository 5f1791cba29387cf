"""Golden-output check of the command-line front end.

Each case runs ``bosesemi.cli.main(argv)`` in process and compares its
stdout byte for byte with a file under ``tests/golden/``.  The cases
leave out the exact eigenvector columns, whose last digits depend on
the BLAS build.  The exact eigenvalues of the N <= 80 spectra come from
LAPACK too, but they are printed to 6 significant digits, so their
BLAS-dependent last digits cannot show; the N=400 density takes its
extreme levels and bin counts from Sturm counts, which do not depend on
the build.

To rewrite the files after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py`` and record the change.
"""

import sys
from pathlib import Path

import pytest

from bosesemi.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    **{f"spectrum_N20_g-3_eps{eps}": ["spectrum", "--particles", "20", "--g-over-ns", "-3",
                                      "--epsilon", eps]
       for eps in ("0", "0.5", "1", "1.5")},
    "spectrum_N80_g-3_eps0.7": ["spectrum", "--particles", "80", "--g-over-ns", "-3",
                                "--epsilon", "0.7"],
    "sweep_N10_g-0.5": ["sweep", "--particles", "10", "--g-over-ns", "-0.5",
                        "--sweep=-2:2:21"],
    "density_N400_g-3_eps1": ["density", "--particles", "400", "--g-over-ns", "-3",
                              "--epsilon", "1", "--bins", "60"],
    **{f"wavefunction_N{n}_g{g}_eps{eps}_state{k}": [
        "wavefunction", "--method", "semiclassical", "--particles", n,
        "--g-over-ns", g, "--epsilon", eps, "--state", k]
       for n, g, eps, k in (("14", "-0.6", "0.6", "0"), ("100", "-0.6", "0.6", "3"),
                            ("40", "-3", "0", "0"))},
}


def _stdout(capsysbinary, argv):
    assert main(argv) == 0
    return capsysbinary.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_file(name, capsysbinary):
    assert _stdout(capsysbinary, CASES[name]) == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN / f"{name}.out").write_bytes(buf.getvalue().encode())
        print(name)
