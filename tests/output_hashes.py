"""Output hashes: one SHA-256 digest per group of library outputs, to
compare two checkouts bit for bit.

    PYTHONPATH=src python tests/output_hashes.py OUT.json
        writes one digest per group (below), each over the exact bytes
        of the group's floats and labels, or the text of the exception
        a call raised;
    python tests/output_hashes.py A.json B.json
        names every group whose digest differs, and exits 1 if any does.

The groups:
    fixed_points  every ``fixed_points`` record at N in {1, 2, 5, 10,
                  20, 40} x g*Ns in {-12, -6, -3, -1, -0.5, 0, 0.5, 3} x
                  eps in {-2.5, -1, -0.3, 0, 0.3, 1.2} x v = +-1 (576 sets);
    period        ``period_direct(lobe="total")`` at 75 energies inside
                  the classical range at (N, g*Ns, eps) = (20, -3, 0.5),
                  (100, -0.6, 0.6) and (400, -3, 1);
    states        the primitive and uniform wavefunction values at the
                  parameter sets and states of the benchmark's ``states``
                  workload;
    trajectory    ``integrate_trajectory`` on a run that hits the rim and
                  on one that does not;
    gpe           ``gpe_propagate`` from one phase-space point.

The package is imported from PYTHONPATH, so the same script hashes any
checkout; without it, the ``src`` next to this file is used.  A run
takes a few seconds.  The name has no ``test_`` prefix, so pytest
does not collect it.
"""

import dataclasses
import hashlib
import json
import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

FIXED_POINT_GRID = [(N, g_ns, eps, v) for N in (1, 2, 5, 10, 20, 40)
                    for g_ns in (-12.0, -6.0, -3.0, -1.0, -0.5, 0.0, 0.5, 3.0)
                    for eps in (-2.5, -1.0, -0.3, 0.0, 0.3, 1.2) for v in (1.0, -1.0)]
PERIOD_POINTS = [(20, -3.0, 0.5), (100, -0.6, 0.6), (400, -3.0, 1.0)]
# (N, g*Ns, eps, states, states with a uniform form), as the ``states`` workload asks.
STATE_POINTS = [(14, -0.6, 0.6, [0], {0}), (14, -0.9, 0.0, [2], {2}),
                (100, -0.6, 0.6, [0, 1, 2, 3, 4], {0, 1, 2, 3, 4})]


def _params(N, g_ns, eps, v=1.0):
    from bosesemi.model import ModelParams

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # g > 0 is flagged as unvalidated
        return ModelParams(N=N, eps=eps, v=v, g=g_ns / (N + 1))


def _outcome(f, *args):
    """f(*args), or the exception it raised as text."""
    try:
        return f(*args)
    except Exception as exc:  # an outcome to hash, not to stop at
        return f"{type(exc).__name__}: {exc}"


def _update(h, x):
    """Feed x to the hash h: arrays as dtype, shape and raw bytes, lists,
    tuples and records item by item, numpy scalars as their Python value,
    anything else by repr."""
    if dataclasses.is_dataclass(x):
        x = (type(x).__name__, *(getattr(x, f.name) for f in dataclasses.fields(x)))
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, np.ndarray):
        h.update(f"{x.dtype.str}{x.shape}".encode() + np.ascontiguousarray(x).tobytes())
    elif isinstance(x, (list, tuple)):
        h.update(f"{type(x).__name__}{len(x)}".encode())
        for item in x:
            _update(h, item)
    else:
        h.update(repr(x).encode())


def _digest(values):
    h = hashlib.sha256()
    _update(h, list(values))
    return h.hexdigest()


def hashes():
    from bosesemi import actions as act
    from bosesemi import meanfield as mf
    from bosesemi import wavefun as wf

    def period(params):
        e_min, e_max = act.classical_range(params)
        return act.period_direct(params, np.linspace(e_min, e_max, 77)[1:-1], lobe="total")

    def state(params, n, uniform):
        out = [wf.primitive_wavefunction(params, n)]
        out += [wf.uniform_wavefunction(params, n)] if uniform else []
        return [(w.kind, w.energy, w.values) for w in out]

    def fixed_points():
        for point in FIXED_POINT_GRID:
            yield point, _outcome(mf.fixed_points, _params(*point))

    def states():
        for N, g_ns, eps, ns, uniform in STATE_POINTS:
            for n in ns:
                yield _outcome(state, _params(N, g_ns, eps), n, n in uniform)

    def trajectories():
        rim = _params(10, 0.0, 0.0)
        loop = _params(10, -3.0, -0.5)
        for params, q0, p0, t_final in ((rim, np.pi / 4, 0.0, 50.0), (loop, 0.9, 2.0, 20.0)):
            tr = mf.integrate_trajectory(params, q0, p0, t_final=t_final, dt=1e-3)
            yield tr.hit_rim, tr.t, tr.q, tr.p

    def gpe():
        params = _params(10, -3.0, -0.5)
        out = mf.gpe_propagate(params, mf.amplitudes_from_phase_point(params, 0.7, 1.5),
                               t_final=20.0, dt=1e-3)
        return [out.t, out.psi]

    groups = {
        "fixed_points": fixed_points,
        "period": lambda: [_outcome(period, _params(*point)) for point in PERIOD_POINTS],
        "states": states,
        "trajectory": trajectories,
        "gpe": gpe,
    }
    return {name: _digest(make()) for name, make in groups.items()}


def compare(a, b):
    """Print every group whose digest differs between ``a`` and ``b``;
    return their number."""
    differ = [name for name in sorted(a.keys() | b.keys()) if a.get(name) != b.get(name)]
    for name in differ:
        print(f"{name}: {a.get(name, 'missing')} -> {b.get(name, 'missing')}")
    print(f"{len(a.keys() | b.keys())} groups, {len(differ)} differ")
    return len(differ)


if __name__ == "__main__":
    if len(sys.argv) == 2:
        Path(sys.argv[1]).write_text(json.dumps(hashes(), indent=1) + "\n")
    elif len(sys.argv) == 3:
        a, b = (json.loads(Path(f).read_text()) for f in sys.argv[1:])
        sys.exit(1 if compare(a, b) else 0)
    else:
        sys.exit(__doc__)
