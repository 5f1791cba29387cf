"""The three workloads: their inputs, made from the seed, and their
operations.

An operation calls ``bosesemi`` only through module attributes looked up
at call time (``bs.exact_spectrum``, ``cli.main``), so that the tracer's
wrappers see every call.  Each pass runs the same operations; the seed
picks the seeded inputs and the order of the operations in a pass.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import bosesemi as bs
import bosesemi.cli as bs_cli

import checks

V = 1.0


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    levels: Callable[[Any], int] = lambda out: 0


def _params(N, g_ns, eps):
    return bs.ModelParams(N=N, eps=eps, v=V, g=g_ns / (N + 1))


def _spectrum_op(N, g_ns, eps):
    def run():
        p = _params(N, g_ns, eps)
        return bs.exact_spectrum(p).energies, bs.semiclassical_spectrum(p).energies

    return Op(
        name=f"spectra N={N} gNs={g_ns:g} eps={eps:g}",
        run=run,
        check=lambda out: checks.spectra(N, eps, V, g_ns / (N + 1), *out),
        levels=lambda out: len(out[1]),
    )


def dw_spectra(rng, out_dir):
    table = [_spectrum_op(20, -3.0, eps) for eps in (0.0, 0.5, 1.0, 1.5)]
    # A saddle exists for |eps| < 1.12 at g*Ns = -3; the draw stays clear
    # of eps = 0 and of the swallowtail cusp.
    seeded = [_spectrum_op(N, -3.0, round(rng.uniform(0.4, 0.9), 4)) for N in (40, 80)]
    # Fails on every run: QuadratureError at 4096 nodes (ROADMAP item 4).
    # As the warm-up it fills every node table up to 4096, which some
    # seeded biases need too, so no timed pass pays for a table.
    fault = _spectrum_op(40, -3.0, 0.0)
    return table + seeded + [fault], [fault]


def _density_op(N, out_dir):
    path = os.path.join(out_dir, f"density-{os.getpid()}-{N}.csv")
    argv = ["density", "--particles", str(N), "--g-over-ns", "-3", "--epsilon", "1",
            "--bins", "60", "--out", path]

    def run():
        code = bs_cli.main(argv)
        with open(path) as fh:
            text = fh.read()
        os.remove(path)
        return code, text

    return Op(
        name=f"density N={N}",
        run=run,
        check=lambda out: checks.density(N, 1.0, V, -3.0 / (N + 1), 60, *out),
    )


def density_large(rng, out_dir):
    # Narrow ranges keep a pass's eigensolver work (~N^2) within a few
    # percent across seeds; N = 1500 is the README's example.
    sizes = [rng.randrange(380, 421), rng.randrange(780, 821), rng.randrange(1080, 1121), 1500]
    ops = [_density_op(N, out_dir) for N in sizes]
    return ops, [ops[0]]


def _states_op(N, g_ns, eps, states, uniform):
    def run():
        p = _params(N, g_ns, eps)
        spec = bs.exact_spectrum(p, want_vectors=True)
        return [(n, bs.momentum_representation(spec, n), bs.primitive_wavefunction(p, n),
                 bs.uniform_wavefunction(p, n) if n in uniform else None)
                for n in states]

    def check(out):
        return [c for n, ex, pr, un in out
                for c in checks.state(N, eps, V, g_ns / (N + 1), n, ex, pr, un)]

    return Op(
        name=f"states N={N} gNs={g_ns:g} eps={eps:g} n={','.join(map(str, states))}",
        run=run,
        check=check,
        levels=lambda out: sum(1 + (un is not None) for _, _, _, un in out),
    )


def states(rng, out_dir):
    # The uniform form needs both turning points on U-; at N=14,
    # g*Ns=-0.6, eps=0.6 that holds for n = 0, 1 only, so it is asked for
    # where the paper shows it.
    ops = [
        _states_op(14, -0.6, 0.6, [0], uniform={0}),
        _states_op(14, -0.9, 0.0, [2], uniform={2}),
        _states_op(100, -0.6, 0.6, [0, 1, 2, 3, 4], uniform={0, 1, 2, 3, 4}),
    ]
    return ops, [ops[0]]


WORKLOADS = {"dw-spectra": dw_spectra, "density-large": density_large, "states": states}


def build(name, seed, out_dir):
    """(operations of one pass, warm-up operations) for a workload."""
    rng = random.Random(seed)
    ops, warmup = WORKLOADS[name](rng, out_dir)
    rng.shuffle(ops)
    return ops, warmup
