"""Seeded operation lists of the four workloads.

Each operation is the argv of one ``scatter1d.cli.main`` call with the
subcommand's default output format and discretisation.  Continuous inputs
are drawn by stratified sampling: a range cut into as many equal strata as
there are operations, one uniform draw per stratum, the strata shuffled
independently for each input.  Every seed then covers the whole range
evenly, so the cost of the list hardly depends on the seed, and sizes come
from one continuous range instead of a few fixed steps.
"""

from __future__ import annotations

import os
import zlib

import numpy as np

#: Energies per ``smatrix --energy-grid`` operation.
GRID_ENERGIES = 32
#: Samples of each sampled potential written at set-up (odd, so x = 0 is a node).
SAMPLED_POINTS = 257
#: energy_sweep operations per list, and how many of them are square wells.
#: The two kinds differ a little in cost; an unequal split keeps the median
#: operation inside the sampled cluster instead of on the edge between them.
ENERGY_OPS = 24
ENERGY_WELLS = 6
COUNTEREXAMPLE_OPS = 48
FREDHOLM_OPS = 8
TOEPLITZ_OPS = 12
TOEPLITZ_SIZES = "8,16,32,64,128"

#: One small fixed operation per workload, run once before timing: it pays
#: the lazy imports (mpmath on the Toeplitz extended route) and first calls.
WARMUP = {
    "energy_sweep": ["smatrix", "--well", "1,1", "--energy-grid", "1,2,2"],
    "counterexample": ["counterexample", "--q", "1", "--eps", "0.01", "--a", "1"],
    "fredholm_sweep": ["fredholm", "--t", "1:1.1:0.025", "--quad", "64"],
    "toeplitz_table": ["szego", "--alpha", "1", "--n", "8,16"],
}


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def stratified(rng: np.random.Generator, count: int, low: float, high: float) -> np.ndarray:
    """count draws from [low, high), one per equal stratum, in shuffled order."""
    return low + (high - low) * (rng.permutation(count) + rng.random(count)) / count


def _num(value: float) -> str:
    return f"{value:.6f}"


def mirrored_gaussians(rng: np.random.Generator, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Smooth symmetric potential on [-a, a]: three mirrored Gaussian pairs."""
    x = np.linspace(-a, a, SAMPLED_POINTS)
    v = np.zeros_like(x)
    for _ in range(3):
        depth = rng.uniform(-2.0, 2.0)
        width = rng.uniform(0.25, 0.8) * a
        center = rng.uniform(0.0, 0.6) * a
        v += depth * (np.exp(-(((x - center) / width) ** 2)) + np.exp(-(((x + center) / width) ** 2)))
    return x, 0.5 * (v + v[::-1])


def energy_sweep(rng: np.random.Generator, workdir: str) -> list[list[str]]:
    sampled = ENERGY_OPS - ENERGY_WELLS
    starts = stratified(rng, ENERGY_OPS, 0.1, 1.0)
    spans = stratified(rng, ENERGY_OPS, 2.0, 8.0)
    depths = stratified(rng, ENERGY_WELLS, 0.5, 6.0)
    widths = np.concatenate([
        stratified(rng, ENERGY_WELLS, 0.5, 1.5), stratified(rng, sampled, 0.6, 1.4)
    ])
    ops = []
    for i in range(ENERGY_OPS):
        grid = f"{_num(starts[i])},{_num(starts[i] + spans[i])},{GRID_ENERGIES}"
        if i < ENERGY_WELLS:
            well = f"{_num(depths[i])},{_num(widths[i])}"
            ops.append(["smatrix", "--well", well, "--energy-grid", grid])
            continue
        x, v = mirrored_gaussians(rng, float(widths[i]))
        path = os.path.join(workdir, f"potential_{i:02d}.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("x,V\n")
            handle.writelines(f"{xi!r},{vi!r}\n" for xi, vi in zip(x.tolist(), v.tolist()))
        ops.append(["smatrix", "--sampled", path, "--energy-grid", grid])
    return [ops[i] for i in rng.permutation(ENERGY_OPS)]


def counterexample(rng: np.random.Generator, workdir: str) -> list[list[str]]:
    qs = stratified(rng, COUNTEREXAMPLE_OPS, 0.3, 1.45)
    epss = stratified(rng, COUNTEREXAMPLE_OPS, 0.005, 0.04)
    return [
        ["counterexample", "--q", _num(q), "--eps", _num(eps), "--a", "1"]
        for q, eps in zip(qs, epss)
    ]


def fredholm_sweep(rng: np.random.Generator, workdir: str) -> list[list[str]]:
    # Five points, both parities; t stays at or below 2.9, where the double
    # route still agrees with the reference to 1e-6.
    return [
        ["fredholm", "--t", f"{_num(s)}:{_num(s + 0.1)}:0.025"]
        for s in stratified(rng, FREDHOLM_OPS, 0.3, 2.8)
    ]


def toeplitz_table(rng: np.random.Generator, workdir: str) -> list[list[str]]:
    return [
        ["szego", "--alpha", _num(alpha), "--n", TOEPLITZ_SIZES]
        for alpha in stratified(rng, TOEPLITZ_OPS, 0.2, 2.2)
    ]


BUILDERS = {
    "energy_sweep": energy_sweep,
    "counterexample": counterexample,
    "fredholm_sweep": fredholm_sweep,
    "toeplitz_table": toeplitz_table,
}


def build(workload: str, seed: int, workdir: str) -> list[list[str]]:
    """The operation list of one workload and seed; writes input files to workdir."""
    return BUILDERS[workload](_rng(workload, seed), workdir)
