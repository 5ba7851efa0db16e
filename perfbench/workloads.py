"""Seeded scenario files for the benchmark workloads.

Every generated scenario is built through the package's public API
(``random_contraction``, ``random_state``, ``random_unitary``, ``Scenario``,
``emit``) and written as the JSON file the ``freedilation suite`` CLI reads.
The same seed gives byte-identical files.

    python3 perfbench/workloads.py --workload free_wide --seed 3 --out DIR

prints a JSON list of the scenario paths, in run order.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from freedilation import Scenario, emit, random_contraction, random_state, random_unitary

WORKLOADS = ("free_pair", "free_wide", "dense_modes")

# The shipped demo, relative to the repository root.
FREE_PAIR = Path("demos") / "scenarios" / "free_pair.json"

NORM = 0.9


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def free_wide(seed: int) -> Scenario:
    """Two 2x2 contractions at N=2, L=4: Fock dimension 1,561."""
    rng = _rng(seed, 1)
    factors = [(random_contraction(rng, 2, NORM), random_state(rng, 2)) for _ in range(2)]
    return Scenario(
        mode="free", factors=factors, degree=2, trunc=4, max_alt=2, samples=10, seed=seed
    )


def dense_single(seed: int) -> Scenario:
    """One 8x8 contraction at N=6: ambient dimension 56."""
    rng = _rng(seed, 2)
    return Scenario(
        mode="single",
        factors=[(random_contraction(rng, 8, NORM), random_state(rng, 8))],
        degree=6,
        seed=seed,
    )


def dense_doubly(seed: int) -> Scenario:
    """Three commuting normal 4x4 contractions at N=3: ambient dimension 256.

    Normal matrices diagonal in one unitary basis commute with each other and
    with each other's adjoints, so the tuple is doubly commuting.
    """
    rng = _rng(seed, 3)
    basis = random_unitary(rng, 4)
    state = random_state(rng, 4)
    factors = []
    for _ in range(3):
        radii = NORM * np.sqrt(rng.uniform(0.0, 1.0, size=4))
        eig = radii * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=4))
        factors.append(((basis * eig) @ basis.conj().T, state))
    return Scenario(mode="doubly", factors=factors, degree=3, seed=seed)


def dense_tensor(seed: int) -> Scenario:
    """Two 3x3 contractions at N=3 on the tensor product: ambient dimension 144."""
    rng = _rng(seed, 4)
    factors = [(random_contraction(rng, 3, NORM), random_state(rng, 3)) for _ in range(2)]
    return Scenario(mode="tensor", factors=factors, degree=3, seed=seed)


def generate(workload: str, seed: int, out_dir: Path, root: Path = Path(".")) -> list[Path]:
    """Write the workload's scenario files into ``out_dir`` and return their paths."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "free_pair":
        path = out_dir / "free_pair.json"
        shutil.copyfile(root / FREE_PAIR, path)
        return [path]
    if workload == "free_wide":
        built = {"free_wide": free_wide(seed)}
    elif workload == "dense_modes":
        built = {
            "single": dense_single(seed),
            "doubly": dense_doubly(seed),
            "tensor": dense_tensor(seed),
        }
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    paths = []
    for name, sc in built.items():
        path = out_dir / f"{name}.json"
        emit(sc, path)
        paths.append(path)
    return paths


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    paths = generate(args.workload, args.seed, args.out)
    print(json.dumps([str(path) for path in paths]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
