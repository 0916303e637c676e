"""Workload inputs generated from the benchmark seed.

The generator has its own Burr sampler, so the inputs stay the same when
the package's sampler changes; the package only ever sees the files
written here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The paper's Table-1 grid.
TABLE1_GRID = {
    "gamma1": 0.1,
    "eta": 0.25,
    "p_values": (0.4, 0.6, 0.8),
    "rho_values": (1.0, 1.1),
    "n_values": (500, 1000, 1500),
}

# The README quick-start portfolio, used for the claims file.
CLAIMS_MODEL = {"gamma1": 0.25, "p": 0.7, "eta": 0.25}
CLAIMS_SCALE = 1000.0


def derived_int(seed: int, purpose: str) -> int:
    """A 64-bit integer that depends only on the seed and the purpose."""
    digest = hashlib.sha256(f"{purpose}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def write_study_config(path: Path, seed: int, replicates: int) -> int:
    """Write the Table-1 study config; returns its master seed."""
    master_seed = derived_int(seed, "table1")
    grid = TABLE1_GRID
    lines = [
        f"gamma1 = {grid['gamma1']!r}",
        f"eta = {grid['eta']!r}",
        "p_values = " + ", ".join(repr(v) for v in grid["p_values"]),
        "rho_values = " + ", ".join(repr(v) for v in grid["rho_values"]),
        "n_values = " + ", ".join(str(v) for v in grid["n_values"]),
        f"replicates = {replicates}",
        f"master_seed = {master_seed}",
    ]
    path.write_text("\n".join(lines) + "\n")
    return master_seed


def _burr_quantile(survival: np.ndarray, gamma: float, eta: float) -> np.ndarray:
    """Inverse of the Burr survival ``(1 + x**(eta/gamma))**(-1/eta)``."""
    return (survival ** (-eta) - 1.0) ** (gamma / eta)


@dataclass(frozen=True)
class ClaimsStats:
    rows: int
    distinct_z: int
    tied_records: int
    censored_share: float


def write_claims(path: Path, seed: int, rows: int) -> ClaimsStats:
    """Write a censored Burr claims CSV, amounts scaled and kept to the cent.

    Rounding to the cent makes small amounts collide, so the file has
    ties, as booked claims do.
    """
    model = CLAIMS_MODEL
    gamma2 = model["p"] * model["gamma1"] / (1.0 - model["p"])
    rng = np.random.default_rng(derived_int(seed, "claims"))
    loss = _burr_quantile(1.0 - rng.random(rows), model["gamma1"], model["eta"])
    censor = _burr_quantile(1.0 - rng.random(rows), gamma2, model["eta"])
    z = np.round(np.minimum(loss, censor) * CLAIMS_SCALE, 2)
    delta = (loss <= censor).astype(np.int64)
    body = "\n".join(f"{zi:.2f},{di}" for zi, di in zip(z.tolist(), delta.tolist()))
    path.write_text("z,delta\n" + body + "\n")
    _, counts = np.unique(z, return_counts=True)
    return ClaimsStats(
        rows=rows,
        distinct_z=int(counts.size),
        tied_records=int(counts[counts > 1].sum()),
        censored_share=float(1.0 - delta.mean()),
    )
