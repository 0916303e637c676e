"""Product-limit survival curve on a censored sample, exported as CSV.

The curve treats censored records as exits without events: each uncensored
record at rank i scales the survival by 1 - 1/(n - i + 1), censored ones
leave it unchanged.  The demo prints the hand-checkable three-point curve
and then exports a larger one for plotting.
"""

import tempfile
from pathlib import Path

import numpy as np

from tailpremium import SortedCensoredSample, kaplan_meier_survival
from tailpremium.cli import main


def run() -> None:
    triple = SortedCensoredSample.from_unsorted([1.0, 2.0, 3.0], [1, 0, 1])
    print("three-point sample (1 observed, 2 censored, 3 observed):")
    for x in (0.5, 1.0, 1.5, 2.0, 2.5):
        print(f"  survival({x}) = {kaplan_meier_survival(triple, x):.6f}")

    rng = np.random.default_rng(7)
    z = (1.0 - rng.random(500)) ** -0.3
    delta = (rng.random(500) < 0.6).astype(int)
    with tempfile.TemporaryDirectory() as tmp:
        claims = Path(tmp) / "claims.csv"
        lines = ["z,delta"] + [
            f"{zi:.12g},{di}" for zi, di in zip(z, delta)
        ]
        claims.write_text("\n".join(lines) + "\n")
        curve = Path(tmp) / "km.csv"
        code = main(["km", str(claims), "--out", str(curve)])
        rows = curve.read_text().splitlines()
        print(
            f"\nexported {len(rows) - 1} curve points (exit code {code}); "
            "first and last three:"
        )
        for row in rows[:4] + rows[-3:]:
            print(f"  {row}")


if __name__ == "__main__":
    run()
