"""Fixed reference work that tracks this host's speed; never imports tailpremium.

``run.py`` runs it as a subprocess after every timed cycle.  It starts an
interpreter, imports numpy and scipy, and repeats the workloads' kinds of
work: parsing CSV rows into small objects, sorting, logs and cumulative
sums on small arrays, and adaptive quadrature of a Burr-type tail
integral.  Its wall time moves with the host's speed and with nothing in
the package.
"""

import csv
import io
from dataclasses import dataclass

import numpy as np
from scipy import integrate


@dataclass(frozen=True)
class Record:
    z: float
    delta: int


text = "\n".join(f"{i * 0.37 % 1000:.2f},{i % 2}" for i in range(40000))
records = [Record(float(z), int(d)) for z, d in csv.reader(io.StringIO(text))]

rng = np.random.default_rng(0)
total = sum(r.z for r in records)
for i in range(1500):
    values = np.sort(rng.random(1000))
    total += np.cumsum(np.log(values))[-1]
    if i % 5 == 0:
        total += integrate.quad(
            lambda u: (1.0 + (0.5 / u) ** 2.5) ** -4.0 * 0.5 / u**2,
            0.0, 1.0, epsrel=1e-11, limit=200,
        )[0]
print(total)
