"""Fixed reference work that measures how fast the host runs right now.

    python3 perfbench/reference.py

The benchmark starts this process next to every timed command. It does
not import umtk: its work is the same on every commit, so its wall time
changes only with the host's speed. It has the shape of a umtk command
on a small input: a fresh interpreter that imports numpy, an interpreter
loop, numpy scans over a triplet-shaped array and float formatting as
the CSV writers do it. It prints a checksum of the work, which must read
the same on every call.
"""

import hashlib

import numpy as np


def work() -> str:
    acc = 0
    for i in range(2_400_000):
        acc += i * i % 7
    rng = np.random.default_rng(0)
    cube = rng.random((60, 60, 60))
    above = 0
    for _ in range(160):
        upper = np.maximum(cube, cube.transpose(1, 0, 2))
        above += int((upper > cube).sum()) + int(np.argmax(np.sort(upper, axis=2)))
    values = rng.random(240_000)
    text = "\n".join(",".join(format(float(v), ".17g") for v in values[i:i + 100])
                     for i in range(0, values.size, 100))
    digest = hashlib.sha256(f"{acc} {above} {text}".encode()).hexdigest()
    return digest[:16]


if __name__ == "__main__":
    print(work())
