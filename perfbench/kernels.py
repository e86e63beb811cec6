"""Field-kernel microbenchmarks: `Polynomial` mul and divmod.

    PYTHONPATH=src python3 perfbench/kernels.py --seed N

Times a * b for a, b of n coefficients, and divmod(c, b) for c of 2n - 1
coefficients (the size of a product) by b of n coefficients, at n = 6, 20
and 60, over F_7 and F_81.  Inputs are random nonzero polynomials drawn
from the seed.  Prints one JSON object mapping
`fields.poly_mul_us.n<N>.q<Q>` and `fields.poly_divmod_us.n<N>.q<Q>` to the
median microseconds per call.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import time

from nefcert.fields import Polynomial, field

SIZES = (6, 20, 60)
FIELDS = ((7, 1), (3, 4))  # (p, k): F_7 and F_81
PAIRS = 8  # distinct inputs cycled through in each batch
BATCHES = 7
BATCH_S = 0.02  # target length of one timed batch


def _poly(base, n: int, rng: random.Random) -> Polynomial:
    coeffs = [rng.randrange(base.q) for _ in range(n - 1)] + [rng.randrange(1, base.q)]
    return Polynomial(base, coeffs)


def _median_us(call, args) -> float:
    """Median over BATCHES of the mean time per call, in microseconds."""
    t0 = time.perf_counter()
    for a, b in args:
        call(a, b)
    per_call = (time.perf_counter() - t0) / len(args)
    reps = max(1, round(BATCH_S / max(per_call, 1e-9) / len(args)))
    samples = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(reps):
            for a, b in args:
                call(a, b)
        samples.append((time.perf_counter() - t0) / (reps * len(args)))
    return statistics.median(samples) * 1e6


def run(seed: int) -> dict:
    rng = random.Random(seed)
    out = {}
    for p, k in FIELDS:
        base = field(p, k)
        for n in SIZES:
            mul_args = [(_poly(base, n, rng), _poly(base, n, rng)) for _ in range(PAIRS)]
            div_args = [(_poly(base, 2 * n - 1, rng), _poly(base, n, rng)) for _ in range(PAIRS)]
            out[f"fields.poly_mul_us.n{n}.q{base.q}"] = _median_us(lambda a, b: a * b, mul_args)
            out[f"fields.poly_divmod_us.n{n}.q{base.q}"] = _median_us(divmod, div_args)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    print(json.dumps(run(ap.parse_args().seed), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
