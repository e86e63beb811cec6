#!/usr/bin/env python3
"""Sweep the certificate search over primes and seeds, verify every hit.

Prints one line per (prime, seed) with the curve found, the field it lives
over, the obstruction scalar, and timings.  Each certificate is verified
from its canonical bytes, and with --out those bytes are written to
<out>/cert_p<p>_s<seed>.json, so rerunning the sweep doubles as a
determinism check (files must not change).
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nefcert.obstruction import SearchExhausted, certificate_build, certificate_verify
from nefcert.serialize import canonical_bytes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--primes", default="3,5,7", help="comma-separated odd primes")
    ap.add_argument("--seeds", type=int, default=3, help="seeds 0..N-1 per prime")
    ap.add_argument("--out", default="", help="directory for certificate files")
    args = ap.parse_args()

    primes = [int(tok) for tok in args.primes.split(",") if tok.strip()]
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    failures = 0
    for p in primes:
        for seed in range(args.seeds):
            t0 = time.monotonic()
            try:
                cert = certificate_build(p, seed=seed)
            except SearchExhausted as exc:
                failures += 1
                print(f"p={p} seed={seed} EXHAUSTED {exc.stats}")
                continue
            blob = canonical_bytes(cert)
            built = time.monotonic() - t0
            report = certificate_verify(blob)
            verified = time.monotonic() - t0 - built
            verdict = "ok" if report.ok else "VERIFY-FAIL"
            if not report.ok:
                failures += 1
            print(
                f"p={p} seed={seed} q={p}^{cert['k']} f={tuple(cert['f'])}"
                f" obstruction={cert['obstruction']} bytes={len(blob)}"
                f" build={built:.2f}s verify={verified:.2f}s {verdict}"
            )
            if out_dir is not None:
                path = out_dir / f"cert_p{p}_s{seed}.json"
                if not path.exists():
                    path.write_bytes(blob)
                elif path.read_bytes() != blob:
                    # the earlier bytes stay as the evidence of the mismatch
                    failures += 1
                    print(f"  determinism violation: {path} changed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
