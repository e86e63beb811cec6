"""Command-line front end.

Four subcommands: `search` hunts for a certificate and writes it (or a
structured failure report) as canonical JSON; `verify` recomputes every
check of a stored certificate; `lattice` prints the exceptional-curve
bookkeeping for blown-up surfaces; `curve-info` prints the invariants of a
single hyperelliptic curve.  Every run echoes the arguments its command
parsed to stderr, and file outputs depend only on (command, flags, seed),
byte for byte.

Exit codes: 0 success / certificate passes, 1 failure / certificate fails,
2 malformed input, bad flags, or a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import json
import sys

from .obstruction import SearchExhausted, certificate_build, certificate_verify
from .serialize import CertificateFormatError, canonical_bytes

FAILURE_SCHEMA = "nefcert-failure/1"


def _parse_coeffs(text: str) -> tuple:
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nefcert",
        description="certificates of non-semi-ample nef bundles on blown-up quadrics",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("search", help="search for a certificate at a prime")
    sp.add_argument("--p", type=int, default=3, help="odd prime characteristic (default 3)")
    sp.add_argument("--seed", type=int, default=0, help="64-bit search seed (default 0)")
    sp.add_argument("--out", default="", help="output file (default: stdout)")

    vp = sub.add_parser("verify", help="recheck a stored certificate")
    vp.add_argument("path", help="certificate file")
    vp.add_argument("--format", choices=("json", "text"), default="text")

    lp = sub.add_parser("lattice", help="exceptional-curve report for a blown-up surface")
    lp.add_argument("--base", choices=("p1xp1", "p2"), default="p1xp1")
    lp.add_argument("--d", type=int, default=3, help="number of blown-up points (default 3)")
    lp.add_argument("--format", choices=("json", "text"), default="text")

    cp = sub.add_parser("curve-info", help="invariants of y^2 = f(x) over F_p")
    cp.add_argument("--p", type=int, default=3, help="odd prime characteristic (default 3)")
    cp.add_argument(
        "--f", type=_parse_coeffs, required=True,
        help="coefficients of f, low degree first, comma-separated",
    )
    cp.add_argument("--format", choices=("json", "text"), default="text")
    return ap


def _emit(payload: bytes, out: str):
    if out:
        with open(out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.flush()


def cmd_search(cfg: argparse.Namespace) -> int:
    try:
        cert = certificate_build(cfg.p, cfg.seed)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SearchExhausted as err:
        stats = dict(sorted(err.stats.items()))
        payload = {"schema": FAILURE_SCHEMA, "p": cfg.p, "seed": cfg.seed, "stats": stats}
        code = 1
        summary = ["search exhausted; stage statistics:"]
        summary += [f"  {key}: {val}" for key, val in stats.items()]
    else:
        payload, code = cert, 0
        summary = [
            f"certificate found: p={cert['p']} field=F({cert['p']}^{cert['k']})"
            f" obstruction={cert['obstruction']} -> {cfg.out or '<stdout>'}"
        ]
    try:
        _emit(canonical_bytes(payload), cfg.out)
    except OSError as err:  # an unwritable --out: exit 2, as verify's unreadable path
        print(f"error: {err}", file=sys.stderr)
        return 2
    print("\n".join(summary), file=sys.stderr)
    return code


def cmd_verify(cfg: argparse.Namespace) -> int:
    try:
        with open(cfg.path, "rb") as fh:
            data = fh.read()
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        report = certificate_verify(data)
    except CertificateFormatError as err:
        print(f"malformed certificate: {err}", file=sys.stderr)
        return 2
    if cfg.format == "json":
        out = {
            "ok": report.ok,
            "checks": [
                {"index": c.index, "name": c.name, "passed": c.passed, "detail": c.detail}
                for c in report.checks
            ],
        }
        print(json.dumps(out, sort_keys=True))
    else:
        d = report.cert
        print(f"certificate: p={d['p']} k={d['k']} f={tuple(d['f'])}")
        for line in report.lines():
            print(line)
        print("verdict: " + ("PASS" if report.ok else "FAIL"))
    return 0 if report.ok else 1


def main(argv=None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    # json writes curve-info's tuple f as a list
    print("config: " + json.dumps(vars(ns), sort_keys=True), file=sys.stderr)
    if ns.command == "search":
        return cmd_search(ns)
    if ns.command == "verify":
        return cmd_verify(ns)
    # the workbench commands: their module loads only when one of them runs
    from .workbench import cmd_curve_info, cmd_lattice

    return cmd_lattice(ns) if ns.command == "lattice" else cmd_curve_info(ns)


def run():
    """Console entry: exit with main()'s code, the heap frozen first so
    that interpreter shutdown does not free it object by object."""
    import gc

    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
