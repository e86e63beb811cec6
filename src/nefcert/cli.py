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

from .cohomology import cartier_manin, cartier_nonsingular
from .curves import Curve
from .fields import field
from .jacobian import frobenius_data
from .obstruction import SearchExhausted, certificate_build, certificate_verify
from .serialize import MAX_Q, CertificateFormatError, canonical_bytes, decode_poly

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


def cmd_lattice(cfg: argparse.Namespace) -> int:
    from .lattice import (
        P1XP1,
        P2,
        exceptional_curves,
        hodge_signature,
        standard_example,
    )

    base = P1XP1 if cfg.base == "p1xp1" else P2
    try:
        lat, ref, curves = standard_example(base, cfg.d)
        part = exceptional_curves(lat, ref, curves)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    sig = hodge_signature(lat)
    payload = {
        "base": cfg.base,
        "d": cfg.d,
        "rho": part.rho,
        "signature": list(sig),
        "exceptional_count": len(part.negative),
        "counting_bound": part.bound,
        "ray_count": len(part.ray),
    }
    if part.rankin is not None:
        payload["rankin"] = {
            "dim": part.rankin.dim,
            "count": part.rankin.count,
            "bound": part.rankin.bound,
            "ok": part.rankin.ok,
        }
    if cfg.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"base {cfg.base}, {cfg.d} blown-up points: rho = {part.rho}")
        print(f"intersection form signature: {sig}")
        print(
            f"classes of negative self-degree: {len(part.negative)}"
            f" (counting bound {part.bound})"
        )
        if part.ray:
            print(f"classes on the reference ray: {len(part.ray)}")
        if part.rankin is not None:
            r = part.rankin
            print(
                f"euclidean model: {r.count} vectors in dimension {r.dim},"
                f" bound {r.bound}, ok={r.ok}"
            )
    return 0


def cmd_curve_info(cfg: argparse.Namespace) -> int:
    if cfg.p > MAX_Q:  # refused before field(p) tests p by trial division
        print(f"error: p above MAX_Q = {MAX_Q}", file=sys.stderr)
        return 1
    try:
        base = field(cfg.p)
        curve = Curve(base, decode_poly(base, cfg.f))
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    cm = cartier_manin(curve)
    ordinary = cartier_nonsingular(curve)
    n1 = curve.point_count(1)
    payload = {
        "p": cfg.p,
        "f": list(cfg.f),
        "genus": 2,
        "smooth": True,
        "points": n1,
        "cartier_manin": [list(r) for r in cm],
        "ordinary": ordinary,
    }
    if cfg.p * cfg.p <= MAX_Q:  # F_{p^2} within the search's field bound
        data = frobenius_data(curve)
        payload["points_quadratic"] = data.n2
        payload["jacobian_order"] = data.order
    if cfg.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"curve: y^2 = f(x) over F({cfg.p}), f coefficients {cfg.f}")
        print("smooth genus-2 model: True")
        print(f"rational points: {n1}")
        if "points_quadratic" in payload:
            print(f"points over the quadratic extension: {payload['points_quadratic']}")
            print(f"jacobian order: {payload['jacobian_order']}")
        print(f"cartier-manin matrix: {[list(r) for r in cm]}")
        print(f"ordinary: {ordinary}")
    return 0


def main(argv=None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    # json writes curve-info's tuple f as a list
    print("config: " + json.dumps(vars(ns), sort_keys=True), file=sys.stderr)
    if ns.command == "search":
        return cmd_search(ns)
    if ns.command == "verify":
        return cmd_verify(ns)
    if ns.command == "lattice":
        return cmd_lattice(ns)
    return cmd_curve_info(ns)


def run():
    """Console entry: exit with main()'s code, the heap frozen first so
    that interpreter shutdown does not free it object by object."""
    import gc

    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
