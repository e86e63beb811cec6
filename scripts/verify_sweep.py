#!/usr/bin/env python3
"""Verify every single-leaf integer mutation of stored certificates.

    python3 scripts/verify_sweep.py CERT.json [CERT.json ...]

For every integer leaf of each certificate except p and k, four mutations
are applied one at a time: +1, and the values 0, 1000 and -1, skipping a
mutation that leaves the leaf as it is.  The canonical bytes of each
mutated dict go through `certificate_verify` under a timeout of TIMEOUT
seconds, and one JSON line (sorted keys) is printed per case:

- kind "report": the verify report, one [index, passed, detail] per check;
- kind "format": the CertificateFormatError message;
- kind "error": any other exception, by type and message;
- kind "timeout": the case ran past the timeout.

Every case changes the certificate, so only a case on the unchecked `seed`
should pass.  Run it at two commits and diff the outputs to see every case
whose outcome changed.  The exit code is 0 unless a certificate file cannot
be read.
"""

import argparse
import copy
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nefcert.obstruction import certificate_verify
from nefcert.serialize import CertificateFormatError, canonical_bytes, parse_certificate

TIMEOUT = 20  # seconds per case
SKIPPED = ("p", "k")
MUTATIONS = (
    ("+1", lambda v: v + 1),
    ("0", lambda v: 0),
    ("1000", lambda v: 1000),
    ("-1", lambda v: -1),
)


class CaseTimeout(BaseException):
    """Raised by the alarm; a BaseException so no check catches it."""


def _alarm(signum, frame):
    raise CaseTimeout


def int_leaves(node, path=()):
    """(path, value) for every integer leaf, in document order."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from int_leaves(node[key], path + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from int_leaves(item, path + (i,))
    elif type(node) is int:
        yield path, node


def cases(d: dict) -> list:
    """(path, op, change) for every mutated leaf and mutation that changes
    it, in order."""
    return [
        (path, op, change)
        for path, value in int_leaves(d)
        if path[0] not in SKIPPED
        for op, change in MUTATIONS
        if change(value) != value
    ]


def mutated(d: dict, path: tuple, change) -> dict:
    """A copy of d with the leaf at path replaced by change(leaf)."""
    out = copy.deepcopy(d)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = change(node[path[-1]])
    return out


def _label(path: tuple) -> str:
    out = ""
    for key in path:
        out += f"[{key}]" if isinstance(key, int) else ("." if out else "") + key
    return out


def run_case(d: dict) -> dict:
    signal.alarm(TIMEOUT)
    try:
        report = certificate_verify(canonical_bytes(d))
    except CaseTimeout:
        return {"kind": "timeout"}
    except CertificateFormatError as err:
        return {"kind": "format", "detail": str(err)}
    except Exception as err:
        return {"kind": "error", "detail": f"{type(err).__name__}: {err}"}
    finally:
        signal.alarm(0)
    return {"kind": "report", "checks": [[c.index, c.passed, c.detail] for c in report.checks]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("certs", nargs="+", help="certificate files")
    args = ap.parse_args()
    signal.signal(signal.SIGALRM, _alarm)
    for name in args.certs:
        try:
            base = parse_certificate(Path(name).read_bytes())
        except (OSError, CertificateFormatError) as err:
            print(f"error: {name}: {err}", file=sys.stderr)
            return 1
        for path, op, change in cases(base):
            out = run_case(mutated(base, path, change))
            out["case"] = f"{Path(name).stem}:{_label(path)}:{op}"
            print(json.dumps(out, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
