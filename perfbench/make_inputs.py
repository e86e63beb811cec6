"""Rebuild the benchmark's input files and pins from the package's code.

    python3 perfbench/make_inputs.py

Run from the repository root.  Builds the verify certificates with
`nefcert search`, derives the reject set from the q=9 certificate, and
writes perfbench/inputs/pins.json with the sha256 of every input file and
of every search point's certificate.  Takes about a minute.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import INPUTS, PINS, REJECTS, SEARCH_POINTS, VERIFY_CERTS, cert_file, reject_file

ROOT = Path(__file__).resolve().parent.parent


def search(p: int, seed: int) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "nefcert.cli", "search", "--p", str(p), "--seed", str(seed)]
    return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, check=True).stdout


def canonical(d: dict) -> bytes:
    return json.dumps(d, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def _bump(code: int, q: int) -> int:
    return (code + 1) % q


def _other_split_place(d: dict, taken: list) -> dict:
    for pl, _ in d["d_div"]:
        if pl not in taken:
            return pl
    raise ValueError("no spare rational place")


def mutate(name: str, d: dict) -> dict:
    """The q=9 certificate with one field changed for reject `name`."""
    q = d["p"] ** d["k"]
    d = copy.deepcopy(d)
    if name == "check1-f":
        d["f"] = [0, 0, 0, 0, 0, 1]
    elif name == "check2-a-div":
        taken = [pl for pl, _ in d["a_div"]]
        d["a_div"][-1][0] = _other_split_place(d, taken)
    elif name == "check3-g":
        num = d["g"]["a"]["num"]
        num[0] = _bump(num[0], q)
    elif name == "check4-obstruction":
        d["obstruction"] = _bump(d["obstruction"], q) or 1
    elif name == "check5-frob-matrix":
        d["frob"]["matrix"][-1][0] = _bump(d["frob"]["matrix"][-1][0], q)
    elif name == "check6-cartier":
        d["cartier"][0][0] = _bump(d["cartier"][0][0], d["p"])
    elif name == "check7-d-div":
        d["d_div"][0] = copy.deepcopy(d["d_div"][1])
    elif name == "delta-code-9":
        d["delta_coords"][0] = q
    elif name == "frob-twist-2":
        d["frob"]["twist"] = 2
    else:
        raise KeyError(name)
    return d


def main() -> int:
    INPUTS.mkdir(exist_ok=True)
    pins = {"files": {}, "search": {}}
    built = {}
    points = [(p, s) for _, p, s in VERIFY_CERTS]
    points += [(p, s) for _, p, s in SEARCH_POINTS]
    for p, seed in dict.fromkeys(points):
        built[(p, seed)] = search(p, seed)
        pins["search"][f"{p},{seed}"] = hashlib.sha256(built[(p, seed)]).hexdigest()
        print(f"built p={p} seed={seed}", file=sys.stderr)
    files = {}
    for _, p, seed in VERIFY_CERTS:
        files[cert_file(p, seed)] = built[(p, seed)]
    q9 = built[VERIFY_CERTS[0][1:]]
    for name in REJECTS:
        if name == "truncated":
            files[reject_file(name)] = q9[: len(q9) // 2]
        else:
            files[reject_file(name)] = canonical(mutate(name, json.loads(q9)))
    for path, data in files.items():
        path.write_bytes(data)
        pins["files"][path.name] = hashlib.sha256(data).hexdigest()
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
