"""The benchmark's operations and their known answers.

Every operation is one cold `nefcert` command.  The (p, seed) points and
the certificate files are fixed, so a run's `--seed` changes only the order
in which a pass visits them (and the kernel inputs); see NOTES.md for why
each point was chosen and what it costs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

INPUTS = Path(__file__).resolve().parent / "inputs"
PINS = INPUTS / "pins.json"

# metric name, p, seed; the certificate file is built by `search --p P --seed S`
VERIFY_CERTS = (
    ("verify_s.q9", 3, 0),
    ("verify_s.q25", 5, 1),
    ("verify_s.q49", 7, 0),
    ("verify_s.q343", 7, 4),
)

# The first three run each search stage about once; at the two -retry
# points most of the work goes to rejected candidates (jacobian sampling).
SEARCH_POINTS = (
    ("search_s.q9", 3, 0),
    ("search_s.q25", 5, 1),
    ("search_s.q49", 7, 0),
    ("search_s.q9-retry", 3, 6),
    ("search_s.q343-retry", 7, 4),
)

# name -> (what the input is, exit codes accepted, check that must FAIL or
# None, known defect at the time the set was made or None).  Every input is
# derived from the q=9 certificate by make_inputs.py.
REJECTS = {
    "check1-f": ("f replaced by the singular x^5", (1,), 1, None),
    "check2-a-div": ("a_div point moved to another rational point", (1,), 2, None),
    "check3-g": ("constant term of g bumped", (1,), 3, None),
    "check4-obstruction": ("obstruction scalar bumped", (1,), 4, None),
    "check5-frob-matrix": ("one frob.matrix entry bumped", (1,), 5, None),
    "check6-cartier": ("one cartier entry bumped", (1,), 6, None),
    "check7-d-div": ("first D point repeated in place of another", (1,), 7, None),
    "truncated": ("file cut after half its bytes", (2,), None, None),
    "delta-code-9": (
        "delta_coords[0] = 9, outside F_9",
        (2,),
        None,
        "IndexError traceback and exit 1 (ROADMAP item 4)",
    ),
    "frob-twist-2": (
        "frob.twist = 2",
        (1, 2),
        None,
        "twist is never checked, so it verifies PASS (ROADMAP item 4)",
    ),
}

WORKLOADS = ("verify", "search")


@dataclass(frozen=True)
class Op:
    """One cold command: its metric name, CLI arguments and known answer."""

    name: str
    argv: tuple
    exits: tuple  # accepted exit codes
    fail_check: int | None = None  # check index that must report FAIL
    known_defect: str | None = None
    point: tuple | None = None  # (p, seed) of a search
    repeat: bool = True  # False: runs once per run, in the first pass


def cert_file(p: int, seed: int) -> Path:
    return INPUTS / f"cert-p{p}-s{seed}.json"


def reject_file(name: str) -> Path:
    return INPUTS / f"reject-{name}.json"


def load_pins() -> dict:
    with open(PINS) as fh:
        return json.load(fh)


def operations(workload: str, root: Path) -> list[Op]:
    """The operations of one pass, in their canonical order."""

    def rel(path: Path) -> str:
        return str(path.relative_to(root))

    if workload == "verify":
        ops = [
            Op(name, ("verify", rel(cert_file(p, seed))), (0,))
            for name, p, seed in VERIFY_CERTS
        ]
        for name, (_, exits, check, defect) in REJECTS.items():
            argv = ("verify", "--format", "json", rel(reject_file(name)))
            ops.append(Op(f"reject_s.{name}", argv, exits, check, defect, repeat=False))
        return ops
    return [
        Op(name, ("search", "--p", str(p), "--seed", str(seed)), (0,), point=(p, seed))
        for name, p, seed in SEARCH_POINTS
    ]
