"""The workbench commands of the command line: `lattice` and `curve-info`.

`cli` imports this module only to run one of them, and `cmd_lattice`
imports `lattice` only when it runs, so a cold `search` or `verify`
compiles and loads neither module.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cohomology import cartier_manin, cartier_nonsingular
from .curves import Curve
from .fields import field
from .jacobian import frobenius_data
from .serialize import MAX_Q, decode_poly


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
