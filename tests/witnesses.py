"""The witnesses of a certificate dict as curve-level objects, decoded with
`serialize`'s decoders as verify decodes them, for tests that read a
certificate that search returned."""

from typing import NamedTuple

from nefcert.cohomology import rr_space
from nefcert.curves import Curve, Differential, Divisor, FunctionElement
from nefcert.fields import field
from nefcert.jacobian import MumfordClass, mumford_to_divisor
from nefcert.obstruction import embed_bidegree_2_3
from nefcert.serialize import decode_divisor, decode_fn, decode_mumford, decode_poly


class Witnesses(NamedTuple):
    curve: Curve
    a_div: Divisor
    l_cls: MumfordClass
    g: FunctionElement
    d_div: Divisor
    delta: FunctionElement  # the section of N - L with coordinates delta_coords
    gamma: Differential  # the stored gamma and alpha, which verify recomputes
    alpha: FunctionElement


def decode_witnesses(d: dict) -> Witnesses:
    base = field(d["p"], d["k"])
    curve = Curve(base, decode_poly(base, d["f"]))
    a_div = decode_divisor(curve, d["a_div"])
    l_cls = decode_mumford(curve, d["l_cls"])
    n_minus_l = embed_bidegree_2_3(curve, a_div).n_div - mumford_to_divisor(l_cls)
    delta = curve.zero()
    for c, phi in zip(d["delta_coords"], rr_space(curve, n_minus_l).basis):
        delta = delta + phi.scale(c)
    return Witnesses(
        curve,
        a_div,
        l_cls,
        decode_fn(curve, d["g"], "g"),
        decode_divisor(curve, d["d_div"]),
        delta,
        Differential(curve, decode_fn(curve, d["gamma"], "gamma")),
        decode_fn(curve, d["alpha"], "alpha"),
    )
