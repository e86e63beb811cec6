"""Run one `nefcert` command with the benchmark's layer tracer installed.

    python3 perfbench/traced_main.py SPANS.json <nefcert cli arguments...>

Wraps the public functions listed in TRACED, then calls
`nefcert.cli.main(argv)` and exits with its code, so exit code and stdout
match `python -m nefcert.cli <arguments>`.  When the command ends, however
it ends, the folded spans are written to SPANS.json.

Spans are folded as they close instead of being kept one by one: one
traced verify pass makes millions of `Polynomial.__mul__` calls.  Each
closed span adds one call and its duration to its function's inclusive
time, and its duration minus the time covered by its child spans (found
through the stack of open spans) to the function's self time.

Nothing here edits the package: the wrappers are installed from outside,
by rebinding every module-level alias of each traced object (the modules
bind each other's functions by `from .x import y`, so rebinding only the
defining module's name would miss calls).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# module -> public names; "Class.method" names a method.  (r) and (h) in the
# notes: exceptions escaping are counted for every name, cache statistics
# are read for the names that are functools.lru_cache wrappers.
TRACED = {
    "obstruction": (
        "embed_bidegree_2_3",
        "beta_functional",
        "obstruction_scalar",
        "choose_delta",
        "certificate_build",
        "certificate_verify",
    ),
    "curves": (
        "Curve.residue",
        "Curve.valuation",
        "Curve.divisor",
        "Curve.places_above",
        "_frames",
    ),
    "series": ("poly_series", "rf_series"),
    "jacobian": (
        "random_class",
        "find_p_torsion",
        "divisor_class_to_mumford",
        "MumfordClass.__add__",
        "class_order",
        "frobenius_data",
    ),
    "cohomology": ("rr_space", "h1_space", "frobenius_h1", "p_torsion_bundle"),
    "fields": (
        "Polynomial.__mul__",
        "Polynomial.__divmod__",
        "poly_xgcd",
        "is_irreducible",
    ),
    "linalg": ("rref",),
    "serialize": ("parse_certificate", "canonical_bytes"),
    "cli": ("main",),
}


class Tracer:
    """Folds the spans of wrapped calls into per-function sums."""

    def __init__(self):
        self.functions = {}  # name -> [calls, incl_s, self_s, raised]
        self.caches = {}  # name -> lru_cache wrapper, read at dump time
        self._stack = [[0.0]]  # open spans' child time; the bottom one is the root

    def wrap(self, fn, name: str):
        stat = self.functions.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat[3] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                parent[0] += dt

        return functools.update_wrapper(traced, fn)

    def install(self, traced=TRACED):
        """Wrap every listed name and rebind all of its aliases."""
        modules = {m: importlib.import_module(f"nefcert.{m}") for m in traced}
        loaded = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "nefcert" or key.startswith("nefcert."))
        ]
        for mname, names in traced.items():
            mod = modules[mname]
            for qual in names:
                full = f"{mname}.{qual}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, attr, self.wrap(cls.__dict__[attr], full))
                    continue
                orig = getattr(mod, qual)
                if hasattr(orig, "cache_info"):
                    self.caches[full] = orig
                wrapped = self.wrap(orig, full)
                for other in loaded:
                    for key, val in list(vars(other).items()):
                        if val is orig:
                            setattr(other, key, wrapped)

    def dump(self, path: str):
        caches = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses}
        doc = {
            "functions": {
                name: {"calls": c, "incl_s": i, "self_s": s, "raised": r}
                for name, (c, i, s, r) in sorted(self.functions.items())
            },
            "caches": caches,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["nefcert.cli"]
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
