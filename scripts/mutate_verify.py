#!/usr/bin/env python3
"""Mutation test of the certificate checker.

    python3 scripts/mutate_verify.py

Each mutant is one edit of a function in SCOPE: in
src/nefcert/obstruction.py, `certificate_verify` (its body and its
closures, the g stage included), `_require_monic`, and the mathematics
verify shares with search (the embedding `embed_bidegree_2_3`, the chart
fields `_charts`, the tails `_splitting_tails`, `beta_functional`, its
`value`, and `obstruction_scalar`); and, in src/nefcert/serialize.py, the
format table `FORMAT`, every shape check and witness decoder it names, the
helpers they call, and the walks `ensure_certificate_shape`, `decode` and
`parse_certificate`:

- drop one operand of a returned `and`;
- drop one `if ...: raise` guard;
- drop one expression statement that calls `_want` or a `_check_*` helper,
  or the shape check of one key of `FORMAT`;
- weaken an order test `X == p` or `X != p` to divisibility, `p % X == 0`
  or `p % X != 0`;
- swap one comparison `<` with `<=`, or `>` with `>=`.

The repository is copied once to a temporary directory.  Mutants are
written back with `ast.unparse`, which drops comments, so the test files
that call verify (TEST_FILES) must first pass on the copy with the modules
unparsed but not mutated; then each mutant is written into the copy, and
they run against it with `-x`.  A mutant that they pass survives.  The survivors expected are listed in
SURVIVORS, one per line as `<mutant>  # <reason>`, where the reason says
why no certificate can tell the mutant from the checker.

One line is printed per mutant.  The exit code is 1 when a survivor is not
in the list, when a listed mutant is killed or no longer exists, or when a
listed mutant has no reason; 0 otherwise.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "nefcert"
sys.path.insert(0, str(ROOT / "src"))
from nefcert.serialize import FORMAT  # noqa: E402

SCOPE = (  # (module, the functions of it that are mutated)
    (
        PACKAGE / "obstruction.py",
        (
            "certificate_verify",
            "_require_monic",
            "embed_bidegree_2_3",
            "_charts",
            "_splitting_tails",
            "beta_functional",
            "value",
            "obstruction_scalar",
        ),
    ),
    (
        PACKAGE / "serialize.py",
        (
            "FORMAT",
            *{f.__name__ for kind in FORMAT.values() for f in (kind.check, kind.decode) if f},
            "_check_poly",
            "_check_codes",
            "_check_rational",
            "_is_int_list",
            "_below_power",
            "decode_rational",
            "decode_place",
            "decode",
            "ensure_certificate_shape",
            "parse_certificate",
        ),
    ),
)
TEST_FILES = (  # the quick shape tests first: -x stops at the first failure
    "tests/test_serialize.py",
    "tests/test_obstruction.py",
    "tests/test_acceptance.py",
    "tests/test_cli.py",
)
SURVIVORS = Path(__file__).resolve().parent / "mutate_verify_survivors.txt"
TIMEOUT = 600  # seconds per test run; a run past it counts as a kill


# each order comparison and the one it is swapped with
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}


class Mutator(ast.NodeTransformer):
    """Walks the functions `names` of one module, naming every mutation
    site in order, and applies the one at index `target` (none when target
    is None)."""

    def __init__(self, names, target=None):
        self.names = names
        self.target = target
        self.sites = []
        self.scope = []

    def _site(self, label: str) -> bool:
        self.sites.append(f"{self.scope[-1]}: {label}")
        return len(self.sites) - 1 == self.target

    def visit_FunctionDef(self, node):
        if not self.scope and node.name not in self.names:
            return node
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()
        return node

    def visit_Assign(self, node):
        """In the table `FORMAT`, each entry `Kind(check, ...)` is a site:
        its check becomes one that accepts every value."""
        if self.scope:
            return self.generic_visit(node)
        target = node.targets[0]
        if not isinstance(target, ast.Name) or target.id not in self.names:
            return node
        self.scope.append(target.id)
        for key, kind in zip(node.value.keys, node.value.values):
            if self._site(f"drop the shape check of `{key.value}`"):
                kind.args[0] = ast.parse("lambda v, key, d: None", mode="eval").body
        self.scope.pop()
        return node

    def visit_Return(self, node):
        self.generic_visit(node)
        value = node.value
        if self.scope and isinstance(value, ast.BoolOp) and isinstance(value.op, ast.And):
            for j, operand in enumerate(value.values):
                if self._site(f"drop conjunct `{ast.unparse(operand)}`"):
                    rest = value.values[:j] + value.values[j + 1 :]
                    node.value = rest[0] if len(rest) == 1 else ast.BoolOp(ast.And(), rest)
        return node

    def visit_If(self, node):
        self.generic_visit(node)
        guard = len(node.body) == 1 and isinstance(node.body[0], ast.Raise) and not node.orelse
        if self.scope and guard and self._site(f"drop guard `if {ast.unparse(node.test)}: raise`"):
            return ast.Pass()
        return node

    def visit_Expr(self, node):
        self.generic_visit(node)
        call = node.value
        shape = (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and (call.func.id == "_want" or call.func.id.startswith("_check_"))
        )
        if self.scope and shape and self._site(f"drop `{ast.unparse(call)}`"):
            return ast.Pass()
        return node

    def visit_Compare(self, node):
        self.generic_visit(node)
        right = node.comparators[0]
        order = (
            len(node.ops) == 1
            and isinstance(node.ops[0], (ast.Eq, ast.NotEq))
            and isinstance(right, ast.Name)
            and right.id == "p"
        )
        if self.scope and order and self._site(f"weaken `{ast.unparse(node)}` to divisibility"):
            mod = ast.BinOp(ast.Name("p", ast.Load()), ast.Mod(), node.left)
            return ast.Compare(mod, node.ops, [ast.Constant(0)])
        for j, op in enumerate(node.ops):
            swap = SWAPS.get(type(op))
            if not (self.scope and swap):
                continue
            ops = node.ops[:j] + [swap()] + node.ops[j + 1 :]
            swapped = ast.Compare(node.left, ops, node.comparators)
            if self._site(f"swap `{ast.unparse(node)}` to `{ast.unparse(swapped)}`"):
                return swapped
        return node


def mutants(source: str, names):
    """(name, mutated source) for every mutation site of the functions
    `names` in source, in order."""
    walker = Mutator(names)
    walker.visit(ast.parse(source))
    for i, name in enumerate(walker.sites):
        tree = Mutator(names, i).visit(ast.parse(source))
        yield name, ast.unparse(ast.fix_missing_locations(tree)) + "\n"


def read_survivors() -> dict:
    """{mutant: reason} from SURVIVORS; blank and `#` lines are skipped."""
    out = {}
    for line in SURVIVORS.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        name, _, reason = line.partition("  # ")
        out[name.strip()] = reason.strip()
    return out


def tests_pass(copy: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TEST_FILES]
    try:
        run = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def main() -> int:
    expected = read_survivors()
    sources = {module: (ROOT / module).read_text() for module, _ in SCOPE}
    unparsed = {module: ast.unparse(ast.parse(src)) + "\n" for module, src in sources.items()}
    ignore = shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work"
    )
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=ignore)
        for module, text in unparsed.items():
            (copy / module).write_text(text)
        if not tests_pass(copy):
            print("error: the tests fail on the unmutated copy", file=sys.stderr)
            return 1
        survivors, total = [], 0
        for module, names in SCOPE:
            for name, mutated in mutants(sources[module], names):
                total += 1
                (copy / module).write_text(mutated)
                killed = not tests_pass(copy)
                print(f"{'killed' if killed else 'SURVIVED'}  {name}", flush=True)
                if not killed:
                    survivors.append(name)
            (copy / module).write_text(unparsed[module])
    bad = 0
    for name in survivors:
        if name not in expected:
            print(f"unlisted survivor: {name}")
            bad += 1
    for name, reason in expected.items():
        if name not in survivors:
            print(f"listed but not a survivor: {name}")
            bad += 1
        elif not reason:
            print(f"listed without a reason: {name}")
            bad += 1
    print(f"{len(survivors)} of {total} mutants survived; {bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
