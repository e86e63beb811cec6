import gc
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nefcert
from nefcert import cli, obstruction, serialize
from nefcert.cli import main


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_search_verify_roundtrip(tmp_path, capsys):
    path = tmp_path / "cert.json"
    code, _, err = run(capsys, ["search", "--p", "3", "--seed", "0", "--out", str(path)])
    assert code == 0
    assert "config:" in err and "certificate found" in err

    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 0
    assert "verdict: PASS" in out
    assert out.count("[pass]") == 7


def test_search_writes_byte_identical_files(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, ["search", "--p", "3", "--seed", "4", "--out", str(a)])
    run(capsys, ["search", "--p", "3", "--seed", "4", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


def test_search_output_is_the_same_under_optimize():
    """No search step lives in an assert: `python -O` finds the same bytes."""
    env = dict(os.environ, PYTHONPATH=str(Path(nefcert.__file__).parents[1]))

    def run(flags):
        cmd = [sys.executable, *flags, "-m", "nefcert.cli", "search", "--p", "3", "--seed", "6"]
        out = subprocess.run(cmd, capture_output=True, env=env, timeout=600)
        return out.returncode, out.stdout

    plain = run([])
    assert plain[0] == 0 and plain[1]
    assert run(["-O"]) == plain


def test_verify_exit_codes(tmp_path, capsys):
    path = tmp_path / "cert.json"
    run(capsys, ["search", "--p", "3", "--seed", "0", "--out", str(path)])

    d = json.loads(path.read_text())
    d["delta_coords"][0] = (d["delta_coords"][0] + 1) % 9
    bad = tmp_path / "tampered.json"
    bad.write_bytes(serialize.canonical_bytes(d))
    code, out, _ = run(capsys, ["verify", str(bad)])
    assert code == 1
    assert "verdict: FAIL" in out

    for code_outside_f9 in (9, -1):
        d["delta_coords"][0] = code_outside_f9
        bad.write_bytes(serialize.canonical_bytes(d))
        code, out, err = run(capsys, ["verify", str(bad)])
        assert code == 2
        assert out == ""
        assert "malformed certificate: delta_coords:" in err

    # another spelling of the valid certificate: a zero on top of a
    # coefficient list, or a denominator that is not monic; and codes
    # outside F_9 in the stored scalar and matrices
    d = json.loads(path.read_text())
    for key, change in (
        ("f", lambda d: d["f"].append(0)),
        ("alpha.a.num", lambda d: d["alpha"]["a"]["num"].append(0)),
        ("alpha.b.den", lambda d: d["alpha"]["b"].update(den=[2])),
        ("obstruction", lambda d: d.update(obstruction=16)),
        ("cartier", lambda d: d["cartier"][0].__setitem__(0, 10)),
        ("frob.matrix", lambda d: d["frob"]["matrix"][0].__setitem__(0, 9)),
    ):
        spelled = json.loads(json.dumps(d))
        change(spelled)
        bad.write_bytes(serialize.canonical_bytes(spelled))
        code, out, err = run(capsys, ["verify", str(bad)])
        assert code == 2
        assert out == ""
        assert f"malformed certificate: {key}:" in err

    # a fraction that is not in lowest terms is well formed, and fails the
    # check that decodes it
    spelled = json.loads(json.dumps(d))
    spelled["g"]["a"] = {"num": [1, 1], "den": [1, 1]}
    bad.write_bytes(serialize.canonical_bytes(spelled))
    code, out, _ = run(capsys, ["verify", str(bad)])
    assert code == 1
    assert (
        "[FAIL] check 3: div(g) = p * L and dg/g is regular and nonzero"
        " (g.a: fraction not in lowest terms)" in out
    )

    # and so is a place spelled otherwise than the encoder writes it: v set
    # on a ramified place, which the decoder used to overwrite
    for key in ("a_div", "d_div"):
        spelled = json.loads(json.dumps(d))
        (i,) = [i for i, (pl, _) in enumerate(spelled[key]) if pl["kind"] == "ramified"]
        spelled[key][i][0]["v"] = [1]
        bad.write_bytes(serialize.canonical_bytes(spelled))
        code, out, _ = run(capsys, ["verify", str(bad)])
        assert code == 1
        assert "verdict: FAIL" in out
        assert "place not in canonical form)" in out

    mangled = tmp_path / "mangled.json"
    mangled.write_text("{]")
    code, _, err = run(capsys, ["verify", str(mangled)])
    assert code == 2
    assert "malformed certificate" in err

    code, _, err = run(capsys, ["verify", str(tmp_path / "missing.json")])
    assert code == 2


def test_verify_accepts_only_the_canonical_bytes(tmp_path, capsys):
    """The same certificate spelled with indentation, with its keys in
    another order, or without the final newline is malformed (exit 2)."""
    path = tmp_path / "cert.json"
    run(capsys, ["search", "--p", "3", "--seed", "0", "--out", str(path)])
    raw = path.read_bytes()
    d = json.loads(raw)
    reordered = dict(reversed(list(d.items())))
    spellings = [
        json.dumps(d, sort_keys=True, indent=1).encode() + b"\n",
        json.dumps(reordered, separators=(",", ":")).encode() + b"\n",
        json.dumps(d, sort_keys=True).encode() + b"\n",
        raw[:-1],
    ]
    bad = tmp_path / "spelled.json"
    for blob in spellings:
        assert blob != raw and json.loads(blob) == d
        bad.write_bytes(blob)
        code, out, err = run(capsys, ["verify", str(bad)])
        assert code == 2, blob[:40]
        assert out == ""
        assert "malformed certificate: not in canonical form" in err
    code, _, _ = run(capsys, ["verify", str(path)])
    assert code == 0


def test_verify_rejects_a_field_beyond_the_search_bound(tmp_path, capsys):
    """k = 20 on an F_9 certificate is refused by its shape, before any field
    of 3^20 elements is searched for or tabulated."""
    path = tmp_path / "cert.json"
    run(capsys, ["search", "--p", "3", "--seed", "0", "--out", str(path)])
    d = json.loads(path.read_text())
    d["k"] = 20
    path.write_bytes(serialize.canonical_bytes(d))
    env = dict(os.environ, PYTHONPATH=str(Path(nefcert.__file__).parents[1]))
    cmd = [sys.executable, "-m", "nefcert.cli", "verify", str(path)]
    out = subprocess.run(cmd, capture_output=True, env=env, timeout=10)
    assert out.returncode == 2
    assert out.stdout == b""
    assert b"malformed certificate: field too large" in out.stderr


@pytest.mark.parametrize("case", ["long-integer", "deep-nesting"])
def test_verify_exits_2_on_json_past_the_parser_limits(tmp_path, case):
    """An integer literal past CPython's 4300-digit limit (ValueError) and
    nesting past the recursion limit (RecursionError) are malformed input,
    not a traceback."""
    root = Path(nefcert.__file__).parents[2]
    if case == "long-integer":
        data = (root / "perfbench/inputs/cert-p3-s0.json").read_bytes()
        assert b'"seed":0}' in data
        data = data.replace(b'"seed":0}', b'"seed":' + b"1" * 5000 + b"}")
    else:
        data = b"[" * 100000 + b"]" * 100000
    path = tmp_path / "cert.json"
    path.write_bytes(data)
    env = dict(os.environ, PYTHONPATH=str(Path(nefcert.__file__).parents[1]))
    cmd = [sys.executable, "-m", "nefcert.cli", "verify", str(path)]
    out = subprocess.run(cmd, capture_output=True, env=env, timeout=60)
    assert out.returncode == 2
    assert out.stdout == b""
    assert b"malformed certificate: invalid JSON" in out.stderr
    assert b"Traceback" not in out.stderr


def _over_another_modulus(d: dict) -> dict:
    """The q = 9 certificate d, spelled over F_3[s]/(s^2 + s + 2) instead of
    F_3[t]/(t^2 + 1).  t goes to s + 2, a root of t^2 + 1 there, so the code
    c0 + 3 c1 of an element becomes (c0 + 2 c1) % 3 + 3 c1; the divisors
    are re-sorted by their new codes, so the result is in canonical form."""

    def codes(v):
        return None if v is None else [(c % 3 + 2 * (c // 3)) % 3 + 3 * (c // 3) for c in v]

    def fn(v):
        return {part: {key: codes(v[part][key]) for key in ("num", "den")} for part in "ab"}

    rank = {"split": 0, "inert": 1, "ramified": 2, "infinite": 3}

    def place_key(item):
        pl = item[0]
        if pl["u"] is None:
            return (rank[pl["kind"]], 1, [], [])
        degree = (len(pl["u"]) - 1) * (2 if pl["kind"] == "inert" else 1)
        return (rank[pl["kind"]], degree, pl["u"], pl["v"] or [])

    def divisor(items):
        out = [[dict(pl, u=codes(pl["u"]), v=codes(pl["v"])), m] for pl, m in items]
        return sorted(out, key=place_key)

    assert (d["p"], d["k"], d["modulus"]) == (3, 2, [1, 0, 1])
    return dict(
        d,
        modulus=[2, 1, 1],
        f=codes(d["f"]),
        a_div=divisor(d["a_div"]),
        d_div=divisor(d["d_div"]),
        l_cls={key: codes(d["l_cls"][key]) for key in ("u", "v")},
        g=fn(d["g"]),
        gamma=fn(d["gamma"]),
        alpha=fn(d["alpha"]),
        delta_coords=codes(d["delta_coords"]),
        obstruction=codes([d["obstruction"]])[0],
        frob=dict(d["frob"], matrix=[codes(row) for row in d["frob"]["matrix"]]),
        cartier=[codes(row) for row in d["cartier"]],
    )


def test_verify_rejects_the_q9_certificate_over_another_modulus(tmp_path, capsys):
    """The pinned q = 9 certificate carried over to the modulus x^2 + x + 2
    describes the same objects over an isomorphic field, and is another
    spelling of it: it fails check 1, naming the modulus, with exit 1."""
    root = Path(nefcert.__file__).parents[2]
    d = serialize.parse_certificate((root / "perfbench/inputs/cert-p3-s0.json").read_bytes())
    path = tmp_path / "respelled.json"
    path.write_bytes(serialize.canonical_bytes(_over_another_modulus(d)))
    serialize.parse_certificate(path.read_bytes())  # well formed
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 1
    lines = out.splitlines()
    assert lines[1] == (
        "  [FAIL] check 1: the sextic model is a smooth genus-2 curve"
        " (modulus is not [1, 0, 1], the modulus of F_9)"
    )
    assert all(line.endswith("(no curve to check against)") for line in lines[2:8])
    assert lines[8] == "verdict: FAIL"


def test_verify_json_format(tmp_path, capsys):
    path = tmp_path / "cert.json"
    run(capsys, ["search", "--p", "3", "--seed", "0", "--out", str(path)])
    code, out, _ = run(capsys, ["verify", str(path), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert [c["index"] for c in payload["checks"]] == list(range(1, 8))


BENCH_CHECK_NAMES = (
    "the sextic model is a smooth genus-2 curve",
    "the class of N - D has order exactly p",
    "div(g) = p * L and dg/g is regular and nonzero",
    "the obstruction scalar is nonzero",
    "Frobenius is injective on H^1(-L)",
    "the Cartier-Manin matrix is nonsingular",
    "D consists of 12 distinct rational points",
)
NO_CURVE = "no curve to check against"
# input file -> (exit code, the failed checks by index with their details,
# or the stderr line when the input is malformed)
BENCH_VERDICTS = {
    "cert-p3-s0.json": (0, {}),
    "cert-p5-s1.json": (0, {}),
    "cert-p7-s0.json": (0, {}),
    "cert-p7-s4.json": (0, {}),
    "reject-check1-f.json": (1, {1: "singular model", **{i: NO_CURVE for i in range(2, 8)}}),
    "reject-check2-a-div.json": (
        1,
        {i: "embedding failed: divisor not in canonical form" for i in (2, 4)},
    ),
    "reject-check3-g.json": (1, {i: "div(g) is not p * L" for i in (3, 4, 5)}),
    "reject-check4-obstruction.json": (1, {4: ""}),
    "reject-check5-frob-matrix.json": (1, {5: ""}),
    "reject-check6-cartier.json": (1, {6: ""}),
    "reject-check7-d-div.json": (1, {i: "divisor not in canonical form" for i in (2, 4, 7)}),
    "reject-delta-code-9.json": (
        2,
        "malformed certificate: delta_coords: code outside the field of p^k elements",
    ),
    "reject-frob-twist-2.json": (1, {5: ""}),
    "reject-truncated.json": (
        2,
        "malformed certificate: invalid JSON: Expecting property name enclosed in"
        " double quotes: line 1 column 539 (char 538)",
    ),
}


@pytest.mark.parametrize("name", sorted(BENCH_VERDICTS))
def test_verify_json_of_each_bench_input(capsys, name):
    """`verify --format json` on each benchmark input, read in place: the
    exit code and the whole of stdout, and for a malformed input the last
    line of stderr, as pinned."""
    path = Path(nefcert.__file__).parents[2] / "perfbench" / "inputs" / name
    code, out, err = run(capsys, ["verify", str(path), "--format", "json"])
    want_code, verdict = BENCH_VERDICTS[name]
    assert code == want_code
    if code == 2:
        assert out == ""
        assert err.splitlines()[-1] == verdict
        return
    checks = [
        {"detail": verdict.get(i, ""), "index": i, "name": check, "passed": i not in verdict}
        for i, check in enumerate(BENCH_CHECK_NAMES, start=1)
    ]
    assert out == json.dumps({"checks": checks, "ok": not verdict}, sort_keys=True) + "\n"


ABOVE_12 = "place of degree above 12"
# (key, n) -> the failed checks by index with their details, for the pinned
# q = 9 certificate with x^n + 2 put under key: as the denominator of g's a
# part, or as the u of a split place appended to a divisor
COSTLY_VERDICTS = {
    ("g", 401): {i: "div(g) is not p * L" for i in (3, 4, 5)},
    ("a_div", 401): {i: "embedding failed: " + ABOVE_12 for i in (2, 4)},
    ("d_div", 401): {i: ABOVE_12 for i in (2, 4, 7)},
    ("a_div", 12): {i: "embedding failed: support must be monic irreducible" for i in (2, 4)},
    ("a_div", 13): {i: "embedding failed: " + ABOVE_12 for i in (2, 4)},
}


@pytest.mark.parametrize("key,n", sorted(COSTLY_VERDICTS))
def test_verify_refuses_a_costly_polynomial_at_once(tmp_path, key, n):
    """A g with the denominator x^401 + 2 fails the g stage before h is
    factored, and a place over x^401 + 2 in a_div or D is refused by its
    degree before its u is tested for irreducibility; either test took
    over 90 s.  Each input, built from the pinned q = 9 certificate (read
    only), ends in a fresh process within 3 s, with exit 1, no traceback
    and the details pinned; the places of degree 12 and 13 pin the bound."""
    root = Path(nefcert.__file__).parents[2]
    d = json.loads((root / "perfbench/inputs/cert-p3-s0.json").read_text())
    u = [2] + [0] * (n - 1) + [1]
    if key == "g":
        d["g"]["a"]["den"] = u
    else:
        d[key].append([{"kind": "split", "u": u, "v": [1]}, 1])
    path = tmp_path / "costly.json"
    path.write_bytes(serialize.canonical_bytes(d))
    env = dict(os.environ, PYTHONPATH=str(Path(nefcert.__file__).parents[1]))
    cmd = [sys.executable, "-m", "nefcert.cli", "verify", str(path), "--format", "json"]
    out = subprocess.run(cmd, capture_output=True, env=env, timeout=3)
    assert out.returncode == 1
    assert b"Traceback" not in out.stderr
    verdict = COSTLY_VERDICTS[key, n]
    checks = [
        {"detail": verdict.get(i, ""), "index": i, "name": check, "passed": i not in verdict}
        for i, check in enumerate(BENCH_CHECK_NAMES, start=1)
    ]
    assert out.stdout.decode() == json.dumps({"checks": checks, "ok": False}, sort_keys=True) + "\n"


def test_search_failure_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(obstruction, "CURVE_TRIES", 0)
    path = tmp_path / "fail.json"
    code, _, err = run(capsys, ["search", "--p", "3", "--seed", "0", "--out", str(path)])
    assert code == 1
    assert "search exhausted" in err
    report = json.loads(path.read_text())
    assert report["schema"] == "nefcert-failure/1"
    assert report["stats"] == {
        key: 0
        for key in (
            "curves_sampled",
            "singular",
            "non_ordinary",
            "no_field",
            "torsion_misses",
            "frobenius_rejections",
            "excluded_pencils",
            "delta_exhausted",
            "obstruction_zero",
        )
    }


def test_search_to_an_unwritable_path_exits_2(tmp_path, capsys, monkeypatch):
    """A certificate or a failure report that cannot be written ends in
    exit 2 and one error line, as an unreadable path does for verify."""
    path = tmp_path / "missing" / "x.json"
    for tries in (obstruction.CURVE_TRIES, 0):  # a certificate, then a report
        monkeypatch.setattr(obstruction, "CURVE_TRIES", tries)
        code, out, err = run(capsys, ["search", "--p", "3", "--seed", "0", "--out", str(path)])
        assert code == 2 and out == ""
        assert err.splitlines()[1:] == [f"error: [Errno 2] No such file or directory: '{path}'"]
    assert not path.parent.exists()


def test_search_rejects_bad_prime(capsys):
    code, _, err = run(capsys, ["search", "--p", "6"])
    assert code == 2
    assert "not prime" in err
    code, _, err = run(capsys, ["search", "--p", "2"])
    assert code == 2
    assert "characteristic two" in err


@pytest.mark.parametrize("p", [3001, 10**18 + 9])
def test_search_and_curve_info_refuse_p_above_max_q(p):
    """A prime above MAX_Q is refused before any field is built or p is
    tested by trial division: search exits 2 and curve-info 1, each at
    once and naming the bound."""
    env = dict(os.environ, PYTHONPATH=str(Path(nefcert.__file__).parents[1]))
    for command, status in (("search", 2), ("curve-info", 1)):
        cmd = [sys.executable, "-m", "nefcert.cli", command, "--p", str(p)]
        if command == "curve-info":
            cmd += ["--f", "1,2,3,4,5,1"]
        out = subprocess.run(cmd, capture_output=True, env=env, timeout=10)
        assert out.returncode == status, command
        assert out.stdout == b""
        assert out.stderr.splitlines()[-1] == b"error: p above MAX_Q = 3000"


def test_invalid_flags_exit_2(capsys):
    for argv in (
        ["search", "--frequency", "11"],
        # the search limits are constants, and search always prints its
        # summary to stderr
        ["search", "--curve-tries", "0"],
        ["search", "--format", "json"],
        ["search", "--guard", "100"],
        ["search", "--delta-tries", "10"],
        ["curve-info", "--f", "0,1,0,0,0,1", "--guard", "100"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "--base", "p3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_lattice_report(capsys):
    code, out, _ = run(capsys, ["lattice", "--base", "p1xp1", "--d", "3"])
    assert code == 0
    assert "rho = 5" in out
    assert "negative self-degree: 6" in out

    code, out, _ = run(capsys, ["lattice", "--base", "p2", "--d", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["rho"] == 5 and payload["exceptional_count"] == 4
    assert payload["signature"] == [1, 4]


def test_curve_info_fixed_instance(capsys):
    code, out, _ = run(capsys, ["curve-info", "--p", "3", "--f", "1,0,0,0,0,1"])
    assert code == 0
    assert "ordinary: False" in out
    assert "[[0, 0], [1, 0]]" in out

    code, out, _ = run(
        capsys, ["curve-info", "--p", "3", "--f", "0,1,0,0,0,1", "--format", "json"]
    )
    payload = json.loads(out)
    assert payload["ordinary"] is True
    assert payload["cartier_manin"] == [[0, 1], [1, 0]]
    assert payload["jacobian_order"] == 12


def test_curve_info_rejects_singular_model(capsys):
    code, _, err = run(capsys, ["curve-info", "--p", "3", "--f", "0,0,0,0,0,1"])
    assert code == 1
    assert "singular" in err


@pytest.mark.parametrize("bad", [7, 8, -1])
def test_curve_info_rejects_codes_outside_the_field(capsys, bad):
    """A coefficient code outside 0..p-1 is refused as verify refuses it,
    not read as another code: 7 at p = 7 once ended in a traceback, and 8
    once gave a Jacobian order for the curve with 1 in its place."""
    code, out, err = run(capsys, ["curve-info", "--p", "7", f"--f=1,2,3,4,5,{bad}"])
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == "error: coefficient out of field range"


def test_config_echo_is_pinned(capsys, monkeypatch):
    """The stderr `config:` line, byte for byte, for each command: the
    arguments it parsed, as sorted JSON, and nothing it did not read."""
    monkeypatch.chdir(Path(nefcert.__file__).parents[2])
    code, _, err = run(capsys, ["search", "--p", "3", "--seed", "0"])
    assert code == 0
    assert err.splitlines()[0] == (
        'config: {"command": "search", "out": "", "p": 3, "seed": 0}'
    )
    code, _, err = run(capsys, ["verify", "perfbench/inputs/cert-p3-s0.json"])
    assert code == 0
    assert err == (
        'config: {"command": "verify", "format": "text",'
        ' "path": "perfbench/inputs/cert-p3-s0.json"}\n'
    )
    code, _, err = run(capsys, ["lattice"])
    assert code == 0
    assert err == 'config: {"base": "p1xp1", "command": "lattice", "d": 3, "format": "text"}\n'
    code, _, err = run(capsys, ["curve-info", "--f", "0,1,0,0,0,1"])
    assert code == 0
    assert err == (
        'config: {"command": "curve-info", "f": [0, 1, 0, 0, 0, 1], "format": "text", "p": 3}\n'
    )


def test_main_leaves_the_collector_alone(capsys):
    """In-process callers of main() keep normal GC: nothing is frozen."""
    root = Path(nefcert.__file__).parents[2]
    before = gc.get_freeze_count()
    code, _, _ = run(capsys, ["verify", str(root / "perfbench/inputs/cert-p3-s0.json")])
    assert code == 0
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize(
    "name,code",
    [("cert-p3-s0.json", 0), ("reject-check3-g.json", 1), ("reject-truncated.json", 2)],
)
def test_run_freezes_the_heap_once_then_exits_with_mains_code(monkeypatch, name, code):
    """The console entry runs main(), freezes the collector once (recorded
    here, so the test process itself is never frozen), and exits with
    main()'s code."""
    root = Path(nefcert.__file__).parents[2]
    events = []

    def recorded_main():
        result = main()
        events.append(("main", result))
        return result

    monkeypatch.setattr(cli, "main", recorded_main)
    monkeypatch.setattr(gc, "freeze", lambda: events.append(("freeze",)))
    monkeypatch.setattr(
        sys, "argv", ["nefcert", "verify", str(root / "perfbench/inputs" / name)]
    )
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == code
    assert events == [("main", code), ("freeze",)]


def test_run_search_keeps_the_file_a_rerun_disagrees_with(tmp_path, monkeypatch, capsys):
    """scripts/run_search.py --out: a rerun whose bytes differ from a file
    already written fails and leaves that file as it was, so every later
    rerun fails too."""
    path = Path(nefcert.__file__).parents[2] / "scripts" / "run_search.py"
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    spec = importlib.util.spec_from_file_location("run_search", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(
        sys, "argv", ["run_search.py", "--primes", "3", "--seeds", "1", "--out", str(tmp_path)]
    )
    assert script.main() == 0
    cert = tmp_path / "cert_p3_s0.json"
    good = cert.read_bytes()
    assert script.main() == 0
    assert cert.read_bytes() == good
    cert.write_bytes(b"stale")
    for _ in range(2):
        assert script.main() == 1
        assert cert.read_bytes() == b"stale"
    assert "determinism violation" in capsys.readouterr().out


# Source lines of the `nefcert` modules a cold `search` or `verify` loads,
# as README.md states under "Start-up cost".
COLD_IMPORT_LINES = 4155


def test_cold_import_path_is_lean():
    """The modules a cold `search` or `verify` loads pull in neither
    `dataclasses` nor `inspect`: their import alone takes longer than the
    checks of a certificate that fails check 1.  Nor do they load the
    tests' `nefcert.oracles`.  Their source stays within
    COLD_IMPORT_LINES: without valid bytecode every line is compiled on
    each command."""
    env = dict(os.environ, PYTHONPATH=str(Path(nefcert.__file__).parents[1]))
    probe = (
        "import sys, nefcert.cli, nefcert.serialize;"
        " print(sorted({'dataclasses', 'inspect', 'nefcert.oracles'} & set(sys.modules)));"
        " mods = [m for n, m in sys.modules.items() if n.split('.')[0] == 'nefcert'];"
        " print(sum(len(open(m.__file__, 'rb').read().splitlines()) for m in mods))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    leaked, lines = out.stdout.decode().splitlines()
    assert leaked == "[]"
    assert int(lines) <= COLD_IMPORT_LINES, f"{lines} source lines on the cold import path"
