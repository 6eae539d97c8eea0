"""End-to-end command-line flows, exercised through `python -m luorbit`."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import luorbit

# the child runs the luorbit these tests import, installed or not
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (str(Path(luorbit.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p
)}


def run(*args, stdin=None, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "luorbit", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
        env={**_ENV, **(env or {})},
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_json(*args, stdin=None):
    code, out, err = run(*args, stdin=stdin)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_w_amplitudes():
    data = run_json("generate", "w", "--qubits", "3")
    assert data["n"] == 3 and data["mode"] == "float"
    amp = 1.0 / math.sqrt(3.0)
    for code, (re, im) in enumerate(data["amplitudes"]):
        want = amp if code in (1, 2, 4) else 0.0
        assert abs(re - want) < 1e-12 and im == 0.0


def test_generate_is_byte_deterministic():
    a = run("generate", "random", "--qubits", "3", "--seed", "7")
    b = run("generate", "random", "--qubits", "3", "--seed", "7")
    assert a == b
    c = run("generate", "random", "--qubits", "3", "--seed", "8")
    assert a[1] != c[1]


def test_generate_exact_writes_fraction_strings():
    data = run_json("generate", "singlet-product", "--qubits", "2", "--pairs", "1:2", "--exact")
    assert data["mode"] == "exact"
    assert data["amplitudes"][0] == ["1/1", "0/1"]
    assert data["amplitudes"][1] == ["0/1", "0/1"]


def test_generate_ghz_and_basis():
    ghz = run_json("generate", "ghz", "--qubits", "3")
    amp = 1.0 / math.sqrt(2.0)
    assert abs(ghz["amplitudes"][0][0] - amp) < 1e-12
    assert abs(ghz["amplitudes"][7][0] - amp) < 1e-12

    basis = run_json("generate", "basis", "--qubits", "3", "--bits", "010")
    assert basis["amplitudes"][2] == [1.0, 0.0]


def test_generate_validates_pairing():
    code, _, err = run("generate", "singlet-product", "--qubits", "4", "--pairs", "1:2,2:3")
    assert code == 2
    assert "error" in err


def test_generate_bad_bits():
    code, _, _ = run("generate", "basis", "--qubits", "3", "--bits", "01")
    assert code == 2
    code, _, _ = run("generate", "basis", "--qubits", "2", "--index", "7")
    assert code == 2
    code, _, err = run("generate", "basis", "--qubits", "3", "--bits", "012")
    assert code == 2 and "bad basis state" in err
    code, _, err = run("generate", "basis", "--qubits", "3", "--index", "-1")
    assert code == 2 and "out of range" in err
    code, _, err = run("generate", "basis", "--qubits", "3", "--index", "1", "--bits", "001")
    assert code == 2 and "not both" in err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_ghz_report():
    _, ghz, _ = run("generate", "ghz", "--qubits", "3")
    report = run_json("analyze", "-", stdin=ghz)
    assert report["orbit_dimension"] == 7
    assert report["min_orbit_dimension"] == 5
    assert report["is_minimal"] is False
    assert report["pairing"] is None


def test_analyze_ground_state():
    _, psi, _ = run("generate", "basis", "--qubits", "1")
    report = run_json("analyze", "-", stdin=psi)
    assert report["orbit_dimension"] == 2
    assert report["is_minimal"] is True


def test_analyze_is_byte_deterministic(tmp_path):
    path = tmp_path / "s.json"
    run("generate", "random", "--qubits", "3", "--seed", "5", "--out", str(path))
    a = run("analyze", str(path))
    b = run("analyze", str(path))
    assert a == b


@pytest.mark.parametrize(
    "n, pairs, lone",
    [(13, "1:8,2:11,3:5,4:13,6:10,7:12", "9"), (14, "1:9,2:14,3:6,4:12,5:11,7:13,8:10", None)],
)
def test_analyze_bytes_do_not_depend_on_blas_threads(tmp_path, n, pairs, lone):
    # the dropped singular values of a scrambled singlet product are rounding
    # noise that the BLAS thread count reorders; their gap ratios lie under
    # the rounding floor and print as null whatever the thread count
    path = tmp_path / "s.json"
    flags = ["--lone", lone] if lone else []
    code, _, err = run("generate", "singlet-product", "--qubits", str(n), "--pairs", pairs,
                       *flags, "--out", str(path))
    assert code == 0, err
    out = {
        threads: run("analyze", str(path), "--lu-seed", "1",
                     env={"OPENBLAS_NUM_THREADS": threads})
        for threads in ("1", "2")
    }
    assert out["1"] == out["2"]
    report = json.loads(out["1"][1])
    assert report["is_minimal"] and report["pairing"] is not None


def test_analyze_dump_matrix():
    _, psi, _ = run("generate", "basis", "--qubits", "2")
    dump = run_json("analyze", "-", "--dump-matrix", stdin=psi)
    assert dump["n"] == 2
    assert len(dump["columns"]) == 7
    assert all(len(col) == 4 for col in dump["columns"])
    # last column is -i|00>
    assert dump["columns"][6][0] == [0.0, -1.0]
    # exact columns print unscaled p/q parts
    amps = [["1/2", "-3/4"], ["1/3", "0"], ["0", "0"], ["0", "1"]]
    blob = json.dumps({"n": 2, "mode": "exact", "amplitudes": amps})
    dump = run_json("analyze", "-", "--dump-matrix", stdin=blob)
    # z on qubit 1 is i*psi on codes 0, 1 and -i*psi on codes 2, 3
    assert dump["columns"][0] == [["3/4", "1/2"], ["0/1", "1/3"], ["0/1", "0/1"], ["1/1", "0/1"]]
    # -i psi
    assert dump["columns"][6] == [["-3/4", "-1/2"], ["0/1", "-1/3"], ["0/1", "0/1"], ["1/1", "0/1"]]


def test_analyze_rejects_malformed_json():
    code, _, err = run("analyze", "-", stdin="{not json")
    assert code == 2


def test_analyze_rejects_wrong_schema():
    code, _, _ = run("analyze", "-", stdin=json.dumps({"n": 1, "mode": "float"}))
    assert code == 2


def test_analyze_zero_vector_is_analysis_error():
    blob = json.dumps({"n": 1, "mode": "float", "amplitudes": [[0.0, 0.0], [0.0, 0.0]]})
    code, _, err = run("analyze", "-", stdin=blob)
    assert code == 1
    assert "nonzero" in err


def _pair_blob(value):
    """Float state file holding value * (|00> + |11>)."""
    amps = [[value, 0.0], [0.0, 0.0], [0.0, 0.0], [value, 0.0]]
    return json.dumps({"n": 2, "mode": "float", "amplitudes": amps})


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_analyze_rejects_non_finite_amplitudes(value):
    code, out, err = run("analyze", "-", stdin=_pair_blob(value))
    assert code == 2
    assert out == ""
    assert "finite" in err and "Traceback" not in err


@pytest.mark.parametrize("value", [1e308, 1e-200, 1e-320])
def test_analyze_survives_norm_overflow_and_underflow(value):
    want = run("analyze", "-", stdin=_pair_blob(1.0))
    assert run("analyze", "-", stdin=_pair_blob(value)) == want
    assert json.loads(want[1])["orbit_dimension"] == 3


@pytest.mark.parametrize("value", [str(10**400), f"1/{10**400}"], ids=["huge", "tiny"])
@pytest.mark.parametrize("flags", [("--backend", "float"), ("--lu-seed", "3")], ids=["float", "lu"])
def test_float_conversion_survives_exact_parts_beyond_float_range(value, flags):
    def blob(part):
        amps = [[part, "0"], ["0", "0"], ["0", "0"], [part, "0"]]
        return json.dumps({"n": 2, "mode": "exact", "amplitudes": amps})

    want = run("analyze", "-", *flags, stdin=blob("1"))
    assert run("analyze", "-", *flags, stdin=blob(value)) == want
    assert json.loads(want[1])["orbit_dimension"] == 3


@pytest.mark.parametrize("tol", ["0", "-1", "1e-300", "nan", "inf", "1"])
def test_analyze_rejects_degenerate_tol(tol):
    # a minimal 6-qubit state: a tol below rounding noise read it as full rank
    # 19, and nan, inf or 1 dropped every singular value, all with exit 0
    _, psi, _ = run("generate", "singlet-product", "--qubits", "6", "--pairs", "1:4,2:3,5:6")
    code, out, err = run("analyze", "-", f"--tol={tol}", stdin=psi)
    assert code == 2
    assert out == ""
    assert "--tol" in err and "Traceback" not in err


def test_verdicts_that_break_the_range_theorem_exit_1():
    # at tol 0.5 GHZ_5's full selection keeps one value: orbit dimension 0,
    # under the minimum 8, and pair spans of 5 above that rank of 1
    _, psi, _ = run("generate", "ghz", "--qubits", "5")
    code, out, err = run("analyze", "-", "--tol", "0.5", stdin=psi)
    assert (code, out) == (1, "")
    assert err.startswith("error: orbit dimension 0 breaks the range theorem")
    assert err.count("\n") == 1
    code, out, err = run("classify", "-", "--tol", "0.5", stdin=psi)
    assert (code, out) == (1, "")
    assert err.startswith("classification failed: orbit dimension 0 breaks the range theorem")
    assert err.count("\n") == 1


def test_every_tol_flag_rejects_degenerate_values(tmp_path):
    path = tmp_path / "s.json"
    run("generate", "singlet-product", "--qubits", "2", "--pairs", "1:2", "--out", str(path))
    for args in [
        ("classify", str(path)),
        ("compare", str(path), str(path)),
        ("verify", "--suite", "triplesprop", "--trials", "1"),
    ]:
        code, out, err = run(*args, "--tol=0")
        assert code == 2, args
        assert out == "" and "Traceback" not in err
    assert run("classify", str(path), "--tol=1e-15")[0] == 0


_ONE_QUBIT = {"n": 1, "mode": "float", "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}


@pytest.mark.parametrize(
    "command, state, message",
    [
        (("analyze", "STATE"), {"n": 0, "mode": "float", "amplitudes": [[1.0, 0.0]]}, "qubit"),
        (("classify", "STATE"), {"n": 0, "mode": "exact", "amplitudes": [["1", "0"]]}, "qubit"),
        (("compare", "STATE", "STATE"), {"n": 0, "mode": "float", "amplitudes": [[1, 0]]}, "qubit"),
        (("analyze", "STATE"), {"n": 1, "mode": "exact", "amplitudes": [["1/0", "0"], ["1", "0"]]},
         "zero denominator"),
        (("analyze", "STATE"), {"n": 1, "mode": "float", "amplitudes": [[10**400, 0], [1, 0]]},
         "finite"),
        (("analyze", "STATE", "--lu-seed", "-1"), _ONE_QUBIT, "seed must be nonnegative"),
        (("classify", "STATE", "--lu-seed", "-1"), _ONE_QUBIT, "seed must be nonnegative"),
        (("generate", "random", "--qubits", "2", "--seed", "-1"), None, "seed must be nonnegative"),
        (("verify", "--seed", "-1"), None, "seed must be nonnegative"),
        (("analyze", "STATE"), {**_ONE_QUBIT, "n": True}, "qubit count"),
        (("classify", "STATE"), {**_ONE_QUBIT, "n": True}, "qubit count"),
        (("compare", "STATE", "STATE"), {**_ONE_QUBIT, "n": True}, "qubit count"),
        # rejected before anything is allocated: 2**30 amplitudes already take 16 GiB
        (("generate", "ghz", "--qubits", "31"), None, "at most 30"),
        (("generate", "ghz", "--qubits", "64"), None, "at most 30"),
        (("generate", "basis", "--qubits", "64", "--index", "3"), None, "at most 30"),
        (("verify", "--suite", "unentrank", "--qubits", "64"), None, "at most 30"),
        (("verify", "--qubits", "1000"), None, "at most 30"),
    ],
    ids=["n0-analyze", "n0-classify", "n0-compare", "zero-denominator", "int-beyond-float",
         "lu-seed-analyze", "lu-seed-classify", "generate-seed", "verify-seed",
         "n-true-analyze", "n-true-classify", "n-true-compare", "generate-31-qubits",
         "generate-64-qubits", "basis-64-qubits", "verify-64-qubits", "verify-1000-qubits"],
)
def test_malformed_input_exits_2_with_one_error_line(tmp_path, command, state, message):
    path = tmp_path / "s.json"
    if state is not None:
        path.write_text(json.dumps(state), encoding="utf-8")
    code, out, err = run(*(str(path) if arg == "STATE" else arg for arg in command))
    assert code == 2
    assert out == "" and "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0], err


@pytest.mark.parametrize("command", [
    ("analyze", "STATE", "--out", "DIR"),
    ("generate", "ghz", "--qubits", "3", "--out", "MISSING"),
    ("verify", "--suite", "triplesprop", "--trials", "1", "--out", "DIR"),
], ids=["analyze-to-a-directory", "generate-to-a-missing-directory", "verify-to-a-directory"])
def test_an_out_path_that_cannot_be_written_exits_2_with_one_error_line(tmp_path, command):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_ONE_QUBIT), encoding="utf-8")
    places = {"STATE": path, "DIR": tmp_path, "MISSING": tmp_path / "missing" / "x.json"}
    code, _, err = run(*(str(places.get(arg, arg)) for arg in command))
    assert code == 2 and "Traceback" not in err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1, err


def test_out_of_memory_exits_1_with_one_error_line(tmp_path, capsys, monkeypatch):
    from luorbit import cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "orbit_report", exhausted)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(luorbit.basis_state(2, 0).to_json_dict()), encoding="utf-8")
    assert cli.main(["analyze", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_backend_exact_requires_exact_file():
    _, psi, _ = run("generate", "w", "--qubits", "2")
    code, _, _ = run("analyze", "-", "--backend", "exact", stdin=psi)
    assert code == 2


def test_backend_exact_with_lu_seed_conflicts():
    _, psi, _ = run("generate", "ghz", "--qubits", "2", "--exact")
    code, _, _ = run("analyze", "-", "--backend", "exact", "--lu-seed", "3", stdin=psi)
    assert code == 2


def test_exact_analysis_pipeline():
    _, psi, _ = run("generate", "singlet-product", "--qubits", "4",
                    "--pairs", "1:3,2:4", "--exact")
    report = run_json("analyze", "-", "--backend", "exact", stdin=psi)
    assert report["diagnostics"]["backend"] == "exact"
    assert report["orbit_dimension"] == 6
    assert report["is_minimal"] is True
    # exact backend has no singular values, so the gap serializes as null
    assert report["diagnostics"]["gap_ratio_full"] is None


# ---------------------------------------------------------------------------
# classify / compare
# ---------------------------------------------------------------------------


def test_classify_roundtrip_with_lu_scramble(tmp_path):
    path = tmp_path / "sp.json"
    run("generate", "singlet-product", "--qubits", "4", "--pairs", "1:4,2:3",
        "--out", str(path))
    plain = run_json("classify", str(path))
    scrambled = run_json("classify", str(path), "--lu-seed", "99")
    assert plain == scrambled == {"pairs": [[1, 4], [2, 3]], "lone": None}


def test_classify_w_state_not_minimal():
    _, psi, _ = run("generate", "w", "--qubits", "3")
    out = run_json("classify", "-", stdin=psi)
    assert out == {"not_minimal": True, "orbit_dimension": 8}


def test_compare_same_pairing_different_scrambles(tmp_path):
    from luorbit import LocalUnitary, apply_local, save_state, singlet_product

    base = singlet_product(4, [(1, 2), (3, 4)])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_state(apply_local(base, LocalUnitary.random(4, 300)), a)
    save_state(apply_local(base, LocalUnitary.random(4, 301)), b)
    verdict = run_json("compare", str(a), str(b))
    assert verdict["equal"] is True


def test_compare_different_pairings(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("generate", "singlet-product", "--qubits", "4", "--pairs", "1:2,3:4",
        "--out", str(a))
    run("generate", "singlet-product", "--qubits", "4", "--pairs", "1:3,2:4",
        "--out", str(b))
    verdict = run_json("compare", str(a), str(b))
    assert verdict["equal"] is False
    assert verdict["pairing_a"] == {"pairs": [[1, 2], [3, 4]], "lone": None}


def test_compare_rejects_nonminimal(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("generate", "singlet-product", "--qubits", "4", "--pairs", "1:2,3:4",
        "--out", str(a))
    run("generate", "w", "--qubits", "3", "--out", str(b))
    code, _, err = run("compare", str(a), str(b))
    assert code == 1
    assert "minim" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_suite_passes():
    code, out, _ = run("verify", "--suite", "triplesprop", "--qubits", "3",
                       "--trials", "10", "--seed", "1")
    assert code == 0
    assert out.startswith("PASS triplesprop")


def test_verify_at_tol_one_over_m_passes():
    # a lone triple's singular values are equal to rounding, right at the kept
    # side's margin when tol = 1 / M: the verdict falls back, it does not crash
    code, out, err = run("verify", "--suite", "ranktripluinv", "--qubits", "4",
                         "--trials", "20", "--tol", "1e-3")
    assert (code, err) == (0, "")
    assert out.startswith("PASS ranktripluinv")


def test_verify_unknown_suite():
    code, _, err = run("verify", "--suite", "bogus")
    assert code == 2
    assert "unknown suite" in err


def test_verify_failure_exits_1(tmp_path):
    report_path = tmp_path / "report.json"
    code, out, _ = run("verify", "--suite", "minrankMstrong", "--qubits", "3",
                       "--trials", "4", "--seed", "0", "--tol", "0.45",
                       "--out", str(report_path))
    assert code == 1
    assert "FAIL" in out
    with open(report_path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["suites"][0]["passed"] is False
    assert report["suites"][0]["failures"][0]["states"]


def test_verify_inconsistent_classification_is_a_failed_trial():
    # at tol 0.45 a scrambled pair product looks minimal with no pair
    # detected; that ends as a FAIL line, not a traceback
    code, out, err = run("verify", "--suite", "all", "--qubits", "4", "--tol", "0.45",
                         "--trials", "10", "--seed", "0")
    assert code == 1
    assert "FAIL (1 of 10 trials) minorbclassthm_roundtrip" in out
    assert "classification failed" in out
    assert "Traceback" not in err


def test_verify_all_skips_out_of_range_suites():
    code, out, _ = run("verify", "--suite", "all", "--qubits", "1",
                       "--trials", "2", "--seed", "0")
    assert code == 0
    assert "SKIP" in out
    assert "PASS triplesprop" in out


def test_verify_qubit_bound_is_usage_error():
    code, _, _ = run("verify", "--suite", "bipartiteranksadd", "--qubits", "8")
    assert code == 2


def test_closed_stdout_exits_1_without_a_traceback():
    # the reader has gone before anything is written, as with `| head -1`
    # once head has read its line
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "luorbit", "verify", "--suite", "all", "--qubits", "4",
             "--trials", "2"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120, env=_ENV,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


# ---------------------------------------------------------------------------
# in-process calls share one parser
# ---------------------------------------------------------------------------


def test_repeated_in_process_calls_match_a_fresh_parser(tmp_path, capsys, monkeypatch):
    from luorbit import cli

    state = tmp_path / "pairs.json"
    assert cli.main(["generate", "singlet-product", "--qubits", "5", "--pairs", "1:3,2:5",
                     "--lone", "4", "--out", str(state)]) == 0
    calls = [
        ["analyze", str(state)],
        ["classify", str(state), "--lu-seed", "4"],
        ["analyze", str(state), "--tol", "0"],
        ["generate", "ghz", "--qubits", "3"],
        ["compare", str(state), str(state)],
        ["verify", "--suite", "twocommonstrong", "--qubits", "4", "--trials", "2"],
        ["analyze", "--help"],
        ["analyze", str(state), "--backend", "exact"],
        ["analyze", str(state)],
    ]

    def outcomes():
        got = []
        for argv in calls:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            got.append((code, *capsys.readouterr()))
        return got

    cached = outcomes()
    assert cli._cached_parser() is cli._cached_parser()
    assert outcomes() == cached
    monkeypatch.setattr(cli, "_cached_parser", cli.build_parser)
    assert outcomes() == cached
    codes = [code for code, _, _ in cached]
    assert codes == [0, 0, 2, 0, 0, 0, 0, 2, 0]
    assert cached[0] == cached[-1]
    assert cached[2][2].startswith("usage: luorbit analyze")
    assert cached[6][1].startswith("usage: luorbit analyze")


# ---------------------------------------------------------------------------
# frozen bytes of the exact backend
# ---------------------------------------------------------------------------


def _lcg_rationals(count, seed):
    """``count`` [re, im] pairs of 'p/q' strings, p in -9..9 and q in 1..6, from an LCG."""
    parts, x = [], seed
    for _ in range(2 * count):
        x = (x * 1103515245 + 12345) % 2**31
        parts.append(f"{x % 19 - 9}/{x // 19 % 6 + 1}")
    return [parts[i : i + 2] for i in range(0, len(parts), 2)]


def _bit(code, n, q):
    return (code >> (n - q)) & 1


def _exact_file(n, amplitude):
    amps = [amplitude(code) for code in range(1 << n)]
    return json.dumps({"n": n, "mode": "exact", "amplitudes": amps})


def _rational_file(n):
    amps = _lcg_rationals(1 << n, n)
    return _exact_file(n, lambda code: amps[code])


_PAIRINGS = {4: ([(1, 3), (2, 4)], None), 5: ([(1, 4), (2, 5)], 3),
             6: ([(1, 6), (2, 4), (3, 5)], None), 7: ([(1, 2), (3, 7), (4, 6)], 5)}


def _singlet_file(n):
    pairs, lone = _PAIRINGS[n]

    def amplitude(code):
        on = all(_bit(code, n, a) == _bit(code, n, b) for a, b in pairs)
        on = on and (lone is None or not _bit(code, n, lone))
        return ["3/7" if on else "0", "0"]

    return _exact_file(n, amplitude)


def _pair_rest_file(n):
    l, lp = 2, n
    rest = [q for q in range(1, n + 1) if q not in (l, lp)]
    amps = _lcg_rationals(1 << (n - 2), 100 + n)

    def amplitude(code):
        if _bit(code, n, l) != _bit(code, n, lp):
            return ["0", "0"]
        sub = 0
        for q in rest:
            sub = (sub << 1) | _bit(code, n, q)
        return amps[sub]

    return _exact_file(n, amplitude)


def _malformed_file(part):
    return json.dumps({"n": 1, "mode": "exact", "amplitudes": [["1/2", "0"], [part, "1"]]})


def _frozen_cases():
    cases = {}
    for n in (4, 5, 6, 7):
        for kind, build in [("rational", _rational_file), ("singlet", _singlet_file),
                            ("pair-rest", _pair_rest_file)]:
            cases[f"analyze-{kind}-{n}"] = (["analyze", "-"], build(n))
    # two row blocks of the real view
    for kind, build in [("rational", _rational_file), ("pair-rest", _pair_rest_file)]:
        cases[f"analyze-{kind}-11"] = (["analyze", "-"], build(11))
    cases["dump-matrix"] = (["analyze", "-", "--dump-matrix"], _rational_file(3))
    huge = [[f"{10**40 + k}/{3**(k + 30)}", f"-{k}/{10**25}"] for k in range(8)]
    cases["analyze-huge-parts"] = (["analyze", "-"], _exact_file(3, lambda code: huge[code]))
    for kind, flags in [("ghz", []), ("w", []), ("basis", ["--bits", "0110"]),
                        ("singlet-product", ["--pairs", "1:3,2:4"]),
                        ("random", ["--seed", "5"])]:
        cases[f"generate-{kind}-exact"] = (["generate", kind, "--qubits", "4", *flags, "--exact"],
                                           None)
    for kind in ("ghz", "w"):
        cases[f"generate-{kind}-float"] = (["generate", kind, "--qubits", "5"], None)
    for name, part in [("float-part", 0.5), ("bool-part", True), ("zero-denominator", "1/0"),
                       ("not-rational", "1/2x")]:
        cases[f"malformed-{name}"] = (["analyze", "-"], _malformed_file(part))
    return cases


#: (exit code, sha256 of stdout, sha256 of stderr) per case, first 16 hex digits.
_FROZEN = {
    "analyze-huge-parts": (0, "05f8c6c988ed845c", "e3b0c44298fc1c14"),
    "analyze-pair-rest-11": (0, "bba2475097e48c97", "e3b0c44298fc1c14"),
    "analyze-pair-rest-4": (0, "3cc79b4f3c9ec964", "e3b0c44298fc1c14"),
    "analyze-pair-rest-5": (0, "4986e3840379ac80", "e3b0c44298fc1c14"),
    "analyze-pair-rest-6": (0, "580ec86418a5ce82", "e3b0c44298fc1c14"),
    "analyze-pair-rest-7": (0, "50fcfd88b81d9a09", "e3b0c44298fc1c14"),
    "analyze-rational-11": (0, "9025f2bc2a66ec44", "e3b0c44298fc1c14"),
    "analyze-rational-4": (0, "058142e9d28178ec", "e3b0c44298fc1c14"),
    "analyze-rational-5": (0, "fa8690324875050b", "e3b0c44298fc1c14"),
    "analyze-rational-6": (0, "05c0077286fd7ea0", "e3b0c44298fc1c14"),
    "analyze-rational-7": (0, "3e7501896127b834", "e3b0c44298fc1c14"),
    "analyze-singlet-4": (0, "a517006414cb42d4", "e3b0c44298fc1c14"),
    "analyze-singlet-5": (0, "10e5773e5dde1a2c", "e3b0c44298fc1c14"),
    "analyze-singlet-6": (0, "28a6c9272fbb1c5a", "e3b0c44298fc1c14"),
    "analyze-singlet-7": (0, "d9d900509af80f42", "e3b0c44298fc1c14"),
    "dump-matrix": (0, "b3439d0f5090809e", "e3b0c44298fc1c14"),
    "generate-basis-exact": (0, "9983a858138d197f", "e3b0c44298fc1c14"),
    "generate-ghz-exact": (0, "b989dd42f122ed98", "e3b0c44298fc1c14"),
    "generate-ghz-float": (0, "406953958fa544ad", "e3b0c44298fc1c14"),
    "generate-random-exact": (0, "9468cfa370a56f1f", "e3b0c44298fc1c14"),
    "generate-singlet-product-exact": (0, "c29e19a716f208f9", "e3b0c44298fc1c14"),
    "generate-w-exact": (0, "1788589ae6573013", "e3b0c44298fc1c14"),
    "generate-w-float": (0, "ad788efcd9e9ef70", "e3b0c44298fc1c14"),
    "malformed-bool-part": (2, "e3b0c44298fc1c14", "52be101397ebfd05"),
    "malformed-float-part": (2, "e3b0c44298fc1c14", "9b9dbed5873ba277"),
    "malformed-not-rational": (2, "e3b0c44298fc1c14", "4c1b9e75600abdec"),
    "malformed-zero-denominator": (2, "e3b0c44298fc1c14", "80312935f0248da8"),
}


@pytest.mark.parametrize("case", sorted(_frozen_cases()))
def test_exact_backend_bytes_are_frozen(case, capsys, monkeypatch):
    import hashlib
    import io

    from luorbit import cli

    argv, stdin = _frozen_cases()[case]
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    digest = tuple(hashlib.sha256(s.encode()).hexdigest()[:16] for s in (out, err))
    assert (code, *digest) == _FROZEN[case]


def test_exact_analyze_builds_no_real_view(capsys, monkeypatch):
    # every exact verdict is read from the Gram, which is streamed from the state
    import io

    from luorbit import cli, lie_action

    reads = []
    columns = lie_action.TangentMatrix.columns
    monkeypatch.setattr(
        lie_action.TangentMatrix, "columns", lambda tm, cols: reads.append(tm.n) or columns(tm, cols)
    )
    cases = _frozen_cases()
    names = [name for name in cases if name.startswith("analyze-")]
    assert {name.rsplit("-", 1)[1] for name in names} >= {"4", "5", "6", "7", "11"}
    for name in names:
        argv, stdin = cases[name]
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        assert cli.main(argv) == 0, name
        assert reads == [], name
    capsys.readouterr()
