"""End-to-end command-line flows, exercised through `python -m luorbit`."""

import json
import math
import subprocess
import sys

import pytest


def run(*args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "luorbit", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
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


def test_analyze_dump_matrix():
    _, psi, _ = run("generate", "basis", "--qubits", "2")
    dump = run_json("analyze", "-", "--dump-matrix", stdin=psi)
    assert dump["n"] == 2
    assert len(dump["columns"]) == 7
    assert all(len(col) == 4 for col in dump["columns"])
    # last column is -i|00>
    assert dump["columns"][6][0] == [0.0, -1.0]


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


@pytest.mark.parametrize("value", [1e308, 1e-200])
def test_analyze_survives_norm_overflow_and_underflow(value):
    want = run("analyze", "-", stdin=_pair_blob(1.0))
    assert run("analyze", "-", stdin=_pair_blob(value)) == want
    assert json.loads(want[1])["orbit_dimension"] == 3


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


def test_verify_all_skips_out_of_range_suites():
    code, out, _ = run("verify", "--suite", "all", "--qubits", "1",
                       "--trials", "2", "--seed", "0")
    assert code == 0
    assert "SKIP" in out
    assert "PASS triplesprop" in out


def test_verify_qubit_bound_is_usage_error():
    code, _, _ = run("verify", "--suite", "bipartiteranksadd", "--qubits", "8")
    assert code == 2
