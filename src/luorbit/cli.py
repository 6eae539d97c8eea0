"""Command-line surface: generate, analyze, classify, compare, verify.

All commands speak JSON on files or stdin/stdout and are deterministic
given their flags and seeds.  Exit codes: 0 success, 1 analysis errors
(zero vectors, running out of memory, non-minimal inputs to compare,
verdicts that break a theorem at the given tolerance, failed
verification, a reader that closed stdout early), 2 usage errors
(bad flags, malformed files, unknown suites, an ``--out`` path that
cannot be written).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .analysis import (
    InconsistentStructureError,
    NotMinimal,
    classify_min_orbit,
    orbit_report,
    pairing_equal,
)
from .lie_action import tangent_matrix
from .lu import LocalUnitary, apply_local
from .states import (
    EXACT,
    FLOAT,
    StateVector,
    ZeroStateError,
    _indicator,
    _json_amplitudes,
    basis_state,
    random_rational_state,
    random_state,
    singlet_product,
)
from .tolerance import DEFAULT_TOL, check_tol
from .verify import SUITES, verify_proposition

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_USAGE = 2


class _UsageError(Exception):
    """Bad flags or unparseable input files; mapped to exit code 2."""


#: Largest ``--qubits`` accepted: 2**30 complex128 amplitudes already take 16 GiB.
#: A float ``analyze`` peaks at the state, a few arrays of its size and one
#: row block of the tangent matrix, since R is streamed from the state, and
#: an exact ``analyze`` likewise, since its integer Gram is summed block by
#: block.  Columns of the 2**(n+1) x (3n+1) real view are generated only
#: where a reader asks for them: ``verify`` holds at most six at a time, a
#: verdict near the cutoff holds its selection's, and only ``--dump-matrix``
#: and a fallback of the full selection hold every column (19.6 GB at
#: n = 24).  Running out of memory there exits 1 (``main``).
_MAX_QUBITS = 30


# ---------------------------------------------------------------------------
# small plumbing helpers
# ---------------------------------------------------------------------------


def _emit(text: str, out) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {out}: {exc}") from exc


def _emit_json(data, out) -> None:
    _emit(json.dumps(data, indent=2) + "\n", out)


def _read_state(path) -> StateVector:
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{path}: not valid JSON: {exc}") from exc
    try:
        psi = StateVector.from_json_dict(data)
    except ZeroStateError:
        raise
    except ValueError as exc:
        raise _UsageError(f"{path}: {exc}") from exc
    if psi.n < 1:
        raise _UsageError(f"{path}: a state to analyze needs at least one qubit")
    return psi


def _prepare_state(args) -> StateVector:
    """Load a state and apply the --backend / --lu-seed flags in order."""
    backend, lu_seed = args.backend, args.lu_seed
    if backend == EXACT and lu_seed is not None:
        raise _UsageError("--lu-seed scrambles with floating unitaries; "
                          "it cannot be combined with --backend exact")
    psi = _read_state(args.state)
    if backend == EXACT and psi.mode != EXACT:
        raise _UsageError("--backend exact needs an exact-mode state file")
    if backend == FLOAT:
        psi = psi.to_float()
    if lu_seed is not None:
        psi = apply_local(psi, LocalUnitary.random(psi.n, lu_seed))
    return psi


def _tol(text: str) -> float:
    """argparse type of --tol: a float that ``tolerance.check_tol`` accepts."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    try:
        check_tol(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _seed(text: str) -> int:
    """argparse type of every seed flag: a nonnegative int, as numpy's seeding requires."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative; got {value}")
    return value


def _parse_pairs(text: str):
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise _UsageError(f"bad pair {chunk!r}; expected like 1:2")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise _UsageError(f"bad pair {chunk!r}: {exc}") from exc
    if not pairs:
        raise _UsageError("--pairs given but no pairs parsed")
    return pairs


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _matrix_dump(psi: StateVector) -> dict:
    tm = tangent_matrix(psi)
    columns = [_json_amplitudes(col, tm.scale) for col in tm.columns(range(tm.column_count)).T]
    return {"n": tm.n, "mode": tm.mode, "columns": columns}


def _cmd_analyze(args) -> int:
    psi = _prepare_state(args)
    if args.dump_matrix:
        _emit_json(_matrix_dump(psi), args.out)
        return EXIT_OK
    report = orbit_report(psi, tol=args.tol)
    _emit_json(report.to_json_dict(), args.out)
    return EXIT_OK


def _cmd_classify(args) -> int:
    psi = _prepare_state(args)
    try:
        outcome = classify_min_orbit(psi, tol=args.tol)
    except InconsistentStructureError as exc:
        print(f"classification failed: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    _emit_json(outcome.to_json_dict(), args.out)
    return EXIT_OK


def _cmd_compare(args) -> int:
    verdicts = []
    for path in (args.state_a, args.state_b):
        psi = _read_state(path)
        try:
            outcome = classify_min_orbit(psi, tol=args.tol)
        except InconsistentStructureError as exc:
            print(f"{path}: classification failed: {exc}", file=sys.stderr)
            return EXIT_ANALYSIS
        if isinstance(outcome, NotMinimal):
            print(
                f"{path}: orbit dimension {outcome.orbit_dimension} is above the "
                f"minimum {outcome.min_orbit_dimension}; only minimal states "
                "carry a pairing to compare",
                file=sys.stderr,
            )
            return EXIT_ANALYSIS
        verdicts.append(outcome)
    a, b = verdicts
    equal = a.n == b.n and pairing_equal(a, b)
    _emit_json(
        {"equal": equal, "pairing_a": a.to_json_dict(), "pairing_b": b.to_json_dict()},
        args.out,
    )
    return EXIT_OK


def _generate_state(args) -> StateVector:
    n = args.qubits
    mode = EXACT if args.exact else FLOAT
    kind = args.kind
    if kind == "singlet-product":
        if args.pairs is None:
            raise _UsageError("generate singlet-product needs --pairs")
        pairs = _parse_pairs(args.pairs)
        try:
            return singlet_product(n, pairs, args.lone, mode=mode)
        except ValueError as exc:
            raise _UsageError(f"bad pairing: {exc}") from exc
    if kind in ("ghz", "w"):
        # GHZ: |0...0> + |1...1>; W: the n codes with one bit set
        mask = np.zeros(1 << n, dtype=bool)
        mask[[0, -1] if kind == "ghz" else 1 << np.arange(n)] = True
        return _indicator(mask, mode)
    if kind == "basis":
        if args.bits is not None and args.index is not None:
            raise _UsageError("give --index or --bits, not both")
        index = args.bits if args.bits is not None else args.index or 0
        try:
            return basis_state(n, index, mode=mode)
        except ValueError as exc:
            raise _UsageError(f"bad basis state: {exc}") from exc
    if kind == "random":
        if mode == EXACT:
            return random_rational_state(n, args.seed)
        return random_state(n, args.seed)
    raise _UsageError(f"unknown kind {kind!r}")


def _check_qubits(n: int) -> None:
    if n < 1:
        raise _UsageError("--qubits must be at least 1")
    if n > _MAX_QUBITS:
        raise _UsageError(f"--qubits must be at most {_MAX_QUBITS}")


def _cmd_generate(args) -> int:
    _check_qubits(args.qubits)
    psi = _generate_state(args)
    _emit_json(psi.to_json_dict(), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    _check_qubits(args.qubits)
    if args.suite == "all":
        names = [
            name
            for name, (_, min_n, max_n) in SUITES.items()
            if min_n <= args.qubits and (max_n is None or args.qubits <= max_n)
        ]
        skipped = [name for name in SUITES if name not in names]
    else:
        if args.suite not in SUITES:
            known = ", ".join(sorted(SUITES))
            raise _UsageError(f"unknown suite {args.suite!r}; choose from: {known}, all")
        names, skipped = [args.suite], []

    reports = []
    lines = []
    for name in names:
        try:
            report = verify_proposition(
                name, n=args.qubits, trials=args.trials, seed=args.seed, tol=args.tol
            )
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
        reports.append(report)
        lines.append(report.summary_line())
        for failure in report.failures[:5]:
            for message in failure.messages:
                lines.append(f"  trial {failure.trial}: {message}")
        if len(report.failures) > 5:
            lines.append(f"  ... {len(report.failures) - 5} more failing trials")
    for name in skipped:
        _, min_n, max_n = SUITES[name]
        bound = f"{min_n}..{max_n}" if max_n is not None else f">= {min_n}"
        lines.append(f"SKIP {name} (needs qubit count {bound})")
    print("\n".join(lines))

    if args.out:
        _emit_json(
            {
                "qubits": args.qubits,
                "trials": args.trials,
                "seed": args.seed,
                "suites": [
                    {
                        "suite": r.suite,
                        "passed": r.passed,
                        "failures": [
                            {
                                "trial": f.trial,
                                "messages": list(f.messages),
                                "states": list(f.states),
                            }
                            for f in r.failures
                        ],
                    }
                    for r in reports
                ],
                "skipped": skipped,
            },
            args.out,
        )
    return EXIT_OK if all(r.passed for r in reports) else EXIT_ANALYSIS


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_state_flags(sub):
    sub.add_argument("state", help="state JSON file, or - for stdin")
    sub.add_argument("--tol", type=_tol, default=DEFAULT_TOL,
                     help=f"relative singular-value threshold (default {DEFAULT_TOL:g})")
    sub.add_argument("--backend", choices=[FLOAT, EXACT], default=None,
                     help="force a numeric backend (default: follow the file)")
    sub.add_argument("--lu-seed", type=_seed, default=None, dest="lu_seed",
                     help="scramble with a seeded random local unitary first")
    sub.add_argument("--out", default=None, help="write output here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="luorbit",
        description="Local-unitary orbit dimensions of n-qubit states.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="full orbit report for a state file")
    _add_state_flags(p)
    p.add_argument("--dump-matrix", action="store_true",
                   help="print the generator-action matrix instead of the report")
    p.set_defaults(fn=_cmd_analyze)

    p = subs.add_parser("classify", help="singlet pairing of a minimal state")
    _add_state_flags(p)
    p.set_defaults(fn=_cmd_classify)

    p = subs.add_parser("compare", help="whether two minimal states share a pairing")
    p.add_argument("state_a", help="first state JSON file")
    p.add_argument("state_b", help="second state JSON file")
    p.add_argument("--tol", type=_tol, default=DEFAULT_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_compare)

    p = subs.add_parser("generate", help="write a state JSON file")
    p.add_argument("kind", choices=["singlet-product", "ghz", "w", "basis", "random"])
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--pairs", default=None, help='pairing like "1:2,3:4"')
    p.add_argument("--lone", type=int, default=None, help="unpaired qubit (odd n)")
    p.add_argument("--index", type=int, default=None, help="basis state by code")
    p.add_argument("--bits", default=None, help="basis state by bit string")
    p.add_argument("--seed", type=_seed, default=0, help="seed for random kinds")
    p.add_argument("--exact", action="store_true",
                   help="rational amplitudes (unnormalized representative)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_generate)

    p = subs.add_parser("verify", help="run randomized property suites")
    p.add_argument("--suite", default="all",
                   help="registered suite name, or all (default)")
    p.add_argument("--qubits", type=int, default=3)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--tol", type=_tol, default=DEFAULT_TOL)
    p.add_argument("--out", default=None, help="also write a JSON report here")
    p.set_defaults(fn=_cmd_verify)

    return parser


#: The parser, built on the first ``main`` call and reused by later calls in
#: the same process (a command line makes only one); ``prog`` is fixed, so
#: the help and usage errors it prints do not depend on when it was built.
_cached_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _cached_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early: send what is still buffered to
        # devnull, so that the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ANALYSIS
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ZeroStateError, InconsistentStructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except MemoryError:
        print("error: out of memory; the state is too large for this command", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
