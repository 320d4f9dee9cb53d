"""Command-line interface.

Commands::

    measures --state F [--out F2] [--format json|csv]
    series   --state F [--max-n N] [--out F2] [--format csv|json]
    chsh     --state F --copies N [--out F2]
    certify  --state F --copies N [--out F2]
    verify   [--seed S] [--cases M]

States are JSON files ``{"sectors": {"1": [...], "tau": [...]}}``.
Copy counts (``--copies``, ``--max-n``) run from 1 to 24.  Exit codes:
0 success, 1 validation error, 2 verification-suite failure, 64 usage
error.  Numbers are emitted with fixed precision so identical
inputs and seeds produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .bell import CertificateRefusal, locality_certificate, optimize_chsh
from .errors import ValidationError
from .measures import measure_report
from .multicopy import N_MAX, copy_series, n_copy
from .states import SchmidtState, state_from_dict
from .verify import run_suite

_USAGE_EXIT = 64


class _UsageError(Exception):
    def __init__(self, message: str, usage: str):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message, self.format_usage())


def build_parser() -> _Parser:
    parser = _Parser(prog="fibanyon", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    measures = sub.add_parser("measures", help="entanglement measures of one state")
    _add_state(measures)
    _add_out(measures)
    measures.add_argument("--format", choices=("json", "csv"), default="json")

    series = sub.add_parser("series", help="per-copy measure series as CSV")
    _add_state(series)
    series.add_argument("--max-n", type=_copy_count, default=12, help="largest copy count")
    _add_out(series)
    series.add_argument("--format", choices=("csv", "json"), default="csv")

    chsh = sub.add_parser("chsh", help="closed-form CHSH value of the joint state")
    _add_state(chsh)
    chsh.add_argument("--copies", type=_copy_count, default=1)
    _add_out(chsh)

    certify = sub.add_parser("certify", help="separable certificate of locality")
    _add_state(certify)
    certify.add_argument("--copies", type=_copy_count, default=1)
    _add_out(certify)

    verify = sub.add_parser("verify", help="run the invariant suite")
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--cases", type=_positive_int, default=100, help="random states per check")

    return parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _copy_count(text: str) -> int:
    value = _positive_int(text)
    if value > N_MAX:
        raise argparse.ArgumentTypeError(f"must be at most {N_MAX}, got {text!r}")
    return value


def _add_state(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--state", required=True, metavar="F", help="state JSON file")


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, metavar="F2", help="output path (default stdout)")


def _load_state(path: str) -> SchmidtState:
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read state file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"state file {path!r} is not valid JSON: {exc}") from exc
    return state_from_dict(payload)


def _round12(x: float) -> float:
    return round(float(x), 12)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
                if not text.endswith("\n"):
                    handle.write("\n")
        except OSError as exc:
            raise ValidationError(f"cannot write output file {out!r}: {exc}") from exc


def _json_line(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":"))


def _cmd_measures(args: argparse.Namespace) -> int:
    report = measure_report(_load_state(args.state))
    values = {k: _round12(v) for k, v in report.as_dict().items()}
    if args.format == "json":
        _emit(_json_line(values), args.out)
    else:
        header = ",".join(values)
        row = ",".join(f"{v:.12g}" for v in values.values())
        _emit(f"{header}\n{row}\n", args.out)
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    series = copy_series(_load_state(args.state), args.max_n)
    if args.format == "csv":
        _emit(series.to_csv(), args.out)
    else:
        rows = [
            {
                "n": n,
                "aee": _round12(a),
                "aree": _round12(r),
                "ace": _round12(c),
                "ce": _round12(e),
            }
            for n, a, r, c, e in series.rows
        ]
        _emit(_json_line({"rows": rows}), args.out)
    return 0


def _cmd_chsh(args: argparse.Namespace) -> int:
    result = optimize_chsh(_load_state(args.state), copies=args.copies)
    payload = {
        "value": _round12(result.value),
        "angles": (
            [_round12(a) for a in result.angles] if result.angles is not None else None
        ),
        "copies": result.copies,
        "verdict": result.verdict,
    }
    _emit(_json_line(payload), args.out)
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    joint = n_copy(_load_state(args.state), args.copies)
    outcome = locality_certificate(joint)
    if isinstance(outcome, CertificateRefusal):
        payload = {"local": False, "reason": outcome.reason, "copies": args.copies}
    else:
        terms = []
        for p, left, _ in outcome.mixture.terms:
            charge = left.keys()[0]
            block = left.block(charge)
            index = int(abs(block).diagonal().argmax())
            terms.append({"p": _round12(p), "charge": charge.value, "index": index})
        payload = {
            "local": True,
            "copies": args.copies,
            "terms": terms,
            "reconstruction_residual": _round12(outcome.reconstruction_residual),
        }
    _emit(_json_line(payload), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(seed=args.seed, cases=args.cases)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        sys.stdout.write(f"{status}  {result.name}: {result.detail}\n")
    passed = sum(r.passed for r in results)
    sys.stdout.write(f"{passed}/{len(results)} checks passed\n")
    return 0 if passed == len(results) else 2


_DISPATCH = {
    "measures": _cmd_measures,
    "series": _cmd_series,
    "chsh": _cmd_chsh,
    "certify": _cmd_certify,
    "verify": _cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(exc.usage)
        sys.stderr.write(f"error: {exc}\n")
        return _USAGE_EXIT
    if args.command is None:
        sys.stderr.write(parser.format_usage())
        return _USAGE_EXIT
    try:
        return _DISPATCH[args.command](args)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
