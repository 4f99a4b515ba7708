"""Command-line front end.

Exit codes: 0 = PFF / success, 2 = usage error, 3 = NOT_PFF, 4 = UNDECIDED,
5 = enumeration budget exceeded, 1 = verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

from . import charsum, pff, verify
from .errors import BudgetExceeded, PffcertError
from .fpoly import FPoly
from .gf import field_for_order
from .sieve import CertifyConfig, certify
from .smallfield import ENGINE_LIMIT, engine_for

EXIT_BY_STATUS = {"PFF": 0, "NOT_PFF": 3, "UNDECIDED": 4}


@dataclass
class RunReport:
    command: str
    parameters: dict
    results: object
    timing_seconds: float
    budgets: dict

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "parameters": self.parameters,
            "results": self.results,
            "timing_seconds": round(self.timing_seconds, 6),
            "budgets": self.budgets,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _emit(args, report: RunReport, human: str) -> None:
    text = report.to_json() if args.json else human
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _budgets(args) -> dict:
    return {"search_budget": args.budget}


def cmd_certify(args) -> int:
    t0 = time.time()
    cert = certify(args.q, args.n, CertifyConfig(search_budget=args.budget))
    report = RunReport("certify", {"q": args.q, "n": args.n},
                       cert.to_json_dict(), time.time() - t0, _budgets(args))
    lines = [f"({args.q},{args.n}): {cert.status}  method={cert.method}"]
    for key, val in cert.numerics.items():
        lines.append(f"  {key} = {val}")
    if cert.witness is not None:
        lines.append(f"  witness: {cert.witness}")
    for note in cert.notes:
        lines.append(f"  note: {note}")
    _emit(args, report, "\n".join(lines))
    return EXIT_BY_STATUS[cert.status]


def cmd_search(args) -> int:
    t0 = time.time()
    mode = "first" if args.first else ("count" if args.count else "all")
    try:
        polys = pff.search_pff(args.q, args.n, mode, budget=args.budget)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 5
    results = {
        "count": len(polys),
        "polynomials": [
            {"q": args.q, "n": args.n, "polynomial": str(f),
             "coefficients": f.serialize(), "verdict": "PFF"}
            for f in polys
        ],
    }
    report = RunReport("search", {"q": args.q, "n": args.n, "mode": mode},
                       results, time.time() - t0, _budgets(args))
    if args.count:
        human = str(len(polys))
    else:
        human = "\n".join(str(f) for f in polys) or "(none)"
    _emit(args, report, human)
    return 0


def cmd_charsum(args) -> int:
    t0 = time.time()
    try:
        eng = engine_for(args.q, args.n)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 5
    eta = charsum.MulChar(eng, args.eta % eng.N)
    if args.sum == "gauss":
        val = charsum.gauss(eta)
    else:
        val = charsum.kloosterman(args.alpha % eng.size, args.beta % eng.size, eta)
    nearest = round(val.re)
    results = {"re": val.re, "im": val.im, "nearest_integer": nearest, "abs": val.abs()}
    report = RunReport("charsum", {"q": args.q, "n": args.n, "sum": args.sum,
                                   "eta": args.eta, "alpha": args.alpha, "beta": args.beta},
                       results, time.time() - t0, _budgets(args))
    human = f"re={val.re:.9f} im={val.im:.9f} nearest={nearest} abs={val.abs():.9f}"
    _emit(args, report, human)
    return 0


def cmd_verify_suite(args) -> int:
    t0 = time.time()
    checks = verify.verify_all(args.section)
    passed = sum(c.ok for c in checks)
    results = [{"section": c.section, "name": c.name, "ok": c.ok, "detail": c.detail}
               for c in checks]
    report = RunReport("verify-suite", {"section": args.section},
                       {"passed": passed, "total": len(checks), "checks": results},
                       time.time() - t0, _budgets(args))
    lines = [f"[{'PASS' if c.ok else 'FAIL'}] {c.section}: {c.name}  {c.detail}"
             for c in checks]
    lines.append(f"{passed}/{len(checks)} checks passed")
    _emit(args, report, "\n".join(lines))
    return 0 if passed == len(checks) else 1


def cmd_verify_poly(args) -> int:
    t0 = time.time()
    F = field_for_order(args.q)
    f = FPoly.make(F, args.coeffs)
    verdict = pff.verify_pff_polynomial(f)
    results = {
        "polynomial": str(f), "coefficients": f.serialize(), "q": args.q, "n": f.degree,
        "is_primitive": verdict.is_primitive, "is_free": verdict.is_free,
        "inverse_free": verdict.inverse_free, "is_pff": verdict.is_pff,
        "witnesses": {k: (str(v) if v is not None else None)
                      for k, v in verdict.witnesses.items()},
    }
    report = RunReport("verify", {"q": args.q, "coeffs": list(args.coeffs)},
                       results, time.time() - t0, _budgets(args))
    human = (f"{f} over GF({args.q}): primitive={verdict.is_primitive} "
             f"free={verdict.is_free} inverse_free={verdict.inverse_free} "
             f"=> {'PFF' if verdict.is_pff else 'not PFF'}")
    _emit(args, report, human)
    return 0 if verdict.is_pff else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pffcert",
        description="Search and certification of primitive free elements "
                    "whose inverses are also free, in GF(q^n) over GF(q).",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--budget", type=int, default=pff.SEARCH_BUDGET,
                        help="cap on q^n for searches; --all/--count are further "
                             f"capped at the engine limit of {ENGINE_LIMIT} elements")
    parser.add_argument("--out", type=str, default=None, help="write the report to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="decide whether (q, n) is a PFF pair")
    p.add_argument("q", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("search", help="list PFF polynomials for (q, n)")
    p.add_argument("q", type=int)
    p.add_argument("n", type=int)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--first", action="store_true", help="stop at the first hit")
    group.add_argument("--all", action="store_true", help="deduplicated complete list")
    group.add_argument("--count", action="store_true", help="print only the count")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("charsum", help="evaluate a Gauss or Kloosterman sum")
    p.add_argument("q", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--sum", choices=("gauss", "kloosterman"), default="gauss")
    p.add_argument("--eta", type=int, default=1, help="character index k")
    p.add_argument("--alpha", type=int, default=1, help="element index")
    p.add_argument("--beta", type=int, default=0, help="element index")
    p.set_defaults(func=cmd_charsum)

    p = sub.add_parser("verify", help="verdict for one polynomial (coefficients low to high)")
    p.add_argument("q", type=int)
    p.add_argument("coeffs", type=int, nargs="+")
    p.set_defaults(func=cmd_verify_poly)

    p = sub.add_parser("verify-suite", help="re-derive the golden reference values")
    p.add_argument("--section", choices=sorted(verify.SECTIONS), default=None)
    p.set_defaults(func=cmd_verify_suite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PffcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
