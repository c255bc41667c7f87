"""Command line interface.

Verbs: ``ehrhart`` (quasipolynomial of a permutahedron), ``tables``
(recompute the reference tables), ``zonotope`` (quasipolynomial of a
zonotope file), ``sequences`` (structure counts), ``count`` (lattice points
of one dilate), ``roots`` (positive roots and shift).

Output is deterministic plain text in one of three encodings of the same
result document (``--format human|json|csv``); no ANSI color is ever
emitted, so NO_COLOR is honored trivially.  Exit codes: 0 success (and
agreement in verification modes), 1 verification mismatch, 2 usage error,
3 size guard.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from collections import namedtuple
from typing import Dict, List, Optional, Sequence, Tuple

from .egf import SEQUENCE_KINDS, egf_ehrhart_quasipolynomial, structure_counts
from .ehrhart import (
    EnumerationLimitError,
    QuasiPolynomial,
    ZonotopeFormatError,
    coxeter_zonotope,
    ehrhart_almost_integral,
    ehrhart_coxeter,
    ehrhart_coxeter_generic,
    load_zonotope_file,
)
from .oracle import (
    SIGNED_STRUCTURE_MAX,
    UNSIGNED_STRUCTURE_MAX,
    brute_force_structures,
    count_points,
)
from .roots import FAMILIES, VARIANTS, is_integral, positive_roots, rank_label, table_label

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


class UsageError(ValueError):
    """Command line combination that cannot be served."""


# Reference rows, labeled by coordinate count (for type A the rank is one
# less than the label index; see the footnote emitted with the tables).
TABLE1 = (
    ("A_1", "A", 1, (1,)),
    ("A_2", "A", 2, (1, 1)),
    ("A_3", "A", 3, (1, 3, 3)),
    ("A_4", "A", 4, (1, 6, 15, 16)),
    ("B_1", "B", 1, (1, 1)),
    ("B_2", "B", 2, (1, 4, 7)),
    ("B_3", "B", 3, (1, 9, 39, 87)),
    ("B_4", "B", 4, (1, 16, 126, 608, 1553)),
    ("C_1", "C", 1, (1, 2)),
    ("C_2", "C", 2, (1, 6, 14)),
    ("C_3", "C", 3, (1, 12, 66, 172)),
    ("C_4", "C", 4, (1, 20, 192, 1080, 3036)),
    ("D_2", "D", 2, (1, 2, 2)),
    ("D_3", "D", 3, (1, 6, 18, 32)),
    ("D_4", "D", 4, (1, 12, 72, 280, 636)),
)

TABLE2 = (
    ("A_2", "A", 2, (1, 1), (0, 1)),
    ("A_4", "A", 4, (1, 6, 15, 16), (0, 0, 3, 16)),
    ("B_1", "B", 1, (1, 1), (0, 1)),
    ("B_2", "B", 2, (1, 4, 7), (0, 2, 7)),
    ("B_3", "B", 3, (1, 9, 39, 87), (0, 0, 6, 87)),
    ("B_4", "B", 4, (1, 16, 126, 608, 1553), (0, 0, 12, 212, 1553)),
)

TABLE_FOOTNOTE = (
    "row labels index every family by coordinate count; for type A the rank "
    "is one less (row A_k is the rank k-1 system on k coordinates)"
)

_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _polynomial_text(coeffs: Sequence[str]) -> str:
    """The polynomial whose ascending coefficients are written (as by
    ``str``) in ``coeffs``."""
    terms = []
    for k, c in enumerate(coeffs):
        if c == "0":
            continue
        if k == 0:
            terms.append(c)
            continue
        power = "t" if k == 1 else "t" + str(k).translate(_SUPERSCRIPTS)
        terms.append(power if c == "1" else f"{c}{power}")
    return " + ".join(terms) if terms else "0"


def residue_name(residue: int, period: int) -> str:
    if period == 1:
        return "all t"
    if period == 2:
        return "t even" if residue == 0 else "t odd"
    return f"t ≡ {residue} (mod {period})"


class ResultDocument(
    namedtuple("ResultDocument", "request provenance period constituents evaluations rows notes")
):
    """One CLI result; all three output formats encode this structure.  The
    fields are fixed once built, but ``notes`` is a list of its own that a
    handler may append to."""

    __slots__ = ()

    def __new__(
        cls,
        request: Dict,
        provenance: str = "",
        period: Optional[int] = None,
        constituents: Optional[List[Dict]] = None,
        evaluations: Optional[List[Dict]] = None,
        rows: Optional[List[Dict]] = None,
        notes: Optional[List[str]] = None,
    ) -> "ResultDocument":
        notes = [] if notes is None else notes
        return super().__new__(cls, request, provenance, period, constituents, evaluations, rows, notes)

    def to_dict(self) -> Dict:
        out: Dict = {"request": self.request, "provenance": self.provenance}
        if self.period is not None:
            out["period"] = self.period
        if self.constituents is not None:
            out["constituents"] = self.constituents
        if self.evaluations is not None:
            out["evaluations"] = self.evaluations
        if self.rows is not None:
            out["rows"] = self.rows
        if self.notes:
            out["notes"] = self.notes
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False, indent=2)

    def to_csv(self) -> str:
        import csv  # only this encoding needs the module; keep it off start-up

        pairs: List[Tuple[str, str]] = []
        _flatten(self.to_dict(), "", pairs)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(("key", "value"))
        writer.writerows(pairs)
        return buffer.getvalue().rstrip("\n")


def _flatten(value, prefix: str, out: List[Tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _flatten(item, f"{prefix}.{i}", out)
    elif isinstance(value, bool):
        out.append((prefix, "true" if value else "false"))
    else:
        out.append((prefix, "" if value is None else str(value)))


def _constituent_payload(period: int, coeff_lists) -> List[Dict]:
    return [
        {
            "residue": r,
            "label": residue_name(r, period),
            "coefficients": [str(c) for c in coeffs],
        }
        for r, coeffs in enumerate(coeff_lists)
    ]


def render_human(doc: ResultDocument) -> str:
    lines: List[str] = []
    req = doc.request
    command = req.get("command", "")
    header = command
    if "family" in req:
        header += f": family {req['family']} on {req['coordinates']} coordinates"
        if req.get("rank_label"):
            header += f" (rank label {req['rank_label']}, table label {req['table_label']})"
    elif "file" in req:
        header += f": {req['file']}"
    elif "table" in req:
        header += f": {req['table']}"
    elif "kind" in req:
        header += f": {req['kind']} up to n = {req['nmax']}"
    lines.append(header)
    extras = [f"{k}: {req[k]}" for k in ("variant", "route") if k in req]
    if extras:
        lines.append("  ".join(extras))
    if doc.period is not None:
        lines.append(f"period: {doc.period}")
    if doc.constituents:
        width = max(len(c["label"]) for c in doc.constituents)
        for c in doc.constituents:
            lines.append(f"  {c['label']:<{width}}  {_polynomial_text(c['coefficients'])}")
    if doc.evaluations:
        for e in doc.evaluations:
            line = f"ehr({e['t']}) = {e['value']}"
            if "oracle" in e:
                line += f"   oracle {e['oracle']}   {'match' if e['match'] else 'MISMATCH'}"
            lines.append(line)
    if doc.rows is not None:
        lines.extend(_render_rows(command, doc.rows))
    lines.append(f"route: {doc.provenance}" if doc.provenance else "")
    for note in doc.notes:
        lines.append(f"note: {note}")
    return "\n".join(line for line in lines if line)


def _render_rows(command: str, rows: List[Dict]) -> List[str]:
    lines = []
    if command == "tables":
        for row in rows:
            status = "match" if row["match"] else "MISMATCH"
            if "computed_even" in row:
                lines.append(
                    f"  {row['label']:<4} even: {_polynomial_text(row['computed_even']):<42}"
                    f" odd: {_polynomial_text(row['computed_odd']):<38} {status}"
                )
            else:
                lines.append(f"  {row['label']:<4} {_polynomial_text(row['computed']):<46} {status}")
    elif command == "sequences":
        for row in rows:
            line = f"  n={row['n']}: {row['egf']}"
            if "oracle" in row:
                line += f"   oracle {row['oracle']}   {'match' if row['match'] else 'MISMATCH'}"
            lines.append(line)
    elif command == "roots":
        for row in rows:
            lines.append("  (" + ", ".join(str(e) for e in row["vector"]) + ")")
    return lines


def emit(doc: ResultDocument, fmt: str) -> None:
    if fmt == "json":
        print(doc.to_json())
    elif fmt == "csv":
        print(doc.to_csv())
    else:
        print(render_human(doc))


# The three permutahedron routes, each a function of (family, n, variant)
# returning the same QuasiPolynomial, with the name the provenance prints.
ROUTES = {
    "forest": ("forest census", ehrhart_coxeter),
    "generic": ("independent-subset", ehrhart_coxeter_generic),
    "egf": ("generating function", egf_ehrhart_quasipolynomial),
}


def _family_request(command: str, args) -> Dict:
    return {
        "command": command,
        "family": args.family,
        "coordinates": args.n,
        "rank_label": rank_label(args.family, args.n),
        "table_label": table_label(args.family, args.n),
    }


def _evaluations(qp: QuasiPolynomial, ts, spec=None) -> Tuple[List[Dict], bool]:
    """One entry per dilation, with the box-scan count beside the value when
    a zonotope is given; also whether every count matched."""
    entries, ok = [], True
    for t in ts:
        entry = {"t": t, "value": qp.evaluate(t)}
        if spec is not None:
            entry["oracle"] = count_points(spec, t)
            entry["match"] = entry["oracle"] == entry["value"]
            ok = ok and entry["match"]
        entries.append(entry)
    return entries, ok


def cmd_ehrhart(args) -> Tuple[ResultDocument, bool]:
    request = {**_family_request("ehrhart", args), "variant": args.variant, "route": args.route}
    ts = sorted(set(args.t)) if args.t else []
    if ts:
        request["t"] = ts
    name, route = ROUTES[args.route]
    qp = route(args.family, args.n, args.variant)
    evaluations, _ = _evaluations(qp, ts)
    doc = ResultDocument(
        request=request,
        provenance=f"{name} route",
        period=qp.period,
        constituents=_constituent_payload(qp.period, qp.constituents),
        evaluations=evaluations or None,
    )
    agree = True
    if args.verify:
        # the generating functions reach every input the census admits
        partner_name, partner = ROUTES["egf" if args.route == "forest" else "forest"]
        agree = partner(args.family, args.n, args.variant) == qp
        doc.notes.append(
            f"cross-route check ({name} vs {partner_name}): " + ("agree" if agree else "MISMATCH")
        )
    return doc, agree


def cmd_tables(args) -> Tuple[ResultDocument, bool]:
    table, variant = (TABLE1, "integral") if args.table == "table1" else (TABLE2, "standard")
    rows = []
    all_match = True
    for label, family, n, *expected in table:
        qp = ehrhart_coxeter(family, n, variant)
        match = (
            qp
            == QuasiPolynomial.from_residue_polys(expected)
            == egf_ehrhart_quasipolynomial(family, n, variant)
        )
        all_match = all_match and match
        # one constituent per residue class: "computed", or "computed_even"/"_odd"
        suffixes = ("",) if len(expected) == 1 else ("_even", "_odd")
        row = {"label": label, "family": family, "coordinates": n}
        for suffix, coeffs in zip(suffixes, qp.constituents):
            row["computed" + suffix] = [str(c) for c in coeffs]
        for suffix, coeffs in zip(suffixes, expected):
            row["expected" + suffix] = [str(c) for c in coeffs]
        row["match"] = match
        rows.append(row)
    doc = ResultDocument(
        request={"command": "tables", "table": args.table},
        provenance="forest census route checked against the generating function route",
        rows=rows,
        notes=[TABLE_FOOTNOTE, "all rows match" if all_match else "SOME ROWS MISMATCH"],
    )
    return doc, all_match


def cmd_zonotope(args) -> Tuple[ResultDocument, bool]:
    spec = load_zonotope_file(args.file)
    request = {
        "command": "zonotope",
        "file": args.file,
        "generators": [list(g) for g in spec.generators],
        "shift": [str(s) for s in spec.shift],
    }
    ts = sorted(set(args.t)) if args.t else []
    if ts:
        request["t"] = ts
    if args.verify and not ts:
        raise UsageError("--verify needs at least one dilation; pass --t")
    qp = ehrhart_almost_integral(spec)
    evaluations, ok = _evaluations(qp, ts, spec if args.verify else None)
    doc = ResultDocument(
        request=request,
        provenance="independent-subset route",
        period=qp.period,
        constituents=_constituent_payload(qp.period, qp.constituents),
        evaluations=evaluations or None,
    )
    if args.verify:
        doc.notes.append("verification compares against the box-scan oracle")
    return doc, ok


def cmd_sequences(args) -> Tuple[ResultDocument, bool]:
    values = structure_counts(args.kind, args.nmax)
    bound = SIGNED_STRUCTURE_MAX if args.kind.startswith("signed_") else UNSIGNED_STRUCTURE_MAX
    rows = []
    ok = True
    for n in range(1, args.nmax + 1):
        row = {"n": n, "egf": values[n - 1]}
        if n <= bound:
            row["oracle"] = brute_force_structures(args.kind, n)
            row["match"] = row["oracle"] == row["egf"]
            ok = ok and row["match"]
        rows.append(row)
    doc = ResultDocument(
        request={"command": "sequences", "kind": args.kind, "nmax": args.nmax},
        provenance="generating function coefficients, with direct enumeration up to the oracle bound",
        rows=rows,
    )
    return doc, ok


def cmd_count(args) -> Tuple[ResultDocument, bool]:
    family, n, variant = args.family, args.n, args.variant
    qp = ehrhart_coxeter(family, n, variant)
    spec = coxeter_zonotope(family, n, variant) if args.oracle else None
    evaluations, ok = _evaluations(qp, [args.t], spec)
    doc = ResultDocument(
        request={**_family_request("count", args), "variant": variant},
        provenance="forest census route" + (" with box-scan oracle" if args.oracle else ""),
        evaluations=evaluations,
    )
    return doc, ok


def cmd_roots(args) -> Tuple[ResultDocument, bool]:
    rs = positive_roots(args.family, args.n)
    doc = ResultDocument(
        request=_family_request("roots", args),
        provenance="root listing",
        rows=[{"vector": list(r)} for r in rs.roots],
        notes=[
            f"{len(rs.roots)} positive root" + ("" if len(rs.roots) == 1 else "s"),
            "shift (" + ", ".join(str(s) for s in rs.shift) + ")",
            "integral" if is_integral(args.family, args.n) else "half-integral (period 2)",
        ],
    )
    return doc, True


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxeter-ehrhart",
        description=(
            "Exact Ehrhart quasipolynomials of the classical Coxeter permutahedra "
            "and of integer zonotopes with rational shifts."
        ),
        epilog="Exit codes: 0 success, 1 verification mismatch, 2 usage error, 3 size guard.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def verb(name: str, summary: str, verify: bool = False):
        """A subparser with ``--format``, plus ``--verify`` where the verb
        reads it, ahead of its own arguments."""
        p = sub.add_parser(name, help=summary)
        p.add_argument(
            "--format", choices=("human", "json", "csv"), default="human", help="output encoding"
        )
        if verify:
            p.add_argument(
                "--verify", action="store_true", help="cross-check against an independent route"
            )
        return p

    pe = verb("ehrhart", "quasipolynomial of a permutahedron", verify=True)
    pe.add_argument("family", type=str.upper, choices=FAMILIES)
    pe.add_argument("n", type=_positive_int, help="number of ambient coordinates")
    pe.add_argument("--variant", choices=VARIANTS, default="standard")
    pe.add_argument("--route", choices=ROUTES, default="forest")
    pe.add_argument("--t", type=_positive_int, nargs="+", help="dilations to evaluate")

    pt = verb("tables", "recompute the reference tables")
    pt.add_argument("table", choices=("table1", "table2"))

    pz = verb("zonotope", "quasipolynomial of a zonotope file", verify=True)
    pz.add_argument("file", help="JSON document with 'generators' and optional 'shift'")
    pz.add_argument("--t", type=_positive_int, nargs="+", help="dilations to evaluate")

    ps = verb("sequences", "labeled structure counts")
    ps.add_argument("kind", choices=SEQUENCE_KINDS)
    ps.add_argument("nmax", type=_positive_int)

    pc = verb("count", "lattice points of one dilate")
    pc.add_argument("family", type=str.upper, choices=FAMILIES)
    pc.add_argument("n", type=_positive_int)
    pc.add_argument("--t", type=_positive_int, default=1)
    pc.add_argument("--variant", choices=VARIANTS, default="standard")
    pc.add_argument("--oracle", action="store_true", help="also run the box-scan oracle")

    pr = verb("roots", "positive roots and shift")
    pr.add_argument("family", type=str.upper, choices=FAMILIES)
    pr.add_argument("n", type=_positive_int)

    return parser


_HANDLERS = {
    "ehrhart": cmd_ehrhart,
    "tables": cmd_tables,
    "zonotope": cmd_zonotope,
    "sequences": cmd_sequences,
    "count": cmd_count,
    "roots": cmd_roots,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    # print every digit: large counts pass the int-to-str digit limit that
    # Python 3.10.7 and later apply by default (4300 digits)
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is not None:
        set_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, ok = _HANDLERS[args.command](args)
    except (UsageError, ZonotopeFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EnumerationLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    emit(doc, args.format)
    return EXIT_OK if ok else EXIT_MISMATCH


def entry() -> None:
    sys.exit(main())
