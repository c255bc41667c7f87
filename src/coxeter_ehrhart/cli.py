"""Command line interface.

Verbs: ``ehrhart`` (quasipolynomial of a permutahedron), ``tables``
(recompute the reference tables), ``zonotope`` (quasipolynomial of a
zonotope file), ``sequences`` (structure counts), ``count`` (lattice points
of one dilate), ``roots`` (positive roots and shift).

One table, ``VERBS``, describes the whole command line: each verb's
handler, summary, positionals and options, with their conversions, choices
and defaults.  ``cmdline.parse`` reads argv against it (long options by
any unique prefix, ``--flag=value`` too), and the usage lines and
``--help`` are printed from it; a usage error prints the verb's usage line
and one ``error:`` line.

Each verb's handler returns its result as a plain dict (keys ``request``,
``provenance``, then whichever of ``period``, ``constituents``,
``evaluations``, ``rows`` and ``notes`` it has) and whether its checks
passed.  ``emit`` prints that one dict in any of three encodings
(``--format human|json|csv``), as deterministic plain text; no ANSI color is
ever emitted, so NO_COLOR is honored trivially.  Exit codes: 0 success (and
agreement in verification modes), 1 verification mismatch, 2 usage error,
3 size guard.
"""

from __future__ import annotations

import sys
from json.encoder import encode_basestring
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .cmdline import EXIT_USAGE, parse
from .egf import SEQUENCE_KINDS, component_counts, egf_ehrhart_quasipolynomial
from .ehrhart import (
    EnumerationLimitError,
    QuasiPolynomial,
    ZonotopeFormatError,
    _readable,
    ehrhart_almost_integral,
    ehrhart_coxeter,
    ehrhart_coxeter_generic,
    load_zonotope_file,
)
from .oracle import (
    SIGNED_STRUCTURE_MAX,
    UNSIGNED_STRUCTURE_MAX,
    _orbit_sum,
    brute_force_structures,
    count_points,
)
from .roots import (
    FAMILIES,
    VARIANTS,
    is_integral,
    positive_roots,
    rank_label,
    root_count_and_rank,
    table_label,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_LIMIT = 3


# Ceilings on the two verbs whose output alone grows without limit, each
# checked before any work (CPython 3.11, one core of an x86-64 Xeon, wall
# time with start-up).  ``sequences`` refuses NMAX above SEQUENCE_BOUND:
# at 2,000 the slowest kinds (pseudotree, signed_pseudotree) take 3.4-4.0 s
# for 6.2-6.8 MB.  ``roots`` refuses when N times the root count, the
# entries it prints, passes ROOT_ENTRY_BOUND: at about 500,000 entries (A100,
# B79, D79) human output takes 0.3 s and 28 MB, JSON 0.35-0.5 s and 39-47 MB,
# and CSV, which streams its rows, 0.9-1.3 s and 24 MB.
SEQUENCE_BOUND = 2000
ROOT_ENTRY_BOUND = 500_000


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


def _flatten(value, prefix: str = "") -> Iterator[Tuple[str, str]]:
    """The (dotted key, text) rows of a document, in document order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _flatten(item, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _flatten(item, f"{prefix}.{i}")
    elif isinstance(value, bool):
        yield prefix, "true" if value else "false"
    else:
        yield prefix, "" if value is None else str(value)


def render_human(doc: Dict) -> str:
    lines: List[str] = []
    req = doc["request"]
    command = req["command"]
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
    if "period" in doc:
        lines.append(f"period: {doc['period']}")
    constituents = doc.get("constituents", ())
    if constituents:
        width = max(len(c["label"]) for c in constituents)
        for c in constituents:
            lines.append(f"  {c['label']:<{width}}  {_polynomial_text(c['coefficients'])}")
    for e in doc.get("evaluations", ()):
        line = f"ehr({e['t']}) = {e['value']}"
        if "oracle" in e:
            line += f"   oracle {e['oracle']}   {'match' if e['match'] else 'MISMATCH'}"
        lines.append(line)
    lines.extend(_render_rows(command, doc.get("rows", ())))
    lines.append(f"route: {doc['provenance']}")
    lines.extend(f"note: {note}" for note in doc.get("notes", ()))
    return "\n".join(lines)


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


def _json_text(value, indent: str = "\n") -> str:
    """The text of ``json.dumps(value, ensure_ascii=False, indent=2)`` for
    the values a document holds (dicts with string keys, lists, strings,
    ints and bools), the value starting at nesting ``indent``.  The standard
    encoder falls back to its pure-Python loop whenever it indents."""
    kind = type(value)
    if kind is str:
        return encode_basestring(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    inner = indent + "  "
    if kind is list:
        if not value:
            return "[]"
        # ints, the bulk of a large answer, are written without a call
        items = [int.__repr__(item) if type(item) is int else _json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if kind is dict:
        if not value:
            return "{}"
        items = [encode_basestring(key) + ": " + _json_text(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"a document holds no {kind.__name__}")


def emit(doc: Dict, fmt: str) -> None:
    if fmt == "json":
        # the bytes of _json_text(doc), written one top-level item at a time,
        # and a list item one entry at a time, so a large answer's text is
        # never held whole
        write = sys.stdout.write
        for i, (key, item) in enumerate(doc.items()):
            write(("{" if i == 0 else ",") + "\n  " + encode_basestring(key) + ": ")
            if type(item) is list and item:
                for j, entry in enumerate(item):
                    write(("[" if j == 0 else ",") + "\n    " + _json_text(entry, "\n    "))
                write("\n  ]")
            else:
                write(_json_text(item, "\n  "))
        write("\n}\n" if doc else "{}\n")
    elif fmt == "csv":
        import csv  # only this encoding needs the module; keep it off start-up

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("key", "value"))
        writer.writerows(_flatten(doc))
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


def _evaluations(qp: QuasiPolynomial, ts, count=None) -> Tuple[List[Dict], bool]:
    """One entry per dilation, with the oracle's ``count(t)`` beside the
    value when a counting function is given; also whether every count
    matched."""
    entries, ok = [], True
    for t in ts:
        entry = {"t": t, "value": qp.evaluate(t)}
        if count is not None:
            entry["oracle"] = count(t)
            entry["match"] = entry["oracle"] == entry["value"]
            ok = ok and entry["match"]
        entries.append(entry)
    return entries, ok


def _quasipolynomial_document(
    request: Dict, provenance: str, qp: QuasiPolynomial, dilations, count=None
) -> Tuple[Dict, bool]:
    """The document of a quasipolynomial with its ``_evaluations`` at the
    dilations; also whether every oracle count matched."""
    ts = sorted(set(dilations or ()))
    if ts:
        request["t"] = ts
    doc = {
        "request": request,
        "provenance": provenance,
        "period": qp.period,
        "constituents": [
            {
                "residue": r,
                "label": residue_name(r, qp.period),
                "coefficients": [str(c) for c in coeffs],
            }
            for r, coeffs in enumerate(qp.constituents)
        ],
    }
    evaluations, ok = _evaluations(qp, ts, count)
    if evaluations:
        doc["evaluations"] = evaluations
    return doc, ok


def cmd_ehrhart(args) -> Tuple[Dict, bool]:
    request = {**_family_request("ehrhart", args), "variant": args.variant, "route": args.route}
    inputs = (args.family, args.n, args.variant)
    name, route = ROUTES[args.route]
    if args.verify:
        partner_name, partner = ROUTES["egf" if args.route == "forest" else "forest"]
        # the generating functions reach every input the census admits, so
        # they run last: past the census reach the request is refused before
        # their work
        if args.route == "egf":
            expected, qp = partner(*inputs), route(*inputs)
        else:
            qp, expected = route(*inputs), partner(*inputs)
    else:
        qp = route(*inputs)
    doc, _ = _quasipolynomial_document(request, f"{name} route", qp, args.t)
    agree = True
    if args.verify:
        agree = expected == qp
        doc["notes"] = [
            f"cross-route check ({name} vs {partner_name}): " + ("agree" if agree else "MISMATCH")
        ]
    return doc, agree


def cmd_tables(args) -> Tuple[Dict, bool]:
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
    return {
        "request": {"command": "tables", "table": args.table},
        "provenance": "forest census route checked against the generating function route",
        "rows": rows,
        "notes": [TABLE_FOOTNOTE, "all rows match" if all_match else "SOME ROWS MISMATCH"],
    }, all_match


def cmd_zonotope(args) -> Tuple[Dict, bool]:
    spec = load_zonotope_file(args.file)
    request = {
        "command": "zonotope",
        "file": args.file,
        "generators": [list(g) for g in spec.generators],
        "shift": [str(s) for s in spec.shift],
    }
    if args.verify and not args.t:
        raise UsageError("--verify needs at least one dilation; pass --t")
    qp = ehrhart_almost_integral(spec)
    count = (lambda t: count_points(spec, t)) if args.verify else None
    doc, ok = _quasipolynomial_document(request, "independent-subset route", qp, args.t, count)
    if args.verify:
        doc["notes"] = ["verification compares against the box-scan oracle"]
    return doc, ok


def cmd_sequences(args) -> Tuple[Dict, bool]:
    if args.nmax > SEQUENCE_BOUND:
        raise EnumerationLimitError(
            f"sequences up to n = {args.nmax} are above the sequence bound of {SEQUENCE_BOUND}"
        )
    values = component_counts(args.kind, args.nmax)
    bound = SIGNED_STRUCTURE_MAX if args.kind.startswith("signed_") else UNSIGNED_STRUCTURE_MAX
    rows = []
    ok = True
    for n in range(1, args.nmax + 1):
        row = {"n": n, "egf": values[n]}
        if n <= bound:
            row["oracle"] = brute_force_structures(args.kind, n)
            row["match"] = row["oracle"] == row["egf"]
            ok = ok and row["match"]
        rows.append(row)
    return {
        "request": {"command": "sequences", "kind": args.kind, "nmax": args.nmax},
        "provenance": "generating function coefficients, with direct enumeration up to the oracle bound",
        "rows": rows,
    }, ok


def cmd_count(args) -> Tuple[Dict, bool]:
    family, n, variant = args.family, args.n, args.variant
    qp = ehrhart_coxeter(family, n, variant)
    count = (lambda t: _orbit_sum(family, n, variant, t)) if args.oracle else None
    evaluations, ok = _evaluations(qp, [args.t], count)
    return {
        "request": {**_family_request("count", args), "variant": variant},
        "provenance": "forest census route" + (" with orbit-sum oracle" if args.oracle else ""),
        "evaluations": evaluations,
    }, ok


def cmd_roots(args) -> Tuple[Dict, bool]:
    entries = args.n * root_count_and_rank(args.family, args.n)[0]
    if entries > ROOT_ENTRY_BOUND:
        raise EnumerationLimitError(
            f"the {args.family}{args.n} roots have {_readable(entries, 'a {}-digit number of')} "
            f"entries, above the root entry bound of {ROOT_ENTRY_BOUND}"
        )
    rs = positive_roots(args.family, args.n)
    return {
        "request": _family_request("roots", args),
        "provenance": "root listing",
        "rows": [{"vector": list(r)} for r in rs.roots],
        "notes": [
            f"{len(rs.roots)} positive root" + ("" if len(rs.roots) == 1 else "s"),
            "shift (" + ", ".join(str(s) for s in rs.shift) + ")",
            "integral" if is_integral(args.family, args.n) else "half-integral (period 2)",
        ],
    }, True


def _positive_int(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError("must be a positive integer")
    return n


# The program's name, the text under its usage and the text closing every
# help (see ``cmdline``).
ABOUT = (
    "coxeter-ehrhart",
    "Exact Ehrhart quasipolynomials of the classical Coxeter permutahedra\n"
    "and of integer zonotopes with rational shifts.",
    "Long options may be shortened to any unique prefix.\n"
    "Exit codes: 0 success, 1 verification mismatch, 2 usage error, 3 size guard.",
)

# The whole command line, one entry per verb, in the form ``cmdline``
# reads: name -> (handler, summary, positionals, options), a positional
# (name, convert, choices, help), an option (flag, arity, convert, choices,
# default, help).
_FORMAT = ("--format", 1, str, ("human", "json", "csv"), "human", "output encoding")
_VERIFY = ("--verify", 0, None, None, False, "cross-check against an independent route")
_DILATIONS = ("--t", "+", _positive_int, None, None, "dilations to evaluate")
_FAMILY = ("family", str.upper, FAMILIES, "root system family, in either case")
_N = ("n", _positive_int, None, "number of ambient coordinates")

VERBS = {
    "ehrhart": (
        cmd_ehrhart,
        "quasipolynomial of a permutahedron",
        (_FAMILY, _N),
        (
            _FORMAT,
            _VERIFY,
            ("--variant", 1, str, VARIANTS, "standard", "permutahedron variant"),
            ("--route", 1, str, tuple(ROUTES), "forest", "route that computes it"),
            _DILATIONS,
        ),
    ),
    "tables": (
        cmd_tables,
        "recompute the reference tables",
        (("table", str, ("table1", "table2"), "reference table"),),
        (_FORMAT,),
    ),
    "zonotope": (
        cmd_zonotope,
        "quasipolynomial of a zonotope file",
        (("file", str, None, "JSON document with 'generators' and optional 'shift'"),),
        (_FORMAT, _VERIFY, _DILATIONS),
    ),
    "sequences": (
        cmd_sequences,
        "labeled structure counts",
        (("kind", str, SEQUENCE_KINDS, "structure kind"), ("nmax", _positive_int, None, "largest n")),
        (_FORMAT,),
    ),
    "count": (
        cmd_count,
        "lattice points of one dilate",
        (_FAMILY, _N),
        (
            _FORMAT,
            ("--t", 1, _positive_int, None, 1, "dilation to count"),
            ("--variant", 1, str, VARIANTS, "standard", "permutahedron variant"),
            ("--oracle", 0, None, None, False, "also count by the orbit-sum oracle"),
        ),
    ),
    "roots": (cmd_roots, "positive roots and shift", (_FAMILY, _N), (_FORMAT,)),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    # print every digit: large counts pass the int-to-str digit limit that
    # Python 3.10.7 and later apply by default (4300 digits)
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is not None:
        set_digits(0)
    args = parse(sys.argv[1:] if argv is None else argv, VERBS, ABOUT)
    try:
        doc, ok = args.handler(args)
    except (UsageError, ZonotopeFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EnumerationLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    emit(doc, args.format)
    return EXIT_OK if ok else EXIT_MISMATCH


def entry() -> None:
    # A reader that closes the pipe early ("| head") ends the program by
    # SIGPIPE, as it ends other filters, or where there is none quietly with
    # status 141: exit 1 stays a verification mismatch.
    import os
    import signal

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the flush at exit
        code = 128 + 13
    sys.exit(code)
