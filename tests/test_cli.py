"""End-to-end tests of the command line interface."""

import csv
import functools
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from coxeter_ehrhart import cli
from coxeter_ehrhart.cli import _polynomial_text, main
from coxeter_ehrhart.egf import COORDINATE_BOUND, PARITY_BOUND
from coxeter_ehrhart.ehrhart import PERIOD_BOUND, coxeter_zonotope, ehrhart_coxeter


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_format_polynomial():
    assert _polynomial_text(["1", "4", "7"]) == "1 + 4t + 7t²"
    assert _polynomial_text(["0", "2", "7"]) == "2t + 7t²"
    assert _polynomial_text(["0", "0", "0"]) == "0"
    assert _polynomial_text(["1", "1", "0", "16"]) == "1 + t + 16t³"
    assert _polynomial_text(["0"] * 10 + ["3"]) == "3t¹⁰"


def test_ehrhart_human_output(capsys):
    code, out = run(capsys, ["ehrhart", "B", "2", "--t", "1", "3"])
    assert code == 0
    assert "period: 2" in out
    assert "1 + 4t + 7t²" in out
    assert "2t + 7t²" in out
    assert "ehr(1) = 9" in out
    assert "ehr(3) = 69" in out


def test_ehrhart_integral_variant(capsys):
    code, out = run(capsys, ["ehrhart", "B", "3", "--variant", "integral"])
    assert code == 0
    assert "1 + 9t + 39t² + 87t³" in out
    assert "period: 1" in out


def test_ehrhart_point_polytope(capsys):
    # a single coordinate has no roots at all: the polytope is one point
    code, out = run(capsys, ["ehrhart", "A", "1", "--t", "5"])
    assert code == 0
    assert "all t  1" in out
    assert "ehr(5) = 1" in out


def test_ehrhart_json_round_trip(capsys):
    code, out = run(capsys, ["ehrhart", "D", "3", "--format", "json", "--t", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["period"] == 1
    assert data["constituents"][0]["coefficients"] == ["1", "6", "18", "32"]
    assert data["evaluations"] == [{"t": 2, "value": 341}]


def test_csv_format(capsys):
    code, out = run(capsys, ["ehrhart", "A", "2", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert "request.family,A" in lines
    assert "constituents.0.coefficients.0,1" in lines


@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
def test_a_closed_pipe_is_not_a_failed_check(fmt):
    # more output than a pipe buffer holds, so the writer meets the closed
    # end; exit 1 would read as a verification mismatch
    src = str(Path(cli.__file__).resolve().parents[1])
    child = subprocess.Popen(
        [sys.executable, "-m", "coxeter_ehrhart", "roots", "B", "60", "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert child.stdout.read(16)
    child.stdout.close()
    stderr = child.stderr.read()
    child.wait()
    child.stderr.close()
    assert b"Traceback" not in stderr, stderr
    assert child.returncode != 1
    if hasattr(signal, "SIGPIPE"):
        assert child.returncode == -signal.SIGPIPE


def test_import_loads_only_what_every_request_runs():
    # a fresh interpreter: the value classes need no dataclasses (and so no
    # inspect), csv loads with the one format that writes it, and serving a
    # request needs no argparse (nor the gettext and locale it loads)
    src = str(Path(cli.__file__).resolve().parents[1])
    program = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import coxeter_ehrhart.cli as cli\n"
        "print(*[m in sys.modules for m in ('dataclasses', 'inspect', 'csv')])\n"
        "cli.main(['roots', 'B', '1', '--format', 'csv'])\n"
        "print(*[m in sys.modules for m in ('csv', 'argparse', 'gettext', 'locale')])\n"
    )
    done = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == [
        "False False False",
        "key,value",
        "request.command,roots",
        "request.family,B",
        "request.coordinates,1",
        "request.rank_label,B_1",
        "request.table_label,B_1",
        "provenance,root listing",
        "rows.0.vector.0,1",
        "notes.0,1 positive root",
        "notes.1,shift (1/2)",
        "notes.2,half-integral (period 2)",
        "True False False False",
    ]


def _flattened(value, prefix=""):
    """The (key, value) rows of a JSON document, dotted paths as keys."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    elif isinstance(value, bool):
        return [[prefix, "true" if value else "false"]]
    else:
        return [[prefix, "" if value is None else str(value)]]
    paths = ((f"{prefix}.{key}" if prefix else str(key), item) for key, item in items)
    return [row for path, item in paths for row in _flattened(item, path)]


@pytest.mark.parametrize(
    "argv",
    [
        ["ehrhart", "B", "3", "--t", "1", "2", "--verify"],
        ["tables", "table2"],
        ["zonotope", "{file}", "--t", "1", "2", "--verify"],
        ["sequences", "signed_tree", "4"],
        ["count", "C", "2", "--t", "2", "--oracle"],
        ["roots", "D", "1"],
    ],
)
def test_every_format_encodes_one_document(tmp_path, capsys, argv):
    path = tmp_path / "z.json"
    path.write_text('{"generators": [[1, 0], [0, 1], [1, 1]], "shift": ["1/2", 0]}')
    argv = [str(path) if arg == "{file}" else arg for arg in argv]
    outputs = {}
    for fmt in ("human", "json", "csv"):
        code, outputs[fmt] = run(capsys, argv + ["--format", fmt])
        assert code == 0, fmt
    data = json.loads(outputs["json"])
    assert outputs["json"] == json.dumps(data, ensure_ascii=False, indent=2) + "\n"
    assert list(data)[:2] == ["request", "provenance"]
    if argv[0] == "roots":
        assert data["rows"] == []  # rows are printed even when there are none
    assert outputs["csv"].endswith("\n")
    assert list(csv.reader(io.StringIO(outputs["csv"]))) == [["key", "value"], *_flattened(data)]
    lines = outputs["human"].splitlines()
    assert [line for line in lines if line.startswith("route: ")] == [f"route: {data['provenance']}"]
    notes = [line for line in lines if line.startswith("note: ")]
    assert notes == [f"note: {note}" for note in data.get("notes", [])]


def test_json_text_writes_the_bytes_of_the_standard_encoder():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    huge = 7**1500  # 1,268 digits
    scalars = st.text() | st.booleans() | st.integers() | st.integers(-huge, huge)
    documents = st.recursive(
        scalars, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4)
    )

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(documents)
    @hypothesis.example({"é ☃": ['"quoted" \\ \u00e9', "\x00\x1f\n\t\u2028", -huge, huge, True, False, 0]})
    @hypothesis.example([[], {}, [[]], {"": {"": []}}, ""])
    def check(value):
        assert cli._json_text(value) == json.dumps(value, ensure_ascii=False, indent=2)

    check()
    for value in (1.5, None, (1, 2), {1: "int key"}, [b"bytes"]):
        with pytest.raises(TypeError):
            cli._json_text(value)


def test_json_emit_writes_the_bytes_of_json_text(capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    scalars = st.text() | st.booleans() | st.integers()
    values = st.recursive(
        scalars, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4)
    )

    # emit writes a top-level list one entry at a time, so lists are drawn often
    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.dictionaries(st.text(), values | st.lists(values, max_size=4), max_size=4))
    @hypothesis.example({})
    @hypothesis.example({"rows": [], "notes": [[], {}, [1, [2]]], "": {"": [3]}})
    def check(doc):
        capsys.readouterr()
        cli.emit(doc, "json")
        assert capsys.readouterr().out == cli._json_text(doc) + "\n"

    check()


def test_output_is_deterministic(capsys):
    for fmt in ("human", "json", "csv"):
        argv = ["ehrhart", "C", "3", "--format", fmt, "--t", "1", "2"]
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first == second


def test_ehrhart_route_agreement_flag(capsys):
    code, out = run(capsys, ["ehrhart", "B", "3", "--route", "generic", "--verify"])
    assert code == 0
    assert "agree" in out


def test_ehrhart_forest_verify_checks_the_generating_functions(capsys):
    # A12 is past the walk bound of the independent-subset walk
    for argv in (["ehrhart", "B", "3", "--verify"], ["ehrhart", "A", "12", "--verify"]):
        code, out = run(capsys, argv)
        assert code == 0
        assert "cross-route check (forest census vs generating function): agree" in out


def test_ehrhart_egf_route(capsys):
    code, out = run(capsys, ["ehrhart", "B", "2", "--route", "egf", "--t", "1", "3", "--verify"])
    assert code == 0
    assert "period: 2" in out
    assert "1 + 4t + 7t²" in out
    assert "2t + 7t²" in out
    assert "ehr(3) = 69" in out
    assert "cross-route check (generating function vs forest census): agree" in out


@pytest.mark.parametrize("route", ["egf", "forest"])
def test_verify_runs_the_census_before_the_generating_functions(monkeypatch, capsys, route):
    # past the census reach (here a lowered merge bound) the census refuses
    # before the generating-function route starts, whichever route was chosen
    monkeypatch.setattr("coxeter_ehrhart.ehrhart.MERGE_BOUND", 10)

    def no_work(*args):
        raise AssertionError("the generating functions ran before the census refused")

    monkeypatch.setitem(cli.ROUTES, "egf", ("generating function", no_work))
    assert main(["ehrhart", "C", "6", "--route", route, "--verify"]) == 3
    assert "above the merge bound of 10" in capsys.readouterr().err


def test_ehrhart_egf_without_dilations_prints_constituents(capsys):
    code, out = run(capsys, ["ehrhart", "B", "40", "--route", "egf", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["period"] == 2
    assert [c["label"] for c in data["constituents"]] == ["t even", "t odd"]
    assert all(len(c["coefficients"]) == 41 for c in data["constituents"])
    assert "evaluations" not in data


def test_ehrhart_egf_without_enough_points_reports_values(capsys):
    code, out = run(capsys, ["ehrhart", "B", "2", "--route", "egf", "--t", "2"])
    assert code == 0
    assert "ehr(2) = 37" in out
    assert "period: 2" in out
    assert "2t + 7t²" in out
    assert "interpolated" not in out


def test_census_limit_exit_code(capsys):
    # B16 is the last B under the merge bound; B17 passes it at its last vertex
    code = main(["ehrhart", "B", "17"])
    assert code == 3
    assert "merge bound" in capsys.readouterr().err


def test_size_guards_exit_code(tmp_path, capsys):
    path = tmp_path / "z.json"
    path.write_text(json.dumps({"generators": [[1, 0], [0, 1]], "shift": [f"1/{PERIOD_BOUND + 1}", 0]}))
    # 25 directions of Z^8: the box scan's last level would try C(25, 7) subsets
    units = tmp_path / "units.json"
    units.write_text(
        json.dumps({"generators": [[int(i == j % 8) + j // 8 * int(i == (j + 1) % 8) for i in range(8)] for j in range(25)]})
    )
    for argv, message in (
        (["ehrhart", "A", str(COORDINATE_BOUND + 1), "--route", "egf"], "coordinate bound"),
        (["ehrhart", "B", str(PARITY_BOUND + 1), "--route", "egf"], "parity bound"),
        (["sequences", "signed_pseudotree", str(cli.SEQUENCE_BOUND + 1)], "sequence bound"),
        (["roots", "A", "101"], "the A101 roots have 510050 entries, above the root entry bound"),
        (["zonotope", str(path)], "period bound"),
        (["zonotope", str(units), "--t", "1", "--verify"], "480700 generator subsets, above the facet bound"),
        (["ehrhart", "A", "200", "--route", "generic"], "the A200 roots have 3980000 entries, above the root entry bound"),
    ):
        assert main(argv) == 3
        assert message in capsys.readouterr().err


def test_output_guards_admit_their_bound_and_refuse_before_any_work(monkeypatch, capsys):
    # lowered bounds: B3 has 3 x 9 entries, A4 4 x 6 and D4 4 x 12
    monkeypatch.setattr(cli, "SEQUENCE_BOUND", 5)
    monkeypatch.setattr("coxeter_ehrhart.ehrhart.ROOT_ENTRY_BOUND", 27)
    assert main(["sequences", "tree", "5"]) == 0
    assert main(["roots", "B", "3"]) == 0
    assert main(["roots", "A", "4"]) == 0
    capsys.readouterr()

    def no_work(*args):
        raise AssertionError("a refused request did some work")

    monkeypatch.setattr(cli, "component_counts", no_work)
    monkeypatch.setattr("coxeter_ehrhart.ehrhart.positive_roots", no_work)
    for argv, message in (
        (["sequences", "tree", "6"], "sequences up to n = 6 are above the sequence bound of 5"),
        (["roots", "B", "4"], "the B4 roots have 64 entries, above the root entry bound of 27"),
        (["roots", "D", "4"], "the D4 roots have 48 entries, above the root entry bound of 27"),
    ):
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {message}\n"


def test_every_route_rejects_an_unknown_variant():
    messages = set()
    orbit_sum = functools.partial(cli._orbit_sum, t=1)
    for route in [route for _, route in cli.ROUTES.values()] + [coxeter_zonotope, orbit_sum]:
        with pytest.raises(ValueError) as err:
            route("B", 2, "bogus")
        messages.add(str(err.value))
    assert messages == {"unknown variant 'bogus'; expected one of ('standard', 'integral')"}


def test_tables_pass(capsys):
    for table in ("table1", "table2"):
        code, out = run(capsys, ["tables", table])
        assert code == 0
        assert "MISMATCH" not in out
        assert "all rows match" in out


def test_tables_catch_disagreement(capsys, monkeypatch):
    broken = (("A_1", "A", 1, (1, 5)),) + cli.TABLE1[1:]
    monkeypatch.setattr(cli, "TABLE1", broken)
    code, out = run(capsys, ["tables", "table1"])
    assert code == 1
    assert "MISMATCH" in out


@pytest.mark.parametrize("table, label", [("table1", "C_3"), ("table2", "B_3")])
def test_tables_catch_egf_disagreement(capsys, monkeypatch, table, label):
    real = cli.egf_ehrhart_quasipolynomial

    def skewed(family, n, variant):
        qp = real(family, n, variant)
        if f"{family}_{n}" != label:
            return qp
        return type(qp).from_residue_polys([c[:-1] + (c[-1] + 1,) for c in qp.constituents])

    monkeypatch.setattr(cli, "egf_ehrhart_quasipolynomial", skewed)
    code, out = run(capsys, ["tables", table, "--format", "json"])
    assert code == 1
    rows = {row["label"]: row["match"] for row in json.loads(out)["rows"]}
    assert [name for name, match in rows.items() if not match] == [label]


def test_zonotope_command(tmp_path, capsys):
    path = tmp_path / "z.json"
    path.write_text('{"generators": [[1, 0], [0, 1], [1, 1]], "shift": ["1/2", 0]}')
    code, out = run(capsys, ["zonotope", str(path), "--t", "1", "2", "--verify"])
    assert code == 0
    assert "period: 2" in out
    assert "ehr(1) = 4   oracle 4   match" in out


def test_zonotope_shift_is_reduced_on_read(tmp_path, capsys):
    path = tmp_path / "z.json"
    path.write_text('{"generators": [[1, 0, 0]], "shift": ["2/4", 3, "1/2"]}')
    code, out = run(capsys, ["zonotope", str(path), "--format", "json"])
    assert code == 0
    assert json.loads(out)["request"]["shift"] == ["1/2", "3", "1/2"]
    # a sign and a string integer are part of the p/q spelling
    path.write_text('{"generators": [[1, 0, 0]], "shift": ["-2/4", "+3", "-07"]}')
    code, out = run(capsys, ["zonotope", str(path), "--format", "json"])
    assert code == 0
    assert json.loads(out)["request"]["shift"] == ["-1/2", "3", "-7"]


def test_zonotope_period_three_labels_its_residues(tmp_path, capsys):
    path = tmp_path / "third.json"
    path.write_text('{"generators": [[1, 0], [0, 1]], "shift": ["1/3", 0]}')
    labels = ["t ≡ 0 (mod 3)", "t ≡ 1 (mod 3)", "t ≡ 2 (mod 3)"]
    code, out = run(capsys, ["zonotope", str(path)])
    assert code == 0
    for label, polynomial in zip(labels, ("1 + 2t + t²", "t + t²", "t + t²")):
        assert f"  {label}  {polynomial}\n" in out
    code, out = run(capsys, ["zonotope", str(path), "--format", "json"])
    assert code == 0
    assert [row["label"] for row in json.loads(out)["constituents"]] == labels


def test_zonotope_shifted_unit_segment(tmp_path, capsys):
    path = tmp_path / "segment.json"
    path.write_text('{"generators": [[1]], "shift": ["1/2"]}')
    code, out = run(capsys, ["zonotope", str(path), "--t", "1", "2", "--verify"])
    assert code == 0
    assert "1 + t" in out  # even dilations
    assert "ehr(1) = 1" in out
    assert "ehr(2) = 3" in out


def test_zonotope_verifies_a_line_of_more_points_than_a_c_size(tmp_path, capsys):
    # the box scan counts its last level's progression arithmetically, so a
    # line past sys.maxsize points is counted, not an OverflowError
    path = tmp_path / "segment.json"
    path.write_text('{"generators": [[3]], "shift": ["1/2"]}')
    code, out = run(capsys, ["zonotope", str(path), "--t", "100000000000000000000", "--verify"])
    assert code == 0
    assert "ehr(100000000000000000000) = 300000000000000000001   oracle 300000000000000000001   match" in out


def test_zonotope_rank_two_examples(tmp_path, capsys):
    # the rank-two permutahedron of the fourth family, via a plain file
    path = tmp_path / "d2.json"
    path.write_text('{"generators": [[1, -1], [1, 1]]}')
    code, out = run(capsys, ["zonotope", str(path), "--t", "1", "--verify"])
    assert code == 0
    assert "1 + 2t + 2t²" in out
    assert "ehr(1) = 5" in out


def test_zonotope_verify_mismatch_exit(tmp_path, capsys, monkeypatch):
    path = tmp_path / "z.json"
    path.write_text('{"generators": [[1, 0]]}')
    monkeypatch.setattr(cli, "count_points", lambda spec, t: 999)
    code, out = run(capsys, ["zonotope", str(path), "--t", "1", "--verify"])
    assert code == 1
    assert "MISMATCH" in out


def test_zonotope_bad_file_exit(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{")
    assert main(["zonotope", str(path)]) == 2
    assert main(["zonotope", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    # a directory, bytes that are not UTF-8, and nesting past the recursion limit
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    for target in (tmp_path, binary, deep):
        assert main(["zonotope", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "document, message",
    [
        ('{"generators": [[true, 0], [0, 1]]}', "generators[0]"),
        ('{"generators": [[1.0, 0], [0, 1]]}', "generators[0]"),
        ('{"generators": [[1, 0]], "shift": ["1/0", 0]}', "shift[0]: zero denominator"),
        # Fraction reads these strings too, but a shift entry is an integer or p/q
        ('{"generators": [[1, 0]], "shift": ["0.5", 0]}', "shift[0]: expected an integer or a 'p/q' string"),
        ('{"generators": [[1, 0]], "shift": [0, "1e2"]}', "shift[1]: expected an integer or a 'p/q' string"),
        ('{"generators": [[1, 0]], "shift": [" 1/2", 0]}', "shift[0]: expected an integer or a 'p/q' string"),
        ('{"generators": [[1, 0]], "shift": ["1_000/3", 0]}', "shift[0]: expected an integer or a 'p/q' string"),
        ('{"generators": [[1, 0]], "shift": [0.5, 0]}', "shift[0]: expected an integer or a 'p/q' string"),
    ],
)
def test_zonotope_rejects_non_integer_entries(tmp_path, capsys, document, message):
    path = tmp_path / "z.json"
    path.write_text(document)
    assert main(["zonotope", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_zonotope_verify_requires_dilations(tmp_path):
    path = tmp_path / "z.json"
    path.write_text('{"generators": [[1, 0]]}')
    assert main(["zonotope", str(path), "--verify"]) == 2


def test_sequences_command(capsys):
    code, out = run(capsys, ["sequences", "signed_tree", "5", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    values = [row["egf"] for row in data["rows"]]
    assert values == [1, 2, 12, 128, 2000]
    assert all(row["match"] for row in data["rows"] if "match" in row)


def test_sequences_print_counts_past_the_digit_limit(capsys):
    # 1500**1498 has 4,758 digits, past the 4,300 that Python converts by default
    code, out = run(capsys, ["sequences", "tree", "1500", "--format", "json"])
    assert code == 0
    # main gives the caller its digit limit back, so reading the answer here lifts it too
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        assert json.loads(out)["rows"][-1]["egf"] == 1500**1498
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_main_gives_the_int_digit_limit_back():
    # main lifts the limit only while it parses and prints, on every way out
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert main(["ehrhart", "B", "2"]) == 0
        assert sys.get_int_max_str_digits() == 4300
        with pytest.raises(ValueError, match="limit"):
            int("1" * 5000)
        assert main(["ehrhart", "B", "20"]) == 3
        assert sys.get_int_max_str_digits() == 4300
        for argv in (["nonsense"], ["ehrhart", "--help"]):
            with pytest.raises(SystemExit):
                main(argv)
            assert sys.get_int_max_str_digits() == 4300
        # a caller that has lifted the limit keeps it lifted
        sys.set_int_max_str_digits(0)
        assert main(["ehrhart", "B", "2"]) == 0
        assert sys.get_int_max_str_digits() == 0
    finally:
        sys.set_int_max_str_digits(limit)


def test_order_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as err:
        main(["sequences", "tree", "5", "--order", "3"])
    assert err.value.code == 2
    assert "--order" in capsys.readouterr().err


def test_count_command(capsys):
    code, out = run(capsys, ["count", "C", "2", "--t", "3", "--oracle"])
    assert code == 0
    assert "ehr(3) = 145" in out
    assert "match" in out


@pytest.mark.parametrize("family, n, variant, t", [("A", 9, "standard", 1), ("D", 7, "integral", 2)])
def test_count_oracle_reaches_past_the_box_scan(capsys, family, n, variant, t):
    # the box scan's facet bound refuses these; the orbit sum takes milliseconds
    code, out = run(capsys, ["count", family, str(n), "--t", str(t), "--variant", variant, "--oracle"])
    value = ehrhart_coxeter(family, n, variant).evaluate(t)
    assert code == 0
    lines = out.splitlines()
    assert f"ehr({t}) = {value}   oracle {value}   match" in lines
    assert "route: forest census route with orbit-sum oracle" in lines


def test_count_oracle_mismatch_exit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_orbit_sum", lambda family, n, variant, t: 999)
    code, out = run(capsys, ["count", "C", "2", "--t", "3", "--oracle"])
    assert code == 1
    assert "ehr(3) = 145   oracle 999   MISMATCH" in out


def test_count_oracle_guard_exit(capsys):
    # the orbit sum counts its work as it runs, so a huge dilation is
    # refused after about ORBIT_BOUND steps, not after the whole sum
    start = time.perf_counter()
    code = main(["count", "A", "3", "--t", "100000000", "--oracle"])
    elapsed = time.perf_counter() - start
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "orbit bound" in err
    assert elapsed < 2, elapsed


@pytest.mark.parametrize(
    "argv",
    [
        ["tables", "table1", "--verify"],
        ["tables", "table1", "--max-box", "5"],
        ["roots", "B", "2", "--verify"],
        ["roots", "B", "2", "--max-box", "5"],
        ["sequences", "tree", "4", "--verify"],
        ["sequences", "tree", "4", "--max-box", "5"],
        ["ehrhart", "B", "2", "--max-box", "5"],
        ["count", "B", "2", "--verify"],
        ["zonotope", "{file}", "--t", "2", "--verify", "--max-box", "5"],
        ["count", "B", "2", "--oracle", "--max-box", "5"],
    ],
)
def test_flags_only_on_verbs_that_read_them(tmp_path, capsys, argv):
    path = tmp_path / "z.json"
    path.write_text(json.dumps({"generators": [[1, 0], [0, 1]]}))
    with pytest.raises(SystemExit) as err:
        main([str(path) if arg == "{file}" else arg for arg in argv])
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_roots_command(capsys):
    code, out = run(capsys, ["roots", "D", "3", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 6
    assert {"vector": [1, -1, 0]} in data["rows"]


def test_lowercase_family_accepted(capsys):
    code, out = run(capsys, ["roots", "b", "1"])
    assert code == 0
    assert "B_1" in out


def test_invalid_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["nonsense"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["ehrhart", "A", "x"],
        ["count", "A", "3", "--t", "1.5"],
        ["sequences", "tree", "0"],
        ["ehrhart", "B", "2", "--t", "-1"],
        ["ehrhart", "B", "2", "--t", "2", "1.5"],
        ["zonotope", "z.json", "--t=0"],
    ],
)
def test_non_positive_integer_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert "must be a positive integer" in message
    assert "_positive_int" not in message


@pytest.mark.parametrize(
    "argv",
    [
        ["ehrhart", "A", "1_0"],
        ["count", "B", "2", "--t", "1_0"],
        ["ehrhart", "A", " 4"],
        ["ehrhart", "A", "4 "],
        ["ehrhart", "A", "\u0664"],  # ARABIC-INDIC DIGIT FOUR
        ["sequences", "tree", "4/1"],
    ],
)
def test_integers_are_read_as_a_zonotope_file_reads_them(capsys, argv):
    # only a sign and ASCII digits, the integer spellings of a shift entry
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err


def test_signed_and_zero_padded_integers_are_read(capsys):
    assert run(capsys, ["ehrhart", "A", "+04"]) == run(capsys, ["ehrhart", "A", "4"])


def test_invalid_family_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["ehrhart", "E", "3"])
    assert err.value.code == 2
    capsys.readouterr()


def test_entry_point_exits_cleanly(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["coxeter-ehrhart", "roots", "A", "2"])
    with pytest.raises(SystemExit) as err:
        cli.entry()
    assert err.value.code == 0
    capsys.readouterr()


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, code, phrase",
    [
        (["ehrhart", "B"], 2, "the following arguments are required: n"),
        (["tables"], 2, "the following arguments are required: table"),
        (["ehrhart", "B", "3", "--route", "EGF"], 2, "argument --route: invalid choice: 'EGF'"),
        (["sequences", "Tree", "3"], 2, "argument kind: invalid choice: 'Tree'"),
        (["roots", "B", "2", "--format", "xml"], 2, "argument --format: invalid choice: 'xml'"),
        (["ehrhart", "B", "2", "--t"], 2, "argument --t: expected at least one argument"),
        (["zonotope", "z.json", "--t", "--verify"], 2, "argument --t: expected at least one argument"),
        (["count", "B", "2", "--t"], 2, "argument --t: expected one argument"),
        (["count", "B", "2", "--t", "1", "2"], 2, "unrecognized arguments: 2"),
        (["ehrhart", "B", "2", "--v", "integral"], 2, "ambiguous option: --v could match --verify, --variant"),
        (["ehrhart", "B", "2", "--verify=yes"], 2, "argument --verify: ignored explicit argument 'yes'"),
        (["nonsense"], 2, "invalid verb: 'nonsense'"),
        ([], 2, "the following arguments are required: command"),
        (["ehrhart", "B", "2", "--format=json"], 0, None),
        (["ehrhart", "B", "2", "--var", "integral"], 0, None),
        (["count", "B", "2", "--v", "integral", "--o"], 0, None),
    ],
)
def test_command_line_is_read_from_the_verb_table(capsys, argv, code, phrase):
    assert _exit_code(argv) == code
    err = capsys.readouterr().err
    if phrase is None:
        assert err == ""
        return
    # the verb's usage line (or the program's), then one error line
    usage, error = err.splitlines()
    verb = argv[0] if argv and argv[0] in cli.VERBS else None
    assert usage.startswith("usage: coxeter-ehrhart " + (f"{verb} [-h]" if verb else "[-h]"))
    assert error.startswith("error: ") and phrase in error


@pytest.mark.parametrize(
    "argv, spelled",
    [
        (["ehrhart", "B", "2", "--format", "json"], ["ehrhart", "B", "2", "--format=json"]),
        (["ehrhart", "B", "3", "--variant", "integral"], ["ehrhart", "B", "3", "--var", "integral"]),
        (["ehrhart", "B", "3", "--route", "egf", "--t", "2", "3"], ["ehrhart", "B", "3", "--rou=egf", "--t", "2", "3"]),
        (["count", "C", "2", "--t", "3", "--oracle"], ["count", "C", "2", "--t=3", "--or"]),
        (["zonotope", "{file}", "--t", "1", "2", "--verify"], ["zonotope", "--t", "1", "2", "--verif", "--", "{file}"]),
    ],
)
def test_flag_spellings_read_alike(tmp_path, capsys, argv, spelled):
    path = tmp_path / "z.json"
    path.write_text('{"generators": [[1, 0], [0, 1]], "shift": ["1/2", 0]}')
    outputs = []
    for words in (argv, spelled):
        assert main([str(path) if word == "{file}" else word for word in words]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
@pytest.mark.parametrize("verb", [None, *cli.VERBS])
def test_help_names_every_verb_and_option(capsys, verb, flag):
    assert _exit_code([flag] if verb is None else [verb, flag]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith("usage: coxeter-ehrhart " + (f"{verb} [-h]" if verb else "[-h]"))
    if verb is None:
        words = [word for name, entry in cli.VERBS.items() for word in (name, entry[1])]
    else:
        _, summary, positionals, options = cli.VERBS[verb]
        words = [summary, "--help", *(p[3] for p in positionals), *(o[0] for o in options)]
    assert [word for word in words if word not in out] == []
    assert "Exit codes: 0 success, 1 verification mismatch, 2 usage error, 3 size guard." in out
