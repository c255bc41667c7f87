"""The package's public names, including those the benchmark harness imports."""

import coxeter_ehrhart


def test_benchmark_imports_resolve():
    # bench/record_pool.py and bench/child.py import exactly these
    from coxeter_ehrhart import ZonotopeSpec, count_points, ehrhart_almost_integral, rank
    from coxeter_ehrhart.cli import main

    for value in (ZonotopeSpec, count_points, ehrhart_almost_integral, rank, main):
        assert callable(value)


def test_public_names():
    assert sorted(coxeter_ehrhart.__all__) == [
        "EnumerationLimitError",
        "FAMILIES",
        "PositiveRootSet",
        "QuasiPolynomial",
        "SEQUENCE_KINDS",
        "ZonotopeFormatError",
        "ZonotopeSpec",
        "brute_force_structures",
        "component_counts",
        "count_points",
        "coxeter_zonotope",
        "egf_ehrhart_quasipolynomial",
        "ehrhart_almost_integral",
        "ehrhart_coxeter",
        "int_vector",
        "is_integral",
        "load_zonotope_file",
        "parse_zonotope_document",
        "positive_roots",
        "rank",
        "rank_label",
        "rat_vector",
        "standard_shift",
        "table_label",
    ]


def test_every_public_name_resolves():
    assert len(set(coxeter_ehrhart.__all__)) == len(coxeter_ehrhart.__all__)
    for name in coxeter_ehrhart.__all__:
        assert hasattr(coxeter_ehrhart, name), name
