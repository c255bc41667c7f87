"""The package's public names, including those the benchmark harness imports."""

import coxeter_ehrhart


def test_benchmark_imports_resolve():
    # bench/record_pool.py and bench/child.py import exactly these
    from coxeter_ehrhart import ZonotopeSpec, count_points, ehrhart_almost_integral, rank
    from coxeter_ehrhart.cli import main

    for value in (ZonotopeSpec, count_points, ehrhart_almost_integral, rank, main):
        assert callable(value)


def test_every_public_name_resolves():
    assert len(set(coxeter_ehrhart.__all__)) == len(coxeter_ehrhart.__all__)
    for name in coxeter_ehrhart.__all__:
        assert hasattr(coxeter_ehrhart, name), name
