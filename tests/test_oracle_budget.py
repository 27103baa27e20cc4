"""The oracle's one budget: each meter charges the work brute force does.

`iter_reps` charges p^E x (1 + A + R) before building any point;
`brute_orbit_partition` charges 3 * sum k^3 (+ isqrt(p) when some k > 0)
before building generators, then points x generators before the closure.
"""

import json
import time
from math import isqrt

import pytest

import qloci.oracle
from qloci import BipartiteQuiver, DimensionVector, GuardExceededError, rank_array
from qloci.cli import main
from qloci.oracle import (
    _primitive_root,
    brute_orbit_partition,
    gl_elements,
    gl_generators,
    gl_order,
    iter_reps,
    orbit_partition,
)
from qloci.poset import iter_lace_values


def naive_primitive_root(p):
    """The least g whose powers reach all of F_p^*, by listing them."""
    if p == 2:
        return 1
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = (x * g) % p
            seen.add(x)
        if len(seen) == p - 1:
            return g


def oracle_argv(tmp_path, n, dims, p):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"type": "bipartiteA", "n": n}))
    return ["oracle", "--quiver", str(path), "--dims", ",".join(map(str, dims)), "--p", str(p)]


def run(capsys, argv):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    out = capsys.readouterr()
    return code, out.out, out.err, elapsed


def test_primitive_root_matches_the_naive_search():
    primes = [p for p in range(2, 1000) if all(p % f for f in range(2, isqrt(p) + 1))]
    assert len(primes) == 168
    for p in primes:
        assert _primitive_root(p) == naive_primitive_root(p), p


def test_large_prime_one_point_space_runs_fast(tmp_path, capsys):
    # p - 1 = 2^9 * 3^3 * 5 * 11; the naive root search took 72 x 760,320 steps
    code, out, err, elapsed = run(capsys, oracle_argv(tmp_path, 1, (1, 0, 0), 760321))
    assert code == 0, err
    assert out.startswith("1 orbits over F_760321, sizes [1]")
    assert elapsed < 1.0


@pytest.mark.parametrize("k", [5, 6, 40])
def test_one_point_space_with_a_large_group_runs(tmp_path, capsys, k):
    # |GL_5(F_2)| = 9,999,360 is over the default guard, but there is one point
    argv = oracle_argv(tmp_path, 1, (k, 0, 0), 2) + ["--format", "json"]
    code, out, err, _ = run(capsys, argv)
    assert code == 0, err
    payload = json.loads(out)
    assert [orbit["size"] for orbit in payload["census"]["orbits"]] == [1]
    assert [c["pass"] for c in payload["checks"]] == [True, True]


@pytest.mark.parametrize("n", [8, 10])
def test_bipartite_dims_all_one_refused_before_any_point(tmp_path, capsys, monkeypatch, n):
    def no_point(*args, **kwargs):
        raise AssertionError("a point was built")

    monkeypatch.setattr(qloci.oracle, "Representation", no_point)
    code, _, err, elapsed = run(capsys, oracle_argv(tmp_path, n, (1,) * (2 * n + 1), 2))
    assert code == 3
    # 2n arrows of one 1 x 1 matrix each: 1 + 2n + 2n objects per point
    assert f"2^{2 * n} points x {1 + 4 * n} objects exceed 1048576" in err
    assert elapsed < 1.0


def point_charge(q, dims, p):
    entries = sum(dims[h] * dims[t] for h, t in q.arrows)
    return p**entries * (1 + len(q.arrows) + sum(dims[h] for h, _ in q.arrows))


def test_point_meter_edge():
    for n, dims, p in [(1, (1, 2, 1), 2), (1, (2, 1, 0), 3), (2, (1, 0, 2, 1, 1), 2)]:
        q = BipartiteQuiver(n)
        d = DimensionVector(dims)
        charge = point_charge(q, d, p)
        points = list(iter_reps(q, d, p, ceiling=charge))
        assert len(points) * (1 + len(q.arrows) + sum(d[h] for h, _ in q.arrows)) == charge
        refused = iter_reps(q, d, p, ceiling=charge - 1)
        with pytest.raises(GuardExceededError) as info:
            next(refused)
        assert str(charge - 1) in str(info.value)
        assert f"{p}^" in str(info.value)


def test_point_meter_charges_rows_of_a_one_point_space():
    q = BipartiteQuiver(1)
    d = DimensionVector.of(2 * 10**6, 0, 0)
    # no entries, so one point, but its 2*10^6 x 0 matrix holds 2*10^6 row lists
    assert point_charge(q, d, 2) == 1 + 2 + 2 * 10**6
    with pytest.raises(GuardExceededError, match=r"^2\^0 points x 2000003 objects exceed 1048576$"):
        next(iter_reps(q, d, 2))


def generator_charge(dims, p):
    return 3 * sum(k**3 for k in dims) + (isqrt(p) if any(dims) else 0)


def test_closure_meter_generator_edge(monkeypatch):
    q = BipartiteQuiver(1)
    for dims, p in [((2, 1, 3), 5), ((1, 0, 0), 760321), ((4, 4, 0), 2)]:
        d = DimensionVector(dims)
        charge = generator_charge(d, p)
        # with no points the closure charges nothing beyond the generators
        assert brute_orbit_partition([], q, d, p, ceiling=charge).orbits == ()
        built = []
        monkeypatch.setattr(qloci.oracle, "gl_generators", lambda k, p: built.append(k))
        with pytest.raises(GuardExceededError) as info:
            brute_orbit_partition([], q, d, p, ceiling=charge - 1)
        monkeypatch.undo()
        assert built == []
        assert f"{charge} generator entries" in str(info.value)
        assert str(charge - 1) in str(info.value)
    # all dims zero: no generators and no root search
    zero = DimensionVector.of(0, 0, 0)
    assert brute_orbit_partition(list(iter_reps(q, zero, 3)), q, zero, 3, ceiling=1).sizes == (1,)


def test_closure_meter_points_times_generators_edge():
    q = BipartiteQuiver(1)
    for dims, p in [((1, 1, 1), 3), ((2, 1, 1), 2), ((1, 2, 1), 5)]:
        d = DimensionVector(dims)
        points = list(iter_reps(q, d, p))
        actions = sum(len(gl_generators(k, p)) for k in d)
        setup = generator_charge(d, p)
        charge = setup + len(points) * actions
        census = brute_orbit_partition(points, q, d, p, ceiling=charge)
        assert census.is_partitioned_by(rank_array)
        with pytest.raises(GuardExceededError) as info:
            brute_orbit_partition(points, q, d, p, ceiling=charge - 1)
        message = str(info.value)
        assert f"{len(points)} points x {actions} generators + {setup}" in message
        assert str(charge - 1) in message


@pytest.mark.parametrize("p", [5, 7])
def test_generating_set_for_larger_primes(p):
    assert {(k, gl_order(k, p)) for k in range(3)} == {
        (0, 1), (1, p - 1), (2, (p * p - 1) * (p * p - p))
    }
    for k in range(3):
        assert len(gl_elements(k, p)) == gl_order(k, p)


def test_orbit_partition_n1_p5():
    q = BipartiteQuiver(1)
    d = DimensionVector.of(1, 1, 1)
    census = orbit_partition(q, d, 5)
    assert len(census.points) == 25
    assert len(census.orbits) == sum(1 for _ in iter_lace_values(q, d))
    assert sorted(census.sizes) == [1, 4, 4, 16]
    assert census.is_partitioned_by(rank_array)
