import json
import os
import random
import re
import subprocess
import sys
import time

import pytest

from qloci import DimensionVector, TypeAQuiver
from qloci.cli import main
from qloci.oracle import orbit_partition, space_dimension
from qloci.quiver import interval_table


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def rep_n1(a1, b1):
    return {
        "quiver": {"type": "bipartiteA", "n": 1},
        "dims": [1, 1, 1],
        "arrows": {
            "a1": {"rows": 1, "cols": 1, "field": "Q", "entries": [[a1]]},
            "b1": {"rows": 1, "cols": 1, "field": "Q", "entries": [[b1]]},
        },
    }


def run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decompose_dense(tmp_path, capsys):
    rep = write(tmp_path, "rep.json", rep_n1(1, 1))
    code, out, _ = run_main(capsys, ["decompose", "--rep", rep, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    laces = {
        (item["interval"].get("left"), item["interval"].get("right")): item["multiplicity"]
        for item in payload["lace_array"]
    }
    assert laces == {("a1", "b1"): 1}


def test_decompose_zero_rep_lists_vertex_multiplicities(tmp_path, capsys):
    payload = rep_n1(0, 0)
    del payload["arrows"]["a1"]
    del payload["arrows"]["b1"]
    rep = write(tmp_path, "rep.json", payload)
    code, out, _ = run_main(capsys, ["decompose", "--rep", rep, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    vertex_mults = {
        item["interval"]["vertex"]: item["multiplicity"]
        for item in data["lace_array"]
        if "vertex" in item["interval"]
    }
    assert vertex_mults == {"y0": 1, "x1": 1, "y1": 1}


def test_decompose_shape_mismatch_exits_2(tmp_path, capsys):
    payload = rep_n1(1, 1)
    payload["arrows"]["a1"]["entries"] = [[1, 2]]
    payload["arrows"]["a1"]["cols"] = 2
    rep = write(tmp_path, "rep.json", payload)
    code, _, err = run_main(capsys, ["decompose", "--rep", rep])
    assert code == 2
    assert err.strip()


def test_decompose_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_main(capsys, ["decompose", "--rep", str(path)])
    assert code == 2


def test_zelevinsky_dense(tmp_path, capsys):
    rep = write(tmp_path, "rep.json", rep_n1(1, 1))
    code, out, _ = run_main(capsys, ["zelevinsky", "--rep", rep, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["permutation"] == [1, 2, 3]
    assert payload["dimension"] == 2
    assert payload["block_ranks"]["entries"] == [[1, 1, 1], [1, 2, 2], [1, 2, 3]]


def test_zelevinsky_text_renders_identity_blocks(tmp_path, capsys):
    rep = write(tmp_path, "rep.json", rep_n1(1, 0))
    code, out, _ = run_main(capsys, ["zelevinsky", "--rep", rep, "--format", "text"])
    assert code == 0
    assert "1_1" in out
    assert "orbit closure dimension: 1" in out


def test_zelevinsky_lifts_oriented_input(tmp_path, capsys):
    # the zero representation of RR (1,1,1) is embedded through its lift
    # (0,1,1,1,1) to the double; there is no option that selects the lift
    payload = {
        "quiver": {"type": "A", "orientation": "RR"},
        "dims": [1, 1, 1],
        "arrows": {},
    }
    rep = write(tmp_path, "rep.json", payload)
    code, out, _ = run_main(capsys, ["zelevinsky", "--rep", rep, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["permutation"] == [1, 4, 3, 2] and payload["dimension"] == 1
    assert payload["block_ranks"]["n"] == 2
    with pytest.raises(SystemExit) as exc:
        main(["zelevinsky", "--rep", rep, "--reduce"])
    assert exc.value.code == 2


def test_unknown_arrow_keys_exit_2(tmp_path, capsys):
    one = {"rows": 1, "cols": 1, "field": "Fp:2", "entries": [[1]]}
    payload = {
        "quiver": {"type": "A", "orientation": "RR"},
        "dims": [1, 1, 1],
        "arrows": {"a1": one, "g2": one},
    }
    rep = write(tmp_path, "rep.json", payload)
    code, out, err = run_main(capsys, ["zelevinsky", "--rep", rep, "--format", "json"])
    assert code == 2
    assert not out
    assert "'a1'" in err and "'g2'" not in err


def _check_dot_structure(dot):
    assert dot.startswith("digraph")
    body = dot[dot.index("{") + 1 : dot.rindex("}")]
    declared = set(re.findall(r"^\s*(n\d+)\s*\[", body, flags=re.M))
    edges = re.findall(r"^\s*(n\d+)\s*->\s*(n\d+);", body, flags=re.M)
    assert declared
    for a, b in edges:
        assert a in declared and b in declared
    assert dot.count("{") == dot.count("}")
    assert dot.count('"') % 2 == 0
    return declared, edges


def test_poset_dot_diamond(tmp_path, capsys):
    quiver = write(tmp_path, "q.json", {"type": "bipartiteA", "n": 1})
    code, out, _ = run_main(
        capsys, ["poset", "--quiver", quiver, "--dims", "1,1,1", "--format", "dot"]
    )
    assert code == 0
    declared, edges = _check_dot_structure(out.split("// order")[0])
    assert len(declared) == 4 and len(edges) == 4
    assert "order equivalence" in out


def test_poset_json_single_node(tmp_path, capsys):
    quiver = write(tmp_path, "q.json", {"type": "bipartiteA", "n": 1})
    code, out, _ = run_main(
        capsys, ["poset", "--quiver", quiver, "--dims", "0,0,0", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["nodes"]) == 1 and payload["covers"] == []
    assert payload["order_equivalence"]["consistent"]


def test_poset_enumerates_once(tmp_path, capsys, monkeypatch):
    # one lace search serves the poset, the order check and the dense orbit
    import qloci.poset

    calls = []
    original = qloci.poset._lace_search

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(qloci.poset, "_lace_search", counting)
    quiver = write(tmp_path, "q.json", {"type": "bipartiteA", "n": 2})
    code, _, _ = run_main(capsys, ["poset", "--quiver", quiver, "--dims", "1,2,2,1,1"])
    assert code == 0
    assert len(calls) == 1


def test_poset_guard_exits_3(tmp_path, capsys):
    quiver = write(tmp_path, "q.json", {"type": "bipartiteA", "n": 2})
    code, _, err = run_main(
        capsys,
        ["poset", "--quiver", quiver, "--dims", "2,2,2,2,2", "--guard", "10"],
    )
    assert code == 3


def test_poset_guard_bounds_node_pairs(tmp_path, capsys):
    # dims 3^5: the lace search packs 225 weight cells, visits 5,007 nodes
    # and finds 660 orbits, which leave 435,600 pairs for the Hasse diagram
    # and the order check, 660 rank tables of 15 x 15 cells and 660 nodes of
    # 2 * 15 + 5**2 fields: 660 * (660 + 225 + 55) = 620,400
    quiver = write(tmp_path, "q.json", {"type": "bipartiteA", "n": 2})
    argv = ["poset", "--quiver", quiver, "--dims", "3,3,3,3,3", "--format", "json"]
    code, _, err = run_main(capsys, argv + ["--guard", "620399"])
    assert code == 3
    assert "660 orbits give 435600 pairs, 148500 rank-table cells and 36300 node fields" in err
    code, out, _ = run_main(capsys, argv + ["--guard", "620400"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["nodes"]) == 660
    assert payload["order_equivalence"] == {"pairs_checked": 435600, "consistent": True}


def test_poset_pair_guard_refuses_as_the_orbits_are_kept(tmp_path, capsys):
    # bipartite n=9, dims all 1: 262,144 orbits of total dimension 19, each
    # node filling 2 * 190 + 19**2 = 741 fields; the default guard admits
    # 2,658 orbits (2,658 * (2,658 + 19**2 + 741) is at most 10**7), so the
    # search stops at the next one instead of building every node first
    quiver = write(tmp_path, "q.json", {"type": "bipartiteA", "n": 9})
    start = time.perf_counter()
    argv = ["poset", "--quiver", quiver, "--dims", ",".join(["1"] * 19)]
    code, out, err = run_main(capsys, argv)
    assert time.perf_counter() - start < 5.0
    assert code == 3 and out == ""
    assert "2659 orbits give 7070281 pairs, 959899 rank-table cells and 1970319 node" in err


@pytest.mark.parametrize(
    "word, dims",
    [("RR", (1, 1, 1)), ("RR", (1, 2, 1)), ("RRLL", (1, 1, 1, 1, 1)), ("LRRL", (1, 1, 1, 1, 1))],
)
def test_oriented_poset_matches_the_oracle(tmp_path, capsys, word, dims):
    q = TypeAQuiver(word)
    d = DimensionVector(dims)
    quiver = write(tmp_path, "q.json", {"type": "A", "orientation": word})
    argv = ["poset", "--quiver", quiver, "--dims", ",".join(map(str, dims)), "--format", "json"]
    code, out, _ = run_main(capsys, argv)
    assert code == 0
    nodes = json.loads(out)["nodes"]
    assert len(nodes) == len(orbit_partition(q, d, 2).orbits)
    assert max(node["dimension"] for node in nodes) == space_dimension(q, d)


def test_oriented_poset_guard_counts_kept_pairs(tmp_path, capsys):
    # RR (2,2,2): the double has 35 orbits (1,225 pairs, 261 search nodes);
    # the search restricted to the open locus packs 90 weight cells, visits
    # 69 nodes and finds its 10 orbits, which leave 100 pairs, 10 rank
    # tables of 8 x 8 cells (the lift is (0,2,2,2,2)) and 10 nodes of
    # 2 * 15 + 5**2 fields: 10 * (10 + 64 + 55) = 1,290
    quiver = write(tmp_path, "q.json", {"type": "A", "orientation": "RR"})
    argv = ["poset", "--quiver", quiver, "--dims", "2,2,2", "--format", "json", "--guard"]
    code, out, err = run_main(capsys, argv + ["1289"])
    assert code == 3 and out == ""
    assert "10 orbits give 100 pairs, 640 rank-table cells and 550 node fields, more than 1289" in err
    code, out, _ = run_main(capsys, argv + ["1290"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["nodes"]) == 10
    assert payload["order_equivalence"]["pairs_checked"] == 100


@pytest.mark.parametrize(
    "argv", [["decompose", "--seed", "1"], ["poset", "--field", "Q"]]
)
def test_options_a_command_does_not_read_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_reduce_rrll(tmp_path, capsys):
    quiver = write(tmp_path, "q.json", {"type": "A", "orientation": "RRLL"})
    code, out, _ = run_main(
        capsys, ["reduce", "--quiver", quiver, "--dims", "1,2,2,1,1", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["target"] == {"type": "bipartiteA", "n": 4}
    assert len(payload["inserted"]) == 2
    kinds = {item["junction"]: item["kind"] for item in payload["inserted"]}
    assert kinds == {"z1": "sink", "z3": "source"}
    assert payload["lifted_dims"] == [0, 1, 2, 2, 2, 1, 1, 1, 0]


def test_reduce_bipartite_word_no_insertions(tmp_path, capsys):
    quiver = write(tmp_path, "q.json", {"type": "A", "orientation": "LR"})
    code, out, _ = run_main(capsys, ["reduce", "--quiver", quiver, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["inserted"] == []
    assert payload["padding"] == {"left": False, "right": False}


def test_reduce_empty_quiver(tmp_path, capsys):
    quiver = write(tmp_path, "q.json", {"type": "A", "orientation": ""})
    code, out, _ = run_main(capsys, ["reduce", "--quiver", quiver, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["target"] == {"type": "bipartiteA", "n": 0}


def test_reduce_bad_orientation_exits_2(tmp_path, capsys):
    quiver = write(tmp_path, "q.json", {"type": "A", "orientation": "RQ"})
    code, _, err = run_main(capsys, ["reduce", "--quiver", quiver])
    assert code == 2


@pytest.mark.parametrize("command", ["decompose", "zelevinsky"])
@pytest.mark.parametrize("n, dims", [(0, [10**12]), (1, [10**12, 0, 0])])
def test_huge_representations_exit_3_before_any_matrix(tmp_path, capsys, command, n, dims):
    # these representations need 10**12 rows, more than the
    # serde.MAX_MATRIX_CELLS matrix cells and rows allowed: the refusal
    # comes before any zero row is built
    rep = write(tmp_path, "rep.json", {"quiver": {"type": "bipartiteA", "n": n}, "dims": dims})
    start = time.perf_counter()
    code, out, err = run_main(capsys, [command, "--rep", rep])
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert f"needs {10**12} matrix cells and rows" in err


def test_zelevinsky_bounds_its_cell(tmp_path, capsys):
    # n = 0, d = 3163: 3,163 rows pass the representation bound, but the
    # d x d cell would hold 10,004,569 > cli.MAX_CELL_ENTRIES cells
    # (decompose builds none)
    rep = write(tmp_path, "rep.json", {"quiver": {"type": "bipartiteA", "n": 0}, "dims": [3163]})
    code, _, err = run_main(capsys, ["zelevinsky", "--rep", rep])
    assert code == 3 and "10004569 table cells" in err
    assert run_main(capsys, ["decompose", "--rep", rep])[0] == 0
    # RR (1, 2000, 1): d = 2002, but the lift (0, 1, 2000, 2000, 1) has d = 4002
    rr = {"quiver": {"type": "A", "orientation": "RR"}, "dims": [1, 2000, 1]}
    rep = write(tmp_path, "rr.json", rr)
    code, _, err = run_main(capsys, ["zelevinsky", "--rep", rep])
    assert code == 3 and "dimension 4002" in err


def test_zelevinsky_cell_bound_at_its_edge(tmp_path, capsys, monkeypatch):
    rep = write(tmp_path, "rep.json", {"quiver": {"type": "bipartiteA", "n": 0}, "dims": [1001]})
    code, _, err = run_main(capsys, ["zelevinsky", "--rep", rep])
    assert code == 3 and "1002001 table cells, more than 1000000" in err
    monkeypatch.setattr("qloci.cli.MAX_CELL_ENTRIES", 16)
    for d, expected in ((4, 0), (5, 3)):
        rep = write(tmp_path, "rep.json", {"quiver": {"type": "bipartiteA", "n": 0}, "dims": [d]})
        assert run_main(capsys, ["zelevinsky", "--rep", rep])[0] == expected


def zero_rep_argv(tmp_path, command, quiver, dims):
    """An argv running ``command`` on the zero representation of ``dims``."""
    if command in ("oracle", "poset"):
        path = write(tmp_path, "q.json", quiver)
        return [command, "--quiver", path, "--dims", ",".join(map(str, dims))]
    path = write(tmp_path, "rep.json", {"quiver": quiver, "dims": dims})
    return [command, "--rep", path]


@pytest.mark.parametrize("command", ["decompose", "zelevinsky", "oracle", "poset"])
def test_many_intervals_exit_3_before_any_rank(tmp_path, capsys, command):
    # bipartite n = 3000 with zero dims has no matrix cell or row to refuse,
    # but 18,009,001 intervals
    argv = zero_rep_argv(tmp_path, command, {"type": "bipartiteA", "n": 3000}, [0] * 6001)
    start = time.perf_counter()
    code, out, err = run_main(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert "18009001 intervals, more than 100000" in err


@pytest.mark.parametrize("command", ["decompose", "zelevinsky", "oracle", "poset"])
def test_interval_bound_at_its_edge(tmp_path, capsys, monkeypatch, command):
    # bipartite n = 1 has 6 intervals and n = 2 has 15, as does the double of RR
    monkeypatch.setattr("qloci.cli.MAX_INTERVALS", 6)
    for n, expected in ((1, 0), (2, 3)):
        quiver = {"type": "bipartiteA", "n": n}
        argv = zero_rep_argv(tmp_path, command, quiver, [1] * (2 * n + 1))
        assert run_main(capsys, argv)[0] == expected
    if command != "decompose":
        argv = zero_rep_argv(tmp_path, command, {"type": "A", "orientation": "RR"}, [1, 1, 1])
        for bound, expected in ((14, 3), (15, 0)):
            monkeypatch.setattr("qloci.cli.MAX_INTERVALS", bound)
            assert run_main(capsys, argv)[0] == expected


def test_poset_guard_bounds_the_weight_rows(tmp_path, capsys):
    # the lace search packs a row for each interval it may fill, one cell per
    # interval of the table and one per block, and charges them before the
    # first node: at dims 1,1,1 all 6 x (6 + 3**2) cells of bipartite n = 1;
    # for RR, 6 of the double's 15 intervals lie over positive dims and
    # outside the delta edges, 6 x (15 + 5**2) cells.  The next unit of guard
    # goes to the first node visited.  The 4 orbits kept then charge
    # 4 * (4 + 3**2 + 2 * 6 + 3**2) = 136 and 4 * (4 + 4**2 + 2 * 15 + 5**2)
    # = 300, more than the searches' 90 + 25 and 240 + 29, so the orbit
    # charge sets the last guard
    cases = [
        ({"type": "bipartiteA", "n": 1}, 90, 136),
        ({"type": "A", "orientation": "RR"}, 240, 300),
    ]
    for quiver, cells, charge in cases:
        argv = ["poset", "--quiver", write(tmp_path, "q.json", quiver), "--dims", "1,1,1"]
        code, out, err = run_main(capsys, argv + ["--guard", str(cells - 1)])
        assert code == 3 and out == ""
        assert f"lace search packs {cells} weight cells, more than {cells - 1}" in err
        code, out, err = run_main(capsys, argv + ["--guard", str(cells)])
        assert code == 3 and out == ""
        assert f"packs {cells} weight cells and visits 1 nodes, more than {cells}" in err
        code, out, err = run_main(capsys, argv + ["--guard", str(charge - 1)])
        assert code == 3 and out == ""
        assert "4 orbits give 16 pairs" in err
        assert run_main(capsys, argv + ["--guard", str(charge)])[0] == 0


def test_poset_packs_no_weight_row_over_a_zero_dimension(tmp_path, capsys):
    # bipartite n = 30 and 40, dims all 0: none of the 1,891 and 3,321
    # intervals can hold a summand, so none of their weight rows is packed
    # or charged (2.7 s at n = 30 when all were packed)
    interval_table.cache_clear()
    for n in (30, 40):
        quiver = write(tmp_path, "q.json", {"type": "bipartiteA", "n": n})
        argv = ["poset", "--quiver", quiver, "--dims", ",".join(["0"] * (2 * n + 1))]
        start = time.perf_counter()
        code, out, _ = run_main(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert code == 0 and out.startswith("1 orbits, 0 covering relations\n")


def test_poset_interval_bound_on_zero_dims(tmp_path, capsys):
    # bipartite n = 222 has 99,235 intervals and runs; n = 223 has 100,128
    for n, expected in ((222, 0), (223, 3)):
        quiver = write(tmp_path, "q.json", {"type": "bipartiteA", "n": n})
        argv = ["poset", "--quiver", quiver, "--dims", ",".join(["0"] * (2 * n + 1))]
        code, out, err = run_main(capsys, argv)
        assert code == expected
    assert out == "" and "100128 intervals, more than 100000" in err


def test_poset_charges_the_rank_tables_before_building_nodes(tmp_path, capsys):
    # n = 1, dims 200,10,200: 286 orbits, each with a 410 x 410 rank table
    # and 2 * 6 + 3**2 node fields; 60 orbits already charge
    # 60 * (60 + 410**2 + 21) > 10**7 pairs, cells and fields
    quiver = write(tmp_path, "q.json", {"type": "bipartiteA", "n": 1})
    start = time.perf_counter()
    code, out, err = run_main(capsys, ["poset", "--quiver", quiver, "--dims", "200,10,200"])
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert "60 orbits give 3600 pairs, 10086000 rank-table cells and 1260 node fields" in err


def test_poset_charges_the_fields_of_each_node(tmp_path, capsys):
    # bipartite n = 222 with dims 1 on the last 12 vertices, and n = 39 with
    # dims all 1: the search would pack 78 rows of 99,235 rank cells and
    # 445**2 block counts, and 3,160 rows of 3,160 + 79**2, and refuses
    # before packing any
    cases = [(222, ["0"] * 433 + ["1"] * 12, 23186280), (39, ["1"] * 79, 29707160)]
    for n, dims, cells in cases:
        quiver = write(tmp_path, "q.json", {"type": "bipartiteA", "n": n})
        start = time.perf_counter()
        code, out, err = run_main(capsys, ["poset", "--quiver", quiver, "--dims", ",".join(dims)])
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert f"lace search packs {cells} weight cells, more than 10000000" in err
    # at n = 30 the search's 78 * (1,891 + 61**2) cells fit; each node fills
    # 2 * 1,891 + 61**2 = 7,503 fields, which refuse the 1,139th of the
    # 2,048 orbits, whose pairs and rank tables alone would charge only
    # 2,048 * (2,048 + 12**2) = 4,489,216
    n = 30
    quiver = write(tmp_path, "q.json", {"type": "bipartiteA", "n": n})
    argv = ["poset", "--quiver", quiver, "--dims", ",".join(["0"] * (2 * n + 1 - 12) + ["1"] * 12)]
    code, out, err = run_main(capsys, argv)
    assert code == 3 and out == ""
    assert "1139 orbits give 1297321 pairs, 164016 rank-table cells and 8545917 node fields" in err
    code, out, err = run_main(capsys, argv + ["--guard", str(1139 * (1139 + 144 + 7503))])
    assert code == 3 and out == ""
    assert "1140 orbits give 1299600 pairs" in err


def test_decompose_builds_no_table_per_interval_pair(tmp_path, capsys):
    # bipartite n = 50, dims all 1: 5,151 intervals, and no table over
    # their 26,532,801 pairs may be built
    rep = {"quiver": {"type": "bipartiteA", "n": 50}, "dims": [1] * 101}
    rep = write(tmp_path, "rep.json", rep)
    start = time.perf_counter()
    code, out, _ = run_main(capsys, ["decompose", "--rep", rep, "--format", "json"])
    assert time.perf_counter() - start < 3.0
    assert code == 0
    lace = json.loads(out)["lace_array"]
    assert len(lace) == 101 and all("vertex" in item["interval"] for item in lace)


def test_reduce_bounds_bipartite_n(tmp_path, capsys, monkeypatch):
    quiver = write(tmp_path, "q.json", {"type": "bipartiteA", "n": 10**9})
    start = time.perf_counter()
    code, out, err = run_main(capsys, ["reduce", "--quiver", quiver])
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == "" and "is more than" in err
    monkeypatch.setattr("qloci.cli.MAX_REDUCE_N", 3)
    for n, expected in ((3, 0), (4, 3)):
        quiver = write(tmp_path, "q.json", {"type": "bipartiteA", "n": n})
        assert run_main(capsys, ["reduce", "--quiver", quiver])[0] == expected


def test_oracle_pass(tmp_path, capsys):
    quiver = write(tmp_path, "q.json", {"type": "bipartiteA", "n": 1})
    for p in (2, 3):
        code, out, _ = run_main(
            capsys,
            ["oracle", "--quiver", quiver, "--dims", "1,1,1", "--p", str(p), "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert all(item["pass"] for item in payload["checks"])


def test_oracle_partitions_once(tmp_path, capsys, monkeypatch):
    import qloci.cli
    import qloci.oracle

    calls = []
    original = qloci.oracle.brute_orbit_partition

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(qloci.oracle, "brute_orbit_partition", counting)
    # also count calls through a binding the CLI module may import for itself
    monkeypatch.setattr(qloci.cli, "brute_orbit_partition", counting, raising=False)
    for quiver, dims in (
        ({"type": "bipartiteA", "n": 1}, "1,1,1"),
        ({"type": "A", "orientation": "RR"}, "1,1,1"),
    ):
        path = write(tmp_path, "q.json", quiver)
        calls.clear()
        code, out, _ = run_main(
            capsys, ["oracle", "--quiver", path, "--dims", dims, "--format", "json"]
        )
        assert code == 0
        assert all(item["pass"] for item in json.loads(out)["checks"])
        assert len(calls) == 1


def test_oracle_guard_exits_3(tmp_path, capsys):
    quiver = write(tmp_path, "q.json", {"type": "bipartiteA", "n": 2})
    code, _, _ = run_main(
        capsys,
        ["oracle", "--quiver", quiver, "--dims", "2,2,2,2,2", "--p", "3", "--guard", "100"],
    )
    assert code == 3


def test_json_outputs_reparse(tmp_path, capsys):
    # every emitted JSON artifact parses back to an equivalent structure
    rep = write(tmp_path, "rep.json", rep_n1(1, 0))
    code, out, _ = run_main(capsys, ["zelevinsky", "--rep", rep, "--format", "json"])
    payload = json.loads(out)
    from qloci.matrices import ExactMatrix

    m = ExactMatrix.from_json(payload["matrix"])
    assert m.to_json() == payload["matrix"]
    assert payload["block_ranks"] == {"n": 1, "entries": [[1, 1, 1], [1, 1, 2], [1, 2, 3]]}


def test_console_entry_point(tmp_path):
    import qloci

    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(rep_n1(1, 1)))
    # run the same qloci package this test imported
    src = os.path.dirname(os.path.dirname(qloci.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qloci.cli", "decompose", "--rep", str(rep_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "[a1,b1]: 1" in proc.stdout


def test_oracle_refuses_p_zero(tmp_path, capsys):
    quiver = write(tmp_path, "q.json", {"type": "bipartiteA", "n": 1})
    code, out, err = run_main(capsys, ["oracle", "--quiver", quiver, "--dims", "1,1,1", "--p", "0"])
    assert code == 2 and out == ""
    assert "0 is not prime" in err


def matrix_json(entries, field="Q", rows=None, cols=None):
    return {
        "rows": len(entries) if rows is None else rows,
        "cols": len(entries[0]) if cols is None else cols,
        "field": field,
        "entries": entries,
    }


@pytest.mark.parametrize(
    "command, payload",
    [
        ("poset", {"type": "bipartiteA", "n": 1.7}),
        ("poset", {"type": "bipartiteA", "n": True}),
        ("decompose", {**rep_n1(1, 0), "dims": [1.5, 1, 1]}),
        ("decompose", {**rep_n1(1, 0), "dims": [True, 1, 1]}),
        ("decompose", {**rep_n1(1, 0), "arrows": {"a1": matrix_json([[1]], rows=1.0)}}),
        ("decompose", {**rep_n1(1, 0), "arrows": {"a1": matrix_json([[1]], cols=True)}}),
    ],
)
def test_json_integers_must_be_integers(tmp_path, capsys, command, payload):
    path = write(tmp_path, "in.json", payload)
    option = "--quiver" if command == "poset" else "--rep"
    argv = [command, option, path] + (["--dims", "1,1,1"] if command == "poset" else [])
    code, out, err = run_main(capsys, argv)
    assert code == 2 and out == ""
    assert "must be an integer" in err


@pytest.mark.parametrize(
    "matrix",
    [
        matrix_json([["1/0"]]),
        matrix_json([["abc"]]),
        matrix_json([["x"]], field="Fp:3"),
        matrix_json([["1/2"]], field="Fp:3"),
        matrix_json(["12"], rows=1, cols=2),
        matrix_json([[1]], field=5),
    ],
)
def test_bad_matrix_entries_are_input_errors(tmp_path, capsys, matrix):
    payload = rep_n1(1, 0)
    payload["dims"] = [1, matrix["cols"], 1]
    payload["arrows"] = {"a1": matrix}
    code, out, err = run_main(capsys, ["decompose", "--rep", write(tmp_path, "rep.json", payload)])
    assert code == 2 and out == ""
    assert err.startswith("error: ")


FUZZ_QUIVERS = [
    {"type": "bipartiteA", "n": 0},
    {"type": "bipartiteA", "n": 1},
    {"type": "bipartiteA", "n": 2},
    {"type": "A", "orientation": ""},
    {"type": "A", "orientation": "RR"},
    {"type": "A", "orientation": "LRR"},
]
# values a mutation puts where the input wants something else
FUZZ_VALUES = [1.5, True, False, None, "1", "abc", -1, [1], {}]
# a bipartite quiver too long for every command but `reduce`, given with the
# zero dims that match it
LONG_N = 10**4
LONG_QUIVER = {"type": "bipartiteA", "n": LONG_N}


def fuzz_rep(rng):
    from qloci.serde import quiver_from_json

    quiver = rng.choice(FUZZ_QUIVERS)
    q = quiver_from_json(quiver)
    dims = [rng.randint(0, 2) for _ in range(q.vertex_count)]
    field = rng.choice(["Q", "Fp:2", "Fp:3", "Fp:32003"])
    arrows = {
        name: matrix_json(
            [[rng.randint(-2, 2) for _ in range(dims[t])] for _ in range(dims[h])],
            field, dims[h], dims[t],
        )
        for name, (h, t) in zip(q.arrow_names, q.arrows)
    }
    return {"quiver": dict(quiver), "dims": dims, "arrows": arrows}


def mutate_rep(rep, rng, huge):
    """Apply one mutation, chosen at random, to a valid representation object;
    ``huge`` is the large dimension it may put in."""
    matrices = list(rep["arrows"].values())
    m = rng.choice(matrices) if matrices else None
    kind = rng.randrange(13)
    if kind == 0:
        del rep[rng.choice(["quiver", "dims", "arrows"])]
    elif kind == 1:
        rep["quiver"].pop(rng.choice(["type", "n", "orientation"]), None)
    elif kind == 2 and rep["dims"]:
        rep["dims"][rng.randrange(len(rep["dims"]))] = rng.choice(FUZZ_VALUES + [huge])
    elif kind == 3:
        rep["dims"] = rng.choice(["111", 3, {"0": 1}, None])
    elif kind == 4:
        key = "n" if "n" in rep["quiver"] else "orientation"
        rep["quiver"][key] = rng.choice(FUZZ_VALUES + ["RX"])
    elif kind == 5:
        rep["arrows"][rng.choice(["a9", "g9", "c1", "b0"])] = matrix_json([[1]])
    elif kind == 6 and rep["arrows"]:
        del rep["arrows"][rng.choice(sorted(rep["arrows"]))]
    elif kind == 7 and m:
        del m[rng.choice(["rows", "cols", "field", "entries"])]
    elif kind == 8 and m:
        m[rng.choice(["rows", "cols"])] = rng.choice(FUZZ_VALUES + [10**12])
    elif kind == 9 and m:
        m["field"] = rng.choice(["F", "Fp:4", "Fp:0", "Fp:-3", "Fp:x", 5, None, f"Fp:{10**30}"])
    elif kind == 10 and m and m["entries"]:
        row = rng.randrange(len(m["entries"]))
        if m["entries"][row] and rng.random() < 0.7:
            bad = ["1/0", "abc", "x", "1/2", "9" * 5000] + FUZZ_VALUES
            m["entries"][row][0] = rng.choice(bad)
        else:
            m["entries"][row] = rng.choice(["12", {"0": 1}, 7])
    elif kind == 11 and m:
        m["entries"] = rng.choice(["ab", None, {}])
    elif kind == 12:
        rep.update(quiver=dict(LONG_QUIVER), dims=[0] * (2 * LONG_N + 1), arrows={})
    return rep


def mutate_quiver(quiver, rng):
    """Apply one mutation, or none, to a valid quiver object."""
    quiver = dict(quiver)
    kind = rng.randrange(6)
    if kind == 0:
        quiver.pop(rng.choice(["type", "n", "orientation"]), None)
    elif kind == 1:
        quiver["n" if "n" in quiver else "orientation"] = rng.choice(FUZZ_VALUES + ["RX", 10**12])
    elif kind == 2:
        quiver["type"] = rng.choice(["C", None, 3])
    elif kind == 3:
        return rng.choice([[], "x", 3, None])
    elif kind == 4:
        return dict(LONG_QUIVER)
    return quiver


def fuzz_argv(rng, tmp_path, case):
    """One argv for a random command: mutated JSON and option values."""
    command = rng.choice(["decompose", "zelevinsky", "poset", "reduce", "oracle"])
    path = tmp_path / f"case{case}.json"
    # every command may get the huge dimension 10**12, and mutate_quiver a
    # huge n: each bound refuses them with exit 3 before building anything.
    # Both mutations may also give bipartite n = LONG_N with zero dims to
    # match: `reduce` accepts it, and the interval bound refuses it with
    # exit 3 on the others
    huge = 10**12
    if command in ("decompose", "zelevinsky"):
        rep = fuzz_rep(rng)
        obj = mutate_rep(rep, rng, huge) if rng.random() < 0.8 else rep
        argv = [command, "--rep", str(path)]
    else:
        quiver = rng.choice(FUZZ_QUIVERS)
        obj = mutate_quiver(quiver, rng) if rng.random() < 0.25 else quiver
        size = quiver.get("n", 0) * 2 + 1 if "n" in quiver else len(quiver["orientation"]) + 1
        dims = [rng.randint(0, 2) for _ in range(size + rng.choice([0] * 8 + [-1, 1]))]
        if obj == LONG_QUIVER:
            dims = [0] * (2 * LONG_N + 1)
        elif dims and rng.random() < 0.2:
            dims[rng.randrange(len(dims))] = rng.choice([-1, huge])
        text = ",".join(map(str, dims))
        if rng.random() < 0.05:
            text = rng.choice(["a", "1.5", "", "1,,1"])
        argv = [command, "--quiver", str(path)]
        if command != "reduce" or rng.random() < 0.5:
            argv += ["--dims", text]
        if command == "oracle" and rng.random() < 0.7:
            argv += ["--p", str(rng.choice([0, 1, -3, 4, 6, 561, 10**30] + [2, 3, 5] * 3))]
        if command in ("poset", "oracle"):
            argv += ["--guard", str(rng.choice([0, 1, -1, 5, 50, 500, 500, 2000]))]
        if command == "poset" and rng.random() < 0.3:
            argv += ["--seed", str(rng.randint(0, 9))]
    formats = {"poset": ["json", "dot", "text"]}.get(command, ["json", "text"])
    argv += ["--format", rng.choice(formats + ["xml"] if rng.random() < 0.05 else formats)]
    roll = rng.random()
    if roll < 0.03:
        path.write_text("{not json")
    elif roll < 0.06:
        argv[2] = str(tmp_path / "missing.json")
    else:
        path.write_text(json.dumps(obj))
    if rng.random() < 0.02:
        argv.append("--bogus")
    return argv


def test_fuzzed_cli_inputs_keep_the_exit_code_contract(tmp_path, capsys):
    # every run ends in 0 (success), 2 (input error) or 3 (guard), never a traceback
    rng = random.Random(9301)
    codes = []
    for case in range(300):
        argv = fuzz_argv(rng, tmp_path, case)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses bad options with exit 2
            code = exc.code
        except Exception as exc:
            pytest.fail(f"{argv} on {(tmp_path / f'case{case}.json').read_text()[:300]}: {exc!r}")
        capsys.readouterr()
        assert code in (0, 2, 3), argv
        codes.append(code)
    # the mutations leave enough valid runs, and the guards trip
    assert codes.count(0) >= 30 and codes.count(2) >= 30 and codes.count(3) >= 10
