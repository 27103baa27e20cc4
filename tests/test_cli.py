import json
import os
import re
import subprocess
import sys

import pytest

from qloci import DimensionVector, TypeAQuiver
from qloci.cli import main
from qloci.oracle import orbit_partition, space_dimension


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


def test_zelevinsky_rejects_oriented_input_without_reduce(tmp_path, capsys):
    payload = {
        "quiver": {"type": "A", "orientation": "RR"},
        "dims": [1, 1, 1],
        "arrows": {},
    }
    rep = write(tmp_path, "rep.json", payload)
    code, _, err = run_main(capsys, ["zelevinsky", "--rep", rep])
    assert code == 2
    assert "--reduce" in err
    code, out, _ = run_main(capsys, ["zelevinsky", "--rep", rep, "--reduce", "--format", "json"])
    assert code == 0


def test_unknown_arrow_keys_exit_2(tmp_path, capsys):
    one = {"rows": 1, "cols": 1, "field": "Fp:2", "entries": [[1]]}
    payload = {
        "quiver": {"type": "A", "orientation": "RR"},
        "dims": [1, 1, 1],
        "arrows": {"a1": one, "g2": one},
    }
    rep = write(tmp_path, "rep.json", payload)
    code, out, err = run_main(capsys, ["zelevinsky", "--rep", rep, "--reduce", "--format", "json"])
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
    import qloci.poset

    calls = []
    original = qloci.poset.enumerate_orbits

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(qloci.poset, "enumerate_orbits", counting)
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
    # dims 3^5: the lace search visits 5,007 nodes and finds 660 orbits,
    # which leave 435,600 pairs for the Hasse diagram and the order check
    quiver = write(tmp_path, "q.json", {"type": "bipartiteA", "n": 2})
    argv = ["poset", "--quiver", quiver, "--dims", "3,3,3,3,3", "--format", "json"]
    code, _, err = run_main(capsys, argv + ["--guard", "100000"])
    assert code == 3
    assert "435600 pairs" in err
    code, out, _ = run_main(capsys, argv + ["--guard", "500000"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["nodes"]) == 660
    assert payload["order_equivalence"] == {"pairs_checked": 435600, "consistent": True}


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
    # the search restricted to the open locus visits 69 nodes and finds its
    # 10 orbits, which leave 100 pairs
    quiver = write(tmp_path, "q.json", {"type": "A", "orientation": "RR"})
    argv = ["poset", "--quiver", quiver, "--dims", "2,2,2", "--format", "json", "--guard", "300"]
    code, out, _ = run_main(capsys, argv)
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
    from qloci.zelevinsky import BlockRankMatrix

    m = ExactMatrix.from_json(payload["matrix"])
    assert m.to_json() == payload["matrix"]
    b = BlockRankMatrix.from_json(payload["block_ranks"])
    assert b.to_json() == payload["block_ranks"]


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
