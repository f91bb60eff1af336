import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strictchordal
from conftest import FIXTURE_DIR
from strictchordal import GenParams, analyze, parse_graph, random_strictly_chordal
from strictchordal import serialize_graph, vulnerability
from strictchordal.cli import main
from strictchordal.commands import _random_capped_graph
from strictchordal.errors import GraphError

REQUIRED_KEYS = {"n", "m", "chordal", "strictly_chordal", "separators",
                 "toughness", "scattering"}


def fixture(name: str) -> str:
    return str(FIXTURE_DIR / name)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_json_fig2_g2(capsys):
    code, out, err = run_cli(capsys, "analyze", fixture("fig2_g2.gr"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert REQUIRED_KEYS <= set(doc)
    assert doc["toughness"] == {"num": 1, "den": 4, "decimal": "0.25"}
    assert doc["scattering"]["number"] == 5
    assert doc["scattering"]["set"] == [2, 3, 4, 5]
    assert doc["case"] == "type_b"
    assert doc["n"] == 13 and doc["m"] == 12
    mu = {tuple(row["vertices"]): row["mu"] for row in doc["separators"]}
    assert mu == {(1,): 3, (2,): 2, (3,): 2, (4,): 2, (5,): 2}


def test_analyze_human_output(capsys):
    code, out, err = run_cli(capsys, "analyze", fixture("fig2_g1.gr"))
    assert code == 0
    assert "case: type_a" in out
    assert "toughness: 1/2" in out
    assert "scattering number: 1" in out


def test_analyze_complete_graph(capsys):
    code, out, err = run_cli(capsys, "analyze", fixture("k7.gr"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["toughness"] == "infinite"
    assert doc["scattering"]["number"] == "undefined"
    assert doc["case"] == "complete"


def test_analyze_not_chordal_exit_code(capsys):
    code, out, err = run_cli(capsys, "analyze", fixture("c4.gr"))
    assert code == 3
    assert out == ""
    assert "not chordal" in err
    assert "chordless cycle (4 vertices)" in err


@pytest.mark.parametrize("name", ["gem.gr", "dart.gr"])
def test_analyze_not_strictly_chordal_witness(capsys, name):
    code, out, err = run_cli(capsys, "analyze", fixture(name))
    assert code == 3
    assert out == ""
    assert "not strictly chordal" in err
    assert "overlapping separators" in err


def test_analyze_disconnected(tmp_path, capsys):
    path = tmp_path / "two_edges.gr"
    path.write_text("p edge 4 2\ne 1 2\ne 3 4\n")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 3
    assert "not connected" in err


def test_analyze_parse_error_and_missing_file(tmp_path, capsys):
    bad = tmp_path / "bad.gr"
    bad.write_text("p edge 2 1\ne 1 1\n")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert "self-loop" in err
    code, _, err = run_cli(capsys, "analyze", str(tmp_path / "missing.gr"))
    assert code == 2


def test_analyze_reads_undecodable_bytes(tmp_path, capsys):
    # A Latin-1 comment is read; the same byte inside an id is a parse error.
    path = tmp_path / "latin1.gr"
    path.write_bytes(b"c caf\xe9\np edge 2 1\ne 1 2\n")
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 0
    assert json.loads(out)["n"] == 2
    path.write_bytes(b"p edge 2 1\ne 1\xe9 2\n")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert err == "error: line 2: expected integer vertex id, got '1\\udce9'\n"


def test_analyze_plain_format_uses_zero_based_ids(tmp_path, capsys):
    path = tmp_path / "star.txt"
    path.write_text("4 3\n0 1\n0 2\n0 3\n")
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["scattering"]["set"] == [0]
    assert doc["separators"][0]["vertices"] == [0]


def test_analyze_dumps_go_to_stderr(capsys):
    code, out, err = run_cli(capsys, "analyze", fixture("fig2_g2.gr"), "--json",
                             "--dump-cliquetree", "--dump-cb")
    assert code == 0
    json.loads(out)  # stdout stays pure JSON
    assert "clique 0:" in err
    assert "separator:" in err
    assert "graph cb {" in err


def test_dumps_print_the_reports_clique_tree(tmp_path, capsys):
    # the cliques and tree edges --dump-cliquetree prints are
    # report.clique_tree's, the cliques of the separator table's incidences
    # are printed cliques that hold the separator, and --dump-cb draws
    # exactly those clique-separator edges, labelling separator s with its
    # vertices in file numbering
    paths = sorted(FIXTURE_DIR.iterdir())
    for seed in range(100):
        g = random_strictly_chordal(GenParams(seed=seed, block_count=1 + seed % 12,
                                              max_block_size=2 + seed % 4,
                                              max_twins=seed % 4))
        paths.append(tmp_path / f"gen{seed}.gr")
        paths[-1].write_text(serialize_graph(g))
    analysed = 0
    for path in paths:
        g = parse_graph(path.read_text())
        code, _, err = run_cli(capsys, "analyze", str(path), "--json",
                               "--dump-cliquetree", "--dump-cb")
        try:
            report = analyze(g)
        except GraphError:
            assert code == 3 and "clique 0:" not in err
            continue
        assert code == 0
        printed, edges, drawn, labels = {}, [], set(), {}
        for line in err.splitlines():
            if line.startswith("clique "):
                head, members = line.split(":")
                printed[int(head.split()[1])] = [int(v) for v in members.split()]
            elif line.startswith("edge "):
                head, members = line.split(" separator:")
                _, c, dash, p = head.split()
                assert dash == "-"
                edges.append((int(c), int(p), [int(v) for v in members.split()]))
            elif " -- s" in line:
                clique, sep = line.strip().rstrip(";").split(" -- ")
                drawn.add((int(clique[1:]), int(sep[1:])))
            elif line.startswith("  s"):
                node, label = line.strip().split(' [label="S{')
                labels[int(node[1:])] = [int(v) for v in label.split("}")[0].split(",")]
        ct = report.clique_tree
        assert printed == {q: sorted(v + g.id_base for v in ct.clique(q).tolist())
                           for q in range(ct.n_cliques)}
        assert edges == [(int(ct.edge_child[e]), int(ct.edge_parent[e]),
                          sorted(v + g.id_base for v in ct.separator_slice(e).tolist()))
                         for e in range(len(ct.edge_child))]
        seps = report.separators
        pairs = list(zip(seps.pair_sep.tolist(), seps.pair_clique.tolist()))
        for s, q in pairs:
            assert {v + g.id_base for v in seps.row(s)} <= set(printed[q])
        assert drawn == {(q, s) for s, q in pairs}
        assert labels == {s: sorted(v + g.id_base for v in seps.row(s))
                          for s in range(len(seps))}
        analysed += 1
    assert analysed == 105  # all but c4, gem and dart


def test_oracle_command(capsys):
    code, out, _ = run_cli(capsys, "oracle", fixture("fig2_g2.gr"))
    assert code == 0
    doc = json.loads(out)
    assert doc["scattering"]["value"] == 5
    assert doc["scattering"]["witness"] == [2, 3, 4, 5]
    assert doc["toughness"]["value"] == {"num": 1, "den": 4, "decimal": "0.25"}
    assert doc["mode"] == "full"


def test_oracle_class_fast_fig1(capsys):
    code, out, _ = run_cli(capsys, "oracle", fixture("fig1.gr"), "--class-fast")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "separator_unions"
    assert doc["scattering"]["value"] == -4
    assert doc["scattering"]["witness"] == list(range(11, 18))
    assert doc["toughness"]["value"]["num"] == 2


def test_oracle_complete(capsys):
    code, out, _ = run_cli(capsys, "oracle", fixture("k7.gr"))
    assert code == 0
    doc = json.loads(out)
    assert doc["scattering"]["value"] == "undefined"
    assert doc["toughness"]["value"] == "infinite"


def test_oracle_too_large(capsys):
    code, _, err = run_cli(capsys, "oracle", fixture("fig1.gr"))
    assert code == 2
    assert "exceeds" in err


def test_oracle_has_no_cap_option(capsys):
    # the cap is oracle.DEFAULT_CAP, as for check: a larger one would let
    # the subset tables ask for 2^n entries
    with pytest.raises(SystemExit) as info:
        main(["oracle", fixture("c4.gr"), "--cap", "30"])
    assert info.value.code == 2
    assert "--cap" in capsys.readouterr().err


def test_gen_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "g.gr"
    code, _, err = run_cli(capsys, "gen", "--seed", "11", "--blocks", "4",
                           "--max-block", "4", "--max-twins", "2",
                           "-o", str(out_file))
    assert code == 0
    g = parse_graph(out_file.read_text())
    code, out, _ = run_cli(capsys, "analyze", str(out_file), "--json")
    assert code == 0
    assert json.loads(out)["n"] == g.n


def test_gen_into_a_missing_directory_exits_2(tmp_path, capsys):
    out_file = tmp_path / "no_such_dir" / "g.gr"
    code, out, err = run_cli(capsys, "gen", "--seed", "1", "-o", str(out_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(out_file) in err


def test_gen_stdout_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "gen", "--seed", "5")
    code, out2, _ = run_cli(capsys, "gen", "--seed", "5")
    assert code == 0 and out1 == out2


def test_check_agrees(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "check", "--count", "25", "--max-n", "12",
                           "--seed", "7")
    assert code == 0
    agree, cases, n_range = out.splitlines()
    assert agree == "25/25 agree with brute_force_scattering and brute_force_toughness"
    # the coverage lines describe the trials check ran
    graphs = [_random_capped_graph(7, trial, 12)[0] for trial in range(25)]
    expected = {}
    for g in graphs:
        case = analyze(g).case
        expected[case] = expected.get(case, 0) + 1
    assert cases == "cases: " + " ".join(f"{c}={k}" for c, k in sorted(expected.items()))
    assert len(expected) >= 3
    sizes = [g.n for g in graphs]
    assert n_range == f"n range: {min(sizes)}..{max(sizes)}" and max(sizes) <= 12


def test_check_of_no_trials_reports_no_range(capsys):
    code, out, _ = run_cli(capsys, "check", "--count", "0", "--max-n", "5", "--seed", "1")
    assert code == 0
    assert out.splitlines()[1:] == ["cases: none", "n range: none"]


def test_check_single_tiny(capsys):
    code, out, _ = run_cli(capsys, "check", "--count", "1", "--max-n", "3",
                           "--seed", "1")
    assert code == 0
    assert "1/1 agree" in out


def test_check_detects_injected_fault(capsys, tmp_path, monkeypatch):
    # negative control: corrupt the scattering number and expect exit 4
    real = vulnerability.analyze

    def corrupted(g):
        report = real(g)
        if report.scattering_number is None:
            return report
        return report.__class__(
            case=report.case,
            toughness=report.toughness,
            tough_set=report.tough_set,
            scattering_number=report.scattering_number + 1,
            scattering_set=report.scattering_set,
            clique_count=report.clique_count,
            separators=report.separators,
            timings=report.timings,
        )

    monkeypatch.setattr("strictchordal.commands.analyze", corrupted)
    code, out, err = run_cli(capsys, "check", "--count", "10", "--max-n", "12",
                             "--seed", "7", "--dump-dir", str(tmp_path))
    assert code == 4
    assert "scattering" in err
    dumps = list(Path(tmp_path).glob("counterexample-*.gr"))
    assert len(dumps) == 1
    parse_graph(dumps[0].read_text())  # the dump is a valid graph file


def test_check_dump_into_a_missing_directory_exits_2(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("strictchordal.commands._check_one",
                        lambda g, max_n: ("type_b", "injected mismatch"))
    dump_dir = tmp_path / "no_such_dir"
    code, out, err = run_cli(capsys, "check", "--count", "3", "--max-n", "8",
                             "--seed", "1", "--dump-dir", str(dump_dir))
    assert code == 2
    assert out == ""
    assert "trial 0" in err and "injected mismatch" in err
    assert err.splitlines()[-1].startswith("error: ") and str(dump_dir) in err
    assert not dump_dir.exists()


def test_check_rejects_max_n_above_cap(capsys):
    code, _, err = run_cli(capsys, "check", "--count", "1", "--max-n", "25",
                           "--seed", "1")
    assert code == 2
    assert "cap" in err


def test_bench_smoke(capsys):
    code, out, _ = run_cli(capsys, "bench", "--sizes", "300,600", "--seed", "3")
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 3  # header + one row per size
    header = lines[0].split()
    assert header[:3] == ["target", "n", "classes"] and "time_s" in header
    # after the nine totals, one column per stage analyze() times, in its order
    stages = list(analyze(parse_graph(Path(fixture("fig2_g2.gr")).read_text())).timings)
    assert header[9:] == stages
    # classes: the vertices the twin quotient leaves, at most n
    for line, params in zip(lines[1:], [GenParams(seed=3, target_n=300, max_block_size=6,
                                                  max_twins=1),
                                        GenParams(seed=4, target_n=600, max_block_size=6,
                                                  max_twins=1)]):
        g = random_strictly_chordal(params)
        row = line.split()
        assert int(row[1]) == g.n
        assert int(row[2]) == len(analyze(g).clique_tree.class_ptr) - 1 < g.n


def test_bench_prints_a_dash_for_stages_a_run_did_not_time(capsys, monkeypatch):
    # the 300-vertex graph is sent down the general path: its row has no
    # blocks time, and the general stages have no columns of their own
    forced = len(vulnerability.true_twin_quotient(random_strictly_chordal(
        GenParams(seed=3, target_n=300, max_block_size=6, max_twins=1)))[1])
    blocks = vulnerability.block_decomposition
    monkeypatch.setattr(vulnerability, "block_decomposition",
                        lambda h, *rest: None if h.n == forced else blocks(h, *rest))
    code, out, _ = run_cli(capsys, "bench", "--sizes", "300,600", "--seed", "3")
    assert code == 0
    header, first, second = [line.split() for line in out.splitlines() if line.strip()]
    assert header[9:] == ["twins", "blocks", "vulnerability"]
    assert int(first[2]) == forced
    # the first row has no ratio, so its stage columns are counted from the end
    assert first[-2] == "-" and "-" not in first[-3::2]
    assert "-" not in second[-3:]


def test_bench_json_holds_what_the_table_prints(capsys, tmp_path):
    import numpy as np

    path = tmp_path / "bench.json"
    code, out, _ = run_cli(capsys, "bench", "--sizes", "300,600", "--seed", "3",
                           "--json", str(path))
    assert code == 0
    header, *table = [line.split() for line in out.splitlines() if line.strip()]
    doc = json.loads(path.read_text())
    assert doc["command"] == {"sizes": [300, 600], "seed": 3, "repeat": 1}
    env = doc["env"]
    assert (env["numpy"], env["cpu_count"]) == (np.__version__, os.cpu_count())
    assert env["python"] == ".".join(map(str, sys.version_info[:3]))
    assert env["git_sha"] is None or len(env["git_sha"]) >= 40
    assert len(doc["rows"]) == len(table) == 2
    for printed, row in zip(table, doc["rows"]):
        if row["ratio"] is None:  # printed blank
            printed.insert(header.index("ratio"), "")
        cells = dict(zip(header, printed))
        assert [str(row[key]) for key in ("target", "n", "classes", "m", "case")] == \
            [cells[key] for key in ("target", "n", "classes", "m", "case")]
        for key in ("time_s", "us_per_nm", "parse_s"):
            assert f"{row[key]:.3f}" == cells[key]
        assert {stage: f"{s:.3f}" for stage, s in row["stages"].items()} == \
            {stage: cells[stage] for stage in header[9:]}
    assert doc["rows"][0]["ratio"] is None
    assert f"{doc['rows'][1]['ratio']:.2f}" == table[1][8]


@pytest.mark.parametrize("sizes", ["0", "300,0", "300,20000000"])
def test_bench_rejects_a_bad_size_before_any_output(capsys, sizes):
    code, out, err = run_cli(capsys, "bench", "--sizes", sizes, "--seed", "1")
    assert code == 2
    assert out == ""
    assert err == "error: target_n must be between 2 and 10000000\n"


def test_bench_per_element_cost_stable_across_runs(capsys):
    costs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "bench", "--sizes", "2000", "--seed", "3",
                               "--repeat", "3")
        assert code == 0
        header, row = [line.split() for line in out.splitlines() if line.strip()]
        costs.append(float(row[header.index("us_per_nm")]))
    assert max(costs) / min(costs) < 3.0, costs


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "strictchordal", "analyze",
         fixture("c4.gr")],
        capture_output=True, text=True)
    assert proc.returncode == 3
    assert "not chordal" in proc.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "strictchordal", "analyze",
         fixture("fig2_g2.gr"), "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["scattering"]["number"] == 5


BAD_OPTION_VALUES = [
    ["check", "--count", "1", "--max-n", "1", "--seed", "1"],  # hung
    ["check", "--count", "1", "--max-n", "0", "--seed", "1"],  # hung
    ["check", "--count", "-3", "--max-n", "8", "--seed", "1"],
    ["gen", "--seed", "1", "--blocks", "0"],
    ["gen", "--seed", "1", "--max-block", "1"],
    ["gen", "--seed", "1", "--target-n", "1000000000000"],  # unbounded allocation
    ["gen", "--seed", "1", "--blocks", "5000000"],
    ["gen", "--seed", "1", "--max-block", "2000000"],
    ["gen", "--seed", "1", "--target-n", "100", "--max-block", "2000000"],
    ["bench", "--sizes", "10,abc", "--seed", "1"],
    ["bench", "--sizes", "0", "--seed", "1"],
    ["bench", "--sizes", "10", "--seed", "1", "--repeat", "0"],  # ran once
    ["bench", "--sizes", "10", "--seed", "1", "--repeat", "-3"],
]


# the ids keep the names these cases had when they also set environment
# variables
@pytest.mark.parametrize("argv", BAD_OPTION_VALUES,
                         ids=[f"argv{i}-env{i}" for i in range(len(BAD_OPTION_VALUES))])
def test_bad_option_values_exit_2(argv):
    # in a subprocess with a timeout, so that a hang fails instead of stalling
    src = str(Path(strictchordal.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-m", "strictchordal", *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr, proc.stderr
    assert proc.stdout == "", proc.stdout
