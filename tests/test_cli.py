import os
import subprocess
import sys
from pathlib import Path

import pytest

from flagcalc import graphs
from flagcalc.cli import build_parser, main
from flagcalc.textio import format_graph, parse_complex, parse_graph, parse_poset
from flagcalc import (
    barycentric_complex,
    barycentric_graph,
    clique_complex,
    complete_graph,
    cycle_graph,
)


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.graph"
    path.write_text(format_graph(complete_graph("abc")))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_ok_and_error(tmp_path, capsys, k3_file):
    code, out, _ = run(capsys, "check", "graph", k3_file)
    assert code == 0 and "ok" in out

    bad = tmp_path / "bad.graph"
    bad.write_text("v a\nv a\n")
    code, _, err = run(capsys, "check", "graph", str(bad))
    assert code == 3 and "line 2" in err


def test_reduce_modes(tmp_path, capsys, k3_file):
    code, out, _ = run(capsys, "reduce", k3_file, "--mode", "s")
    assert code == 0 and out.startswith("yes")

    c5 = tmp_path / "c5.graph"
    c5.write_text(format_graph(cycle_graph("abcde")))
    code, out, _ = run(capsys, "reduce", str(c5), "--mode", "ws")
    assert code == 1 and out.startswith("no")

    code, out, _ = run(capsys, "reduce", k3_file, "--mode", "s", "--budget", "0")
    assert code == 2 and out.startswith("unknown")

    # C5's clique complex is a circle: NO at every budget, with its Betti vector.
    code, out, _ = run(capsys, "reduce", str(c5), "--mode", "s", "--budget", "0")
    assert code == 1 and out == "no betti=0,1 nodes=0 budget=0\n"

    code, out, _ = run(capsys, "reduce", k3_file, "--mode", "dismantle")
    assert code == 0


def test_reduce_dismantle_prints_the_head_line_of_every_mode(tmp_path, capsys, k3_file):
    code, out, _ = run(capsys, "reduce", k3_file, "--mode", "dismantle")
    assert code == 0 and out == "yes nodes=2 budget=100000\n-v a\nw c:b\n-v b\nw\n"

    prism = tmp_path / "prism.graph"
    run(capsys, "corpus", "dump", "prism-6", "--out", str(prism))
    code, out, _ = run(capsys, "reduce", str(prism), "--mode", "dismantle")
    assert (code, out) == (1, "no nodes=1 budget=100000\n")

    empty = tmp_path / "empty.graph"
    empty.write_text("")
    code, out, err = run(capsys, "reduce", str(empty), "--mode", "dismantle")
    assert (code, out, err) == (3, "", "error: empty graph\n")


def test_reduce_with_target(tmp_path, capsys, k3_file):
    target = tmp_path / "k1.graph"
    target.write_text("v a\n")
    code, out, _ = run(capsys, "reduce", k3_file, "--mode", "dismantle",
                       "--target", str(target))
    assert code == 0 and out.startswith("yes")

    full = tmp_path / "g.graph"
    reduced = tmp_path / "h.graph"
    run(capsys, "corpus", "dump", "stuck-7-vertex", "--out", str(full))
    run(capsys, "corpus", "dump", "stuck-7-vertex-reduced", "--out", str(reduced))
    code, out, _ = run(capsys, "reduce", str(full), "--mode", "ws",
                       "--target", str(reduced))
    assert code == 0 and out.startswith("yes")
    assert "-e b c" in out  # the single edge deletion, printed as a certificate


def test_map_functors(tmp_path, capsys, k3_file):
    code, out, _ = run(capsys, "map", "delta-g", k3_file)
    assert code == 0 and parse_complex(out) == clique_complex(complete_graph("abc"))

    code, out, _ = run(capsys, "map", "bd", k3_file)
    assert code == 0 and parse_graph(out) == barycentric_graph(complete_graph("abc"))

    code, out, _ = run(capsys, "map", "clique-poset", k3_file)
    assert code == 0
    poset = parse_poset(out)
    assert len(poset.elements) == 7

    cx = tmp_path / "tri.complex"
    run(capsys, "map", "delta-g", k3_file, "--out", str(cx))
    code, out, _ = run(capsys, "map", "sk", str(cx))
    assert code == 0 and parse_graph(out) == complete_graph("abc")
    code, out, _ = run(capsys, "map", "gamma", str(cx))
    assert code == 0 and len(parse_graph(out).vertices) == 7
    code, out, _ = run(capsys, "map", "face-poset", str(cx))
    assert code == 0

    po = tmp_path / "chain.poset"
    po.write_text("p a\np b\n< a b\n")
    code, out, _ = run(capsys, "map", "comp", str(po))
    assert code == 0 and parse_graph(out) == complete_graph("ab")
    code, out, _ = run(capsys, "map", "order-complex", str(po))
    assert code == 0


def test_certify_round_trip(tmp_path, capsys, k3_file):
    cert = tmp_path / "k3.cert"
    code, _, _ = run(capsys, "reduce", k3_file, "--mode", "s", "--out", str(cert))
    assert code == 0
    code, out, _ = run(capsys, "certify", str(cert), "--start", k3_file)
    assert code == 0 and "valid" in out

    tampered = cert.read_text().replace("-v a", "-v b", 1)
    bad = tmp_path / "bad.cert"
    bad.write_text(tampered)
    code, out, _ = run(capsys, "certify", str(bad), "--start", k3_file)
    assert code == 1 and "invalid" in out


def test_certify_compares_the_end_with_the_given_one(tmp_path, capsys, k3_file):
    cert = tmp_path / "k3.cert"
    run(capsys, "reduce", k3_file, "--mode", "s", "--out", str(cert))
    code, out, _ = run(capsys, "certify", str(cert), "--start", k3_file, "--end", k3_file)
    assert (code, out) == (1, "invalid: end graph does not match --end\n")
    point = tmp_path / "c.graph"
    point.write_text("v c\n")  # the certificate deletes a, then b
    code, out, _ = run(capsys, "certify", str(cert), "--start", k3_file, "--end", str(point))
    assert (code, out) == (0, "valid\n")


def test_reduce_to_a_point_takes_no_target(capsys, k3_file):
    code, out, err = run(capsys, "reduce", k3_file, "--mode", "s", "--target", k3_file)
    assert (code, out) == (3, "") and "drop --target" in err


def test_map_bd_needs_a_kind_it_cannot_infer(tmp_path, capsys, k3_file):
    text = tmp_path / "x.txt"
    text.write_text(format_graph(complete_graph("abc")))
    code, out, err = run(capsys, "map", "bd", str(text))
    assert (code, out) == (3, "") and "cannot infer structure kind" in err


def test_certify_reports_an_empty_attachment_as_an_invalid_move(tmp_path, capsys, k3_file):
    cert = tmp_path / "empty.cert"
    cert.write_text("+v x ,\nw\n")
    code, out, _ = run(capsys, "certify", str(cert), "--start", k3_file)
    assert (code, out) == (1, "invalid at move 0: added vertex needs a nonempty attachment\n")


def test_corpus_commands(tmp_path, capsys):
    code, out, _ = run(capsys, "corpus", "list")
    assert code == 0 and "six-regular-10" in out

    dumped = tmp_path / "six.graph"
    code, _, _ = run(capsys, "corpus", "dump", "six-regular-10", "--out", str(dumped))
    assert code == 0
    g = parse_graph(dumped.read_text())
    assert len(g.vertices) == 10 and len(g.edges) == 30

    code, out, _ = run(capsys, "reduce", str(dumped), "--mode", "ws")
    assert code == 1

    code, out, _ = run(capsys, "corpus", "verify")
    assert code == 0 and "FAIL" not in out


def test_corpus_dump_without_a_name_asks_for_one(capsys):
    code, out, err = run(capsys, "corpus", "dump")
    assert (code, out) == (3, "")
    assert err == "error: corpus dump needs a fixture name; `flagcalc corpus list` lists them\n"


def test_identities_command(capsys):
    code, out, _ = run(capsys, "identities", "--seed", "1", "--max-size", "4",
                       "--samples", "4")
    assert code == 0
    assert "total=" in out and "fail=0" in out


def test_environment_overrides(monkeypatch, capsys, k3_file):
    monkeypatch.setenv("FLAGCALC_BUDGET", "0")
    code, out, _ = run(capsys, "reduce", k3_file, "--mode", "s")
    assert code == 2 and out.startswith("unknown")
    code, out, _ = run(capsys, "reduce", k3_file, "--mode", "s", "--budget", "50")
    assert code == 0


@pytest.mark.parametrize("budget", ["xyz", "-3"])
def test_bad_budget_is_a_usage_error(capsys, k3_file, budget):
    code, out, err = run(capsys, "reduce", k3_file, "--budget", budget)
    assert code == 3 and out == ""
    assert "--budget" in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["FLAGCALC_BUDGET", "FLAGCALC_SEED"])
def test_bad_environment_value_fails_only_the_commands_that_read_it(monkeypatch, capsys,
                                                                   k3_file, name):
    monkeypatch.setenv(name, "abc")
    command = ["reduce", k3_file] if name == "FLAGCALC_BUDGET" else ["identities"]
    code, _, err = run(capsys, *command)
    assert code == 3 and "Traceback" not in err
    code, out, err = run(capsys, "corpus", "list")
    assert code == 0 and "six-regular-10" in out and err == ""


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "usage" in out


# (FLAGCALC_BUDGET for the call or None, argv, expected exit code); each pair
# of calls would differ if the first left an option, a kind or an exit behind
# in the shared parser.
_SEQUENCE = [
    (None, ["map", "bd", "k3.graph", "--kind", "graph", "--out", "bd.graph"], 0),
    (None, ["map", "bd", "k3.complex", "--out", "bd.complex"], 0),
    (None, ["reduce", "k3.graph", "--budget", "0"], 2),
    ("100", ["reduce", "k3.graph"], 0),
    ("0", ["reduce", "k3.graph"], 2),
    (None, ["reduce", "k3.graph", "--budget", "xyz"], 3),
    (None, ["reduce", "k3.graph", "--mode", "ws"], 0),
    (None, ["--help"], 0),
    (None, ["map", "sk", "k3.complex"], 0),
]


def _run_sequence(monkeypatch, capsys, fresh_parser: bool) -> list:
    rows = []
    for budget, argv, _ in _SEQUENCE:
        if fresh_parser:
            build_parser.cache_clear()
        with monkeypatch.context() as m:
            if budget is None:
                m.delenv("FLAGCALC_BUDGET", raising=False)
            else:
                m.setenv("FLAGCALC_BUDGET", budget)
            code = main(argv)
        out = capsys.readouterr()
        written = None
        if "--out" in argv:
            path = Path(argv[argv.index("--out") + 1])
            written = path.read_text()
            path.unlink()
        rows.append((argv, code, out.out, out.err, written))
    return rows


def test_the_shared_parser_carries_no_state_between_calls(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k3.graph").write_text(format_graph(complete_graph("abc")))
    assert main(["map", "delta-g", "k3.graph", "--out", "k3.complex"]) == 0
    build_parser.cache_clear()
    shared = _run_sequence(monkeypatch, capsys, fresh_parser=False)
    assert build_parser.cache_info().misses == 1
    fresh = _run_sequence(monkeypatch, capsys, fresh_parser=True)
    assert shared == fresh
    assert [row[1] for row in shared] == [code for _, _, code in _SEQUENCE]
    assert parse_complex(shared[1][4]) == barycentric_complex(
        clique_complex(complete_graph("abc")))


def _cli(*argv, hash_seed="0"):
    """The command line in a fresh interpreter, as `Popen` arguments."""
    import flagcalc

    src = os.path.dirname(os.path.dirname(os.path.abspath(flagcalc.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return [sys.executable, "-m", "flagcalc.cli", *argv], env


def test_identities_output_does_not_depend_on_the_hash_seed():
    outs = []
    for hash_seed in ("0", "1"):
        cmd, env = _cli("identities", "--seed", "0", hash_seed=hash_seed)
        outs.append(subprocess.run(cmd, env=env, capture_output=True, check=True,
                                   timeout=120).stdout)
    assert outs[0] == outs[1]


def test_closed_stdout_pipe_ends_quietly():
    cmd, env = _cli("identities")
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the reader is gone before the first line is written
    try:
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 3
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""


def test_package_runs_as_a_module():
    cmd, env = _cli("corpus", "list")
    cmd[cmd.index("flagcalc.cli")] = "flagcalc"
    proc = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0 and b"six-regular-10" in proc.stdout


@pytest.mark.parametrize("name", ["FLAGCALC_BUDGET", "FLAGCALC_SEED"])
def test_bad_environment_value_is_named(monkeypatch, capsys, k3_file, name):
    monkeypatch.setenv(name, "abc")
    command = ["reduce", k3_file] if name == "FLAGCALC_BUDGET" else ["identities"]
    code, out, err = run(capsys, *command)
    assert code == 3 and out == ""
    assert name in err and "--budget" not in err and "Traceback" not in err


@pytest.mark.parametrize("option, bad, least", [("--samples", "-5", "0"),
                                                 ("--max-size", "1", "2")])
def test_bad_suite_size_is_a_usage_error(capsys, option, bad, least):
    code, out, err = run(capsys, "identities", option, bad)
    assert code == 3 and out == ""
    assert option in err and "Traceback" not in err
    code, out, _ = run(capsys, "identities", option, least)
    assert code == 0 and "fail=0" in out


@pytest.mark.parametrize("functor, name, text, label", [
    ("comp", "p.poset", "p [a],[b]\np c\n< c [a],[b]\n", "[a],[b]"),
    ("sk", "k.complex", "[a],[b] c\n", "[a],[b]"),
    ("gamma", "k.complex", "a] c\n", "[a],c]"),
])
def test_map_writes_no_graph_that_check_refuses(tmp_path, capsys, functor, name, text, label):
    # The input passes its own check, but one of the map's graph labels would
    # split in an attachment list, so no graph file is written.
    src, out = tmp_path / name, tmp_path / "out.graph"
    src.write_text(text)
    assert run(capsys, "check", name.split(".")[1], str(src))[0] == 0
    code, _, err = run(capsys, "map", functor, str(src), "--out", str(out))
    assert code == 3 and repr(label) in err
    assert not out.exists()


@pytest.mark.parametrize("functor, name, text", [
    ("face-poset", "c.complex", "[a b]\n[a,b]\n"),
    ("gamma", "c.complex", "[a b]\n[a,b]\n"),
    ("bd", "c.complex", "[a b]\n[a,b]\n"),
    ("bd", "p.poset", "p [a\np b]\np [a,b]\n< [a b]\n"),
])
def test_map_refuses_members_that_share_a_label(tmp_path, capsys, functor, name, text):
    # {[a, b]} and {[a,b]} are both labelled [[a,b]], which would merge them.
    src, out = tmp_path / name, tmp_path / "out"
    src.write_text(text)
    assert run(capsys, "check", name.split(".")[1], str(src))[0] == 0
    code, _, err = run(capsys, "map", functor, str(src), "--out", str(out))
    assert code == 3 and "share the label [[a,b]]" in err
    assert not out.exists()


@pytest.mark.parametrize("functor", ["delta-g", "clique-poset", "bd"])
def test_map_past_the_clique_cap_is_a_data_error(tmp_path, monkeypatch, capsys, functor):
    # K4 has 15 complete subgraphs, so a cap of 5 stops every clique-built map.
    monkeypatch.setattr(graphs, "DEFAULT_CLIQUE_CAP", 5)
    src, out = tmp_path / "k4.graph", tmp_path / "out"
    src.write_text(format_graph(complete_graph("abcd")))
    code, _, err = run(capsys, "map", functor, str(src), "--out", str(out))
    assert (code, err) == (3, "error: more than 5 complete subgraphs\n")
    assert not out.exists()
