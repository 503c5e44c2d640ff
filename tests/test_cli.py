import csv
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import syncwords
from syncwords import search
from syncwords.cli import main
from syncwords.families import cerny, debruijn_counter
from syncwords.textio import load, save


@pytest.fixture
def counter_file(tmp_path):
    path = tmp_path / "counter2.aut"
    save(path, debruijn_counter(2).instance)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_shortest_subset(counter_file, capsys):
    code, out, _ = run_cli(capsys, "shortest", counter_file,
                           "--mode", "subset", "--format", "json")
    assert code == 0
    report = json.loads(out)
    result = report["results"][0]
    assert result["status"] == "found"
    assert result["length"] == 7
    assert result["witness"] == "0κ1κ0κω"
    assert "elapsed_ms" in report["timing"]


def test_shortest_not_synchronizing_exit_code(tmp_path, capsys):
    path = tmp_path / "perm.aut"
    path.write_text("kind dfa\nstates 2\nletters a\n0 a 1\n1 a 0\n")
    code, out, _ = run_cli(capsys, "shortest", str(path), "--mode", "classic",
                           "--format", "json")
    assert code == 2
    assert json.loads(out)["results"][0]["status"] == "not_synchronizing"


def test_shortest_budget_exit_code(counter_file, capsys):
    code, out, _ = run_cli(capsys, "shortest", counter_file, "--mode", "subset",
                           "--max-nodes", "2", "--format", "json")
    assert code == 3
    assert json.loads(out)["results"][0]["status"] == "budget_exceeded"


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.aut"
    path.write_text("kind dfa\nstates 1\nletters a\n0 b 0\n")
    code, _, err = run_cli(capsys, "shortest", str(path), "--mode", "classic")
    assert code == 1
    assert "line 4" in err


def test_subset_mode_requires_subset_section(tmp_path, capsys):
    path = tmp_path / "nosubset.aut"
    path.write_text("kind dfa\nstates 1\nletters a\n0 a 0\n")
    code, _, err = run_cli(capsys, "shortest", str(path), "--mode", "subset")
    assert code == 1
    assert "subset" in err


def test_classic_mode_rejects_pfa(tmp_path, capsys):
    path = tmp_path / "partial.aut"
    path.write_text("kind pfa\nstates 1\nletters a\n0 a -\n")
    code, _, err = run_cli(capsys, "shortest", str(path), "--mode", "classic")
    assert code == 1
    assert "dfa" in err


def test_decide(counter_file, capsys):
    code, out, _ = run_cli(capsys, "decide", counter_file,
                           "--problem", "subset-sync", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"][0]["answer"] == "yes"


def test_decide_no(tmp_path, capsys):
    path = tmp_path / "perm.aut"
    path.write_text("kind dfa\nstates 2\nletters a b\n"
                    "0 a 1\n1 a 0\n0 b 0\n1 b 1\nsubset 0 1\n")
    code, out, _ = run_cli(capsys, "decide", str(path), "--problem", "subset-sync",
                           "--format", "json")
    assert code == 2
    assert json.loads(out)["results"][0]["answer"] == "no"


def test_build_and_verify_counter(tmp_path, capsys):
    # the search-backed checks, uniqueness and the switch trace included,
    # run over the threshold table's range, up to m = 8
    for m, n in ((4, 25), (8, 46)):
        path = str(tmp_path / f"c{m}.aut")
        code, out, _ = run_cli(capsys, "build", "counter", "--m", str(m), "-o", path)
        assert code == 0
        assert load(path).automaton.n == n
        code, out, _ = run_cli(capsys, "verify", path, "--check", "counter", "--m", str(m),
                               "--format", "json")
        assert code == 0
        checks = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
        assert checks["shortest word is unique"] is True
        assert checks["switch trace counts 0..2^m-1"] is True
        assert all(checks.values())


def test_build_cerny_and_debruijn(tmp_path, capsys):
    cpath = str(tmp_path / "c5.aut")
    assert run_cli(capsys, "build", "cerny", "--n", "5", "-o", cpath)[0] == 0
    assert load(cpath).automaton.n == 5
    dpath = str(tmp_path / "db4.txt")
    assert run_cli(capsys, "build", "debruijn", "--k", "4", "-o", dpath)[0] == 0
    with open(dpath) as f:
        assert len(f.read().strip()) == 16
    assert run_cli(capsys, "verify", dpath, "--check", "debruijn")[0] == 0


def test_build_missing_param(tmp_path, capsys):
    code, _, err = run_cli(capsys, "build", "counter", "-o", str(tmp_path / "x"))
    assert code == 1
    assert "--m" in err


@pytest.mark.parametrize("argv, message", [
    (["build", "cerny", "-o", "{d}/x.aut"], "cerny needs --n"),
    (["build", "debruijn", "-o", "{d}/x.txt"], "debruijn needs --k"),
    (["reduce", "--op", "chain"], "chain needs --m"),
    (["reduce", "--op", "restart"], "reduce needs an input file (except op=chain)"),
    (["verify", "{d}/bare.aut", "--check", "swap"], "swap check needs a partition section"),
    (["verify", "{d}/bare.aut", "--check", "transversal"],
     "transversal check needs subset and partition sections"),
    (["verify", "{d}/bare.aut", "--check", "augmentation"],
     "augmentation check needs a pairs section"),
    (["verify", "{d}/bare.aut", "--check", "counter"], "counter check needs --m"),
], ids=["cerny-n", "debruijn-k", "chain-m", "restart-file", "swap-partition",
        "transversal-sections", "augmentation-pairs", "counter-m"])
def test_missing_input_exits_1(tmp_path, capsys, argv, message):
    # bare.aut holds no subset, partition or pairs section
    (tmp_path / "bare.aut").write_text("kind dfa\nstates 2\nletters a\n0 a 1\n1 a 0\n")
    code, out, err = run_cli(capsys, *(a.format(d=tmp_path) for a in argv))
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not any(tmp_path.glob("x.*"))


def test_blind_transversal_check_exits_2(tmp_path, capsys):
    # the swap keeps {0, 1} whole, so no singleton is ever reached
    path = tmp_path / "swap.aut"
    path.write_text("kind dfa\nstates 2\nletters a\n0 a 1\n1 a 0\n"
                    "subset 0 1\npartition 0|1\n")
    code, out, err = run_cli(capsys, "verify", str(path), "--check", "transversal")
    assert (code, out) == (2, "")
    assert err.startswith("negative: ")


@pytest.mark.parametrize("argv", [
    ["shortest", "f.aut", "--mode", "bogus"],
    ["shortest", "f.aut", "--mode", "classic", "--bogus"],
    ["build", "counter", "--m", "two", "-o", "x.aut"],
    ["shortest", "--mode", "classic"],
    [],
], ids=["bad-choice", "unknown-flag", "not-an-integer", "missing-argument",
        "no-subcommand"])
def test_argument_parser_usage_errors_exit_1(capsys, argv):
    # argparse's own exit code, 2, would read as a definite negative
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage: syncwords")
    assert "error: " in err


def test_help_exits_0(capsys):
    code, out, err = run_cli(capsys, "shortest", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: syncwords shortest")


def test_verify_sc_and_swap(tmp_path, capsys):
    from syncwords.reduce import binary_chain
    reports = binary_chain(2, "subset")
    doubled = tmp_path / "doubled.aut"
    save(doubled, reports[0].output)
    assert run_cli(capsys, "verify", str(doubled), "--check", "sc")[0] == 0
    assert run_cli(capsys, "verify", str(doubled), "--check", "swap")[0] == 0
    final = tmp_path / "final.aut"
    save(final, reports[1].output)
    assert run_cli(capsys, "verify", str(final), "--check", "sc")[0] == 0


def test_verify_transversal_and_augmentation(counter_file, capsys):
    assert run_cli(capsys, "verify", counter_file, "--check", "transversal")[0] == 0
    assert run_cli(capsys, "verify", counter_file, "--check", "augmentation")[0] == 0


def test_verify_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "chain.aut"
    path.write_text("kind dfa\nstates 2\nletters a\n0 a 1\n1 a 1\n")
    code, _, _ = run_cli(capsys, "verify", str(path), "--check", "sc")
    assert code == 2


def test_reduce_single_op(counter_file, tmp_path, capsys):
    out_path = str(tmp_path / "restarted.aut")
    code, out, _ = run_cli(capsys, "reduce", counter_file, "--op", "restart",
                           "-o", out_path, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert all(c["pass"] for c in report["checks"])
    assert load(out_path).automaton.n == 13


def test_reduce_precondition_failure(tmp_path, capsys):
    path = tmp_path / "blind.aut"
    path.write_text("kind dfa\nstates 2\nletters a b\n"
                    "0 a 1\n1 a 0\n0 b 0\n1 b 1\nsubset 0 1\n")
    code, out, _ = run_cli(capsys, "reduce", str(path), "--op", "add-sinks",
                           "--format", "json")
    assert code == 2
    report = json.loads(out)
    assert report["checks"][0]["pass"] is False


def test_reduce_chain_writes_stages(tmp_path, capsys):
    prefix = str(tmp_path / "chain")
    code, out, _ = run_cli(capsys, "reduce", "--op", "chain", "--m", "2",
                           "--variant", "subset", "-o", prefix, "--format", "json")
    assert code == 0
    final = load(f"{prefix}.1.binarize.aut")
    assert final.automaton.n == 180


def test_witness_rle_above_limit(counter_file, capsys):
    code, out, _ = run_cli(capsys, "shortest", counter_file, "--mode", "subset",
                           "--witness-limit", "5", "--format", "json")
    assert code == 0
    result = json.loads(out)["results"][0]
    assert "witness" not in result
    assert result["witness_length"] == 7
    assert "witness_digest" in result
    rle = result["witness_rle"]
    assert sum(count for _, count in rle) == 7
    code, out, _ = run_cli(capsys, "shortest", counter_file, "--mode", "subset",
                           "--witness-limit", "5", "--full-witness",
                           "--format", "json")
    assert json.loads(out)["results"][0]["witness"] == "0κ1κ0κω"


def test_reduce_double_from_file(tmp_path, capsys):
    from syncwords.families import debruijn_counter
    ci = debruijn_counter(2)
    path = tmp_path / "c2.aut"
    save(path, ci.instance)  # pairs section carries the connecting arcs
    out_path = str(tmp_path / "doubled.aut")
    code, out, _ = run_cli(capsys, "reduce", str(path), "--op", "double",
                           "-o", out_path, "--format", "json")
    assert code == 0
    doubled = load(out_path)
    assert doubled.automaton.n == 2 * 14 + 2
    assert run_cli(capsys, "verify", out_path, "--check", "swap")[0] == 0


def test_decide_singleton_subset(tmp_path, capsys):
    path = tmp_path / "single.aut"
    path.write_text("kind dfa\nstates 2\nletters a\n0 a 1\n1 a 0\nsubset 1\n")
    code, out, _ = run_cli(capsys, "decide", str(path), "--problem", "subset-sync",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["results"][0]["answer"] == "yes"


def test_experiment_composition(capsys):
    code, out, _ = run_cli(capsys, "experiment", "composition", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["rows"][0]["depth"] == 9


def test_experiment_csv_schema(capsys):
    code, out, _ = run_cli(capsys, "experiment", "thresholds", "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "m,n,letters,mode,status,length,formula_value,match,explored"


def test_thresholds_rows_all_match(capsys):
    code, out, _ = run_cli(capsys, "experiment", "thresholds", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["formula_value"] for r in rows] == [7, 46, 1021, 180, 98]
    assert all(r["match"] for r in rows), rows


def test_reports_are_deterministic(counter_file, capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "shortest", counter_file, "--mode", "subset",
                               "--format", "json")
        assert code == 0
        report = json.loads(out)
        del report["timing"]
        outs.append(json.dumps(report, sort_keys=True))
    assert outs[0] == outs[1]


def test_experiment_seeded_determinism(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "experiment", "oracle-cross", "--count", "5",
                               "--seed", "7", "--format", "json")
        assert code == 0
        report = json.loads(out)
        del report["timing"]
        outs.append(json.dumps(report, sort_keys=True))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("flag", ["--max-nodes", "--max-length"])
def test_zero_budget_flag_is_rejected(counter_file, capsys, flag):
    code, _, err = run_cli(capsys, "shortest", counter_file, "--mode", "subset",
                           flag, "0")
    assert code == 1
    assert "positive" in err


@pytest.mark.parametrize("suite", ["nfa-modes", "oracle-cross", "reduction-roundtrips"])
@pytest.mark.parametrize("count", ["0", "-1"])
def test_experiment_count_below_one_is_rejected(capsys, suite, count):
    code, out, err = run_cli(capsys, "experiment", suite, "--count", count)
    assert code == 1
    assert out == ""
    assert "--count must be at least 1" in err


@pytest.mark.parametrize("name", ["SYNCWORDS_MAX_NODES", "SYNCWORDS_MAX_MEMORY"])
def test_non_integer_budget_env_is_rejected(counter_file, capsys, monkeypatch, name):
    monkeypatch.setenv(name, "lots")
    code, _, err = run_cli(capsys, "shortest", counter_file, "--mode", "subset")
    assert code == 1
    assert name in err and "'lots'" in err


def test_verify_transversal_respects_max_length(tmp_path, capsys):
    path = str(tmp_path / "c2.aut")
    assert run_cli(capsys, "build", "counter", "--m", "2", "-o", path)[0] == 0
    code, _, err = run_cli(capsys, "verify", path, "--check", "transversal",
                           "--max-length", "1")
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("op", [["add-sinks"], ["chain", "--m", "2"]])
def test_reduce_budget_exit_code(counter_file, capsys, op):
    files = [] if op[0] == "chain" else [counter_file]  # chain takes no file
    code, _, err = run_cli(capsys, "reduce", *files, "--op", *op,
                           "--max-nodes", "2")
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("variant, header", [
    ("subset", "stage,states,letters,length_in,length_out,gap,final_states,"
               "formula_states,witness_length"),
    ("careful", "stage,states,letters,length_in,length_out,status_in,status_out,"
                "final_states,formula_states,witness_length"),
], ids=["subset", "careful"])
def test_reduce_chain_csv_takes_the_union_of_row_columns(capsys, variant, header):
    code, out, err = run_cli(capsys, "reduce", "--op", "chain", "--m", "2",
                             "--variant", variant, "--format", "csv")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + (2 if variant == "subset" else 3)


def test_reduce_exits_3_when_its_search_hits_the_budget(tmp_path, capsys):
    path = str(tmp_path / "counter4.aut")
    save(path, debruijn_counter(4).instance)
    code, _, err = run_cli(capsys, "reduce", path, "--op", "binarize",
                           "--max-nodes", "40")
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("argv", [
    ["oracle-cross", "--count", "4", "--max-nodes", "5"],
    ["nfa-modes", "--count", "4", "--max-nodes", "5"],
    ["composition", "--max-nodes", "60"],
    ["thresholds", "--max-nodes", "2000"],
], ids=["oracle-cross", "nfa-modes", "composition", "thresholds"])
def test_experiment_exits_3_when_a_search_hits_the_budget(capsys, argv):
    # a search stopped by the budget leaves the suite's check undecided:
    # it is not counted as a failed check (exit 2)
    code, out, err = run_cli(capsys, "experiment", *argv)
    assert (code, out) == (3, "")
    assert "undecided within budget" in err


@pytest.mark.parametrize("argv", [
    lambda d: ["shortest", d, "--mode", "classic"],
    lambda d: ["build", "cerny", "--n", "3", "-o", d],
], ids=["input", "output"])
def test_directory_as_a_file_exits_1(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv(str(tmp_path)))
    assert (code, out) == (1, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("text", ["", " \n\n"], ids=["empty", "blank"])
def test_verify_debruijn_without_a_sequence_exits_1(tmp_path, capsys, text):
    path = tmp_path / "none.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "verify", str(path), "--check", "debruijn")
    assert (code, out) == (1, "")
    assert "no sequence" in err


@pytest.mark.parametrize("text", ["abc\n", "0121\n"], ids=["length-3", "length-4"])
def test_verify_debruijn_rejects_non_binary_text(tmp_path, capsys, text):
    # one answer whether or not the length is a power of two
    path = tmp_path / "seq.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "verify", str(path), "--check", "debruijn")
    assert (code, out) == (1, "")
    assert "sequence must be binary" in err


def test_reduction_suites_and_chains_search_nothing_twice(monkeypatch, capsys):
    # the samplers' searches are the reductions' input searches, and a
    # chain stage's output search is the next stage's input search: the
    # engine's cache answers the repeats, so no automaton is searched twice
    original = search._reset_search
    keys = set()  # the calls' keys, equal automata equal, as in the cache
    made = []  # the searches made; keeps every automaton alive, so no id is reused

    def recorded(a, *rest):
        keys.add((a, *rest))
        misses = original.cache_info().misses
        res = original(a, *rest)
        if original.cache_info().misses > misses:
            made.append((a, (id(a), *rest)))
        return res

    monkeypatch.setattr(search, "_reset_search", recorded)
    # nfa-modes reads its samplers' searches and repeats none of them
    for argv, repeats in ((["experiment", "reduction-roundtrips", "--count", "20"], True),
                          (["experiment", "nfa-modes", "--count", "20"], False),
                          (["reduce", "--op", "chain", "--m", "2", "--variant", "subset"],
                           True),
                          (["reduce", "--op", "chain", "--m", "2", "--variant", "careful"],
                           True)):
        original.cache_clear()
        keys.clear()
        made.clear()
        assert run_cli(capsys, *argv)[0] == 0
        info = original.cache_info()
        assert (info.hits > 0) == repeats, argv
        ids = [key for _, key in made]
        assert len(set(ids)) == len(ids), argv
        # while the cache holds every search, each distinct one is made
        # once; the roundtrips suite makes more than it holds, and a draw
        # equal to one evicted since is searched again
        if len(keys) <= info.maxsize:
            assert info.misses == len(keys), argv


def test_reduce_chain_rejects_an_input_file(counter_file, capsys):
    # the chain builds its input from --m; it does not silently ignore a file
    code, out, err = run_cli(capsys, "reduce", counter_file, "--op", "chain",
                             "--m", "2")
    assert (code, out) == (1, "")
    assert "chain builds its input from --m and takes no file" in err


def test_negative_witness_limit_is_rejected(counter_file, capsys):
    code, out, err = run_cli(capsys, "shortest", counter_file, "--mode", "subset",
                             "--witness-limit", "-1")
    assert (code, out) == (1, "")
    assert "--witness-limit" in err


def test_verify_counter_exits_3_when_word_counting_hits_the_budget(tmp_path, capsys):
    # the search fits in 200 sets, the count of its shortest words does not
    path = str(tmp_path / "counter4.aut")
    save(path, debruijn_counter(4).instance)
    code, out, err = run_cli(capsys, "verify", path, "--check", "counter", "--m", "4",
                             "--max-nodes", "200")
    assert (code, out) == (3, "")
    assert "word counting" in err


def test_verify_counter_exits_3_when_its_search_hits_the_budget(tmp_path, capsys):
    # the transversal traversal fits in 100 sets, the subset search (148)
    # does not: a stopped search has no witness to check
    path = str(tmp_path / "counter4.aut")
    save(path, debruijn_counter(4).instance)
    code, out, err = run_cli(capsys, "verify", path, "--check", "counter", "--m", "4",
                             "--max-nodes", "100")
    assert (code, out) == (3, "")
    assert "counter search undecided within budget after 100 nodes" in err


@pytest.fixture
def cerny4_file(tmp_path):
    path = tmp_path / "cerny4.aut"
    save(path, cerny(4))
    return str(path)


def _witness_fields(out: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(out)["results"][0]
    if fmt == "csv":
        return next(csv.DictReader(io.StringIO(out)))
    line = out.splitlines()[2]  # after the command and instance lines
    return dict(field.split("=", 1) for field in line.split())


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_witness_digest_is_the_sha256_of_the_printed_witness(cerny4_file, fmt, capsys):
    # the report's digest is the first 16 hex digits of hashlib's SHA-256,
    # whichever implementation the CLI loads
    code, out, _ = run_cli(capsys, "shortest", cerny4_file, "--mode", "classic",
                           "--format", fmt)
    fields = _witness_fields(out, fmt)
    assert (code, fields["witness"]) == (0, "baaabaaab")
    expected = hashlib.sha256(fields["witness"].encode()).hexdigest()[:16]
    assert fields["witness_digest"] == expected == "e2d36f62385a3fec"


def test_shortest_loads_no_openssl(cerny4_file):
    # hashlib's `_hashlib` loads OpenSSL's libcrypto, some 3.5 MiB of a
    # process's memory; a fresh interpreter shows what the CLI alone loads
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        pytest.skip("this interpreter has no builtin SHA-256 module")
    proc = _fresh_interpreter("import sys\n"
                              "from syncwords.cli import main\n"
                              f"code = main(['shortest', {cerny4_file!r}, '--mode', 'classic'])\n"
                              "assert code == 0, code\n"
                              "assert '_hashlib' not in sys.modules\n")
    assert "witness_digest=e2d36f62385a3fec" in proc.stdout


def test_only_csv_reports_load_csv(cerny4_file):
    proc = _fresh_interpreter("import sys\n"
                              "from syncwords.cli import main\n"
                              "loaded = []\n"
                              "for fmt in ('text', 'json', 'csv'):\n"
                              f"    code = main(['shortest', {cerny4_file!r}, '--mode', 'classic',\n"
                              "                 '--format', fmt])\n"
                              "    assert code == 0, code\n"
                              "    loaded.append('csv' in sys.modules)\n"
                              "print(loaded)\n")
    assert proc.stdout.splitlines()[-1] == "[False, False, True]"


def test_one_parser_serves_every_call_alike(cerny4_file, capsys):
    # main builds its parser once per process: no call's flags, usage
    # error or --help carry over to the next call, whose output is a fresh
    # interpreter's byte for byte
    from syncwords.cli import _parser
    assert _parser() is _parser()
    argv = ["shortest", cerny4_file, "--mode", "classic"]
    fresh = _fresh_interpreter(f"from syncwords.cli import main\nmain({argv!r})\n").stdout
    assert fresh.startswith("# shortest classic\n")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert (code, json.loads(out)["results"][0]["witness"]) == (0, "baaabaaab")
    assert run_cli(capsys, *argv) == (0, fresh, "")  # text, the default format
    for between, code in ((["shortest", cerny4_file, "--mode", "bogus"], 1),
                          (["shortest", "--help"], 0)):
        assert run_cli(capsys, *between)[0] == code
        assert run_cli(capsys, *argv) == (0, fresh, "")


def _fresh_interpreter(script):
    """Run `script` in a new interpreter that imports this checkout's
    package, so that `sys.modules` shows what the CLI alone loads."""
    src = str(Path(syncwords.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc
