from __future__ import annotations

import json
import sys

import pytest

from snnicheck import explanations
from snnicheck.cli import run_cli
from snnicheck.fixtures import fixture_document

from conftest import record_calls


@pytest.fixture
def net_file(tmp_path):
    def write(name: str):
        path = tmp_path / f"{name}.json"
        path.write_text(fixture_document(name), encoding="utf-8")
        return str(path)
    return write


def test_check_secure_exit_zero(net_file, capsys):
    assert run_cli(["check", "--net", net_file("secure")]) == 0
    out = capsys.readouterr().out
    assert "SNNI" in out and "NOT SNNI" not in out


def test_check_secure_machine_readable(net_file, capsys):
    code = run_cli(["check", "--net", net_file("secure"), "--format", "machine-readable"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["snni"] is True
    assert payload["beta_matched"] == ["beta_1"]
    assert payload["alpha_matched"] == ["alpha_1"]
    assert payload["sizes"]["reachable_markings"] == 9
    for key in ("alpha_tags", "beta_tags", "missing_alpha", "missing_beta",
                "witness_words", "leaked_word", "sizes", "timings", "cap",
                "assumptions", "spurious_tags"):
        assert key in payload


def test_check_leaky_exit_one_with_leak(net_file, capsys):
    code = run_cli(["check", "--net", net_file("leaky"), "--format", "machine-readable"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["snni"] is False
    assert payload["missing_beta"] == ["beta_1"]
    assert payload["leaked_word"] == ["a", "c"]
    assert payload["witness_words"]["beta_1"] == ["a", "c", "a"]


def test_check_unbounded_exit_two(net_file, capsys):
    assert run_cli(["check", "--net", net_file("unbounded")]) == 2
    assert "unbounded" in capsys.readouterr().err


def test_check_cyclic_high_exit_two(net_file, capsys):
    assert run_cli(["check", "--net", net_file("cyclic-high")]) == 2
    assert "cycle" in capsys.readouterr().err


def test_oracle_command_agrees_with_check(net_file):
    for name, expected in (("secure", 0), ("leaky", 1), ("sync-period-two", 0)):
        path = net_file(name)
        assert run_cli(["check", "--net", path]) == expected
        assert run_cli(["oracle", "--net", path]) == expected
    # Unbounded nets are refused by both routes.
    assert run_cli(["oracle", "--net", net_file("unbounded")]) == 2


def test_oracle_tolerates_cyclic_high_subnet(net_file, capsys):
    # The brute-force route only needs boundedness; the basis pipeline also
    # needs the high subnet acyclic, so the two commands diverge here.
    path = net_file("cyclic-high")
    assert run_cli(["oracle", "--net", path]) in (0, 1)
    capsys.readouterr()
    assert run_cli(["check", "--net", path]) == 2


def test_oracle_machine_readable(net_file, capsys):
    assert run_cli(["oracle", "--net", net_file("leaky"), "--format", "machine-readable"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"snni": False, "counterexample": ["a", "c"]}


def test_exports_write_files(net_file, tmp_path):
    path = net_file("secure")
    for kind in ("brg", "ubrg", "sv", "reach"):
        out = tmp_path / f"{kind}.dot"
        assert run_cli([kind, "--net", path, "--out", str(out)]) == 0
        assert out.read_text().startswith("digraph")


def test_info_command(net_file, capsys):
    assert run_cli(["info", "--net", net_file("secure")]) == 0
    assert "9 reachable" in capsys.readouterr().out
    assert run_cli(["info", "--net", net_file("unbounded")]) == 2
    assert "unbounded" in capsys.readouterr().out


def test_info_machine_readable(net_file, capsys):
    # The whole payload of each outcome: the flags are read off the facts beside them.
    passing = {"ok": True, "bounded": True, "reachable_markings": 9, "domination_witness": None,
               "high_subnet_acyclic": True, "high_cycle": None, "cap": 100000}
    outcomes = [
        ("secure", [], 0, passing),
        ("unbounded", [], 2, {**passing, "ok": False, "bounded": False, "reachable_markings": None,
                              "domination_witness": {"path": ["t"], "pump_start": 0}}),
        ("cyclic-high", [], 2, {**passing, "ok": False, "reachable_markings": 2,
                                "high_subnet_acyclic": False,
                                "high_cycle": ["p", "ha", "q", "hb", "p"]}),
        ("secure", ["--cap", "2"], 2, {**passing, "ok": False, "bounded": None,
                                       "reachable_markings": None, "cap": 2}),
    ]
    for name, extra, code, expected in outcomes:
        argv = ["info", "--net", net_file(name), "--format", "machine-readable", *extra]
        assert run_cli(argv) == code, (name, extra)
        captured = capsys.readouterr()
        assert json.loads(captured.out) == expected, (name, extra)
        assert captured.err == ""


def test_explain_command(net_file, capsys):
    assert run_cli(["explain", "--net", net_file("secure"), "--transition", "l1",
                    "--format", "machine-readable"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["minimal_e_vectors"] == {"l1": [[1, 0]]}
    assert payload["high_transitions"] == ["h1", "h2"]


def test_explain_all_low_transitions_at_marking(net_file, capsys):
    assert run_cli(["explain", "--net", net_file("secure"),
                    "--marking", "1 0 0 0 0 0 0 0 0",
                    "--format", "machine-readable"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["minimal_e_vectors"]["l5"] == [[0, 0]]
    assert payload["minimal_e_vectors"]["l2"] == []


def test_explain_answers_every_low_transition_from_one_search(net_file, capsys, monkeypatch):
    searches = record_calls(monkeypatch, explanations, ("_high_runs",))
    assert run_cli(["explain", "--net", net_file("secure")]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 9
    assert searches == ["_high_runs"]


def test_explain_malformed_marking(net_file, capsys):
    assert run_cli(["explain", "--net", net_file("secure"), "--marking", "1 x"]) == 2
    assert "malformed marking" in capsys.readouterr().err


def test_gen_demo_roundtrip(tmp_path, capsys):
    out = tmp_path / "net.json"
    assert run_cli(["gen", "--demo", "secure", "--out", str(out)]) == 0
    assert out.read_text() == fixture_document("secure")


def test_gen_seeded_deterministic(capsys):
    assert run_cli(["gen", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert run_cli(["gen", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert payload["schema_version"] == "1"


def test_gen_requires_exactly_one_source(capsys):
    assert run_cli(["gen"]) == 2
    assert run_cli(["gen", "--seed", "1", "--demo", "secure"]) == 2


def test_options_a_command_does_not_read_are_refused(net_file, capsys):
    # gen reads neither --cap nor --format; the graph exports write DOT only.
    path = net_file("secure")
    for argv in (["gen", "--demo", "secure", "--cap", "0"],
                 ["gen", "--demo", "secure", "--format", "text"],
                 *([graph, "--net", path, "--format", "machine-readable"]
                   for graph in ("brg", "ubrg", "sv", "reach"))):
        with pytest.raises(SystemExit) as refused:
            run_cli(argv)
        assert refused.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_cap_exhaustion_exit_two(net_file, capsys):
    assert run_cli(["check", "--net", net_file("secure"), "--cap", "2"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_missing_file_exit_two(capsys):
    assert run_cli(["check", "--net", "/nonexistent/net.json"]) == 2


def test_malformed_document_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{", encoding="utf-8")
    assert run_cli(["check", "--net", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_deeply_nested_document_exit_two(tmp_path, capsys):
    # Text the JSON decoder cannot turn into a document is refused with
    # exit 2, not the NOT SNNI exit 1, and without a traceback.
    documents = [("[" * 100_000, "error: invalid JSON: nesting too deep\n")]
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        documents.append(("9" * (limit + 1),
                          f"error: invalid JSON: an integer has more than {limit} digits\n"))
    path = tmp_path / "undecodable.json"
    for text, stderr in documents:
        path.write_text(text, encoding="utf-8")
        assert run_cli(["check", "--net", str(path)]) == 2
        assert capsys.readouterr().err == stderr


@pytest.mark.parametrize("command", ["check", "oracle", "brg", "reach", "info", "explain"])
@pytest.mark.parametrize("cap", ["0", "-3"])
def test_non_positive_cap_is_rejected(net_file, capsys, command, cap):
    assert run_cli([command, "--net", net_file("secure"), "--cap", cap]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: exploration cap must be positive, got {cap}\n"
    assert captured.out == ""
