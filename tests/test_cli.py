import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from ribbonminor import (
    EnumerationSpec,
    MinorFamily,
    MinorMove,
    applicable_moves,
    canonicalize,
    format_arp,
    is_equivalent,
    parse_arp,
)
from ribbonminor.cli import _spec, build_parser, main


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_info_nonorientable_loop(tmp_path, capsys):
    path = _write(tmp_path, "g.arp", "e+ e-\n")
    assert main(["info", path]) == 0
    out = capsys.readouterr().out
    assert "V=1 E=1 F=1 c=1 genus=1" in out
    assert "eulerian=yes" in out and "even-face=yes" in out
    assert "cc=no" in out and "bipartite=no" in out and "plane=no" in out


def test_info_isolated_vertex(tmp_path, capsys):
    path = _write(tmp_path, "g.arp", "()\n")
    assert main(["info", path]) == 0
    out = capsys.readouterr().out
    assert "V=1 E=0 F=1" in out and "genus=0" in out


def test_info_triple_loops(tmp_path, capsys):
    path = _write(tmp_path, "g.arp", "a+ b+ c+ a+ b+ c+\n")
    assert main(["info", path]) == 0
    out = capsys.readouterr().out
    assert "genus=2" in out and "cc=yes" in out


def test_contract_emits_arp(tmp_path, capsys):
    path = _write(tmp_path, "g.arp", "e+ e+\n")
    assert main(["contract", "e", path]) == 0
    assert capsys.readouterr().out == "()\n()\n"


def test_pdual_self_dual(tmp_path, capsys):
    path = _write(tmp_path, "g.arp", "e+ e-\n")
    assert main(["pdual", "--edges", "e", path]) == 0
    out = capsys.readouterr().out
    assert is_equivalent(parse_arp(out), parse_arp("(e+ e-)"))


def test_dual_round_trip(tmp_path, capsys):
    path = _write(tmp_path, "g.arp", "a+ b+ a+ b+\n")
    assert main(["dual", path]) == 0
    once = capsys.readouterr().out
    path2 = _write(tmp_path, "h.arp", once)
    assert main(["dual", path2]) == 0
    twice = capsys.readouterr().out
    assert is_equivalent(parse_arp(twice), parse_arp("(a+ b+ a+ b+)"))


def test_split_vertex_odd_distance_error(tmp_path, capsys):
    path = _write(tmp_path, "g.arp", "a+ a+\n")
    assert main(["split-vertex", "0", "0", "1", path]) == 2
    assert "dual distance is odd" in capsys.readouterr().err


def test_parse_error_reports_line(tmp_path, capsys):
    path = _write(tmp_path, "g.arp", "a+ a+\nb%\n")
    assert main(["info", path]) == 2
    assert "line 2" in capsys.readouterr().err


def test_transform_commands(tmp_path, capsys):
    path = _write(tmp_path, "g.arp", "a+ b+\na+\nb+\n")
    assert main(["join", "1", "2", path]) == 0
    assert parse_arp(capsys.readouterr().out).n_vertices == 2
    assert main(["delete-vertex", "0", path]) == 0
    assert capsys.readouterr().out == "()\n()\n"
    assert main(["delete-component", "0", path]) == 0
    assert capsys.readouterr().out == ""
    assert main(["split-face", "0", "0", "0", path]) == 0
    assert parse_arp(capsys.readouterr().out).n_vertices == 4


def test_minor_contained_with_witness(tmp_path, capsys):
    g = _write(tmp_path, "g.arp", "a+ b+ a+ b+\n")
    h = _write(tmp_path, "h.arp", "e+\ne+\n")
    assert main(["minor", g, "--family", "cc", "--target", h]) == 0
    out, err = capsys.readouterr()
    assert "contained" in err
    assert out.strip().startswith("contract")


def test_minor_not_contained(tmp_path, capsys):
    g = _write(tmp_path, "g.arp", "e+ e+\n")
    h = _write(tmp_path, "h.arp", "e+ e-\n")
    assert main(["minor", g, "--family", "cc", "--target", h]) == 1
    assert "not contained" in capsys.readouterr().err


def test_minor_reflexive_empty_witness(tmp_path, capsys):
    g = _write(tmp_path, "g.arp", "e+ e+\n")
    assert main(["minor", g, "--family", "eulerian", "--target", g]) == 0
    out, _ = capsys.readouterr()
    assert out.strip() == ""


def test_verify_t1_one_edge(tmp_path, capsys):
    assert main(["verify", "T1", "--max-edges", "1"]) == 0
    out = capsys.readouterr().out
    assert "checked=3 failures=0" in out


def test_verify_t2_and_t6(capsys):
    assert main(["verify", "T2", "--max-edges", "2"]) == 0
    capsys.readouterr()
    assert main(["verify", "T6", "--max-edges", "2"]) == 0


def test_verify_report_file(tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    assert main(["verify", "cc-closure", "--max-edges", "1", "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert out_path.read_text().endswith("-> PASS\n")


def test_verify_unknown_id(capsys):
    assert main(["verify", "T42"]) == 2
    assert capsys.readouterr().err == (
        "error: unknown id 'T42' (known: T1, T2, T3, T4, T5, T6, T7, C1, C2, C3, C4, cc-closure, "
        "bipartite-closure, genus-contract-delete, genus-eulerian, genus-cc, dual-transport-eulerian, "
        "dual-transport-cc)\n"
    )


_SUBCOMMANDS = ["info", "dual", "pdual", *MinorMove.KINDS, "minor", "verify", "enumerate"]


def _help_texts(parse) -> list[str]:
    texts = []
    for argv in (["--help"], *([cmd, "--help"] for cmd in _SUBCOMMANDS)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_:
            parse(argv)
        assert exit_.value.code == 0
        texts.append(out.getvalue())
    return texts


def test_help_reads_the_move_and_family_tables():
    # the top-level help lists each move subcommand with its description in
    # MinorMove.KINDS, and minor --help names every MinorFamily value
    top, *rest = (" ".join(text.split()) for text in _help_texts(build_parser().parse_args))
    for kind, (_, _, description) in MinorMove.KINDS.items():
        assert f" {kind} {description} " in top
    minor = rest[_SUBCOMMANDS.index("minor")]
    assert " | ".join(f.value for f in MinorFamily) in minor


def test_parser_is_reused_and_unchanged_by_use(capsys):
    # main builds the parser once per process; a second call, and a call
    # after failed ones, read the same parser to the same output
    assert build_parser() is build_parser()
    fresh = build_parser.__wrapped__()
    assert main(["verify", "T1", "--max-edges", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "T1", "--max-edges", "2"]) == 0
    assert capsys.readouterr().out == first and first
    assert main(["verify", "T42"]) == 2
    with pytest.raises(SystemExit) as exit_:
        main(["frobnicate"])
    assert exit_.value.code == 2
    capsys.readouterr()
    assert main(["verify", "T1", "--max-edges", "2"]) == 0
    assert capsys.readouterr().out == first
    assert _help_texts(main) == _help_texts(fresh.parse_args)


def test_enumerate_one_edge(capsys):
    assert main(["enumerate", "--max-edges", "1", "--max-circles", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["(a+ a+)", "(a+ a-)", "(a+)(a+)"]


def test_stdin_input(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("e+ e+\n"))
    assert main(["info"]) == 0
    assert "V=1 E=1 F=2" in capsys.readouterr().out


def test_info_sixteen_edge_single_circle(tmp_path, capsys):
    text = " ".join(f"e{i}+" for i in range(16)) + " " + " ".join(f"e{i}-" for i in range(16))
    path = _write(tmp_path, "g.arp", text + "\n")
    assert main(["info", path]) == 0
    out = capsys.readouterr().out
    assert "V=1 E=16" in out
    canon = out.split("canonical: ", 1)[1].strip()
    assert canonicalize(parse_arp(canon)) == canon


def test_minor_join_family_vertex_limit(tmp_path, capsys):
    path9 = "\n".join(["e0+"] + [f"e{i}+ e{i + 1}+" for i in range(7)] + ["e7+"]) + "\n"
    g = _write(tmp_path, "p9.arp", path9)
    h = _write(tmp_path, "p2.arp", "e+\ne+\n")
    assert main(["minor", g, "--target", h, "--family", "join"]) == 2
    err = capsys.readouterr().err
    assert "join family" in err and "at most 8 vertices" in err and "got 9 vertices" in err
    assert "canonical_key" not in err


def test_info_many_isolated_circles(tmp_path, capsys):
    # empty circles are counted, not searched: 1,100 of them end in a result
    path = _write(tmp_path, "g.arp", "()\n" * 1100)
    assert main(["info", path]) == 0
    out = capsys.readouterr().out
    assert "V=1100 E=0 F=1100" in out
    assert out.endswith("canonical: " + "()" * 1100 + "\n")


def test_info_long_path(tmp_path, capsys):
    # the canonical form does not recurse per circle: a path of 1,100
    # circles ends in a result, not a RecursionError
    n = 1100
    text = "\n".join(["m0+"] + [f"m{i}+ m{i + 1}+" for i in range(n - 2)] + [f"m{n - 2}+"])
    path = _write(tmp_path, "g.arp", text + "\n")
    assert main(["info", path]) == 0
    out = capsys.readouterr().out
    assert f"V={n} E={n - 1}" in out
    assert "canonical: (a+)(a+ b+)(b+ c+)" in out


# one successful move of each kind on a bouquet of two interleaved loops and a
# separate edge
_MOVE_INPUT = "a+ b+ a+ b+\nc+\nc+\n"
_MOVE_PARAMS = {
    "contract": ("a",),
    "delete": ("c",),
    "delete-component": (1,),
    "split-vertex": (0, 0, 2),
    "split-face": (0, 0, 4),
    "join": (0, 1),
    "delete-vertex": (1,),
}


@pytest.mark.parametrize("kind", list(MinorMove.KINDS))
def test_move_subcommand_matches_move_record(kind, tmp_path, capsys, sweep2):
    mv = MinorMove(kind, _MOVE_PARAMS[kind])
    path = _write(tmp_path, "g.arp", _MOVE_INPUT)
    assert main([kind, *map(str, mv.params), path]) == 0
    out, err = capsys.readouterr()
    assert out == format_arp(mv.apply(parse_arp(_MOVE_INPUT))) and err == ""
    # params given as a list apply as the tuple does
    assert MinorMove(kind, list(mv.params)).apply(parse_arp(_MOVE_INPUT)) == mv.apply(parse_arp(_MOVE_INPUT))
    moves = [m for g in sweep2 for fam in MinorFamily for m in applicable_moves(g, fam) if m.kind == kind]
    assert moves
    for m in moves:
        assert MinorMove.parse(str(m)) == m


@pytest.mark.parametrize("kind", list(MinorMove.KINDS))
def test_move_record_is_an_immutable_value(kind):
    import copy
    import pickle

    mv = MinorMove(kind, _MOVE_PARAMS[kind])
    for name in ("kind", "params"):
        with pytest.raises(AttributeError):
            setattr(mv, name, None)
    twin = MinorMove(kind, tuple(_MOVE_PARAMS[kind]))
    assert twin == mv and twin is not mv and hash(twin) == hash(mv)
    # verify._move_check relies on equal moves collapsing in a set and a dict
    assert len({mv, twin}) == 1 and list(dict.fromkeys([mv, twin, mv])) == [mv]
    g = parse_arp(_MOVE_INPUT)
    for copied in (copy.deepcopy(mv), pickle.loads(pickle.dumps(mv))):
        assert type(copied) is MinorMove and copied == mv and copied.apply(g) == mv.apply(g)


def test_bounds_default_to_enumeration_spec():
    parser = build_parser()
    assert _spec(parser.parse_args(["enumerate"])) == EnumerationSpec()
    assert _spec(parser.parse_args(["verify", "T1", "--max-edges", "4"])) == EnumerationSpec(4, 5)
    args = parser.parse_args(["enumerate", "--max-edges", "2", "--max-circles", "2", "--include-disconnected"])
    assert _spec(args) == EnumerationSpec(2, 2, False)


# arbitrary bytes, invalid UTF-8 included, mixed with tokens and line breaks
# so that a fair share of the files parse and reach the graph code
_BYTE_PIECES = st.one_of(
    st.binary(max_size=4),
    st.sampled_from([b"a+", b"a-", b"b+", b"b-", b"()", b"(", b" ", b"\n", b"#", b"\xff", b"\xc3",
                     b"a+ b- a+ b+", b"\nb+ b-\n", b"(a+)(a-)"]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_BYTE_PIECES, max_size=24).map(b"".join))
def test_cli_exits_0_or_2_on_arbitrary_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.arp")
        with open(path, "wb") as fh:
            fh.write(data)
        for argv in (["info", path], ["dual", path], ["pdual", path, "--edges", "a"],
                     ["contract", "a", path]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
            assert rc == 0 or (rc == 2 and out.getvalue() == "" and err.getvalue().startswith("error: ")), (
                argv, data, rc, out.getvalue(), err.getvalue())
