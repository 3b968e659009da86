import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import lpdm

from lpdm.cli import _TABLE, CommandResult, _envelope, _read as read, _writers, main, run
from lpdm.jsonio import parse_spec, spec_json


def payload_of(capsys):
    out, err = capsys.readouterr()
    envelope = json.loads(out.strip().splitlines()[0])
    return envelope, err


def test_run_returns_result_without_printing(capsys):
    res = run(["order", "rank", '{"n": 4, "S": [2, 3, 4]}'])
    assert isinstance(res, CommandResult)
    assert res.status == "ok" and res.exit_code == 0
    assert res.payload == {"rank": 9}
    assert capsys.readouterr().out == ""


def test_order_leq_and_chains(capsys):
    assert main(["order", "leq", '{"n": 5, "S": [3, 4], "T": [2, 3, 5]}']) == 0
    envelope, _ = payload_of(capsys)
    assert envelope == {"status": "ok", "payload": {"leq": True}}

    assert main(["order", "chains", '{"n": 6, "S": [1, 3, 5], "T": [1, 3, 5, 6]}']) == 0
    envelope, _ = payload_of(capsys)
    assert envelope["payload"] == {"count": 61}


def test_matroid_feasible_worked(capsys):
    assert main(["matroid", "feasible", '{"n": 3, "S": [1], "T": [1, 3]}']) == 0
    envelope, _ = payload_of(capsys)
    assert envelope["payload"] == {
        "ground": [1, 2, 3],
        "members": [[1], [2], [3], [1, 2], [1, 3]],
        "count": 5,
        "spec": {"n": 3, "S": [1], "T": [1, 3]},
    }


def test_matroid_sum_worked(capsys):
    doc = '{"first": {"n": 1, "S": [1], "T": [1]}, "second": {"ground": [2], "S": [], "T": [2]}}'
    assert main(["matroid", "sum", doc]) == 0
    envelope, _ = payload_of(capsys)
    assert envelope["payload"] == {"spec": {"n": 2, "S": [1], "T": [1, 2]}}


def test_path_round_trip(capsys):
    assert main(["path", "encode", '{"n": 5, "S": [2, 3, 4]}']) == 0
    envelope, _ = payload_of(capsys)
    assert envelope["payload"] == {"word": "ENNNENEEEN"}

    assert main(["path", "decode", '{"word": "ENNNENEEEN"}']) == 0
    envelope, _ = payload_of(capsys)
    assert envelope["payload"] == {"S": [2, 3, 4], "n": 5}


def test_tri_volume_and_label(capsys):
    assert main(["tri", "volume", '{"n": 3, "S": [1], "T": [1, 3]}']) == 0
    envelope, _ = payload_of(capsys)
    assert envelope["payload"] == "1/3"

    assert main(["tri", "label", '{"perm": [3, 2, 5, 4, 6, 1]}']) == 0
    envelope, _ = payload_of(capsys)
    assert envelope["payload"] == {"S": [2, 4, 5], "n": 6}


def test_matroid_envelope_at_n1200(capsys):
    assert main(["matroid", "envelope", '{"n": 1200, "S": [], "T": []}']) == 0
    envelope, _ = payload_of(capsys)
    assert envelope["status"] == "ok" and envelope["payload"]["count"] == 1


def test_matroid_component_of_the_40_cube(capsys):
    spec = json.dumps({"n": 40, "S": [], "T": list(range(1, 41)), "k": 3})
    res = run(["matroid", "component", spec])
    assert res.exit_code == 0 and res.milliseconds < 1000
    assert res.payload["component"]["S"] == [1, 2, 3]
    assert res.payload["component"]["T"] == [38, 39, 40]


def test_matroid_axiom_on_the_12_cube(capsys):
    spec = json.dumps({"n": 12, "S": [], "T": list(range(1, 13))})
    assert main(["matroid", "axiom", spec]) == 0
    envelope, _ = payload_of(capsys)
    assert envelope == {"status": "ok", "payload": {"holds": True, "witness": None}}


def test_tri_volume_of_the_60_cube(capsys):
    spec = json.dumps({"n": 60, "S": [], "T": list(range(1, 61))})
    assert main(["tri", "volume", spec]) == 0
    envelope, _ = payload_of(capsys)
    assert envelope == {"status": "ok", "payload": "1/1"}


def test_tri_simplices_at_n11(capsys):
    assert main(["tri", "simplices", '{"n": 11, "S": [], "T": [11]}']) == 0
    envelope, _ = payload_of(capsys)
    assert envelope["payload"]["count"] == 1
    assert envelope["payload"]["simplices"][0]["perm"] == list(range(1, 12))


def test_oracle_count_dilation(capsys):
    assert main(["oracle", "count", '{"n": 3, "S": [], "T": [1, 2, 3]}', "--t", "2"]) == 0
    envelope, _ = payload_of(capsys)
    assert envelope["payload"] == {"t": 2, "count": 27}


def test_oracle_member_and_contains(capsys):
    doc = '{"n": 2, "S": [], "T": [1, 2], "x": ["1/2", "1/2"]}'
    assert main(["oracle", "member", doc]) == 0
    envelope, _ = payload_of(capsys)
    assert envelope["payload"] == {"member": True}

    assert main(["polytope", "contains", doc]) == 0
    envelope, _ = payload_of(capsys)
    assert envelope["payload"] == {"contains": True}


def test_polytope_intersect_worked(capsys):
    doc = '{"first": {"n": 2, "S": [], "T": [2]}, "second": {"n": 2, "S": [1], "T": [1, 2]}}'
    assert main(["polytope", "intersect", doc]) == 0
    envelope, _ = payload_of(capsys)
    assert envelope["payload"] == {"spec": {"n": 2, "S": [1], "T": [2]}}


def test_catalan_worked(capsys):
    assert main(["catalan", "2"]) == 0
    envelope, _ = payload_of(capsys)
    assert envelope["payload"] == {
        "n": 2,
        "count": 6,
        "spec": {"n": 4, "S": [], "T": [1, 3]},
    }


def test_catalan_counts_without_listing(capsys):
    # binomial(24, 12) sets: listing them took over a minute, counting is O(n^2)
    assert main(["catalan", "12"]) == 0
    envelope, _ = payload_of(capsys)
    assert envelope["payload"] == {
        "n": 12,
        "count": 2704156,
        "spec": {"n": 24, "S": [], "T": list(range(1, 24, 2))},
    }


def test_an_answer_json_cannot_write_ends_in_one_too_large_envelope(capsys):
    # past a limit of 640 on int-to-str conversion (4,300 by default): the catalan count has 661 digits,
    # and the volume of the cell [{}, {330}] is 1/330!, whose denominator has 684
    for argv in (["catalan", "1100"], ["tri", "volume", '{"n":330,"S":[],"T":[330]}']):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code = main(argv)
        finally:
            sys.set_int_max_str_digits(limit)
        lines = capsys.readouterr().out.splitlines()
        assert code == 1 and len(lines) == 1, argv
        envelope = json.loads(lines[0])
        assert envelope["status"] == "error" and envelope["error"]["code"] == "too-large", argv


def test_domain_error_exit_one(capsys):
    assert main(["matroid", "delete", '{"n": 2, "S": [2], "T": [2], "element": 2}']) == 1
    envelope, _ = payload_of(capsys)
    assert envelope["status"] == "error"
    assert envelope["error"]["code"] == "domain"
    assert "coloop" in envelope["error"]["message"]

    assert main(["tri", "label", '{"perm": []}']) == 1  # no cell on the empty ground
    envelope, _ = payload_of(capsys)
    assert envelope["status"] == "error" and envelope["error"]["code"] == "domain"

    assert main(["tri", "subdivide", '{"n": 0, "S": [], "T": []}']) == 1
    envelope, _ = payload_of(capsys)
    assert envelope["error"] == {"code": "domain", "message": "no cell lives on the empty ground"}

    facet = '{"n": 0, "S": [], "T": [], "facet": {"kind": "suffix", "i": 1, "side": "upper"}}'
    assert main(["polytope", "face", facet]) == 1
    envelope, _ = payload_of(capsys)
    assert envelope["error"] == {"code": "domain", "message": "the point polytope on the empty ground has no facet"}


def test_order_error_exit_one(capsys):
    assert main(["order", "chains", '{"n": 3, "S": [1, 2], "T": [3]}']) == 1
    envelope, _ = payload_of(capsys)
    assert envelope["error"]["code"] == "order"


def test_usage_error_exit_two(capsys):
    assert main(["order", "leq", "not json"]) == 2
    envelope, _ = payload_of(capsys)
    assert envelope["error"]["code"] == "usage"

    assert main(["matroid", "feasible", '{"n": 3, "S": [1]}']) == 2
    envelope, _ = payload_of(capsys)
    assert envelope["error"]["code"] == "usage"


def test_bad_subcommand_exits_two(capsys):
    for argv in (["bogus"], []):
        assert main(argv) == 2
        envelope, _ = payload_of(capsys)
        assert envelope["status"] == "error" and envelope["error"]["code"] == "usage"
        # the message lists the argv form of every action
        assert "lpdm order leq json | " in envelope["error"]["message"]
        assert envelope["error"]["message"].endswith(" | lpdm selftest --max-n=5")


def test_stdout_deterministic(capsys):
    args = ["matroid", "feasible", '{"n": 5, "S": [1, 3], "T": [2, 3, 5]}']
    assert main(args) == 0
    first, err1 = capsys.readouterr()
    assert main(args) == 0
    second, err2 = capsys.readouterr()
    assert first.splitlines()[0] == second.splitlines()[0]
    assert err1.strip().endswith("ms")


def test_golden_corpus_is_byte_identical(tmp_path, monkeypatch, capsys):
    # each key is a JSON-encoded argv; render writes under perfbench/out
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
    corpus = json.loads(golden.read_text(encoding="utf-8"))
    assert len(corpus) == 41
    monkeypatch.chdir(tmp_path)
    (tmp_path / "perfbench" / "out").mkdir(parents=True)
    for key, want in corpus.items():
        code = main(json.loads(key))
        out = capsys.readouterr().out
        assert (code, out.encode()) == (want["exit"], want["stdout"].encode()), key


def test_render_writes_svg(tmp_path, capsys):
    target = tmp_path / "diagram.svg"
    assert main(["render", '{"n": 3, "S": [1], "T": [2, 3]}', "--svg", str(target)]) == 0
    envelope, _ = payload_of(capsys)
    assert envelope["payload"]["written"] == str(target)
    text = target.read_text(encoding="utf-8")
    assert text.startswith("<svg ") and envelope["payload"]["bytes"] == len(text.encode())


def test_render_into_missing_directory_is_io_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.svg"
    assert main(["render", '{"n": 3, "S": [1], "T": [2, 3]}', "--svg", str(target)]) == 1
    envelope, _ = payload_of(capsys)
    assert envelope["status"] == "error" and envelope["error"]["code"] == "io"
    assert not target.exists()


def test_cli_import_leaves_selftest_unloaded():
    src = str(Path(lpdm.__file__).resolve().parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); import lpdm.cli; "
        "print(sorted({'lpdm.selftest', 'concurrent.futures', 'dataclasses'} & (set(sys.modules) - before))); "
        "print(sorted(m for m in sys.modules if m.startswith('lpdm')))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "['lpdm', 'lpdm.cli', 'lpdm.errors']"]


@pytest.mark.parametrize(
    "argv",
    [
        ["matroid", "feasible", '{"n":18,"S":[],"T":[18]}'],  # 2^17 sets: far more than a pipe buffer
        ["order", "leq", '{"n":3,"S":[1],"T":[2]}'],
        ["order", "leq", "{"],
    ],
)
def test_a_closed_stdout_ends_without_a_traceback(argv):
    src = str(Path(lpdm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "lpdm.cli", *argv]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.close()  # the reader is gone before the envelope is written
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    assert "lpdm:" in err and " ms" in err


def _imported(src, code, *args):
    """``sys.modules`` of a new interpreter as it exits after running
    ``code`` with ``args`` (so an ``importlib`` import counts as well);
    the exit code; stdout."""
    env = {**os.environ, "PYTHONPATH": src}
    hook = "import atexit, sys; atexit.register(lambda: print('modules:', *sys.modules, file=sys.stderr)); "
    proc = subprocess.run([sys.executable, "-c", hook + code, *args], capture_output=True, text=True, timeout=60, env=env)
    names = next(line.split()[1:] for line in proc.stderr.splitlines() if line.startswith("modules:"))
    return set(names), proc.returncode, proc.stdout


# one call per group (polytope twice: with and without a rational input) and the
# lpdm modules it loads, besides the root
_SPEC = '{"n":5,"S":[1],"T":[3,5]}'
_LOADS = {
    "order": (["order", "interval", _SPEC], "errors jsonio subsets"),
    "path": (["path", "encode", '{"n":6,"S":[1,4,6]}'], "errors jsonio paths subsets"),
    "matroid": (["matroid", "dual", _SPEC], "errors jsonio matroid subsets"),
    "polytope": (
        ["polytope", "contains", '{"n":5,"S":[1],"T":[3,5],"x":["1/2","0","1/3","0","1"]}'],
        "errors jsonio matroid polytope subsets",
    ),
    "polytope-hrep": (["polytope", "hrep", _SPEC], "errors jsonio matroid polytope subsets"),
    "tri": (["tri", "volume", '{"n":6,"S":[],"T":[5,6]}'], "errors jsonio matroid perms polytope subsets triangulate"),
    "oracle": (["oracle", "volume", '{"n":6,"S":[],"T":[5,6]}'], "errors jsonio matroid oracle polytope subsets"),
    "catalan": (["catalan", "3"], "errors jsonio matroid subsets"),
    "render": (["render", '{"n":3,"S":[1],"T":[2,3]}', "--svg"], "errors jsonio matroid paths subsets"),
}


@pytest.mark.parametrize("group", list(_LOADS))
def test_a_call_loads_only_its_modules(group, tmp_path):
    src = str(Path(lpdm.__file__).resolve().parents[1])
    argv, modules = _LOADS[group]
    if group == "render":
        argv = [*argv, str(tmp_path / "out.svg")]
    startup, _, _ = _imported(src, "pass")
    # as ``python -m lpdm.cli``
    names, code, out = _imported(src, "import runpy; runpy.run_module('lpdm.cli', run_name='__main__', alter_sys=True)", *argv)
    assert code == 0 and json.loads(out)["status"] == "ok"
    # lpdm.cli runs as __main__, so it is not imported under its own name
    assert {m for m in names if m.split(".")[0] == "lpdm"} == {"lpdm"} | {f"lpdm.{m}" for m in modules.split()}
    if "dataclasses" not in startup:
        assert "dataclasses" not in names
    # commands that read and write no rational leave ``fractions`` unloaded
    if group in ("order", "path", "polytope-hrep"):
        assert "fractions" in startup or "fractions" not in names


def test_selftest_smallest_cap(capsys):
    assert main(["selftest", "--max-n", "1"]) == 0
    envelope, err = payload_of(capsys)
    payload = envelope["payload"]
    assert payload["max_n"] == 1 and payload["passed"] is True
    assert all(c["passed"] for c in payload["checks"])
    assert len(payload["checks"]) >= 20
    # progress table goes to stderr, one row per check plus the tally
    assert "checks passed" in err


# Random small documents for every group and action: mostly well-typed
# fields, now and then a value of the wrong type.  Grounds stay at n <= 4
# and integers stay small, so no answer is exponential in size.
_small = st.integers(-1, 4)
_ints = st.lists(_small, max_size=4)
_words = st.text("EN", max_size=6)


def _subset(n):
    return st.integers(0, 2**n - 1).map(lambda bits: [i + 1 for i in range(n) if bits >> i & 1])


_spec = st.integers(0, 4).flatmap(
    lambda n: st.fixed_dictionaries({"n": st.just(n), "S": _subset(n), "T": _subset(n)})
)
_junk = st.none() | st.booleans() | st.text(max_size=3) | _ints | _spec
_fields = {
    "k": _small,
    "element": _small,
    "x": st.lists(st.sampled_from((0, 1, -1, "1/2", "-1/3", "2/0", "x")), max_size=4),
    "perm": st.integers(0, 4).flatmap(lambda m: st.permutations(range(1, m + 1))),
    "word": _words,
    "P": _words,
    "Q": _words,
    "first": _spec,
    "second": _spec,
    "facet": st.fixed_dictionaries({
        "kind": st.sampled_from(("coordinate", "suffix", "edge")),
        "i": _small,
        "value": _small,
        "side": st.sampled_from(("lower", "upper", "left")),
    }),
}
_doc = st.builds(
    lambda spec, fields, junk: {**spec, **fields, **junk},
    _spec,
    st.fixed_dictionaries(_fields),
    st.dictionaries(st.sampled_from(("n", "S", "T", "ground", *_fields)), _junk, max_size=1),
)


def _doc_rows() -> dict:
    """Every table row that reads a JSON document: its test id, and the
    argv words before and after the document (render writes to the null device)."""
    rows = {}
    for group, action, _, _, _, form in _TABLE:
        if "json" not in form.split():
            continue  # catalan and selftest read no document
        words = [group, action] if action else [group]
        rows["-".join(words)] = (words, ["--svg", os.devnull] if group == "render" else [])
    return rows


_DOC_ROWS = _doc_rows()


@pytest.mark.parametrize("row", list(_DOC_ROWS))
@settings(max_examples=10, deadline=None, derandomize=True)
@given(doc=_doc)
def test_every_document_gets_an_envelope(row, doc):
    words, flags = _DOC_ROWS[row]
    res = run([*words, json.dumps(doc), *flags])
    assert res.exit_code in (0, 1, 2)
    assert (res.status == "ok") == (res.exit_code == 0)
    if res.status == "error":
        assert sorted(res.payload) == ["code", "message"]
        assert all(isinstance(v, str) for v in res.payload.values())
    _envelope(res.status, res.payload)  # main writes it


# Documents the JSON decoder cannot read: nesting past its recursion limit
# (bare, or inside a field no command reads), and an integer past Python's
# limit on digits for an int-from-string conversion.  100,000 levels are far
# past the decoder's limit on every interpreter: the recursion limit (1,000)
# through 3.11, the C recursion limit (at most 10,000) from 3.12 on.
_UNREADABLE = (
    "[" * 100000,
    '{"n":3,"S":[],"T":[],"pad":' + "[" * 100000 + "]" * 100000 + "}",
    '{"n":1' + "0" * 5000 + ',"S":[]}',
)


def test_unreadable_documents_get_a_usage_envelope():
    for row, (words, flags) in _DOC_ROWS.items():
        for doc in _UNREADABLE:
            res = run([*words, doc, *flags])
            assert (res.status, res.exit_code, res.payload["code"]) == ("error", 2, "usage"), (row, doc[:20])
            assert res.payload["message"].startswith("input is not valid JSON: ")


def _unbuilt(*_):
    raise AssertionError("a value was built from the spec")


def test_a_bad_field_is_reported_before_any_value_is_built(monkeypatch):
    # the 40-cube has 2^40 vertices and as many feasible sets
    for target in ("polytope.hrep", "polytope.vertex_set", "matroid.feasible_sets"):
        monkeypatch.setattr(f"lpdm.{target}", _unbuilt)
    cube = {"n": 40, "S": [], "T": list(range(1, 41))}
    for argv, message in (
        (["oracle", "member", {**cube, "x": "1/2"}], "field 'x' must be an array of rationals"),
        (["polytope", "contains", {**cube, "x": [True]}], "not a rational: True"),
        (["matroid", "project", {**cube, "element": "1"}], "field 'element' must be an integer"),
    ):
        res = run([*argv[:2], json.dumps(argv[2])])
        assert (res.exit_code, res.payload) == (2, {"code": "usage", "message": message})


def test_read_builds_each_word_as_the_library_does():
    def _read(word, doc):
        return read(word, doc, lambda: parse_spec(doc))

    m = lpdm.LpdmSpec.of(3, {1}, {2, 3})
    doc = {**spec_json(m), "first": {"n": 1, "S": [], "T": []}, "k": 2, "x": ["1/2", 0, 1]}
    assert _read("spec", doc) == m and _read("first", doc) == lpdm.LpdmSpec.of(1)
    assert _read("S", doc) == m.lower_mask() == _read("lower", doc)
    assert _read("T", doc) == m.upper_mask() == _read("upper", doc)
    assert _read("hrep", doc) == lpdm.hrep(m)
    assert _read("vertices", doc) == lpdm.vertex_set(m)
    assert _read("family", doc) == lpdm.feasible_sets(m)
    assert _read("k", doc) == 2 and _read("x", doc) == (Fraction(1, 2), 0, 1)
    assert _read("word", {"word": "EN"}) == lpdm.PathWord("EN")
    assert _read("perm", {"perm": [2, 1]}) == lpdm.Permutation((2, 1))
    with pytest.raises(KeyError):
        _read("nonesuch", doc)


def test_tri_label_reads_perm_as_an_integer_array():
    res = run(["tri", "label", '{"perm": [2, true]}'])
    assert (res.exit_code, res.payload) == (2, {"code": "usage", "message": "field 'perm' must be an array of integers"})


def test_a_coordinate_facet_reads_its_value_as_an_integer():
    doc = '{{"n":4,"S":[1],"T":[2,4],"facet":{{"kind":"coordinate","i":2,"value":{}}}}}'
    res = run(["polytope", "face", doc.format("1")])
    assert (res.exit_code, res.payload["kind"]) == (0, "coordinate-1")
    res = run(["polytope", "face", doc.format("1.0")])
    assert (res.exit_code, res.payload) == (2, {"code": "usage", "message": "coordinate facet needs 'value' 0 or 1"})


def test_a_face_payload_names_its_facet():
    coordinate = {"n": 5, "S": [1, 3], "T": [2, 3, 5], "facet": {"kind": "coordinate", "i": 3, "value": 1}}
    suffix = {"n": 2, "S": [], "T": [1, 2], "facet": {"kind": "suffix", "i": 2, "side": "lower"}}
    for doc, kind, count in ((coordinate, "coordinate-1", 9), (suffix, "suffix-lower", 2)):
        res = run(["polytope", "face", json.dumps(doc)])
        assert (res.exit_code, res.payload["kind"], len(res.payload["family"]["members"])) == (0, kind, count)


def test_writers_shape_the_rare_results():
    m = lpdm.LpdmSpec.of(3, {1}, {2, 3})
    w = _writers()
    assert w["spec"](m) == {"spec": spec_json(m)} and w["spec"](None) == {"spec": None}
    assert w["component"](None, m, 7) == {"k": 7, "component": None}
    # a layer lists S and T in ground order
    relabelled = lpdm.relabel(lpdm.LpdmSpec.of(4, {1}, {2, 3, 4}), (40, 10, -3, 7))
    assert w["component"](lpdm.homogeneous_component(relabelled, 2), relabelled, 2) == {
        "k": 2,
        "component": {"ground": [40, 10, -3, 7], "k": 2, "S": [40, 10], "T": [-3, 7]},
    }
    assert w["hrep"](lpdm.hrep(lpdm.LpdmSpec.of(3, {1}, {1, 3}))) == {"n": 3, "a": [1, 0, 0], "b": [2, 1, 1]}
    assert w["simplices"](lpdm.triangulate_toric(lpdm.LpdmSpec.of(3, {1}, {1, 3}))) == {
        "count": 2,
        "simplices": [
            {"vertices": [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 0, 1]], "perm": [1, 3, 2]},
            {"vertices": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1]], "perm": [3, 1, 2]},
        ],
    }
    assert w["witness"](None) == {"holds": True, "witness": None}
    assert w["witness"]((frozenset({2, 1}), frozenset(), 1)) == {
        "holds": False,
        "witness": {"first": [1, 2], "second": [], "element": 1},
    }
    # a rational stays a Fraction until the envelope writes it
    assert w["rational"](Fraction(4, 6)) == Fraction(2, 3)
    assert _envelope("ok", Fraction(4, 6)) == '{"payload":"2/3","status":"ok"}'
    assert _envelope("ok", Fraction(3)) == '{"payload":"3/1","status":"ok"}'
    assert _envelope("ok", Fraction(-1, 2)) == '{"payload":"-1/2","status":"ok"}'


def _bit_by_bit(masks, labels):
    return [[labels[i] for i in range(len(labels)) if x >> i & 1] for x in masks]


@pytest.mark.parametrize(
    "argv, tables",
    [
        (["order", "interval", '{"n": 12, "S": [], "T": [1,2,3,4,5,6,7,8,9,10,11,12]}'], True),
        (["matroid", "feasible", json.dumps({"ground": [9, -4, 17, 0, 230, 5, -61, 8, 3, 44], "S": [], "T": [3, 44]})], True),
        (["order", "covers", '{"n": 30, "S": [2, 7, 19, 29]}'], False),
        (["matroid", "feasible", json.dumps({"ground": list(range(101, 131)), "S": [128], "T": [101, 129, 130]})], False),
        (["order", "interval", '{"n":1200,"S":[],"T":[1200]}'], False),
    ],
    ids=["interval-n12", "feasible-signed-n10", "covers-n30", "feasible-n30", "interval-n1200"],
)
def test_member_lists_equal_bit_by_bit_spelling(argv, tables):
    # every member list the CLI writes goes through jsonio.member_lists; on up to 24 labels a family at least
    # as large as a half table is read from the tables, otherwise each mask is spelled bit by bit
    res = run(argv)
    assert res.exit_code == 0, res.payload
    doc = json.loads(argv[2])
    if argv[1] == "feasible":
        spec = parse_spec(doc)
        masks, labels, listed = lpdm.feasible_sets(spec)._masks, spec.ground, res.payload["members"]
    else:
        s = lpdm.SubsetMask(doc["n"], doc["S"])
        out = lpdm.interval(s, lpdm.SubsetMask(doc["n"], doc["T"])) if argv[1] == "interval" else lpdm.cover_successors(s)
        masks, labels = [x.bits for x in out], tuple(range(1, doc["n"] + 1))
        listed = res.payload["members" if argv[1] == "interval" else "successors"]
    assert tables == (len(labels) <= 24 and 1 << (len(labels) + 1) // 2 <= len(masks))
    assert res.payload["count"] == len(masks) > 1
    assert listed == _bit_by_bit(masks, labels)


# argv that no table row takes, each run as an explicit example: no words,
# an unknown group or action, a missing document, an extra word, a repeated
# or valueless flag, render without --svg, -h and --help at each level, n,
# --t and --max-n that are not integers, and an abbreviated flag
_NO_ROW = (
    [], ["bogus"], ["order", "nope", "{}"], ["order", "leq"], ["catalan"],
    ["order", "leq", "{}", "extra"], ["oracle", "count", "{}", "--t", "1", "--t=2"], ["oracle", "count", "{}", "--t"],
    ["render", '{"n":1,"S":[],"T":[1]}'], ["render", "{}", "--png", "x.png"],
    ["-h"], ["--help"], ["order"], ["order", "-h"], ["order", "leq", "-h"], ["catalan", "-h"], ["selftest", "--help"],
    ["catalan", "x"], ["catalan", "1.5"], ["oracle", "count", "{}", "--t", "abc"], ["selftest", "--max-n", "1.5"],
    ["selftest", "--max", "1"],
)

# Random values for the argv flags, kept within bounds whose answers stay
# small: catalan's n, oracle count's --t on specs with n <= 4 (after the
# document, before it, or as --t=value), selftest's --max-n below its
# minimum, and render --svg into a directory that exists and into one that
# does not.
_flag_argv = st.one_of(
    st.integers(-3, 12).map(lambda n: ["catalan", str(n)]),
    st.builds(lambda spec, t: ["oracle", "count", json.dumps(spec), "--t", str(t)], _spec, st.integers(-2, 4)),
    st.builds(lambda spec, t: ["oracle", "count", "--t", str(t), json.dumps(spec)], _spec, st.integers(-2, 4)),
    st.builds(lambda spec, t: ["oracle", "count", json.dumps(spec), f"--t={t}"], _spec, st.integers(-2, 4)),
    st.integers(-2, 0).map(lambda k: ["selftest", "--max-n", str(k)]),
    st.builds(lambda spec, to: ["render", json.dumps(spec), "--svg", to], _spec, st.sampled_from(("x.svg", "missing/x.svg"))),
)


@settings(max_examples=100, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_flag_argv)
def test_every_flag_value_gets_an_envelope(argv, tmp_path, capsys):
    if argv[-2:-1] == ["--svg"]:
        argv = argv[:-1] + [str(tmp_path / argv[-1])]
    code = main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert code in (0, 1, 2) and len(lines) == 1, argv
    envelope = json.loads(lines[0])
    if code == 0:
        assert sorted(envelope) == ["payload", "status"] and envelope["status"] == "ok", argv
    else:
        assert sorted(envelope) == ["error", "status"] and envelope["status"] == "error", argv
        assert sorted(envelope["error"]) == ["code", "message"], argv
        assert all(isinstance(v, str) for v in envelope["error"].values()), argv
    if argv in _NO_ROW:
        assert (code, envelope["error"]["code"]) == (2, "usage"), argv


for _argv in _NO_ROW:
    test_every_flag_value_gets_an_envelope = example(argv=_argv)(test_every_flag_value_gets_an_envelope)
