import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import lpdm

from lpdm.cli import _HANDLERS, CommandResult, main, run


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
    assert main(["bogus"]) == 2
    assert main([]) == 2
    capsys.readouterr()


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


def _imported(argv, src):
    """Modules a new interpreter imports while it runs ``argv``, from
    ``-X importtime``; the exit code; stdout."""
    env = {**os.environ, "PYTHONPATH": src}
    cmd = [sys.executable, "-X", "importtime", *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, env=env)
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    return names, proc.returncode, proc.stdout


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
    startup, _, _ = _imported(["-c", "pass"], src)
    names, code, out = _imported(["-m", "lpdm.cli", *argv], src)
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


@pytest.mark.parametrize("group,action", list(_HANDLERS))
@settings(max_examples=10, deadline=None, derandomize=True)
@given(doc=_doc)
def test_every_document_gets_an_envelope(group, action, doc):
    res = run([group, action, json.dumps(doc)])
    assert res.exit_code in (0, 1, 2)
    assert (res.status == "ok") == (res.exit_code == 0)
    if res.status == "error":
        assert sorted(res.payload) == ["code", "message"]
        assert all(isinstance(v, str) for v in res.payload.values())
    json.dumps(res.payload, sort_keys=True)


# Random values for the argv flags, kept within bounds whose answers stay
# small: catalan's n, oracle count's --t on specs with n <= 4, selftest's
# --max-n below its minimum, and render --svg into a directory that
# exists and into one that does not.
_flag_argv = st.one_of(
    st.integers(-3, 12).map(lambda n: ["catalan", str(n)]),
    st.builds(lambda spec, t: ["oracle", "count", json.dumps(spec), "--t", str(t)], _spec, st.integers(-2, 4)),
    st.integers(-2, 0).map(lambda k: ["selftest", "--max-n", str(k)]),
    st.builds(lambda spec, to: ["render", json.dumps(spec), "--svg", to], _spec, st.sampled_from(("x.svg", "missing/x.svg"))),
)


@settings(max_examples=100, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_flag_argv)
def test_every_flag_value_gets_an_envelope(argv, tmp_path, capsys):
    if argv[0] == "render":
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
