import json
import subprocess
import sys
from pathlib import Path

import pytest

import lpdm

from lpdm.cli import CommandResult, main, run


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


def test_domain_error_exit_one(capsys):
    assert main(["matroid", "delete", '{"n": 2, "S": [2], "T": [2], "element": 2}']) == 1
    envelope, _ = payload_of(capsys)
    assert envelope["status"] == "error"
    assert envelope["error"]["code"] == "domain"
    assert "coloop" in envelope["error"]["message"]


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
        f"import sys; sys.path.insert(0, {src!r}); import lpdm.cli; "
        "print(sorted({'lpdm.selftest', 'concurrent.futures'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_selftest_smallest_cap(capsys):
    assert main(["selftest", "--max-n", "1"]) == 0
    envelope, err = payload_of(capsys)
    payload = envelope["payload"]
    assert payload["max_n"] == 1 and payload["passed"] is True
    assert all(c["passed"] for c in payload["checks"])
    assert len(payload["checks"]) >= 20
    # progress table goes to stderr, one row per check plus the tally
    assert "checks passed" in err
