import contextlib
import copy
import json
import os
import re
import subprocess
import sys
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puredist import io
from puredist.bounds import RateReport
from puredist.cli import TRANSCRIPT_COLUMNS, build_parser, main, parse_seeds
from puredist.sampling import basis_povm, bell_pair
from puredist.states import DensityOperator, Povm


def test_parse_seeds():
    assert parse_seeds("1..5") == [1, 2, 3, 4, 5]
    assert parse_seeds("3,7,9") == [3, 7, 9]
    assert parse_seeds("4") == [4]


def test_config_validation(bell_file, capsys):
    for flags, message in ((["--eps", "1.0"], "eps must be in (0, 1), got 1.0"),
                           (["--K", "0"], "K and L must be at least 1"),
                           (["--seeds", "5..3"], "at least one seed is required")):
        assert main(["entropy", "--state", bell_file, *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(SystemExit):
        main(["nope", "--state", bell_file])
    with pytest.raises(SystemExit):
        main(["entropy", "--state", bell_file, "--format", "xml"])


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_fewer_than_one_trial(trials, capsys):
    # a suite of zero trials checks nothing, so it must not report a pass
    assert main(["verify", "--trials", trials]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --trials must be at least 1, got {trials}\n"


def test_only_verify_takes_trials(bell_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["entropy", "--state", bell_file, "--trials", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --trials 5" in capsys.readouterr().err
    # without --trials, no other command checks it
    assert main(["entropy", "--state", bell_file]) == 0


def test_help_lists_the_csv_columns():
    epilog = build_parser().epilog
    protocol, compare = re.match(r"CSV columns \(protocol commands\): (\S+)\. "
                                 r"CSV columns \(compare\): (\S+)\. ", epilog).groups()
    assert protocol.split(",") == list(TRANSCRIPT_COLUMNS)
    assert compare.split(",") == list(RateReport.CSV_COLUMNS)


def test_state_povm_round_trip(tmp_path, rng):
    from puredist.sampling import random_density, random_povm
    st = random_density(rng, 4, "A")
    p = tmp_path / "s.json"
    io.save_state(st, str(p))
    back = io.load_state(str(p))
    assert np.max(np.abs(back.matrix - st.matrix)) <= 1e-15
    pv = random_povm(rng, 3, 4)
    pp = tmp_path / "p.json"
    io.save_povm(pv, str(pp))
    back_p = io.load_povm(str(pp))
    for a, b in zip(back_p.elements, pv.elements):
        assert np.max(np.abs(a - b)) <= 1e-15


def test_invalid_state_rejected(tmp_path):
    bad = {"registers": [{"label": "A", "dim": 2}],
           "matrix": [[0.8, 0.0], [0.0, 0.0], [0.0, 0.0], [0.8, 0.0]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    rc = main(["entropy", "--state", str(path), "--eps", "0.1"])
    assert rc == 2  # named invariant violation, nonzero exit


def test_entropy_bell_marginals(bell_file, capsys):
    rc = main(["entropy", "--state", bell_file, "--eps", "0.1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    # maximally mixed marginals: H_H = log2(2 * 0.9)
    assert np.isclose(out["marginals"]["A"]["h_h"], np.log2(1.8), atol=1e-12)
    assert np.isclose(out["marginals"]["B"]["h_h"], np.log2(1.8), atol=1e-12)


def test_entropy_with_povm(bell_file, basis_file, capsys):
    rc = main(["entropy", "--state", bell_file, "--eps", "0.1",
               "--povm", basis_file])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    stats = out["povm"][basis_file]
    assert stats["h_h_cond_bob"] <= 1e-9  # pure conditionals
    assert np.isclose(stats["i_max"], 1.0, atol=1e-6)


def test_protocol_csv_deterministic(bell_file, basis_file, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["kd-oneshot", "--state", bell_file, "--povm", basis_file,
            "--eps", "0.1", "--K", "4", "--L", "8", "--seeds", "1..3",
            "--format", "csv"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert len(lines) == 4  # header + 3 seeds
    assert lines[0].startswith("protocol,seed,eps")


def test_compare_csv_columns(bell_file, basis_file, tmp_path):
    out = tmp_path / "cmp.csv"
    rc = main(["compare", "--state", bell_file, "--povm", basis_file,
               "--eps", "0.25", "--K", "4", "--L", "8", "--seeds", "1,2",
               "--format", "csv", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert "c_borrow" in header and "d_borrow" in header and "margin" in header
    assert len(lines) == 3


def test_bounds_command(bell_file, basis_file, capsys):
    rc = main(["bounds", "--state", bell_file, "--povm", basis_file,
               "--eps", "0.1", "--f-eps", "0.05", "--g-eps", "0.2"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["f_eps"] == 0.05 and out["g_eps"] == 0.2
    per = out["per_povm"][basis_file]
    assert "dist_upper" in per and "dist_upper_rank1" in per


def test_verify_command_passes(capsys):
    from puredist.verify import MANIFEST
    rc = main(["verify", "--trials", "15", "--eps", "0.05", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "suite manifest:" in out
    for name in MANIFEST:
        assert name in out
    assert f"{len(MANIFEST)}/{len(MANIFEST)} checks passed" in out


def test_missing_povm_is_an_error(bell_file):
    rc = main(["protocol-a", "--state", bell_file, "--eps", "0.1"])
    assert rc == 2


def test_dimension_mismatch_names_the_invariant(bell_file, tmp_path, capsys):
    io.save_povm(basis_povm(3, "A"), str(tmp_path / "p3.json"))
    rc = main(["kd-oneshot", "--state", bell_file,
               "--povm", str(tmp_path / "p3.json"), "--eps", "0.1"])
    assert rc == 2
    assert "does not match register" in capsys.readouterr().err


def test_threads_env_cap(bell_file, basis_file, tmp_path):
    out = tmp_path / "t.json"
    rc = main(["protocol-a", "--state", bell_file, "--povm", basis_file,
               "--eps", "0.1", "--seeds", "1..4", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert [t["seed"] for t in data["transcripts"]] == [1, 2, 3, 4]


def test_console_entry_point(bell_file):
    proc = subprocess.run(
        [sys.executable, "-m", "puredist.cli", "entropy", "--state", bell_file,
         "--eps", "0.1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    json.loads(proc.stdout)


def test_json_17_digit_floats(tmp_path):
    from puredist.io import dumps
    text = dumps({"x": 0.1, "y": [1.0, 2.5], "n": None, "b": True})
    assert text == '{"b":true,"n":null,"x":0.10000000000000001,"y":[1,2.5]}'


def test_infeasible_configuration_exits_with_named_error(tmp_path, capsys):
    # a near-pure source with K = L = 1 leaves no usable nice outcome set
    vec = np.zeros((2, 2, 2), dtype=complex)
    vec[0, 0, 0] = np.sqrt(0.9)
    vec[1, 0, 0] = vec[1, 1, 1] = np.sqrt(0.05)
    rho = np.einsum("abr,cdr->abcd", vec, np.conj(vec)).reshape(4, 4)
    io.save_state(DensityOperator([("A", 2), ("B", 2)], rho), str(tmp_path / "s.json"))
    io.save_povm(Povm([np.diag([0.9, 0.0]), np.diag([0.1, 1.0])], register="A"),
                 str(tmp_path / "p.json"))
    rc = main(["fewqubits", "--state", str(tmp_path / "s.json"),
               "--povm", str(tmp_path / "p.json"), "--eps", "1e-12",
               "--K", "1", "--L", "1", "--slack-bits", "0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_malformed_input_files_are_named_errors(bell_file, basis_file, tmp_path, capsys):
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"register": "A", "elements": []}))
    for state, povm in ((bell_file, str(empty)), (str(listed), basis_file),
                        (bell_file, str(listed))):
        rc = main(["kd-oneshot", "--state", state, "--povm", povm, "--eps", "0.1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1


def test_malformed_nested_fields_are_named_errors(bell_file, basis_file, tmp_path, capsys):
    state = json.loads(open(bell_file).read())
    state["registers"] = [[r["label"], r["dim"]] for r in state["registers"]]
    listed_registers = tmp_path / "registers.json"
    listed_registers.write_text(json.dumps(state))
    scalar_elements = tmp_path / "elements.json"
    scalar_elements.write_text(json.dumps({"register": "A", "elements": 5}))
    state = json.loads(open(bell_file).read())
    state["matrix"][0] = [0.5]
    short_pair = tmp_path / "short-pair.json"
    short_pair.write_text(json.dumps(state))
    del state["matrix"]
    no_matrix = tmp_path / "no-matrix.json"
    no_matrix.write_text(json.dumps(state))
    for command in ("entropy", "kd-oneshot"):
        for state_path, povm_path, field in ((str(listed_registers), basis_file, "registers"),
                                             (bell_file, str(scalar_elements), "elements"),
                                             (str(short_pair), basis_file, "matrix"),
                                             (str(no_matrix), basis_file, "matrix")):
            rc = main([command, "--state", state_path, "--povm", povm_path, "--eps", "0.1"])
            err = capsys.readouterr().err
            assert rc == 2
            assert err.startswith("error: ") and err.count("\n") == 1
            assert f"field {field!r}" in err


def test_povm_labels_must_be_null_or_a_list_as_long_as_elements(bell_file, basis_file,
                                                                 tmp_path, capsys):
    povm = json.loads(open(basis_file).read())
    del povm["labels"]
    paths = {}
    for name, labels in (("absent", ...), ("null", None), ("number", 5),
                         ("string", "ab"), ("short", ["0"])):
        body = dict(povm) if labels is ... else dict(povm, labels=labels)
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(body))
    for command in ("entropy", "kd-oneshot"):
        outs = {}
        for name, path in paths.items():
            rc = main([command, "--state", bell_file, "--povm", str(path), "--eps", "0.1"])
            out, err = capsys.readouterr()
            if name in ("absent", "null"):
                assert rc == 0
                outs[name] = out.replace(str(path), "povm.json")
            else:
                assert rc == 2
                assert err.startswith("error: ") and err.count("\n") == 1
                assert "field 'labels'" in err
        assert outs["null"] == outs["absent"]


def test_povm_register_must_be_a_string(bell_file, basis_file, tmp_path, capsys):
    povm = json.loads(open(basis_file).read())
    del povm["register"]
    paths = {}
    for name, register in (("absent", ...), ("A", "A"), ("number", 5), ("null", None),
                           ("list", ["A"])):
        body = dict(povm) if register is ... else dict(povm, register=register)
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(body))
    outs = {}
    for name, path in paths.items():
        rc = main(["entropy", "--state", bell_file, "--povm", str(path), "--eps", "0.1"])
        out, err = capsys.readouterr()
        if name in ("absent", "A"):
            assert rc == 0
            outs[name] = out.replace(str(path), "povm.json")
        else:
            assert rc == 2
            assert err.startswith("error: POVM field 'register' is malformed")
            assert err.count("\n") == 1
    assert outs["absent"] == outs["A"]


def test_repeated_main_calls_print_what_fresh_calls_print(bell_file, basis_file, tmp_path,
                                                          capsys):
    triv = str(tmp_path / "triv.json")
    io.save_povm(Povm([np.eye(2)], register="A"), triv)
    common = ["--state", bell_file, "--eps", "0.1", "--K", "2", "--L", "4"]
    runs = [["kd-oneshot", *common, "--povm", basis_file, "--seeds", "1..2"],
            ["kd-oneshot", *common, "--povm", triv, "--seeds", "3"],
            ["entropy", *common]]
    in_process = []
    for argv in runs:
        assert main(argv) == 0
        in_process.append(capsys.readouterr().out)
    fresh = [subprocess.run([sys.executable, "-m", "puredist.cli", *argv],
                            capture_output=True, text=True, timeout=600).stdout
             for argv in runs]
    assert in_process == fresh
    assert len(json.loads(in_process[1])["transcripts"]) == 1
    assert "povm" not in json.loads(in_process[2])


def test_verify_output_independent_of_hash_seed():
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "puredist.cli", "verify", "--trials", "20"],
            capture_output=True, env=env, timeout=600)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def json_paths(node, path=()):
    """The path of every value in a JSON document, the root's included."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from json_paths(child, path + (key,))


def replacements(node, path):
    """Malformed values for one field: a wrong type, NaN, a zero or negative
    dim, and a list one entry shorter or longer."""
    out = [None, True, 5, "x", [], {}, float("nan")]
    if path and path[-1] == "dim":
        out += [0, -1, -2]
    if isinstance(node, list) and node:
        out += [node[:-1], node + node[-1:]]
    return out


def replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def malformed_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("malformed")


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(data=st.data())
def test_one_malformed_field_exits_0_or_2_without_a_traceback(data, malformed_dir):
    bell = np.zeros((4, 4))
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    docs = {"state": io.state_to_dict(DensityOperator([("A", 2), ("B", 2)], bell)),
            "povm": io.povm_to_dict(basis_povm(2, "A"))}
    kind = data.draw(st.sampled_from(sorted(docs)), label="file")
    path = data.draw(st.sampled_from(list(json_paths(docs[kind]))), label="field")
    node = docs[kind]
    for key in path:
        node = node[key]
    value = data.draw(st.sampled_from(replacements(node, path)), label="value")
    docs[kind] = replaced(docs[kind], path, value)
    for name, doc in docs.items():
        (malformed_dir / f"{name}.json").write_text(json.dumps(doc))
    for command in ("entropy", "kd-oneshot"):
        out, err = StringIO(), StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([command, "--state", str(malformed_dir / "state.json"),
                       "--povm", str(malformed_dir / "povm.json"), "--eps", "0.1",
                       "--K", "2", "--L", "4"])
        assert rc in (0, 2), (command, rc)
        if rc == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
