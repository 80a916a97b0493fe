import contextlib
import copy
import json
import os
import re
import subprocess
import sys
import warnings
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puredist import entropy, io, linalg, protocols, sampling
from puredist.bounds import RateReport
from puredist.cli import build_parser, main, parse_seeds
from puredist.compression import Instance, NoGoodK, compress_seeds
from puredist.linalg import InvariantError
from puredist.sampling import basis_povm
from puredist.states import DensityOperator, Povm, ProtocolTranscript


def test_parse_seeds():
    assert parse_seeds("1..5") == [1, 2, 3, 4, 5]
    assert parse_seeds("3,7,9") == [3, 7, 9]
    assert parse_seeds("4") == [4]


def test_config_validation(bell_file, capsys):
    for command, flags, message in (
            ("entropy", ["--eps", "1.0"], "eps must be in (0, 1), got 1.0"),
            ("kd-oneshot", ["--K", "0"], "K and L must be at least 1"),
            ("kd-oneshot", ["--seeds", "5..3"], "at least one seed is required")):
        assert main([command, "--state", bell_file, *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(SystemExit):
        main(["nope", "--state", bell_file])
    with pytest.raises(SystemExit):
        main(["kd-oneshot", "--state", bell_file, "--format", "xml"])


# one value for each of the 14 flags, and the flags each command reads
FLAG_VALUES = {"--state": "s.json", "--povm": "p.json", "--eps": "0.2", "--bob-label": "C",
               "--out": "o.json", "--seeds": "2..3", "--slack-bits": "1", "--format": "csv",
               "--K": "2", "--L": "4", "--f-eps": "0.3", "--g-eps": "0.4", "--seed": "3",
               "--trials": "5"}
INPUT = {"--state", "--povm", "--eps", "--bob-label", "--out"}
SWEEP = INPUT | {"--seeds", "--slack-bits", "--format"}
TAKES = {
    "entropy": INPUT,
    "distill-local": {"--state", "--eps", "--slack-bits", "--out"},
    "protocol-a": SWEEP,
    "kd-oneshot": SWEEP | {"--K", "--L"},
    "fewqubits": SWEEP | {"--K", "--L"},
    "compare": SWEEP | {"--K", "--L", "--f-eps", "--g-eps"},
    "bounds": INPUT | {"--slack-bits", "--f-eps", "--g-eps"},
    "verify": {"--eps", "--seed", "--trials"},
}


def test_each_command_takes_only_its_own_options(capsys):
    assert sum(map(len, TAKES.values())) == 60
    parser = build_parser()
    for command, takes in TAKES.items():
        for flag, value in FLAG_VALUES.items():
            state = ["--state", "s.json"] if "--state" in takes and flag != "--state" else []
            argv = [command, *state, flag, value]
            if flag in takes:
                args = parser.parse_args(argv)
                assert args.command == command
                continue
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 2, argv
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_fewer_than_one_trial(trials, capsys):
    # a suite of zero trials checks nothing, so it must not report a pass
    assert main(["verify", "--trials", trials]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --trials must be at least 1, got {trials}\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize("command", ["distill-local", "protocol-a", "kd-oneshot", "fewqubits",
                                     "compare", "bounds"])
def test_slack_bits_must_be_finite_and_nonnegative(bell_file, basis_file, command, value, capsys):
    # nan once printed "local_lower":"nan" and inf ran kd-oneshot to exit 0
    povm = [] if command == "distill-local" else ["--povm", basis_file]
    assert main([command, "--state", bell_file, *povm, f"--slack-bits={value}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --slack-bits must be finite and at least 0, got {float(value)}\n"


@pytest.mark.parametrize("label", ["A", "C"])
def test_bob_register_must_be_an_unmeasured_register_of_the_state(bell_file, basis_file,
                                                                  label, capsys):
    # Bob = A once ran entropy and bounds to exit 0 on Alice's own register
    for command in ("entropy", "bounds", "protocol-a"):
        argv = [command, "--state", bell_file, "--povm", basis_file, "--bob-label", label]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: Bob's register {label!r} must be a register of the state "
                       "other than the measured register 'A'\n")


def test_bob_register_must_be_a_register_of_the_state_without_a_povm(bell_file, capsys):
    # no Instance checks the label without --povm: Z once ran both to exit 0
    for command in ("entropy", "bounds"):
        assert main([command, "--state", bell_file, "--bob-label", "Z"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --bob-label 'Z' names no register of the state (registers A, B)\n"
        # a register of the state, or the default B, still runs
        for extra in (["--bob-label", "A"], []):
            assert main([command, "--state", bell_file] + extra) == 0
            capsys.readouterr()


@pytest.mark.parametrize("flag", ["--f-eps", "--g-eps"])
@pytest.mark.parametrize("value", ["1.5", "1", "-0.1", "nan"])
def test_f_and_g_eps_are_checked_against_their_flag(bell_file, basis_file, flag, value,
                                                    capsys):
    # they once failed inside a solver with a message that named no flag
    for command in ("compare", "bounds"):
        argv = [command, "--state", bell_file, "--povm", basis_file, flag, value]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {flag} must be in [0, 1), got {float(value)}\n"
    assert main(["bounds", "--state", bell_file, "--povm", basis_file, flag, "0"]) == 0


def test_bob_register_cannot_be_the_purifying_reference(bell_file, basis_file, capsys):
    # R is the reference the CLI adds; as Bob it once ran protocol-a to exit 0
    for command in ("entropy", "bounds", "protocol-a", "kd-oneshot", "fewqubits", "compare"):
        argv = [command, "--state", bell_file, "--povm", basis_file, "--bob-label", "R"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --bob-label cannot be R, the purification's register\n"


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
    assert protocol.split(",") == list(ProtocolTranscript.CSV_COLUMNS)
    assert compare.split(",") == list(RateReport.CSV_COLUMNS)


def test_state_povm_round_trip(tmp_path, rng):
    from puredist.sampling import random_density, random_povm
    st = random_density(rng, 4)
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


def test_bounds_takes_the_local_bounds_on_the_measured_register(tmp_path):
    # registers X and B, measured on X: the local bounds are X's, as in compare
    rng = np.random.default_rng(1)
    state, povm = str(tmp_path / "xb.json"), str(tmp_path / "x.json")
    io.save_state(DensityOperator([("X", 2), ("B", 2)], sampling.ginibre_density(rng, 4)), state)
    io.save_povm(basis_povm(2, "X"), povm)
    rc, out, err, _ = _run(["bounds", "--state", state, "--povm", povm])
    assert (rc, err) == (0, "")
    rc, compared, err, _ = _run(["compare", "--state", state, "--povm", povm, "--K", "2",
                                 "--L", "4"])
    assert (rc, err) == (0, "")
    out, [report] = json.loads(out), json.loads(compared)["reports"]
    # both read the purified input's marginal, so the bits agree
    assert out["local_lower_A"] == report["local_lower"]
    assert out["local_upper_A"] == report["local_upper"]


def test_bounds_on_a_register_the_state_lacks_is_a_named_error(tmp_path, capsys):
    # registers X and B: no A to take the local bounds on without --povm,
    # and no Z for a POVM on Z
    rng = np.random.default_rng(1)
    state, povm = str(tmp_path / "xb.json"), str(tmp_path / "z.json")
    io.save_state(DensityOperator([("X", 2), ("B", 2)], sampling.ginibre_density(rng, 4)), state)
    io.save_povm(basis_povm(2, "Z"), povm)
    for extra, reg in (([], "A"), (["--povm", povm], "Z")):
        assert main(["bounds", "--state", state] + extra) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: \"no register '{reg}'; have ['B', 'X']\"\n"


def test_bounds_with_povms_on_different_registers_is_a_named_error(tmp_path, capsys):
    rng = np.random.default_rng(1)
    state = str(tmp_path / "ab.json")
    io.save_state(DensityOperator([("A", 2), ("B", 2)], sampling.ginibre_density(rng, 4)), state)
    argv = ["bounds", "--state", state]
    for register in ("A", "B"):
        io.save_povm(basis_povm(2, register), str(tmp_path / f"{register}.json"))
        argv += ["--povm", str(tmp_path / f"{register}.json")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: the POVMs measure different registers: ['A', 'B']\n"


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


def test_compare_rejects_a_povm_with_repeated_labels(bell_file, tmp_path, capsys):
    # repeated labels once sent one outcome's weight to another and exited 0
    povm = io.povm_to_dict(Povm([np.diag([0.5, 0.0]), np.eye(2) - np.diag([1.0, 0.0]),
                                 np.diag([0.5, 0.0])]))
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(dict(povm, labels=["x", "y", "x"])))
    rc = main(["compare", "--state", bell_file, "--povm", str(path), "--K", "2", "--L", "4"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == "error: POVM label 'x' is repeated\n"


def test_a_povm_element_below_the_psd_tolerance_is_a_named_error(bell_file, tmp_path, capsys):
    # it used to load and then fail in psd_power with a message naming no POVM
    elements = [np.diag([-5e-10, 1.0]), np.diag([1 + 5e-10, 0.0])]
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"register": "A", "elements": [
        np.column_stack([e.reshape(-1), np.zeros(4)]).tolist() for e in elements]}))
    for command in ("compare", "kd-oneshot", "entropy"):
        rc = main([command, "--state", bell_file, "--povm", str(path)])
        out, err = capsys.readouterr()
        assert rc == 2 and out == "", command
        assert err == "error: POVM element not PSD: min eig -5.00e-10\n", command


def test_a_state_with_a_register_named_r_is_a_named_error(basis_file, tmp_path, capsys):
    # R is the register the CLI adds to purify the state
    bell = np.zeros((4, 4))
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    path = tmp_path / "ar.json"
    io.save_state(DensityOperator([("A", 2), ("R", 2)], bell), str(path))
    for command in ("compare", "bounds", "entropy"):
        rc = main([command, "--state", str(path), "--povm", basis_file])
        out, err = capsys.readouterr()
        assert rc == 2 and out == "", command
        assert err == "error: register label R is reserved for the purification\n"


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


@pytest.mark.parametrize("value, text", [
    (float("nan"), '"nan"'), (np.float64("inf"), '"inf"'), (-np.inf, '"-inf"'),
    ([1.0, np.nan], '[1,"nan"]'), (object(), None), ({"x": {1, 2}}, None),
], ids=["nan", "inf", "-inf", "nested", "object", "set"])
def test_dumps_non_finite_floats_and_unsupported_types(value, text):
    if text is None:
        with pytest.raises(TypeError, match="cannot serialize"):
            io.dumps(value)
    else:
        assert io.dumps(value) == text


def test_entropy_command_decomposes_each_marginal_once(tmp_path, monkeypatch, capsys):
    # A and B of different sizes, so each call's shape names its matrix
    rho = sampling.ginibre_density(np.random.default_rng(5), 6, 4)
    state = DensityOperator([("A", 2), ("B", 3)], rho)
    path = str(tmp_path / "state.json")
    io.save_state(state, path)
    calls, orig = [], linalg._eigh

    def counting(m):
        calls.append(np.shape(m))
        return orig(m)

    monkeypatch.setattr(linalg, "_eigh", counting)
    assert main(["entropy", "--state", path, "--eps", "0.2"]) == 0
    # the joint state's load check and spectrum, one spectrum per marginal
    assert sorted(calls) == [(2, 2), (3, 3), (6, 6), (6, 6)]
    monkeypatch.undo()
    got = json.loads(capsys.readouterr().out)["marginals"]
    loaded = io.load_state(path)
    for name, rho in [("joint", loaded), ("A", loaded.partial_trace("A")),
                      ("B", loaded.partial_trace("B"))]:
        # the same bits as each function decomposing the state itself
        assert got[name] == json.loads(io.dumps({
            "h_h": entropy.h_h(rho, 0.2).value,
            "h_tilde_max": entropy.h_tilde_max(rho, 0.2),
            "h_prime_max": entropy.h_prime_max(rho, 0.2),
            "h_max_smooth": entropy.h_max_smooth(rho, 0.2)}))


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


def test_empty_registers_and_elements_are_named_errors(bell_file, basis_file, tmp_path,
                                                       capsys):
    cases = []
    for dim in (0, -2):
        path = tmp_path / f"dim{dim}.json"
        path.write_text(json.dumps({"registers": [{"label": "A", "dim": dim}],
                                    "matrix": [[1.0, 0.0]] * 4}))
        cases.append((str(path), basis_file, "state field 'registers'", f"got {dim}"))
    empty = tmp_path / "empty-element.json"
    empty.write_text(json.dumps({"register": "A", "elements": [[]]}))
    cases.append((bell_file, str(empty), "POVM field 'elements'", "got 0"))
    for command in ("entropy", "kd-oneshot"):
        for state_path, povm_path, field, got in cases:
            rc = main([command, "--state", state_path, "--povm", povm_path, "--eps", "0.1"])
            err = capsys.readouterr().err
            assert rc == 2
            assert err == f"error: {field} is malformed: dimension must be at least 1, {got}\n"


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
    common = ["--state", bell_file, "--eps", "0.1"]
    sizes = ["--K", "2", "--L", "4"]
    runs = [["kd-oneshot", *common, *sizes, "--povm", basis_file, "--seeds", "1..2"],
            ["kd-oneshot", *common, *sizes, "--povm", triv, "--seeds", "3"],
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
    for command, sizes in (("entropy", []), ("kd-oneshot", ["--K", "2", "--L", "4"])):
        out, err = StringIO(), StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([command, "--state", str(malformed_dir / "state.json"),
                       "--povm", str(malformed_dir / "povm.json"), "--eps", "0.1", *sizes])
        assert rc in (0, 2), (command, rc)
        if rc == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_compare_at_large_eps_exits_with_the_borrow_gap_error(tmp_path):
    # margin = log|A| - H_H^eps(A) - slack grows without bound as eps -> 1, so on
    # a 2x2 rank-2 Ginibre input with a 3-outcome Wishart POVM the borrow check
    # holds at eps = 0.5 and fails at 0.9: a named error, exit 2, no traceback
    rng = np.random.default_rng(0)
    io.save_state(DensityOperator([("A", 2), ("B", 2)], sampling.ginibre_density(rng, 4, 2)),
                  str(tmp_path / "s.json"))
    io.save_povm(sampling.random_povm(rng, 2, 3, "A"), str(tmp_path / "p.json"))
    argv = ["compare", "--state", str(tmp_path / "s.json"), "--povm", str(tmp_path / "p.json")]
    rc, out, err, _ = _run(argv + ["--eps", "0.5"])
    assert (rc, err) == (0, "") and out
    rc, out, err, _ = _run(argv + ["--eps", "0.9"])
    assert (rc, out) == (2, "")
    assert re.fullmatch(r"error: borrow gap \d+ below margin \d+\.\d{3}\n", err), err


def test_bounds_decomposes_the_instance_rho_a_once(rng, tmp_path, monkeypatch):
    # a pure classical 4x2 state and the basis POVM: the local bounds and both
    # distributed bounds read one decomposition of rho_A, the purified input's
    # marginal of the measured register A, which the instance is given (the
    # rank-1 refinement keeps psi and the register)
    io.save_state(sampling.classical_correlated_pure(rng, 4, 2).density(),
                  str(tmp_path / "c.json"))
    io.save_povm(basis_povm(4, "A"), str(tmp_path / "basis.json"))
    shapes = []
    for name in ("_eigh", "_eigvalsh"):
        monkeypatch.setattr(linalg, name, lambda m, _orig=getattr(linalg, name):
                            shapes.append(np.shape(m)) or _orig(m))
    rc, _, err, _ = _run(["bounds", "--state", str(tmp_path / "c.json"), "--povm",
                          str(tmp_path / "basis.json"), "--eps", "0.1"])
    assert (rc, err) == (0, "")
    # the state's check (twice), two POVM checks, Bob's two ensembles, and rho_A
    # once: the local bounds and the instance share its decomposition
    assert len(shapes) == 7 and shapes.count((4, 4)) == 1


def _run(argv):
    """Exit code, stdout, stderr and every warning of one in-process CLI run."""
    out, err = StringIO(), StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


@pytest.mark.parametrize("command", ["compare", "kd-oneshot", "fewqubits"])
@pytest.mark.parametrize("seeds", [
    "3,3,1,8,2,5,1",
    "9,2,5,14,6,11,4",
    f"{2**32 + 1},{2**64 + 5},7,{2**96 + 3},{2**32 + 1},0,{2**130}",
], ids=["repeated", "unordered", "multi-word"])
def test_a_seed_sweep_prints_the_reports_of_its_single_seed_runs(command, seeds, tmp_path):
    # the seeds of a sweep run as one stack; each report keeps its bytes and
    # each seed's quality warning comes once, in seed order
    rng = np.random.default_rng(20240817)
    io.save_state(DensityOperator([("A", 4), ("B", 4)], sampling.ginibre_density(rng, 16, 2)),
                  str(tmp_path / "s.json"))
    io.save_povm(sampling.random_povm(rng, 4, 3, register="A"), str(tmp_path / "p.json"))
    argv = [command, "--state", str(tmp_path / "s.json"), "--povm", str(tmp_path / "p.json"),
            "--eps", "0.1", "--K", "4", "--L", "8", "--seeds"]
    head = '{"reports":[' if command == "compare" else '{"transcripts":['
    singles, warned = [], []
    for seed in parse_seeds(seeds):
        rc, out, err, caught = _run(argv + [str(seed)])
        assert (rc, err) == (0, "") and out.startswith(head) and out.endswith("]}\n")
        singles.append(out[len(head):-3])
        warned += caught
    assert len(singles) == 7 and warned
    assert _run(argv + [seeds]) == (0, head + ",".join(singles) + "]}\n", "", warned)


@pytest.mark.parametrize("command", ["compare", "kd-oneshot", "fewqubits"])
def test_a_sweep_with_an_infeasible_seed_names_it_and_warns_once_per_seed(command, tmp_path):
    # near-pure source, K = L = 1 and no slack: seed 1's one cell has no
    # usable nice set, and seeds 0, 1 and 2 each warn with their own c
    vec = np.zeros((2, 2, 2), dtype=complex)
    vec[0, 0, 0] = np.sqrt(0.9)
    vec[1, 0, 0] = vec[1, 1, 1] = np.sqrt(0.05)
    rho = np.einsum("abr,cdr->abcd", vec, np.conj(vec)).reshape(4, 4)
    io.save_state(DensityOperator([("A", 2), ("B", 2)], rho), str(tmp_path / "s.json"))
    io.save_povm(Povm([np.diag([0.9, 0.0]), np.diag([0.1, 1.0])], register="A"),
                 str(tmp_path / "p.json"))
    argv = [command, "--state", str(tmp_path / "s.json"), "--povm", str(tmp_path / "p.json"),
            "--eps", "1e-12", "--K", "1", "--L", "1", "--slack-bits", "0", "--seeds"]
    runs = {seed: _run(argv + [str(seed)]) for seed in (3, 0, 1, 4, 2)}
    assert [runs[s][0] for s in (3, 0, 1, 4, 2)] == [0, 0, 2, 0, 2]
    assert all(len(run[3]) == 1 for run in runs.values())
    assert runs[0][3] != runs[1][3]  # the warnings differ by seed
    rc, out, err, warned = _run(argv + ["3,0,1,4,2"])
    assert (rc, out) == (2, "")
    assert err == runs[1][2] and err.startswith("error: no k has a large enough nice")
    assert warned == sum((runs[s][3] for s in (3, 0, 1, 4, 2)), [])


def test_no_operator_is_decomposed_twice_in_a_run(rng, tmp_path, monkeypatch):
    # a pure classical 8x4 state (R has dimension 1) with the basis POVM over
    # three seeds, and a rank-2 4x4 state with a 3-outcome Wishart POVM
    io.save_state(sampling.classical_correlated_pure(rng, 8, 4).density(),
                  str(tmp_path / "c.json"))
    io.save_povm(basis_povm(8, "A"), str(tmp_path / "basis.json"))
    io.save_state(DensityOperator([("A", 4), ("B", 4)], sampling.ginibre_density(rng, 16, 2)),
                  str(tmp_path / "k.json"))
    io.save_povm(sampling.random_povm(rng, 4, 3, "A"), str(tmp_path / "wishart.json"))
    inputs = []
    for name in ("_eigh", "_eigvalsh"):
        def recording(m, _orig=getattr(linalg, name)):
            inputs.append((np.shape(m), m.tobytes()))
            return _orig(m)

        monkeypatch.setattr(linalg, name, recording)
    for argv in (["compare", "--state", str(tmp_path / "c.json"), "--povm",
                  str(tmp_path / "basis.json"), "--K", "4", "--L", "16", "--eps", "0.25",
                  "--seeds", "1..3"],
                 ["kd-oneshot", "--state", str(tmp_path / "k.json"), "--povm",
                  str(tmp_path / "wishart.json"), "--K", "4", "--L", "8", "--eps", "0.1",
                  "--seeds", "1"]):
        rc, _, err, _ = _run(argv)
        assert (rc, err) == (0, "")
    # rho_A, the element stack and Bob's ensemble are each decomposed once
    assert len(inputs) > 100 and len(set(inputs)) == len(inputs)


def test_compare_solves_the_conditional_h_min_once(rng, tmp_path, monkeypatch):
    # a pure classical 8x4 state (R has dimension 1) with the basis POVM over
    # three seeds: Bob's ensemble is the environment's and f_eps is eps, so
    # the converse and the Case II borrow read one H_min solve
    io.save_state(sampling.classical_correlated_pure(rng, 8, 4).density(),
                  str(tmp_path / "c.json"))
    io.save_povm(basis_povm(8, "A"), str(tmp_path / "basis.json"))
    solves = []
    monkeypatch.setattr(entropy, "h_min_cq_smoothed",
                        lambda cq, eps, _orig=entropy.h_min_cq_smoothed:
                        solves.append(eps) or _orig(cq, eps))
    rc, _, err, _ = _run(["compare", "--state", str(tmp_path / "c.json"), "--povm",
                          str(tmp_path / "basis.json"), "--K", "4", "--L", "16", "--eps", "0.25",
                          "--seeds", "1..3"])
    assert (rc, err) == (0, "") and solves == [0.25]


def test_a_sweep_takes_one_svd_per_plan_shape(rng, tmp_path, monkeypatch):
    # the input of test_compare_solves_the_conditional_h_min_once: its three
    # seeds share one plan shape, so compare and fewqubits make one stacked
    # Uhlmann SVD where a run seed by seed makes three
    io.save_state(sampling.classical_correlated_pure(rng, 8, 4).density(),
                  str(tmp_path / "c.json"))
    io.save_povm(basis_povm(8, "A"), str(tmp_path / "basis.json"))
    calls = []
    monkeypatch.setattr(linalg, "_svd", lambda a, _orig=linalg._svd: calls.append(a) or _orig(a))
    for command in ("compare", "fewqubits"):
        calls.clear()
        rc, _, err, _ = _run([command, "--state", str(tmp_path / "c.json"), "--povm",
                              str(tmp_path / "basis.json"), "--K", "4", "--L", "16",
                              "--eps", "0.25", "--seeds", "1..3"])
        assert (rc, err) == (0, "") and [len(a) for a in calls] == [3], command


def _plant_uhlmann_failure(monkeypatch, view):
    """``view``'s Uhlmann check fails, planted by its data as a fault of the
    numbers would be: every SVD of its overlap gains 1e-6 of overlap."""
    overlaps, svd = [], linalg._svd
    monkeypatch.setattr(linalg, "_svd", lambda a: overlaps.append(a) or svd(a))
    protocols.run_fewqubits([view])
    planted = overlaps[0].reshape(overlaps[0].shape[-2:])

    def failing_svd(a):
        v, s, wh = svd(a)
        for m, member in enumerate(a.reshape((-1,) + a.shape[-2:])):
            if np.array_equal(member, planted):
                s.reshape(-1, s.shape[-1])[m, 0] += 1e-6
        return v, s, wh

    monkeypatch.setattr(linalg, "_svd", failing_svd)


def _plant_empty_nice_sets(monkeypatch, seed):
    """The tables of ``seed`` keep their qualifying ks, but no nice outcomes."""
    from puredist import compression

    def emptied(view, _orig=compression.nice_sets):
        tprime, nice = _orig(view)
        return tprime, ({k: [] for k in nice} if view.seed == seed else nice)

    monkeypatch.setattr(compression, "nice_sets", emptied)


def test_a_sweep_raises_the_first_failure_in_seed_order(rng, tmp_path, monkeypatch):
    # seed 2 fails its Uhlmann check, as the second member of the stack, and
    # seed 3 has an empty nice set: the stacked run raises seed 2's error, as
    # a run seed by seed does, at the command line with exit 2, and under
    # python -O
    state = sampling.classical_correlated_pure(rng, 8, 4).density()
    io.save_state(state, str(tmp_path / "c.json"))
    io.save_povm(basis_povm(8, "A"), str(tmp_path / "basis.json"))
    # the command line's instance, from the state as it loads
    inst = Instance(io.load_state(str(tmp_path / "c.json")).purify(), basis_povm(8, "A"),
                    0.25)
    views = compress_seeds(inst, 4, 16, [1, 2, 3])
    _plant_uhlmann_failure(monkeypatch, views[1])
    _plant_empty_nice_sets(monkeypatch, 3)
    protocols.run_fewqubits(views[:1])
    with pytest.raises(NoGoodK, match="^empty nice outcome set"):
        protocols.run_fewqubits(views[2:])
    with pytest.raises(InvariantError, match="^Uhlmann overlap ") as single:
        protocols.run_fewqubits(views[1:2])
    for sweep in (views, views[:2]):
        with pytest.raises(InvariantError) as stacked:
            protocols.run_fewqubits(sweep)
        assert str(stacked.value) == str(single.value)
    argv = ["--state", str(tmp_path / "c.json"), "--povm", str(tmp_path / "basis.json"),
            "--K", "4", "--L", "16", "--eps", "0.25", "--seeds", "1..3"]
    for command in ("compare", "fewqubits"):
        assert _run([command, *argv])[:3] == (2, "", f"error: {single.value}\n"), command
    code = (
        "import sys\n"
        "from puredist import linalg, protocols\n"
        "from puredist.compression import Instance, compress_seeds\n"
        "from puredist.io import load_povm, load_state\n"
        "inst = Instance(load_state(sys.argv[1]).purify(), load_povm(sys.argv[2]), 0.25)\n"
        "svd = linalg._svd\n"
        "def failing_svd(a):\n"
        "    v, s, wh = svd(a)\n"
        "    s[..., 0] += 1e-6\n"
        "    return v, s, wh\n"
        "linalg._svd = failing_svd\n"
        "try:\n"
        "    protocols.run_fewqubits(compress_seeds(inst, 4, 16, [1, 2, 3]))\n"
        "except linalg.InvariantError as exc:\n"
        "    print('raised', exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code, str(tmp_path / "c.json"),
                           str(tmp_path / "basis.json")], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised Uhlmann overlap ")


def test_a_failing_sweep_plans_each_seed_once(rng, monkeypatch):
    # seed 3 has an empty nice set: seeds 1 and 2 still run their Uhlmann
    # checks first, from the plans already made
    inst = Instance(sampling.purified_input(sampling.classical_correlated_pure(rng, 8, 4)),
                    basis_povm(8, "A"), 0.25)
    views = compress_seeds(inst, 4, 16, [1, 2, 3])
    _plant_empty_nice_sets(monkeypatch, 3)
    planned, plan = [], protocols.plan_fewqubits

    def counting_plan(view):
        planned.append(view.seed)
        return plan(view)

    monkeypatch.setattr(protocols, "plan_fewqubits", counting_plan)
    with pytest.raises(NoGoodK, match="^empty nice outcome set"):
        protocols.run_fewqubits(views)
    assert planned == [1, 2, 3]


def test_compare_checks_a_borrow_gap_before_a_later_seed_runs(tmp_path, monkeypatch):
    # no slack and L = 2 on a near-pure source: seed 1's borrow gap is below
    # the margin, and seed 3's nice sets are planted empty; as seed by seed,
    # seed 1's gap is the error of compare, and fewqubits has no gap to check
    from oracles import near_pure_classical
    psi = near_pure_classical(None, 8, 4)
    io.save_state(DensityOperator([("A", 8), ("B", 4)], psi.marginal(["A", "B"])),
                  str(tmp_path / "c.json"))
    io.save_povm(basis_povm(8, "A"), str(tmp_path / "basis.json"))
    _plant_empty_nice_sets(monkeypatch, 3)
    argv = ["--state", str(tmp_path / "c.json"), "--povm", str(tmp_path / "basis.json"),
            "--K", "4", "--L", "2", "--eps", "0.25", "--slack-bits", "0", "--seeds", "1..3"]
    rc, out, err, _ = _run(["compare", *argv])
    assert (rc, out) == (2, "") and err.startswith("error: borrow gap ")
    rc, out, err, _ = _run(["fewqubits", *argv])
    assert (rc, out, err) == (2, "", "error: empty nice outcome set; raise L or K\n")
