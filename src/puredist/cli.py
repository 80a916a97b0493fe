"""Command-line front end.

Subcommands: entropy, distill-local, protocol-a, kd-oneshot, fewqubits,
compare, bounds, verify; ``COMMANDS`` gives each its handler and the only
flags it takes, declared once in ``OPTIONS``. Outputs are deterministic per
(arguments, seed). A seed sweep builds one ``Instance`` per POVM, in POVM
order, so every seed shares the instance's ideal-state quantities and
per-outcome simulated states, and runs its seeds as one stack (one seed is a
stack of one): ``compress_seeds``, kd-oneshot and fewqubits take them all
at once, and results stay in seed order.
"""

import argparse
import contextlib
import functools
import math
import sys
from dataclasses import replace

from . import bounds, entropy, io, protocols
from .compression import Instance, NoGoodK, compress_seeds
from .linalg import InvariantError
from .states import DensityOperator, ProtocolTranscript, PureState
from .verify import MANIFEST, run_suite


def parse_seeds(text: str) -> list:
    """'1..20' or '1,5,7' or '3'."""
    if ".." in text:
        a, b = text.split("..")
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in text.split(",") if s]


OPTIONS = {
    "--state": dict(required=True, help="state JSON file"),
    "--povm": dict(action="append", default=[], help="POVM JSON file (repeatable)"),
    "--eps": dict(type=float, default=0.1),
    "--bob-label": dict(default=None, help="Bob's register (default B)"),
    "--out": dict(default=None, help="output path (default stdout)"),
    "--seeds": dict(type=parse_seeds, default=[1]),
    "--slack-bits": dict(type=float, default=None),
    "--format": dict(dest="fmt", choices=("json", "csv"), default="json"),
    "--K": dict(type=int, default=8),
    "--L": dict(type=int, default=16),
    "--f-eps": dict(type=float, default=None),
    "--g-eps": dict(type=float, default=None),
    "--seed": dict(type=int, default=7),
    "--trials": dict(type=int, default=1000),
}

_CSV_HELP = (
    "CSV columns (protocol commands): %s. "
    "CSV columns (compare): %s. Counts are qubits/bits; final_error is the "
    "exact trace distance to the target pure state; slack_bits is the "
    "declared O(log 1/eps) convention." % (
        ",".join(ProtocolTranscript.CSV_COLUMNS), ",".join(bounds.RateReport.CSV_COLUMNS)))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="puredist",
        description="One-shot purity distillation: entropies, protocol "
                    "simulations, bounds and the verification suite.",
        epilog=_CSV_HELP)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        # no abbreviations: kd-oneshot --seed would otherwise mean --seeds
        p = sub.add_parser(name, allow_abbrev=False,
                           epilog=_CSV_HELP if "--format" in flags else None)
        for flag in flags:
            p.add_argument(flag, **OPTIONS[flag])
    return ap


def check_args(args):
    """The checks argparse does not make itself, on the options the command has."""
    if not (0.0 < args.eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {args.eps}")
    if "K" in args and (args.K < 1 or args.L < 1):
        raise ValueError("K and L must be at least 1")
    if "seeds" in args and not args.seeds:
        raise ValueError("at least one seed is required")
    if getattr(args, "slack_bits", None) is not None and not 0.0 <= args.slack_bits < math.inf:
        raise ValueError(f"--slack-bits must be finite and at least 0, got {args.slack_bits}")
    if "trials" in args and args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    for flag in ("f_eps", "g_eps"):
        value = getattr(args, flag, None)
        if value is not None and not 0.0 <= value < 1.0:
            raise ValueError(f"--{flag.replace('_', '-')} must be in [0, 1), got {value}")


def load_input(args) -> tuple[DensityOperator, str]:
    """The --state and Bob's register, --bob-label or B. With --povm each
    ``Instance`` checks the register; without one nothing reads it, so a
    label given then must still name a register of the state."""
    state = io.load_state(args.state)
    if args.bob_label not in state.labels + [None] and not args.povm:
        raise ValueError(f"--bob-label {args.bob_label!r} names no register of the state "
                         f"(registers {', '.join(state.labels)})")
    return state, "B" if args.bob_label is None else args.bob_label


def protocol_input(state: DensityOperator, bob_label: str) -> PureState:
    """Present a (possibly mixed) loaded state as a pure |state>^{...R}, the
    reference R held by neither party."""
    if "R" in state.labels:
        raise ValueError("register label R is reserved for the purification")
    if bob_label == "R":
        raise ValueError("--bob-label cannot be R, the purification's register")
    return state.purify()


def _emit(args, text):
    """Write a command's finished output text to --out, or to stdout."""
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(text)


def cmd_sweep(args) -> int:
    """Results of every (POVM, seed), POVMs in order, seeds in order, with
    one ``Instance`` per POVM."""
    if not args.povm:
        raise ValueError(f"{args.command} requires --povm")
    state, bob = load_input(args)
    psi = protocol_input(state, bob)
    results = []
    for path in args.povm:
        inst = Instance(psi, io.load_povm(path), args.eps,
                        bob_label=bob, slack_bits=args.slack_bits)
        if args.command == "protocol-a":
            # protocol A draws nothing at random: run it once, stamp every seed
            base = protocols.run_protocol_a(inst)
            results += [replace(base, seed=seed) for seed in args.seeds]
            continue
        views = compress_seeds(inst, args.K, args.L, args.seeds)
        if args.command == "compare":
            results += bounds.rate_report(views, f_eps=args.f_eps, g_eps=args.g_eps)
        elif args.command == "kd-oneshot":
            results += protocols.run_kd_oneshot(views)
        else:
            results += protocols.run_fewqubits(views)
    results = [r.to_dict() for r in results]
    key, columns = (("reports", bounds.RateReport.CSV_COLUMNS) if args.command == "compare"
                    else ("transcripts", ProtocolTranscript.CSV_COLUMNS))
    if args.fmt == "csv":
        _emit(args, io.csv_text(columns, [[r[c] for c in columns] for r in results]))
    else:
        _emit(args, io.dumps({key: results}) + "\n")
    return 0


def cmd_entropy(args) -> int:
    state, bob = load_input(args)
    eps = args.eps
    payload = {"eps": eps, "registers": dict(state.registers), "marginals": {}}
    targets = {"joint": state}
    if len(state.registers) > 1:
        targets.update((label, state.partial_trace(label)) for label, _ in state.registers)
    for name, rho in sorted(targets.items()):
        w = rho.spectrum()  # one eigendecomposition for all four
        t = entropy.Truncation(w[None], eps)  # one truncation for the three max entropies
        payload["marginals"][name] = {
            "h_h": entropy.h_h(w, eps).value,
            "h_tilde_max": float(t.h_tilde_max()[0]),
            "h_prime_max": float(t.h_prime_max()[0]),
            "h_max_smooth": float(t.h_max_smooth()[0]),
        }
    psi = protocol_input(state, bob) if args.povm else None
    for path in args.povm:
        inst = Instance(psi, io.load_povm(path), eps, bob_label=bob)
        payload.setdefault("povm", {})[path] = {
            "h_h_cond_env": inst.h_h_cond("ideal_env", eps),
            "h_h_cond_bob": inst.h_h_cond("ideal_bob", eps),
            "h_min_cond_bob": inst.h_min_cond("ideal_bob", 0.0),
            "i_max": inst.imax.value,
            "i_max_gap": inst.imax.duality_gap,
        }
    _emit(args, io.dumps(payload) + "\n")
    return 0


def cmd_distill_local(args) -> int:
    state = io.load_state(args.state)
    iso, err = protocols.local_distill(state, args.eps)
    lo, up = bounds.local_purity_bounds(state, args.eps, args.slack_bits)
    _emit(args, io.dumps({
        "eps": args.eps,
        "pure_qubits": iso.a_p_bits,
        "kept_dim": iso.kept_dim,
        "garbage_dim": iso.ag_dim,
        "achieved_error": err,
        "local_lower": lo,
        "local_upper": up,
    }) + "\n")
    return 0


def cmd_bounds(args) -> int:
    state, bob = load_input(args)
    psi = protocol_input(state, bob)
    povms = {path: io.load_povm(path) for path in args.povm}
    measured = {povm.register for povm in povms.values()} or {"A"}
    if len(measured) > 1:
        raise ValueError(f"the POVMs measure different registers: {sorted(measured)}")
    # the purified input's marginal: the rho_A of every Instance and of compare
    reg = measured.pop() if len(state.registers) > 1 else state.labels[0]
    if reg not in state.labels:
        raise KeyError(f"no register {reg!r}; have {state.labels}")
    # psi keeps rho_A's eigensystem: every Instance of it reads this one
    lo, up = bounds.local_purity_bounds(psi.reduced([reg])[1], args.eps, args.slack_bits)
    payload = {
        "eps": args.eps,
        "f_eps": args.f_eps if args.f_eps is not None else args.eps,
        "g_eps": args.g_eps if args.g_eps is not None else args.eps,
        "local_lower_A": lo,
        "local_upper_A": up,
        "per_povm": {},
    }
    for path, povm in povms.items():
        inst = Instance(psi, povm, args.eps, bob_label=bob)
        payload["per_povm"][path] = {
            "dist_upper": bounds.distributed_upper_bound(
                inst, f_eps=args.f_eps, g_eps=args.g_eps),
            "dist_upper_rank1": bounds.distributed_upper_bound(
                inst, f_eps=args.f_eps, g_eps=args.g_eps, rank1=True),
        }
    _emit(args, io.dumps(payload) + "\n")
    return 0


def cmd_verify(args) -> int:
    print("suite manifest:")
    for name in MANIFEST:
        print(f"  {name}")
    results = run_suite(trials=args.trials, eps=args.eps, seed=args.seed)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name:36s} trials={r.trials:5d} "
              f"violations={r.violations} worst_slack={r.worst:+.3e}")
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


INPUT = ("--state", "--povm", "--eps", "--bob-label", "--out")
SWEEP = INPUT + ("--seeds", "--slack-bits", "--format")
COMPRESSED = SWEEP + ("--K", "--L")
COMMANDS = {
    "entropy": (cmd_entropy, INPUT),
    "distill-local": (cmd_distill_local, ("--state", "--eps", "--slack-bits", "--out")),
    "protocol-a": (cmd_sweep, SWEEP),
    "kd-oneshot": (cmd_sweep, COMPRESSED),
    "fewqubits": (cmd_sweep, COMPRESSED),
    "compare": (cmd_sweep, COMPRESSED + ("--f-eps", "--g-eps")),
    "bounds": (cmd_bounds, INPUT + ("--slack-bits", "--f-eps", "--g-eps")),
    "verify": (cmd_verify, ("--eps", "--seed", "--trials")),
}


# built on the first ``main`` call, not at import: parsing leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        check_args(args)
        return COMMANDS[args.command][0](args)
    except (ValueError, OSError, KeyError, NoGoodK, InvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
