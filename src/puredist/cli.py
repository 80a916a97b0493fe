"""Command-line front end.

Subcommands: entropy, distill-local, protocol-a, kd-oneshot, fewqubits,
compare, bounds, verify. Outputs are deterministic per (arguments, seed).
A seed sweep builds one ``Instance`` per POVM, in POVM order, and runs its
seeds in seed order in this process, so every seed shares the instance's
ideal-state quantities and per-symbol simulated states.
"""

import argparse
import functools
import sys
from dataclasses import replace

from . import bounds, entropy, io, protocols
from .compression import Instance, NoGoodK
from .linalg import InvariantError
from .states import DensityOperator, PureState
from .verify import MANIFEST, run_suite


def parse_seeds(text: str) -> list:
    """'1..20' or '1,5,7' or '3'."""
    if ".." in text:
        a, b = text.split("..")
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in text.split(",") if s]


def _add_common(p, state_required=True):
    p.add_argument("--state", required=state_required, help="state JSON file")
    p.add_argument("--povm", action="append", default=[],
                   help="POVM JSON file (repeatable)")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--K", type=int, default=8)
    p.add_argument("--L", type=int, default=16)
    p.add_argument("--seeds", type=parse_seeds, default=[1])
    p.add_argument("--slack-bits", type=float, default=None)
    p.add_argument("--f-eps", type=float, default=None)
    p.add_argument("--g-eps", type=float, default=None)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    p.add_argument("--bob-label", default="B")


TRANSCRIPT_COLUMNS = ("protocol", "seed", "eps", "distilled_alice",
                      "distilled_bob", "borrowed", "communication",
                      "net_rate", "final_error", "slack_bits", "case")

_CSV_HELP = (
    "CSV columns (protocol commands): %s. "
    "CSV columns (compare): %s. Counts are qubits/bits; final_error is the "
    "exact trace distance to the target pure state; slack_bits is the "
    "declared O(log 1/eps) convention." % (
        ",".join(TRANSCRIPT_COLUMNS), ",".join(bounds.RateReport.CSV_COLUMNS)))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="puredist",
        description="One-shot purity distillation: entropies, protocol "
                    "simulations, bounds and the verification suite.",
        epilog=_CSV_HELP)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, epilog=_CSV_HELP)
        _add_common(p, state_required=name not in ("verify",))
        if name == "verify":
            p.add_argument("--seed", type=int, default=7)
            p.add_argument("--trials", type=int, default=1000)
    return ap


def check_args(args):
    """The checks argparse does not make itself."""
    if not (0.0 < args.eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {args.eps}")
    if args.K < 1 or args.L < 1:
        raise ValueError("K and L must be at least 1")
    if not args.seeds:
        raise ValueError("at least one seed is required")
    if "trials" in args and args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")


def protocol_input(state: DensityOperator) -> PureState:
    """Present a (possibly mixed) loaded state as a pure |state>^{...R}."""
    if "R" in state.labels:
        raise ValueError("register label R is reserved for the purification")
    return state.purify("R")


def _emit(args, payload, csv_columns=None, csv_rows=None):
    if args.fmt == "csv":
        if csv_columns is None:
            raise ValueError("this command has no CSV schema; use --format json")
        io.write_csv(args.out or sys.stdout, csv_columns, csv_rows)
        return
    text = io.dumps(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_sweep(args) -> int:
    """Results of every (POVM, seed), POVMs in order, seeds in order, with
    one ``Instance`` per POVM."""
    if not args.povm:
        raise ValueError(f"{args.command} requires --povm")
    psi = protocol_input(io.load_state(args.state))
    results = []
    for path in args.povm:
        inst = Instance(psi, io.load_povm(path), args.eps,
                        bob_label=args.bob_label, slack_bits=args.slack_bits)
        if args.command == "protocol-a":
            # protocol A draws nothing at random: run it once, stamp every seed
            base = protocols.run_protocol_a(inst)
            results += [replace(base, seed=seed) for seed in args.seeds]
            continue
        views = (inst.compression(args.K, args.L, seed) for seed in args.seeds)
        if args.command == "compare":
            results += [bounds.rate_report(v, f_eps=args.f_eps, g_eps=args.g_eps)
                        for v in views]
        else:
            results += map(protocols.run_kd_oneshot if args.command == "kd-oneshot"
                           else protocols.run_fewqubits, views)
    results = [r.to_dict() for r in results]
    key, columns = (("reports", bounds.RateReport.CSV_COLUMNS) if args.command == "compare"
                    else ("transcripts", TRANSCRIPT_COLUMNS))
    _emit(args, {key: results}, columns, [[r[c] for c in columns] for r in results])
    return 0


def cmd_entropy(args) -> int:
    state = io.load_state(args.state)
    eps = args.eps
    payload = {"eps": eps, "registers": dict(state.registers), "marginals": {}}
    targets = {"joint": state}
    if len(state.registers) > 1:
        targets.update((label, state.partial_trace(label)) for label, _ in state.registers)
    for name, rho in sorted(targets.items()):
        payload["marginals"][name] = {
            "h_h": entropy.h_h(rho, eps).value,
            "h_tilde_max": entropy.h_tilde_max(rho, eps),
            "h_prime_max": entropy.h_prime_max(rho, eps),
            "h_max_smooth": entropy.h_max_smooth(rho, eps),
        }
    psi = protocol_input(state) if args.povm else None
    for path in args.povm:
        inst = Instance(psi, io.load_povm(path), eps, bob_label=args.bob_label)
        payload.setdefault("povm", {})[path] = {
            "h_h_cond_env": inst.h_h_cond("ideal_env", eps),
            "h_h_cond_bob": inst.h_h_cond("ideal_bob", eps),
            "h_min_cond_bob": entropy.h_min_cq(inst.ideal_bob),
            "i_max": inst.imax.value,
            "i_max_gap": inst.imax.duality_gap,
        }
    _emit(args, payload)
    return 0


def cmd_distill_local(args) -> int:
    state = io.load_state(args.state)
    iso, err = protocols.local_distill(state, args.eps)
    lo, up = bounds.local_purity_bounds(state, args.eps, args.slack_bits)
    payload = {
        "eps": args.eps,
        "pure_qubits": iso.a_p_bits,
        "kept_dim": iso.kept_dim,
        "garbage_dim": iso.ag_dim,
        "achieved_error": err,
        "local_lower": lo,
        "local_upper": up,
    }
    _emit(args, payload)
    return 0


def cmd_bounds(args) -> int:
    state = io.load_state(args.state)
    psi = protocol_input(state)
    rho_a = state.partial_trace("A") if len(state.registers) > 1 else state
    lo, up = bounds.local_purity_bounds(rho_a, args.eps, args.slack_bits)
    payload = {
        "eps": args.eps,
        "f_eps": args.f_eps if args.f_eps is not None else args.eps,
        "g_eps": args.g_eps if args.g_eps is not None else args.eps,
        "local_lower_A": lo,
        "local_upper_A": up,
        "per_povm": {},
    }
    for path in args.povm:
        inst = Instance(psi, io.load_povm(path), args.eps, bob_label=args.bob_label)
        payload["per_povm"][path] = {
            "dist_upper": bounds.distributed_upper_bound(
                inst, f_eps=args.f_eps, g_eps=args.g_eps),
            "dist_upper_rank1": bounds.distributed_upper_bound(
                inst, f_eps=args.f_eps, g_eps=args.g_eps, rank1=True),
        }
    _emit(args, payload)
    return 0


def cmd_verify(args) -> int:
    print("suite manifest:")
    for name in MANIFEST:
        print(f"  {name}")
    results = run_suite(trials=args.trials, eps=args.eps, seed=args.seed)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        print(f"{status} {r.name:36s} trials={r.trials:5d} "
              f"violations={r.violations} worst_slack={r.worst:+.3e}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


COMMANDS = {
    "entropy": cmd_entropy,
    "distill-local": cmd_distill_local,
    "protocol-a": cmd_sweep,
    "kd-oneshot": cmd_sweep,
    "fewqubits": cmd_sweep,
    "compare": cmd_sweep,
    "bounds": cmd_bounds,
    "verify": cmd_verify,
}


# built on the first ``main`` call, not at import: parsing leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        check_args(args)
        return COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError, NoGoodK, InvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
