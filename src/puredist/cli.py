"""Command-line front end.

Subcommands: entropy, distill-local, protocol-a, kd-oneshot, fewqubits,
compare, bounds, verify. Outputs are deterministic per (config, seed).
A seed sweep runs each POVM's seeds as contiguous runs that share one
``Instance``; PUREDIST_THREADS (default 1) splits each POVM's seeds into
at most that many runs and fans them out to a process pool of that size.
"""

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import bounds, entropy, io, protocols
from .compression import Instance, NoGoodK
from .linalg import InvariantError
from .states import DensityOperator, PureState
from .verify import MANIFEST, run_suite

COMMANDS = ("entropy", "distill-local", "protocol-a", "kd-oneshot",
            "fewqubits", "compare", "bounds", "verify")


@dataclass
class ExperimentConfig:
    command: str
    state: str | None = None
    povms: list = field(default_factory=list)
    eps: float = 0.1
    K: int = 8
    L: int = 16
    seeds: list = field(default_factory=lambda: [1])
    slack_bits: float | None = None
    f_eps: float | None = None
    g_eps: float | None = None
    out: str | None = None
    fmt: str = "json"
    trials: int = 1000
    bob_label: str = "B"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"eps must be in (0, 1), got {self.eps}")
        if self.K < 1 or self.L < 1:
            raise ValueError("K and L must be at least 1")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if self.fmt not in ("json", "csv"):
            raise ValueError(f"unknown format {self.fmt!r}")


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
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--bob-label", default="B")


TRANSCRIPT_COLUMNS = ("protocol", "seed", "eps", "distilled_alice",
                      "distilled_bob", "borrowed", "communication",
                      "net_rate", "final_error", "slack_bits", "case")

_CSV_HELP = (
    "CSV columns (protocol commands): %s. "
    "CSV columns (compare): %s. Counts are qubits/bits; final_error is the "
    "exact trace distance to the target pure state; slack_bits is the "
    "declared O(log 1/eps) convention." % (
        ",".join(TRANSCRIPT_COLUMNS),
        ",".join(("eps", "seed", "local_lower", "local_upper", "dist_upper",
                  "kd_rate", "fewqubits_rate", "c_borrow", "d_borrow",
                  "margin", "final_error_kd", "final_error_fq",
                  "slack_bits", "f_eps", "g_eps"))))


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
    return ap


def config_from_args(args) -> ExperimentConfig:
    return ExperimentConfig(
        command=args.command,
        state=getattr(args, "state", None),
        povms=list(args.povm),
        eps=args.eps,
        K=args.K,
        L=args.L,
        seeds=list(args.seeds),
        slack_bits=args.slack_bits,
        f_eps=args.f_eps,
        g_eps=args.g_eps,
        out=args.out,
        fmt=args.fmt,
        trials=args.trials,
        bob_label=args.bob_label,
    )


def protocol_input(state: DensityOperator, a_label: str = "A") -> PureState:
    """Present a (possibly mixed) loaded state as a pure |state>^{...R}."""
    if "R" in state.labels:
        raise ValueError("register label R is reserved for the purification")
    return state.purify("R")


def _emit(config: ExperimentConfig, payload, csv_columns=None, csv_rows=None):
    if config.fmt == "csv":
        if csv_columns is None:
            raise ValueError("this command has no CSV schema; use --format json")
        if config.out:
            io.write_csv(config.out, csv_columns, csv_rows)
        else:
            io.write_csv(sys.stdout, csv_columns, csv_rows)
        return
    text = io.dumps(payload)
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _workers(n_jobs: int) -> int:
    cap = os.environ.get("PUREDIST_THREADS")
    cap = int(cap) if cap else 1
    return max(1, min(cap, n_jobs))


def _seed_runs(seeds: list, n: int) -> list:
    """Split ``seeds`` into n contiguous runs of near-equal length."""
    return [seeds[i * len(seeds) // n:(i + 1) * len(seeds) // n] for i in range(n)]


def _run_seeds(job):
    """Run one contiguous run of seeds on one POVM, sharing one Instance."""
    config, povm_path, seeds = job
    inst = Instance(protocol_input(io.load_state(config.state)),
                    io.load_povm(povm_path), config.eps,
                    bob_label=config.bob_label, slack_bits=config.slack_bits)
    if config.command == "protocol-a":
        # protocol A draws nothing at random: run it once, stamp every seed
        base = protocols.run_protocol_a(inst)
        return [replace(base, seed=seed).to_dict() for seed in seeds]
    out = []
    for seed in seeds:
        if config.command == "compare":
            out.append(bounds.rate_report(inst.compression(config.K, config.L, seed),
                                          f_eps=config.f_eps, g_eps=config.g_eps))
        elif config.command == "kd-oneshot":
            out.append(protocols.run_kd_oneshot(
                inst.compression(config.K, config.L, seed)).to_dict())
        else:
            out.append(protocols.run_fewqubits(
                inst.compression(config.K, config.L, seed)).to_dict())
    return out


def _sweep(config: ExperimentConfig) -> list:
    """Results of every (POVM, seed), POVMs in order, seeds in order."""
    if not config.povms:
        raise ValueError(f"{config.command} requires --povm")
    runs = _seed_runs(config.seeds, _workers(len(config.seeds)))
    jobs = [(config, p, run) for p in config.povms for run in runs]
    workers = _workers(len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_seeds, jobs))
    else:
        results = [_run_seeds(j) for j in jobs]
    return [r for run in results for r in run]


def cmd_entropy(config: ExperimentConfig) -> int:
    state = io.load_state(config.state)
    eps = config.eps
    payload = {"eps": eps, "registers": dict(state.registers), "marginals": {}}
    targets = {"joint": state}
    for label, _ in state.registers:
        if len(state.registers) > 1:
            targets[label] = state.partial_trace(label)
    for name, rho in sorted(targets.items()):
        payload["marginals"][name] = {
            "h_h": entropy.h_h(rho, eps).value,
            "h_tilde_max": entropy.h_tilde_max(rho, eps),
            "h_prime_max": entropy.h_prime_max(rho, eps),
            "h_max_smooth": entropy.h_max_smooth(rho, eps),
        }
    for path in config.povms:
        povm = io.load_povm(path)
        inst = Instance(protocol_input(state), povm, eps, bob_label=config.bob_label)
        payload.setdefault("povm", {})[path] = {
            "h_h_cond_env": inst.h_h_cond("ideal_env", eps),
            "h_h_cond_bob": inst.h_h_cond("ideal_bob", eps),
            "h_min_cond_bob": entropy.h_min_cq(inst.ideal_bob),
            "i_max": inst.imax.value,
            "i_max_gap": inst.imax.duality_gap,
        }
    _emit(config, payload)
    return 0


def cmd_distill_local(config: ExperimentConfig) -> int:
    state = io.load_state(config.state)
    iso, err = protocols.local_distill(state, config.eps)
    lo, up = bounds.local_purity_bounds(state, config.eps, config.slack_bits)
    payload = {
        "eps": config.eps,
        "pure_qubits": iso.a_p_bits,
        "kept_dim": iso.kept_dim,
        "garbage_dim": iso.ag_dim,
        "achieved_error": err,
        "local_lower": lo,
        "local_upper": up,
    }
    _emit(config, payload)
    return 0


def cmd_protocols(config: ExperimentConfig) -> int:
    results = _sweep(config)
    columns = list(TRANSCRIPT_COLUMNS)
    rows = [[r[c] for c in columns] for r in results]
    _emit(config, {"transcripts": results}, csv_columns=columns, csv_rows=rows)
    return 0


def cmd_compare(config: ExperimentConfig) -> int:
    reports = _sweep(config)
    columns = list(bounds.RateReport.CSV_COLUMNS)
    rows = [r.csv_row() for r in reports]
    _emit(config, {"reports": [r.to_dict() for r in reports]},
          csv_columns=columns, csv_rows=rows)
    return 0


def cmd_bounds(config: ExperimentConfig) -> int:
    state = io.load_state(config.state)
    psi = protocol_input(state)
    rho_a = state.partial_trace("A") if len(state.registers) > 1 else state
    lo, up = bounds.local_purity_bounds(rho_a, config.eps, config.slack_bits)
    payload = {
        "eps": config.eps,
        "f_eps": config.f_eps if config.f_eps is not None else config.eps,
        "g_eps": config.g_eps if config.g_eps is not None else config.eps,
        "local_lower_A": lo,
        "local_upper_A": up,
        "per_povm": {},
    }
    for path in config.povms:
        inst = Instance(psi, io.load_povm(path), config.eps, bob_label=config.bob_label)
        payload["per_povm"][path] = {
            "dist_upper": bounds.distributed_upper_bound(
                inst, f_eps=config.f_eps, g_eps=config.g_eps),
            "dist_upper_rank1": bounds.distributed_upper_bound(
                inst, f_eps=config.f_eps, g_eps=config.g_eps, rank1=True),
        }
    _emit(config, payload)
    return 0


def cmd_verify(config: ExperimentConfig, seed: int = 7) -> int:
    print("suite manifest:")
    for name in MANIFEST:
        print(f"  {name}")
    results = run_suite(trials=config.trials, eps=config.eps, seed=seed)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        print(f"{status} {r.name:36s} trials={r.trials:5d} "
              f"violations={r.violations} worst_slack={r.worst:+.3e}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def run(config: ExperimentConfig, seed: int = 7) -> int:
    if config.command == "entropy":
        return cmd_entropy(config)
    if config.command == "distill-local":
        return cmd_distill_local(config)
    if config.command in ("protocol-a", "kd-oneshot", "fewqubits"):
        return cmd_protocols(config)
    if config.command == "compare":
        return cmd_compare(config)
    if config.command == "bounds":
        return cmd_bounds(config)
    if config.command == "verify":
        return cmd_verify(config, seed=seed)
    raise ValueError(f"unknown command {config.command!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        return run(config, seed=getattr(args, "seed", 7))
    except (ValueError, OSError, KeyError, NoGoodK, InvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
