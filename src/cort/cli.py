"""Command-line front end: bound evaluation, profile optimization, simulation,
and reference-table reproduction, each leaving an append-only run record.

Every command is a pure function of its arguments plus seeds; payload files
contain no timestamps, so reruns are bit-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import sys
import time
from decimal import Decimal

from . import __version__
from .bounds import (DEFAULT_GRID_POINTS, RCU_MAX_N, MomentTables,
                     bound_memory_bytes, d_e_g, gallager_reference_bsc,
                     rcu_exact_bsc)
from .channel import BscChannel
from .decoder import BYTES_PER_CHECK, decode_memory_bytes, ssdgu_decode
from .measure import CostModel
from .montecarlo import TrialConfig, simulate, trial, trial_spans
from .sbp import sbp_optimize
from .tree_code import load_profile, pure_random_profile

RESULTS_ENV = "CORT_RESULTS_DIR"
# Largest estimated peak memory, in bytes, that a command may go on to use.
MEMORY_CEILING = 4e9

# Published reference evaluations for the four standard (p, gamma)
# benchmark configurations at n=128, k=64; columns are L = 1e9, 1e10, 1e11.
REFERENCE_TABLES = {
    1: {"p": 0.03, "gamma": 1.0,
        "d_e_g": [3.6e-3, 1.9e-3, 1.3e-3],
        "d_cle_g": [1.7e-3, 0.4e-3, 0.8e-4],
        "d_cfe_g": [2.0e-3, 1.5e-3, 1.2e-3]},
    2: {"p": 0.03, "gamma": 0.9992,
        "d_e_g": [2.7e-3, 1.7e-3, 1.5e-3],
        "d_cle_g": [0.6e-3, 0.2e-3, 0.7e-4],
        "d_cfe_g": [2.1e-3, 1.5e-5, 1.4e-3]},
    3: {"p": 0.02, "gamma": 1.0,
        "d_e_g": [7.2e-5, 2.6e-5, 9.4e-6],
        "d_cle_g": [3.7e-5, 1.1e-5, 2.8e-6],
        "d_cfe_g": [3.5e-5, 1.4e-5, 6.6e-6]},
    4: {"p": 0.02, "gamma": 0.9992,
        "d_e_g": [4.6e-5, 1.7e-5, 7.5e-6],
        "d_cle_g": [2.2e-5, 0.6e-5, 1.8e-6],
        "d_cfe_g": [2.4e-5, 1.1e-5, 5.7e-6]},
}
REFERENCE_LIMITS = [1e9, 1e10, 1e11]
REFERENCE_N, REFERENCE_K = 128, 64


class CliError(Exception):
    """Validation failure with an actionable message; exits nonzero."""


def results_dir(args) -> str:
    return args.results_dir or os.environ.get(RESULTS_ENV) or "results"


def _simulate_csv(args) -> str:
    return os.path.join(results_dir(args), "simulate.csv")


def _check_outputs(args):
    """Reject, before any work, an output file that is a directory or whose
    directory does not exist, a `simulate.csv` that is a directory, and a
    results directory that is not (and cannot become) one."""
    for option in ("out", "out_profile", "out_trace", "trace_jsonl"):
        path = getattr(args, option, None)
        flag = "--" + option.replace("_", "-")
        if path and os.path.isdir(path):
            raise CliError(f"{flag} {path} is a directory")
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise CliError(f"{flag} {path}: its directory does not exist")
    csv_path = _simulate_csv(args)
    if args.command == "simulate" and os.path.isdir(csv_path):
        raise CliError(f"{csv_path} is a directory")
    base = existing = os.path.abspath(results_dir(args))
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise CliError(f"results directory {base} cannot be made: "
                       f"{existing} is not a directory")


@contextlib.contextmanager
def _writing(path: str, mode: str = "w"):
    """Open path for writing; an OSError on opening, writing or closing it
    becomes a CliError that names the path."""
    try:
        with open(path, mode, newline="") as fh:
            yield fh
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _write_json(path: str, doc, indent=None) -> None:
    """Write doc as one JSON document and a newline."""
    with _writing(path) as fh:
        json.dump(doc, fh, indent=indent)
        fh.write("\n")


def write_run_record(args, payload: dict) -> str:
    """Record the command `args` ran, its arguments and its payload."""
    parameters = {key: value for key, value in sorted(vars(args).items())
                  if key != "func"}
    base = results_dir(args)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    digest = hashlib.sha256(
        json.dumps(parameters, sort_keys=True).encode()).hexdigest()[:8]
    name = outdir = os.path.join(base, args.command, f"{stamp}-{digest}")
    copies = 1
    while True:  # a rerun in the same second gets its own directory
        try:
            os.makedirs(outdir)
            break
        except FileExistsError:
            copies += 1
            outdir = f"{name}-{copies}"
        except OSError as exc:
            raise CliError(f"cannot create {outdir}: {exc}") from exc
    record = {"command": args.command, "parameters": parameters,
              "timestamp": stamp, "version": __version__, "payload": payload,
              "output_path": outdir}
    _write_json(os.path.join(outdir, "record.json"), record, indent=2)
    return outdir


def _whole_number(text: str) -> int:
    """An integer option's value, written as digits or as a float with no
    fractional part, such as 5e6."""
    with contextlib.suppress(ValueError):
        return int(text)
    with contextlib.suppress(ValueError):
        if float(text).is_integer():
            return int(float(text))
    raise argparse.ArgumentTypeError(f"not a whole number: {text!r}")


def _checked(convert, rule: str, ok):
    """An argparse type: the value convert makes of the text, refused with
    "must be <rule>" unless ok accepts it."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    parse.__name__ = convert.__name__  # so "invalid int value: 'x'"
    return parse


def _crossover(text: str) -> float:
    """--p's value, checked by BscChannel, where the rule on p is written."""
    try:
        return BscChannel(float(text)).p
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _resolve_profile(args):
    """The profile --profile names."""
    if args.profile == "pure":
        if args.n is None or args.k is None:
            raise CliError("--profile pure requires --n and --k")
        return pure_random_profile(args.n, args.k)
    try:
        prof = load_profile(args.profile)
    except OSError as exc:
        raise CliError(f"cannot read profile file {args.profile}: {exc}") from exc
    except KeyError as exc:
        raise CliError(f"profile file {args.profile} lacks the field {exc}") from exc
    except (TypeError, ValueError) as exc:  # bad JSON, or a ProfileError
        raise CliError(f"invalid profile file {args.profile}: {exc}") from exc
    if args.n is not None and args.n != prof.n:
        raise CliError(f"--n {args.n} conflicts with profile n={prof.n}")
    if args.k is not None and args.k != prof.k:
        raise CliError(f"--k {args.k} conflicts with profile k={prof.k}")
    return prof


def _gigabytes(est: int) -> str:
    """An estimate of est bytes in GB, to one decimal; from 1e18 B on, in
    powers of ten, so that no int beyond the float range becomes a float."""
    if est < 10 ** 18:
        return f"{est / 1e9:.1f}"
    return f"{Decimal(est) / 10 ** 9:.1e}"


def _check_tables_memory(n: int, stages: int):
    """Refuse moment tables and bound terms at n beyond MEMORY_CEILING."""
    est = bound_memory_bytes(n, stages, DEFAULT_GRID_POINTS)
    if est > MEMORY_CEILING:
        raise CliError(
            f"n = {n} could need about {_gigabytes(est)} GB of moment and "
            f"window tables and bound terms; use a smaller n")


def _require_finite(docs, n: int, k: int, limit: float):
    """Reject, before anything is printed or written, results whose float
    fields in the dicts `docs` are not finite, naming each such field."""
    overflowed = list(dict.fromkeys(
        name for doc in docs for name, value in doc.items()
        if isinstance(value, float) and not math.isfinite(value)))
    if overflowed:
        raise CliError(
            f"{', '.join(overflowed)} not finite at n = {n}, k = {k}, "
            f"--limit {limit}: a term exceeds the floating-point range; "
            f"raise --limit or use fewer bits per stage")


def cmd_bound(args) -> int:
    prof = _resolve_profile(args)
    _check_tables_memory(prof.n, prof.num_stages)
    cm = CostModel(channel=BscChannel(args.p), gamma=args.gamma, n=prof.n)
    tables = MomentTables(prof.n, args.p, args.gamma)
    report = d_e_g(prof, cm, args.limit, tables)
    _require_finite([vars(report)], prof.n, prof.k, args.limit)
    rcu = (rcu_exact_bsc(prof.n, prof.k, args.p) if prof.n <= RCU_MAX_N
           else None)
    gallager = gallager_reference_bsc(prof.n, prof.k, args.p, tables.grid)
    payload = report.to_json_dict()
    payload["rcu_exact"] = rcu
    payload["gallager_reference"] = gallager
    print(f"d_cle_g   = {report.d_cle_g:.3e}   (varrho* = {report.varrho_star:.4f})")
    print(f"d_cfe_g   = {report.d_cfe_g:.3e}   (rho*    = {report.rho_star:.4f})")
    print(f"d_e_g     = {report.d_e_g:.3e}")
    if rcu is not None:
        print(f"rcu       = {rcu:.3e}   (gamma=1 log-likelihood reference)")
    print(f"gallager  = {gallager:.3e}   (gamma=1 reference)")
    if args.out:
        _write_json(args.out, payload, indent=2)
    write_run_record(args, payload)
    return 0


def cmd_sbp(args) -> int:
    _check_tables_memory(args.n, min(args.n + 1, args.k))
    # a k-bit final profile has a stage of w >= ceil(k / n) bits, whose term
    # 2^w / L overflows once w - log2 L >= 1024: refuse it before any step
    if -(-args.k // args.n) >= 1025 + math.log2(args.limit):
        _require_finite([{"d_e_g": math.inf, "d_cle_g": math.inf}],
                        args.n, args.k, args.limit)
    cm = CostModel(channel=BscChannel(args.p), gamma=args.gamma, n=args.n)
    tables = MomentTables(args.n, args.p, args.gamma)
    trace = sbp_optimize(args.n, args.k, cm, args.limit, tables)
    payload = trace.to_json_dict()
    _require_finite(payload["steps"], args.n, args.k, args.limit)
    print(f"{'step':>4} {'pos':>4} {'d_e_g':>12} {'d_cle_g':>12} {'d_cfe_g':>12}")
    for st in trace.steps:
        print(f"{st.step:>4} {st.position:>4} {st.d_e_g:>12.3e} "
              f"{st.d_cle_g:>12.3e} {st.d_cfe_g:>12.3e}")
    if args.out_profile:
        _write_json(args.out_profile, trace.final_profile.to_json_dict())
    if args.out_trace:
        _write_json(args.out_trace, payload)
    write_run_record(args, payload)
    return 0


def _write_first_trial_trace(config: TrialConfig, path: str) -> None:
    """Debug aid: decode trial 0 again with tracing and dump JSON lines of
    (iteration, popped prefix, stage, cost, node checks)."""
    _, g, y = trial(config, 0)
    trace = []
    ssdgu_decode(g, y, config.cost_model, config.limit, trace=trace)
    with _writing(path) as fh:
        for record in trace:
            fh.write(json.dumps(record))
            fh.write("\n")


def _check_root(args, bits: int):
    """Refuse a --limit below the root fanout c_0 = 2^bits: the decoder
    checks every root child first."""
    if args.limit >> bits < 1:  # limit < 2^bits, without forming 2^bits
        # str() refuses an int of over 4300 digits: give c_0's only if few
        c0 = f" = {1 << bits}" if bits <= 64 else ""
        raise CliError(f"--limit {args.limit} is below the root fanout "
                       f"c_0 = 2^{bits}{c0}; the decoder checks every root "
                       f"child first")


def _check_memory(args, prof):
    """Refuse decodes that together could need more than MEMORY_CEILING."""
    decodes = len(trial_spans(args.trials, args.threads))
    est = decodes * decode_memory_bytes(prof, args.limit)
    if est > MEMORY_CEILING:
        raise CliError(
            f"{decodes} decode(s) at once (--threads {args.threads}) could "
            f"need about {_gigabytes(est)} GB (each holds its generator, the "
            f"suffix tables, the largest sibling block and {BYTES_PER_CHECK} "
            f"bytes per node check after the root's); reduce --limit, "
            f"--threads, the bits per stage or n x k")


def cmd_simulate(args) -> int:
    cpus = os.cpu_count() or 1
    if not 1 <= args.threads <= cpus:
        raise CliError(f"--threads must be between 1 and the {cpus} CPUs "
                       f"of this machine, got {args.threads}")
    prof = _resolve_profile(args)
    _check_root(args, prof.levels[1])
    _check_memory(args, prof)
    config = TrialConfig(profile=prof, p=args.p, gamma=args.gamma,
                         limit=args.limit, trials=args.trials,
                         base_seed=args.seed,
                         resample_code=args.resample_code)
    stats = simulate(config, workers=args.threads)
    if args.trace_jsonl:
        _write_first_trial_trace(config, args.trace_jsonl)
    print(f"trials                = {stats.trials}")
    print(f"fer                   = {stats.fer:.3e} ± {stats.fer_ci:.3e}")
    print(f"giveup_rate           = {stats.giveup_rate:.3e} ± {stats.giveup_ci:.3e}")
    print(f"undetected_error_rate = {stats.undetected_error_rate:.3e} "
          f"± {stats.undetected_ci:.3e}")
    print(f"mean_nodes_checked    = {stats.mean_nodes_checked:.4f} "
          f"± {stats.mean_nodes_ci:.4f}")
    print(f"max_nodes_checked     = {stats.max_nodes_checked}")
    payload = stats.to_json_dict()
    outdir = write_run_record(args, payload)
    csv_path = _simulate_csv(args)
    fresh = not os.path.exists(csv_path)
    with _writing(csv_path, "a") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(["n", "k", "p", "gamma", "L", "trials", "seed",
                             "resample_code", "fer", "giveup_rate",
                             "undetected_error_rate", "mean_nodes_checked"])
        writer.writerow([prof.n, prof.k, args.p, args.gamma, args.limit,
                         args.trials, args.seed, args.resample_code,
                         stats.fer, stats.giveup_rate,
                         stats.undetected_error_rate,
                         stats.mean_nodes_checked])
    if args.out:
        _write_json(args.out, payload, indent=2)
    print(f"record: {outdir}")
    return 0


def table_rows(table: int):
    """Reproduce one reference table: per-column profile optimization, with
    the bounds of its last step (those of its final profile), the printed
    values and their additive check."""
    ref = REFERENCE_TABLES[table]
    p, gamma = ref["p"], ref["gamma"]
    cm = CostModel(channel=BscChannel(p), gamma=gamma, n=REFERENCE_N)
    tables = MomentTables(REFERENCE_N, p, gamma)
    rows = []
    for i, limit in enumerate(REFERENCE_LIMITS):
        last = sbp_optimize(REFERENCE_N, REFERENCE_K, cm, limit,
                            tables).steps[-1]
        printed_sum = ref["d_cle_g"][i] + ref["d_cfe_g"][i]
        printed_ok = abs(printed_sum - ref["d_e_g"][i]) <= 0.1 * ref["d_e_g"][i]
        rows.append([REFERENCE_N, REFERENCE_K, p, gamma, float(limit),
                     last.d_cle_g, last.d_cfe_g, last.d_e_g, last.varrho_star,
                     last.rho_star, ref["d_cle_g"][i], ref["d_cfe_g"][i],
                     ref["d_e_g"][i], printed_ok])
    return rows


def cmd_tables(args) -> int:
    tables_to_run = [args.paper_table] if args.paper_table else [1, 2, 3, 4]
    header = ["n", "k", "p", "gamma", "L", "d_cle_g", "d_cfe_g", "d_e_g",
              "varrho", "rho", "printed_d_cle_g", "printed_d_cfe_g",
              "printed_d_e_g", "printed_additive_consistent"]
    all_rows = []
    for tab in tables_to_run:
        print(f"table {tab}:")
        for row in table_rows(tab):
            all_rows.append(row)
            flag = "" if row[-1] else "  [printed row additively inconsistent]"
            print(f"  L={row[4]:.0e}: d_cle_g={row[5]:.3e} d_cfe_g={row[6]:.3e} "
                  f"d_e_g={row[7]:.3e}  printed: {row[10]:.1e}/{row[11]:.1e}/"
                  f"{row[12]:.1e}{flag}")
    if args.out:
        with _writing(args.out) as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(all_rows)
    write_run_record(args, {"header": header, "rows": all_rows})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cort", allow_abbrev=False,
        description="Random tree codes under a decoding budget: bounds, "
                    "profile optimization, and simulation.")
    parser.add_argument("--results-dir", default=None,
                        help=f"run-record directory (default: ${RESULTS_ENV} "
                             "or ./results)")
    sub = parser.add_subparsers(dest="command", required=True)
    count = _checked(int, "at least 1", lambda v: v >= 1)
    gamma = _checked(float, "in (0, 1]", lambda g: 0.0 < g <= 1.0)
    limit = _checked(float, "finite and at least 1",
                     lambda v: 1 <= v < math.inf)

    def command(name, func, summary):
        cmd = sub.add_parser(name, allow_abbrev=False, help=summary)
        cmd.set_defaults(func=func)
        return cmd

    pb = command("bound", cmd_bound, "evaluate the error bounds for a profile")
    pb.add_argument("--profile", required=True,
                    help='profile JSON path, or "pure" for s(1) = k')
    pb.add_argument("--n", type=count)
    pb.add_argument("--k", type=count)
    pb.add_argument("--p", type=_crossover, required=True)
    pb.add_argument("--gamma", type=gamma, default=1.0)
    pb.add_argument("--limit", type=limit, default=1e9)
    pb.add_argument("--out")

    ps = command("sbp", cmd_sbp, "optimize a branching profile greedily")
    ps.add_argument("--n", type=count, required=True)
    ps.add_argument("--k", type=count, required=True)
    ps.add_argument("--p", type=_crossover, required=True)
    ps.add_argument("--gamma", type=gamma, default=1.0)
    ps.add_argument("--limit", type=limit, default=1e9)
    ps.add_argument("--out-profile")
    ps.add_argument("--out-trace")

    pm = command("simulate", cmd_simulate, "Monte Carlo decoder statistics")
    pm.add_argument("--profile", required=True)
    pm.add_argument("--n", type=count)
    pm.add_argument("--k", type=count)
    pm.add_argument("--p", type=_crossover, required=True)
    pm.add_argument("--gamma", type=gamma, default=1.0)
    pm.add_argument("--limit", type=_whole_number, default=4096)
    pm.add_argument("--trials", type=count, required=True)
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--resample-code", action="store_true", default=False,
                    help="draw a fresh generator for every trial (the "
                         "ensemble the bounds describe, and TrialConfig's "
                         "default); without it all trials share the "
                         "generator drawn from --seed")
    pm.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    pm.add_argument("--trace-jsonl",
                    help="debug: write trial 0's pop-by-pop trace as JSON lines")
    pm.add_argument("--out")

    pt = command("tables", cmd_tables, "reproduce the reference tables as CSV")
    pt.add_argument("--paper-table", type=int, choices=[1, 2, 3, 4])
    pt.add_argument("--out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
