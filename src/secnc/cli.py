"""Command line front end.

`simulate` runs `audit.reliability_audit` in sampled mode and prints its
own report of the audit's counts.

Exit codes: 0 success/pass, 1 usage or unreadable input, 2 validation
rejection, 3 run or audit failure, 4 budget refusal.  Every randomized
subcommand prints the seed it used so runs can be replayed exactly.
"""

from __future__ import annotations

import argparse
import secrets
import sys
import time

import numpy as np

from . import fileio
from .audit import DEFAULT_AUDIT_BUDGET, reliability_audit, secrecy_audit
from .errors import BudgetExceededError, ParameterError, ValidationError
from . import linalg as la
from .network import noncoherent_decode
from .scheme import build_broken_instance, build_instance

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_FAILURE = 3
EXIT_BUDGET = 4


class UsageError(Exception):
    """A file could not be read or parsed; distinct from value rejection."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for
    # validation rejections, so usage problems must exit 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_input(fn, *args, what: str):
    try:
        return fn(*args)
    except OSError as e:
        raise UsageError(f"cannot read {what}: {e}") from None
    except (ParameterError, UnicodeDecodeError) as e:
        raise UsageError(f"malformed {what}: {e}") from None


def _load_config(args):
    return _read_input(fileio.read_config, args.config, what="config file")


def _seed(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(
            f"seed must be a nonnegative integer, got {text!r}")
    return int(text)


def _resolve_seed(args, config_seed):
    seed = args.seed if args.seed is not None else config_seed
    if seed is None:
        seed = secrets.randbits(64)
        print(f"seed={seed}", file=sys.stderr)
    return seed


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_params(args) -> int:
    params, _ = _load_config(args)
    inst = build_instance(params)
    p = inst.params
    print(f"q={p.q} m={p.m} n={p.n} t={p.t} mu={p.mu} k={p.k}")
    print(f"modulus={fileio.format_digits(inst.F.modulus, p.q)}")
    print(f"outer_code_min_distance={p.min_distance}")
    print(f"rate_packets={p.k} rate_bits={p.rate_bits:g}")
    print("status=ok")
    return EXIT_OK


def cmd_encode(args) -> int:
    params, config_seed = _load_config(args)
    inst = build_instance(params)
    S = _read_input(fileio.read_packets, args.message, inst.F,
                    what="message file")
    if args.force_v is not None:
        if args.seed is not None:
            raise UsageError("--seed does not apply with --force-v")
        V = [inst.F.parse_element(tok) for tok in args.force_v.split(",") if tok]
        X = inst.encode(S, force_v=V)
    else:
        seed = _resolve_seed(args, config_seed)
        X = inst.encode(S, rng=np.random.default_rng(seed))
    _emit(fileio.format_packets(X, inst.F), args.out)
    return EXIT_OK


def cmd_decode(args) -> int:
    if args.noncoherent and args.transfer:
        raise UsageError("--transfer does not apply to noncoherent decoding")
    params, _ = _load_config(args)
    inst = build_instance(params)
    F = inst.F
    if args.noncoherent:
        Y = _read_input(fileio.read_matrix, args.payload, params.q,
                        what="payload file")
        out = noncoherent_decode(inst, Y)
    else:
        y = _read_input(fileio.read_packets, args.payload, F,
                        what="payload file")
        if args.transfer:
            A = _read_input(fileio.read_matrix, args.transfer, params.q,
                            what="transfer file")
        else:
            A = np.eye(params.n, dtype=np.int64)
        out = inst.coherent_decode(la.expand(F, y), A)
    if not out.ok:
        print(f"decode failed: {out.reason}", file=sys.stderr)
        return EXIT_FAILURE
    _emit(fileio.format_packets(out.message, F), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    params, config_seed = _load_config(args)
    inst = build_instance(params)
    rng = np.random.default_rng(_resolve_seed(args, config_seed))
    start = time.monotonic()
    rep = reliability_audit(inst, "sampled", rng, trials=args.trials,
                            lifted=args.noncoherent, budget=args.budget, N=args.N)
    elapsed = time.monotonic() - start
    # the audit report's own count, rank and verdict lines
    _, counts, ranks, *_, verdict = rep.text().splitlines()
    _emit("\n".join([
        f"simulate adversary=random noncoherent={str(args.noncoherent).lower()}",
        counts, ranks, f"elapsed_seconds={elapsed:.3f}", verdict,
    ]) + "\n", args.out)
    return EXIT_OK if rep.passed else EXIT_FAILURE


# Each count flag of `audit`, the (kind, mode) it applies to, and its default.
_AUDIT_COUNTS = {
    "tap_rows": ("secrecy", None, None),
    "samples": ("secrecy", "sampled", 20),
    "transfers": ("reliability", "exhaustive", 20),
    "trials": ("reliability", "sampled", 1000),
}


def cmd_audit(args) -> int:
    for name, (kind, mode, default) in _AUDIT_COUNTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif kind != args.kind or mode not in (None, args.mode):
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag} does not apply to the {args.mode} "
                             f"{args.kind} audit")
    params, config_seed = _load_config(args)
    inst = build_broken_instance(params) if args.break_mrd else build_instance(params)
    rng = None
    if args.mode == "sampled" or (args.kind == "reliability" and args.transfers):
        rng = np.random.default_rng(_resolve_seed(args, config_seed))
    if args.kind == "secrecy":
        rep = secrecy_audit(inst, mode=args.mode, rng=rng,
                            tap_rows=args.tap_rows, lifted=args.lifted,
                            samples=args.samples, budget=args.budget)
    else:
        rep = reliability_audit(inst, mode=args.mode, rng=rng,
                                random_transfers=args.transfers,
                                trials=args.trials, lifted=args.lifted,
                                budget=args.budget)
    text = rep.text()
    sys.stdout.write(text)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
    return EXIT_OK if rep.passed else EXIT_FAILURE


# ----------------------------------------------------------------------
# Parser assembly
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    budget_help = ("refuse, before any work, a run that needs more: it counts "
                   "cases, candidate solves for lifted decodes, and the "
                   "entries one un-mix reduces: N * (n + m) for a sampled "
                   "trial, N * (n + N) for an audited random transfer")
    parser = _Parser(
        prog="secnc",
        description="Rank-metric coset coding for secure network coding.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def common(sp, seeded=True):
        sp.add_argument("--config", required=True,
                        help="JSON scheme parameters (q, m, n, t, mu, k)")
        if seeded:
            sp.add_argument("--seed", type=_seed, default=None,
                            help="64-bit RNG seed; omitted = entropy, printed")

    sp = sub.add_parser("params", help="validate parameters, print summary")
    common(sp, seeded=False)
    sp.set_defaults(func=cmd_params)

    sp = sub.add_parser("encode", help="encode a message file into a payload")
    common(sp)
    sp.add_argument("--message", required=True, help="k packet lines")
    sp.add_argument("--out", default=None, help="payload path (default stdout)")
    sp.add_argument("--force-v", default=None, metavar="ELEMS",
                    help="UNSAFE comma-separated padding elements; fixing V "
                         "voids the secrecy guarantee, test use only")
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("decode", help="recover the message from observations")
    common(sp, seeded=False)
    sp.add_argument("--payload", required=True,
                    help="packet lines; a 'rows cols' matrix for --noncoherent")
    sp.add_argument("--transfer", default=None,
                    help="transfer matrix file (default identity), N x n of "
                         "any rank n - rho: decodes when 2 rank(DZ) + rho <= 2t, "
                         "the rho lost dimensions as erasures")
    sp.add_argument("--noncoherent", action="store_true",
                    help="decode a lifted observation without the transfer")
    sp.add_argument("--out", default=None, help="message path (default stdout)")
    sp.set_defaults(func=cmd_decode)

    sp = sub.add_parser("simulate",
                        help="random transmissions against a random adversary")
    common(sp)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--N", type=int, default=None,
                    help="received packet count (default n + t)")
    sp.add_argument("--noncoherent", action="store_true",
                    help="lift transmissions and decode without the transfer")
    sp.add_argument("--budget", type=int, default=DEFAULT_AUDIT_BUDGET,
                    help=budget_help)
    sp.add_argument("--out", default=None, help="report path (default stdout)")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("audit", help="exhaustive secrecy/reliability checks")
    common(sp)
    sp.add_argument("kind", choices=["secrecy", "reliability"])
    sp.add_argument("--mode", choices=["exhaustive", "sampled"],
                    default="exhaustive")
    sp.add_argument("--budget", type=int, default=DEFAULT_AUDIT_BUDGET,
                    help=budget_help)
    sp.add_argument("--tap-rows", type=int, default=None,
                    help="eavesdropper rows (default mu)")
    sp.add_argument("--lifted", action="store_true",
                    help="audit lifted transmissions [I | X]: taps on them "
                         "(secrecy), or noncoherent decoding of them, transfer "
                         "unknown (reliability)")
    sp.add_argument("--samples", type=int, default=None,
                    help="tap samples in sampled secrecy mode (default 20)")
    sp.add_argument("--transfers", type=int, default=None,
                    help="random transfer matrices in exhaustive reliability "
                         "mode (default 20)")
    sp.add_argument("--trials", type=int, default=None,
                    help="cases in sampled reliability mode (default 1000)")
    sp.add_argument("--break-mrd", action="store_true",
                    help="UNSAFE negative control: spoil the code so the "
                         "secrecy audit must report leakage")
    sp.add_argument("--report", default=None, help="also write the report here")
    sp.set_defaults(func=cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"secnc: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as e:
        print(f"secnc: refused: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except ValidationError as e:
        print(f"secnc: rejected ({e.reason}): {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except ParameterError as e:
        print(f"secnc: rejected: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"secnc: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
