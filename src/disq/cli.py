"""Command-line experiment runner.

Subcommands:
  order      -- run order-finding shots and emit per-shot records + a summary
  factor     -- run the factoring driver against an odd composite modulus
  resources  -- print the analytic resource comparison (single L or a sweep)

JSON output is one object per line (shot records, then one summary object),
every object carrying "schema": 1.  CSV output is the aggregate row.  A fixed
--seed (or the DISQ_SEED environment variable as fallback) makes output
byte-identical across runs, including with --workers > 1.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction

import numpy as np

from . import protocol, resources
from .protocol import (
    ENGINE_DISTRIBUTED,
    ENGINE_MONOLITHIC,
    MODE_JOINT,
    MODE_SEQUENTIAL,
    ProtocolParams,
)
from .statevec import CapacityError

EXIT_OK = 0
EXIT_FAILURE = 1  # capacity exceeded, factoring gave up, etc.
EXIT_USAGE = 2

# Each summary column names its summary key, with "-" written as "_".
CSV_SUMMARY_COLUMNS = ["N", "a", "epsilon", "shots", "success-rate", "theorem2-bound", "mean-error"]

# (column, ResourceReport field) for each column of the --sweep-L CSV.
CSV_SWEEP_COLUMNS = [
    ("L", "L"),
    ("epsilon", "epsilon"),
    ("qubits-monolithic", "qubits_monolithic"),
    ("qubits-node-A", "qubits_node_a"),
    ("qubits-node-B", "qubits_node_b"),
    ("qubit-savings", "qubit_savings"),
    ("ctrl-len-monolithic", "ctrl_len_monolithic"),
    ("ctrl-len-node-A", "ctrl_len_node_a"),
    ("ctrl-len-node-B", "ctrl_len_node_b"),
    ("classical-bits-distributed", "classical_bits_distributed"),
]


class UsageError(Exception):
    pass


# Decimal digits allowed in epsilon's numerator and in its denominator.  Far
# more than any run or resource count can use, and far below the 4300 digits
# past which Python will not print an integer.
EPSILON_DIGITS = 300


def _parse_epsilon(text: str) -> Fraction:
    too_many = f"epsilon's numerator or denominator has more than {EPSILON_DIGITS} digits"
    if len(text) > 3 * EPSILON_DIGITS:
        raise UsageError(f"epsilon is longer than {3 * EPSILON_DIGITS} characters")
    # Fraction builds 10^|exponent| before it reduces: an exponent that alone
    # gives a term too many digits, whatever the mantissa (at most len(text)
    # digits), is refused unparsed.
    exponent = re.search(r"e([-+]?\d+(?:_\d+)*)\s*$", text, re.IGNORECASE)
    if exponent and abs(int(exponent[1])) >= len(text) + EPSILON_DIGITS:
        raise UsageError(too_many)
    try:
        eps = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse epsilon {text!r}: {exc}") from None
    if max(abs(eps.numerator), eps.denominator) >= 10**EPSILON_DIGITS:
        raise UsageError(too_many)
    if not 0 < eps < 1:
        raise UsageError(f"epsilon must be in (0, 1), got {eps}")
    return eps


def _resolve_seed(seed: int | None) -> int | None:
    env = os.environ.get("DISQ_SEED")
    if seed is None and env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise UsageError(f"DISQ_SEED must be an integer, got {env!r}") from None
    if seed is not None and seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    return seed


def _pick_base(N: int, rng: np.random.Generator) -> int:
    coprime = [a for a in range(1, N) if math.gcd(a, N) == 1]
    return int(coprime[rng.integers(0, len(coprime))])


def _smallest_prime_factor(n: int) -> int | None:
    f = 2
    while f * f <= n:
        if n % f == 0:
            return f
        f += 1
    return None


def _check_run(args: argparse.Namespace, epsilon: Fraction) -> None:
    try:
        protocol.check_engine_and_mode(args.engine, args.mode)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    # Register widths do not depend on the base, so base 1 stands in for it
    # and an oversized run is refused before any work that grows with N.
    protocol.check_capacity(ProtocolParams.derive(args.N, 1, epsilon), args.engine, args.mode)


def _check_factorable(N: int) -> None:
    spf = _smallest_prime_factor(N)
    if spf is None:
        raise UsageError(f"N={N} is prime; nothing to factor")
    power = spf
    while power < N:
        power *= spf
    if power == N:
        raise UsageError(f"N={N} is a prime power ({spf}^k); use a root-finding shortcut")


def _open_output(path: str):
    """The output stream as a context manager: stdout for '-', else the file."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write output {path!r}: {exc.strerror}") from None


def cmd_order(args: argparse.Namespace) -> int:
    epsilon = _parse_epsilon(args.epsilon)
    seed = _resolve_seed(args.seed)
    if args.N < 2:
        raise UsageError(f"N must be >= 2, got {args.N}")
    if args.shots < 1:
        raise UsageError(f"shots must be >= 1, got {args.shots}")
    if args.workers < 1:
        raise UsageError(f"workers must be >= 1, got {args.workers}")
    a = args.a
    if a is not None and (not 1 <= a < args.N or math.gcd(a, args.N) != 1):
        raise UsageError(f"need 1 <= a < N with gcd(a, N) = 1, got a={a}, N={args.N}")
    _check_run(args, epsilon)
    if a is None:
        # Shot i draws from [seed, i] (protocol.shot_rng); a third word keeps
        # the base draw off every shot's stream.
        a = _pick_base(args.N, np.random.default_rng(seed if seed is None else [seed, 0, 0x0A]))
    params = ProtocolParams.derive(args.N, a, epsilon)
    with _open_output(args.output) as out:
        records = protocol.run_shots(
            params,
            args.shots,
            seed=seed,
            engine=args.engine,
            mode=args.mode,
            workers=args.workers,
        )
        summary = protocol.summarize(params, records)
        if args.format == "json":
            for record in records:
                print(json.dumps(record.to_json_dict(), separators=(",", ":")), file=out)
            print(json.dumps(summary, separators=(",", ":")), file=out)
        else:
            writer = csv.writer(out)
            writer.writerow(CSV_SUMMARY_COLUMNS)
            writer.writerow([summary[column.replace("-", "_")] for column in CSV_SUMMARY_COLUMNS])
    return EXIT_OK


def cmd_factor(args: argparse.Namespace) -> int:
    epsilon = _parse_epsilon(args.epsilon)
    seed = _resolve_seed(args.seed)
    if args.N < 3 or args.N % 2 == 0:
        raise UsageError(f"N must be odd and >= 3, got {args.N}")
    if args.max_attempts < 1:
        raise UsageError(f"max-attempts must be >= 1, got {args.max_attempts}")
    _check_run(args, epsilon)
    _check_factorable(args.N)
    rng = np.random.default_rng(seed if seed is None else [seed, 0x0F])
    result = protocol.run_shor_factoring(
        args.N,
        epsilon,
        rng,
        max_attempts=args.max_attempts,
        engine=args.engine,
        mode=args.mode,
    )
    if result.factor is None:
        print(
            f"no factor of {args.N} found in {result.attempt_count} attempt(s)",
            file=sys.stderr,
        )
        return EXIT_FAILURE
    print(
        json.dumps(
            {
                "schema": 1,
                "type": "factor",
                "N": args.N,
                "factor": result.factor,
                "cofactor": args.N // result.factor,
                "attempts": result.attempt_count,
            },
            separators=(",", ":"),
        )
    )
    return EXIT_OK


def _parse_sweep(spec: str) -> range:
    try:
        start, stop, step = (int(part) for part in spec.split(":"))
    except ValueError:
        raise UsageError(f"--sweep-L expects start:stop:step, got {spec!r}") from None
    if start < 2 or step < 1 or stop < start:
        raise UsageError(f"bad sweep range {spec!r}")
    return range(start, stop + 1, step)


def cmd_resources(args: argparse.Namespace) -> int:
    epsilon = _parse_epsilon(args.epsilon)
    if args.b_constant < 0:
        raise UsageError(f"b-constant must be >= 0, got {args.b_constant}")
    with _open_output(args.output) as out:
        if args.sweep_L:
            writer = csv.writer(out)
            writer.writerow([column for column, _ in CSV_SWEEP_COLUMNS])
            for L in _parse_sweep(args.sweep_L):
                if L % 2:
                    continue
                rep = resources.account(L, epsilon, args.b_constant)
                writer.writerow([getattr(rep, field) for _, field in CSV_SWEEP_COLUMNS])
            return EXIT_OK
        if args.L is None:
            raise UsageError("resources needs --L or --sweep-L")
        try:
            rep = resources.account(args.L, epsilon, args.b_constant)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        print(rep.to_json() if args.format == "json" else rep.table(), file=out)
        return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disq",
        description="Two-node order finding on a seeded state-vector simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by order and factor, which run the same engines.
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--N", type=int, required=True, help="modulus")
    run.add_argument("--epsilon", default="1/4", help="failure budget, e.g. 0.25 or 1/4")
    run.add_argument("--seed", type=int, default=None, help="falls back to DISQ_SEED")
    run.add_argument(
        "--engine", choices=[ENGINE_MONOLITHIC, ENGINE_DISTRIBUTED], default=ENGINE_DISTRIBUTED
    )
    run.add_argument("--mode", choices=[MODE_SEQUENTIAL, MODE_JOINT], default=MODE_SEQUENTIAL)

    order = sub.add_parser("order", parents=[run], help="run order-finding shots")
    order.add_argument("--a", type=int, default=None, help="base (random coprime if omitted)")
    order.add_argument("--shots", type=int, default=100)
    order.add_argument("--format", choices=["json", "csv"], default="json")
    order.add_argument("--output", default="-", help="output path, '-' for stdout")
    order.add_argument("--workers", type=int, default=1)
    order.set_defaults(handler=cmd_order)

    factor = sub.add_parser("factor", parents=[run], help="factor an odd composite modulus")
    factor.add_argument("--max-attempts", type=int, default=10)
    factor.set_defaults(handler=cmd_factor)

    res = sub.add_parser("resources", help="analytic resource comparison")
    res.add_argument("--L", type=int, default=None, help="even modulus bit length")
    res.add_argument("--epsilon", default="1/4")
    res.add_argument("--b-constant", type=int, default=0, help="auxiliary qubits per side")
    res.add_argument("--sweep-L", default=None, help="start:stop:step, emits CSV rows")
    res.add_argument("--format", choices=["table", "json"], default="table")
    res.add_argument("--output", default="-", help="output path, '-' for stdout")
    res.set_defaults(handler=cmd_resources)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call of the process reuses (parsing leaves it as it is)."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"error: {exc} (shrink N or epsilon)", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
