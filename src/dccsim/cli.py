"""Command-line interface: build and verify codes, trace the decoder, and
run Monte Carlo simulations.

Exit codes: 0 success, 2 verification failure, 3 capacity or feasibility
limit, 4 usage error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time

from . import __version__, f2
from .csscode import (
    CapacityError,
    EvennessWitness,
    build_cleanability_table,
    check_evenness,
    make_code,
    verify_transversality,
)
from .codefamily import build_gadget_codes, cached_doubled, qubit_counts
from .decoder import init_likelihood
from .f2 import Subspace, min_odd_weight
from .noise import CLIFFORD_CLASSES
from .protocol import (
    CSV_COLUMNS,
    ProtocolConfig,
    estimate_pl,
    family15,
)

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_CAPACITY = 3
EXIT_USAGE = 4


class VerificationFailure(Exception):
    pass


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise UsageError(message)


def _seed_default() -> int:
    env = os.environ.get("DCC_SEED")
    return int(env) if env else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="dccsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a code family member and write its JSON")
    b.add_argument("--t", type=int, required=True)
    b.add_argument("--stage", choices=["doubled", "gadget", "final"], default="final")
    b.add_argument("--out", required=True)

    v = sub.add_parser("verify", help="re-check a built code JSON")
    v.add_argument("code_json")
    v.add_argument("--distance-budget", type=int, default=3)

    d = sub.add_parser("decode-trace", help="drive a decoder from a JSON-lines event stream")
    d.add_argument("--events", default="-", help="path or - for stdin")
    d.add_argument("--p", type=float, default=0.01)
    d.add_argument("--decoder", choices=["exact", "sparse"], default="exact")
    d.add_argument("--out", default="-")

    s = sub.add_parser("simulate", help="Monte Carlo estimate of the logical error rate")
    _simulate_flags(s)

    w = sub.add_parser("sweep", help="simulate over a list of physical error rates")
    w.add_argument("--p-list", required=True, help="comma-separated error rates")
    _simulate_flags(w, with_p=False)

    return parser


def _simulate_flags(parser: argparse.ArgumentParser, with_p: bool = True) -> None:
    if with_p:
        parser.add_argument("--p", type=float, required=True)
    parser.add_argument("--trials", type=int, default=400)
    parser.add_argument("--decoder", choices=["exact", "sparse"], default="sparse")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--max-gates", type=int, default=100_000)
    parser.add_argument("--eps", type=float, default=1e-6)
    parser.add_argument("--threads", type=int, default=0, help="0 = available parallelism")
    parser.add_argument("--out", default="-")


# ---------------------------------------------------------------------------
# build / verify
# ---------------------------------------------------------------------------

def _stage_codes(t: int, stage: str):
    if stage == "doubled":
        d = cached_doubled(t)
        obj = d
    else:
        obj = build_gadget_codes(t, stage)
    # Minimum-weight odd dual vector: a boundary side of the top-level
    # lattice on its A block (weight 2t+1, disjoint from every gadget).
    side = obj.lattices[t].boundary_bits(1) << obj.layout.offset(f"A{t}")
    if stage == "doubled":
        return d.t_space, d.dot_t_space, d.c_space, d.witness_t, d.witness_c, d.generators, d.layout.n, side
    return (
        obj.t_space,
        obj.dot_t_space,
        obj.c_space,
        obj.witness_t,
        obj.witness_c,
        obj.generators,
        obj.n,
        side,
    )


def cmd_build(args) -> int:
    if not 1 <= args.t <= 4:
        raise UsageError("t must be between 1 and 4")
    t_space, dot_t, c_space, w_t, w_c, gens, n, dist_witness = _stage_codes(args.t, args.stage)
    config_hash = hashlib.sha256(f"t={args.t} stage={args.stage}".encode()).hexdigest()[:12]
    obj = {
        "version": __version__,
        "config_hash": config_hash,
        "name": f"doubled-color-code-t{args.t}-{args.stage}",
        "t": args.t,
        "stage": args.stage,
        "n": n,
        "A": [f2.row_to_hex(row, n) for row in t_space.basis],
        "B": [f2.row_to_hex(row, n) for row in dot_t.basis],
        "C": [f2.row_to_hex(row, n) for row in c_space.basis],
        "witness": w_t.to_json(),
        "c_witness": w_c.to_json(),
        "distance_witness": f2.row_to_hex(dist_witness, n),
        "qubit_counts": qubit_counts(args.t),
        "generators": [
            {"kind": g.kind, "level": g.level, "support": list(g.support())}
            for g in gens
        ],
    }
    with open(args.out, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}: n={n} stage={args.stage}")
    return EXIT_OK


def cmd_verify(args) -> int:
    with open(args.code_json) as fh:
        obj = json.load(fh)
    n = obj["n"]
    t_space = Subspace(n, [f2.hex_to_row(r, n) for r in obj["A"]])
    dot_t = Subspace(n, [f2.hex_to_row(r, n) for r in obj["B"]])
    c_space = Subspace(n, [f2.hex_to_row(r, n) for r in obj["C"]])
    w_t = EvennessWitness.from_json(obj["witness"])
    w_c = EvennessWitness.from_json(obj["c_witness"])
    gen_rows = [f2.vector_from_support(g["support"]) for g in obj["generators"]]
    budget = args.distance_budget

    checks: list[tuple[str, bool]] = []
    checks.append(("dot space closes the chain", dot_t == t_space.dot_space()))
    checks.append(("triply-even side inside doubly-even side", c_space.contains_subspace(t_space)))
    checks.append(("doubly-even side inside its own dot space", c_space.dot_space().contains_subspace(c_space)))
    checks.append(("doubly-even side inside the dot space", dot_t.contains_subspace(c_space)))
    if obj.get("stage") == "doubled":
        checks.append(("doubly-even side is dot-self-dual", c_space.dot_space() == c_space))
    checks.append(("generator list spans the dot space", Subspace(n, gen_rows) == dot_t))
    checks.append(("order-8 witness", check_evenness(t_space, w_t)))
    checks.append(("order-4 witness", check_evenness(c_space, w_c)))
    checks.append(("witness imbalance is odd", w_t.m % 2 == 1 and w_c.m % 2 == 1))

    t_code = make_code(t_space, dot_t)
    checks.append(("transversal T conditions", verify_transversality(t_code, "T", w_t)))
    c_code = make_code(c_space, c_space)
    checks.append(("transversal H conditions", verify_transversality(c_code, "H")))
    checks.append(("transversal S conditions", verify_transversality(c_code, "S", w_c)))

    expected = 2 * obj["t"] + 1
    checks.append(("qubit count matches the stage formula",
                   n == qubit_counts(obj["t"])[obj["stage"]]))
    witness = f2.hex_to_row(obj["distance_witness"], n)
    witness_ok = (
        witness.bit_count() == expected
        and witness.bit_count() % 2 == 1
        and all((witness & row).bit_count() % 2 == 0 for row in t_space.basis)
    )
    checks.append((f"upper-bound witness: odd dual vector of weight {expected}", witness_ok))
    d = min_odd_weight(t_space, max_weight=budget)
    if d is None:
        checks.append((f"distance exceeds budget {budget}, witness gives <= {expected}",
                       budget < expected))
    else:
        checks.append((f"distance within budget is {d} (expected {expected})", d == expected))
    if n == 15:
        table = build_cleanability_table(t_code)
        checks.append(("cleanable cosets = 996", len(table.cleanable) == 996))

    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    if failed:
        raise VerificationFailure("; ".join(failed))
    return EXIT_OK


# ---------------------------------------------------------------------------
# decode-trace
# ---------------------------------------------------------------------------

def cmd_decode_trace(args) -> int:
    fam = family15()
    stages = {"t": fam.t_stage, "base": fam.base_stage, "c": fam.c_stage}
    deforms = {
        ("t", "base"): fam.t_to_base,
        ("base", "c"): fam.base_to_c,
        ("c", "base"): fam.c_to_base,
        ("base", "t"): fam.base_to_t,
    }
    stage = "t"
    rho = init_likelihood(fam.t_stage.layout, args.decoder)
    sparse = args.decoder == "sparse"
    source = sys.stdin if args.events == "-" else open(args.events)
    sink = sys.stdout if args.out == "-" else open(args.out, "w")
    step = 0
    try:
        for line in source:
            line = line.strip()
            if not line:
                continue
            event = json.loads(line)
            kind = event["type"]
            if kind == "memory":
                if stage == "base":
                    raise UsageError("memory events are undefined at the base stage")
                if sparse:
                    rho.apply_memory(*fam.sparse_memory(stage, args.p))
                else:
                    rho.apply_memory(fam.dense_memory(stage, args.p))
            elif kind == "syndrome":
                smap = fam.m_c if stage == "c" else fam.m_t
                bits = 0
                for i, b in enumerate(event["bits"]):
                    bits |= (b & 1) << i
                rho.apply_syndrome(smap, bits, event.get("q", args.p))
            elif kind == "deform":
                rho.deform(deforms[(stage, event["to"])])
                stage = event["to"]
            elif kind == "clifford":
                rho.apply_clifford(CLIFFORD_CLASSES[event["action"]])
            elif kind == "recovery":
                rho.choose_recovery()
            elif kind == "T":
                rho.apply_t_gate(fam.t_update)
            elif kind == "truncate":
                rho.truncate(event.get("eps", 1e-6))
            else:
                raise UsageError(f"unknown event type {kind!r}")
            step += 1
            record = {
                "step": step,
                "type": kind,
                "stage": stage,
                "argmax": rho.final_coset(),
                "entropy": round(rho.entropy(), 9),
                "support": rho.support_size(),
            }
            sink.write(json.dumps(record) + "\n")
    finally:
        if source is not sys.stdin:
            source.close()
        if sink is not sys.stdout:
            sink.close()
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate / sweep
# ---------------------------------------------------------------------------

def _resolve_config(args, p: float) -> ProtocolConfig:
    threads = args.threads if args.threads > 0 else (os.cpu_count() or 1)
    seed = args.seed if args.seed is not None else _seed_default()
    return ProtocolConfig(
        p=p,
        trials=args.trials,
        max_gates=args.max_gates,
        decoder=args.decoder,
        eps=args.eps,
        seed=seed,
        threads=threads,
    )


def _write_rows(path: str, configs, estimates) -> None:
    sink = sys.stdout if path == "-" else open(path, "w", newline="")
    try:
        header = configs[0]
        sink.write(
            f"# dccsim {__version__} seed={header.seed} config_hash={header.hash()}\n"
        )
        writer = csv.DictWriter(sink, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for est in estimates:
            writer.writerow(est.csv_row())
    finally:
        if sink is not sys.stdout:
            sink.close()


def cmd_simulate(args) -> int:
    config = _resolve_config(args, args.p)
    print(f"config: {json.dumps(config.to_json(), sort_keys=True)} hash={config.hash()}")
    start = time.monotonic()
    est = estimate_pl(config)
    est = _with_wall(est, time.monotonic() - start)
    _write_rows(args.out, [config], [est])
    return EXIT_OK


def cmd_sweep(args) -> int:
    values = [v for v in args.p_list.split(",") if v.strip()]
    if not values:
        raise UsageError("empty p list")
    configs, estimates = [], []
    for text in values:
        config = _resolve_config(args, float(text))
        print(f"config: {json.dumps(config.to_json(), sort_keys=True)} hash={config.hash()}")
        start = time.monotonic()
        est = estimate_pl(config)
        estimates.append(_with_wall(est, time.monotonic() - start))
        configs.append(config)
    _write_rows(args.out, configs, estimates)
    for est in estimates:
        if est.p_l is not None:
            print(f"p={est.p:g} p_L={est.p_l:.4g}")
    return EXIT_OK


def _with_wall(est, seconds):
    from dataclasses import replace

    return replace(est, wall_seconds=seconds)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "build": cmd_build,
            "verify": cmd_verify,
            "decode-trace": cmd_decode_trace,
            "simulate": cmd_simulate,
            "sweep": cmd_sweep,
        }[args.command]
        return handler(args)
    except CapacityError as exc:  # a ValueError, so caught before the usage branch
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
