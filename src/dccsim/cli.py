"""Command-line interface: build and verify codes, trace the decoder, and
run Monte Carlo simulations.

Exit codes: 0 success, 2 verification failure, 3 capacity or feasibility
limit (including a decoder posterior that vanished), 4 usage error
(including unreadable, unwritable or malformed files and events).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from . import __version__, f2
from .csscode import (
    CodeConstructionError,
    EvennessWitness,
    build_cleanability_table,
    check_evenness,
    make_code,
    verify_transversality,
)
from .codefamily import build_gadget_codes, cached_doubled, qubit_counts
from .f2 import CapacityError, Subspace, min_odd_weight
from .settings import ENGINE_NAMES, DegeneratePosteriorError, NumericError, ProtocolConfig

# The simulator (protocol, decoder, noise) is imported by the commands that
# run it, so build and verify start without it and without numpy.

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
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"DCC_SEED must be an integer, got {env!r}") from None


@functools.cache
def build_parser() -> _Parser:
    """The parser, built once: parse_args leaves it unchanged."""
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
    d.add_argument("--decoder", choices=ENGINE_NAMES, default="exact")
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
    parser.add_argument("--decoder", choices=ENGINE_NAMES, default=ProtocolConfig.decoder)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--max-gates", type=int, default=ProtocolConfig.max_gates)
    parser.add_argument("--eps", type=float, default=ProtocolConfig.eps)
    parser.add_argument("--threads", type=int, default=0, help="0 = available parallelism")
    parser.add_argument("--out", default="-")


# ---------------------------------------------------------------------------
# build / verify
# ---------------------------------------------------------------------------

def cmd_build(args) -> int:
    import hashlib

    t, stage = args.t, args.stage
    if not 1 <= t <= 4:
        raise UsageError("t must be between 1 and 4")
    codes = cached_doubled(t) if stage == "doubled" else build_gadget_codes(t, stage)
    n = codes.n
    # Minimum-weight odd dual vector: a boundary side of the top-level
    # lattice on its A block (weight 2t+1, disjoint from every gadget).
    side = codes.lattices[t].boundary_bits(1) << codes.layout.offset(f"A{t}")
    obj = {
        "n": n,
        "name": f"doubled-color-code-t{t}-{stage}",
        "A": [f2.row_to_hex(row, n) for row in codes.t_space.basis],
        "B": [f2.row_to_hex(row, n) for row in codes.dot_t_space.basis],
        "witness": codes.witness_t.to_json(),
        "version": __version__,
        "config_hash": hashlib.sha256(f"t={t} stage={stage}".encode()).hexdigest()[:12],
        "t": t,
        "stage": stage,
        "C": [f2.row_to_hex(row, n) for row in codes.c_space.basis],
        "c_witness": codes.witness_c.to_json(),
        "distance_witness": f2.row_to_hex(side, n),
        "qubit_counts": qubit_counts(t),
        "generators": [
            {"kind": g.kind, "level": g.level, "support": list(g.support())}
            for g in codes.generators
        ],
    }
    with open(args.out, "w") as fh:
        fh.write(json.dumps(obj, indent=1) + "\n")
    print(f"wrote {args.out}: n={n} stage={stage}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.distance_budget < 0:
        raise UsageError(f"--distance-budget must be at least 0, got {args.distance_budget}")
    with open(args.code_json) as fh:
        obj = json.load(fh)
    try:
        n, t, stage = obj["n"], obj["t"], obj["stage"]
        # The counts and every site list are checked before any vector is
        # built from them: n, t, the witness orders and each site are ints,
        # not bools or floats, and a site lies in [0, n).
        counts = {"n": n, "t": t, **{f"{w}.order": obj[w]["order"] for w in ("witness", "c_witness")}}
        for field, value in counts.items():
            if type(value) is not int:
                raise UsageError(f"{args.code_json}: {field} must be an integer, got {value!r}")
        sites = {f"{w}.{side}": obj[w][side] for w in ("witness", "c_witness") for side in ("plus", "minus")}
        sites.update((f"generators[{i}].support", g["support"]) for i, g in enumerate(obj["generators"]))
        for field, values in sites.items():
            if not isinstance(values, list) or any(type(j) is not int or not 0 <= j < n for j in values):
                raise UsageError(f"{args.code_json}: {field} must list ints in [0, {n}), got {values!r}")
        t_space, dot_t, c_space = (Subspace(n, [f2.hex_to_row(row, n) for row in obj[key]]) for key in "ABC")
        w_t, w_c = EvennessWitness.from_json(obj["witness"]), EvennessWitness.from_json(obj["c_witness"])
        gen_rows = [f2.vector_from_support(g["support"]) for g in obj["generators"]]
        stage_n = qubit_counts(t)[stage]
        witness = f2.hex_to_row(obj["distance_witness"], n)
    except (KeyError, TypeError) as exc:
        raise UsageError(f"{args.code_json} is not a code JSON: {type(exc).__name__} {exc}") from exc
    budget = args.distance_budget

    # A pair that is not a subsystem code fails verification, by name.
    codes = []
    for pair, a_space, b_space in (("(A, B)", t_space, dot_t), ("(C, C)", c_space, c_space)):
        try:
            codes.append(make_code(a_space, b_space))
        except CodeConstructionError as exc:
            print(f"FAIL  subsystem code (A, B) = {pair}: {exc}")
            raise VerificationFailure(f"{pair} is not a subsystem code") from exc
    t_code, c_code = codes
    # Each fact is computed once. No dot space is built: make_code has
    # proved each pair even and mutually orthogonal on an odd n, so a pair
    # closes its chain exactly when dim A + dim B = n - 1 (is_regular), and
    # C lies inside dot(C) already. A T (S) transversality check passes
    # only if the order-8 (order-4) witness does, so the witness is checked
    # again only when it failed.
    transversal_t = verify_transversality(t_code, "T", w_t)
    transversal_s = verify_transversality(c_code, "S", w_c)
    checks: list[tuple[str, bool]] = []
    checks.append(("dot space closes the chain", t_code.is_regular))
    checks.append(("triply-even side inside doubly-even side", c_space.contains_subspace(t_space)))
    checks.append(("doubly-even side inside its own dot space", True))
    checks.append(("doubly-even side inside the dot space", dot_t.contains_subspace(c_space)))
    if stage == "doubled":
        checks.append(("doubly-even side is dot-self-dual", c_code.is_regular))
    checks.append(("generator list spans the dot space", Subspace(n, gen_rows) == dot_t))
    if stage != "doubled":  # the doubled stage's link rows weigh up to 4t
        checks.append(("every generator has weight <= 6", all(row.bit_count() <= 6 for row in gen_rows)))
    checks.append(("order-8 witness", transversal_t or check_evenness(t_space, w_t)))
    checks.append(("order-4 witness", transversal_s or check_evenness(c_space, w_c)))
    checks.append(("witness imbalance is odd", w_t.m % 2 == 1 and w_c.m % 2 == 1))
    checks.append(("transversal T conditions", transversal_t))
    checks.append(("transversal H conditions", verify_transversality(c_code, "H")))
    checks.append(("transversal S conditions", transversal_s))

    expected = 2 * t + 1
    checks.append(("qubit count matches the stage formula", n == stage_n))
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
    if n == 15:  # 996 is the 15-qubit code's count
        try:
            cleanable = len(build_cleanability_table(t_code, w_t).cleanable)
        except CodeConstructionError:  # not regular, or the witness leaves a site ungated
            cleanable = 0
        checks.append(("cleanable cosets = 996", cleanable == 996))
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    if failed := [name for name, ok in checks if not ok]:
        raise VerificationFailure("; ".join(failed))
    return EXIT_OK


# ---------------------------------------------------------------------------
# decode-trace
# ---------------------------------------------------------------------------

def _is_number(value) -> bool:
    """An int or float from JSON; true and false are bools, not numbers."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _probability(value, what: str) -> float:
    if not _is_number(value) or not 0.0 <= value <= 1.0:
        raise UsageError(f"{what} must be a number in [0, 1], got {value!r}")
    return float(value)


def cmd_decode_trace(args) -> int:
    from .decoder import init_likelihood
    from .noise import CLIFFORD_CLASSES
    from .protocol import family15

    fam = family15()
    needs = {"syndrome": ("t", "c"), "clifford": ("c",), "T": ("t",)}  # stages an event needs
    p = _probability(args.p, "--p")
    stage = "t"
    rho = init_likelihood(fam.t_stage.layout, args.decoder)
    step = 0
    with contextlib.ExitStack() as files:
        source = sys.stdin if args.events == "-" else files.enter_context(open(args.events))
        sink = sys.stdout if args.out == "-" else files.enter_context(open(args.out, "w"))
        for lineno, line in enumerate(source, 1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise UsageError(f"line {lineno}: not JSON: {exc}") from exc
            if not isinstance(event, dict) or "type" not in event:
                raise UsageError(f"line {lineno}: an event is a JSON object with a \"type\"")
            kind = event["type"]
            if isinstance(kind, str) and stage not in needs.get(kind, fam.stages):
                raise UsageError(f"line {lineno}: {kind} events need the "
                                 f"{' or '.join(needs[kind])} stage, not {stage}")
            if kind == "memory":
                rho.apply_memory(*rho.memory_input(fam.stages[stage].code.coset_map, p))
            elif kind == "syndrome":
                smap, bits = fam.syndromes[stage], event.get("bits")
                if not (isinstance(bits, list) and len(bits) == smap.width
                        and all(_is_number(b) and b in (0, 1) for b in bits)):
                    raise UsageError(f"line {lineno}: syndrome bits must be a list of "
                                     f"{smap.width} zeros and ones at the {stage} stage")
                observed = sum(int(b) << i for i, b in enumerate(bits))
                rho.apply_syndrome(smap, observed, _probability(event.get("q", p), f"line {lineno}: q"))
            elif kind == "deform":
                target = event.get("to")
                if not isinstance(target, str) or (stage, target) not in fam.deformations:
                    raise UsageError(f"line {lineno}: no deformation from {stage!r} to {target!r}")
                rho.deform(fam.deformations[stage, target])
                stage = target
            elif kind == "clifford":
                index = event.get("action")
                if type(index) is not int or index not in range(len(CLIFFORD_CLASSES)):  # not a bool
                    raise UsageError(f"line {lineno}: clifford action must be an index 0..5, got {index!r}")
                rho.apply_clifford(CLIFFORD_CLASSES[index])
            elif kind == "recovery":
                rho.choose_recovery()
            elif kind == "T":
                rho.apply_t_gate(fam.t_update)
            elif kind == "truncate":
                rho.truncate(_probability(event.get("eps", ProtocolConfig.eps), f"line {lineno}: eps"))
            else:
                raise UsageError(f"line {lineno}: unknown event type {kind!r}")
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
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate / sweep
# ---------------------------------------------------------------------------

def _resolve_config(args, p: float) -> ProtocolConfig:
    if args.threads < 0:
        raise UsageError("--threads must be at least 0")
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


def _csv_sink(path: str):
    return contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w", newline="")


def _write_rows(sink, configs, estimates) -> None:
    """Write a comment line that suffices to rerun the rows, then the CSV.

    The comment holds the settings the rows share as JSON, without p (a
    column) and threads (which changes no result), and each row's config
    hash in row order.
    """
    import csv

    shared = configs[0].to_json()
    del shared["p"], shared["threads"]
    text = json.dumps(shared, sort_keys=True, separators=(",", ":"))
    hashes = ",".join(config.hash() for config in configs)
    sink.write(f"# dccsim {__version__} config={text} config_hash={hashes}\n")
    rows = [est.csv_row() for est in estimates]
    writer = csv.DictWriter(sink, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)


def _note_sparse_cost(configs: list[ProtocolConfig]) -> None:
    """Above the measured crossover the sparse engine's support, and so its
    cost per round, outgrows the exact engine's flat cost (see the README)."""
    crossover = 0.06
    if any(config.decoder == "sparse" and config.p > crossover for config in configs):
        print(f"note: above p = {crossover} the sparse decoder slows as p grows; "
              "--decoder exact runs at a flat cost there", file=sys.stderr)


def _estimate_rows(args, ps) -> list:
    """Resolve one config per p, note the sparse engine's cost, open the sink
    before any trial runs, then estimate each p and write the rows."""
    from .protocol import estimate_pl

    configs = [_resolve_config(args, p) for p in ps]
    _note_sparse_cost(configs)
    with _csv_sink(args.out) as sink:
        estimates = [estimate_pl(config) for config in configs]
        _write_rows(sink, configs, estimates)
    return estimates


def cmd_simulate(args) -> int:
    _estimate_rows(args, [args.p])
    return EXIT_OK


def cmd_sweep(args) -> int:
    values = [v for v in args.p_list.split(",") if v.strip()]
    if not values:
        raise UsageError("empty p list")
    for est in _estimate_rows(args, (float(text) for text in values)):
        if est.p_l is not None:
            row = est.csv_row()
            print(f"p={est.p:g} p_L={row['p_L']} stderr={row['stderr']}", file=sys.stderr)
    return EXIT_OK


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
    except (DegeneratePosteriorError, NumericError) as exc:
        print(f"capacity: the {args.decoder} decoder cannot follow this run: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (UsageError, ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
