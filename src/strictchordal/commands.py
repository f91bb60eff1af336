"""The ``oracle``, ``check``, ``gen`` and ``bench`` commands.

``cli.main`` imports this module only when one of them runs, so ``analyze``
compiles none of them.  They share ``cli``'s file loader, printers and exit
codes, and import their helpers (the oracles, the generator) as they run.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from .cli import EXIT_MISMATCH, EXIT_OK, _ids, _load_graph, _print_class_error, _toughness_doc
from .cli import report_document
from .errors import CompleteGraphError, NotChordalError, NotConnectedError
from .errors import NotStrictlyChordalError, ParseError, TooLargeError
from .graph import Graph, connected_components, parse_graph, serialize_graph
from .vulnerability import CASE_COMPLETE, analyze


def _oracle_result_doc(result, g, kind):
    return {
        "value": _toughness_doc(result.value) if kind == "toughness" else result.value,
        "witness": _ids(result.witness, g),
        "subsets_examined": result.subsets_examined,
    }


def cmd_oracle(args) -> int:
    from . import oracle
    from .general import build_clique_tree, minimal_vertex_separators

    g = _load_graph(args.path)
    doc = {"n": g.n, "m": g.m, "mode": "separator_unions" if args.class_fast else "full"}
    try:
        if args.class_fast:
            table = minimal_vertex_separators(build_clique_tree(g))
            seps = [table.row(s) for s in range(len(table))]
            sc = oracle.restricted_scattering(g, seps)
            tau = oracle.restricted_toughness(g, seps)
        else:
            sc = oracle.brute_force_scattering(g)
            tau = oracle.brute_force_toughness(g)
        doc["scattering"] = _oracle_result_doc(sc, g, "scattering")
        doc["toughness"] = _oracle_result_doc(tau, g, "toughness")
    except CompleteGraphError:
        doc["scattering"] = {"value": "undefined", "witness": []}
        doc["toughness"] = {"value": "infinite", "witness": []}
    except (NotConnectedError, NotChordalError, NotStrictlyChordalError) as exc:
        return _print_class_error(exc, g)
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def _random_capped_graph(seed: int, trial: int, max_n: int):
    """Deterministic small strictly chordal instance with n <= max_n."""
    import random

    from . import generator

    attempt = 0
    while True:
        rng = random.Random((seed * 1_000_003 + trial) * 1_000_003 + attempt)
        params = generator.GenParams(
            seed=rng.getrandbits(62),
            block_count=rng.randint(1, 4),
            max_block_size=rng.randint(2, 5),
            max_twins=rng.randint(0, 3),
        )
        g = generator.random_strictly_chordal(params)
        if 2 <= g.n <= max_n:
            return g, params
        attempt += 1


def _check_one(g: Graph, max_n: int):
    """analyze()'s case on g, and None if it agrees with both oracles or else a message."""
    from . import oracle

    report = analyze(g)
    try:
        sc_ref = oracle.brute_force_scattering(g, cap=max_n)
    except CompleteGraphError:
        if report.case != CASE_COMPLETE:
            return report.case, f"oracle says complete, analyze says {report.case}"
        return report.case, None
    if report.case == CASE_COMPLETE:
        return report.case, "analyze says complete, oracle found a separator"
    tau_ref = oracle.brute_force_toughness(g, cap=max_n)
    if report.scattering_number != sc_ref.value:
        return report.case, f"scattering {report.scattering_number} != oracle {sc_ref.value}"
    if report.toughness != tau_ref.value:
        return report.case, f"toughness {report.toughness} != oracle {tau_ref.value}"
    count, _ = connected_components(g, report.scattering_set)
    if count - len(report.scattering_set) != report.scattering_number:
        return report.case, "scattering set does not witness the reported number"
    count, _ = connected_components(g, report.tough_set)
    if count < 2 or Fraction(len(report.tough_set), count) != report.toughness:
        return report.case, "tough set does not witness the reported toughness"
    return report.case, None


def cmd_check(args) -> int:
    from . import oracle

    if args.count < 0:
        raise ValueError(f"--count must be non-negative, got {args.count}")
    if args.max_n < 2:  # no generated graph is smaller
        raise ValueError(f"--max-n must be at least 2, got {args.max_n}")
    if args.max_n > oracle.DEFAULT_CAP:
        raise TooLargeError(f"--max-n {args.max_n} exceeds the oracle cap {oracle.DEFAULT_CAP}")
    cases, sizes = {}, []
    for trial in range(args.count):
        g, params = _random_capped_graph(args.seed, trial, args.max_n)
        case, message = _check_one(g, args.max_n)
        if message is not None:
            print(f"trial {trial} ({params}): {message}", file=sys.stderr)
            out = Path(args.dump_dir) / f"counterexample-trial{trial}.gr"
            out.write_text(serialize_graph(g))
            print(f"counterexample written to {out}", file=sys.stderr)
            return EXIT_MISMATCH
        cases[case] = cases.get(case, 0) + 1
        sizes.append(g.n)
    print(f"{args.count}/{args.count} agree with brute_force_scattering and brute_force_toughness")
    print("cases:", " ".join(f"{case}={k}" for case, k in sorted(cases.items())) or "none")
    print("n range:", f"{min(sizes)}..{max(sizes)}" if sizes else "none")
    return EXIT_OK


def cmd_gen(args) -> int:
    from . import generator

    params = generator.GenParams(
        seed=args.seed,
        block_count=args.blocks,
        max_block_size=args.max_block,
        max_twins=args.max_twins,
        target_n=args.target_n,
    )
    g = generator.random_strictly_chordal(params)
    text = serialize_graph(g)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote n={g.n} m={g.m} to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_bench(args) -> int:
    import gc

    from . import generator

    sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    if not sizes:
        raise ParseError("--sizes needs a comma-separated list of target sizes")
    if args.repeat < 1:
        raise ValueError(f"--repeat must be at least 1, got {args.repeat}")
    # GenParams checks each size, so a bad one stops the run before any output
    runs = [generator.GenParams(seed=args.seed + i, target_n=size,
                                max_block_size=6, max_twins=1)
            for i, size in enumerate(sizes)]
    # warm up interpreter and numpy before timing; the stage columns are the
    # stages analyze() timed on this in-class graph, in its order, and a run
    # that took the general path prints "-" under those it did not time
    warm = generator.random_strictly_chordal(
        generator.GenParams(seed=args.seed, target_n=2000,
                            max_block_size=6, max_twins=1))
    stage_names = list(analyze(warm).timings)
    print(f"{'target':>9} {'n':>9} {'classes':>9} {'m':>10} {'case':>11} {'time_s':>9} "
          f"{'us_per_nm':>10} {'parse_s':>9} {'ratio':>6} "
          + " ".join(f"{stage:>13}" for stage in stage_names))
    prev, rows = None, []
    for size, params in zip(sizes, runs):
        g = generator.random_strictly_chordal(params)
        best, steps = float("inf"), [float("inf")] * 3
        for _ in range(args.repeat):
            # timeit-style: collector suspended while the clock runs
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                tick = time.perf_counter()
                report = analyze(g)
                elapsed = time.perf_counter() - tick
                case, classes = report.case, len(report.clique_tree.class_ptr) - 1
                if elapsed < best:
                    best = elapsed
                    stages = report.timings
                # the other steps of a CLI run: the report as `analyze --json`
                # prints it, and the graph's file written and read back
                tick = time.perf_counter()
                json.dumps(report_document(g, report), indent=2)
                report_s = time.perf_counter() - tick
                del report  # keep what the row prints, not the clique tree
                tick = time.perf_counter()
                text = serialize_graph(g)
                serialize_s = time.perf_counter() - tick
                tick = time.perf_counter()
                parse_graph(text)
                parse_s = time.perf_counter() - tick
                del text
                steps = [min(pair) for pair in zip(steps, (report_s, serialize_s, parse_s))]
            finally:
                if gc_was_enabled:
                    gc.enable()
        report_s, serialize_s, best_parse = steps
        row = {"target": size, "n": g.n, "classes": classes, "m": g.m, "case": case,
               "time_s": best, "us_per_nm": best / (g.n + g.m) * 1e6,
               "parse_s": best_parse, "serialize_s": serialize_s, "report_s": report_s,
               "ratio": None if prev is None else best / prev, "stages": dict(stages)}
        rows.append(row)
        prev = best
        ratio = "" if row["ratio"] is None else f"{row['ratio']:.2f}"
        print(f"{size:>9} {g.n:>9} {classes:>9} {g.m:>10} {case:>11} {best:>9.3f} "
              f"{row['us_per_nm']:>10.3f} {best_parse:>9.3f} {ratio:>6} "
              + " ".join(f"{stages[stage]:>13.3f}" if stage in stages else f"{'-':>13}"
                         for stage in stage_names))
    if args.json:
        doc = {"command": {"sizes": sizes, "seed": args.seed, "repeat": args.repeat},
               "env": _environment(), "rows": rows}
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def _environment():
    """The interpreter, numpy and core count a bench ran on, and the git
    commit of the package's checkout (``-dirty`` if tracked files differ
    from it; None outside a git checkout)."""
    import os
    import platform
    import subprocess

    import numpy as np

    here = Path(__file__).resolve().parent
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=here, capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
        dirty = subprocess.run(["git", "diff", "--quiet", "HEAD", "--"], cwd=here,
                               capture_output=True, timeout=10).returncode != 0
        sha += "-dirty" if dirty else ""
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpu_count": os.cpu_count(), "git_sha": sha}
