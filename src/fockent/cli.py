"""Scenario runner: builds the model states and writes, as CSV or JSON,
the brute-force-against-closed-form rows ``fockent.verification`` makes
of them (``dynamics`` tabulates its trajectory here).

Every table carries both the brute-force and the analytic value
whenever both exist.  CSV files use a header row, 17-significant-digit
floats, and LF line endings; the JSON format mirrors the same field
names.  Randomly drawn amplitude tables are recorded next to the
output file in <out>.meta.json so a run can be replayed.

Each ``run_<scenario>(args)`` returns ``(columns, rows, meta)``: column
names, one dict per row, and the record of a random draw or None.
``main`` is the one driver: it writes the table and <out>.meta.json, then
prints ``max |error|`` over the error column its subparser declares
(``abs_err``; ``norm_err`` for dynamics; ``n/a`` if every row leaves it
empty).  ``verify`` declares none: it prints its own criterion lines,
writes its table only with --out, and exits 1 if a criterion failed.

Exit codes: 0 success, 1 failed verification, 2 invalid configuration,
3 size-guard breach, 4 numerical invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np

from . import states, verification
from .dynamics import check_proper_basis, evolve_many, load_hamiltonian
from .entanglement import mode_entanglement
from .errors import (
    NormalizationError,
    NumericalInvariantError,
    SizeGuardError,
    TruncationError,
)
from .fock_core import (
    _check_trajectory,
    apply_annihilation,
    apply_creation,
    basis_state,
    electron,
    registry_create,
)
from .states import (
    ExcitonChannel,
    PairAmplitudeTable,
    TableKind,
    load_amplitude_table,
    table_payload,
)

QH_BRUTE_LIMIT = 12


# ---------------------------------------------------------------------------
# table output


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value + 0.0, ".17g")
    return str(value)


def render_table(rows: list[dict], columns: list[str], fmt: str) -> str:
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row.get(c)) for c in columns])
        return buffer.getvalue()
    if fmt == "json":
        def plain(value):
            return value + 0.0 if isinstance(value, float) else value

        mirrored = [{c: plain(row.get(c)) for c in columns} for row in rows]
        return json.dumps(mirrored, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def emit_table(rows: list[dict], columns: list[str], fmt: str, out: str | None) -> None:
    text = render_table(rows, columns, fmt)
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, newline="")


# ---------------------------------------------------------------------------
# amplitude tables


def _amplitude_table(
    path: str | None, kind: TableKind, draw, seed: int
) -> tuple[PairAmplitudeTable, dict | None]:
    """The table of ``kind`` at ``path``, or ``draw(rng)`` and its meta record."""
    if path is not None:
        table = load_amplitude_table(path)
        if table.kind is not kind:
            article = "an" if kind.value[0] in "aeiou" else "a"
            raise ValueError(f"need {article} {kind.value} table, got {table.kind.value}")
        return table, None
    table = draw(np.random.default_rng(seed))
    return table, {"seed": seed, "table": table_payload(table)}


# ---------------------------------------------------------------------------
# scenario: fermi


def run_fermi(args):
    num_modes = args.modes
    filled = args.filled if args.filled is not None else num_modes // 2
    if not 0 <= filled <= num_modes:
        raise ValueError(f"cannot fill {filled} of {num_modes} modes")
    registry = registry_create([electron(k) for k in range(num_modes)])
    sea = states.fermi_sea(registry, range(filled))
    cases = [("sea", sea)]
    if 0 < filled < num_modes:
        excited = apply_creation(apply_annihilation(sea, filled - 1), filled)
        cases.append(("excited", excited.normalize()))
    return verification.FERMI_COLUMNS, verification.fermi_rows(cases), None


# ---------------------------------------------------------------------------
# scenario: exciton


def run_exciton(args):
    if min(args.electrons, args.holes) < 1:
        raise ValueError(
            f"need at least one electron and one hole momentum, "
            f"got --electrons {args.electrons} --holes {args.holes}"
        )
    e_momenta = [(k,) for k in range(args.electrons)]
    h_momenta = [(k,) for k in range(args.holes)]
    draw = partial(states.random_exciton_table, e_momenta, h_momenta)
    table, meta = _amplitude_table(args.table, TableKind.EXCITON_A, draw, args.seed)
    e_momenta = sorted({k for k, _ in table.values})
    h_momenta = sorted({kp for _, kp in table.values})
    channel = ExcitonChannel(args.channel)
    spinful = channel is not ExcitonChannel.SPINLESS
    registry = states.exciton_registry(e_momenta, h_momenta, spinful=spinful)
    if spinful:
        state = states.exciton_spinful(registry, table, channel)
    else:
        state = states.exciton_spinless(registry, table)
    rows = verification.exciton_rows(state, table, channel)
    return verification.EXCITON_COLUMNS, rows, meta


# ---------------------------------------------------------------------------
# scenario: qh


def run_qh(args):
    cases = []
    for text in args.filling:
        try:
            filling = Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"filling {text} has a zero denominator") from None
        if filling < 0:
            raise ValueError(f"filling must be nonnegative, got {filling}")
        fractional = filling - math.floor(filling)
        state = None
        if fractional.denominator <= QH_BRUTE_LIMIT:
            m = fractional.denominator
            registry = states.uniform_registry(m)
            state = states.uniform_filling_state(registry, m, fractional.numerator)
        cases.append((filling, state))
    return verification.QH_COLUMNS, verification.qh_rows(cases), None


# ---------------------------------------------------------------------------
# scenario: bcs


def run_bcs(args):
    if args.modes < 0:
        raise ValueError(f"--modes must be nonnegative, got {args.modes}")
    if args.unprojected and args.unpaired is not None:
        raise ValueError("--unpaired applies to the projected state only")
    draw = partial(states.random_bcs_table, [(k,) for k in range(1, args.modes + 1)])
    path = None if args.g == "random" else args.g
    table, meta = _amplitude_table(path, TableKind.BCS_G, draw, args.seed)
    registry = states.bcs_registry(table.pair_indices())
    if args.unprojected:
        state = states.bcs_unprojected(registry, table)
        rows = verification.bcs_rows(state, table)
    else:
        unpaired = (args.unpaired,) if args.unpaired is not None else None
        state = states.bcs_projected(registry, table, args.n, unpaired=unpaired)
        rows = verification.bcs_rows(state, table, args.n, unpaired)
    return verification.BCS_COLUMNS, rows, meta


# ---------------------------------------------------------------------------
# scenario: bogoliubov


def run_bogoliubov(args):
    if args.pairs < 0:
        raise ValueError(f"--pairs must be nonnegative, got {args.pairs}")
    if args.unprojected:
        kind, draw = TableKind.BOGOLIUBOV_UV, states.random_uv_table
    else:
        kind, draw = TableKind.BOGOLIUBOV_C, states.random_bogoliubov_c_table
    path = None if args.c == "random" else args.c
    draw = partial(draw, [(q,) for q in range(1, args.pairs + 1)])
    table, meta = _amplitude_table(path, kind, draw, args.seed)
    qs = table.pair_indices()
    if args.unprojected:
        # default_pair_cutoff is at least 1, the cutoff of a zero ratio
        cutoff = max(
            (states.default_pair_cutoff(abs(v / u)) for u, v in table.values.values()),
            default=1,
        )
        registry = states.bogoliubov_registry(
            qs, condensate_cutoff=2 * cutoff, pair_cutoff=cutoff
        )
        state = states.bogoliubov_unprojected(registry, table, cutoff=cutoff)
        rows = verification.bogoliubov_rows(state, table, cutoff=cutoff)
    else:
        registry = states.bogoliubov_registry(
            qs, condensate_cutoff=args.n, pair_cutoff=args.n // 2
        )
        state = states.bogoliubov_projected(registry, table, args.n)
        rows = verification.bogoliubov_rows(state, table, args.n)
    return verification.BOGOLIUBOV_COLUMNS, rows, meta


# ---------------------------------------------------------------------------
# scenario: dynamics


def _parse_times(text: str, state) -> np.ndarray:
    # refused before the grid is allocated if evolve_many would refuse it
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("time grid must be start:stop:steps")
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
        if steps < 1:
            raise ValueError("time grid needs at least one step")
        values = [start, stop]
    else:
        values = [float(x) for x in text.split(",")]
    if not all(math.isfinite(t) for t in values):
        raise ValueError(f"times must be finite, got {text}")
    count = steps if ":" in text else len(values)
    _check_trajectory(state.registry, state.particle_numbers(), count)
    return np.linspace(start, stop, steps) if ":" in text else np.array(values)


def run_dynamics(args):
    hamiltonian = load_hamiltonian(args.hamiltonian)
    occupations = tuple(int(x) for x in args.initial.split(","))
    state = basis_state(hamiltonian.registry, occupations)
    subset = tuple(int(x) for x in args.subset.split(","))
    times = _parse_times(args.times, state)
    if args.check_basis:
        report = check_proper_basis(hamiltonian)
        print(
            f"proper basis: {report.proper} "
            f"(one-body off-diagonal max {report.off_diagonal:.3e})"
        )
    columns = ["time", "entropy", "norm_err"]
    rows = []
    for t, evolved in zip(times, evolve_many(state, hamiltonian, times)):
        values = (float(t), mode_entanglement(evolved, subset), abs(evolved.norm() - 1.0))
        rows.append(dict(zip(columns, values)))
    return columns, rows, None


# ---------------------------------------------------------------------------
# scenario: verify


def run_verify(args):
    results = verification.run_all(args.seed)
    for result in results:
        print(result.line())
    print(f"{sum(r.passed for r in results)}/{len(results)} criteria passed")
    columns = ["criterion", "name", "passed", "max_abs_err", "detail"]
    return columns, [{c: getattr(r, c) for c in columns} for r in results], None


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockent",
        description=(
            "Occupation-number entanglement scenarios: brute-force reduced "
            "density matrices against closed-form entropies."
        ),
    )
    subparsers = parser.add_subparsers(dest="scenario", required=True)

    def common(sub, func, error_column="abs_err"):
        sub.set_defaults(func=func, error_column=error_column)
        sub.add_argument("--out", default=None, help="output file (default: stdout)")
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
        sub.add_argument("--seed", type=int, default=42, help="seed for random draws")
        sub.add_argument(
            "--tol", type=float, default=1e-10, help="tolerance for the summary line"
        )

    fermi = subparsers.add_parser("fermi", help="filled-sea separability table")
    fermi.add_argument("--modes", type=int, default=8)
    fermi.add_argument("--filled", type=int, default=None)
    common(fermi, run_fermi)

    exciton = subparsers.add_parser("exciton", help="electron-hole pair entropies")
    exciton.add_argument("--electrons", type=int, default=3)
    exciton.add_argument("--holes", type=int, default=3)
    exciton.add_argument(
        "--channel",
        choices=[c.value for c in ExcitonChannel],
        default=ExcitonChannel.SPINLESS.value,
    )
    exciton.add_argument("--table", default=None, help="amplitude table JSON path")
    common(exciton, run_exciton)

    qh = subparsers.add_parser("qh", help="fractional-filling entropy")
    qh.add_argument(
        "--filling",
        action="append",
        required=True,
        help="filling factor as an exact rational, e.g. 7/3 (repeatable)",
    )
    common(qh, run_qh)

    bcs = subparsers.add_parser("bcs", help="pair-state occupation entropies")
    bcs.add_argument("--modes", type=int, default=6, help="number of pair modes")
    bcs.add_argument("--n", type=int, default=6, help="particle number (projected)")
    bcs.add_argument("--g", default="random", help="amplitude table JSON path or 'random'")
    bcs.add_argument("--unprojected", action="store_true")
    bcs.add_argument(
        "--unpaired", type=int, default=None, help="unpaired momentum for odd n"
    )
    common(bcs, run_bcs)

    bogoliubov = subparsers.add_parser(
        "bogoliubov", help="condensate pair-excitation entropies"
    )
    bogoliubov.add_argument("--pairs", type=int, default=3, help="number of (q,-q) pairs")
    bogoliubov.add_argument("--n", type=int, default=6, help="particle number (projected)")
    bogoliubov.add_argument(
        "--c", default="random", help="amplitude table JSON path or 'random'"
    )
    bogoliubov.add_argument("--unprojected", action="store_true")
    common(bogoliubov, run_bogoliubov)

    dynamics = subparsers.add_parser("dynamics", help="entropy along a trajectory")
    dynamics.add_argument("--hamiltonian", required=True, help="Hamiltonian JSON path")
    dynamics.add_argument(
        "--initial", required=True, help="comma-separated occupations, e.g. 1,0,1,0"
    )
    dynamics.add_argument("--times", default="0:5:50", help="start:stop:steps or list")
    dynamics.add_argument("--subset", default="0", help="comma-separated mode indices")
    dynamics.add_argument("--check-basis", action="store_true")
    common(dynamics, run_dynamics, error_column="norm_err")

    verify = subparsers.add_parser("verify", help="run the acceptance suite")
    common(verify, run_verify, error_column=None)

    return parser


def main(argv=None) -> int:
    # the parser is built per call, so func resolves run_<scenario> at call time
    args = build_parser().parse_args(argv)
    try:
        columns, rows, meta = args.func(args)
        column = args.error_column
        if args.out is not None or column is not None:
            emit_table(rows, columns, args.format, args.out)
        if column is None:  # verify has printed its own report
            return 0 if all(row["passed"] for row in rows) else 1
        if args.out is not None and meta is not None:
            Path(f"{args.out}.meta.json").write_text(json.dumps(meta, indent=2) + "\n")
        errors = [row[column] for row in rows if row[column] is not None]
        if rows and not errors:
            print("max |error| = n/a")
        else:
            worst = max(errors, default=0.0)
            status = "ok" if worst <= args.tol else "tol exceeded"
            print(f"max |error| = {worst:.6e} ({status} at tol {args.tol:g})")
        return 0
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NormalizationError, NumericalInvariantError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
