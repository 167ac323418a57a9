"""Command-line scenarios: output formats, determinism, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fockent import binary_entropy
from fockent.cli import emit_table, main, render_table


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_hopping(tmp_path):
    payload = {
        "modes": [
            {"species": "electron", "momentum": [0]},
            {"species": "electron", "momentum": [1]},
        ],
        "one_body": [[0.0, -1.0], [-1.0, 0.0]],
    }
    path = tmp_path / "hop.json"
    path.write_text(json.dumps(payload))
    return path


def ring_payload(sites):
    """A ring of ``sites`` modes: hopping -1, nearest-neighbour repulsion 2."""
    one_body = [[0.0] * sites for _ in range(sites)]
    for i in range(sites):
        one_body[i][(i + 1) % sites] = one_body[(i + 1) % sites][i] = -1.0
    two_body = [
        {"ijlm": [i, (i + 1) % sites, i, (i + 1) % sites], "value": 2.0} for i in range(sites)
    ]
    modes = [{"momentum": [i]} for i in range(sites)]
    return {"modes": modes, "one_body": one_body, "two_body": two_body}


# ---------------------------------------------------------------------------
# rendering


def test_cell_formatting_rules():
    rows = [
        {"a": -0.0, "b": None, "c": True, "d": 7, "e": "x"},
        {"a": 1.0 / 3.0, "b": 0.5, "c": False, "d": 0, "e": ""},
    ]
    text = render_table(rows, ["a", "b", "c", "d", "e"], "csv")
    lines = text.split("\n")
    assert lines[0] == "a,b,c,d,e"
    assert lines[1] == "0,,true,7,x"  # negative zero is normalized away
    assert lines[2].startswith("0.33333333333333331,0.5,false,0,")
    assert text.endswith("\n")
    with pytest.raises(ValueError):
        render_table(rows, ["a"], "yaml")


def test_json_mirror_round_trips_to_csv_exactly(tmp_path):
    args = ["bcs", "--modes", "4", "--n", "4", "--seed", "3"]
    csv_path = tmp_path / "t.csv"
    json_path = tmp_path / "t.json"
    assert main(args + ["--out", str(csv_path)]) == 0
    assert main(args + ["--out", str(json_path), "--format", "json"]) == 0

    csv_rows = read_csv(csv_path)
    json_rows = json.loads(json_path.read_text())
    assert len(csv_rows) == len(json_rows) == 4
    for crow, jrow in zip(csv_rows, json_rows):
        assert set(crow) == set(jrow)
        for key, cell in crow.items():
            value = jrow[key]
            if isinstance(value, float):
                # .17g round-trips doubles bit for bit
                assert float(cell) == value
            else:
                assert cell == str(value)


def test_empty_rows_emit_header_only(capsys):
    emit_table([], ["x", "y"], "csv", None)
    assert capsys.readouterr().out == "x,y\n"
    assert render_table([], ["x"], "json") == "[]\n"


# ---------------------------------------------------------------------------
# scenarios


def test_qh_known_filling(tmp_path, capsys):
    out = tmp_path / "qh.csv"
    assert main(["qh", "--filling", "7/3", "--out", str(out)]) == 0
    assert "max |error|" in capsys.readouterr().out
    rows = read_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["filling"] == "7/3"
    assert row["fractional_part"] == "1/3"
    assert float(row["S_analytic"]) == pytest.approx(0.6365141682948128, abs=1e-12)
    assert abs(float(row["S_bruteforce"]) - float(row["S_analytic"])) < 1e-10


def test_qh_skips_bruteforce_for_large_denominators(tmp_path):
    out = tmp_path / "qh.csv"
    assert main(["qh", "--filling", "1/13", "--filling", "1/4", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0]["S_bruteforce"] == ""
    assert rows[0]["abs_err"] == ""
    assert rows[1]["S_bruteforce"] != ""


def test_bcs_random_table_accuracy_and_meta(tmp_path):
    out = tmp_path / "bcs.csv"
    assert main(
        ["bcs", "--modes", "6", "--n", "6", "--g", "random", "--seed", "7", "--out", str(out)]
    ) == 0
    rows = read_csv(out)
    assert len(rows) == 6
    assert sum(float(r["x_analytic"]) for r in rows) == pytest.approx(3.0)
    assert max(float(r["abs_err"]) for r in rows) < 1e-10

    meta = json.loads(Path(str(out) + ".meta.json").read_text())
    assert meta["seed"] == 7
    assert meta["table"]["kind"] == "bcs_g"
    assert len(meta["table"]["entries"]) == 6


# (random draw argv, replay argv, flag that loads the table)
REPLAYS = {
    "bcs": (["bcs", "--modes", "5", "--n", "4", "--seed", "11"], ["bcs", "--n", "4"], "--g"),
    "exciton": (
        ["exciton", "--electrons", "2", "--holes", "3", "--seed", "9"],
        ["exciton"],
        "--table",
    ),
    "bogoliubov": (
        ["bogoliubov", "--pairs", "2", "--n", "4", "--seed", "3"],
        ["bogoliubov", "--n", "4"],
        "--c",
    ),
    "bogoliubov-unprojected": (
        ["bogoliubov", "--pairs", "2", "--unprojected", "--seed", "3"],
        ["bogoliubov", "--unprojected"],
        "--c",
    ),
}


@pytest.mark.parametrize("case", list(REPLAYS))
def test_replay_from_meta_is_bit_exact(tmp_path, case, capsys):
    draw, replay, flag = REPLAYS[case]
    first = tmp_path / "a.csv"
    assert main(draw + ["--out", str(first)]) == 0
    meta = json.loads(Path(str(first) + ".meta.json").read_text())
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(meta["table"]))

    second = tmp_path / "b.csv"
    assert main(replay + [flag, str(table_path), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    # a loaded table writes no sidecar
    assert not Path(str(second) + ".meta.json").exists()
    capsys.readouterr()


def test_bcs_same_seed_is_deterministic(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    main(["bcs", "--seed", "5", "--out", str(a)])
    main(["bcs", "--seed", "5", "--out", str(b)])
    main(["bcs", "--seed", "6", "--out", str(c)])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_bcs_odd_number_with_unpaired(tmp_path):
    out = tmp_path / "odd.csv"
    assert main(
        ["bcs", "--modes", "4", "--n", "3", "--unpaired", "2", "--out", str(out)]
    ) == 0
    rows = read_csv(out)
    by_index = {r["pair_index"]: r for r in rows}
    assert float(by_index["2"]["x_analytic"]) == 1.0
    assert float(by_index["2"]["S_analytic"]) == 0.0
    assert max(float(r["abs_err"]) for r in rows) < 1e-10


def test_fermi_sea_rows_are_separable(tmp_path):
    out = tmp_path / "fermi.csv"
    assert main(["fermi", "--modes", "6", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 12  # sea + one excited determinant
    assert {r["state"] for r in rows} == {"sea", "excited"}
    for row in rows:
        assert float(row["S_bruteforce"]) < 1e-12
        assert row["occupation"] in ("0", "1")


def test_exciton_channels_run_clean(tmp_path):
    for channel in ("spinless", "triplet_zero", "singlet", "triplet_up", "triplet_down"):
        out = tmp_path / f"{channel}.csv"
        code = main(
            [
                "exciton",
                "--electrons",
                "2",
                "--holes",
                "2",
                "--channel",
                channel,
                "--seed",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 4
        assert max(float(r["abs_err"]) for r in rows) < 1e-10


def test_bogoliubov_projected_and_unprojected(tmp_path):
    out = tmp_path / "bog.csv"
    assert main(
        ["bogoliubov", "--pairs", "3", "--n", "6", "--seed", "2", "--out", str(out)]
    ) == 0
    rows = read_csv(out)
    assert rows[0]["mode"] == "0"
    assert len(rows) == 4
    assert max(float(r["abs_err"]) for r in rows) < 1e-10
    # the shortcut distributions are reported, not asserted
    for row in rows[1:]:
        assert float(row["tv_approx"]) >= 0.0
        assert float(row["approx_residual"]) >= 0.0

    out2 = tmp_path / "bogu.csv"
    assert main(
        ["bogoliubov", "--pairs", "2", "--unprojected", "--seed", "2", "--out", str(out2)]
    ) == 0
    rows2 = read_csv(out2)
    assert rows2[0]["mode"] == "0"
    assert float(rows2[0]["S_analytic"]) == 0.0
    assert max(float(r["abs_err"]) for r in rows2) < 1e-10

    # no pairs: the condensate row alone, in both branches
    for flags in ([], ["--unprojected"]):
        out3 = tmp_path / "bog0.csv"
        assert main(["bogoliubov", "--pairs", "0", *flags, "--out", str(out3)]) == 0
        rows3 = read_csv(out3)
        assert [r["mode"] for r in rows3] == ["0"]
        assert float(rows3[0]["S_bruteforce"]) == float(rows3[0]["abs_err"]) == 0.0


def test_dynamics_two_level_entropy(tmp_path, capsys):
    hop = write_hopping(tmp_path)
    out = tmp_path / "dyn.csv"
    code = main(
        [
            "dynamics",
            "--hamiltonian",
            str(hop),
            "--initial",
            "1,0",
            "--times",
            "0,0.4,1.1",
            "--check-basis",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert "proper basis: False" in capsys.readouterr().out
    rows = read_csv(out)
    assert [float(r["time"]) for r in rows] == [0.0, 0.4, 1.1]
    for row in rows:
        t = float(row["time"])
        assert float(row["entropy"]) == pytest.approx(
            binary_entropy(math.cos(t) ** 2), abs=1e-10
        )
        assert float(row["norm_err"]) < 1e-12


def free_ring(sites, rng):
    """A free-fermion ring, hopping -1 and on-site energies from U(-1, 1):
    its one-body matrix and its Hamiltonian JSON payload."""
    one_body = np.diag(rng.uniform(-1.0, 1.0, sites))
    for i in range(sites):
        one_body[i, (i + 1) % sites] = one_body[(i + 1) % sites, i] = -1.0
    modes = [{"momentum": [i]} for i in range(sites)]
    return one_body, {"modes": modes, "one_body": one_body.tolist()}


def correlation_matrix_entropy(one_body, occupations, t, subset):
    """Entropy of a subset of a free-fermion basis state evolved to time t,
    from the eigenvalues of its block of C(t) = conj(U) C0 U^T, U = exp(-iTt)
    (Peschel, J. Phys. A 36, L205 (2003))."""
    energies, vectors = np.linalg.eigh(one_body)
    u = (vectors * np.exp(-1j * energies * t)) @ vectors.conj().T
    c = u.conj() @ np.diag(np.array(occupations, dtype=float)) @ u.T
    nu = np.clip(np.linalg.eigvalsh(c[np.ix_(subset, subset)]), 0.0, 1.0)
    p = np.concatenate((nu, 1.0 - nu))
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


# the dynamics entropy traces without the reordering sign: subset 0,2 reads
# 1.2580 against 1.2265 at t = 0.5, and 0,3,4 reads 1.1185 against 0.6678 at t = 1
UNSIGNED_DYNAMICS = pytest.mark.xfail(strict=True, reason="trace ignores the fermionic sign")


@pytest.mark.parametrize(
    "subset",
    [
        "0,1",
        "1,2",
        pytest.param("0,2", marks=UNSIGNED_DYNAMICS),
        pytest.param("0,3,4", marks=UNSIGNED_DYNAMICS),
    ],
)
def test_dynamics_subset_matches_correlation_matrix_entropy(tmp_path, capsys, subset):
    one_body, payload = free_ring(6, np.random.default_rng(0))
    path, out = tmp_path / "ring.json", tmp_path / "ring.csv"
    path.write_text(json.dumps(payload))
    initial = [1, 0, 1, 0, 1, 0]
    argv = ["dynamics", "--hamiltonian", str(path), "--initial", ",".join(map(str, initial))]
    assert main(argv + ["--times", "0.5,1,2", "--subset", subset, "--out", str(out)]) == 0
    # the summary line passes whether or not the entropies are right
    assert "(ok at tol 1e-10)" in capsys.readouterr().out
    modes = [int(i) for i in subset.split(",")]
    for row in read_csv(out):
        want = correlation_matrix_entropy(one_body, initial, float(row["time"]), modes)
        assert float(row["entropy"]) == pytest.approx(want, abs=1e-12), row["time"]


def test_dynamics_time_grid_parsing(tmp_path):
    hop = write_hopping(tmp_path)
    out = tmp_path / "grid.csv"
    assert main(
        [
            "dynamics",
            "--hamiltonian",
            str(hop),
            "--initial",
            "1,0",
            "--times",
            "0:2:5",
            "--out",
            str(out),
        ]
    ) == 0
    times = [float(r["time"]) for r in read_csv(out)]
    assert times == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
    for bad in ("0:1:0", "nan,1", "0,inf", "-inf:1:3"):
        argv = ["dynamics", "--hamiltonian", str(hop), "--initial", "1,0", f"--times={bad}"]
        assert main(argv) == 2, bad


# ---------------------------------------------------------------------------
# exit codes


def test_exceeded_tolerance_exits_1(tmp_path, capsys):
    # the default bcs rows differ from their closed forms by a few ulps:
    # within the default tolerance, beyond 1e-20
    assert main(["bcs"]) == 0
    assert capsys.readouterr().out.endswith(" (ok at tol 1e-10)\n")
    out = tmp_path / "bcs.csv"
    assert main(["bcs", "--tol", "1e-20", "--out", str(out)]) == 1
    assert capsys.readouterr().out.endswith(" (tol exceeded at tol 1e-20)\n")
    assert len(read_csv(out)) == 6
    # no brute-force value to compare at denominator 13: n/a, exit 0
    assert main(["qh", "--filling", "1/13", "--tol", "1e-20"]) == 0
    assert capsys.readouterr().out.endswith("max |error| = n/a\n")


def test_invalid_configuration_exits_2(tmp_path, capsys):
    assert main(["qh", "--filling=-1/3"]) == 2
    assert main(["qh", "--filling", "1/0"]) == 2
    assert main(["bcs", "--g", str(tmp_path / "missing.json")]) == 2
    assert main(["bcs", "--modes", "2", "--n", "6"]) == 2
    capsys.readouterr()
    # a |g|^2 beyond the float range is refused on loading, and a non-finite
    # entry (NaN, Infinity) by the JSON number reader
    nan, big, value = float("nan"), "|amplitude|^2 of ", "entry 0 value "
    cases = [
        (["bcs", "--unprojected", "--g"], "bcs_g", {"value": [1e200, 0.0]}, big),
        (["bcs", "--g"], "bcs_g", {"value": [1e200, 0.0]}, big),
        (["bcs", "--g"], "bcs_g", {"value": [nan, 0.0]}, value),
        (["bcs", "--unprojected", "--g"], "bcs_g", {"value": [0.5, float("inf")]}, value),
        (["exciton", "--table"], "exciton_A", {"kp": [0], "value": [nan, 0.0]}, value),
        (["bogoliubov", "--c"], "bogoliubov_c", {"value": [nan, 0.0]}, value),
        (
            ["bogoliubov", "--unprojected", "--c"],
            "bogoliubov_uv",
            {"u": [1.0, 0.0], "v": [nan, 0.0]},
            "entry 0 v ",
        ),
    ]
    path = tmp_path / "table.json"
    for argv, kind, entry, message in cases:
        path.write_text(json.dumps({"kind": kind, "entries": [{"k": [1], **entry}]}))
        assert main(argv + [str(path)]) == 2, (argv, entry)
        err = capsys.readouterr().err
        assert err.startswith("error: " + message) and err.count("\n") == 1, err
        assert ("not a finite number" in err) == (message.startswith("entry")), err

    # wrongly shaped JSON: a one-line error, not a TypeError traceback
    hamiltonian = {"modes": [{"species": "electron", "momentum": [0]}], "one_body": [[0.0]]}
    dynamics = ["dynamics", "--initial", "1", "--times", "0", "--hamiltonian"]
    malformed = [
        (["bcs", "--g"], {"kind": "bcs_g", "entries": [{"k": 1, "value": 0.5}]}),
        (["bcs", "--g"], {"kind": "bcs_g", "entries": [{"k": [1], "value": ["0.5", 0.0]}]}),
        (["bcs", "--g"], {"kind": "bcs_g", "entries": [{"k": [1], "value": [0.5, "0"]}]}),
        (["exciton", "--table"], {"kind": "exciton_A", "entries": [{"k": [0], "kp": 0}]}),
        (["bogoliubov", "--c"], {"kind": "bogoliubov_c", "entries": 5}),
        (["bcs", "--g"], [{"k": [1], "value": 0.5}]),
        (dynamics, {**hamiltonian, "one_body": 5}),
        (dynamics, {**hamiltonian, "one_body": [[{"re": 0.0}]]}),
        (dynamics, [hamiltonian]),
    ]
    for argv, payload in malformed:
        path.write_text(json.dumps(payload))
        assert main(argv + [str(path)]) == 2, (argv, payload)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    # scenario flags out of range, or that the chosen state does not use
    for argv in (
        ["exciton", "--electrons", "0"],
        ["exciton", "--holes", "0"],
        ["exciton", "--electrons", "-2"],
        ["bogoliubov", "--pairs", "-2"],
        ["bogoliubov", "--pairs", "-1", "--unprojected"],
        ["bcs", "--modes", "-1", "--unprojected"],
        ["bcs", "--unprojected", "--unpaired", "3"],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    # the boundary cases still run
    for argv in (["bogoliubov", "--pairs", "0"], ["fermi", "--modes", "0"]):
        assert main(argv + ["--out", str(tmp_path / "edge.csv")]) == 0, argv


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fermi", "--filled", "9"], "cannot fill 9 of 8 modes"),
        (["dynamics", "--initial", "1,0", "--times", "0:5"], "time grid must be start:stop:steps"),
    ],
)
def test_scenario_refusals_exit_2(tmp_path, capsys, argv, message):
    if argv[0] == "dynamics":
        argv = argv + ["--hamiltonian", str(write_hopping(tmp_path))]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_non_finite_or_repeated_entries_exit_2(tmp_path, capsys):
    # an 11-site ring at N = 5 (dimension 462) takes the sparse path, whose
    # degree search would not end on a NaN bound; the loader refuses first
    sites = 11
    good = ring_payload(sites)
    two_body = good["two_body"]

    def edited(field, row, col, value):
        payload = json.loads(json.dumps(good))
        payload.setdefault(field, [[0.0] * sites for _ in range(sites)])
        payload[field][row][col] = value
        return payload

    nan, inf = float("nan"), float("inf")
    # finite entries whose sum T + T' overflows
    overflow = edited("external", 3, 3, 1e308)
    overflow["one_body"][3][3] = 1e308
    bad = [
        edited("one_body", 0, 0, nan),
        edited("one_body", 0, 1, inf),
        edited("one_body", 2, 2, [0.0, -inf]),
        edited("external", 3, 3, nan),
        overflow,
        {**good, "two_body": two_body + [{"ijlm": [0, 2, 0, 2], "value": nan}]},
        {**good, "two_body": two_body + [{"ijlm": [0, 2, 0, 2], "value": [0.0, inf]}]},
        {**good, "two_body": two_body + [{"ijlm": [0, 1, 0, 1], "value": 5.0}]},
    ]
    path = tmp_path / "h.json"
    argv = ["dynamics", "--hamiltonian", str(path), "--initial", "1,0,1,0,1,0,1,0,1,0,0"]
    path.write_text(json.dumps(good))
    assert main(argv + ["--times", "0,1", "--out", str(tmp_path / "ok.csv")]) == 0
    for payload in bad:
        path.write_text(json.dumps(payload))
        assert main(argv) == 2, payload
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert err == "error: two_body entry 11 repeats ijlm [0, 1, 0, 1]\n"

    # a repeated key of an amplitude table
    tables = [
        (["bcs", "--g"], {"kind": "bcs_g", "entries": [{"k": [1], "value": 1.0}] * 2}),
        (
            ["exciton", "--table"],
            {"kind": "exciton_A", "entries": [{"k": [0], "kp": [1], "value": 1.0}] * 2},
        ),
    ]
    for argv, payload in tables:
        path.write_text(json.dumps(payload))
        assert main(argv + [str(path)]) == 2, payload
        err = capsys.readouterr().err
        assert err.startswith("error: entry 1 repeats the key ") and err.count("\n") == 1, err


@pytest.mark.parametrize("flags", [[], ["--n", "4"], ["--unprojected"]])
def test_bcs_large_finite_amplitudes(tmp_path, flags):
    # |g|^2 = 1e240 is finite, but a product of three such g is not
    entries = [
        {"k": [k], "value": value}
        for k, value in ((1, [1e120, 0.0]), (2, [0.0, 1e120]), (3, [-1e120, 0.0]))
    ]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"kind": "bcs_g", "entries": entries}))
    out = tmp_path / "big.csv"
    assert main(["bcs", "--g", str(path), *flags, "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 3
    assert max(float(r["abs_err"]) for r in rows) < 1e-10
    if flags == ["--n", "4"]:
        # two of three equal pairs: x = 2/3 each
        assert all(float(r["x_bruteforce"]) == pytest.approx(2 / 3) for r in rows)


@pytest.mark.parametrize("flags", [["--n", "10"], ["--unprojected"]])
def test_bcs_mixed_magnitude_amplitudes(tmp_path, flags):
    # one g of 1000 among unit ones: the subsets without it still count
    entries = [
        {"k": [k], "value": [1000.0 if k == 1 else 1.0, 0.0]} for k in range(1, 7)
    ]
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"kind": "bcs_g", "entries": entries}))
    out = tmp_path / "mixed.csv"
    assert main(["bcs", "--g", str(path), *flags, "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 6
    assert max(float(r["abs_err"]) for r in rows) < 1e-12
    assert float(rows[0]["x_bruteforce"]) < 1.0


# (argv without the table, flag, kind of the table given, expected stderr)
WRONG_KIND = [
    (["exciton"], "--table", "bcs_g", "error: need an exciton_A table, got bcs_g"),
    (["bcs"], "--g", "exciton_A", "error: need a bcs_g table, got exciton_A"),
    (["bogoliubov"], "--c", "bcs_g", "error: need a bogoliubov_c table, got bcs_g"),
    (
        ["bogoliubov", "--unprojected"],
        "--c",
        "bogoliubov_c",
        "error: need a bogoliubov_uv table, got bogoliubov_c",
    ),
]


@pytest.mark.parametrize(
    "argv, flag, kind, message", WRONG_KIND, ids=["exciton", "bcs", "bogoliubov", "unprojected"]
)
def test_table_of_wrong_kind_exits_2(tmp_path, capsys, argv, flag, kind, message):
    # valid as any of the three kinds: normalised, |value| < 1, "kp" read for exciton_A only
    entries = [{"k": [k], "kp": [0], "value": [0.5**0.5, 0.0]} for k in (1, 2)]
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"kind": kind, "entries": entries}))
    assert main(argv + [flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "subset, message",
    [
        ("0,99", "mode index 99 outside registry of size 14"),
        ("3,3", "subset has repeated indices: (3, 3)"),
    ],
)
def test_dynamics_refuses_subset_before_propagating(
    tmp_path, monkeypatch, capsys, subset, message
):
    # a 14-site ring at N = 7 (dimension 3,432) would print the basis line and
    # propagate for most of a second before the entropy met the subset
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(ring_payload(14)))

    def unreached(*args):
        raise AssertionError("evolve_many was called")

    monkeypatch.setattr("fockent.cli.evolve_many", unreached)
    initial = ",".join(["1", "0"] * 7)
    argv = ["dynamics", "--hamiltonian", str(path), "--initial", initial, "--check-basis"]
    assert main(argv + ["--subset", subset]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_size_guard_exits_3(tmp_path, monkeypatch, capsys):
    hop = write_hopping(tmp_path)
    monkeypatch.setenv("FOCKENT_SIZE_GUARD", "1")
    assert main(["dynamics", "--hamiltonian", str(hop), "--initial", "1,0"]) == 3
    assert "exceeds guard" in capsys.readouterr().err


def test_time_grid_beyond_guard_squared_exits_3_before_allocating(
    tmp_path, monkeypatch, capsys
):
    # 10**8 times of a 2-dimensional sector would hold 2e8 amplitudes, past
    # guard**2 = 2.5e7; the grid alone would take 800 MB
    hop = write_hopping(tmp_path)
    monkeypatch.delenv("FOCKENT_SIZE_GUARD", raising=False)
    argv = ["dynamics", "--hamiltonian", str(hop), "--initial", "1,0"]
    tracemalloc.start()
    try:
        code = main(argv + ["--times", "0:1:100000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 2**20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: trajectory (100000000 times x 2 basis vectors) "
        "dimension 200000000 exceeds guard 25000000\n"
    )


def test_condensate_oracle_beyond_guard_exits_3_before_the_state(monkeypatch, capsys):
    # the rows' exact distributions walk C(12 + 10, 10) = 646,646 patterns;
    # the projected state of as many terms is not built first
    monkeypatch.delenv("FOCKENT_SIZE_GUARD", raising=False)
    tracemalloc.start()
    try:
        code = main(["bogoliubov", "--pairs", "10", "--n", "24"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 2**20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: exact condensate enumeration (N/2=12, 10 pairs) "
        "dimension 646646 exceeds guard 5000\n"
    )


def test_near_unit_pair_ratio_exits_3_promptly(tmp_path):
    # |u|^2 - |v|^2 = 1 exactly, and |v/u| = 1 - 2**-53: the pair cutoff is
    # ~3e17, which must be found without ~3e17 steps, and the pair grid
    # breaches the guard
    u, v = 2.0**26, math.sqrt(2**52 - 1)
    entries = [{"k": [1], "u": [u, 0.0], "v": [v, 0.0]}]
    path = tmp_path / "uv.json"
    path.write_text(json.dumps({"kind": "bogoliubov_uv", "entries": entries}))
    argv = ["bogoliubov", "--unprojected", "--pairs", "1", "--c", str(path)]
    command = [sys.executable, "-m", "fockent.cli", *argv]
    done = subprocess.run(command, capture_output=True, text=True, timeout=60)
    assert done.returncode == 3, done.stderr
    assert done.stderr.startswith("error: pair grid (1 pairs x ")
    assert "exceeds guard" in done.stderr


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("read, steps", [(1, 5000), (0, 3)], ids=["head", "small"])
def test_reader_closing_the_pipe_exits_141(tmp_path, buffered, read, steps):
    # as `fockent dynamics ... | head -1`: 5,000 rows (about 300 kB) outgrow
    # the pipe, so the writer meets the closed pipe mid-table; three rows that
    # stay in the buffer meet it at the flush before exit
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(ring_payload(4)))
    times = f"0:5:{steps}"
    argv = ["dynamics", "--hamiltonian", str(path), "--initial", "1,0,1,0", "--times", times]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    command = [sys.executable, "-m", "fockent.cli", *argv]
    with subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as child:
        lines = [child.stdout.readline() for _ in range(read)]
        child.stdout.close()
        stderr = child.stderr.read()
        code = child.wait(timeout=60)
    assert lines == [b"time,entropy,norm_err\n"] * read
    assert (code, stderr) == (141, b"")


def test_negative_particle_number_exits_2(capsys):
    # refused by the condensate oracle before a registry is made for it
    assert main(["bogoliubov", "--n", "-2"]) == 2
    assert capsys.readouterr().err == "error: total particle number -2 is negative\n"
    assert main(["bogoliubov", "--n", "3"]) == 2
    assert capsys.readouterr().err == "error: total particle number must be even\n"


def test_keys_beyond_int64_exit_3(tmp_path, capsys):
    # 64 modes at N=1 is a 64-dimensional sector, but its packed keys reach 2**63
    modes = 64
    one_body = [[0.0] * modes for _ in range(modes)]
    one_body[0][modes - 1] = one_body[modes - 1][0] = -1.0
    payload = {"modes": [{"momentum": [i]} for i in range(modes)], "one_body": one_body}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(payload))
    initial = ",".join(["0"] * (modes - 1) + ["1"])
    argv = ["dynamics", "--hamiltonian", str(path), "--initial", initial, "--times", "0:1:3"]
    assert main(argv) == 3
    assert "int64" in capsys.readouterr().err


def test_fermi_keys_beyond_int64(tmp_path, capsys):
    # 100 modes pack into keys up to 2**100 - 1, held as Python integers
    out = tmp_path / "fermi.csv"
    assert main(["fermi", "--modes", "100", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 200
    assert all(float(row["abs_err"]) == 0.0 for row in rows)
    capsys.readouterr()


def test_numerical_invariant_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "kind": "exciton_A",
                "entries": [{"k": [0], "kp": [0], "value": [0.5, 0.0]}],
            }
        )
    )
    assert main(["exciton", "--table", str(bad)]) == 4
    assert "error:" in capsys.readouterr().err


def test_verify_table_output(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    assert main(["verify", "--seed", "42", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "9/9 criteria passed" in text
    assert text.count("[PASS]") == 9
    rows = read_csv(out)
    assert len(rows) == 9
    assert all(r["passed"] == "true" for r in rows)
