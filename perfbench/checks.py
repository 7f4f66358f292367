"""Correctness checks on the emitted CSV tables.

Every table is checked against the paper's invariants that are visible in
the CSV.  When a reference CSV generated for the run's seed exists, the
bytes are compared too; differing bytes are then compared cell by cell
within ``RTOL``/``ATOL`` so a change that only moves roundoff is told apart
from one that changes results.
"""

import csv
import io
import math

RTOL = 1e-6
ATOL = 1e-9
# SINR equalities hold to ~1e-12 relative; 9 significant digits in the CSV
# leave at most 5e-8 dB of rounding, so 1e-6 dB is a safe margin.
SINR_TOL_DB = 1e-6

SINGLE_RECEIVER_MODES = ("eigen-known-csi", "an-unknown-csi", "min-energy-no-an")
MULTICAST_MODES = ("multicast-sdr", "multicast-min-energy-an")
SINR_COLUMNS = ("mean_sinr_eve_db", "sinr_eve_ci_db", "mean_sinr_bob_db",
                "sinr_bob_ci_db", "an_fraction")
BER_COLUMNS = ("ber_bob", "ber_bob_ci", "ber_eve", "ber_eve_ci")


def _rows(data):
    reader = csv.DictReader(io.StringIO(data.decode()))
    return reader.fieldnames, [{k: float(v) for k, v in row.items()} for row in reader]


def invariant_problems(data, spec, ber):
    """Paper invariants on one table; returns a list of violations."""
    header, rows = _rows(data)
    problems = []
    if len(rows) != len(spec.values):
        return [f"{len(rows)} rows for {len(spec.values)} swept values"]
    columns = SINR_COLUMNS + (BER_COLUMNS if ber else ())
    missing = [c for c in columns + ("swept_value", "solvability", "n_trials")
               if c not in header]
    if missing:
        return [f"missing columns {missing}"]
    receivers = spec.receivers
    for value, row in zip(spec.values, rows):
        where = f"row {value:g}"
        if row["swept_value"] != value:
            problems.append(f"{where}: swept_value {row['swept_value']}")
        if row["n_trials"] != spec.scenario.trials:
            problems.append(f"{where}: n_trials {row['n_trials']}")
        solvability = row["solvability"]
        if not 0.0 <= solvability <= 1.0:
            problems.append(f"{where}: solvability {solvability} outside [0, 1]")
        if not solvability > 0.0:
            continue
        nan = [c for c in columns if math.isnan(row[c])]
        if nan:
            problems.append(f"{where}: NaN in {nan} with solved trials")
            continue
        target = value if spec.sweep == "gamma_db" else spec.gamma_db
        bob = row["mean_sinr_bob_db"]
        if spec.mode in SINGLE_RECEIVER_MODES and abs(bob - target) > SINR_TOL_DB:
            problems.append(f"{where}: Bob SINR {bob} dB != target {target} dB")
        elif spec.mode in MULTICAST_MODES and bob < target - SINR_TOL_DB:
            problems.append(f"{where}: Bob SINR {bob} dB below target {target} dB")
        elif spec.mode == "sum-sinr":
            # The aggregate constraint sum_k SINR_k = gamma fixes the mean.
            mean_target = target - 10.0 * math.log10(receivers)
            if abs(bob - mean_target) > SINR_TOL_DB:
                problems.append(f"{where}: mean Bob SINR {bob} dB != {mean_target} dB")
    return problems


def reference_problems(data, reference):
    """Cell-by-cell comparison within tolerance; returns violations."""
    header, rows = _rows(data)
    ref_header, ref_rows = _rows(reference)
    if header != ref_header or len(rows) != len(ref_rows):
        return ["header or row count differs from the reference"]
    problems = []
    for index, (row, ref) in enumerate(zip(rows, ref_rows)):
        for column in header:
            a, b = row[column], ref[column]
            if math.isnan(a) and math.isnan(b):
                continue
            if not abs(a - b) <= ATOL + RTOL * abs(b):
                problems.append(f"row {index} {column}: {a!r} vs reference {b!r}")
    return problems


def check_table(data, spec, ber, reference):
    """(csv_identical or None without a reference, list of problems)."""
    problems = invariant_problems(data, spec, ber)
    if reference is None:
        return None, problems
    if data == reference:
        return True, problems
    return False, problems + reference_problems(data, reference)
