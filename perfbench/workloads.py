"""The benchmark's workloads: set-up, the timed calls, and their checks.

Each workload object is built from the generated inputs only (never the
seed).  :meth:`setup` covers imports and problem, mesh and configuration
construction; :meth:`run` makes the user-facing calls that are timed;
:meth:`check` runs outside the timed region and returns the measured
error, the list of failed checks and the non-gating output details.
:meth:`corrupt` damages one iteration's output so that the benchmark's own
test can prove the checks bite.
"""

from __future__ import annotations

import csv
import hashlib
from array import array
from fractions import Fraction
from pathlib import Path

import numpy as np

# Criterion 4 of the acceptance gate: the transparent closure reproduces the
# enlarged-interval reference to this absolute deviation.
REFERENCE_TOL = 1e-8
REFERENCE_EXTENSION = 5.0
KERNEL_LEGENDRE_TOL = 1e-12
KERNEL_ORACLE_TOL = 1e-8


def _error_within(err: float, limits: dict) -> list[str]:
    ceiling = limits["reference_error"] * (1.0 + limits["error_bound"])
    if not err <= ceiling:
        return [f"max_abs_error {err:.6g} exceeds {ceiling:.6g} "
                f"(reference {limits['reference_error']:.6g})"]
    return []


def _scan(path: Path) -> tuple[str, int, int]:
    """sha256, size and line count of a file, read in chunks."""
    digest, size, lines = hashlib.sha256(), 0, 0
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
            size += len(chunk)
            lines += chunk.count(b"\n")
    return digest.hexdigest(), size, lines


class LibraryMarch:
    """``march`` + ``error_report`` through the library API."""

    def __init__(self, inputs: dict, limits: dict, workdir: Path):
        self.inputs = inputs
        self.limits = limits
        self._reference = None

    def setup(self) -> None:
        import parabolic_dtbc as pd

        inp = self.inputs
        self.pd = pd
        preset = pd.PRESETS[inp["problem"]]
        pulse = {k: inp[k] for k in ("x_star", "t0") if k in inp}
        self.problem, self.exact = preset(**pulse)
        self.mesh = pd.build_mesh(self.problem.X, inp["J"],
                                  tau=inp["tau"], M=inp["M"])
        self.config = pd.SchemeConfig(sigma=inp["sigma"], theta=inp["theta"],
                                      boundary="dtbc")

    def run(self):
        result = self.pd.march(self.problem, self.mesh, self.config)
        report = self.pd.error_report(result.U, self.exact, self.mesh)
        return result, report

    def corrupt(self, output) -> None:
        result, _ = output
        result.U[1, self.mesh.J // 2] = np.nan

    def _prefix_reference(self) -> np.ndarray:
        if self._reference is None:
            pd, inp = self.pd, self.inputs
            mesh = pd.build_mesh(self.problem.X, inp["J"], tau=inp["tau"],
                                 M=inp["reference_levels"])
            self._reference = pd.march_reference(
                self.problem, mesh, self.config, REFERENCE_EXTENSION,
                doubling_check=True).U
        return self._reference

    def check(self, output):
        result, report = output
        failures = []
        if not np.all(np.isfinite(result.U)):
            failures.append("trajectory is not finite")
        err = report.max_abs_error
        failures += _error_within(err, self.limits)
        if self.inputs.get("reference_levels"):
            ref = self._prefix_reference()
            dev = float(np.max(np.abs(result.U[:ref.shape[0]] - ref)))
            if not dev <= REFERENCE_TOL:
                failures.append(f"first {ref.shape[0] - 1} levels deviate from "
                                f"the enlarged-interval reference by {dev:.3g}")
        return err, failures, {}


class CliSession:
    """In-process ``cli.main``: ``solve`` then ``kernel --compare``."""

    OUTPUTS = ("solution.csv", "report.csv", "diagnostics.csv", "kernel.csv")

    def __init__(self, inputs: dict, limits: dict, workdir: Path):
        self.inputs = inputs
        self.limits = limits
        self.out = workdir / "cli_out"
        self.config_path = workdir / "session.cfg"
        self._trajectory = None
        self._verified_solution = None

    def setup(self) -> None:
        from parabolic_dtbc import cli

        inp = self.inputs
        self.main = cli.main
        self.out.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(
            f"problem = {inp['problem']}\n"
            f"sigma = {inp['sigma']}\n"
            f"theta = {inp['theta']}\n"
            f"tau = {inp['tau']}\n"
            f"M = {inp['M']}\n"
            f"J = {inp['J']}\n"
            "boundary = dtbc\n"
            "emit_snapshots = true\n"
            "run_diagnostics = true\n"
            f"m_max = {inp['m_max']}\n")
        common = ["--config", str(self.config_path), "--out", str(self.out),
                  "--deterministic"]
        self.argv = (["solve"] + common + ["--seed", str(inp["diag_seed"])],
                     ["kernel"] + common + ["--compare"])

    def run(self):
        return [self.main(list(argv)) for argv in self.argv]

    def corrupt(self, output) -> None:
        path = self.out / "solution.csv"
        lines = path.read_text().split("\n")
        fields = lines[2].split(",")
        mantissa, exponent = fields[4].split("e")
        last = "1" if mantissa[-1] != "1" else "2"
        fields[4] = mantissa[:-1] + last + "e" + exponent
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines))

    def _library_trajectory(self) -> np.ndarray:
        if self._trajectory is None:
            import parabolic_dtbc as pd

            inp = self.inputs
            problem, _ = pd.PRESETS[inp["problem"]]()
            tau = float(Fraction(inp["tau"]))
            mesh = pd.build_mesh(problem.X, inp["J"], tau=tau, M=inp["M"])
            config = pd.SchemeConfig(sigma=float(Fraction(inp["sigma"])),
                                     theta=float(Fraction(inp["theta"])),
                                     boundary="dtbc")
            self._trajectory = pd.march(problem, mesh, config).U
        return self._trajectory

    def _read(self, name: str) -> list[list[str]]:
        with (self.out / name).open(newline="") as handle:
            return list(csv.reader(handle))

    def check(self, output):
        try:
            return self._check(output)
        finally:
            for name in self.OUTPUTS:
                (self.out / name).unlink(missing_ok=True)

    def _check(self, output):
        failures = [f"exit code {rc} from `{argv[0]}`"
                    for rc, argv in zip(output, self.argv) if rc != 0]
        details = {"sha256": {}, "output_bytes": 0, "rows_written": 0}
        for name in self.OUTPUTS:
            path = self.out / name
            if not path.exists():
                failures.append(f"{name} was not written")
                continue
            digest, size, lines = _scan(path)
            details["sha256"][name] = digest
            details["output_bytes"] += size
            details["rows_written"] += lines - 1
        if failures:
            return float("nan"), failures, details

        report = dict(row for row in self._read("report.csv")[1:])
        err = float(report["max_abs_error"])
        failures += _error_within(err, self.limits)

        failures += self._check_solution(details["sha256"]["solution.csv"])

        diag = self._read("diagnostics.csv")[1:]
        bad = [row[0] for row in diag if row[3] != "true"]
        if not diag or bad:
            failures.append(f"diagnostics failing: {bad or 'no rows'}")

        kernel = self._read("kernel.csv")
        header, rows = kernel[0], kernel[1:]
        col_leg = header.index("delta_legendre")
        col_orc = header.index("delta_oracle")
        if len(rows) != self.inputs["m_max"] + 1:
            failures.append(f"kernel.csv has {len(rows)} rows")
        leg = max(abs(float(r[col_leg])) for r in rows)
        orc = [abs(float(r[col_orc])) for r in rows if r[col_orc]]
        if not leg <= KERNEL_LEGENDRE_TOL:
            failures.append(f"kernel delta_legendre {leg:.3g}")
        if not orc or not max(orc) <= KERNEL_ORACLE_TOL:
            failures.append(f"kernel delta_oracle {max(orc, default=None)}")
        return err, failures, details

    def _check_solution(self, digest: str) -> list[str]:
        # A file byte-identical to one already found equal to the library
        # trajectory is equal too; this keeps the check short, so that a
        # run fits more timed iterations.
        if digest == self._verified_solution:
            return []
        traj = self._library_trajectory()
        n_nodes = traj.shape[1]
        # Streamed into a flat array so the check does not raise the
        # worker's peak memory, which is a reported metric.
        values = array("d")
        in_order = True
        with (self.out / "solution.csv").open(newline="") as handle:
            reader = csv.reader(handle)
            col_u = next(reader).index("U")
            for idx, row in enumerate(reader):
                in_order &= (int(row[0]), int(row[2])) == divmod(idx, n_nodes)
                values.append(float(row[col_u]))
        if len(values) != traj.size:
            return [f"solution.csv has {len(values)} rows, expected {traj.size}"]
        values = np.frombuffer(values, dtype=float)
        failures = []
        if not in_order:
            failures.append("solution.csv rows are not in (m, j) order")
        if not np.all(np.isfinite(values)):
            failures.append("solution.csv U column is not finite")
        same = values.view(np.int64) == traj.reshape(-1).view(np.int64)
        if not np.all(same):
            failures.append(f"solution.csv U column differs from the library "
                            f"trajectory in {int(np.sum(~same))} cells")
        if not failures:
            self._verified_solution = digest
        return failures


KINDS = {"library": LibraryMarch, "cli": CliSession}
