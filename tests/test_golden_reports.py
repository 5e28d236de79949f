"""Golden CLI reports: stdout bytes, exit code, and stderr on usage errors.

Each case runs `sysmean.cli.main` on the population written by
`synthesize --units 240 --seed 28` and compares the result with the files
under tests/golden/: `<case>.stdout`, `<case>.stderr` (exit 2 only) and the
exit codes in `exit_codes.json`; any other file there fails the suite.
The files are written, and files no case writes deleted, by

    PYTHONPATH=src python tests/test_golden_reports.py

which should only be run when a report change is intended.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from sysmean.cli import main

GOLDEN = Path(__file__).parent / "golden"
POP = "{pop}"

FOREST_MOMENTS = [
    "--pop-size", "176", "--n", "16",
    "--mean-y", "282.6136", "--mean-x", "6.9943",
    "--s2-y", "24114.67", "--s2-x", "8.76",
    "--rho", "0.8710", "--rho-w", "0.8710", "--s2-y2", "18086.0025",
]
SIM = ["simulate", POP, "--n", "12", "--w2", "0.25", "--ell", "2", "--replicates", "200"]

COMMANDS = {
    "params": ["params", POP, "--n", "12"],
    "params_sorted": ["params", POP, "--n", "12", "--sort-by", "x", "--s2y2-factor", "0.5"],
    "table_file": ["theory-table", POP, "--n", "12"],
    "table_file_family": ["theory-table", POP, "--n", "12", "--b", "5", "--g", "2",
                          "--s2y2-factor", "0.3"],
    "table_moments": ["theory-table", *FOREST_MOMENTS],
    "sim_fixed": [*SIM, "--estimators", "hh,ratio,product,family", "--seed", "11"],
    "sim_bernoulli": [*SIM, "--stratum-mode", "bernoulli", "--b", "5", "--seed", "12"],
    "sim_exhaustive": [*SIM, "--exhaustive", "--alpha-policy", "explicit", "--alpha", "0.5",
                       "--g", "1.5", "--seed", "13"],
    "sim_sorted": [*SIM, "--sort-by", "x", "--s2y2-factor", "0.8", "--seed", "14"],
    "sim_no_family": [*SIM, "--estimators", "hh,product", "--seed", "16"],
    "sim_invalid": [*SIM, "--estimators", "hh,family", "--alpha-policy", "explicit",
                    "--alpha", "3", "--b", "-41.0259", "--g", "0.5", "--seed", "15"],
    "sim_k1": ["simulate", POP, "--n", "240", "--replicates", "50", "--seed", "17"],
    "sim_full_followup": [*SIM, "--ell", "1", "--seed", "18"],
    "sim_bernoulli_exhaustive": [*SIM, "--stratum-mode", "bernoulli", "--exhaustive",
                                 "--seed", "19"],
    "params_non_divisor": ["params", POP, "--n", "7"],
    "table_incomplete": ["theory-table", "--n", "16", "--pop-size", "176"],
    "table_grid_edges": ["theory-table", POP, "--n", "12", "--w2-grid", "0,0.5,0.99",
                         "--ell-grid", "1,1.5,1e9"],
    "table_no_s2y2": ["theory-table", *FOREST_MOMENTS[:-2]],
    "table_bad_w2": ["theory-table", POP, "--n", "12", "--w2-grid", "0.1,1.0"],
    "table_bad_ell": ["theory-table", POP, "--n", "12", "--ell-grid", "2,0.5"],
    "table_close_axes": ["theory-table", POP, "--n", "12", "--w2-grid", "0,0.001,0.999",
                         "--ell-grid", "2,2.004"],
    "table_pre_undefined": ["theory-table", *FOREST_MOMENTS, "--rho", "1", "--s2-y2", "100",
                            "--w2-grid", "0,0.1", "--ell-grid", "1,2"],
}
CASES = {
    f"{name}_{fmt}": [*argv, "--format", fmt]
    for name, argv in COMMANDS.items()
    for fmt in ("table", "csv", "json")
}


def write_population(directory: Path) -> Path:
    path = directory / "pop.csv"
    code = main(["synthesize", "--units", "240", "--seed", "28", "--out", str(path)])
    assert code == 0
    return path


def run_case(case: str, pop: Path) -> tuple[int, str, str]:
    argv = [str(pop) if token == POP else token for token in CASES[case]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def expected_files(codes: dict[str, int]) -> set[str]:
    """Every file the cases write: exit codes, each stdout, and stderr on exit 2."""
    names = {"exit_codes.json"} | {f"{case}.stdout" for case in codes}
    return names | {f"{case}.stderr" for case, code in codes.items() if code == 2}


@pytest.fixture(scope="module")
def pop_csv(tmp_path_factory):
    return write_population(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, pop_csv):
    code, out, err = run_case(case, pop_csv)
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == expected_codes[case]
    assert out.encode("utf-8") == (GOLDEN / f"{case}.stdout").read_bytes()
    if code == 2:
        assert err.encode("utf-8") == (GOLDEN / f"{case}.stderr").read_bytes()


def test_every_golden_file_belongs_to_a_case():
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert sorted(codes) == sorted(CASES)
    orphans = sorted({path.name for path in GOLDEN.iterdir()} - expected_files(codes))
    assert not orphans, f"golden files that no case writes: {orphans}"


def test_json_reports_are_strict_json():
    def reject(constant):
        raise ValueError(f"{constant} is not JSON (RFC 8259)")

    reports = sorted(GOLDEN.glob("*_json.stdout"))
    assert reports
    for path in reports:
        text = path.read_text(encoding="utf-8")
        if text:  # a usage error writes no report
            json.loads(text, parse_constant=reject)


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        pop = write_population(Path(tmp))
        for case in sorted(CASES):
            code, out, err = run_case(case, pop)
            codes[case] = code
            (GOLDEN / f"{case}.stdout").write_bytes(out.encode("utf-8"))
            if code == 2:
                (GOLDEN / f"{case}.stderr").write_bytes(err.encode("utf-8"))
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
    for path in GOLDEN.iterdir():
        if path.name not in expected_files(codes):
            path.unlink()
    print(f"wrote {len(codes)} golden cases to {GOLDEN}")


if __name__ == "__main__":
    regenerate()
