"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Every check is exact; there are no tolerances anywhere.  The criteria are
implemented in gerbes.selftest so the CLI ``selftest`` command runs the
same code; this module asserts each one and additionally checks that two
full CLI selftest runs emit byte-identical JSON.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import gerbes
from gerbes import selftest as st

# sha256 of the CLI selftest JSON, recorded before coboundary solves moved
# to generator coordinates; any later change of the report shows here.
SELFTEST_SHA256 = "bfc83507df0e7e6cbe467853cfba4250b17083d619e907b07e9c0192a9cd95e8"


def _run(result):
    print(result.line())
    assert result.passed, result.details


def test_criterion_1_oracle_equivalence():
    _run(st.criterion_1_oracle_equivalence())


def test_criterion_2_known_values():
    _run(st.criterion_2_known_values())


def test_criterion_3_differential_identities():
    _run(st.criterion_3_differential_identities(seed=0))


def test_criterion_4_dual_suite():
    _run(st.criterion_4_dual_suite())


def test_criterion_5_mh_well_defined():
    _run(st.criterion_5_mh_well_defined(seed=0))


def test_criterion_6_split_vanishing():
    _run(st.criterion_6_split_vanishing())


def test_criterion_7_factorization():
    _run(st.criterion_7_factorization())


def test_criterion_8_axiom_enforcement():
    _run(st.criterion_8_axiom_enforcement())


def test_criterion_9_local_pairing():
    _run(st.criterion_9_local_pairing())


def test_criterion_10_determinism():
    _run(st.criterion_10_determinism())


def test_criterion_10_cli_selftest_byte_identical():
    """Full end-to-end determinism: the CLI selftest twice, byte for byte."""
    # The subprocess imports the same package as this test, installed or not.
    src = str(Path(gerbes.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "gerbes.cli", "selftest", "--output", "json"],
            capture_output=True,
            check=False,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    print(f"[PASS] criterion 10 (CLI): two selftest runs, {len(outs[0])} identical bytes")
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0]).hexdigest() == SELFTEST_SHA256
