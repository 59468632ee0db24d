"""Golden traces: the SHA-256 of the trace CSV, with truth, for four runs.

Criterion 9 compares two runs of the same code, so it cannot see a
change that alters the trace. These hashes pin the trace itself: any
refactor of the engine must leave every byte of them unchanged.
"""

import hashlib

import pytest

from helpers import build_illcond, irrational_system, trace_to_csv
from qrefine import RefinementConfig, refine

TABLE1 = dict(m_max=20, l_min=-40)
ILLCOND = dict(m_max=2, l_min=-40)


@pytest.mark.parametrize(
    "build,config,digest",
    [
        (irrational_system, TABLE1,
         "5a7f15e447aaca250fdca48780bc2e74443f07adb20937c6f202bfe6f73465f7"),
        (irrational_system, dict(TABLE1, bits_per_sign=3, level_step=3),
         "cb3b6cd72560892db798fbc07aca64183052aff269dbca092392e01f3fdeafec"),
        (build_illcond, ILLCOND,
         "9e6507e2f66fdecb349aed6c6f493a0cc1e29559d054bbff0ce86408c3dc4bc9"),
        (build_illcond, dict(ILLCOND, use_eigenbasis=True),
         "8ae97bba65597d5b97f8b9802d915df6223b3d016b09a58f846efad2f909f2c8"),
    ],
    ids=["table1-k1", "table1-k3-step3", "illcond44-plain", "illcond44-eigenbasis"],
)
def test_trace_csv_matches_golden_hash(build, config, digest):
    system, truth = build()
    trace = refine(system, RefinementConfig(**config), truth=truth)
    assert hashlib.sha256(trace_to_csv(trace).encode("utf-8")).hexdigest() == digest
