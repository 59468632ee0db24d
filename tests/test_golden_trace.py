"""Golden traces: the SHA-256 of the trace CSV, with truth, for six runs.

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
         "f0e037f148fd9751dde3f17d9b86fe8e8d7ae7c58edb9ab3225a12c53a52124f"),
        (irrational_system, dict(TABLE1, bits_per_sign=3, level_step=3),
         "27e177f34e8532ff7a1f1e973d0cab5a4b59df0a6d7d584aa7bf446a2ed5aceb"),
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


@pytest.mark.parametrize(
    "config,records,digest",
    [
        (dict(TABLE1, l_min=-700), 1245,
         "b1a664235b787c05cd640643693a6db66d3ab84d998eef961e7dacd243f5a11b"),
        (dict(TABLE1, l_min=-1100, bits_per_sign=3, level_step=3), 735,
         "7fec95377684ecc43dc2c283aca58cde4e84b2bd1b18d35fe92ea6f0f407165b"),
    ],
    ids=["table1-k1-700", "table1-k3-step3-1100"],
)
def test_deep_trace_csv_matches_golden_hash(config, records, digest):
    # runs past the levels where an absolute window's terms are normal
    # floats: a run's unit window is the same at every level, so the
    # descent goes on to l_min, with qubo_energy subnormal from level -513
    system, truth = irrational_system()
    trace = refine(system, RefinementConfig(**config), truth=truth)
    assert len(trace.records) == records
    assert hashlib.sha256(trace_to_csv(trace).encode("utf-8")).hexdigest() == digest
