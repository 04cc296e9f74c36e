"""The pipeline-paper and fre-minimal rows of the benchmark's outcome
digests: the workloads whose runs step max-min/min-max components, fuzzy
and neutrosophic, CM and RM, and solve relational equations through fre's
order codes, each at a traced and an untraced seed."""

import pytest

import bench_digests


@pytest.mark.parametrize("row", [
    pytest.param(row, id=f"{row['workload']}-seed-{row['seed']}")
    for row in bench_digests.rows()
    if row["workload"] in ("pipeline-paper", "fre-minimal")])
def test_workload_reports_its_outcome_digest(row):
    code, stdout, digests = bench_digests.run(row)
    assert code == 0, stdout
    assert digests == [row["outcome_digest"]]
