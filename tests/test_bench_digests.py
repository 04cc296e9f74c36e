"""The pipeline-paper rows of the benchmark's outcome digests: the
workload whose runs step max-min/min-max components, fuzzy and
neutrosophic, CM and RM, at a traced and an untraced seed."""

import pytest

import bench_digests


@pytest.mark.parametrize("row", [
    pytest.param(row, id=f"seed-{row['seed']}")
    for row in bench_digests.rows() if row["workload"] == "pipeline-paper"])
def test_pipeline_paper_reports_its_outcome_digest(row):
    code, stdout, digests = bench_digests.run(row)
    assert code == 0, stdout
    assert digests == [row["outcome_digest"]]
