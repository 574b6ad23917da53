"""Figure/table experiments are deterministic, and parallel runs equal serial ones.

The paper's shapes are checked in ``tests/test_paper_claims.py``.
"""

from __future__ import annotations

from repro.analysis import experiments as E


class TestDeterminismAndParallelism:
    def test_repeated_runs_are_byte_identical(self):
        """The setup caches must not change any row (same seeds ⇒ same rows)."""
        first = E.run_figure7_latency_vs_objstore(num_rounds=5, requests_per_workload=3)
        second = E.run_figure7_latency_vs_objstore(num_rounds=5, requests_per_workload=3)
        assert first == second

    def test_parallel_rows_match_serial_rows(self):
        serial = E.run_figure11_policy_comparison(num_rounds=5, requests_per_workload=3)
        parallel = E.run_figure11_policy_comparison(num_rounds=5, requests_per_workload=3, workers=2)
        assert serial == parallel

    def test_parallel_table2_matches_serial(self):
        serial = E.run_table2_hit_rates(num_rounds=6)
        parallel = E.run_table2_hit_rates(num_rounds=6, workers=2)
        assert serial == parallel
