"""Unit tests for repro.workload.jobs."""

import numpy as np
import pytest

from repro import Job, JobSet, ValidationError


class TestJobValidation:
    def test_minimal_job(self):
        j = Job(id=1, source="a", dest="b", size=5.0, start=0.0, end=2.0)
        assert j.arrival == 0.0  # defaults to start
        assert j.window == (0.0, 2.0)
        assert j.duration == 2.0
        assert j.min_rate == 2.5

    def test_explicit_arrival(self):
        j = Job(id=1, source="a", dest="b", size=5.0, start=3.0, end=5.0, arrival=1.0)
        assert j.arrival == 1.0

    def test_arrival_after_start_rejected(self):
        with pytest.raises(ValidationError):
            Job(id=1, source="a", dest="b", size=5.0, start=1.0, end=2.0, arrival=1.5)

    def test_same_endpoints_rejected(self):
        with pytest.raises(ValidationError):
            Job(id=1, source="a", dest="a", size=5.0, start=0.0, end=1.0)

    @pytest.mark.parametrize("size", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_size_rejected(self, size):
        with pytest.raises(ValidationError):
            Job(id=1, source="a", dest="b", size=size, start=0.0, end=1.0)

    def test_empty_window_rejected(self):
        with pytest.raises(ValidationError):
            Job(id=1, source="a", dest="b", size=1.0, start=2.0, end=2.0)
        with pytest.raises(ValidationError):
            Job(id=1, source="a", dest="b", size=1.0, start=2.0, end=1.0)

    @pytest.mark.parametrize("weight", [0.0, -2.0])
    def test_bad_weight_rejected(self, weight):
        with pytest.raises(ValidationError):
            Job(id=1, source="a", dest="b", size=1.0, start=0.0, end=1.0, weight=weight)

    def test_frozen(self):
        j = Job(id=1, source="a", dest="b", size=1.0, start=0.0, end=1.0)
        with pytest.raises(AttributeError):
            j.size = 2.0


class TestJobDerivations:
    @pytest.fixture
    def job(self):
        return Job(id="x", source=0, dest=1, size=10.0, start=1.0, end=3.0)

    def test_scaled(self, job):
        assert job.scaled(0.5).size == 5.0
        assert job.size == 10.0

    def test_scaled_invalid(self, job):
        with pytest.raises(ValidationError):
            job.scaled(0.0)

    def test_with_extended_end(self, job):
        j2 = job.with_extended_end(0.5)
        assert j2.end == 4.5
        assert j2.start == job.start

    def test_with_extended_end_zero_is_identity_window(self, job):
        assert job.with_extended_end(0.0).end == job.end

    def test_negative_extension_rejected(self, job):
        with pytest.raises(ValidationError):
            job.with_extended_end(-0.1)

    def test_extension_must_clear_start(self):
        # end is negative-side impossible here; craft start > (1+b)end case
        j = Job(id=1, source=0, dest=1, size=1.0, start=2.0, end=2.5)
        with pytest.raises(ValidationError):
            j.with_extended_end(-0.3)  # negative b rejected first

    def test_with_remaining(self, job):
        assert job.with_remaining(3.0).size == 3.0
        with pytest.raises(ValidationError):
            job.with_remaining(0.0)


class TestJobSet:
    @pytest.fixture
    def jobs(self):
        return JobSet(
            [
                Job(id="a", source=0, dest=1, size=4.0, start=0.0, end=2.0),
                Job(id="b", source=1, dest=0, size=6.0, start=1.0, end=5.0),
            ]
        )

    def test_len_iter_getitem(self, jobs):
        assert len(jobs) == 2
        assert [j.id for j in jobs] == ["a", "b"]
        assert jobs[1].id == "b"

    def test_slicing_returns_jobset(self, jobs):
        sub = jobs[:1]
        assert isinstance(sub, JobSet)
        assert len(sub) == 1

    def test_duplicate_id_rejected(self, jobs):
        with pytest.raises(ValidationError):
            jobs.add(Job(id="a", source=0, dest=1, size=1.0, start=0.0, end=1.0))

    def test_non_job_rejected(self, jobs):
        with pytest.raises(ValidationError):
            jobs.add("not a job")

    def test_membership(self, jobs):
        assert "a" in jobs
        assert jobs[0] in jobs
        assert "zzz" not in jobs

    def test_by_id_and_index_of(self, jobs):
        assert jobs.by_id("b").size == 6.0
        assert jobs.index_of("b") == 1
        with pytest.raises(ValidationError):
            jobs.by_id("zzz")
        with pytest.raises(ValidationError):
            jobs.index_of("zzz")

    def test_sizes_and_total(self, jobs):
        assert jobs.sizes().tolist() == [4.0, 6.0]
        assert jobs.total_size() == 10.0
        assert JobSet().total_size() == 0.0

    def test_od_pairs(self, jobs):
        assert jobs.od_pairs() == [(0, 1), (1, 0)]

    def test_max_end(self, jobs):
        assert jobs.max_end() == 5.0
        with pytest.raises(ValidationError):
            JobSet().max_end()

    def test_scaled(self, jobs):
        scaled = jobs.scaled(0.5)
        assert scaled.sizes().tolist() == [2.0, 3.0]
        assert jobs.sizes().tolist() == [4.0, 6.0]

    def test_with_extended_ends(self, jobs):
        ext = jobs.with_extended_ends(1.0)
        assert [j.end for j in ext] == [4.0, 10.0]

    def test_with_extended_ends_by_zero_is_the_set_itself(self, jobs):
        # (1 + 0) * end == end bitwise, so there is nothing to copy.
        assert jobs.with_extended_ends(0.0) is jobs
        with pytest.raises(ValidationError):
            jobs.with_extended_ends(-0.1)

    def test_sorted_by(self, jobs):
        by_size = jobs.sorted_by(lambda j: -j.size)
        assert [j.id for j in by_size] == ["b", "a"]
        assert [j.id for j in jobs] == ["a", "b"]  # original untouched

    def test_repr(self, jobs):
        assert "num_jobs=2" in repr(jobs)
