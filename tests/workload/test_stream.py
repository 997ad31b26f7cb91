"""Streaming workload generation: chunked == materialized, bit for bit.

The streaming layer's whole contract is that chunked generation is a
pure re-buffering of the batch generators — same RNG draws, same
arithmetic, same arrays — for *any* chunk size.  These tests pin that
with hypothesis over the synthetic generator's parameter space, pin the
WC98 chunked reader against the scalar reader (including the malformed
tails), and pin the cache-key contract: a workload's digest is a
function of its spec, never of how it was buffered.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.cache import workload_key
from repro.workload.stream import (
    DEFAULT_CHUNK_SIZE,
    SyntheticStream,
    SyntheticStreamSpec,
    WC98Stream,
    WC98StreamSpec,
    materialize,
    open_stream,
)
from repro.workload.synthetic import SyntheticWorkloadConfig, WorldCupLikeWorkload
from repro.workload.wc98 import (
    RECORD_SIZE,
    TraceFormatError,
    WC98Record,
    iter_wc98_chunks,
    read_wc98,
    wc98_to_trace,
    write_wc98,
)


def assert_traces_identical(a, b):
    """Bit-exact equality of two (FileSet, Trace) pairs."""
    fs_a, tr_a = a
    fs_b, tr_b = b
    np.testing.assert_array_equal(fs_a.sizes_mb, fs_b.sizes_mb)
    np.testing.assert_array_equal(tr_a.times_s, tr_b.times_s)
    np.testing.assert_array_equal(tr_a.file_ids, tr_b.file_ids)


# ----------------------------------------------------------------------
# synthetic streams: hypothesis over the generator's parameter space
# ----------------------------------------------------------------------
class TestSyntheticStreamEquivalence:
    @given(
        n_requests=st.integers(1, 3_000),
        chunk_size=st.integers(1, 4_096),
        seed=st.integers(0, 2**31 - 1),
        bursty=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunked_equals_materialized_generation(self, n_requests,
                                                    chunk_size, seed, bursty):
        cfg = SyntheticWorkloadConfig(n_files=40, n_requests=n_requests,
                                      seed=seed, bursty=bursty)
        batch = WorldCupLikeWorkload(cfg).generate()
        streamed = materialize(cfg, chunk_size=chunk_size)
        assert_traces_identical(batch, streamed)

    @given(chunk_a=st.integers(1, 997), chunk_b=st.integers(1, 997))
    @settings(max_examples=20, deadline=None)
    def test_chunk_size_never_changes_the_stream(self, chunk_a, chunk_b):
        cfg = SyntheticWorkloadConfig(n_files=30, n_requests=1_500, seed=5,
                                      bursty=True)
        assert_traces_identical(materialize(cfg, chunk_size=chunk_a),
                                materialize(cfg, chunk_size=chunk_b))

    def test_chunks_partition_the_request_count(self):
        cfg = SyntheticWorkloadConfig(n_files=20, n_requests=1_000, seed=9)
        stream = SyntheticStream(cfg)
        lengths = [len(c) for c in stream.chunks(333)]
        assert sum(lengths) == cfg.n_requests
        assert all(n == 333 for n in lengths[:-1])
        assert stream.n_requests == cfg.n_requests

    def test_times_are_globally_nondecreasing_across_chunks(self):
        cfg = SyntheticWorkloadConfig(n_files=20, n_requests=2_000, seed=13,
                                      bursty=True)
        last = -np.inf
        for chunk in SyntheticStream(cfg).chunks(101):
            assert chunk.times_s[0] >= last
            assert np.all(np.diff(chunk.times_s) >= 0)
            last = chunk.times_s[-1]

    def test_bad_chunk_size_rejected(self):
        cfg = SyntheticWorkloadConfig(n_files=10, n_requests=100, seed=1)
        with pytest.raises(ValueError):
            next(SyntheticStream(cfg).chunks(0))

    def test_open_stream_coerces_all_forms(self):
        cfg = SyntheticWorkloadConfig(n_files=10, n_requests=100, seed=1)
        from_cfg = open_stream(cfg)
        from_spec = open_stream(SyntheticStreamSpec(cfg))
        assert isinstance(from_cfg, SyntheticStream)
        assert isinstance(from_spec, SyntheticStream)
        already_open = open_stream(from_cfg)
        assert already_open is from_cfg

    @pytest.mark.parametrize("bursty", [False, True])
    def test_memoized_rank_position_equals_a_cold_stream(self, monkeypatch,
                                                         bursty):
        # the shards of one cell stream the same workload: all but the
        # first skip the rank-RNG pre-pass and must still match exactly
        import repro.workload.stream as stream_module

        monkeypatch.setattr(stream_module, "_RANK_RNG_STATES",
                            stream_module.deque(maxlen=8))
        cfg = SyntheticWorkloadConfig(n_files=40, n_requests=1_500, seed=11,
                                      bursty=bursty, size_kwargs={"sigma": 1.0})
        cold = materialize(cfg, chunk_size=256)
        passes = []
        real_gap_runs = stream_module._gap_runs
        monkeypatch.setattr(stream_module, "_gap_runs",
                            lambda *a: passes.append(1) or real_gap_runs(*a))
        warm = materialize(SyntheticWorkloadConfig(
            n_files=40, n_requests=1_500, seed=11, bursty=bursty,
            size_kwargs={"sigma": 1.0}), chunk_size=256)
        assert passes == [1]  # the arrivals only: the pre-pass was skipped
        assert_traces_identical(warm, cold)
        assert_traces_identical(warm, WorldCupLikeWorkload(cfg).generate())


# ----------------------------------------------------------------------
# cache keying: the digest is spec-derived, buffering-independent
# ----------------------------------------------------------------------
class TestStreamCacheKeys:
    def test_stream_spec_shares_the_config_digest(self):
        cfg = SyntheticWorkloadConfig(n_files=25, n_requests=500, seed=3)
        assert workload_key(SyntheticStreamSpec(cfg)) == workload_key(cfg)

    def test_digest_has_no_chunk_size_input(self):
        # the key API takes no buffering parameters at all: whatever
        # chunk size later drains the stream, the cache entry is shared
        cfg = SyntheticWorkloadConfig(n_files=25, n_requests=500, seed=3)
        key = workload_key(cfg)
        for chunk_size in (1, 97, DEFAULT_CHUNK_SIZE):
            fs, tr = materialize(cfg, chunk_size=chunk_size)
            assert workload_key(cfg) == key

    def test_wc98_spec_key_depends_on_filters(self, tmp_path):
        path = tmp_path / "t.bin"
        write_wc98([_rec(ts=t, obj=t % 3) for t in range(10)], path)
        base = workload_key(WC98StreamSpec(str(path)))
        assert base == workload_key(WC98StreamSpec(str(path)))
        assert base != workload_key(WC98StreamSpec(str(path), min_size_bytes=9))
        assert base != workload_key(WC98StreamSpec(str(path), methods=(0, 1)))


# ----------------------------------------------------------------------
# WC98: chunked reader and stream vs the scalar batch path
# ----------------------------------------------------------------------
def _rec(ts=1000, obj=1, size=5000, method=0):
    return WC98Record(timestamp=ts, client_id=7, object_id=obj, size=size,
                      method=method, status=2, type=1, server=0)


class TestWC98ChunkedReader:
    def test_chunked_concat_equals_scalar_reader(self, tmp_path):
        path = tmp_path / "t.bin"
        records = [_rec(ts=1000 + i, obj=i % 5, size=100 * (i + 1))
                   for i in range(257)]
        write_wc98(records, path)
        scalar = read_wc98(path)
        for rpc in (1, 3, 256, 257, 1000):
            arrs = list(iter_wc98_chunks(path, records_per_chunk=rpc))
            assert sum(a.size for a in arrs) == len(records)
            flat = np.concatenate(arrs)
            assert [int(x) for x in flat["timestamp"]] == \
                [r.timestamp for r in scalar]
            assert [int(x) for x in flat["object_id"]] == \
                [r.object_id for r in scalar]

    def test_chunk_boundary_on_record_boundary(self, tmp_path):
        # file length an exact multiple of both record and chunk size:
        # the EOF probe must terminate cleanly, not yield an empty chunk
        path = tmp_path / "exact.bin"
        write_wc98([_rec(ts=t) for t in range(8)], path)
        arrs = list(iter_wc98_chunks(path, records_per_chunk=4))
        assert [a.size for a in arrs] == [4, 4]

    def test_empty_file_yields_nothing(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert list(iter_wc98_chunks(path)) == []

    def test_truncated_final_record_located_exactly(self, tmp_path):
        # 5 whole records + 11 stray bytes, read with chunks of 2: the
        # error must carry the *global* record index and byte offset
        path = tmp_path / "cut.bin"
        body = b"".join(_rec(ts=t).pack() for t in range(5))
        path.write_bytes(body + _rec().pack()[:11])
        with pytest.raises(TraceFormatError) as excinfo:
            list(iter_wc98_chunks(path, records_per_chunk=2))
        err = excinfo.value
        assert err.record_index == 5
        assert err.byte_offset == 5 * RECORD_SIZE
        assert err.got_bytes == 11

    def test_truncation_error_does_not_depend_on_chunking(self, tmp_path):
        path = tmp_path / "cut.bin"
        path.write_bytes(b"".join(_rec(ts=t).pack() for t in range(7)) + b"\x01\x02")
        reports = []
        for rpc in (1, 2, 7, 64):
            with pytest.raises(TraceFormatError) as excinfo:
                list(iter_wc98_chunks(path, records_per_chunk=rpc))
            err = excinfo.value
            reports.append((err.record_index, err.byte_offset, err.got_bytes))
        assert set(reports) == {(7, 7 * RECORD_SIZE, 2)}


class TestWC98StreamEquivalence:
    def _write_trace(self, tmp_path, n=200):
        path = tmp_path / "wc.bin"
        records = [_rec(ts=1_000_000 + i // 2, obj=(i * 7) % 13,
                        size=1_000 + 100 * (i % 9), method=(0 if i % 5 else 3))
                   for i in range(n)]
        write_wc98(records, path)
        return path, records

    def test_stream_equals_batch_converter(self, tmp_path):
        path, records = self._write_trace(tmp_path)
        batch_fs, batch_tr = wc98_to_trace(read_wc98(path))
        for chunk_size in (1, 17, 1000):
            streamed = materialize(WC98StreamSpec(str(path)),
                                   chunk_size=chunk_size)
            assert_traces_identical((batch_fs, batch_tr), streamed)

    def test_stream_counts_match_filter(self, tmp_path):
        path, records = self._write_trace(tmp_path)
        stream = WC98Stream(str(path))
        kept = [r for r in records if r.method == 0 and r.size >= 1]
        assert stream.n_requests == len(kept)
        assert stream.t0 == min(r.timestamp for r in kept)

    def test_out_of_order_timestamps_rejected(self, tmp_path):
        path = tmp_path / "ooo.bin"
        write_wc98([_rec(ts=2000), _rec(ts=1000)], path)
        with pytest.raises(ValueError, match="sorted non-decreasing"):
            WC98Stream(str(path))

    def test_nothing_survives_filter_rejected(self, tmp_path):
        path = tmp_path / "allpost.bin"
        write_wc98([_rec(ts=1, method=3)], path)
        with pytest.raises(ValueError, match="survive"):
            WC98Stream(str(path))
