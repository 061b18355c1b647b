package main

// metricSpec names one metric the benchmark prints. BENCHMARK.json lists the
// same names, units and directions and adds the end-to-end bounds; the smoke
// test checks that the two agree.
type metricSpec struct {
	Name, Unit, Better string
}

// endToEnd are the gated metrics: defined on every workload, never zero,
// taken from untraced repetitions only, and repeating between runs well
// within their bound. On the host this was written on no wall-clock figure
// does (README, "Bounds and noise"), so besides the set-up time the contract
// requires they are the two counted costs.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"tue", "ratio", "lower"},
}

// perLayer are the ungated metrics of the traced run: what the workload's
// repetitions give (layerSpecs), then the direct-call kernels (kernelSpecs).
var perLayer = append(append([]metricSpec{}, layerSpecs...), kernelSpecs...)

// layerSpecs opens with the end-to-end quantities that are printed but not
// gated, measured on the untraced repetitions of the traced run: the timed
// ones, demoted because their run-to-run spread exceeded the widest bound
// the contract allows, and those that do not exist on every workload (no
// engine in small_push, no peer in fileserver_mix) and read 0 there.
var layerSpecs = []metricSpec{
	{"work_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"op_p50_us", "us", "lower"},
	{"op_p90_us", "us", "lower"},
	{"op_p99_us", "us", "lower"},
	{"upload_p50_ms", "ms", "lower"},
	{"upload_p90_ms", "ms", "lower"},
	{"peer_visible_p50_ms", "ms", "lower"},
	{"push_p50_us", "us", "lower"},
	{"push_p99_us", "us", "lower"},

	{"core.op_self_s", "s", "lower"},
	{"core.tick_self_s", "s", "lower"},
	{"core.peer_apply_self_s", "s", "lower"},
	{"core.delta_triggers", "count", "higher"},
	{"core.inplace_deltas", "count", "higher"},
	{"core.uploaded_batches", "count", "lower"},
	{"core.uploaded_nodes", "count", "lower"},
	{"core.nodes_per_batch", "ratio", "higher"},
	{"core.remote_applied", "count", "higher"},
	{"core.conflicts", "count", "lower"},
	{"core.kv_errors", "count", "lower"},
	{"core.ticks", "count", "lower"},
	{"core.copy_mb", "MB", "lower"},
	{"core.compare_mb", "MB", "lower"},
	{"core.rolling_mb", "MB", "lower"},
	{"core.disk_mb", "MB", "lower"},
	{"core.delta_saving", "ratio", "higher"},

	{"vfs.backing_s", "s", "lower"},
	{"vfs.backing_calls", "count", "lower"},
	{"vfs.read_mb", "MB", "lower"},
	{"vfs.write_mb", "MB", "lower"},
	{"vfs.read_amp", "ratio", "lower"},
	{"vfs.write_amp", "ratio", "lower"},

	{"wire.client_rtt_s", "s", "lower"},
	{"wire.transport_s", "s", "lower"},
	{"wire.msgs", "count", "lower"},
	{"wire.up_mb", "MB", "lower"},
	{"wire.down_mb", "MB", "lower"},
	{"wire.batch_encodes", "ratio", "lower"},
	{"wire.peak_conns", "count", "lower"},
	{"wire.requests", "count", "lower"},

	{"server.push_s", "s", "lower"},
	{"server.push_p50_us", "us", "lower"},
	{"server.push_p99_us", "us", "lower"},
	{"server.poll_s", "s", "lower"},
	{"server.fetch_s", "s", "lower"},
	{"server.pushes", "count", "lower"},
	{"server.polls", "count", "lower"},
	{"server.self_s", "s", "lower"},
	{"server.copy_mb", "MB", "lower"},
	{"server.copy_amp", "ratio", "lower"},
	{"server.outbox_peak", "count", "lower"},
	{"server.outbox_drops", "count", "lower"},
	{"server.throttles", "count", "lower"},
	{"server.duplicate_applies", "count", "lower"},

	{"journal.io_s", "s", "lower"},
	{"journal.fsyncs", "count", "lower"},
	{"journal.sync_coalesced", "count", "higher"},
	{"journal.write_mb", "MB", "lower"},
	{"journal.write_amp", "ratio", "lower"},

	{"kvstore.io_s", "s", "lower"},
	{"kvstore.fsyncs", "count", "lower"},
	{"kvstore.write_mb", "MB", "lower"},

	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.share_sum", "ratio", "higher"},
}

// kernelSpecs are the direct-call kernels (kernels.go): one layer's public
// function on a fixed seeded input, single-threaded, no stack around it.
var kernelSpecs = []metricSpec{
	{"rsync.delta_local_mb_s", "MB/s", "higher"},
	{"rsync.delta_local_alloc_mb", "MB", "lower"},
	{"rsync.patch_mb_s", "MB/s", "higher"},
	{"syncqueue.seq_write_mb_s", "MB/s", "higher"},
	{"syncqueue.small_write_ns", "ns", "lower"},
	{"wire.encode_bulk_mb_s", "MB/s", "higher"},
	{"wire.decode_bulk_mb_s", "MB/s", "higher"},
	{"wire.encode_small_ns", "ns", "lower"},
	{"wire.decode_small_ns", "ns", "lower"},
	{"wire.encode_small_allocs", "count", "lower"},
	{"server.push_inproc_small_us", "us", "lower"},
	{"server.push_inproc_bigfile_us", "us", "lower"},
	{"kvstore.put_ns", "ns", "lower"},
	{"kvstore.put_sync_us", "us", "lower"},
	{"integrity.update_mb_s", "MB/s", "higher"},
	{"integrity.verify_mb_s", "MB/s", "higher"},
	{"undolog.before_write_us", "us", "lower"},
}
