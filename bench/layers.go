package main

import "strings"

// Per-layer metrics of one repetition. Counts come from the system's own
// public counters (Engine.Stats, CPUMeter.Breakdown, TrafficMeter,
// ServeStats, OutboxStats, Journal.Fsyncs) and are filled on every run;
// times and IO bytes come from the seam wrappers and exist only when traced.

const mb = 1e6

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stackCounts fills the metrics every workload has: wire, server, journal.
// pushes is the number of batches the clients pushed, payload the bytes
// they carried, update the workload's logical update size. The traced run
// also gets the span totals back, for the caller's own layers.
func (s *stack) stackCounts(L map[string]float64, pushes, payload, update float64) *layerTimes {
	var msgs, up, down float64
	for _, c := range s.clients {
		msgs += float64(c.traffic.Messages())
		up += float64(c.traffic.Uploaded())
		down += float64(c.traffic.Downloaded())
	}
	L["wire.msgs"], L["wire.up_mb"], L["wire.down_mb"] = msgs, up/mb, down/mb
	L["wire.batch_encodes"] = ratio(float64(s.encodes), pushes)
	L["wire.peak_conns"] = float64(s.stats.PeakConns())
	L["wire.requests"] = float64(s.stats.Requests())

	srvCopy := float64(s.srvMeter.Breakdown()["copy_bytes"])
	L["server.copy_mb"], L["server.copy_amp"] = srvCopy/mb, ratio(srvCopy, update)
	ob := s.srv.OutboxStats()
	L["server.outbox_peak"], L["server.outbox_drops"] = float64(ob.Peak), float64(ob.Drops)
	L["server.throttles"] = float64(s.sync.OutboxThrottles())
	L["server.duplicate_applies"] = float64(s.srv.DuplicateApplies())

	L["journal.fsyncs"] = float64(s.journal.Fsyncs())
	L["journal.sync_coalesced"] = float64(s.journal.SyncCoalesced())
	jw := float64(s.jfs.writeBytes.Load())
	L["journal.write_mb"], L["journal.write_amp"] = jw/mb, ratio(jw, payload)

	if s.t == nil {
		return nil
	}
	lt := s.t.layerTimes()
	sum := func(m map[string]float64, names ...string) (v float64) {
		for _, n := range names {
			v += m[n]
		}
		return v
	}
	L["wire.client_rtt_s"] = sum(lt.byName, "wire.push", "wire.poll", "wire.fetch", "wire.head", "wire.fetchrange")
	L["wire.transport_s"] = lt.self[layerWire]
	L["server.push_s"] = lt.byName["server.push"]
	L["server.poll_s"] = lt.byName["server.poll"]
	L["server.fetch_s"] = sum(lt.byName, "server.fetch", "server.head", "server.fetchrange")
	L["server.pushes"], L["server.polls"] = float64(lt.calls["server.push"]), float64(lt.calls["server.poll"])
	L["server.self_s"] = lt.selfByName["server.push"]
	L["journal.io_s"] = lt.self[layerJournal] + lt.background[layerJournal]

	var onPath float64
	for _, v := range lt.self {
		onPath += v
	}
	L["trace.share_sum"] = ratio(onPath, lt.topLevel)
	return &lt
}

// layerCounts fills an engine repetition's per-layer metrics.
func (r *engineRun) layerCounts(update, written int64) {
	L := map[string]float64{}
	r.rep.layer = L
	sa := r.a.eng.Stats()
	L["core.delta_triggers"], L["core.inplace_deltas"] = float64(sa.DeltaTriggers), float64(sa.InPlaceDeltas)
	L["core.uploaded_batches"], L["core.uploaded_nodes"] = float64(sa.UploadedBatches), float64(sa.UploadedNodes)
	L["core.nodes_per_batch"] = ratio(float64(sa.UploadedNodes), float64(sa.UploadedBatches))
	L["core.conflicts"] = float64(sa.Conflicts + sa.RemoteConflicts)
	L["core.kv_errors"] = float64(sa.KVErrors)
	if r.b != nil {
		sb := r.b.eng.Stats()
		L["core.remote_applied"] = float64(sb.RemoteApplied)
		L["core.conflicts"] += float64(sb.Conflicts + sb.RemoteConflicts)
		L["core.kv_errors"] += float64(sb.KVErrors)
	}
	bd := r.a.meter.Breakdown()
	L["core.ticks"] = float64(r.a.meter.Ticks())
	L["core.copy_mb"], L["core.compare_mb"] = float64(bd["copy_bytes"])/mb, float64(bd["compare_bytes"])/mb
	L["core.rolling_mb"], L["core.disk_mb"] = float64(bd["rolling_bytes"])/mb, float64(bd["disk_bytes"])/mb
	uploaded := float64(r.a.traffic.Uploaded())
	L["core.delta_saving"] = 1 - ratio(uploaded, float64(written))

	lt := r.st.stackCounts(L, float64(sa.UploadedBatches), uploaded, float64(update))
	if r.a.kv != nil {
		L["kvstore.fsyncs"] = float64(r.a.kv.FsyncCount())
		L["kvstore.write_mb"] = float64(r.a.kvfs.writeBytes.Load()) / mb
	}
	if lt == nil {
		return
	}
	L["core.op_self_s"] = lt.selfByName["core.op"]
	L["core.tick_self_s"] = lt.selfByName["core.tick"]
	L["core.peer_apply_self_s"] = lt.selfByName["core.peer_tick"]
	L["vfs.backing_s"] = lt.self[layerVFS] + lt.background[layerVFS]
	var calls, rd, wr float64
	for name, n := range lt.calls {
		if strings.HasPrefix(name, layerVFS+".") {
			calls += float64(n)
		}
	}
	for _, c := range r.st.clients {
		rd += float64(c.tfs.readBytes.Load())
		wr += float64(c.tfs.writeBytes.Load())
	}
	L["vfs.backing_calls"] = calls
	L["vfs.read_mb"], L["vfs.write_mb"] = rd/mb, wr/mb
	L["vfs.read_amp"], L["vfs.write_amp"] = ratio(rd, float64(update)), ratio(wr, float64(update))
	L["kvstore.io_s"] = lt.self[layerKV] + lt.background[layerKV]
	r.rep.pushUS, r.rep.srvPushUS = lt.pushUS, lt.srvPushUS
	r.rep.spans = r.st.t.spans
}
