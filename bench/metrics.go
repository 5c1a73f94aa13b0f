package main

import (
	"fmt"
	"slices"
)

// metric is one named number of one run. Samples is how many
// observations stand behind Value (ops in the window, spans, set-ups).
type metric struct {
	Name    string
	Unit    string
	Value   float64
	Samples int64
}

// minSamples is the fewest latency samples a measured window may
// hold: p99 then has at least 100 samples beyond it.
const minSamples = 10000

// endToEndMetrics turns a live run into what a client of the server
// sees; it sorts r.samples. The names and units are those of
// BENCHMARK.json.
func endToEndMetrics(r *liveResult) []metric {
	slices.Sort(r.samples)
	n := int64(len(r.samples))
	return []metric{
		{"throughput_ops_s", "ops/s", float64(n) / r.elapsed.Seconds(), n},
		{"p50_us", "us", us(float64(percentile(r.samples, 50))), n},
		{"setup_s", "s", median(r.setups), int64(len(r.setups))},
	}
}

// informationalMetrics are printed and recorded but carry no bound;
// call it after endToEndMetrics has sorted the samples. p99_us and
// rss_peak_mib are here and not end to end because they do not repeat
// within a tenth from run to run on the sandbox (see README.md).
func informationalMetrics(r *liveResult) []metric {
	n := int64(len(r.samples))
	out := []metric{
		{"p99_us", "us", us(float64(percentile(r.samples, 99))), n},
		{"rss_peak_mib", "MiB", r.rssPeakMiB, 1},
		{"error_rate", "ratio", ratio(float64(r.failed), float64(r.attempted)), r.attempted},
		{"window_s", "s", r.elapsed.Seconds(), 1},
	}
	if r.crashChecked > 0 {
		out = append(out,
			metric{"recovery_s", "s", r.recoveryS, 1},
			metric{"crash_checked_keys", "count", float64(r.crashChecked), 1})
	}
	return out
}

// countMetrics are the per-layer counts: STATS FULL deltas over the
// window, and the generator's own wire counters, per successful op.
func countMetrics(r *liveResult) []metric {
	ops := float64(len(r.samples))
	n := int64(len(r.samples))
	b, a := &r.before, &r.after
	d := func(after, before uint64) float64 { return float64(after - before) }
	commits, aborts := d(a.Commits, b.Commits), d(a.Aborts, b.Aborts)
	hits, misses := d(a.Buffer.Hits, b.Buffer.Hits), d(a.Buffer.Misses, b.Buffer.Misses)
	syncs := d(a.Log.FlushSyncs, b.Log.FlushSyncs)
	inserts := d(a.Log.Inserts, b.Log.Inserts)
	return []metric{
		{"server.round_trips_per_op", "1/op", ratio(float64(r.trips), ops), n},
		{"server.bytes_per_op", "B/op", ratio(float64(r.bytes), ops), n},
		{"core.abort_ratio", "ratio", ratio(aborts, commits+aborts), int64(commits + aborts)},
		{"lock.acquires_per_op", "1/op", ratio(d(a.Lock.Acquires, b.Lock.Acquires), ops), n},
		{"lock.waits_per_op", "1/op", ratio(d(a.Lock.Waits, b.Lock.Waits), ops), n},
		{"lock.deadlocks", "count", d(a.Lock.Deadlocks, b.Lock.Deadlocks), n},
		{"lock.timeouts", "count", d(a.Lock.Timeouts, b.Lock.Timeouts), n},
		{"buffer.hit_ratio", "ratio", ratio(hits, hits+misses), int64(hits + misses)},
		{"buffer.misses_per_op", "1/op", ratio(misses, ops), n},
		{"buffer.evictions_per_op", "1/op", ratio(d(a.Buffer.Evictions, b.Buffer.Evictions), ops), n},
		{"buffer.writebacks_per_op", "1/op", ratio(d(a.Buffer.Writebacks, b.Buffer.Writebacks), ops), n},
		{"wal.bytes_per_user_byte", "ratio", ratio(d(a.Log.InsertedBytes, b.Log.InsertedBytes), float64(r.valueBytes)), int64(inserts)},
		{"wal.commits_per_sync", "1/sync", ratio(float64(r.writeCommits), syncs), int64(syncs)},
		{"wal.syncs_per_s", "1/s", syncs / r.elapsed.Seconds(), int64(syncs)},
		{"wal.group_insert_ratio", "ratio", ratio(d(a.Log.GroupInserts, b.Log.GroupInserts), inserts), int64(inserts)},
	}
}

func find(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	panic("bench: no metric " + name)
}

// validate checks that the traffic was what the workload claims, so a
// layer's numbers are known to come from the work that layer was
// meant to do. Index pages always hit, so the miss check is per op and
// not a ratio.
func validate(w *workload, counts []metric) []string {
	var bad []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, w.name+": "+fmt.Sprintf(format, args...))
		}
	}
	misses := find(counts, "buffer.misses_per_op")
	if w.cold {
		check(misses >= 0.3, "buffer.misses_per_op = %.4f, a cold workload needs >= 0.3", misses)
	} else {
		check(misses <= 0.01, "buffer.misses_per_op = %.4f, a hot workload allows <= 0.01", misses)
	}
	if !w.txn && w.getPermille == 1000 {
		syncs := find(counts, "wal.syncs_per_s")
		check(syncs == 0, "wal.syncs_per_s = %.2f on a read-only workload", syncs)
	}
	waits := find(counts, "lock.waits_per_op")
	if w.txn {
		check(waits >= 0.05, "lock.waits_per_op = %.4f, the contended workload needs >= 0.05", waits)
	} else {
		check(waits <= 0.01, "lock.waits_per_op = %.4f, an uncontended workload allows <= 0.01", waits)
	}
	return bad
}
