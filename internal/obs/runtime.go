package obs

import (
	"runtime"
	"runtime/metrics"
)

// RuntimeStats is the Go runtime's metric group, read from
// runtime/metrics (no stop-the-world, unlike runtime.ReadMemStats).
type RuntimeStats struct {
	Goroutines     uint64 `json:"goroutines" metric:"gauge"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes" metric:"gauge"`
	Mallocs        uint64 `json:"mallocs"`
	GCCycles       uint64 `json:"gc_cycles"`
	GCPauseNs      uint64 `json:"gc_pause_ns"`
}

// RuntimeSnapshot samples the runtime group.
func RuntimeSnapshot() RuntimeStats {
	s := []metrics.Sample{
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		// GOMAXPROCS times the wall-clock pauses: every P is stopped.
		{Name: "/cpu/classes/gc/pause:cpu-seconds"},
	}
	metrics.Read(s)
	return RuntimeStats{
		Goroutines:     s[0].Value.Uint64(),
		HeapAllocBytes: s[1].Value.Uint64(),
		Mallocs:        s[2].Value.Uint64(),
		GCCycles:       s[3].Value.Uint64(),
		GCPauseNs:      uint64(s[4].Value.Float64() / float64(runtime.GOMAXPROCS(0)) * 1e9),
	}
}
