package invariant

import (
	"sync"
	"testing"

	"hydra/internal/obs"
)

var benchProf = obs.NewAcquireProf("bench_bracket", 1000)

// BenchmarkMutex compares an uncontended ranked Mutex with a sync.Mutex
// bracketed by hand in its tier's profile.
func BenchmarkMutex(b *testing.B) {
	b.Run("ranked", func(b *testing.B) {
		var m Mutex[PoolShard]
		for i := 0; i < b.N; i++ {
			m.Lock()
			m.Unlock()
		}
	})
	b.Run("bracketed", func(b *testing.B) {
		var m sync.Mutex
		for i := 0; i < b.N; i++ {
			s := benchProf.Start()
			m.Lock()
			benchProf.Done(s)
			m.Unlock()
		}
	})
	b.Run("bare", func(b *testing.B) {
		var m sync.Mutex
		for i := 0; i < b.N; i++ {
			m.Lock()
			m.Unlock()
		}
	})
}
