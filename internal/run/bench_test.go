package run

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkFinishEvict is one completion as the dispatcher drives it —
// Create → Begin → Finish → EvictTerminal(keep) — against a store already
// holding keep terminal runs, so every op evicts exactly one. The cost of
// a completion must not depend on how much history is retained: ns/op is
// flat across keep.
func BenchmarkFinishEvict(b *testing.B) {
	for _, keep := range []int{64, 4096, 65536} {
		b.Run(fmt.Sprintf("keep=%d", keep), func(b *testing.B) {
			s := NewMemStore()
			spec := pipelineSpec()
			finish := func() {
				r, _ := s.Create(spec)
				if _, err := s.Begin(r.ID, time.Now(), "", nil); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Finish(r.ID, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < keep; i++ {
				finish()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				finish()
				s.EvictTerminal(keep)
			}
		})
	}
}
