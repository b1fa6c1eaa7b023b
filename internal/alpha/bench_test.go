package alpha

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// BenchmarkPipelineCycleRate measures raw simulation speed: host time
// per simulated instruction on a mixed kernel.
func BenchmarkPipelineCycleRate(b *testing.B) {
	w := loopProg("bench", 2000, func(bb *asm.Builder) {
		bb.OpI(isa.OpAddq, isa.T0, 1, isa.T0)
		bb.Op(isa.OpAddq, isa.T1, isa.T12, isa.T1)
		bb.OpI(isa.OpXor, isa.T2, 3, isa.T2)
	})
	m := DefaultConfig()
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		res, err := m.Run(w)
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Instructions
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "simulated-insts/s")
}
