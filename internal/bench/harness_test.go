package bench

import (
	"testing"

	"heron/internal/sim"
)

// BenchmarkBuildHeronTPCC measures BuildHeron's set-up of a TPCC
// deployment, 4 warehouses x 3 replicas at tpcc.SmallScale: generating
// each warehouse's image and populating every replica from it.
func BenchmarkBuildHeronTPCC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.NewScheduler()
		if _, _, err := BuildHeron(s, DefaultOptions(4)); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}
