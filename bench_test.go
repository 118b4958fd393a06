package repro

// Benchmarks regenerating the paper's evaluation, one family per table or
// figure (see DESIGN.md §6 and EXPERIMENTS.md for the full ladders — the
// sizes here are kept moderate so `go test -bench=.` terminates quickly;
// cmd/tables runs the full ladders):
//
//	BenchmarkTable1* — Table I: Byzantine agreement, cautious vs lazy.
//	BenchmarkTable2* — Table II: stabilizing chain at scale, lazy.
//	BenchmarkTable3* — the garbled second table's caption: BA + fail-stop.
//	BenchmarkTable4* — ablations: pure lazy (no reachability heuristic) and
//	                   deferred cycle-breaking.
//	BenchmarkFigure5* — the Section III-B group computation itself.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/program"
	"repro/internal/repair"
)

func benchRepair(b *testing.B, caseName string, n int, alg func(*Compiled, Options) (*Result, error), opts Options) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		def, err := CaseStudy(caseName, n)
		if err != nil {
			b.Fatal(err)
		}
		c, err := def.Compile()
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := alg(c, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func lazyAlg(c *Compiled, o Options) (*Result, error) {
	return repair.LazyEngine(context.Background(), program.NewEngine(c, o.Workers), o)
}

func cautiousAlg(c *Compiled, o Options) (*Result, error) {
	return repair.CautiousEngine(context.Background(), program.NewEngine(c, o.Workers), o)
}

func BenchmarkTable1BALazy(b *testing.B) {
	for _, n := range []int{3, 6, 10} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRepair(b, "ba", n, lazyAlg, DefaultOptions())
		})
	}
}

func BenchmarkTable1BACautious(b *testing.B) {
	for _, n := range []int{3, 6, 10} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRepair(b, "ba", n, cautiousAlg, DefaultOptions())
		})
	}
}

func BenchmarkTable2SCLazy(b *testing.B) {
	for _, n := range []int{8, 12, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRepair(b, "sc", n, lazyAlg, DefaultOptions())
		})
	}
}

// BenchmarkTable2SCStep2 isolates Step 2 (Algorithm 2) on the chain: the
// paper's Table II shows it staying ≈flat while Step 1 grows.
func BenchmarkTable2SCStep2(b *testing.B) {
	for _, n := range []int{8, 12, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			def, err := CaseStudy("sc", n)
			if err != nil {
				b.Fatal(err)
			}
			c, err := def.Compile()
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			e := program.SerialEngine(c)
			mask, err := repair.AddMaskingEngine(ctx, e, c.Invariant, c.BadTrans, repair.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				parts, err := repair.RealizePartsEngine(ctx, e, mask.Trans, mask.FaultSpan)
				if err != nil {
					b.Fatal(err)
				}
				c.Space.M.OrN(parts...)
			}
		})
	}
}

func BenchmarkTable3BAFSLazy(b *testing.B) {
	for _, n := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRepair(b, "bafs", n, lazyAlg, DefaultOptions())
		})
	}
}

func BenchmarkTable4PureLazy(b *testing.B) {
	opts := DefaultOptions()
	opts.ReachabilityHeuristic = false
	for _, n := range []int{3, 6} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRepair(b, "ba", n, lazyAlg, opts)
		})
	}
}

func BenchmarkTable4DeferCycles(b *testing.B) {
	opts := DefaultOptions()
	opts.DeferCycleBreaking = true
	for _, n := range []int{3, 6} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRepair(b, "ba", n, lazyAlg, opts)
		})
	}
}

// BenchmarkFigure5Group measures the symbolic read-restriction group
// computation (Section III-B) on Byzantine agreement's full transition set.
func BenchmarkFigure5Group(b *testing.B) {
	def, err := CaseStudy("ba", 8)
	if err != nil {
		b.Fatal(err)
	}
	c, err := def.Compile()
	if err != nil {
		b.Fatal(err)
	}
	p := c.Procs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Group(c.Trans)
	}
}

// BenchmarkFigure5MaxRealizable measures the closed-form Algorithm-2 kernel.
func BenchmarkFigure5MaxRealizable(b *testing.B) {
	def, err := CaseStudy("ba", 8)
	if err != nil {
		b.Fatal(err)
	}
	c, err := def.Compile()
	if err != nil {
		b.Fatal(err)
	}
	p := c.Procs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MaxRealizableSubset(c.Trans)
	}
}
