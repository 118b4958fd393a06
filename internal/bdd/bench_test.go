package bdd

import (
	"math/rand"
	"testing"
)

// buildChainRelation builds an interleaved-variable transition relation of
// a token-passing chain with n cells of b bits — a realistic workload for
// the image-computation benchmarks.
func buildChainRelation(m *Manager, n, bits int) (rel Node, curLevels, nextLevels []int) {
	for i := 0; i < n*bits; i++ {
		m.NewVar("")
		m.NewVar("")
	}
	for i := 0; i < n*bits; i++ {
		curLevels = append(curLevels, 2*i)
		nextLevels = append(nextLevels, 2*i+1)
	}
	unchanged := func(cell int) Node {
		out := True
		for b := 0; b < bits; b++ {
			i := cell*bits + b
			out = m.And(out, m.Iff(m.Var(2*i), m.Var(2*i+1)))
		}
		return out
	}
	copyLeft := func(cell int) Node {
		out := True
		for b := 0; b < bits; b++ {
			src := (cell-1)*bits + b
			dst := cell*bits + b
			out = m.And(out, m.Iff(m.Var(2*dst+1), m.Var(2*src)))
		}
		return out
	}
	rel = False
	for cell := 1; cell < n; cell++ {
		action := copyLeft(cell)
		for other := 0; other < n; other++ {
			if other != cell {
				action = m.And(action, unchanged(other))
			}
		}
		rel = m.Or(rel, action)
	}
	return rel, curLevels, nextLevels
}

func BenchmarkAndOrRandom(b *testing.B) {
	m := New()
	const nvars = 24
	m.NewVars(nvars)
	rng := rand.New(rand.NewSource(1))
	fs := make([]Node, 64)
	for i := range fs {
		fs[i] = randomFormula(m, rng, nvars, 8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := fs[i%len(fs)]
		g := fs[(i*7+3)%len(fs)]
		m.And(f, g)
		m.Or(f, g)
	}
}

func BenchmarkITERandom(b *testing.B) {
	m := New()
	const nvars = 24
	m.NewVars(nvars)
	rng := rand.New(rand.NewSource(2))
	fs := make([]Node, 64)
	for i := range fs {
		fs[i] = randomFormula(m, rng, nvars, 8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ITE(fs[i%64], fs[(i+11)%64], fs[(i+23)%64])
	}
}

func BenchmarkImageChain(b *testing.B) {
	m := New()
	rel, curLevels, _ := buildChainRelation(m, 12, 2)
	cube := m.Cube(curLevels)
	// A nontrivial state set: cell 0 fixed to 3.
	set := m.And(m.Var(0), m.Var(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AndExists(set, rel, cube)
	}
}

func BenchmarkReplacePrime(b *testing.B) {
	m := New()
	rel, curLevels, nextLevels := buildChainRelation(m, 10, 2)
	mapping := make([]int, m.NumVars())
	for i := range mapping {
		mapping[i] = i
	}
	for k := range curLevels {
		mapping[curLevels[k]] = nextLevels[k]
		mapping[nextLevels[k]] = curLevels[k]
	}
	p := m.NewPermutation(mapping)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Replace(rel, p)
	}
}

func BenchmarkSatCount(b *testing.B) {
	m := New()
	rel, _, _ := buildChainRelation(m, 12, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.FlushCaches()
		m.SatCount(rel)
	}
}

func BenchmarkMkHashConsing(b *testing.B) {
	m := New()
	vars := m.NewVars(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Rebuild a shared structure; most mk calls hit the unique table.
		f := True
		for _, v := range vars {
			f = m.And(f, v)
		}
	}
}
