package bdd

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
)

// randNode builds a random predicate over the manager's variables by
// combining literals with random connectives. depth bounds the expression
// tree; the distribution is skewed toward non-trivial functions but True and
// False remain reachable so terminals are exercised too.
func randNode(m *Manager, rng *rand.Rand, depth int) Node {
	if depth == 0 {
		switch rng.Intn(8) {
		case 0:
			return False
		case 1:
			return True
		default:
			v := m.Var(rng.Intn(m.NumVars()))
			if rng.Intn(2) == 0 {
				return m.Not(v)
			}
			return v
		}
	}
	f := randNode(m, rng, depth-1)
	g := randNode(m, rng, depth-1)
	switch rng.Intn(4) {
	case 0:
		return m.And(f, g)
	case 1:
		return m.Or(f, g)
	case 2:
		return m.Xor(f, g)
	default:
		return m.ITE(f, g, randNode(m, rng, depth-1))
	}
}

// TestTransferRoundTrip is the property-based check behind the parallel
// engine: for random predicates over random variable counts, Export from one
// manager and Import into a fresh one must preserve the function exactly
// (same satisfying-assignment count, same value on every sampled point), and
// because ROBDDs are canonical, re-exporting from the destination must
// reproduce the original buffer byte for byte.
func TestTransferRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		nv := 1 + rng.Intn(12)
		src := New()
		src.NewVars(nv)
		dst := New()
		dst.NewVars(nv)

		f := randNode(src, rng, 3+rng.Intn(3))
		buf := src.Export(f)
		g := Import(dst, buf)

		if sc, dc := src.SatCountVars(f, nv), dst.SatCountVars(g, nv); sc != dc {
			t.Fatalf("trial %d: satcount mismatch after transfer: %g vs %g", trial, sc, dc)
		}
		assignment := make([]bool, nv)
		for probe := 0; probe < 50; probe++ {
			for i := range assignment {
				assignment[i] = rng.Intn(2) == 0
			}
			if src.Eval(f, assignment) != dst.Eval(g, assignment) {
				t.Fatalf("trial %d: pointwise mismatch at %v", trial, assignment)
			}
		}
		if buf2 := dst.Export(g); !bytes.Equal(buf, buf2) {
			t.Fatalf("trial %d: re-export is not byte-identical (%d vs %d bytes)", trial, len(buf), len(buf2))
		}
	}
}

// Terminals are shared constants: they must survive transfer as themselves.
func TestTransferTerminals(t *testing.T) {
	src, dst := New(), New()
	src.NewVars(3)
	dst.NewVars(3)
	if got := Import(dst, src.Export(False)); got != False {
		t.Fatalf("False transferred to %d", got)
	}
	if got := Import(dst, src.Export(True)); got != True {
		t.Fatalf("True transferred to %d", got)
	}
}

// A destination with more variables than the source is fine (the extra
// levels are simply unused); fewer variables must be rejected.
func TestTransferVarCountMismatch(t *testing.T) {
	src := New()
	src.NewVars(5)
	f := src.And(src.Var(1), src.Not(src.Var(4)))
	buf := src.Export(f)

	wide := New()
	wide.NewVars(8)
	g := Import(wide, buf)
	if src.SatCountVars(f, 5) != wide.SatCountVars(g, 5) {
		t.Fatal("transfer into wider manager changed the function")
	}

	narrow := New()
	narrow.NewVars(3)
	defer func() {
		if recover() == nil {
			t.Fatal("Import into a narrower manager did not panic")
		}
	}()
	Import(narrow, buf)
}

func TestImportRejectsGarbage(t *testing.T) {
	m := New()
	m.NewVars(4)
	for name, buf := range map[string][]byte{
		"empty":     {},
		"bad magic": {0x42, 0x01, 0x04, 0x00, 0x00},
		"truncated": m.Export(m.Xor(m.Var(0), m.Var(3)))[:4],
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Import did not panic", name)
				}
			}()
			Import(m, buf)
		}()
	}
}

// TestCheckNodeForeign pins the cross-manager misuse bug: a Node index from a
// big manager handed to a small one must panic with a clear message instead
// of silently reading another function's truth table.
func TestCheckNodeForeign(t *testing.T) {
	big := New()
	big.NewVars(10)
	f := big.AndN(big.Var(0), big.Var(5), big.Var(9))

	small := New()
	small.NewVars(10)
	defer func() {
		if recover() == nil {
			t.Fatal("CheckNode accepted a foreign node index")
		}
	}()
	small.CheckNode(f) // f's index is far beyond small's node table
}

func TestPoolMapOrderAndError(t *testing.T) {
	workers := []*Manager{New(), New()}
	for _, w := range workers {
		w.NewVars(4)
	}
	pool := NewPool(workers)

	results, err := pool.Map(context.Background(), 7, func(w *Manager, worker, task int) ([]byte, error) {
		return []byte{byte(task)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if len(r) != 1 || r[0] != byte(i) {
			t.Fatalf("result %d landed at the wrong slot: %v", i, r)
		}
	}

	boom := errors.New("boom")
	if _, err := pool.Map(context.Background(), 5, func(w *Manager, worker, task int) ([]byte, error) {
		if task == 3 {
			return nil, boom
		}
		return nil, nil
	}); !errors.Is(err, boom) {
		t.Fatalf("Map swallowed the task error: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pool.Map(ctx, 5, func(w *Manager, worker, task int) ([]byte, error) {
		return nil, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Map ignored a cancelled context: %v", err)
	}
}
