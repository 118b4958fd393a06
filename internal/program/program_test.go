package program

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/expr"
	"repro/internal/symbolic"
)

// figure345Def builds the running example of Section III-B: three boolean
// variables v0, v1, v2; process pj reads {v0,v1} writes {v1}; process pk
// reads {v0,v2} writes {v2}.
func figure345Def() *Def {
	return &Def{
		Name: "figures-3-4-5",
		Vars: []symbolic.VarSpec{
			{Name: "v0", Domain: 2}, {Name: "v1", Domain: 2}, {Name: "v2", Domain: 2},
		},
		Processes: []*Process{
			{Name: "pj", Read: []string{"v0", "v1"}, Write: []string{"v1"}},
			{Name: "pk", Read: []string{"v0", "v2"}, Write: []string{"v2"}},
		},
		Invariant: expr.True,
	}
}

func trans(t *testing.T, s *symbolic.Space, v0, v1, v2, w0, w1, w2 int) bdd.Node {
	t.Helper()
	tr, err := s.Transition(
		map[string]int{"v0": v0, "v1": v1, "v2": v2},
		map[string]int{"v0": w0, "v1": w1, "v2": w2},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestFigure3UnrealizableWrite(t *testing.T) {
	c := figure345Def().MustCompile()
	// (000, 011): changes both v1 and v2 — no single process can do that.
	tr := trans(t, c.Space, 0, 0, 0, 0, 1, 1)
	for _, p := range c.Procs {
		if p.Realizable(tr) {
			t.Errorf("process %s should not realize (000,011)", p.Name)
		}
		if p.MaxRealizableSubset(tr) != bdd.False {
			t.Errorf("process %s max realizable subset of (000,011) should be empty", p.Name)
		}
	}
	if c.ProgramRealizable(tr) {
		t.Error("(000,011) should not be program realizable")
	}
}

func TestFigure4UnrealizableRead(t *testing.T) {
	c := figure345Def().MustCompile()
	// (000, 010): write-legal for pj but its group also contains (001,011),
	// so alone it is not realizable.
	tr := trans(t, c.Space, 0, 0, 0, 0, 1, 0)
	pj := c.Procs[0]
	if pj.Realizable(tr) {
		t.Error("pj should not realize the lone transition (000,010)")
	}
	if c.ProgramRealizable(tr) {
		t.Error("(000,010) alone should not be program realizable")
	}
	// Its group must be exactly {(000,010), (001,011)}.
	group := pj.Group(tr)
	want := c.Space.M.Or(tr, trans(t, c.Space, 0, 0, 1, 0, 1, 1))
	if group != want {
		t.Errorf("group of (000,010) = %s", c.Space.M.String(group))
	}
}

func TestFigure5RealizableGroup(t *testing.T) {
	c := figure345Def().MustCompile()
	m := c.Space.M
	tr := m.Or(trans(t, c.Space, 0, 0, 0, 0, 1, 0), trans(t, c.Space, 0, 0, 1, 0, 1, 1))
	pj, pk := c.Procs[0], c.Procs[1]
	if !pj.Realizable(tr) {
		t.Error("pj should realize the full group {(000,010),(001,011)}")
	}
	if pk.Realizable(tr) {
		t.Error("pk cannot realize transitions that write v1")
	}
	if !c.ProgramRealizable(tr) {
		t.Error("the full group should be program realizable")
	}
	if got := pj.MaxRealizableSubset(tr); got != tr {
		t.Errorf("max realizable subset should be the whole group, got %s", m.String(got))
	}
}

func TestCompileActionSemantics(t *testing.T) {
	d := figure345Def()
	// pj: if v0=0 ∧ v1=0 then v1 := 1 — exactly Figure 5's group.
	d.Processes[0].Actions = []Action{{
		Name:    "set-v1",
		Guard:   expr.And(expr.Eq("v0", 0), expr.Eq("v1", 0)),
		Updates: []Update{Set("v1", 1)},
	}}
	c := d.MustCompile()
	m := c.Space.M
	want := m.Or(trans(t, c.Space, 0, 0, 0, 0, 1, 0), trans(t, c.Space, 0, 0, 1, 0, 1, 1))
	if c.Procs[0].Trans != want {
		t.Fatalf("compiled action = %s, want Figure-5 group", m.String(c.Procs[0].Trans))
	}
	if !c.Procs[0].Realizable(c.Procs[0].Trans) {
		t.Fatal("action compiled from readable guard must be realizable")
	}
	if c.Trans != want {
		t.Fatal("program transitions should equal the single process's")
	}
}

func TestCopyAndChooseUpdates(t *testing.T) {
	d := &Def{
		Name: "updates",
		Vars: []symbolic.VarSpec{{Name: "a", Domain: 3}, {Name: "b", Domain: 3}},
		Processes: []*Process{{
			Name: "p", Read: []string{"a", "b"}, Write: []string{"a"},
			Actions: []Action{
				{Name: "copy", Guard: expr.Eq("a", 0), Updates: []Update{Copy("a", "b")}},
				{Name: "choose", Guard: expr.Eq("a", 1), Updates: []Update{Choose("a", 0, 2)}},
			},
		}},
		Invariant: expr.True,
	}
	c := d.MustCompile()
	s := c.Space
	st, _ := s.State(map[string]int{"a": 0, "b": 2})
	img := s.Image(st, c.Trans)
	want, _ := s.State(map[string]int{"a": 2, "b": 2})
	if img != want {
		t.Fatalf("copy image wrong: %s", s.M.String(img))
	}
	st2, _ := s.State(map[string]int{"a": 1, "b": 1})
	img2 := s.Image(st2, c.Trans)
	w0, _ := s.State(map[string]int{"a": 0, "b": 1})
	w2, _ := s.State(map[string]int{"a": 2, "b": 1})
	if img2 != s.M.Or(w0, w2) {
		t.Fatalf("choose image wrong: %s", s.M.String(img2))
	}
}

func TestFaultCompilationUnrestricted(t *testing.T) {
	d := figure345Def()
	// A fault may write a variable no process could: flips v0.
	d.Faults = []Action{{Name: "flip", Guard: expr.Eq("v0", 0), Updates: []Update{Set("v0", 1)}}}
	c := d.MustCompile()
	if c.Fault == bdd.False {
		t.Fatal("fault should compile to a nonempty relation")
	}
	st, _ := c.Space.State(map[string]int{"v0": 0, "v1": 1, "v2": 0})
	img := c.Space.Image(st, c.Fault)
	want, _ := c.Space.State(map[string]int{"v0": 1, "v1": 1, "v2": 0})
	if img != want {
		t.Fatalf("fault image wrong: %s", c.Space.M.String(img))
	}
}

func TestValidationErrors(t *testing.T) {
	base := func() *Def { return figure345Def() }

	cases := []struct {
		name   string
		mutate func(*Def)
	}{
		{"unknown read", func(d *Def) { d.Processes[0].Read = append(d.Processes[0].Read, "zz") }},
		{"unknown write", func(d *Def) { d.Processes[0].Write = append(d.Processes[0].Write, "zz") }},
		{"write outside read", func(d *Def) { d.Processes[0].Write = append(d.Processes[0].Write, "v2") }},
		{"guard outside read", func(d *Def) {
			d.Processes[0].Actions = []Action{{Guard: expr.Eq("v2", 0), Updates: []Update{Set("v1", 1)}}}
		}},
		{"update outside write", func(d *Def) {
			d.Processes[0].Actions = []Action{{Guard: expr.True, Updates: []Update{Set("v0", 1)}}}
		}},
		{"copy outside read", func(d *Def) {
			d.Processes[0].Actions = []Action{{Guard: expr.True, Updates: []Update{Copy("v1", "v2")}}}
		}},
		{"double assignment", func(d *Def) {
			d.Processes[0].Actions = []Action{{Guard: expr.True, Updates: []Update{Set("v1", 1), Set("v1", 0)}}}
		}},
		{"value out of domain", func(d *Def) {
			d.Processes[0].Actions = []Action{{Guard: expr.True, Updates: []Update{Set("v1", 5)}}}
		}},
		{"empty choice", func(d *Def) {
			d.Processes[0].Actions = []Action{{Guard: expr.True, Updates: []Update{Choose("v1")}}}
		}},
		{"unknown invariant var", func(d *Def) { d.Invariant = expr.Eq("zz", 0) }},
		{"unknown bad state var", func(d *Def) { d.BadStates = expr.Eq("zz", 0) }},
		{"unknown bad trans var", func(d *Def) { d.BadTrans = expr.Changed("zz") }},
		{"unknown fault update", func(d *Def) {
			d.Faults = []Action{{Guard: expr.True, Updates: []Update{Set("zz", 0)}}}
		}},
	}
	for _, tc := range cases {
		d := base()
		tc.mutate(d)
		if _, err := d.Compile(); err == nil {
			t.Errorf("%s: expected compile error", tc.name)
		}
	}
}

func TestDeadlocksAndStutter(t *testing.T) {
	d := figure345Def()
	d.Processes[0].Actions = []Action{{
		Name:    "set-v1",
		Guard:   expr.And(expr.Eq("v0", 0), expr.Eq("v1", 0)),
		Updates: []Update{Set("v1", 1)},
	}}
	c := d.MustCompile()
	s := c.Space
	m := s.M
	dl := c.Deadlocks(c.Trans)
	// Deadlocked: every state with v0=1 or v1=1 (the action is disabled).
	want := m.Diff(s.ValidCur(), m.And(s.VarByName("v0").EqConst(0), s.VarByName("v1").EqConst(0)))
	if dl != want {
		t.Fatalf("deadlocks = %s", m.String(dl))
	}
	full := c.WithStutter(c.Trans)
	if c.Deadlocks(full) != bdd.False {
		t.Fatal("WithStutter must leave no deadlocks")
	}
	// Stutter transitions map each deadlock state to itself.
	img := s.Image(dl, full)
	if img != dl {
		t.Fatalf("stutter image = %s", m.String(img))
	}
}

func TestGroupProperties(t *testing.T) {
	c := figure345Def().MustCompile()
	m := c.Space.M
	rng := rand.New(rand.NewSource(17))
	vals := func() (int, int, int) { return rng.Intn(2), rng.Intn(2), rng.Intn(2) }
	for _, p := range c.Procs {
		for iter := 0; iter < 50; iter++ {
			// Random small transition set, filtered to write-legal.
			delta := bdd.False
			for k := 0; k < 3; k++ {
				a, b, cc := vals()
				d, e, f := vals()
				delta = m.Or(delta, trans(t, c.Space, a, b, cc, d, e, f))
			}
			delta = m.And(delta, p.WriteOK)
			g := p.Group(delta)
			// Group contains its argument (write-legal part).
			if !m.Implies(delta, g) {
				t.Fatalf("%s: group does not contain delta", p.Name)
			}
			// Group is idempotent.
			if p.Group(g) != g {
				t.Fatalf("%s: group not idempotent", p.Name)
			}
			// Monotone: group of a subset is a subset of the group.
			sub := m.And(delta, trans(t, c.Space, 0, 0, 0, 0, 0, 0))
			if !m.Implies(p.Group(sub), g) {
				t.Fatalf("%s: group not monotone", p.Name)
			}
			// MaxRealizableSubset is realizable and inside delta.
			mr := p.MaxRealizableSubset(delta)
			if !m.Implies(mr, delta) {
				t.Fatalf("%s: max realizable subset escapes delta", p.Name)
			}
			if !p.Realizable(mr) {
				t.Fatalf("%s: max realizable subset not realizable", p.Name)
			}
		}
	}
}

func TestMaxRealizableSubsetIsMaximal(t *testing.T) {
	// Exhaustive check on the tiny Figure-3/4/5 space: every realizable
	// subset of delta is contained in MaxRealizableSubset(delta).
	c := figure345Def().MustCompile()
	m := c.Space.M
	pj := c.Procs[0]

	// delta: the Figure-5 group plus a lone group-incomplete transition.
	groupA := m.Or(trans(t, c.Space, 0, 0, 0, 0, 1, 0), trans(t, c.Space, 0, 0, 1, 0, 1, 1))
	lone := trans(t, c.Space, 1, 0, 0, 1, 1, 0) // group twin (101,111) missing
	delta := m.Or(groupA, lone)

	mr := pj.MaxRealizableSubset(delta)
	if mr != groupA {
		t.Fatalf("max realizable subset = %s, want the complete group only", m.String(mr))
	}
}

// TestProgramRealizableKeepsItsRelation: ProgramRealizable holds delta ∧
// ValidTrans and the running union across several public operations per
// process. A hundred identical processes of x answer from the caches and
// only push the 256-entry recent-results ring, until the relation has left
// it; the processes of y and z then allocate, so with a collection at
// every safe point an unrooted relation is freed, its slot reused, and the
// check runs on another function. Every process writes one variable: a
// transition that moves two is realizable by none of them, on a fresh
// manager and under collection alike.
func TestProgramRealizableKeepsItsRelation(t *testing.T) {
	d := &Def{Name: "one-writer-per-variable", Invariant: expr.True}
	for _, v := range []string{"x", "y", "z"} {
		d.Vars = append(d.Vars, symbolic.VarSpec{Name: v, Domain: 3})
	}
	for i := 0; i < 100; i++ {
		d.Processes = append(d.Processes, &Process{Name: fmt.Sprintf("px%d", i), Read: []string{"x"}, Write: []string{"x"}})
	}
	for _, v := range []string{"y", "z"} {
		d.Processes = append(d.Processes, &Process{Name: "p" + v, Read: []string{v}, Write: []string{v}})
	}
	for _, threshold := range []int64{0, 1} {
		c := d.MustCompile()
		m := c.Space.M
		m.SetGCThreshold(threshold)
		moves := m.Ref(m.Not(c.Space.Identity()))
		if c.ProgramRealizable(moves) {
			t.Errorf("GC threshold %d: every non-stutter transition is program-realizable, "+
				"though no process writes two variables", threshold)
		}
		m.Deref(moves)
	}
}

func TestDescribeActions(t *testing.T) {
	d := figure345Def()
	d.Processes[0].Actions = []Action{{
		Name:    "set-v1",
		Guard:   expr.And(expr.Eq("v0", 0), expr.Eq("v1", 0)),
		Updates: []Update{Set("v1", 1)},
	}}
	c := d.MustCompile()
	pj := c.Procs[0]
	lines := pj.DescribeActions(pj.Trans, 8)
	if len(lines) != 1 {
		t.Fatalf("lines = %q", lines)
	}
	want := "when v0=0 ∧ v1=0 → v1:=1"
	if lines[0] != want {
		t.Fatalf("line = %q, want %q", lines[0], want)
	}
	// Truncation marker.
	all := pj.DescribeActions(pj.WriteOK, 1)
	if len(all) == 0 || all[len(all)-1] != "…" {
		t.Fatalf("expected truncation marker, got %q", all)
	}
}

func TestProcPartsAndPartsWithFaults(t *testing.T) {
	d := figure345Def()
	d.Faults = []Action{{Guard: expr.Eq("v0", 0), Updates: []Update{Set("v0", 1)}}}
	c := d.MustCompile()
	parts := c.ProcParts(bdd.True)
	if len(parts) != 2 {
		t.Fatalf("ProcParts = %d entries", len(parts))
	}
	withF := c.PartsWithFaults(bdd.True)
	if len(withF) != 3 {
		t.Fatalf("PartsWithFaults = %d entries", len(withF))
	}
	if withF[2] != c.FaultParts[0] {
		t.Fatal("fault partition missing")
	}
}

// TestParseMode pins the one engine mode: "" and "partitioned" select it,
// and every other mode, the removed "shared" included, is an error that
// names the mode, so a caller still setting repair.Options.Mode learns of the
// removal instead of silently running partitioned.
func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in string
		ok bool
	}{
		{"", true},
		{"partitioned", true},
		{"shared", false},
		{"threads", false},
		{"Partitioned", false},
	} {
		mode, err := ParseMode(tc.in)
		if tc.ok {
			if err != nil || mode != ModePartitioned {
				t.Errorf("ParseMode(%q) = %q, %v; want %q", tc.in, mode, err, ModePartitioned)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.in)) {
			t.Errorf("ParseMode(%q) error = %v; want an error naming %q", tc.in, err, tc.in)
		}
	}
}
