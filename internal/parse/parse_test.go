package parse

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/program"
	"repro/internal/repair"
	"repro/internal/verify"
)

const trafficModel = `
# A pedestrian light with a glitching lamp.
program traffic

var light : 0..2
var btn   : bool

process controller
  read  light btn
  write light
  action go   : light = 0 & btn = 1 -> light := 1
  action stop : light = 1           -> light := 0

fault glitch : light < 2 -> light := 2
fault press  : true      -> btn := 0 | 1

invariant light < 2
badtrans  changed(btn) & unchanged(light) & btn' = 1 & false
`

func TestParseTraffic(t *testing.T) {
	def, err := Program(trafficModel)
	if err != nil {
		t.Fatal(err)
	}
	if def.Name != "traffic" {
		t.Fatalf("name = %q", def.Name)
	}
	if len(def.Vars) != 2 || def.Vars[0].Domain != 3 || def.Vars[1].Domain != 2 {
		t.Fatalf("vars = %+v", def.Vars)
	}
	if len(def.Processes) != 1 || len(def.Processes[0].Actions) != 2 {
		t.Fatalf("processes = %+v", def.Processes)
	}
	if len(def.Faults) != 2 {
		t.Fatalf("faults = %+v", def.Faults)
	}
	c, err := def.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// The parsed model repairs and verifies: the controller must reset the
	// glitched lamp.
	res, err := repair.LazyEngine(context.Background(), program.NewEngine(c, 0), repair.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := verify.Result(context.Background(), program.SerialEngine(c), res, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("verification failed:\n%s", rep)
	}
	reset, _ := c.Space.Transition(
		map[string]int{"light": 2, "btn": 0},
		map[string]int{"light": 0, "btn": 0})
	alt, _ := c.Space.Transition(
		map[string]int{"light": 2, "btn": 0},
		map[string]int{"light": 1, "btn": 0})
	if !c.Space.M.Implies(reset, res.Trans) && !c.Space.M.Implies(alt, res.Trans) {
		t.Fatal("no recovery for the glitched lamp")
	}
}

const chainModel = `
program minichain
var fc  : bool
var x.0 : 0..2
var x.1 : 0..2
var x.2 : 0..2

process p1
  read  x.0 x.1
  write x.1
process p2
  read  x.1 x.2
  write x.2

fault hit0a : fc = 0 -> x.0 := 0 | 1 | 2, fc := 1
fault hit0b : fc = 1 -> x.0 := 0 | 1 | 2, fc := 0
fault hit1a : fc = 0 -> x.1 := 0 | 1 | 2, fc := 1
fault hit1b : fc = 1 -> x.1 := 0 | 1 | 2, fc := 0
fault hit2a : fc = 0 -> x.2 := 0 | 1 | 2, fc := 1
fault hit2b : fc = 1 -> x.2 := 0 | 1 | 2, fc := 0

invariant x.1 = x.0
invariant x.2 = x.1
badtrans  unchanged(fc) & changed(x.1) & !(x.1' = x.0)
badtrans  unchanged(fc) & changed(x.2) & !(x.2' = x.1)
`

func TestParseChainEquivalentToGenerator(t *testing.T) {
	def, err := Program(chainModel)
	if err != nil {
		t.Fatal(err)
	}
	c := def.MustCompile()
	res, err := repair.LazyEngine(context.Background(), program.NewEngine(c, 0), repair.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := verify.Result(context.Background(), program.SerialEngine(c), res, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("verification failed:\n%s", rep)
	}
	// Dotted variable names survive the round trip.
	if c.Space.VarByName("x.1") == nil {
		t.Fatal("dotted variable name lost")
	}
	// The copy-left protocol is synthesized.
	tr, _ := c.Space.Transition(
		map[string]int{"fc": 0, "x.0": 1, "x.1": 2, "x.2": 2},
		map[string]int{"fc": 0, "x.0": 1, "x.1": 1, "x.2": 2})
	if !c.Space.M.Implies(tr, res.Trans) {
		t.Fatal("copy-left recovery missing from parsed model's repair")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  string
	}{
		{"no program", "var x : bool\n", "must start"},
		{"bad range", "program p\nvar x : 1..3\n", "start at 0"},
		{"tiny domain", "program p\nvar x : 0..0\n", "at least two"},
		{"redeclared", "program p\nvar x : bool\nvar x : bool\n", "redeclared"},
		{"undeclared in guard", "program p\nvar x : bool\nfault f : y = 1 -> x := 0\n", "undeclared"},
		{"undeclared target", "program p\nvar x : bool\nfault f : true -> y := 0\n", "undeclared"},
		{"no read", "program p\nvar x : bool\nprocess q\n  write x\n", "no read clause"},
		{"missing arrow", "program p\nvar x : bool\nfault f : true x := 0\n", "expected"},
		{"primed lt", "program p\nvar x : 0..2\nfault f : true -> x := 0\nbadtrans x' < 1\n", "not supported"},
		{"stray char", "program p\nvar x : bool @\n", "unexpected character"},
		{"bad atom", "program p\nvar x : bool\ninvariant & x = 1\n", "atom"},
		{"unknown decl", "program p\nfrobnicate\n", "unknown declaration"},
		{"unclosed guard", "program p\nvar x : bool\nfault f : (x = 1 & x = 0 -> x := 0\n", "expected \")\""},
		{"duplicate process", "program p\nvar x : bool\nprocess q\n  read x\nprocess q\n  read x\n", "redeclared"},
		{"undeclared in read", "program p\nvar x : bool\nprocess q\n  read y\n  write x\n", "undeclared"},
		{"undeclared in write", "program p\nvar x : bool\nprocess q\n  read x\n  write y\n", "undeclared"},
		{"truncated comparison", "program p\nvar x : bool\ninvariant x =", "expected"},
		{"empty file", "", "must start"},
		{"zero cost", "program p\nvar x : bool\nprocess q\n  read x\n  write x\n  action a : x = 0 -> x := 1 cost 0\n", "out of range"},
		{"overflowing cost", "program p\nvar x : bool\nprocess q\n  read x\n  write x\n  action a : x = 0 -> x := 1 cost 99999999999999999999\n", "bad number"},
		{"over-cap cost", "program p\nvar x : bool\nprocess q\n  read x\n  write x\n  action a : x = 0 -> x := 1 cost 1073741825\n", "out of range"},
		{"negative cost", "program p\nvar x : bool\ncost -2 : x = 1\n", "unexpected character"},
		{"fault cost", "program p\nvar x : bool\nfault f : true -> x := 0 cost 3\n", "cannot carry a cost"},
		{"rule cost missing colon", "program p\nvar x : bool\ncost 2 x = 1\n", "expected"},
	}
	for _, tc := range cases {
		_, err := Program(tc.input)
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestParseCosts pins the cost-annotation grammar: a trailing `cost N`
// clause on program actions and top-level `cost N : expr` rules, with
// unannotated actions carrying the zero value (priced at the default by the
// weight layer, not the parser).
func TestParseCosts(t *testing.T) {
	src := `
program priced
var x : 0..2

process p
  read  x
  write x
  action up   : x = 0 -> x := 1 cost 3
  action down : x = 1 -> x := 0

cost 5 : changed(x)
cost 2 : x = 2
`
	def, err := Program(src)
	if err != nil {
		t.Fatal(err)
	}
	acts := def.Processes[0].Actions
	if acts[0].Cost != 3 {
		t.Fatalf("annotated action cost = %d, want 3", acts[0].Cost)
	}
	if acts[1].Cost != 0 {
		t.Fatalf("unannotated action cost = %d, want 0", acts[1].Cost)
	}
	if len(def.CostRules) != 2 || def.CostRules[0].Cost != 5 || def.CostRules[1].Cost != 2 {
		t.Fatalf("cost rules = %+v", def.CostRules)
	}
	if got := def.CostRules[0].Pred.String(); !strings.Contains(got, "changed") {
		t.Fatalf("rule predicate = %q, want a changed() form", got)
	}
	if _, err := def.Compile(); err != nil {
		t.Fatalf("costed model fails to compile: %v", err)
	}
}

func TestParseExpressionForms(t *testing.T) {
	src := `
program forms
var a : 0..3
var b : 0..3

process p
  read  a b
  write a
  action t : (a = 0 | a = 1) & !(b < 2) & a != 3 & a = b & a != b -> a := b

invariant true
badstate  false
badtrans  changed(a) & a' = 2
badtrans  a' = b & unchanged(b)
`
	def, err := Program(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := def.Compile(); err != nil {
		t.Fatal(err)
	}
}

func TestParsedMatchesHandBuilt(t *testing.T) {
	// The same model written in text and in Go must compile to identical
	// transition relations.
	def, err := Program(trafficModel)
	if err != nil {
		t.Fatal(err)
	}
	c := def.MustCompile()
	if c.Trans == bdd.False || c.Fault == bdd.False {
		t.Fatal("parsed model compiled to empty relations")
	}
	// go action: light=0 ∧ btn=1 → light:=1: exactly 1 transition.
	goTr, _ := c.Space.Transition(
		map[string]int{"light": 0, "btn": 1},
		map[string]int{"light": 1, "btn": 1})
	if !c.Space.M.Implies(goTr, c.Trans) {
		t.Fatal("parsed 'go' action missing")
	}
	if got := c.Space.CountTransitions(c.Trans); got != 3 { // go + stop(btn=0,1)
		t.Fatalf("transitions = %v, want 3", got)
	}
}
