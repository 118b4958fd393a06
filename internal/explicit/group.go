package explicit

import (
	"sort"

	"repro/internal/program"
)

// This file implements the read-restriction group computation and the
// literal Algorithm 2 of the paper, transition by transition, including the
// ExpandGroup optimization.

// readIdx returns the indices of the variables process j reads / writes.
func (sys *System) readIdx(p *program.CompiledProc) (read, unread []int) {
	for i, v := range sys.C.Space.Vars {
		if p.Read[v.Name] {
			read = append(read, i)
		} else {
			unread = append(unread, i)
		}
	}
	return read, unread
}

// WriteLegal reports whether t changes only variables process p may write.
func (sys *System) WriteLegal(p *program.CompiledProc, t Trans) bool {
	from, to := sys.Values(t.From), sys.Values(t.To)
	for i, v := range sys.C.Space.Vars {
		if from[i] != to[i] && !p.Write[v.Name] {
			return false
		}
	}
	return true
}

// Group returns group_j(t): every transition agreeing with t on process p's
// readable variables (both before and after) and leaving each unreadable
// variable unchanged (Section III-B). t must be write-legal for p.
func (sys *System) Group(p *program.CompiledProc, t Trans) []Trans {
	_, unread := sys.readIdx(p)
	from, to := sys.Values(t.From), sys.Values(t.To)
	out := []Trans{}
	var rec func(k int)
	rec = func(k int) {
		if k == len(unread) {
			f := append([]int(nil), from...)
			g := append([]int(nil), to...)
			out = append(out, Trans{sys.Encode(f), sys.Encode(g)})
			return
		}
		i := unread[k]
		for val := 0; val < sys.radix[i]; val++ {
			from[i], to[i] = val, val
			rec(k + 1)
		}
		from[i], to[i] = sys.Values(t.From)[i], sys.Values(t.To)[i]
	}
	rec(0)
	sort.Slice(out, func(a, b int) bool {
		if out[a].From != out[b].From {
			return out[a].From < out[b].From
		}
		return out[a].To < out[b].To
	})
	return out
}

// ExpandGroup enlarges a group by dropping variable varIdx (readable but not
// written) from the readable condition: for every value c of the variable,
// the group members with the variable fixed at c before and after the
// transition, updates unchanged (Section V-B's ExpandGroup).
func (sys *System) ExpandGroup(varIdx int, group []Trans) []Trans {
	seen := make(map[Trans]bool, len(group)*sys.radix[varIdx])
	var out []Trans
	for _, t := range group {
		from, to := sys.Values(t.From), sys.Values(t.To)
		if from[varIdx] != to[varIdx] {
			// The variable is written by this group; it cannot be dropped.
			return append([]Trans(nil), group...)
		}
		for val := 0; val < sys.radix[varIdx]; val++ {
			f := append([]int(nil), from...)
			g := append([]int(nil), to...)
			f[varIdx], g[varIdx] = val, val
			tt := Trans{sys.Encode(f), sys.Encode(g)}
			if !seen[tt] {
				seen[tt] = true
				out = append(out, tt)
			}
		}
	}
	return out
}

// RealizeStats reports the work done by the literal Algorithm 2.
type RealizeStats struct {
	// Iterations counts executions of the pick-a-transition loop body
	// (Lines 8–21).
	Iterations int
	// GroupsKept and GroupsDropped count the two outcomes of Line 10.
	GroupsKept, GroupsDropped int
	// Expansions counts successful ExpandGroup applications (Line 15-16).
	Expansions int
}

// Realize runs the paper's Algorithm 2 literally: starting from the
// intermediate program delta and fault-span span (a state set), it adds
// every transition from outside the span (Line 1), then for each process
// repeatedly picks a remaining write-legal transition, keeps its group if
// complete (after trying to expand it), or discards the group (Lines 3–24).
// useExpand toggles the ExpandGroup optimization so its effect on iteration
// count can be measured (experiment E7).
func (sys *System) Realize(delta map[Trans]bool, span map[State]bool, useExpand bool) (map[Trans]bool, RealizeStats) {
	var stats RealizeStats

	// Line 1: δ := δ ∪ {(s0,s1) | s0 ∉ T}.
	d := make(map[Trans]bool, len(delta))
	for t := range delta {
		d[t] = true
	}
	for s := 0; s < sys.NumStates; s++ {
		if span[State(s)] {
			continue
		}
		for to := 0; to < sys.NumStates; to++ {
			d[Trans{State(s), State(to)}] = true
		}
	}

	result := make(map[Trans]bool) // δ_P'
	for _, p := range sys.C.Procs {
		// Line 4–5: Δ_j := write-legal subset of δ.
		deltaJ := make(map[Trans]bool)
		for t := range d {
			if sys.WriteLegal(p, t) {
				deltaJ[t] = true
			}
		}
		procTrans := make(map[Trans]bool) // δ_j
		// Deterministic iteration: process transitions in sorted order.
		order := sortedTrans(deltaJ)
		for _, t := range order {
			if !deltaJ[t] {
				continue // already removed or absorbed into a kept group
			}
			stats.Iterations++
			group := sys.Group(p, t)
			complete := true
			for _, g := range group {
				if !deltaJ[g] {
					complete = false
					break
				}
			}
			if !complete {
				// Line 11: remove the whole group from Δ_j.
				stats.GroupsDropped++
				for _, g := range group {
					delete(deltaJ, g)
				}
				continue
			}
			// Lines 13–18: try to expand over each readable non-written var.
			if useExpand {
				read, _ := sys.readIdx(p)
				for _, vi := range read {
					if p.Write[sys.C.Space.Vars[vi].Name] {
						continue
					}
					bigger := sys.ExpandGroup(vi, group)
					if len(bigger) == len(group) {
						continue
					}
					ok := true
					for _, g := range bigger {
						if !deltaJ[g] {
							ok = false
							break
						}
					}
					if ok {
						group = bigger
						stats.Expansions++
					}
				}
			}
			// Lines 19–20.
			stats.GroupsKept++
			for _, g := range group {
				procTrans[g] = true
				delete(deltaJ, g)
			}
		}
		for t := range procTrans {
			result[t] = true
		}
	}
	return result, stats
}

func sortedTrans(set map[Trans]bool) []Trans {
	out := make([]Trans, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].From != out[b].From {
			return out[a].From < out[b].From
		}
		return out[a].To < out[b].To
	})
	return out
}
