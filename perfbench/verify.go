package main

import (
	"fmt"
	"math"
	"sort"

	"github.com/sparsewide/iva"
	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/server"
)

// The verifier runs after the timed window. It answers a fixed sample of the
// workload's queries by brute force — one Store.Scan over the live set and
// internal/metric's exact distance — and compares the program's top-k with
// it. The store's default metric (EQU weights, L2, ndf penalty 20) is the
// one the workloads run under.

// bruteTopK answers qs by scanning every live tuple.
func (e *env) bruteTopK(qs []*model.Query) ([][]iva.Result, error) {
	met := metric.Default()
	all := make([][]iva.Result, len(qs))
	err := e.st.Scan(func(tid iva.TID, row iva.Row) bool {
		tp := e.modelTuple(tid, row)
		for i, q := range qs {
			all[i] = append(all[i], iva.Result{TID: tid, Dist: met.TupleDistance(q, tp)})
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	for i, rs := range all {
		sort.Slice(rs, func(a, b int) bool {
			if rs[a].Dist != rs[b].Dist {
				return rs[a].Dist < rs[b].Dist
			}
			return rs[a].TID < rs[b].TID
		})
		if len(rs) > qs[i].K {
			rs = rs[:qs[i].K]
		}
		all[i] = rs
	}
	return all, nil
}

func (e *env) modelTuple(tid iva.TID, row iva.Row) *model.Tuple {
	tp := model.NewTuple(model.TID(tid))
	for name, v := range row {
		id, ok := e.in.ranks[name]
		if !ok {
			continue
		}
		if v.Kind() == iva.Numeric {
			tp.Values[id] = model.Num(v.Float())
		} else {
			tp.Values[id] = model.Text(v.Texts()...)
		}
	}
	return tp
}

// checkAnswer reports how got differs from the brute-force answer, or nil.
func checkAnswer(got, want []iva.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, brute force has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.TID != w.TID || math.Abs(g.Dist-w.Dist) > 1e-9*math.Max(1, math.Abs(w.Dist)) {
			return fmt.Errorf("rank %d: got (tid %d, %.6f), brute force (tid %d, %.6f)", i, g.TID, g.Dist, w.TID, w.Dist)
		}
	}
	return nil
}

// verifySearches re-issues the sample queries through the workload's own
// path (HTTP on gbase-http, in process elsewhere) against the live set as it
// is now, and checks each answer.
func (e *env) verifySearches() error {
	mqs := make([]*model.Query, len(e.in.sample))
	for i, qi := range e.in.sample {
		mqs[i] = e.in.mq[qi]
	}
	want, err := e.bruteTopK(mqs)
	if err != nil {
		return fmt.Errorf("brute force: %w", err)
	}
	for i, qi := range e.in.sample {
		var got []iva.Result
		if e.cfg.workload.main == "http" {
			got, err = e.web.searchOnce(e.in.bodies[qi])
		} else {
			got, _, err = e.st.Search(e.in.queries[qi])
		}
		e.count(err)
		if err != nil {
			continue
		}
		e.check(fmt.Sprintf("query %d", qi), checkAnswer(got, want[i]))
	}
	return nil
}

func (e *env) check(what string, err error) {
	e.attempted++
	if err != nil {
		e.mismatches++
		e.failed++
		if len(e.notes) < 8 {
			e.notes = append(e.notes, what+": "+err.Error())
		}
	}
}

// verifyGets fetches a spread of live tuples over HTTP and compares each row
// with the generated one.
func (e *env) verifyGets() error {
	const n = 32
	for i := 0; i < n && i < len(e.live); i++ {
		tid := e.live[i*len(e.live)/n]
		got, err := e.web.getOnce(tid)
		e.count(err)
		if err != nil {
			continue
		}
		e.check(fmt.Sprintf("get %d", tid), checkRow(got, e.rowFor(tid)))
	}
	return nil
}

func checkRow(got map[string]server.GetValue, want iva.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d attributes, want %d", len(got), len(want))
	}
	for name, wv := range want {
		gv, ok := got[name]
		switch {
		case !ok:
			return fmt.Errorf("attribute %s missing", name)
		case wv.Kind() == iva.Numeric:
			if gv.Num == nil || *gv.Num != wv.Float() {
				return fmt.Errorf("attribute %s: numeric value differs", name)
			}
		default:
			a := append([]string(nil), gv.Strs...)
			b := append([]string(nil), wv.Texts()...)
			sort.Strings(a)
			sort.Strings(b)
			if fmt.Sprint(a) != fmt.Sprint(b) {
				return fmt.Errorf("attribute %s: strings %v, want %v", name, a, b)
			}
		}
	}
	return nil
}

// verifyLiveSet checks that the store's live tuples are exactly the ones
// the harness's acknowledged writes leave.
func (e *env) verifyLiveSet() error {
	seen := 0
	var stray error
	err := e.st.Scan(func(tid iva.TID, _ iva.Row) bool {
		seen++
		if int(tid) >= len(e.pos) || e.pos[tid] < 0 {
			stray = fmt.Errorf("tid %d is live in the store but was deleted", tid)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	if stray == nil && seen != len(e.live) {
		stray = fmt.Errorf("store has %d live tuples, acknowledged writes leave %d", seen, len(e.live))
	}
	e.check("live set", stray)
	return nil
}
