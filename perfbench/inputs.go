package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"github.com/sparsewide/iva"
	"github.com/sparsewide/iva/internal/dataset"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/server"
)

// Op kinds of a replayed schedule.
const (
	opSearch uint8 = iota
	opGet
	opInsert
	opDelete
	opUpdate
)

// op is one scheduled operation. r is a pre-drawn random number that picks
// the target (a query, a live tuple or an insert row) at replay time, so the
// schedule is fixed by the seed while the target follows the live set.
type op struct {
	kind uint8
	r    uint32
}

// inputs is everything a run feeds the program, generated from the seed
// before any timer starts.
type inputs struct {
	gen        *dataset.Generator
	rows       []iva.Row // base rows, loaded by setup
	rowBytes   []int64   // user payload bytes of rows[i]
	extra      []iva.Row // rows for inserts and updates
	extraByte  []int64
	ranks      map[string]model.AttrID // attribute name -> rank, the id space of mq
	warm       []*iva.Query
	warmBodies [][]byte
	queries    []*iva.Query   // timed queries, replayed in order
	mq         []*model.Query // queries in rank-id form, for the verifier and kernels
	bodies     [][]byte       // /v1/search bodies of queries
	sample     []int          // indexes into queries checked against brute force
}

const (
	numQueries   = 1536 // more than a window runs, so no query repeats
	numWarm      = 10
	numSample    = 8
	queryK       = 10   // Table I default
	queryValues  = 3    // Table I default
	numExtraRows = 1024 // insert and update rows, reused cyclically
)

func genInputs(tuples int, seed int64, short bool) (*inputs, error) {
	g := dataset.New(dataset.Config{Tuples: tuples, Seed: seed})
	in := &inputs{gen: g, ranks: make(map[string]model.AttrID, g.NumAttrsTotal())}
	for r := 0; r < g.NumAttrsTotal(); r++ {
		in.ranks[g.AttrName(r)] = model.AttrID(r)
	}
	nExtra := numExtraRows
	if short {
		nExtra = 256
	}
	in.rows, in.rowBytes = in.genRows(0, tuples)
	in.extra, in.extraByte = in.genRows(tuples, nExtra)

	ids := make([]model.AttrID, g.NumAttrsTotal())
	for r := range ids {
		ids[r] = model.AttrID(r)
	}
	mq, warm := g.Queries(dataset.QueryConfig{
		Values: queryValues, K: queryK, Count: numWarm + numQueries, Warm: numWarm, Seed: seed,
	}, ids)
	for i, q := range mq {
		pq := in.publicQuery(q)
		body, err := json.Marshal(in.searchRequest(q))
		if err != nil {
			return nil, err
		}
		if i < warm {
			in.warm = append(in.warm, pq)
			in.warmBodies = append(in.warmBodies, body)
			continue
		}
		in.queries = append(in.queries, pq)
		in.mq = append(in.mq, q)
		in.bodies = append(in.bodies, body)
	}
	step := len(in.queries) / 4 / numSample // from the prefix every window reaches
	for i := 0; i < numSample; i++ {
		in.sample = append(in.sample, i*step)
	}
	return in, nil
}

// genRows converts generator tuples [from, from+n) into public rows. The
// generator seeds each tuple by its index, so the rows are split over one
// goroutine per CPU and come out the same in any order.
func (in *inputs) genRows(from, n int) ([]iva.Row, []int64) {
	rows := make([]iva.Row, n)
	bytes := make([]int64, n)
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				rows[i], bytes[i] = in.genRow(from + i)
			}
		}(w)
	}
	wg.Wait()
	return rows, bytes
}

func (in *inputs) genRow(i int) (iva.Row, int64) {
	var bytes int64
	vals := in.gen.Values(i)
	row := make(iva.Row, len(vals))
	for rank, v := range vals {
		name := in.gen.AttrName(rank)
		if v.Kind == model.KindNumeric {
			row[name] = iva.Num(v.Num)
			bytes += 8
			continue
		}
		row[name] = iva.Strings(v.Strs...)
		for _, s := range v.Strs {
			bytes += int64(len(s))
		}
	}
	return row, bytes
}

func (in *inputs) publicQuery(q *model.Query) *iva.Query {
	pq := iva.NewQuery(q.K)
	for _, t := range q.Terms {
		name := in.gen.AttrName(int(t.Attr))
		if t.Kind == model.KindNumeric {
			pq.WhereNum(name, t.Num)
		} else {
			pq.WhereText(name, t.Str)
		}
	}
	return pq
}

func (in *inputs) searchRequest(q *model.Query) server.SearchRequest {
	req := server.SearchRequest{K: q.K}
	for _, t := range q.Terms {
		st := server.SearchTerm{Attr: in.gen.AttrName(int(t.Attr))}
		if t.Kind == model.KindNumeric {
			n := t.Num
			st.Num = &n
		} else {
			s := t.Str
			st.Text = &s
		}
		req.Terms = append(req.Terms, st)
	}
	return req
}

// churnSchedule draws n ops in the given per-kind weights (search, get,
// insert, delete, update).
func churnSchedule(seed int64, n int, weights [5]int) []op {
	rng := rand.New(rand.NewSource(seed*7_777_777 + 3))
	total := 0
	for _, w := range weights {
		total += w
	}
	ops := make([]op, n)
	for i := range ops {
		x := rng.Intn(total)
		k := 0
		for x >= weights[k] {
			x -= weights[k]
			k++
		}
		ops[i] = op{kind: uint8(k), r: rng.Uint32()}
	}
	return ops
}

// churnSecondsPerCycle is about how long one clean-rebuild cycle of the
// churn mix on a 20k-tuple base (about 910 ops) takes on a busy two-vCPU
// host, with its share of the run's set-up and probes.
const churnSecondsPerCycle = 6

// churnCycles is how many clean rebuilds gbase-churn replays for a window.
func churnCycles(seconds float64) int {
	return max(1, int(seconds/churnSecondsPerCycle))
}

// churnPrefix returns how many ops of a churn schedule gbase-churn replays:
// the prefix that ends halfway between the cycles-th clean rebuild and the
// next, as the β rule predicts them from base live tuples and no
// tombstones (a delete or update tombstones one tuple, an insert or update
// adds one, and a rebuild drops the tombstones once they reach β of all
// tuples). The rebuild count and the end state then depend on the seed
// alone, not on how fast the host gets through the schedule, and a
// prediction off by a few ops does not change the count.
func churnPrefix(ops []op, base, cycles int) (int, error) {
	entries, deleted := base, 0
	var at []int
	for i, o := range ops {
		switch o.kind {
		case opInsert:
			entries++
			continue
		case opDelete:
			deleted++
		case opUpdate:
			deleted++
			entries++
		default:
			continue
		}
		if float64(deleted)/float64(entries) < cleanBeta {
			continue
		}
		if at = append(at, i); len(at) == cycles+1 {
			return (at[cycles-1] + at[cycles]) / 2, nil
		}
		entries -= deleted
		deleted = 0
	}
	return 0, fmt.Errorf("churn schedule of %d ops holds fewer than %d clean rebuilds", len(ops), cycles+1)
}

// zipfSchedule draws n ops for a gbase-http client: getPct% point gets on
// Zipf-hot live-set ranks, the rest searches on Zipf-weighted queries. The
// query weights are (16+rank)^-1.1, so the hottest query draws 1.5% of the
// searches: a steeper head would let the cost of two or three queries, which
// the seed picks, decide the whole run.
func zipfSchedule(seed int64, n, getPct, liveN, queryN int) []op {
	rng := rand.New(rand.NewSource(seed*9_999_991 + 5))
	zt := rand.NewZipf(rng, 1.1, 1, uint64(liveN-1))
	zq := rand.NewZipf(rng, 1.1, 16, uint64(queryN-1))
	ops := make([]op, n)
	for i := range ops {
		if rng.Intn(100) < getPct {
			ops[i] = op{kind: opGet, r: uint32(zt.Uint64())}
		} else {
			ops[i] = op{kind: opSearch, r: uint32(zq.Uint64())}
		}
	}
	return ops
}
