package main

import (
	"sync"
	"time"

	"github.com/sparsewide/iva"
)

const (
	setupReps   = 2   // setup_s is the median of this many setups
	syncEvery   = 100 // writes between Syncs, on every workload
	probeWrites = 2000
	probeGets   = 10000
	opsPerSec   = 20000 // schedule and sample-buffer capacity per second of window
	cleanBeta   = 0.02  // the store's clean threshold β, set explicitly for churnPrefix
)

// env is one run: the store under test, the live set the harness tracks
// alongside it, and the accumulated measurements.
type env struct {
	cfg config
	in  *inputs
	st  *iva.Store
	m   *meter
	tr  *recorder // the traced run's recorder, nil when untraced
	rec *recorder // tr while the current phase is traced, else nil
	acc layerAcc
	web *web

	live        []iva.TID
	pos         []int32 // tid -> index in live, -1 when not live
	rowOf       []int32 // tid -> base row i >= 0, or extra row -(j+1)
	livePayload int64
	nextExtra   int
	perOpIO     bool // bracket single ops with Stats() (traced, one client)
	loadRows    int64
	loadT       time.Duration

	setupRebuilds int64 // Stats().Rebuilds when setup ended

	attempted, failed, mismatches int64
	notes                         []string
}

// layerAcc accumulates per-layer counters from the cost records the public
// API returns. It is shared by the in-process client and the HTTP backend.
type layerAcc struct {
	mu sync.Mutex
	layerCounts
}

type layerCounts struct {
	searches, results            int64
	filter, refine, merge, wall  time.Duration
	scanned, fetches, hits, phys int64
	zoneChecked, zonePruned      int64
	randReads                    int64
	writeN                       [3]int64 // insert, delete, update
	writeT                       [3]time.Duration
	syncs                        int64
	syncT                        time.Duration
	rebuilds                     int64
	rebuildT                     time.Duration
	physWrites, writes           int64
	shed, httpRequests           int64
	kernels                      map[string]kernelResult
}

func (a *layerAcc) addSearch(qs iva.QueryStats, results int, wall time.Duration) {
	a.mu.Lock()
	a.searches++
	a.results += int64(results)
	a.wall += wall
	a.scanned += qs.Scanned
	a.fetches += qs.TableAccesses
	a.hits += qs.CacheHits
	a.phys += qs.PhysReads
	if p := qs.Phase; p != nil {
		a.filter += p.FilterTime
		a.refine += p.RefineTime
		a.merge += p.MergeTime
		a.zoneChecked += int64(p.StripesZoneChecked)
		a.zonePruned += int64(p.StripesZonePruned)
	}
	a.mu.Unlock()
}

func (a *layerAcc) reset() {
	a.mu.Lock()
	a.layerCounts = layerCounts{}
	a.mu.Unlock()
}

func (e *env) storeOptions() iva.Options {
	return iva.Options{SearchParallelism: 1, CacheBytes: e.cfg.workload.cacheBytes, CleanThreshold: cleanBeta}
}

// setup creates a store and bulk-loads the base rows: the setup_s interval.
func (e *env) setup(dir string) (*iva.Store, []iva.TID, time.Duration, time.Duration, error) {
	sp := e.tr.begin(spSetup, -1, -1)
	defer e.tr.end(sp)
	t0 := time.Now()
	st, err := iva.Create(dir, e.storeOptions())
	if err != nil {
		return nil, nil, 0, 0, err
	}
	t1 := time.Now()
	tids, err := st.InsertBatch(e.in.rows)
	load := time.Since(t1)
	if err == nil {
		err = st.Sync()
	}
	if err != nil {
		st.Close()
		return nil, nil, 0, 0, err
	}
	return st, tids, time.Since(t0), load, nil
}

// phase holds what one timed window measured.
type phase struct {
	search, write, get *latencies
	perOp              cost // bracketed around each search (one client)
	window             cost // whole-window deltas
	wall               time.Duration
	syncT              time.Duration // Syncs the write policy issued
	searches, writes   int64
	ops                int64
	exhausted          bool
}

func newPhase(capacity int) *phase {
	return &phase{search: newLatencies(capacity), write: newLatencies(capacity), get: newLatencies(capacity)}
}

func (e *env) sizes() (capacity int) {
	return int(e.cfg.seconds*opsPerSec) + 1024
}

func (e *env) count(err error) {
	e.attempted++
	if err != nil {
		e.failed++
		if len(e.notes) < 8 {
			e.notes = append(e.notes, err.Error())
		}
	}
}

// search runs one in-process search and returns its client-observed latency.
func (e *env) search(q *iva.Query, opID int64) (time.Duration, error) {
	var rr int64
	if e.perOpIO {
		rr = e.st.Stats().IO.RandReads
	}
	sp := e.rec.begin(spSearch, -1, opID)
	t := time.Now()
	res, qs, err := e.st.Search(q)
	d := time.Since(t)
	e.rec.end(sp)
	if err != nil {
		return d, err
	}
	e.acc.addSearch(qs, len(res), d)
	if e.perOpIO {
		rr = e.st.Stats().IO.RandReads - rr
		e.acc.mu.Lock()
		e.acc.randReads += rr
		e.acc.mu.Unlock()
	}
	return d, nil
}

// write runs one scheduled write, plus the Sync that follows every
// syncEvery-th write, and returns the time spent in each. The write's time
// includes any rebuild the call triggers.
func (e *env) write(o op, opID int64, sinceSync *int) (time.Duration, time.Duration, error) {
	var before iva.StoreStats
	if e.rec != nil {
		before = e.st.Stats()
	}
	var (
		err  error
		kind int
	)
	sp := int32(-1)
	t := time.Now()
	switch o.kind {
	case opInsert:
		j := e.nextExtra % len(e.in.extra)
		e.nextExtra++
		sp = e.rec.begin(spInsert, -1, opID)
		var tid iva.TID
		if tid, err = e.st.Insert(e.in.extra[j]); err == nil {
			e.addLive(tid, int32(-(j + 1)))
		}
	case opDelete:
		kind = 1
		tid := e.live[int(o.r)%len(e.live)]
		sp = e.rec.begin(spDelete, -1, opID)
		if err = e.st.Delete(tid); err == nil {
			e.removeLive(tid)
		}
	case opUpdate:
		kind = 2
		tid := e.live[int(o.r)%len(e.live)]
		j := e.nextExtra % len(e.in.extra)
		e.nextExtra++
		sp = e.rec.begin(spUpdate, -1, opID)
		var nt iva.TID
		if nt, err = e.st.Update(tid, e.in.extra[j]); err == nil {
			e.removeLive(tid)
			e.addLive(nt, int32(-(j + 1)))
		}
	}
	d := time.Since(t)
	e.rec.end(sp)
	var syncD time.Duration
	if *sinceSync++; *sinceSync >= syncEvery && err == nil {
		*sinceSync = 0
		ssp := e.rec.begin(spSync, -1, opID)
		ts := time.Now()
		err = e.st.Sync()
		syncD = time.Since(ts)
		e.rec.end(ssp)
	}
	if e.rec != nil {
		after := e.st.Stats()
		a := &e.acc
		a.mu.Lock()
		a.writeN[kind]++
		a.writeT[kind] += d
		a.writes++
		a.physWrites += after.IO.PhysWrites - before.IO.PhysWrites
		if syncD > 0 {
			a.syncs++
			a.syncT += syncD
		}
		if after.Rebuilds > before.Rebuilds {
			a.rebuilds += after.Rebuilds - before.Rebuilds
			a.rebuildT += d
		}
		a.mu.Unlock()
	}
	return d, syncD, err
}

// allocLive sizes the live-set arrays for the base rows and every tuple id
// the window can add.
func (e *env) allocLive(tuples int) {
	n := 2 * (tuples + e.sizes())
	e.live = make([]iva.TID, 0, n)
	e.pos = make([]int32, n)
	e.rowOf = make([]int32, n)
}

// initLive makes the live set the given base tuples. It reuses the arrays
// allocLive made.
func (e *env) initLive(tids []iva.TID) {
	e.live = e.live[:0]
	for i := range e.pos {
		e.pos[i] = -1
	}
	e.livePayload = 0
	for i, tid := range tids {
		e.addLive(tid, int32(i))
	}
}

func (e *env) addLive(tid iva.TID, row int32) {
	for int(tid) >= len(e.pos) { // rare: ids outran the preallocated index
		e.pos = append(e.pos, -1)
		e.rowOf = append(e.rowOf, 0)
	}
	e.pos[tid] = int32(len(e.live))
	e.rowOf[tid] = row
	e.live = append(e.live, tid)
	e.livePayload += e.payload(row)
}

func (e *env) removeLive(tid iva.TID) {
	i := e.pos[tid]
	last := e.live[len(e.live)-1]
	e.live[i] = last
	e.pos[last] = i
	e.live = e.live[:len(e.live)-1]
	e.pos[tid] = -1
	e.livePayload -= e.payload(e.rowOf[tid])
}

func (e *env) payload(row int32) int64 {
	if row >= 0 {
		return e.in.rowBytes[row]
	}
	return e.in.extraByte[-row-1]
}

func (e *env) rowFor(tid iva.TID) iva.Row {
	r := e.rowOf[tid]
	if r >= 0 {
		return e.in.rows[r]
	}
	return e.in.extra[-r-1]
}

// laps records the wall time of each phase of a run, for the detail line.
type laps struct {
	last time.Time
	list []lap
}

type lap struct {
	Phase   string  `json:"phase"`
	Seconds float64 `json:"s"`
}

func newLaps() *laps { return &laps{last: time.Now()} }

func (l *laps) mark(phase string) {
	now := time.Now()
	l.list = append(l.list, lap{phase, now.Sub(l.last).Seconds()})
	l.last = now
}
