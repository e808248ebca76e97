package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// slices is how many parts the timed window is cut into. A block of each
// probe runs after every part, so a probe samples the whole run rather than
// one moment of a shared host, and a forced GC before the blocks starts
// them from the same heap state.
const slices = 16

type report struct {
	result result
	detail map[string]any
}

// run executes one benchmark run and assembles its report.
func run(cfg config) (*report, error) {
	w := cfg.workload
	tuples := w.tuples
	if cfg.short {
		tuples /= 10
	}
	laps := newLaps()
	in, err := genInputs(tuples, cfg.seed, cfg.short)
	if err != nil {
		return nil, err
	}
	e := &env{cfg: cfg, in: in, m: newMeter()}
	if cfg.trace {
		e.tr = newRecorder(1 << 18)
	}
	laps.mark("inputs")

	// The live-set arrays are the harness's largest buffers. Allocated
	// before the baseline, they stay out of heap_live_mb, which is then the
	// store's own heap and does not change with --seconds.
	e.allocLive(tuples)
	baseHeap := heapLive()
	var setups []float64
	for i := 0; i < setupReps; i++ {
		dir := ""
		if w.onDisk {
			dir = filepath.Join(cfg.workDir, fmt.Sprintf("store%d", i))
		}
		st, tids, d, load, err := e.setup(dir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		e.loadRows += int64(len(tids))
		e.loadT += load
		if i < setupReps-1 {
			if err := st.Close(); err != nil {
				return nil, err
			}
			if dir != "" {
				os.RemoveAll(dir)
			}
			continue
		}
		e.st = st
		e.initLive(tids)
	}
	defer e.st.Close()
	heapMB := float64(int64(heapLive())-int64(baseHeap)) / (1 << 20)
	e.setupRebuilds = e.st.Stats().Rebuilds
	laps.mark("setup")

	if e.web, err = startWeb(e); err != nil {
		return nil, err
	}
	defer e.web.stop()
	// Untimed warm-up queries first (§V: the leading queries warm the cache).
	for i, q := range in.warm {
		var err error
		if w.main == "http" {
			_, err = e.web.searchOnce(in.warmBodies[i])
		} else {
			_, _, err = e.st.Search(q)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	laps.mark("warm")

	// The workload's own traffic runs for the window, except on gbase-churn,
	// which replays a seed-fixed prefix of its schedule (see churnPrefix) in
	// equal blocks. The op classes a workload lacks are measured by
	// fixed-size probes: in-process Store.Get where it has no gets, and
	// inserts, with the same Sync policy, where it has no writes. The probes
	// leave out deletes so that no clean rebuild lands in them: how many
	// would depends on the seed, and one rebuild outweighs a thousand
	// inserts.
	n := e.sizes()
	mainP := newPhase(n)
	dur := time.Duration(cfg.seconds * float64(time.Second))
	var step func(slice int)
	switch w.main {
	case "churn":
		ops := churnSchedule(cfg.seed, n, [5]int{20, 0, 35, 30, 15})
		k, err := churnPrefix(ops, len(e.live), churnCycles(cfg.seconds))
		if err != nil {
			return nil, err
		}
		d := e.newReplayer(ops[:k], mainP)
		step = func(s int) { d.run(0, (s+1)*k/slices) }
	case "http":
		h := e.web.newMix(mainP, n)
		defer h.close()
		step = func(int) { h.run(dur / slices) }
	default:
		ops := make([]op, n)
		for i := range ops {
			ops[i] = op{kind: opSearch}
		}
		d := e.newReplayer(ops, mainP)
		step = func(int) { d.run(dur/slices, n) }
	}
	var probes []*replayer
	getsP, writesP := mainP, mainP
	if w.main != "http" {
		k := e.probeSize(probeGets)
		getsP = newPhase(k)
		probes = append(probes, e.newReplayer(zipfSchedule(cfg.seed+2, k, 100, len(e.live), len(in.queries)), getsP))
	}
	if w.main != "churn" {
		k := e.probeSize(probeWrites)
		writesP = newPhase(k)
		probes = append(probes, e.newReplayer(churnSchedule(cfg.seed+1, k, [5]int{0, 0, 1, 0, 0}), writesP))
	}

	// A traced run runs the first half of the slices untraced and the
	// second traced; the two halves' mean search latencies give the tracing
	// overhead, and the per-layer counters come from the traced half.
	var half struct {
		searches int
		window   cost
	}
	// Searches per second of each slice, for the detail line: it shows
	// whether the host's speed moved within the run.
	sliceQPS := make([]float64, 0, slices)
	for s := 0; s < slices; s++ {
		if cfg.trace && s == slices/2 {
			half.searches, half.window = len(mainP.search.d), mainP.window
			e.acc.reset()
			e.setTracing(true)
		}
		if s == 0 {
			runtime.GC()
		}
		n0, w0 := mainP.searches, mainP.wall
		step(s)
		sliceQPS = append(sliceQPS, ratio(float64(mainP.searches-n0), (mainP.wall-w0).Seconds()))
		if len(probes) > 0 {
			runtime.GC()
		}
		for _, p := range probes {
			p.run(0, (s+1)*len(p.ops)/slices)
		}
	}
	e.setTracing(false)
	laps.mark("window")

	if err := e.verifySearches(); err != nil {
		return nil, err
	}
	if err := e.verifyGets(); err != nil {
		return nil, err
	}
	if err := e.verifyLiveSet(); err != nil {
		return nil, err
	}
	laps.mark("verify")
	ss := e.st.Stats()

	rep := &report{detail: map[string]any{
		"workload": w.name, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"host": hostFacts(), "why": w.why,
	}}
	var untracedMean float64
	if cfg.trace {
		untracedMean = (&latencies{d: mainP.search.d[:half.searches]}).summarize().Mean
		mainP.search.d = mainP.search.d[half.searches:]
		mainP.window.sub(half.window)
		mainP.searches = int64(len(mainP.search.d))
	}
	searchSum := mainP.search.summarize()
	writeSum := writesP.write.summarize()
	getSum := getsP.get.summarize()
	rep.detail["slice_qps"] = sliceQPS
	rep.detail["samples"] = map[string]any{"search": searchSum, "write": writeSum, "get": getSum, "setup_s": setups}
	rep.detail["rebuilds_total"] = ss.Rebuilds
	rep.detail["rebuilds_window"] = ss.Rebuilds - e.setupRebuilds
	rep.detail["tuples_live"] = ss.Tuples
	if mainP.exhausted {
		e.notes = append(e.notes, "op schedule ran out before the window ended")
	}
	rep.detail["notes"] = e.notes
	rep.detail["failed_op_ratio"] = ratio(float64(e.failed), float64(e.attempted))

	metrics := map[string]float64{}
	if !cfg.trace {
		// One client brackets each search with CPU and allocation readings.
		// gbase-http runs two clients at once, so it charges the whole
		// window, client and server, to its searches (CPU) and requests
		// (allocation).
		cpu, alloc, allocBase := mainP.perOp, mainP.perOp, float64(mainP.searches)
		if w.main == "http" {
			cpu, alloc, allocBase = mainP.window, mainP.window, float64(mainP.ops)
		}
		metrics["setup_s"] = median(setups)
		metrics["query_p50_ms"] = searchSum.Median
		metrics["query_p99_ms"] = searchSum.Tail
		metrics["query_qps"] = float64(mainP.searches) / mainP.wall.Seconds()
		metrics["query_cpu_ms"] = ratio(float64(cpu.cpu)/1e6, float64(mainP.searches))
		metrics["alloc_kb_per_query"] = ratio(float64(alloc.alloc)/1024, allocBase)
		metrics["heap_live_mb"] = heapMB
		metrics["write_p50_ms"] = writeSum.Median
		metrics["write_ops_per_s"] = float64(writesP.writes) / (writesP.write.sum() + writesP.syncT).Seconds()
		metrics["get_p50_ms"] = getSum.Median
		metrics["get_p99_ms"] = getSum.P99
		metrics["bytes_per_user_byte"] = float64(ss.TableBytes+ss.IndexBytes) / float64(e.livePayload)
	} else {
		if err := e.runKernels(); err != nil {
			return nil, err
		}
		e.layerMetrics(metrics)
		metrics["runtime.gc_per_1k_queries"] = ratio(1000*float64(mainP.window.gcs), float64(mainP.searches))
		metrics["trace.overhead_ratio"] = ratio(searchSum.Mean, untracedMean)
		if err := e.tr.write(cfg.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		rep.detail["spans_file"] = cfg.spans
		rep.detail["spans_lost"] = e.tr.lost
		rep.detail["kernels"] = e.acc.kernels
		rep.detail["search_span_ms"] = ratio(float64(e.acc.wall)/1e6, float64(e.acc.searches))
		rep.detail["layer_map"] = layerMap()
	}
	rep.result = result{
		Correct:   e.mismatches == 0 && e.failed == 0,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics:   map[string]metricValue{},
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		rep.result.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	laps.mark("report")
	rep.detail["phase_s"] = laps.list
	return rep, nil
}

func layerMap() map[string]string {
	m := make(map[string]string, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = d.moves
	}
	return m
}

func (e *env) probeSize(n int) int {
	if e.cfg.short {
		return n / 10
	}
	return n
}

// setTracing installs the run's recorder for the phases that follow.
func (e *env) setTracing(on bool) {
	e.rec = nil
	if on {
		e.rec = e.tr
	}
	e.perOpIO = e.rec != nil && e.cfg.workload.main != "http"
	e.web.rec.Store(e.rec)
}

// replayer replays one client's op schedule in order. It keeps its place, so
// the schedule can run in parts.
type replayer struct {
	e         *env
	ops       []op
	i, qi     int
	sinceSync int
	p         *phase
}

func (e *env) newReplayer(ops []op, p *phase) *replayer {
	return &replayer{e: e, ops: ops, p: p}
}

// run replays the ops before index stop, or fewer if dur > 0 passes first.
func (d *replayer) run(dur time.Duration, stop int) {
	e, p := d.e, d.p
	stop = min(stop, len(d.ops))
	before := e.m.read()
	start := time.Now()
	for ; d.i < stop; d.i++ {
		if dur > 0 && time.Since(start) >= dur {
			break
		}
		o := d.ops[d.i]
		p.ops++
		switch o.kind {
		case opSearch:
			q := e.in.queries[d.qi%len(e.in.queries)]
			d.qi++
			a := e.m.read()
			lat, err := e.search(q, int64(d.i))
			p.perOp.add(a, e.m.read())
			p.searches++
			p.search.add(lat)
			e.count(err)
		case opGet:
			tid := e.live[scatter(o.r, len(e.live))]
			sp := e.rec.begin(spGet, -1, int64(d.i))
			t := time.Now()
			_, err := e.st.Get(tid)
			lat := time.Since(t)
			e.rec.end(sp)
			p.get.add(lat)
			e.count(err)
		default:
			lat, syncD, err := e.write(o, int64(d.i), &d.sinceSync)
			p.writes++
			p.write.add(lat)
			p.syncT += syncD
			e.count(err)
		}
	}
	p.wall += time.Since(start)
	p.window.add(before, e.m.read())
	p.exhausted = p.exhausted || (dur > 0 && d.i == len(d.ops))
}

// mix is the gbase-http traffic: httpClients closed-loop clients, each
// replaying its own seeded schedule of Zipf-hot gets and Zipf-weighted
// searches.
type mix struct {
	w       *web
	urls    []string
	clients []*client
	scheds  [][]op
	pos     []int
	parts   []*phase
	p       *phase
}

func (w *web) newMix(p *phase, n int) *mix {
	e := w.e
	m := &mix{w: w, p: p}
	for c := 0; c < httpClients; c++ {
		m.clients = append(m.clients, w.newClient())
		m.scheds = append(m.scheds, zipfSchedule(e.cfg.seed+int64(c)*101, n, getPct, len(e.live), len(e.in.queries)))
		m.pos = append(m.pos, 0)
		m.parts = append(m.parts, newPhase(n))
	}
	return m
}

func (m *mix) close() {
	for _, c := range m.clients {
		c.close()
	}
}

// run drives all clients for dur, then folds their samples into m.p. Get
// targets are drawn from the live set as the write probe left it.
func (m *mix) run(dur time.Duration) {
	e := m.w.e
	m.urls = m.urls[:0]
	for _, tid := range e.live {
		m.urls = append(m.urls, m.w.getURL(tid))
	}
	rec := e.rec
	searchURL := m.w.base + "/v1/search"
	codes := make([][]int, len(m.clients))
	var wg sync.WaitGroup
	before := e.m.read()
	start := time.Now()
	for c := range m.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, p, sched := m.clients[c], m.parts[c], m.scheds[c]
			for ; m.pos[c] < len(sched) && time.Since(start) < dur; m.pos[c]++ {
				i := m.pos[c]
				o := sched[i]
				opID := int64(c)<<32 | int64(i)
				var (
					code int
					lat  time.Duration
					err  error
				)
				if o.kind == opGet {
					code, lat, err = cl.do(http.MethodGet, m.urls[scatter(o.r, len(m.urls))], nil, rec, opID)
					p.get.add(lat)
				} else {
					code, lat, err = cl.do(http.MethodPost, searchURL, e.in.bodies[o.r], rec, opID)
					p.searches++
					p.search.add(lat)
				}
				p.ops++
				if err != nil {
					code = -1
				}
				if code != http.StatusOK {
					codes[c] = append(codes[c], code)
				}
			}
		}(c)
	}
	wg.Wait()
	m.p.wall += time.Since(start)
	m.p.window.add(before, e.m.read())
	for c, part := range m.parts {
		m.p.search.merge(part.search)
		m.p.get.merge(part.get)
		m.p.searches += part.searches
		m.p.ops += part.ops
		e.attempted += part.ops
		e.acc.httpRequests += part.ops
		part.search.d, part.get.d = part.search.d[:0], part.get.d[:0]
		part.searches, part.ops = 0, 0
		for _, code := range codes[c] {
			e.countFailedHTTP(code)
		}
		m.p.exhausted = m.p.exhausted || m.pos[c] == len(m.scheds[c])
	}
}

func (e *env) countFailedHTTP(code int) {
	e.failed++
	if code == http.StatusTooManyRequests {
		e.acc.shed++
	}
	if len(e.notes) < 8 {
		e.notes = append(e.notes, fmt.Sprintf("http status %d", code))
	}
}
