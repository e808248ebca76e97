package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"github.com/sparsewide/iva/internal/bitio"
	"github.com/sparsewide/iva/internal/gram"
	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/server"
	"github.com/sparsewide/iva/internal/signature"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/table"
	"github.com/sparsewide/iva/internal/topk"
	"github.com/sparsewide/iva/internal/vaq"
	"github.com/sparsewide/iva/internal/vector"
)

// Kernel replays call each layer's exported function on inputs sampled from
// the workload's own rows and queries, and report ns (or us) per call. They
// run after the timed window, in the traced run only.

type kernelResult struct {
	Calls   int64   `json:"calls"`
	PerCall float64 `json:"per_call"` // in the unit the metric name gives
}

// Index parameters the store runs with by default: n-gram length 2, relative
// vector length 0.2, 8-byte numerics (16-bit codes).
const (
	kernelN     = 2
	kernelAlpha = 0.2
	kernelBits  = 16
)

var sink float64 // keeps replayed results live

// timeKernel calls fn(i) for i = 0, 1, ... until at least minCalls calls
// and minDur have passed, and records the mean cost under name.
func (e *env) timeKernel(name string, fn func(i int)) {
	minCalls, minDur := 20000, 40*time.Millisecond
	if e.cfg.short {
		minCalls, minDur = 500, time.Millisecond
	}
	sp := e.tr.begin(spKernel, -1, -1)
	start := time.Now()
	calls := 0
	for calls < minCalls || time.Since(start) < minDur {
		for j := 0; j < 256; j++ {
			fn(calls)
			calls++
		}
	}
	el := time.Since(start)
	e.tr.end(sp)
	e.acc.kernels[name] = kernelResult{Calls: int64(calls), PerCall: float64(el) / float64(calls)}
}

// sampleTuples returns the first n generated base tuples in rank-id form.
func (e *env) sampleTuples(n int) []*model.Tuple {
	n = min(n, len(e.in.rows))
	out := make([]*model.Tuple, n)
	for i := range out {
		tp := model.NewTuple(model.TID(i))
		for rank, v := range e.in.gen.Values(i) {
			tp.Values[model.AttrID(rank)] = v
		}
		out[i] = tp
	}
	return out
}

func (e *env) runKernels() error {
	e.acc.kernels = map[string]kernelResult{}
	tuples := e.sampleTuples(2048)
	var dataStrs, queryStrs []string
	var nums, queryNums []float64
	textDF := map[model.AttrID]int{}
	numDF := map[model.AttrID]int{}
	for _, tp := range tuples {
		for id, v := range tp.Values {
			if v.Kind == model.KindNumeric {
				nums = append(nums, v.Num)
				numDF[id]++
			} else {
				dataStrs = append(dataStrs, v.Strs...)
				textDF[id]++
			}
		}
	}
	for _, q := range e.in.mq {
		for _, t := range q.Terms {
			if t.Kind == model.KindNumeric {
				queryNums = append(queryNums, t.Num)
			} else {
				queryStrs = append(queryStrs, t.Str)
			}
		}
	}
	if len(dataStrs) == 0 || len(queryStrs) == 0 || len(nums) == 0 || len(queryNums) == 0 {
		return fmt.Errorf("kernel inputs: sample has no text or no numeric values")
	}

	codec, err := signature.NewCodec(kernelN, kernelAlpha)
	if err != nil {
		return err
	}
	sigs := make([]signature.Sig, len(dataStrs))
	for i, s := range dataStrs {
		sigs[i] = codec.Encode(s)
	}
	qsigs := make([]*signature.QueryString, len(queryStrs))
	for i, s := range queryStrs {
		qsigs[i] = codec.NewQueryString(s)
	}
	e.timeKernel("signature.encode_ns", func(i int) { sink += float64(codec.Encode(dataStrs[i%len(dataStrs)]).Len) })
	e.timeKernel("signature.est_ns", func(i int) {
		sink += qsigs[(i/len(sigs))%len(qsigs)].Est(sigs[i%len(sigs)])
	})

	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range nums {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	quant, err := vaq.New(lo, hi, kernelBits)
	if err != nil {
		return err
	}
	codes := make([]uint64, len(nums))
	for i, v := range nums {
		codes[i] = quant.Encode(v)
	}
	e.timeKernel("vaq.mindist_ns", func(i int) {
		sink += quant.MinDist(queryNums[(i/len(codes))%len(queryNums)], codes[i%len(codes)])
	})
	e.timeKernel("gram.edit_distance_ns", func(i int) {
		sink += float64(gram.EditDistance(queryStrs[(i/len(dataStrs))%len(queryStrs)], dataStrs[i%len(dataStrs)]))
	})

	met := metric.Default()
	dists := make([]float64, len(tuples))
	e.timeKernel("metric.tuple_distance_ns", func(i int) {
		d := met.TupleDistance(e.in.mq[(i/len(tuples))%len(e.in.mq)], tuples[i%len(tuples)])
		dists[i%len(tuples)] = d
		sink += d
	})
	pool := topk.New(queryK)
	e.timeKernel("topk.insert_ns", func(i int) {
		if i%len(dists) == 0 {
			pool = topk.New(queryK)
		}
		pool.Insert(model.TID(i), dists[i%len(dists)])
	})

	if err := e.tableKernel(tuples); err != nil {
		return err
	}
	e.bitioKernel()
	if err := e.vectorKernels(codec, quant, tuples, textDF, numDF); err != nil {
		return err
	}
	e.serverKernels()
	return nil
}

// tableKernel appends the sample to a table on an in-memory device and
// times Fetch in a scattered order (the refine phase's random access).
func (e *env) tableKernel(tuples []*model.Tuple) error {
	pool := storage.NewPool(4096, 64<<20)
	f := storage.NewFile(pool, storage.NewMemDevice())
	cat := table.NewCatalog()
	for r := 0; r < e.in.gen.NumAttrsTotal(); r++ {
		if _, err := cat.AddAttr(e.in.gen.AttrName(r), e.in.gen.AttrKind(r)); err != nil {
			return err
		}
	}
	tbl, err := table.New(f, cat)
	if err != nil {
		return err
	}
	ptrs := make([]int64, len(tuples))
	for i, tp := range tuples {
		if _, ptrs[i], err = tbl.Append(tp.Values); err != nil {
			return err
		}
	}
	var ferr error
	e.timeKernel("table.fetch_us", func(i int) {
		tp, err := tbl.Fetch(ptrs[scatter(uint32(i), len(ptrs))])
		if err != nil {
			ferr = err
			return
		}
		sink += float64(len(tp.Values))
	})
	k := e.acc.kernels["table.fetch_us"]
	k.PerCall /= 1e3 // reported in microseconds
	e.acc.kernels["table.fetch_us"] = k
	return ferr
}

// bitioKernel times ReadBits over a stream of the field widths vector lists
// mix: tuple ids, string lengths, signature words and numeric codes.
func (e *env) bitioKernel() {
	widths := []int{15, signature.LenBits, 64, 2, kernelBits, 23, 40}
	const n = 1 << 14
	w := bitio.NewWriter(n * 8)
	for i := 0; i < n; i++ {
		wd := widths[i%len(widths)]
		w.WriteBits(uint64(i*2_654_435_761)&(1<<uint(wd)-1), wd)
	}
	r := bitio.NewReader(w.Bytes(), w.Len())
	e.timeKernel("bitio.readbits_ns", func(i int) {
		if i%n == 0 {
			r.Seek(0)
		}
		v, _ := r.ReadBits(widths[i%len(widths)])
		sink += float64(v & 1)
	})
}

// vectorKernels encodes the sample's most defined text attribute as list
// types I, II and III and its most defined numeric attribute as type IV,
// then times Cursor.MoveTo over every tuple-list position, as the filter
// loop calls it.
func (e *env) vectorKernels(codec *signature.Codec, quant *vaq.Quantizer, tuples []*model.Tuple, textDF, numDF map[model.AttrID]int) error {
	best := func(df map[model.AttrID]int) model.AttrID {
		var id model.AttrID
		top := -1
		for a, n := range df {
			if n > top || (n == top && a < id) {
				id, top = a, n
			}
		}
		return id
	}
	textAttr, numAttr := best(textDF), best(numDF)
	ltid := bitio.BitsFor(uint64(len(tuples)))
	layouts := []vector.Layout{
		{Type: vector.TypeI, Kind: model.KindText, LTid: ltid, Codec: codec},
		{Type: vector.TypeII, Kind: model.KindText, LTid: ltid, LNum: 2, Codec: codec},
		{Type: vector.TypeIII, Kind: model.KindText, LNum: 2, Codec: codec},
		{Type: vector.TypeIV, Kind: model.KindNumeric, VecBits: kernelBits, NDFCode: quant.NDFReserved()},
	}
	for _, lay := range layouts {
		enc, err := vector.NewEncoder(lay)
		if err != nil {
			return err
		}
		w := bitio.NewWriter(1 << 16)
		for i, tp := range tuples {
			tid := model.TID(i)
			if lay.Kind == model.KindText {
				var sigs []signature.Sig
				if v, ok := tp.Values[textAttr]; ok && v.Kind == model.KindText {
					for _, s := range v.Strs {
						sigs = append(sigs, codec.Encode(s))
					}
				}
				err = enc.EncodeText(w, tid, sigs)
			} else {
				v, ok := tp.Values[numAttr]
				ndf := !ok || v.Kind != model.KindNumeric
				var code uint64
				if !ndf {
					code = quant.Encode(v.Num)
				}
				err = enc.EncodeNumeric(w, tid, code, ndf)
			}
			if err != nil {
				return err
			}
		}
		var (
			cur  *vector.Cursor
			merr error
		)
		e.timeKernel("vector.moveto_ns."+lay.Type.String(), func(i int) {
			pos := i % len(tuples)
			if pos == 0 {
				src := vector.MemSource{R: bitio.NewReader(w.Bytes(), w.Len())}
				if cur, merr = vector.NewCursor(lay, src); merr != nil {
					return
				}
				cur.EnableScratch()
			}
			if cur == nil {
				return
			}
			ent, err := cur.MoveTo(model.TID(pos), int64(pos))
			if err != nil {
				merr, cur = err, nil
				return
			}
			sink += float64(len(ent.Sigs))
		})
		if merr != nil {
			return fmt.Errorf("vector type %v: %w", lay.Type, merr)
		}
	}
	return nil
}

// serverKernels time the server's request decoding and response encoding
// on the workload's own search bodies and answers.
func (e *env) serverKernels() {
	bodies := e.in.bodies
	var rd bytes.Reader
	e.timeKernel("server.decode_us", func(i int) {
		rd.Reset(bodies[i%len(bodies)])
		req, err := server.DecodeSearchRequest(&rd, 0, 0, 0)
		if err == nil {
			sink += float64(req.K)
		}
	})
	answers := make([]server.SearchResponse, len(e.in.sample))
	for i, qi := range e.in.sample {
		res, qs, err := e.st.Search(e.in.queries[qi])
		if err != nil {
			continue
		}
		answers[i] = server.SearchResponse{TraceID: qs.TraceID, Results: server.Results(res),
			Stats: server.SearchStats{Scanned: qs.Scanned, TableAccesses: qs.TableAccesses, CacheHits: qs.CacheHits, PhysReads: qs.PhysReads, Workers: qs.Workers}}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	e.timeKernel("server.encode_us", func(i int) {
		buf.Reset()
		enc.Encode(answers[i%len(answers)])
	})
	for _, name := range []string{"server.decode_us", "server.encode_us"} {
		k := e.acc.kernels[name]
		k.PerCall /= 1e3
		e.acc.kernels[name] = k
	}
}

// layerMetrics fills the per-layer metrics of a traced run.
func (e *env) layerMetrics(out map[string]float64) {
	a := &e.acc
	n := float64(a.searches)
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	out["iva.filter_ms"] = ratio(ms(a.filter), n)
	out["iva.refine_ms"] = ratio(ms(a.refine), n)
	out["iva.merge_ms"] = ratio(ms(a.merge), n)
	out["iva.scanned_per_query"] = ratio(float64(a.scanned), n)
	out["iva.fetches_per_query"] = ratio(float64(a.fetches), n)
	out["iva.fetch_yield"] = ratio(float64(a.results), float64(a.fetches))
	out["iva.zone_prune_ratio"] = ratio(float64(a.zonePruned), float64(a.zoneChecked))
	out["iva.insert_ms"] = ratio(ms(a.writeT[0]), float64(a.writeN[0]))
	out["iva.delete_ms"] = ratio(ms(a.writeT[1]), float64(a.writeN[1]))
	out["iva.update_ms"] = ratio(ms(a.writeT[2]), float64(a.writeN[2]))
	out["iva.sync_ms"] = ratio(ms(a.syncT), float64(a.syncs))
	out["iva.rebuilds"] = float64(a.rebuilds)
	out["iva.rebuild_ms"] = ratio(ms(a.rebuildT), float64(a.rebuilds))
	out["iva.load_rows_per_s"] = ratio(float64(e.loadRows), e.loadT.Seconds())
	out["storage.hit_ratio"] = ratio(float64(a.hits), float64(a.hits+a.phys))
	out["storage.phys_reads_per_query"] = ratio(float64(a.phys), n)
	out["storage.rand_reads_per_query"] = ratio(float64(a.randReads), n)
	out["storage.phys_writes_per_write"] = ratio(float64(a.physWrites), float64(a.writes))

	self, count := e.tr.selfTimes()
	out["server.handler_ms"] = ratio(ms(self[spHandler]), float64(count[spHandler]))
	out["server.net_ms"] = ratio(ms(self[spClient]), float64(count[spClient]))
	out["server.shed_ratio"] = ratio(float64(a.shed), float64(a.httpRequests))
	for name, k := range a.kernels {
		out[name] = k.PerCall
	}
}
