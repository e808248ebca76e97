package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span names. Spans are recorded from the benchmark's own code around each
// call into a layer: the op it issues, the HTTP client request, the mux
// handler, the server.Backend call and each kernel replay.
const (
	spSearch  = iota // in-process Store.Search / SearchContext
	spGet            // in-process Store.Get (server backend)
	spInsert         // Store.Insert
	spDelete         // Store.Delete
	spUpdate         // Store.Update
	spSync           // Store.Sync
	spSetup          // Create + InsertBatch + Sync
	spClient         // HTTP client request, send to body read
	spHandler        // mux handler
	spKernel         // one kernel replay batch
	numSpanNames
)

var spanNames = [numSpanNames]string{"iva.search", "iva.get", "iva.insert", "iva.delete", "iva.update", "iva.sync", "iva.setup", "http.client", "server.handler", "kernel"}

// span is one recorded interval. Times are nanoseconds since the recorder
// started; parent is the index of the causing span or -1; op is the id of
// the benchmark op the span belongs to.
type span struct {
	name   uint8
	parent int32
	op     int64
	start  int64
	end    int64
}

// recorder keeps spans in memory, in a buffer allocated before the timed
// window, and writes them out when the run ends. A nil recorder records
// nothing, which is how untraced runs call it.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	lost  int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (r *recorder) begin(name uint8, parent int32, op int64) int32 {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) == cap(r.spans) {
		r.lost++
		return -1
	}
	r.spans = append(r.spans, span{name: name, parent: parent, op: op, start: now, end: -1})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) {
	if r == nil || i < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[i].end = now
	r.mu.Unlock()
}

// selfTimes returns, per span name, the total self time (duration minus the
// part of the interval its children cover) over completed spans, and the
// span count.
func (r *recorder) selfTimes() (self [numSpanNames]time.Duration, count [numSpanNames]int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int32][][2]int64)
	for _, s := range r.spans {
		if s.parent >= 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	for i, s := range r.spans {
		if s.end < 0 {
			continue
		}
		d := s.end - s.start
		covered := coveredWithin(children[int32(i)], s.start, s.end)
		self[s.name] += time.Duration(d - covered)
		count[s.name]++
	}
	return
}

// coveredWithin is the length of the union of ivs clipped to [lo, hi].
func coveredWithin(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var sum, curLo, curHi int64 = 0, -1, -1
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			sum += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return sum + curHi - curLo
}

// write saves the spans as one JSON object per line.
func (r *recorder) write(path string) error {
	if r == nil || path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i, s := range r.spans {
		enc.Encode(struct {
			ID     int    `json:"id"`
			Name   string `json:"name"`
			Parent int32  `json:"parent"`
			Op     int64  `json:"op"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{i, spanNames[s.name], s.parent, s.op, s.start, s.end})
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
