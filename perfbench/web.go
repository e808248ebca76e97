package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sparsewide/iva"
	"github.com/sparsewide/iva/internal/obs"
	"github.com/sparsewide/iva/internal/server"
)

const (
	httpClients = 2 // closed-loop clients on gbase-http, at most nproc
	getPct      = 80
	spanHeader  = "X-Perfbench-Span"
	opHeader    = "X-Perfbench-Op"
)

// web serves the store through the real internal/server mux on a loopback
// listener. The handler and backend wrappers are the benchmark's own: they
// record the server layer's spans when a recorder is installed.
type web struct {
	e      *env
	base   string
	hs     *http.Server
	served chan error
	rec    atomic.Pointer[recorder]

	openMu sync.Mutex
	open   []openGet // in-flight /v1/get handlers, to parent backend spans
}

type openGet struct {
	tid     string
	span    int32
	claimed bool
}

type spanKey struct{}

func startWeb(e *env) (*web, error) {
	w := &web{e: e, served: make(chan error, 1)}
	srv := server.New(backend{w}, obs.NewRegistry(), server.Config{})
	mux := http.NewServeMux()
	srv.Register(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: tracedHandler{w, mux}}
	go func() { w.served <- w.hs.Serve(ln) }()
	return w, nil
}

// stop shuts the server down and waits for Serve to return.
func (w *web) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w.hs.Shutdown(ctx)
	<-w.served
}

type tracedHandler struct {
	w   *web
	mux *http.ServeMux
}

func (h tracedHandler) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	rec := h.w.rec.Load()
	if rec == nil {
		h.mux.ServeHTTP(rw, r)
		return
	}
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
	op, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
	sp := rec.begin(spHandler, int32(parent), op)
	var tid string
	if r.URL.Path == "/v1/search" {
		r = r.WithContext(context.WithValue(r.Context(), spanKey{}, sp))
	} else {
		tid = r.URL.Query().Get("tid")
		h.w.openMu.Lock()
		h.w.open = append(h.w.open, openGet{tid: tid, span: sp})
		h.w.openMu.Unlock()
	}
	h.mux.ServeHTTP(rw, r)
	if tid != "" {
		h.w.openMu.Lock()
		for i, g := range h.w.open {
			if g.span == sp {
				h.w.open = append(h.w.open[:i], h.w.open[i+1:]...)
				break
			}
		}
		h.w.openMu.Unlock()
	}
	rec.end(sp)
}

// claimGet returns the span of an in-flight /v1/get handler for tid. The
// backend's Get has no context, so the parent is found by tid; two handlers
// on the same tid at once may swap children, which leaves the self-time sums
// unchanged.
func (w *web) claimGet(tid iva.TID) int32 {
	s := strconv.FormatUint(uint64(tid), 10)
	w.openMu.Lock()
	defer w.openMu.Unlock()
	for i := range w.open {
		if !w.open[i].claimed && w.open[i].tid == s {
			w.open[i].claimed = true
			return w.open[i].span
		}
	}
	return -1
}

// backend wraps the store as the server's Backend, timing each call.
type backend struct{ w *web }

func (b backend) SearchContext(ctx context.Context, q *iva.Query) ([]iva.Result, iva.QueryStats, error) {
	rec := b.w.rec.Load()
	parent, _ := ctx.Value(spanKey{}).(int32)
	if rec == nil {
		parent = -1
	}
	sp := rec.begin(spSearch, parent, -1)
	t := time.Now()
	res, qs, err := b.w.e.st.SearchContext(ctx, q)
	d := time.Since(t)
	rec.end(sp)
	if err == nil && rec != nil {
		b.w.e.acc.addSearch(qs, len(res), d)
	}
	return res, qs, err
}

func (b backend) Get(tid iva.TID) (iva.Row, error) {
	rec := b.w.rec.Load()
	parent := int32(-1)
	if rec != nil {
		parent = b.w.claimGet(tid)
	}
	sp := rec.begin(spGet, parent, -1)
	row, err := b.w.e.st.Get(tid)
	rec.end(sp)
	return row, err
}

func (b backend) Stats() iva.StoreStats { return b.w.e.st.Stats() }

// client is one closed-loop HTTP client with its own connection.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	buf  bytes.Buffer
	copy []byte
}

func (w *web) newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	c := &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, tr: tr, copy: make([]byte, 32<<10)}
	c.buf.Grow(64 << 10)
	return c
}

// do sends one request and reads the whole body into c.buf. It returns the
// status code and the client-observed latency.
func (c *client) do(method, url string, body []byte, rec *recorder, opID int64) (int, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	sp := rec.begin(spClient, -1, opID)
	if rec != nil {
		req.Header.Set(spanHeader, strconv.Itoa(int(sp)))
		req.Header.Set(opHeader, strconv.FormatInt(opID, 10))
	}
	t := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		rec.end(sp)
		return 0, time.Since(t), err
	}
	c.buf.Reset()
	_, err = io.CopyBuffer(&c.buf, resp.Body, c.copy)
	resp.Body.Close()
	d := time.Since(t)
	rec.end(sp)
	return resp.StatusCode, d, err
}

func (c *client) close() { c.tr.CloseIdleConnections() }

func (w *web) getURL(tid iva.TID) string {
	return w.base + "/v1/get?tid=" + strconv.FormatUint(uint64(tid), 10)
}

// scatter maps a Zipf rank onto a live-set index with a fixed odd stride, so
// the hot tuples are spread over the table rather than its first pages.
func scatter(r uint32, n int) int {
	return int((uint64(r) * 2_654_435_761) % uint64(n))
}

// searchOnce issues one search over HTTP and decodes the answer.
func (w *web) searchOnce(body []byte) ([]iva.Result, error) {
	cl := w.newClient()
	defer cl.close()
	code, _, err := cl.do(http.MethodPost, w.base+"/v1/search", body, nil, -1)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("search: status %d: %s", code, cl.buf.String())
	}
	var resp server.SearchResponse
	if err := json.Unmarshal(cl.buf.Bytes(), &resp); err != nil {
		return nil, err
	}
	out := make([]iva.Result, len(resp.Results))
	for i, r := range resp.Results {
		out[i] = iva.Result{TID: r.TID, Dist: r.Dist}
	}
	return out, nil
}

// getOnce fetches one row over HTTP.
func (w *web) getOnce(tid iva.TID) (map[string]server.GetValue, error) {
	cl := w.newClient()
	defer cl.close()
	code, _, err := cl.do(http.MethodGet, w.getURL(tid), nil, nil, -1)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("get %d: status %d", tid, code)
	}
	var resp server.GetResponse
	if err := json.Unmarshal(cl.buf.Bytes(), &resp); err != nil {
		return nil, err
	}
	if resp.TID != tid {
		return nil, errors.New("get: answer for another tid")
	}
	return resp.Row, nil
}
