// Command perfbench is the repository benchmark. It drives the public iva
// Store API and the real internal/server mux from one process, on
// Google-Base-shaped data from internal/dataset, and prints every metric
// named in BENCHMARK.json with its unit.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload gbase-hot --seed 1 --seconds 18 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones, measured untraced; with --trace 1 they are the per-layer
// ones, from a run that records spans (written to --spans at exit). The line
// before it carries the host facts and per-metric sample counts and
// quartiles. README.md in this directory maps each layer metric to the
// end-to-end metric it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
)

// workload is one benchmark input set and store configuration.
type workload struct {
	name       string
	tuples     int
	onDisk     bool  // file-backed store in a temp dir, else in-memory devices
	cacheBytes int64 // 0 selects the store default (10 MiB)
	main       string
	why        string
}

// All workloads run with SearchParallelism 1 and replay a fixed, seeded
// query and op list in the same order each run: the 2-worker plan drifted in
// table fetches and throughput between runs, the sequential plan does not.
var workloads = []workload{
	{"gbase-hot", 20000, false, 64 << 20, "query",
		"20k tuples on in-memory devices with a 64 MiB cache that never misses: filter and refine kernels do all the work"},
	{"gbase-ooc", 20000, true, 1 << 20, "query",
		"the same data and queries file-backed with a 1 MiB cache: pool misses, device reads and checksums carry the load"},
	{"gbase-churn", 20000, true, 0, "churn",
		"35/30/15/20 insert/delete/update/search mix, Sync every 100 writes, replayed through a seed-fixed count of beta=0.02 clean rebuilds that dominate write time"},
	{"gbase-http", 5000, false, 0, "http",
		"2 clients over loopback HTTP, 80% /v1/get on Zipf-hot tids and 20% /v1/search: JSON, admission and net/http are visible"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one reported metric. For an end-to-end metric, bound is
// the share of the parent's median by which it may worsen; moves describes
// it. For a layer metric, moves says which end-to-end metric it should move,
// on which workload.
type metricDef struct {
	name, unit, better string
	bound              float64
	moves              string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "Create + InsertBatch + Sync, median of 2; row generation excluded"},
	{"query_p50_ms", "ms", "lower", 0.25, "client-observed search latency; /v1/search on gbase-http"},
	{"query_p99_ms", "ms", "lower", 0.25, "mean of the slowest 1% of searches (at or above the nearest-rank p99)"},
	{"query_qps", "1/s", "higher", 0.25, "searches completed per second of the timed window"},
	{"query_cpu_ms", "ms", "lower", 0.25, "process user+sys CPU per search (getrusage)"},
	{"alloc_kb_per_query", "KiB", "lower", 0.2, "Go heap bytes allocated per search (per request on gbase-http)"},
	{"heap_live_mb", "MiB", "lower", 0.05, "live heap the store holds after setup, after a forced GC; harness buffers are allocated before the baseline"},
	{"write_p50_ms", "ms", "lower", 0.25, "write call latency incl. triggered rebuilds: the churn mix on gbase-churn, inserts elsewhere"},
	{"write_ops_per_s", "1/s", "higher", 0.25, "writes per second of time in write calls and in the Syncs every 100 writes"},
	{"get_p50_ms", "ms", "lower", 0.25, "point lookups: /v1/get over loopback HTTP on gbase-http, Store.Get elsewhere"},
	{"get_p99_ms", "ms", "lower", 0.25, "point lookups (nearest rank): /v1/get over loopback HTTP on gbase-http, Store.Get elsewhere"},
	{"bytes_per_user_byte", "ratio", "lower", 0.05, "(TableBytes + IndexBytes) / live user payload bytes at the end of the run"},
}

var perLayer = []metricDef{
	{"iva.filter_ms", "ms", "lower", 0, "query_p50_ms on gbase-hot"},
	{"iva.refine_ms", "ms", "lower", 0, "query_p99_ms on gbase-ooc"},
	{"iva.merge_ms", "ms", "lower", 0, "query_p50_ms"},
	{"iva.scanned_per_query", "count", "lower", 0, "iva.filter_ms"},
	{"iva.fetches_per_query", "count", "lower", 0, "iva.refine_ms"},
	{"iva.fetch_yield", "ratio", "higher", 0, "iva.refine_ms (results per table fetch)"},
	{"iva.zone_prune_ratio", "ratio", "higher", 0, "iva.filter_ms (predicted ~0 on this data)"},
	{"iva.insert_ms", "ms", "lower", 0, "write_p50_ms on gbase-churn"},
	{"iva.delete_ms", "ms", "lower", 0, "write_p50_ms on gbase-churn"},
	{"iva.update_ms", "ms", "lower", 0, "write_p50_ms on gbase-churn"},
	{"iva.sync_ms", "ms", "lower", 0, "write_p50_ms on gbase-churn"},
	{"iva.rebuilds", "count", "lower", 0, "write_ops_per_s on gbase-churn"},
	{"iva.rebuild_ms", "ms", "lower", 0, "write_ops_per_s on gbase-churn"},
	{"iva.load_rows_per_s", "1/s", "higher", 0, "setup_s"},
	{"storage.hit_ratio", "ratio", "higher", 0, "query_qps and query_p99_ms on gbase-ooc (1.000 on gbase-hot)"},
	{"storage.phys_reads_per_query", "count", "lower", 0, "query_qps and query_p99_ms on gbase-ooc"},
	{"storage.rand_reads_per_query", "count", "lower", 0, "query_qps and query_p99_ms on gbase-ooc"},
	{"storage.phys_writes_per_write", "count", "lower", 0, "write_ops_per_s on gbase-churn"},
	{"server.handler_ms", "ms", "lower", 0, "get_p50_ms and query_p50_ms on gbase-http"},
	{"server.net_ms", "ms", "lower", 0, "get_p50_ms and query_p50_ms on gbase-http"},
	{"server.decode_us", "us", "lower", 0, "query_p50_ms on gbase-http"},
	{"server.encode_us", "us", "lower", 0, "query_p50_ms on gbase-http"},
	{"server.shed_ratio", "ratio", "lower", 0, "get_p50_ms and query_p50_ms on gbase-http"},
	{"signature.est_ns", "ns", "lower", 0, "iva.filter_ms"},
	{"signature.encode_ns", "ns", "lower", 0, "setup_s and write_p50_ms"},
	{"vaq.mindist_ns", "ns", "lower", 0, "iva.filter_ms"},
	{"gram.edit_distance_ns", "ns", "lower", 0, "iva.refine_ms"},
	{"metric.tuple_distance_ns", "ns", "lower", 0, "iva.refine_ms"},
	{"table.fetch_us", "us", "lower", 0, "iva.refine_ms"},
	{"topk.insert_ns", "ns", "lower", 0, "iva.merge_ms"},
	{"bitio.readbits_ns", "ns", "lower", 0, "iva.filter_ms"},
	{"vector.moveto_ns.I", "ns", "lower", 0, "iva.filter_ms"},
	{"vector.moveto_ns.II", "ns", "lower", 0, "iva.filter_ms"},
	{"vector.moveto_ns.III", "ns", "lower", 0, "iva.filter_ms"},
	{"vector.moveto_ns.IV", "ns", "lower", 0, "iva.filter_ms"},
	{"runtime.gc_per_1k_queries", "count", "lower", 0, "query_cpu_ms"},
	{"trace.overhead_ratio", "ratio", "lower", 0, "none: traced / untraced mean search latency in this run"},
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

type config struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	short    bool   // smoke-test sizes, set by the tests: a tenth of the data, small probes
	spans    string // where the traced run writes its spans
	workDir  string // scratch space for file-backed stores
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 18, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		spans   = flag.String("spans", "", "span output file of a traced run (default .bench_build/spans-<workload>-<seed>.json)")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fail(errors.New("run from the repository root"))
	}
	cfg := config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans}
	if cfg.trace && cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", w.name, *seed))
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fail(err)
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fail(err)
	}
	cfg.workDir = work
	rep, err := run(cfg)
	os.RemoveAll(work)
	if err != nil {
		fail(err)
	}
	detail, _ := json.Marshal(map[string]any{"perfbench": rep.detail})
	fmt.Println(string(detail))
	last, _ := json.Marshal(rep.result)
	fmt.Println(string(last))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// hostFacts are printed with every result, as the performance ledger
// requires.
func hostFacts() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpu,
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
}
