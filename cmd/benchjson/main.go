// Command benchjson writes the repo's benchmark baseline: one JSON document
// combining (1) the paper-figure suite (internal/bench, run in-process so the
// structured reports are captured, not scraped) and (2) the hot-path
// micro-benchmarks (hash-table Get, table-space Get, wire framing, WAL batch
// append, group commit), run through `go test -bench` and parsed from the
// standard benchmark output format.
//
// `make bench-json` runs it and commits the result as BENCH_<date>.json, so
// every perf PR can diff its numbers against the previous baseline on the
// same class of machine.
//
// Usage:
//
//	benchjson                     # quick figures + 200ms benchtime -> BENCH_<today>.json
//	benchjson -o baseline.json -benchtime 1s -figs fig13,fig19
//	benchjson -figs none -benchtime 1x   # micro-benchmarks only, smoke scale
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hybridgc/internal/bench"
)

// microPattern selects the hot-path micro-benchmarks named in the baseline
// contract; microPackages is where they live.
const microPattern = "BenchmarkOLAPScan|BenchmarkHashGet|BenchmarkTableGet|BenchmarkCatalogByID|BenchmarkWireFrame|BenchmarkWALAppend|BenchmarkGroupCommit|BenchmarkShardedCommit|BenchmarkSnapshotAcquire|BenchmarkCommitParallel"

var microPackages = []string{".", "./internal/mvcc", "./internal/table", "./internal/wire", "./internal/wal", "./internal/shard", "./internal/htap", "./internal/sts", "./internal/txn"}

// benchShards is the shard count BenchmarkShardedCommit scales to (its
// shards=N sub-benchmark); recorded in the baseline metadata.
const benchShards = 4

// Micro is one parsed `go test -bench` result line. GOMAXPROCS is the
// per-point parallelism the benchmark ran at (`go test -cpu` suffixes the
// name with -N): every benchmark appears once per entry in the CPU matrix,
// so scaling across cores is diffable point by point.
type Micro struct {
	Name       string             `json:"name"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"` // unit -> value, e.g. "ns/op": 70.1
}

// SeriesJSON flattens a labeled metrics series.
type SeriesJSON struct {
	Label  string       `json:"label"`
	Points [][2]float64 `json:"points"` // [seconds, value]
}

// FigureJSON is one paper-figure report.
type FigureJSON struct {
	ID     string       `json:"id"`
	Title  string       `json:"title"`
	Notes  []string     `json:"notes,omitempty"`
	Header []string     `json:"header,omitempty"`
	Rows   [][]string   `json:"rows,omitempty"`
	Series []SeriesJSON `json:"series,omitempty"`
}

// Baseline is the whole document. CPUs, GOMAXPROCS, CPUMatrix and Shards pin
// down the parallelism context the numbers were taken under — parallel and
// shard-scaling results are meaningless without knowing how many cores the
// run actually had. In particular, when CPUs is small the higher GOMAXPROCS
// points of the matrix are timeshared, not truly parallel.
type Baseline struct {
	Date      string `json:"date"`
	GoVersion string `json:"go"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	// GOMAXPROCS is the benchjson process's own value; the per-point value
	// each micro-benchmark ran at is Micro.GOMAXPROCS.
	GOMAXPROCS int `json:"gomaxprocs"`
	// CPUMatrix is the `go test -cpu` list the micro-benchmarks ran across.
	CPUMatrix string `json:"cpu_matrix"`
	// Shards is the shard count the sharded benchmarks scale up to
	// (BenchmarkShardedCommit runs shards=1 vs shards=N).
	Shards    int          `json:"shards"`
	BenchTime string       `json:"benchtime"`
	Quick     bool         `json:"quick_figures"`
	Micro     []Micro      `json:"micro"`
	Figures   []FigureJSON `json:"figures,omitempty"`
}

func main() {
	var (
		out       = flag.String("o", "", "output file (default BENCH_<today>.json)")
		benchtime = flag.String("benchtime", "200ms", "go test -benchtime for the micro-benchmarks")
		cpus      = flag.String("cpu", "1,4,16", "go test -cpu matrix for the micro-benchmarks")
		figs      = flag.String("figs", "all", "figure ids to run (comma-separated), or 'none'")
		quick     = flag.Bool("quick", true, "run the figure suite at quick (sub-second) scale")
	)
	flag.Parse()

	day := time.Now().UTC().Format("2006-01-02")
	path := *out
	if path == "" {
		path = "BENCH_" + day + ".json"
	}

	b := &Baseline{
		Date:       day,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUMatrix:  *cpus,
		Shards:     benchShards,
		BenchTime:  *benchtime,
		Quick:      *quick,
	}

	micro, err := runMicro(*benchtime, *cpus)
	if err != nil {
		fatal(err)
	}
	b.Micro = micro

	if *figs != "none" {
		figures, err := runFigures(*figs, *quick)
		if err != nil {
			fatal(err)
		}
		b.Figures = figures
	}

	enc, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("benchjson: %d micro-benchmarks, %d figures -> %s\n", len(b.Micro), len(b.Figures), path)
}

// runMicro shells out to `go test -bench` and parses the result lines. The
// benchmarks run sequentially in their own processes, exactly as a developer
// would run them, so the baseline reflects the numbers `go test -bench`
// prints. Each benchmark runs once per GOMAXPROCS value in the cpu matrix.
func runMicro(benchtime, cpus string) ([]Micro, error) {
	args := []string{"test", "-run", "^$", "-bench", microPattern, "-benchmem", "-benchtime", benchtime, "-cpu", cpus}
	args = append(args, microPackages...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test -bench: %w\n%s", err, outb)
	}
	var out []Micro
	for _, line := range strings.Split(string(outb), "\n") {
		m, ok := parseBenchLine(line)
		if ok {
			out = append(out, m)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark lines parsed from go test output")
	}
	return out, nil
}

// parseBenchLine parses one standard benchmark output line:
//
//	BenchmarkName-8   123456   70.1 ns/op   0 B/op   0 allocs/op   3.0 extra/unit
//
// Fields after the iteration count come in (value, unit) pairs. The trailing
// -N of the name is the GOMAXPROCS the point ran at (absent means 1); it is
// split into its own field so the same benchmark is diffable across the cpu
// matrix by name.
func parseBenchLine(line string) (Micro, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Micro{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Micro{}, false
	}
	name, procs := splitCPUSuffix(f[0])
	m := Micro{Name: name, GOMAXPROCS: procs, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Micro{}, false
		}
		m.Metrics[f[i+1]] = v
	}
	return m, true
}

// splitCPUSuffix separates the -N GOMAXPROCS suffix `go test` appends to
// benchmark names (only when N > 1) from the name proper. Sub-benchmark
// segments like "/shards=4-16" keep everything but the final suffix.
func splitCPUSuffix(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n <= 0 {
		return name, 1
	}
	return name[:i], n
}

// runFigures runs the paper-figure suite in-process and captures the
// structured reports.
func runFigures(arg string, quick bool) ([]FigureJSON, error) {
	var ids []string
	if arg == "all" {
		ids = bench.Figures()
	} else {
		for _, part := range strings.Split(arg, ",") {
			if part = strings.TrimSpace(part); part != "" {
				ids = append(ids, part)
			}
		}
	}
	suite := bench.NewSuite(bench.SuiteConfig{Quick: quick})
	var out []FigureJSON
	for _, id := range ids {
		rep, err := suite.Run(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		fj := FigureJSON{
			ID: rep.ID, Title: rep.Title, Notes: rep.Notes,
			Header: rep.Header, Rows: rep.Rows,
		}
		for _, s := range rep.Series {
			sj := SeriesJSON{Label: s.Label, Points: make([][2]float64, 0, len(s.Series.Points))}
			for _, p := range s.Series.Points {
				sj.Points = append(sj.Points, [2]float64{p.Elapsed.Seconds(), p.Value})
			}
			fj.Series = append(fj.Series, sj)
		}
		out = append(out, fj)
		fmt.Fprintf(os.Stderr, "benchjson: %s done\n", id)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
