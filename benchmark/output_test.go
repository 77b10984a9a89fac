package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json; unknown keys are an error, the
// builder contract allows exactly these.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFile holds BENCHMARK.json to the builder contract's limits and
// to the tables the program reports from.
func TestBenchmarkFile(t *testing.T) {
	b := loadBenchmarkFile(t)
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", b.Paths)
	}
	if len(b.Command) == 0 || len(b.Command) > 32 {
		t.Errorf("command has %d strings", len(b.Command))
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	// 4 + 22 × workloads runs, each window + warm-up + 6 s for five set-ups,
	// the checks and recovery (4 to 5.5 s measured, 7 on wire_durable), plus
	// two builds of about 15 s.
	if total := (4+22*len(b.Workloads))*(b.RunSeconds+int(warmup.Seconds())+6) + 60; total > 3420 {
		t.Errorf("the driver's runs would take about %d s, over 3420", total)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not a valid name", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		name("workload", w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, the program has %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics, the program reports %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		name("end_to_end", m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d is %s [%s], the program reports %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s and better lower")
		}
	}
	if !seen["setup_s"] {
		t.Errorf("end_to_end has no setup_s")
	}

	if len(b.PerLayer) != len(perLayer) || len(b.PerLayer) > 128 {
		t.Fatalf("%d per_layer metrics, the program reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		name("per_layer", m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d is %s [%s], the program reports %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per_layer %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// TestOutput builds the benchmark, runs every workload untraced and traced
// with a 2 s window the way the driver invokes it, and parses what it prints
// exactly as the contract describes: standard output is one line, a JSON
// object with the keys correct, attempted, failed and metrics, holding every
// metric BENCHMARK.json names for that run once, finite, with its unit.
func TestOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	b := loadBenchmarkFile(t)
	bin := filepath.Join(t.TempDir(), "hgcbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, w := range b.Workloads {
		for trace := 0; trace <= 1; trace++ {
			w, trace := w.Name, trace
			t.Run(fmt.Sprintf("%s/trace%d", w, trace), func(t *testing.T) {
				t.Parallel()
				want := map[string]string{}
				if trace == 0 {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				cmd := exec.Command(bin, "--workload", w, "--seed", "3", "--seconds", "2", "--trace", fmt.Sprint(trace))
				cmd.Dir = t.TempDir()
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("%v\n%s", err, stderr.String())
				}
				checkResult(t, stdout.String(), want)
				if trace == 1 {
					if _, err := os.Stat(filepath.Join(cmd.Dir, ".bench_build", "out", "trace_"+w+".jsonl")); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}

func checkResult(t *testing.T, stdout string, want map[string]string) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("standard output has %d lines, want the result alone:\n%s", len(lines), stdout)
	}
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[0]), &res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[k]; !ok {
			t.Errorf("result has no %q", k)
		}
	}
	if len(res) != 4 {
		t.Errorf("result has %d keys, want exactly 4", len(res))
	}
	var correct bool
	var attempted, failed int64
	if err := json.Unmarshal(res["correct"], &correct); err != nil || !correct {
		t.Errorf("correct = %s", res["correct"])
	}
	if err := json.Unmarshal(res["attempted"], &attempted); err != nil || attempted < 1 {
		t.Errorf("attempted = %s", res["attempted"])
	}
	if err := json.Unmarshal(res["failed"], &failed); err != nil || failed < 0 {
		t.Errorf("failed = %s", res["failed"])
	}

	// Decode by hand so a metric named twice is seen, which a map would hide.
	dec := json.NewDecoder(bytes.NewReader(res["metrics"]))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("metrics is not an object: %v %v", tok, err)
	}
	got := map[string]bool{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		name := tok.(string)
		var m struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("metric %s: %v", name, err)
		}
		if got[name] {
			t.Errorf("metric %s is reported twice", name)
		}
		got[name] = true
		unit, ok := want[name]
		switch {
		case !ok:
			t.Errorf("metric %s is not in BENCHMARK.json for this run", name)
		case m.Unit != unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		case m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
			t.Errorf("metric %s has no finite value", name)
		}
	}
	for name := range want {
		if !got[name] {
			t.Errorf("metric %s is missing", name)
		}
	}
}
