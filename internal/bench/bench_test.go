package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func quickSuite() *Suite {
	return NewSuite(SuiteConfig{Quick: true})
}

func TestFiguresList(t *testing.T) {
	ids := Figures()
	if len(ids) != 13 {
		t.Fatalf("expected 10 figures + 3 extensions, got %v", ids)
	}
	s := quickSuite()
	if _, err := s.Run("fig99"); err == nil {
		t.Fatal("unknown figure must error")
	}
}

func TestCursorFigures(t *testing.T) {
	s := quickSuite()
	reps := map[string]*Report{}
	for _, id := range []string{"fig10", "fig11", "fig12", "fig13"} {
		rep, err := s.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var buf bytes.Buffer
		if _, err := rep.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		// fig11 breaks down by collector (GT/TG/SI); the others compare the
		// GT / GT+TG / HG configurations.
		wantLabel := "GT+TG"
		if id == "fig11" {
			wantLabel = "SI"
		}
		if !strings.Contains(out, rep.ID) || !strings.Contains(out, wantLabel) {
			t.Fatalf("%s report incomplete:\n%s", id, out)
		}
		reps[id] = rep
	}
	// Figures 10-13 share one experiment: the cursor runs exactly once per
	// mode, so the cached map is reused.
	if s.runs["cursor"] == nil {
		t.Fatal("cursor results not cached")
	}
	// Figure 10's shape: with the long cursor, GT's version count keeps
	// growing while HG stays near-flat — compared after the same committed
	// work in both runs.
	if gt, hg := reps["fig10"].Series[0], reps["fig10"].Series[2]; gt.Series.Last() < 3*hg.Series.Last() {
		t.Fatalf("after %d transactions %s versions %.0f should dwarf %s versions %.0f",
			quickTransactions, gt.Label, gt.Series.Last(), hg.Label, hg.Series.Last())
	}
	// Figure 11's shape: under HG, TG and SI do real work in the presence of
	// a cursor (GT is mostly blocked).
	for _, ls := range reps["fig11"].Series[1:] {
		if ls.Series.Last() == 0 {
			t.Fatalf("HG's %s reclaimed nothing: %s", ls.Label, reps["fig11"].Notes[1])
		}
	}
}

func TestFetchFigures(t *testing.T) {
	s := quickSuite()
	for _, id := range []string{"fig14", "fig15"} {
		rep, err := s.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(rep.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
	// Every mode's cursor fetched incrementally, observations in index order.
	for m, res := range s.runs["fetch"] {
		if len(res.Fetches) < 3 {
			t.Fatalf("%s: only %d fetches", m, len(res.Fetches))
		}
		for i, f := range res.Fetches {
			if f.Index != i {
				t.Fatalf("%s: fetch indices out of order: %+v", m, res.Fetches)
			}
		}
	}
}

func TestTransFigures(t *testing.T) {
	s := quickSuite()
	for _, id := range []string{"fig16", "fig17"} {
		if _, err := s.Run(id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	rep, _ := s.Fig16()
	if len(rep.Rows) != 3 {
		t.Fatalf("fig16 needs one row per mode: %v", rep.Rows)
	}
	// Every mode completed Trans-SI scans, each taking measurable time.
	for m, res := range s.runs["trans-SI"] {
		if len(res.TransSIScans) == 0 {
			t.Fatalf("%s: no Trans-SI scans completed", m)
		}
		for _, lat := range res.TransSIScans {
			if lat <= 0 {
				t.Fatalf("%s: bad scan latency %v", m, lat)
			}
		}
	}
}

func TestSweepFigures(t *testing.T) {
	s := quickSuite()
	for _, id := range []string{"fig18", "fig19"} {
		rep, err := s.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(rep.Rows) != 2 { // quick mode sweeps two multipliers
			t.Fatalf("%s rows = %v", id, rep.Rows)
		}
		if len(rep.Rows[0]) != 4 {
			t.Fatalf("%s row width = %v", id, rep.Rows[0])
		}
	}
}

func TestReportRendering(t *testing.T) {
	rep := &Report{
		ID:     "figX",
		Title:  "test",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}, {"3", "4"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	if _, err := rep.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"figX", "a note", "1", "4"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("missing %q in:\n%s", want, buf.String())
		}
	}
}

func TestExt2HTAPLane(t *testing.T) {
	s := quickSuite()
	rep, err := s.Run("ext2")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series) != 4 {
		t.Fatalf("ext2 series = %d", len(rep.Series))
	}
	// The lane leg must complete more aggregates than the row leg over the
	// same committed OLTP work. Quick runs are tiny, so just require it not
	// to lose; the acceptance-bar speedup is measured by BenchmarkOLAPScan on
	// settled data.
	legs := map[string][2]int{}
	for _, row := range rep.Rows {
		writes, err1 := strconv.Atoi(row[1])
		queries, err2 := strconv.Atoi(row[2])
		if err1 != nil || err2 != nil {
			t.Fatalf("ext2 row %v", row)
		}
		legs[row[0]] = [2]int{writes, queries}
	}
	lane, row := legs["lane"], legs["row"]
	if lane[0] != quickWrites || row[0] != quickWrites {
		t.Fatalf("legs committed %d and %d writes, want %d each", lane[0], row[0], quickWrites)
	}
	if float64(lane[1]) < float64(row[1])*0.5 {
		t.Fatalf("after %d writes the lane completed %d OLAP aggregates, collapsed vs the row path's %d", quickWrites, lane[1], row[1])
	}
	var buf bytes.Buffer
	if _, err := rep.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "olap-qps(lane)") {
		t.Fatalf("ext2 report incomplete:\n%s", buf.String())
	}
}

func TestExt3ReadScale(t *testing.T) {
	s := quickSuite()
	rep, err := s.Run("ext3")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series) != 4 {
		t.Fatalf("ext3 series = %d", len(rep.Series))
	}
	for _, ls := range rep.Series {
		if ls.Series.Mean() <= 0 {
			t.Fatalf("leg %s measured no reads", ls.Label)
		}
	}
	// Every replica leg must actually have routed reads to replicas — the
	// figure is meaningless if the pool quietly served everything from the
	// primary.
	for _, note := range rep.Notes {
		for _, n := range []string{"1 replicas:", "2 replicas:", "3 replicas:"} {
			if strings.HasPrefix(note, n) && strings.Contains(note, "replica=0 ") {
				t.Fatalf("replica leg served no replica reads: %s", note)
			}
		}
	}
	var buf bytes.Buffer
	if _, err := rep.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "reads/s(3r)") {
		t.Fatalf("ext3 report incomplete:\n%s", buf.String())
	}
}

func TestExt1PartitionScope(t *testing.T) {
	s := quickSuite()
	rep, err := s.Run("ext1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series) != 2 {
		t.Fatalf("ext1 series = %d", len(rep.Series))
	}
	// After the same committed work, the partition-scoped run holds fewer
	// live versions than the table-scoped run (TG reclaims the unpinned
	// partitions).
	tableScoped := rep.Series[0].Series.Last()
	partScoped := rep.Series[1].Series.Last()
	if partScoped >= tableScoped {
		t.Fatalf("after %d transactions partition scope (%0.f) should beat table scope (%0.f)", quickTransactions, partScoped, tableScoped)
	}
}
