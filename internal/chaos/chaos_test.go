package chaos

import (
	"strings"
	"testing"
	"time"

	"hybridgc/internal/fault"
	"hybridgc/internal/repl"
)

// TestChaosSingleSeed runs one short scenario end to end and requires every
// invariant to hold. This is the same path `make chaos-smoke` drives across
// its seed set.
func TestChaosSingleSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	rep, err := Run(Options{Seed: 1, Duration: 1200 * time.Millisecond})
	if err != nil {
		t.Fatalf("chaos run failed to start: %v", err)
	}
	t.Log(rep.Summary())
	if !rep.Passed() {
		t.Fatalf("invariant violations:\n%s", strings.Join(rep.Violations, "\n"))
	}
	if rep.Acked == 0 {
		t.Fatal("no transfer was ever acknowledged — the workload never ran")
	}
	if rep.ConservationChecks == 0 {
		t.Fatal("conservation was never checked")
	}
	if rep.ReleaseMS == 0 {
		t.Fatal("the demotion check never measured a demotion")
	}
}

// TestScheduleDeterministic: the nemesis schedule must be a pure function of
// the seed, so a failing run is reproducible from the printed seed alone.
func TestScheduleDeterministic(t *testing.T) {
	opt := Options{Seed: 42, Duration: 5 * time.Second}
	a, b := drawSchedule(optFilled(opt)), drawSchedule(optFilled(opt))
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := drawSchedule(optFilled(Options{Seed: 43, Duration: 5 * time.Second}))
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func optFilled(o Options) Options {
	o.fill()
	return o
}

// TestExecutedScheduleMatchesDraw: the schedule the nemesis reports executing
// is exactly the drawn one, so the report's schedule is trustworthy evidence.
func TestExecutedScheduleMatchesDraw(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	opt := optFilled(Options{Seed: 7, Duration: 400 * time.Millisecond})
	rep, err := Run(opt)
	if err != nil {
		t.Fatalf("chaos run failed to start: %v", err)
	}
	want := drawSchedule(opt)
	if len(rep.Schedule) != len(want) {
		t.Fatalf("executed %d steps, drew %d", len(rep.Schedule), len(want))
	}
	for i := range want {
		if rep.Schedule[i] != want[i].String() {
			t.Fatalf("step %d: executed %q, drew %q", i, rep.Schedule[i], want[i])
		}
	}
}

// TestFloorLeakDetected reverts the floor drop on demotion via the
// repl/floor-leak failpoint and requires the harness to notice: a partitioned
// replica is still demoted, but keeps holding its segment floor, and
// invariant 4 must fail. This proves the harness detects the bug class it
// exists for.
func TestFloorLeakDetected(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	fault.Enable(repl.FPFloorLeak, fault.ReturnErr(repl.ErrBootstrapRequired))
	defer fault.Disable(repl.FPFloorLeak)

	rep, err := Run(Options{
		Seed:         5,
		Duration:     300 * time.Millisecond, // weather is not the point here
		HorizonBound: 1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("chaos run failed to start: %v", err)
	}
	t.Log(rep.Summary())
	if rep.Passed() {
		t.Fatal("floor drop disabled, yet the harness reported all invariants passing")
	}
	found := false
	for _, v := range rep.Violations {
		if strings.Contains(v, "still holds its segment floor") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a demotion violation, got:\n%s", strings.Join(rep.Violations, "\n"))
	}
}
