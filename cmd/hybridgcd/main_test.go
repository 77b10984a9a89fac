package main

import (
	"flag"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"hybridgc/internal/node"
	"hybridgc/internal/repl"
	"hybridgc/internal/server"
	"hybridgc/internal/workload"
)

func parseArgs(args ...string) (node.Config, *flag.FlagSet, error) {
	fs := flag.NewFlagSet("hybridgcd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg, _, err := parse(fs, args)
	return cfg, fs, err
}

// TestFlagSet pins the command line: the flags hybridgcd -h lists are the
// ones it has always had.
func TestFlagSet(t *testing.T) {
	_, fs, err := parseArgs()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := strings.Fields(`addr token maxconns idle gc soft hard shards data sync checkpoint-every
		replica-of replica-id upstream-token token-wait repl-stale-after repl-write-timeout
		htap htap-every cpuprofile memprofile pprof-addr`)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flag set changed:\n got %v\nwant %v", got, want)
	}
}

// TestParse maps flag sets to the node.Config they produce, or to the error
// naming the flag the chosen role cannot honour.
func TestParse(t *testing.T) {
	srv := server.Config{Addr: "127.0.0.1:7654", MaxConns: 256, IdleTimeout: 2 * time.Minute}
	for _, tc := range []struct {
		args string
		want node.Config
		err  string
	}{
		{args: "", want: node.Config{GC: workload.ModeHG, Shards: 1, Server: srv}},
		{args: "-gc gt -shards 4 -htap",
			want: node.Config{GC: workload.ModeGT, Shards: 4, HTAP: true, HTAPEvery: 25 * time.Millisecond, Server: srv}},
		{args: "-data d -sync -checkpoint-every 30s -repl-stale-after 2s -repl-write-timeout 1s",
			want: node.Config{GC: workload.ModeHG, Shards: 1, Data: "d", Sync: true, CheckpointEvery: 30 * time.Second,
				Server: srv, Source: repl.SourceConfig{StaleAfter: 2 * time.Second, WriteTimeout: time.Second}}},
		{args: "-replica-of p:1 -upstream-token s -repl-stale-after 2s",
			want: node.Config{GC: workload.ModeHG, Shards: 1, TokenWait: 150 * time.Millisecond, Server: srv,
				Replica: repl.ReplicaConfig{Upstream: "p:1", ReplicaID: "replica", Token: "s", StallTimeout: 2 * time.Second}}},
		{args: "-gc bogus", err: `unknown -gc mode "bogus"`},
		{args: "-replica-of p:1 -shards 2", err: "-shards"},
		{args: "-replica-of p:1 -data d", err: "-data"},
		{args: "-replica-of p:1 -checkpoint-every 1s", err: "-checkpoint-every"},
		{args: "-replica-of p:1 -htap", err: "-htap"},
		{args: "-replica-of p:1 -htap-every 1ms", err: "-htap-every"},
		{args: "-checkpoint-every 1s", err: "-checkpoint-every"},
		{args: "-sync", err: "-sync"},
		{args: "-htap-every 1ms", err: "-htap-every"},
		{args: "-token-wait 1s", err: "-token-wait"},
		{args: "-replica-id r1", err: "-replica-id"},
		{args: "-upstream-token s", err: "-upstream-token"},
		{args: "-repl-stale-after 1s", err: "-repl-stale-after"},
		{args: "-shards 2 -data d -repl-write-timeout 1s", err: "-repl-write-timeout"},
	} {
		got, _, err := parseArgs(strings.Fields(tc.args)...)
		switch {
		case tc.err != "":
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%q: error %v, want one naming %s", tc.args, err, tc.err)
			}
		case err != nil:
			t.Errorf("%q: %v", tc.args, err)
		case !reflect.DeepEqual(got, tc.want):
			t.Errorf("%q:\n got %+v\nwant %+v", tc.args, got, tc.want)
		}
	}
}
