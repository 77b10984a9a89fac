package server

import (
	"net"
	"testing"
	"time"

	"hybridgc/internal/client"
	"hybridgc/internal/core"
	"hybridgc/internal/tpcc"
)

// benchTPCC sizes BenchmarkRemoteTxn's database: one warehouse, one worker.
var benchTPCC = tpcc.Config{Warehouses: 1, Districts: 10, CustomersPerDistrict: 30, Items: 200, Seed: 7}

// benchWarmup is how many transactions run before the timer starts, so that
// Delivery and Stock-Level find orders to work on.
const benchWarmup = 300

// BenchmarkRemoteTxn runs the TPC-C standard mix with one closed-loop worker.
// The wire leg goes through tpcc.RemoteBackend to a loopback server and
// reports txn/s and frames/txn — request frames the server read per committed
// transaction, a count that repeats exactly for a seed and an iteration
// count. The inproc leg runs the same mix on tpcc.LocalBackend and reports
// allocs/op: what the driver's batch surface costs where no frame is saved.
func BenchmarkRemoteTxn(b *testing.B) {
	run := func(b *testing.B, drv *tpcc.Driver) *tpcc.Worker {
		if err := drv.Load(); err != nil {
			b.Fatal(err)
		}
		wk := drv.NewWorker(1)
		if err := wk.Run(benchWarmup, nil); err != nil {
			b.Fatal(err)
		}
		return wk
	}
	b.Run("wire", func(b *testing.B) {
		db, err := core.Open(core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		srv, err := New(db, Config{})
		if err != nil {
			b.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go srv.Serve(ln)
		defer srv.Shutdown(5 * time.Second)
		cl, err := client.Dial(client.Config{Addr: ln.Addr().String(), MaxConns: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		drv, err := tpcc.NewWithBackend(tpcc.RemoteBackend(cl), benchTPCC)
		if err != nil {
			b.Fatal(err)
		}
		wk := run(b, drv)
		frames, committed := srv.requests.Value(), wk.Stats.TotalCommitted()
		b.ResetTimer()
		if err := wk.Run(b.N, nil); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		frames, committed = srv.requests.Value()-frames, wk.Stats.TotalCommitted()-committed
		b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "txn/s")
		if committed > 0 {
			b.ReportMetric(float64(frames)/float64(committed), "frames/txn")
		}
	})
	b.Run("inproc", func(b *testing.B) {
		db, err := core.Open(core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		drv, err := tpcc.New(db, benchTPCC)
		if err != nil {
			b.Fatal(err)
		}
		wk := run(b, drv)
		b.ReportAllocs()
		b.ResetTimer()
		if err := wk.Run(b.N, nil); err != nil {
			b.Fatal(err)
		}
	})
}
