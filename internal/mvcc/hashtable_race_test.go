package mvcc

import (
	"sync"
	"testing"

	"hybridgc/internal/ts"
)

// TestHashGetRacesGetOrCreate hammers lock-free Get against concurrent
// GetOrCreate on overlapping keys. Run under -race this checks the
// publish-before-visible property: a reader must never observe a chain whose
// Key or Rec fields are still being initialized.
func TestHashGetRacesGetOrCreate(t *testing.T) {
	ht := NewHashTable(64) // tiny table -> long collision lists
	const keys = 1 << 10
	const writers, readers = 4, 4
	var wwg, rwg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(seed uint64) {
			defer wwg.Done()
			x := seed
			for i := 0; i < 20000; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				k := ts.RecordKey{Table: 1, RID: ts.RID(x%keys + 1)}
				c, chains, occupied := ht.GetOrCreate(k, &fakeRecord{})
				ht.add(chains, occupied)
				if c.Key != k {
					t.Errorf("GetOrCreate returned chain for %v, want %v", c.Key, k)
					return
				}
			}
		}(uint64(w)*0x9e3779b97f4a7c15 + 1)
	}
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(seed uint64) {
			defer rwg.Done()
			x := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				x = x*6364136223846793005 + 1442695040888963407
				k := ts.RecordKey{Table: 1, RID: ts.RID(x%keys + 1)}
				if c := ht.Get(k); c != nil {
					if c.Key != k {
						t.Errorf("Get(%v) returned chain keyed %v", k, c.Key)
						return
					}
					if c.Rec == nil {
						t.Errorf("Get(%v) observed chain with nil Rec", k)
						return
					}
				}
			}
		}(uint64(r)*0xbf58476d1ce4e5b9 + 7)
	}

	wwg.Wait()
	close(stop)
	rwg.Wait()

	if got := ht.ChainCount(); got != keys {
		t.Fatalf("ChainCount = %d, want %d", got, keys)
	}
}

// TestHashGetRacesRemove races lock-free Get against the GC unlink path:
// mark a chain dead under its latch, then HashTable.Remove it, exactly as
// Space.dropChainIfEmpty does. Readers must always either find the live
// chain for a key or miss entirely — never crash, never loop forever, and
// never observe a chain for the wrong key.
func TestHashGetRacesRemove(t *testing.T) {
	ht := NewHashTable(16) // tiny table -> every bucket has a long list
	const keys = 512
	mk := func(i int) ts.RecordKey { return ts.RecordKey{Table: 1, RID: ts.RID(i + 1)} }
	for i := 0; i < keys; i++ {
		create(ht, mk(i))
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				x = x*6364136223846793005 + 1442695040888963407
				k := mk(int(x % keys))
				if c := ht.Get(k); c != nil && c.Key != k {
					t.Errorf("Get(%v) returned chain keyed %v", k, c.Key)
					return
				}
			}
		}(uint64(r) + 1)
	}

	// Churn: repeatedly remove and re-create every key, following the
	// collector's protocol (dead under latch, then unlink).
	for round := 0; round < 50; round++ {
		for i := 0; i < keys; i++ {
			c := ht.Get(mk(i))
			if c == nil {
				t.Fatalf("round %d: chain %d missing before remove", round, i)
			}
			c.mu.Lock()
			c.dead = true
			c.mu.Unlock()
			ht.add(ht.Remove(c))
		}
		if got := ht.ChainCount(); got != 0 {
			t.Fatalf("round %d: ChainCount = %d after removing all", round, got)
		}
		for i := 0; i < keys; i++ {
			create(ht, mk(i))
		}
	}
	close(stop)
	wg.Wait()

	if got := ht.ChainCount(); got != keys {
		t.Fatalf("ChainCount = %d, want %d", got, keys)
	}
}

// TestHashStripedStats checks that the striped lookup counters sum correctly
// across concurrent readers.
func TestHashStripedStats(t *testing.T) {
	ht := NewHashTable(64)
	const keys = 256
	for i := 0; i < keys; i++ {
		ht.GetOrCreate(ts.RecordKey{Table: 1, RID: ts.RID(i + 1)}, &fakeRecord{})
	}
	const goroutines, perG = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x := seed
			for i := 0; i < perG; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				ht.Get(ts.RecordKey{Table: 1, RID: ts.RID(x%keys + 1)})
			}
		}(uint64(g) + 1)
	}
	wg.Wait()
	st := ht.Stats()
	if st.Lookups != goroutines*perG {
		t.Fatalf("Lookups = %d, want %d", st.Lookups, goroutines*perG)
	}
	// 256 chains over 64 buckets: collision lists are 4 deep on average, so
	// extra hops must have been recorded.
	if st.ExtraHops == 0 {
		t.Fatal("ExtraHops = 0, want > 0 with 4-deep collision lists")
	}
}
