package main

import (
	"net/http"
	"sync"
	"testing"
)

// TestServeClassAccounting runs serve-tiered's rounds on a small
// configuration and checks that every request is served from the tier
// its class names: finish fails unless tier-2 hits equal disk requests
// exactly and no cell fell back to local execution.
func TestServeClassAccounting(t *testing.T) {
	cfg := serveConfig{
		hot:          2,
		warm:         20,
		diskPerRound: 1,
		cacheEntries: 12,
		missBase:     2000,
		missSpan:     1 << 10,
	}
	orig := http.DefaultTransport
	s := newServeTiered(7, t.TempDir(), cfg)
	if err := s.setup(); err != nil {
		s.close()
		t.Fatal(err)
	}
	// Per client. Traced rounds record no latency, so the untraced
	// misses must still number 200, enough for a p95.
	const rounds, traced = 130, 20
	var wg sync.WaitGroup
	errs := make(chan error, serveClients)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var tr *tracer
				if i >= rounds-traced && client == 0 {
					tr = newTracer() // traced ops go through the same checks
				}
				if _, err := s.op(client, client*rounds+i, tr); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.finish(); err != nil {
		t.Fatal(err)
	}
	total := uint64(serveClients * rounds)
	if got := s.diskServed.Load(); got != total*uint64(cfg.diskPerRound) {
		t.Fatalf("%d disk requests served, want %d", got, total*uint64(cfg.diskPerRound))
	}
	if got := s.nextMiss.Load(); got != total {
		t.Fatalf("%d misses, want %d", got, total)
	}
	s.close()
	if http.DefaultTransport != orig {
		t.Fatal("close left the default transport wrapped")
	}
}

func TestMissKeysNeverRepeat(t *testing.T) {
	s := newServeTiered(3, "", serveDefaults)
	seen := make(map[uint64]bool)
	for i := uint64(0); i < serveDefaults.missSpan; i++ {
		k, err := s.missKey(i)
		if err != nil {
			t.Fatal(err)
		}
		if seen[k.limit] {
			t.Fatalf("miss %d repeats limit %d", i, k.limit)
		}
		seen[k.limit] = true
	}
	if _, err := s.missKey(serveDefaults.missSpan); err == nil {
		t.Fatal("missKey past the span succeeded")
	}
}
