package checkpoint

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestGenerateFuzzCorpus refreshes the committed seed corpus under
// testdata/fuzz/FuzzDecode. It only runs when CKPT_GEN_CORPUS=1 is
// set; run it after a format-version bump so the corpus tracks the
// current encoding:
//
//	CKPT_GEN_CORPUS=1 go test ./internal/checkpoint -run TestGenerateFuzzCorpus
//
// The seeds are whole encoded states of up to 77 KB, so fuzz FuzzDecode
// with -fuzzminimizetime 0. With the default, Go minimizes every new
// interesting input and the target runs about one exec/s (19 execs in
// 21 s from a cold fuzz cache on 2 vCPUs); without it, 15-25k execs/s
// (1.1-1.3M execs in 60 s):
//
//	go test ./internal/checkpoint -run '^$' -fuzz '^FuzzDecode$' -fuzztime 60s -fuzzminimizetime 0
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("CKPT_GEN_CORPUS") != "1" {
		t.Skip("set CKPT_GEN_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seeds := map[string][]byte{}
	for name, mut := range map[string]func(*State){
		"seed_alpha": func(s *State) {},
		"seed_ruu": func(s *State) {
			s.Model = ModelRUU
			s.Tour, s.Line, s.Way = nil, nil, nil
			s.Hier.VB = nil
			s.Pages = s.Pages[:1]
		},
		"seed_inorder": func(s *State) {
			s.Model = ModelInorder
			s.Tour, s.Line, s.Way = nil, nil, nil
			s.Bimodal = []uint32{1, 2, 3, 2}
			s.Pages = nil
		},
		"seed_nan_register": func(s *State) { s.CPU.F[0] = math.Float64frombits(nanRegister) },
	} {
		s := testState()
		mut(s)
		blob, err := Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		seeds[name] = blob
	}
	// Malformed variants keep the fuzzer's rejection paths covered.
	trunc := append([]byte(nil), seeds["seed_ruu"]...)
	seeds["seed_truncated"] = trunc[:len(trunc)/2]
	skew := append([]byte(nil), seeds["seed_ruu"]...)
	skew[8] = 99
	seeds["seed_version_skew"] = skew
	corrupt := append([]byte(nil), seeds["seed_alpha"]...)
	for i := 100; i < len(corrupt); i += 997 {
		corrupt[i] ^= 0x5a
	}
	seeds["seed_corrupted"] = corrupt
	seeds["seed_magic_only"] = []byte("RSIMCKPT")

	for name, blob := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(blob)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote %d corpus seeds to %s", len(seeds), dir)
}
