package runner

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapPreservesInputOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, par := range []int{1, 2, 8, 200} {
		got, err := Map(par, items, func(i, v int) (int, error) {
			return v * v, nil
		})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if len(got) != len(items) {
			t.Fatalf("par=%d: %d results, want %d", par, len(got), len(items))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("par=%d: got[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(4, nil, func(i, v int) (int, error) { return v, nil })
	if err != nil || got != nil {
		t.Fatalf("empty input: got %v, %v", got, err)
	}
}

func TestMapRunsEveryCellDespiteErrors(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	var ran atomic.Int32
	got, err := Map(3, items, func(i, v int) (string, error) {
		ran.Add(1)
		if v%2 == 1 {
			return "", fmt.Errorf("odd %d", v)
		}
		return fmt.Sprintf("ok%d", v), nil
	})
	if int(ran.Load()) != len(items) {
		t.Fatalf("ran %d cells, want %d", ran.Load(), len(items))
	}
	if err == nil {
		t.Fatal("expected joined error")
	}
	// Failed cells hold the zero value; successful ones their result.
	for i, v := range got {
		if i%2 == 0 && v != fmt.Sprintf("ok%d", i) {
			t.Errorf("got[%d] = %q", i, v)
		}
		if i%2 == 1 && v != "" {
			t.Errorf("got[%d] = %q, want zero value", i, v)
		}
	}
	// Errors are index-ordered and carry their cell index.
	msg := err.Error()
	if !strings.Contains(msg, "cell 1") || !strings.Contains(msg, "cell 7") {
		t.Errorf("error missing cell indices: %v", msg)
	}
	if strings.Index(msg, "cell 1") > strings.Index(msg, "cell 3") {
		t.Errorf("errors not index-ordered: %v", msg)
	}
	var cerr CellError
	if !errors.As(err, &cerr) {
		t.Error("joined error does not expose CellError")
	}
}

func TestMapRecoversPanics(t *testing.T) {
	_, err := Map(2, []int{0, 1, 2}, func(i, v int) (int, error) {
		if v == 1 {
			panic("boom")
		}
		return v, nil
	})
	if err == nil || !strings.Contains(err.Error(), "panic: boom") {
		t.Fatalf("panic not converted to error: %v", err)
	}
	var cerr CellError
	if !errors.As(err, &cerr) || cerr.Index != 1 {
		t.Fatalf("panic cell index not preserved: %v", err)
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("positive knob not honored")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Error("defaulted worker count not positive")
	}
}
