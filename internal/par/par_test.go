package par

import (
	"strings"
	"sync"
	"testing"
)

func TestCatcherRethrowsFirstPanicWithWorkerStack(t *testing.T) {
	var c Catcher
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer c.Catch()
			if i == 2 {
				panic("kernel blowup")
			}
		}(i)
	}
	wg.Wait()

	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("Rethrow did not panic")
		}
		p, ok := v.(*Panic)
		if !ok {
			t.Fatalf("rethrown value is %T, want *Panic", v)
		}
		if p.Value != "kernel blowup" {
			t.Fatalf("panic value = %v", p.Value)
		}
		if !strings.Contains(p.Error(), "kernel blowup") || !strings.Contains(p.Error(), "goroutine") {
			t.Fatalf("Error() missing value or stack: %q", p.Error())
		}
	}()
	c.Rethrow()
}

func TestCatcherNoopWhenNoPanic(t *testing.T) {
	var c Catcher
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Catch()
		}()
	}
	wg.Wait()
	c.Rethrow() // must not panic
}

func TestCatcherKeepsInnermostStackOnNestedFanOut(t *testing.T) {
	// A nested fan-out wraps the panic once; the outer Catch must pass the
	// existing *Panic through instead of re-wrapping with the outer stack.
	inner := &Panic{Value: "deep", Stack: []byte("inner-stack")}
	var outer Catcher
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer outer.Catch()
		panic(inner)
	}()
	wg.Wait()
	defer func() {
		v := recover()
		if v != inner {
			t.Fatalf("rethrown %v, want the inner *Panic unchanged", v)
		}
	}()
	outer.Rethrow()
}

func TestForRethrowsWorkerPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic was not rethrown on the caller")
		}
	}()
	For(1024, 4, 64, func(_, lo, hi int) {
		if lo > 0 {
			panic("worker died")
		}
	})
}

func TestForChunksAndSerialSlot(t *testing.T) {
	type call struct{ w, lo, hi int }
	var mu sync.Mutex
	var got []call
	record := func(w, lo, hi int) {
		mu.Lock()
		got = append(got, call{w, lo, hi})
		mu.Unlock()
	}
	// 10 items over 4 workers: ceil(10/4) = 3 per chunk, the last short.
	For(10, 4, 0, record)
	want := map[call]bool{{0, 0, 3}: true, {1, 3, 6}: true, {2, 6, 9}: true, {3, 9, 10}: true}
	if len(got) != len(want) {
		t.Fatalf("chunks %v, want %v", got, want)
	}
	for _, c := range got {
		if !want[c] {
			t.Fatalf("unexpected chunk %+v in %v", c, got)
		}
	}
	// Below the grain (or with one worker) the caller runs the whole range
	// in the reserve slot w = workers.
	for _, tc := range []struct{ n, workers, grain int }{{10, 4, 64}, {100, 1, 0}} {
		got = nil
		For(tc.n, tc.workers, tc.grain, record)
		if len(got) != 1 || got[0] != (call{tc.workers, 0, tc.n}) {
			t.Fatalf("For(%d, %d, %d) serial path called %v", tc.n, tc.workers, tc.grain, got)
		}
	}
}
