package faults

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"axml/internal/core"
	"axml/internal/tree"
)

func okService() core.Service {
	return core.ConstService("svc", tree.Forest{tree.NewLabel("ok")})
}

func TestErrorEveryK(t *testing.T) {
	f := &FaultService{Service: okService(), ErrorEvery: 3}
	var failed []int
	for i := 1; i <= 9; i++ {
		_, err := f.Invoke(context.Background(), core.Binding{})
		if err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("call %d: %v", i, err)
			}
			failed = append(failed, i)
		}
	}
	if len(failed) != 3 || failed[0] != 3 || failed[1] != 6 || failed[2] != 9 {
		t.Fatalf("failed calls = %v, want [3 6 9]", failed)
	}
	if f.Calls() != 9 || f.Injected() != 3 {
		t.Fatalf("calls=%d injected=%d", f.Calls(), f.Injected())
	}
}

func TestFailFirstN(t *testing.T) {
	f := &FaultService{Service: okService(), FailFirst: 2}
	for i := 1; i <= 4; i++ {
		_, err := f.Invoke(context.Background(), core.Binding{})
		if (i <= 2) != (err != nil) {
			t.Fatalf("call %d: err = %v", i, err)
		}
	}
	if f.Injected() != 2 {
		t.Fatalf("injected = %d", f.Injected())
	}
}

func TestSeededRateIsReproducible(t *testing.T) {
	pattern := func() []bool {
		f := &FaultService{Service: okService(), Rate: 0.5, Seed: 7}
		var out []bool
		for i := 0; i < 32; i++ {
			_, err := f.Invoke(context.Background(), core.Binding{})
			out = append(out, err != nil)
		}
		return out
	}
	a, b := pattern(), pattern()
	some := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded schedules diverge at %d: %v vs %v", i, a, b)
		}
		some = some || a[i]
	}
	if !some {
		t.Fatal("rate 0.5 over 32 calls injected nothing")
	}
}

func TestLatencyAndSpikes(t *testing.T) {
	var slept []time.Duration
	f := &FaultService{
		Service:    okService(),
		Latency:    time.Millisecond,
		SpikeEvery: 2,
		Spike:      5 * time.Millisecond,
		Sleep:      func(d time.Duration) { slept = append(slept, d) },
	}
	for i := 0; i < 4; i++ {
		if _, err := f.Invoke(context.Background(), core.Binding{}); err != nil {
			t.Fatal(err)
		}
	}
	want := []time.Duration{1, 6, 1, 6}
	for i, d := range slept {
		if d != want[i]*time.Millisecond {
			t.Fatalf("slept = %v", slept)
		}
	}
}

func TestFaultServiceDelegatesWhenHealthy(t *testing.T) {
	f := &FaultService{Service: okService()}
	forest, err := f.Invoke(context.Background(), core.Binding{})
	if err != nil || len(forest) != 1 || forest[0].Name != "ok" {
		t.Fatalf("forest=%v err=%v", forest, err)
	}
	if f.Unwrap().ServiceName() != "svc" {
		t.Fatal("Unwrap broken")
	}
}

func TestFlakyHandler(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})
	srv := httptest.NewServer(FlakyHandler(h, 2))
	defer srv.Close()
	want := []int{http.StatusOK, http.StatusBadGateway, http.StatusOK, http.StatusBadGateway}
	for i, status := range want {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != status {
			t.Fatalf("request %d: status %d, want %d", i+1, resp.StatusCode, status)
		}
	}
}

func TestCrashWriterTearsExactWrite(t *testing.T) {
	var sink bytes.Buffer
	c := &CrashWriter{W: &sink, CrashAt: 3, Partial: 2}
	for i := 0; i < 2; i++ {
		n, err := c.Write([]byte("abcd"))
		if n != 4 || err != nil {
			t.Fatalf("write %d: n=%d err=%v", i+1, n, err)
		}
	}
	if c.Crashed() {
		t.Fatal("crashed early")
	}
	n, err := c.Write([]byte("abcd"))
	if n != 2 || !errors.Is(err, ErrCrash) {
		t.Fatalf("crash write: n=%d err=%v", n, err)
	}
	if !c.Crashed() {
		t.Fatal("crash not recorded")
	}
	// Dead processes do not write: later writes fail without output.
	if n, err := c.Write([]byte("zz")); n != 0 || !errors.Is(err, ErrCrash) {
		t.Fatalf("post-crash write: n=%d err=%v", n, err)
	}
	if got := sink.String(); got != "abcdabcdab" {
		t.Fatalf("bytes on disk: %q", got)
	}
	// Post-crash attempts are not counted: the process was already dead.
	if c.Writes() != 3 {
		t.Fatalf("writes counted: %d", c.Writes())
	}
}

func TestCrashWriterPartialClampedToWriteSize(t *testing.T) {
	var sink bytes.Buffer
	c := &CrashWriter{W: &sink, CrashAt: 1, Partial: 99}
	n, err := c.Write([]byte("ab"))
	if n != 2 || !errors.Is(err, ErrCrash) {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if sink.String() != "ab" {
		t.Fatalf("bytes: %q", sink.String())
	}
}

func TestCrashWriterZeroNeverCrashes(t *testing.T) {
	var sink bytes.Buffer
	c := &CrashWriter{W: &sink}
	for i := 0; i < 10; i++ {
		if _, err := c.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if c.Crashed() {
		t.Fatal("crashed with CrashAt=0")
	}
}
