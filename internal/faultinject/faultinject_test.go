package faultinject

import (
	"errors"
	"strconv"
	"testing"
	"time"
)

func TestDisarmedIsNoop(t *testing.T) {
	Reset()
	if err := Eval(StoreWriteError); err != nil {
		t.Fatalf("disarmed Eval returned %v", err)
	}
	if got := Armed(); len(got) != 0 {
		t.Fatalf("armed list %v on a reset harness", got)
	}
}

func TestErrorModeCountAndSkip(t *testing.T) {
	Reset()
	defer Reset()
	if err := Enable(StoreWriteError, "error*2@1"); err != nil {
		t.Fatal(err)
	}
	// One skipped, two fired, then quiet forever.
	want := []bool{false, true, true, false, false}
	for i, fire := range want {
		err := Eval(StoreWriteError)
		if fire != (err != nil) {
			t.Fatalf("eval %d: err=%v, want fire=%v", i, err, fire)
		}
		if err != nil && !errors.Is(err, ErrInjected) {
			t.Fatalf("eval %d: %v does not wrap ErrInjected", i, err)
		}
	}
	if got := Hits(StoreWriteError); got != 2 {
		t.Fatalf("hits = %d, want 2", got)
	}
}

func TestSleepMode(t *testing.T) {
	Reset()
	defer Reset()
	if err := Enable(StreamStall, "sleep(20ms)*1"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Eval(StreamStall); err != nil {
		t.Fatalf("sleep mode returned error %v", err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("sleep failpoint returned after %v, want >= 20ms", d)
	}
	// Count spent: the second evaluation must be instant.
	start = time.Now()
	Eval(StreamStall)
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Fatalf("spent sleep failpoint still slept %v", d)
	}
}

func TestPanicMode(t *testing.T) {
	Reset()
	defer Reset()
	if err := Enable(WorkerPanic, "panic*1"); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic failpoint did not panic")
			}
		}()
		Eval(WorkerPanic)
	}()
	// One-shot: the next evaluation is quiet.
	if err := Eval(WorkerPanic); err != nil {
		t.Fatalf("spent panic failpoint returned %v", err)
	}
}

func TestDisableAndReset(t *testing.T) {
	Reset()
	defer Reset()
	if err := Enable(StoreWriteError, "error"); err != nil {
		t.Fatal(err)
	}
	if err := Enable(StreamDrop, "error"); err != nil {
		t.Fatal(err)
	}
	if got := Armed(); len(got) != 2 {
		t.Fatalf("armed %v, want 2 sites", got)
	}
	Disable(StoreWriteError)
	if err := Eval(StoreWriteError); err != nil {
		t.Fatalf("disabled failpoint fired: %v", err)
	}
	if err := Eval(StreamDrop); err == nil {
		t.Fatal("sibling failpoint was disarmed by Disable of another name")
	}
	Reset()
	if err := Eval(StreamDrop); err != nil {
		t.Fatalf("failpoint fired after Reset: %v", err)
	}
}

func TestSpecErrors(t *testing.T) {
	Reset()
	defer Reset()
	for _, spec := range []string{
		"", "explode", "error*0", "error*x", "error@-1",
		"sleep", "sleep(nope)", "sleep(50ms", "error(arg)",
	} {
		if err := Enable(StoreWriteError, spec); err == nil {
			t.Fatalf("spec %q was accepted", spec)
		}
	}
	if got := Armed(); len(got) != 0 {
		t.Fatalf("failed Enables left %v armed", got)
	}
}

// TestUnknownNameRejected: a name no site evaluates — empty, typo'd or
// a prefix of a real one — is an error, from Enable and from the
// environment, and arms nothing.
func TestUnknownNameRejected(t *testing.T) {
	Reset()
	defer Reset()
	for _, name := range []string{"", "x", "store.writ.error", "store.write", "Store.Write.Error"} {
		if err := Enable(name, "error*1"); err == nil {
			t.Fatalf("failpoint name %q was accepted", name)
		}
	}
	t.Setenv(EnvVar, "store.writ.error=error*1")
	if err := LoadEnv(); err == nil {
		t.Fatal("LoadEnv accepted a typo'd failpoint name")
	}
	if got := Armed(); len(got) != 0 {
		t.Fatalf("rejected names left %v armed", got)
	}
	for _, name := range sites {
		if err := Enable(name, "error*1"); err != nil {
			t.Fatalf("site %s rejected: %v", name, err)
		}
	}
}

func TestLoadEnv(t *testing.T) {
	Reset()
	defer Reset()
	t.Setenv(EnvVar, "store.write.error=error*1; sweep.worker.panic=panic*1@2")
	if err := LoadEnv(); err != nil {
		t.Fatal(err)
	}
	if got := Armed(); len(got) != 2 {
		t.Fatalf("armed %v, want 2 sites from the environment", got)
	}
	Reset()
	t.Setenv(EnvVar, "store.write.error")
	if err := LoadEnv(); err == nil {
		t.Fatal("malformed plan was accepted")
	}
}

// FuzzParseSpec: parseSpec never panics, an accepted spec is within the
// grammar's bounds, and re-rendered as mode[(arg)][*count][@skip] it
// parses to the same failpoint.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range []string{
		"error", "error*1", "error*2@3", "sleep(50ms)", "panic*1", "sleep(1h2m)*3@0",
		"error@+2", "error*01", "sleep(0)", "sleep(50ms", "error(x)", "*1@2", "",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		fp, err := parseSpec(spec)
		if err != nil {
			return
		}
		switch {
		case fp.mode != "error" && fp.mode != "panic" && fp.mode != "sleep":
			t.Fatalf("%q: accepted mode %q", spec, fp.mode)
		case fp.count < 1 && fp.count != -1:
			t.Fatalf("%q: accepted count %d", spec, fp.count)
		case fp.skip < 0 || fp.sleep < 0:
			t.Fatalf("%q: accepted skip %d, sleep %v", spec, fp.skip, fp.sleep)
		}
		out := fp.mode
		if fp.mode == "sleep" {
			out += "(" + fp.sleep.String() + ")"
		}
		if fp.count != -1 {
			out += "*" + strconv.FormatInt(fp.count, 10)
		}
		if fp.skip != 0 {
			out += "@" + strconv.FormatInt(fp.skip, 10)
		}
		again, err := parseSpec(out)
		if err != nil {
			t.Fatalf("%q re-rendered as %q: %v", spec, out, err)
		}
		if again != fp {
			t.Fatalf("%q re-rendered as %q parses to %+v, want %+v", spec, out, again, fp)
		}
	})
}
