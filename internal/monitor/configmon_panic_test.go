package monitor

import (
	"strings"
	"sync"
	"testing"
)

// TestConfigMonitorRecoversPanickingCheck: a panic out of a backend
// check (here the golden resolver) must not kill the classifier's
// alert path — it is converted to a check error, counted in both
// robotron_monitor_check_errors_total and _check_panics_total, and
// delivered to OnCheckError.
func TestConfigMonitorRecoversPanickingCheck(t *testing.T) {
	_, jm, store, repo := newMonitoredFleet(t, 1)
	cls := NewClassifier()
	StandardRules(cls)
	reg := registryOf(store)
	cm := NewConfigMonitor(jm, repo, store, func(d string) (string, error) {
		panic("golden store corrupted")
	}, reg)
	cm.Attach(cls)
	panics := func() int64 { return counterValue(reg, "robotron_monitor_check_panics_total") }
	checkErrs := func() int64 { return counterValue(reg, "robotron_monitor_check_errors_total") }

	var mu sync.Mutex
	var heard []string
	cm.OnCheckError(func(device string, err error) {
		mu.Lock()
		heard = append(heard, device+": "+err.Error())
		mu.Unlock()
	})

	// Direct call: the panic surfaces as an error, not a crash.
	if _, err := cm.CheckDevice("dev00"); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("CheckDevice err = %v, want recovered panic", err)
	}
	if n := panics(); n != 1 {
		t.Errorf("check panics = %d, want 1", n)
	}
	// Alert-triggered call: same recovery, plus the error-counter/hook
	// pair advances together.
	cls.Process(msg("dev00", "CONFIG_CHANGED: configuration changed out-of-band"))
	if n := checkErrs(); n != 1 {
		t.Errorf("check errors = %d, want 1 (only the alert-triggered check routes to noteCheckError)", n)
	}
	if n := panics(); n != 2 {
		t.Errorf("check panics = %d, want 2", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(heard) != 1 || !strings.Contains(heard[0], "dev00") || !strings.Contains(heard[0], "panicked") {
		t.Fatalf("OnCheckError heard = %v", heard)
	}
}

// TestNoteCheckErrorAtomicWithHook: the counter and the hook fire in
// one critical section — a handler observing the count mid-callback
// always sees a value that includes its own invocation, with no window
// where the counter ran ahead of (or behind) the callbacks. Run with
// -race.
func TestNoteCheckErrorAtomicWithHook(t *testing.T) {
	_, jm, store, repo := newMonitoredFleet(t, 1)
	cm := NewConfigMonitor(jm, repo, store, func(d string) (string, error) {
		return "", nil
	}, registryOf(store))
	var calls int64
	cm.OnCheckError(func(device string, err error) {
		calls++ // guarded by cm.mu: handlers run under the monitor's lock
		if n := cm.checkErrs.Value(); calls != n {
			t.Errorf("handler saw calls=%d but check errors=%d", calls, n)
		}
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				cm.noteCheckError("dev00", errFake)
			}
		}()
	}
	wg.Wait()
	if n := cm.checkErrs.Value(); n != 800 {
		t.Errorf("check errors = %d, want 800", n)
	}
	cm.mu.Lock()
	defer cm.mu.Unlock()
	if calls != 800 {
		t.Errorf("handler calls = %d, want 800", calls)
	}
}

var errFake = &fakeErr{}

type fakeErr struct{}

func (*fakeErr) Error() string { return "synthetic check failure" }
