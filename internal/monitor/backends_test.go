package monitor

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/vclock"
)

// Regression: Store used to record only in_octets for interface
// collections, so egress series silently never existed and any alarm on
// out_octets could not fire.
func TestTimeseriesStoreBothOctetDirections(t *testing.T) {
	ts := NewTimeseriesBackend()
	err := ts.Store(Collection{
		Device: "sw1", Data: DataInterfaces, At: time.Unix(1000, 0),
		Interfaces: []netsim.IfaceStatus{
			{Name: "et1/1", OperStatus: "up", SpeedMbps: 10000, InOctets: 111, OutOctets: 222},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	in := ts.Series("sw1/et1/1/in_octets")
	out := ts.Series("sw1/et1/1/out_octets")
	if len(in) != 1 || in[0].Value != 111 {
		t.Fatalf("in_octets series = %+v, want one sample of 111", in)
	}
	if len(out) != 1 || out[0].Value != 222 {
		t.Fatalf("out_octets series = %+v, want one sample of 222", out)
	}
}

func TestTimeseriesRetentionRing(t *testing.T) {
	ts := NewTimeseriesBackend()
	const retention = DefaultSeriesRetention
	for i := 0; i < retention*3; i++ {
		err := ts.Store(Collection{
			Device: "sw1", Data: DataCounters, At: time.Unix(int64(i), 0),
			Counters: map[string]float64{"cpu_util": float64(i)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	got := ts.Series("sw1/cpu_util")
	// Length is capped at the retention and only the newest samples
	// survive, oldest first.
	if len(got) != retention {
		t.Fatalf("series length = %d, want %d", len(got), retention)
	}
	for i, s := range got {
		want := float64(retention*2 + i)
		if s.Value != want || s.AtUnix != int64(want) {
			t.Fatalf("sample %d = %+v, want value %g", i, s, want)
		}
	}
	// Alloc guard: the ring stops growing at its limit no matter how many
	// polls feed it.
	ts.mu.Lock()
	r := ts.lookupLocked("sw1", "cpu_util")
	if len(r.buf) != retention || r.limit != retention {
		ts.mu.Unlock()
		t.Fatalf("ring buf len=%d limit=%d, want both %d", len(r.buf), r.limit, retention)
	}
	ts.mu.Unlock()
	// Last respects ring order across the wrap point.
	last := ts.Last("sw1/cpu_util", 3)
	if len(last) != 3 || last[2].Value != float64(retention*3-1) {
		t.Fatalf("Last(3) = %+v", last)
	}
}

// TestHistoriesCostWhatTheyHold guards the one ring every in-memory
// history rides: a series is not charged its retention up front, and a full
// alert history takes the next alert without copying itself.
func TestHistoriesCostWhatTheyHold(t *testing.T) {
	ts := NewTimeseriesBackend()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 1000; i++ {
		err := ts.Store(Collection{
			Device: fmt.Sprintf("sw%d", i), Data: DataCounters, At: time.Unix(1, 0),
			Counters: map[string]float64{"cpu_util": 1},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("1,000 one-sample series allocated %d bytes, want under 1 MB", got)
	}

	ae := NewAlarmEngine(vclock.RealClock(), ts, nil, nil)
	alert := Alert{Rule: "link-flap", Message: netsim.SyslogMessage{Host: "sw1", Time: time.Unix(1, 0)}}
	for i := 0; i < 10000; i++ {
		ae.ObserveAlert(alert)
	}
	if n := testing.AllocsPerRun(100, func() { ae.ObserveAlert(alert) }); n != 0 {
		t.Errorf("ObserveAlert on a full history allocates %v times", n)
	}
	if got := len(ae.alerts.all()); got != historyLimit {
		t.Errorf("alert history holds %d, want %d", got, historyLimit)
	}

	// Past its limit a ring keeps the newest elements, oldest first.
	r := ring[int]{limit: 3}
	for i := 1; i <= 8; i++ {
		r.push(i)
		want := []int{i - 2, i - 1, i}[max(0, 3-i):]
		if got := r.all(); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d pushes ring holds %v, want %v", i, got, want)
		}
	}
	if got := r.last(2); !reflect.DeepEqual(got, []int{7, 8}) {
		t.Errorf("last(2) = %v", got)
	}
}
