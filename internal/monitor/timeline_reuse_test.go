package monitor

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/relstore"
	"github.com/robotron-net/robotron/internal/telemetry"
	"github.com/robotron-net/robotron/internal/vclock"
)

// TestTimelineReuseEqualsColdRead: the engine keeps its read of the two
// store streams while their table seqs on the same server stand, and what
// it shows is what a cold read shows. Over seeded histories of design
// changes, syslog-recorded events, reconciler journal entries, replica
// catch-ups and clock moves, a warm engine's Timeline(from, to) equals a
// fresh engine's on the same store and journal after every step, for the
// whole stream and for a window. While the store is down neither shows a
// store entry. Once per history the master dies with a design change the
// replica never received; the promoted replica then stamps a design change
// of its own with the same table seq, and the warm engine must read it
// afresh. A second Timeline with both tables unmoved plans no query.
func TestTimelineReuseEqualsColdRead(t *testing.T) {
	store := map[string]bool{"design": true, "verify": true, "deploy": true, "monitor": true}
	seen := map[string]bool{}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vc := vclock.NewVirtualClock(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC))
		reg := telemetry.NewRegistry()
		master, err := fbnet.Open(relstore.NewDB("timeline-master", reg), fbnet.NewCatalog())
		if err != nil {
			t.Fatal(err)
		}
		replica := relstore.NewReplica(master.DB(), "timeline-replica")
		var journal []JournalEntry
		readJournal := func() []JournalEntry { return journal }
		ts := NewTimeseriesBackend()
		current := master
		warm := NewAlarmEngine(vc, ts, current, reg)
		warm.SetJournalSource(readJournal)
		cls := NewClassifier()
		StandardRules(cls)
		RecordEvents(cls, current)
		planned := func() (n float64) {
			for _, strategy := range []string{"indexed", "scan"} {
				v, _ := reg.Value("robotron_fbnet_queries_planned_total", telemetry.L("strategy", strategy)...)
				n += v
			}
			return n
		}
		designChange := func(description string) {
			t.Helper()
			if _, err := current.Mutate(func(m *fbnet.Mutation) error {
				_, err := m.Create("DesignChange", map[string]any{
					"employee_id": "e1", "ticket_id": fmt.Sprintf("T%d", rng.Intn(100)), "description": description,
					"domain": "dc", "created_unix": vc.Now().Add(-time.Duration(rng.Intn(600)) * time.Second).Unix(),
					"num_created": int64(rng.Intn(5)), "num_modified": int64(rng.Intn(5)), "num_deleted": int64(0),
				})
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
		// compare checks the warm engine against a cold one after a step.
		compare := func(step int, what string, down bool) {
			t.Helper()
			cold := NewAlarmEngine(vc, ts, current, nil)
			cold.SetJournalSource(readJournal)
			now := vc.Now()
			for _, window := range [][2]time.Time{{}, {now.Add(-5 * time.Minute), now}} {
				got, want := warm.Timeline(window[0], window[1]), cold.Timeline(window[0], window[1])
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d (%s): the warm timeline\n%v\nthe cold one\n%v", seed, step, what, got, want)
				}
				for _, e := range got {
					if down && store[e.Stage] {
						t.Fatalf("seed %d step %d: the store is down and the timeline shows %v", seed, step, e)
					}
				}
			}
			if down {
				return
			}
			before := planned()
			warm.Timeline(time.Time{}, time.Time{})
			if n := planned() - before; n != 0 {
				t.Fatalf("seed %d step %d (%s): a timeline with both tables unmoved planned %v queries", seed, step, what, n)
			}
		}
		promoteAt := 20 + rng.Intn(20)
		for step := 0; step < 50; step++ {
			vc.Advance(time.Duration(rng.Intn(120)) * time.Second)
			what := ""
			switch k := rng.Intn(6); {
			case step == promoteAt:
				// The replica holds everything but the master's last
				// commit, which the warm engine has read.
				what = "promotion"
				if err := replica.CatchUp(); err != nil {
					t.Fatal(err)
				}
				designChange("lost with the master")
				compare(step, "the master's last commit", false)
				lost, err := current.TableSeq("DesignChange")
				if err != nil {
					t.Fatal(err)
				}
				master.DB().SetDown(true)
				current = master.ReadOnlyView(replica.Promote())
				warm.store = current
				cls = NewClassifier()
				StandardRules(cls)
				RecordEvents(cls, current)
				designChange("the promoted server's own")
				if seq, err := current.TableSeq("DesignChange"); err != nil || seq != lost {
					t.Fatalf("seed %d: the promoted server's DesignChange seq is %d (%v), want the lost commit's %d", seed, seq, err, lost)
				}
			case k == 0:
				what = "design change"
				designChange(fmt.Sprintf("change %d", step))
			case k == 1:
				what = "syslog event"
				host := fmt.Sprintf("dev%d", rng.Intn(4))
				text := []string{"%SYS-2-DEVICE_REBOOT: reloaded", "%LINK-3-LINK_STATE: Interface et1 changed state to down",
					"%SYS-5-CONFIG_CHANGED: by admin", "%LSP-6-NOISE: LSP change"}[rng.Intn(4)]
				cls.Process(netsim.SyslogMessage{Severity: 3, Host: host, App: "sys", Text: text, Time: vc.Now()})
			case k == 2:
				what = "journal entry"
				journal = append(journal, JournalEntry{At: vc.Now(), Device: fmt.Sprintf("dev%d", rng.Intn(4)), Type: "drift-detected", Detail: "diff"})
			case k == 3 && current == master:
				what = "replica catch-up"
				if err := replica.CatchUp(); err != nil {
					t.Fatal(err)
				}
			case k == 4 && current == master:
				what = "store down"
				current.DB().SetDown(true)
				compare(step, what, true)
				current.DB().SetDown(false)
			default:
				what = "nothing"
			}
			seen[what] = true
			compare(step, what, false)
		}
	}
	for _, what := range []string{"design change", "syslog event", "journal entry", "replica catch-up", "store down", "promotion"} {
		if !seen[what] {
			t.Errorf("no history had a step of %s", what)
		}
	}
}
