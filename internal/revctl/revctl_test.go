package revctl

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestCommitAndHead(t *testing.T) {
	r := NewRepo()
	rev, err := r.Commit("configs/pr1.pop1", "version 1\n", "alice", "initial")
	if err != nil {
		t.Fatal(err)
	}
	if rev.Number != 1 || rev.Author != "alice" {
		t.Errorf("rev = %+v", rev)
	}
	head, ok := r.Head("configs/pr1.pop1")
	if !ok || head.Number != 1 {
		t.Errorf("head = %+v %v", head, ok)
	}
	content, err := r.GetHead("configs/pr1.pop1")
	if err != nil || content != "version 1\n" {
		t.Errorf("GetHead = %q, %v", content, err)
	}
}

func TestIdenticalCommitIsNoop(t *testing.T) {
	r := NewRepo()
	r1, _ := r.Commit("p", "same", "a", "m1")
	r2, _ := r.Commit("p", "same", "b", "m2")
	if r2.Number != r1.Number {
		t.Errorf("identical content created revision %d", r2.Number)
	}
	hist, _ := r.History("p")
	if len(hist) != 1 {
		t.Errorf("history length = %d", len(hist))
	}
}

func TestHistoryAndGet(t *testing.T) {
	r := NewRepo()
	for i := 1; i <= 3; i++ {
		r.Commit("p", fmt.Sprintf("v%d", i), "a", fmt.Sprintf("commit %d", i))
	}
	hist, err := r.History("p")
	if err != nil || len(hist) != 3 {
		t.Fatalf("history = %v, %v", hist, err)
	}
	for i, rev := range hist {
		if rev.Number != i+1 {
			t.Errorf("rev %d number = %d", i, rev.Number)
		}
		content, err := r.Get("p", rev.Number)
		if err != nil || content != fmt.Sprintf("v%d", i+1) {
			t.Errorf("Get rev %d = %q, %v", rev.Number, content, err)
		}
	}
	if _, err := r.Get("p", 99); err == nil {
		t.Error("out-of-range revision should fail")
	}
	if _, err := r.Get("missing", 1); err == nil {
		t.Error("missing path should fail")
	}
}

func TestDiff(t *testing.T) {
	r := NewRepo()
	r.Commit("p", "a\nb\nc\n", "x", "1")
	r.Commit("p", "a\nB\nc\n", "x", "2")
	d, err := r.Diff("p", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(d, "- b") || !strings.Contains(d, "+ B") {
		t.Errorf("diff = %q", d)
	}
}

func TestRollback(t *testing.T) {
	r := NewRepo()
	r.Commit("p", "good", "a", "1")
	r.Commit("p", "bad", "mallory", "2")
	rev, err := r.Rollback("p", 1, "ops")
	if err != nil {
		t.Fatal(err)
	}
	if rev.Number != 3 {
		t.Errorf("rollback revision = %d, want 3 (new head)", rev.Number)
	}
	content, _ := r.GetHead("p")
	if content != "good" {
		t.Errorf("content after rollback = %q", content)
	}
}

func TestPaths(t *testing.T) {
	r := NewRepo()
	r.Commit("b", "x", "a", "")
	r.Commit("a", "x", "a", "")
	got := r.Paths()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Paths = %v", got)
	}
}

func TestEmptyPathRejected(t *testing.T) {
	r := NewRepo()
	if _, err := r.Commit("", "x", "a", ""); err == nil {
		t.Error("empty path should fail")
	}
}

func TestConcurrentCommits(t *testing.T) {
	r := NewRepo()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("configs/dev%d", i%5)
			for j := 0; j < 10; j++ {
				if _, err := r.Commit(path, fmt.Sprintf("content %d-%d", i, j), "a", ""); err != nil {
					t.Error(err)
				}
			}
		}(i)
	}
	wg.Wait()
	if len(r.Paths()) != 5 {
		t.Errorf("paths = %v", r.Paths())
	}
}

// Property: Get(path, n) always returns exactly what was committed as the
// n-th distinct content.
func TestQuickHistoryFidelity(t *testing.T) {
	f := func(contents []string) bool {
		r := NewRepo()
		var distinct []string
		for _, c := range contents {
			rev, err := r.Commit("p", c, "a", "")
			if err != nil {
				return false
			}
			if len(distinct) == 0 || distinct[len(distinct)-1] != c {
				distinct = append(distinct, c)
			}
			if rev.Number != len(distinct) {
				return false
			}
		}
		for i, want := range distinct {
			got, err := r.Get("p", i+1)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestHashIsSha256HexWithoutCopy: Hash is sha256 in hex, and hashing a
// config allocates only the returned string, not a copy of the config.
func TestHashIsSha256HexWithoutCopy(t *testing.T) {
	config := strings.Repeat("interface et1/1\n description uplink\n", 200)
	for _, content := range []string{"", "x", config} {
		sum := sha256.Sum256([]byte(content))
		if got, want := Hash(content), hex.EncodeToString(sum[:]); got != want {
			t.Errorf("Hash(%d bytes) = %s, want %s", len(content), got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { Hash(config) }); allocs > 1 {
		t.Errorf("Hash allocates %v times, want only the hex string", allocs)
	}
}
