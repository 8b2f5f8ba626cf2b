package relstore

import (
	"errors"
	"testing"
	"time"
)

// TestViewReleasesPinOnErrorAndPanic: whatever fn does — returns nil,
// returns an error, panics — the pin is gone when View returns, so the
// next commit, which waits for the replaced epoch's readers to leave,
// finishes instead of spinning forever.
func TestViewReleasesPinOnErrorAndPanic(t *testing.T) {
	db := NewDB("pins", nil)
	if err := db.CreateTable(TableDef{Name: "t", Columns: []Column{{Name: "v", Type: ColInt}}}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	exits := map[string]func(View) error{
		"nil":   func(View) error { return nil },
		"error": func(View) error { return boom },
		"panic": func(View) error { panic(boom) },
	}
	for name, fn := range exits {
		func() {
			defer func() {
				if r := recover(); r != nil && name != "panic" {
					t.Fatalf("%s: View panicked: %v", name, r)
				}
			}()
			if err := db.View(fn); name == "error" && !errors.Is(err, boom) {
				t.Fatalf("View returned %v, want the error fn returned", err)
			}
		}()
		for i := 0; i < 2; i++ { // both table sets are published, and drained, once
			done := make(chan error, 1)
			go func() {
				done <- db.WithTx(func(tx *Tx) error {
					_, err := tx.Insert("t", map[string]any{"v": int64(i)})
					return err
				})
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("a View whose fn ended by %s still pins its epoch: the commit never finished", name)
			}
		}
	}
}

// TestViewOfDownDBRefuses: a dead server serves no view, as it serves no
// Get or Select.
func TestViewOfDownDBRefuses(t *testing.T) {
	db := NewDB("down", nil)
	db.SetDown(true)
	called := false
	if err := db.View(func(View) error { called = true; return nil }); err == nil || called {
		t.Fatalf("View of a down DB = %v, fn called %v; want a refusal", err, called)
	}
}
