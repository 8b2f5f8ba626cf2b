package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse: scenario files are hand-written, so whatever bytes one holds,
// Parse and then Validate return — no panic — and every error they return
// is a *parseError pointing at a line of the file: the file:line contract
// `robotron sim validate` promises. Seeds are the drills under
// examples/scenarios and the golden invalid cases.
func FuzzParse(f *testing.F) {
	drills, err := filepath.Glob("../../examples/scenarios/*.yaml")
	if err != nil || len(drills) == 0 {
		f.Fatalf("no drills to seed from: %v", err)
	}
	for _, path := range drills {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add(validBase)
	for _, tc := range validateGolden {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse("s.yaml", src)
		if err == nil {
			err = Validate(file)
		}
		if err == nil {
			return
		}
		pe, ok := err.(*parseError)
		if !ok {
			t.Fatalf("error is a %T, not a *parseError: %v", err, err)
		}
		if pe.path != "s.yaml" || pe.line < 1 {
			t.Fatalf("error does not point at a line of the file: %v", err)
		}
	})
}
