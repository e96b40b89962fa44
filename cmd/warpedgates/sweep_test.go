package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"warpedgates/internal/sweep"
)

// TestReadSpecRejectsTrailingData pins strict spec decoding: a spec file is
// exactly one JSON object, so a second object or trailing garbage is an
// error rather than silently ignored, while trailing whitespace is fine.
func TestReadSpecRejectsTrailingData(t *testing.T) {
	const one = `{"benches":["nw"],"scales":[0.1]}`
	want := sweep.Spec{Benches: []string{"nw"}, Scales: []float64{0.1}}
	cases := []struct {
		name    string
		body    string
		wantErr string // empty: the file must decode to want
	}{
		{"one object", one, ""},
		{"trailing whitespace", one + "\n\t \n", ""},
		{"two objects", one + "\n" + `{"benches":["bfs"]}`, "trailing data"},
		{"trailing garbage", one + " garbage", "trailing data"},
		{"unknown field", `{"benches":["nw"],"bogus":1}`, "unknown field"},
		{"empty file", "", "EOF"},
	}
	dir := t.TempDir()
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, "spec"+string(rune('a'+i))+".json")
			if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
				t.Fatal(err)
			}
			spec, err := readSpec(path)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("readSpec: %v", err)
				}
				if !reflect.DeepEqual(spec, want) {
					t.Fatalf("readSpec = %+v, want %+v", spec, want)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("readSpec error = %v, want one containing %q", err, tc.wantErr)
			}
			// The subcommand itself refuses the file before expanding a cell.
			if err := cmdSweep([]string{"-n", "-spec", path}); err == nil {
				t.Fatal("sweep -n -spec accepted the file")
			}
		})
	}
}
