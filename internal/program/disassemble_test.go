package program_test

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mutex"
	_ "repro/internal/rmw" // registers tas and mcs, so every name resolves
)

// disassembleGolden is the pinned listing TestDisassembleGolden compares
// against, relative to this package's directory.
const disassembleGolden = "testdata/disassemble.golden"

// TestDisassembleGolden pins the Disassemble text of every registered
// algorithm's programs at n = 2 and 3 (Dekker's at 2 only): instruction
// order, labels, register operands and expression text, byte for byte.
// When the golden file is missing, the test writes it from this tree and
// fails, so regenerating is deleting the file and running the test once.
func TestDisassembleGolden(t *testing.T) {
	var got bytes.Buffer
	for _, name := range mutex.Names() {
		for n := 2; n <= 3; n++ {
			if name == mutex.NameDekker && n > 2 {
				continue
			}
			f, err := mutex.New(name, n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			for i := 0; i < f.N(); i++ {
				fmt.Fprintf(&got, "# %s n=%d process %d\n%s", name, n, i, f.Program(i).Disassemble())
			}
		}
	}
	regen := fmt.Sprintf("rm internal/program/%s && go test -run '^TestDisassembleGolden$' ./internal/program", disassembleGolden)
	want, err := os.ReadFile(disassembleGolden)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(disassembleGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(disassembleGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing; wrote it from this tree (%d bytes): review and commit it", disassembleGolden, got.Len())
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("Disassemble output changed (%s, line %d):\ngot  %s\nwant %s\nif the change is deliberate, regenerate from the repo root:\n  %s", disassembleGolden, i+1, g, w, regen)
			}
		}
	}
}
