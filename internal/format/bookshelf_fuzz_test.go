package format

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"simevo/internal/netlist"
)

// FuzzLoadAux feeds LoadAux a fuzzed Bookshelf file set: the .aux bytes
// plus the .nodes, .nets, .pl and .scl bytes written under the names the
// seed .aux gives them (a mutated .aux may name other files, which then do
// not exist). Every input must end in an error or a valid design: a
// circuit and an initial placement that pass validation, one layout row
// per core row, finite coordinates for every cell, and a .pl that writes.
// The committed corpus under testdata/fuzz/FuzzLoadAux starts from the
// testdata/tiny.* fixture.
func FuzzLoadAux(f *testing.F) {
	f.Fuzz(func(t *testing.T, aux, nodes, nets, pl, scl []byte) {
		dir := t.TempDir()
		for name, blob := range map[string][]byte{
			"f.aux": aux, "f.nodes": nodes, "f.nets": nets, "f.pl": pl, "f.scl": scl,
		} {
			if err := os.WriteFile(filepath.Join(dir, name), blob, 0o600); err != nil {
				t.Fatal(err)
			}
		}
		d, p, err := LoadAux(filepath.Join(dir, "f.aux"))
		if err != nil {
			return
		}
		if err := d.Ckt.Validate(); err != nil {
			t.Fatalf("loaded circuit is invalid: %v", err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("loaded placement is invalid: %v", err)
		}
		if p.NumRows() != d.NumRows() || d.NumRows() == 0 {
			t.Fatalf("placement has %d rows, design %d", p.NumRows(), d.NumRows())
		}
		for id := range d.Ckt.Cells {
			if x, y := p.Coord(netlist.CellID(id)); math.IsNaN(x+y) || math.IsInf(x+y, 0) {
				t.Fatalf("cell %q has coordinates (%v, %v)", d.Ckt.Cells[id].Name, x, y)
			}
		}
		var buf bytes.Buffer
		if err := d.WritePl(&buf, p); err != nil {
			t.Fatalf("WritePl: %v", err)
		}
	})
}
