package netlist

import (
	"strings"
	"testing"
)

// pinCount is the circuit's total pin count: every net's driver and sinks.
func pinCount(c *Circuit) int {
	n := 0
	for i := range c.Nets {
		n += c.Nets[i].Degree()
	}
	return n
}

// FuzzParseBench hardens the .bench reader, which parses uploaded job
// netlists: any input must yield a circuit or an error, never a panic,
// and an accepted circuit must survive WriteBench → ParseBench with its
// cell, net and pin counts. The committed corpus holds the catalog
// circuits and the service tests' small upload, written by WriteBench.
func FuzzParseBench(f *testing.F) {
	f.Add("")
	f.Add("INPUT(a)\nINPUT(b)\ng1 = NAND(a, b)\nff = DFF(g1)\ng2 = OR(ff, a)\nOUTPUT(g2)\n")
	f.Add("INPUT(a)\ng = AND(a, a)\nOUTPUT(g)\nOUTPUT(a)\n")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseBench("fuzz", strings.NewReader(src))
		if err != nil {
			return
		}
		var sb strings.Builder
		if err := WriteBench(&sb, c); err != nil {
			t.Fatal(err)
		}
		back, err := ParseBench("fuzz", strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("written circuit does not parse: %v\n%s", err, sb.String())
		}
		if back.NumCells() != c.NumCells() || back.NumNets() != c.NumNets() || pinCount(back) != pinCount(c) {
			t.Fatalf("round trip changed the counts: cells %d→%d, nets %d→%d, pins %d→%d\n%s",
				c.NumCells(), back.NumCells(), c.NumNets(), back.NumNets(), pinCount(c), pinCount(back), sb.String())
		}
	})
}
