package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"simevo/internal/netlist"
)

// pinsJSON records the inputs every result depends on: the generated
// 10k-cell circuit's structural fingerprint and each workload's target μ.
//
//go:embed pins.json
var pinsJSON []byte

type pins struct {
	Circuit10k circuitPin         `json:"circuit_10k"`
	Targets    map[string]float64 `json:"targets"`
}

// circuitPin fixes a generated circuit: its gen.ScaledParams arguments and
// the fingerprint of what they must produce.
type circuitPin struct {
	Name    string       `json:"name"`
	Cells   int          `json:"cells"`
	GenSeed uint64       `json:"gen_seed"`
	Print   circuitPrint `json:"fingerprint"`
}

// circuitPrint is a circuit's structural fingerprint.
type circuitPrint struct {
	Cells  int    `json:"cells"`
	Nets   int    `json:"nets"`
	Pins   int    `json:"pins"`
	SHA256 string `json:"sha256"`
}

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return p, fmt.Errorf("pins.json: %w", err)
	}
	for _, w := range workloads {
		if p.Targets[w.name] <= 0 {
			return p, fmt.Errorf("pins.json: no target μ for %s", w.name)
		}
	}
	return p, nil
}

// fingerprint computes a circuit's structural fingerprint: cell, net and
// pin counts plus the SHA-256 of its .bench serialization.
func fingerprint(ckt *netlist.Circuit) (circuitPrint, error) {
	var buf bytes.Buffer
	if err := netlist.WriteBench(&buf, ckt); err != nil {
		return circuitPrint{}, err
	}
	sum := sha256.Sum256(buf.Bytes())
	f := circuitPrint{Cells: ckt.NumCells(), Nets: ckt.NumNets(), SHA256: hex.EncodeToString(sum[:])}
	for i := range ckt.Nets {
		f.Pins += ckt.Nets[i].Degree()
	}
	return f, nil
}
