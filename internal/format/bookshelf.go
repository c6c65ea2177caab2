// Package format ingests external physical-design exchange formats into
// the simevo netlist/layout model. The initial (and so far only) format is
// Bookshelf — the .aux/.nodes/.nets/.pl/.scl file set used by the ISPD
// placement contests and the GSRC benchmark suites.
//
// The Bookshelf model is purely physical: nodes have geometry and nets
// have undirected pin lists, but no logic functions. Ingestion therefore
// maps every movable node to a netlist.Macro cell (path-cutting,
// probability-neutral), assigns each net a driver from its pin directions
// ("O" pins first, then greedily among nodes not yet driving a net — the
// netlist model gives each cell at most one output), and classifies fixed
// terminals as Input/Output pads when their pin shape allows, falling back
// to Macro otherwise.
//
// Geometry maps onto the internal row grid: the k-th .scl core row (by
// ascending Coordinate) becomes layout row k, node widths convert to
// integer sites by rounding against the row's Sitewidth, and the .pl
// initial placement seeds the row assignment (row = nearest .scl row,
// in-row order = ascending x). WritePl inverts the mapping — left-edge
// x = SubrowOrigin + (site prefix sum)·Sitewidth — so one parse→write
// cycle reaches a fixed point: writing, re-reading, and writing again
// produces byte-identical output.
package format

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"simevo/internal/layout"
	"simevo/internal/netlist"
)

// Row is one .scl core row, in Bookshelf units.
type Row struct {
	Coordinate   float64 // y of the row's bottom edge
	Height       float64
	SiteWidth    float64
	SubrowOrigin float64 // x of the row's left edge
	NumSites     int
}

// Design is a parsed Bookshelf placement problem mapped onto the internal
// model: the circuit, the row geometry, and the fixed terminal locations
// (kept verbatim for .pl round-tripping).
type Design struct {
	Ckt  *netlist.Circuit
	Rows []Row

	// termX/termY hold the .pl coordinates of fixed (terminal) cells,
	// indexed by CellID; movable entries are unused.
	termX, termY map[netlist.CellID]float64
	// widthSites is each cell's converted width (kept for WritePl's
	// prefix sums even though Ckt carries the same numbers).
	fixed map[netlist.CellID]bool
}

// NumRows returns the number of core rows, which is also the layout row
// count the design places into.
func (d *Design) NumRows() int { return len(d.Rows) }

// LoadAux parses a Bookshelf .aux file and the file set it names. The
// member files are resolved relative to the .aux file's directory.
func LoadAux(path string) (*Design, *layout.Placement, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("format: %w", err)
	}
	// Aux syntax: "RowBasedPlacement : a.nodes a.nets a.wts a.pl a.scl".
	line := strings.TrimSpace(string(blob))
	if i := strings.Index(line, ":"); i >= 0 {
		line = line[i+1:]
	}
	dir := filepath.Dir(path)
	var nodesPath, netsPath, plPath, sclPath string
	for _, f := range strings.Fields(line) {
		switch filepath.Ext(f) {
		case ".nodes":
			nodesPath = filepath.Join(dir, f)
		case ".nets":
			netsPath = filepath.Join(dir, f)
		case ".pl":
			plPath = filepath.Join(dir, f)
		case ".scl":
			sclPath = filepath.Join(dir, f)
		case ".wts": // weights are unused
		}
	}
	for _, req := range []struct{ name, p string }{
		{".nodes", nodesPath}, {".nets", netsPath}, {".pl", plPath}, {".scl", sclPath},
	} {
		if req.p == "" {
			return nil, nil, fmt.Errorf("format: %s names no %s file", path, req.name)
		}
	}
	name := strings.TrimSuffix(filepath.Base(path), ".aux")
	return loadFiles(name, nodesPath, netsPath, plPath, sclPath)
}

// bookshelfNode is a .nodes entry before circuit construction.
type bookshelfNode struct {
	name     string
	width    float64
	terminal bool
}

// bookshelfPin is one pin of a .nets entry.
type bookshelfPin struct {
	node int  // index into the nodes slice
	out  bool // direction "O" (or "B")
}

// bookshelfNet is a .nets entry.
type bookshelfNet struct {
	name string
	pins []bookshelfPin
}

func loadFiles(name, nodesPath, netsPath, plPath, sclPath string) (*Design, *layout.Placement, error) {
	nodes, nodeIdx, err := parseNodes(nodesPath)
	if err != nil {
		return nil, nil, err
	}
	nets, err := parseNets(netsPath, nodeIdx)
	if err != nil {
		return nil, nil, err
	}
	rows, err := parseSCL(sclPath)
	if err != nil {
		return nil, nil, err
	}
	plX, plY, err := parsePl(plPath, nodeIdx)
	if err != nil {
		return nil, nil, err
	}
	d, err := buildDesign(name, nodes, nets, rows, plX, plY)
	if err != nil {
		return nil, nil, err
	}
	place, err := d.initialPlacement(plX, plY)
	if err != nil {
		return nil, nil, err
	}
	return d, place, nil
}

// scanner wraps line scanning with Bookshelf comment/header skipping.
func scanLines(path string, fn func(fields []string) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("format: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "UCLA") {
			continue
		}
		if err := fn(strings.Fields(line)); err != nil {
			return fmt.Errorf("format: %s:%d: %w", filepath.Base(path), lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("format: %s: %w", filepath.Base(path), err)
	}
	return nil
}

func parseNodes(path string) ([]bookshelfNode, map[string]int, error) {
	var nodes []bookshelfNode
	idx := make(map[string]int)
	err := scanLines(path, func(f []string) error {
		if len(f) >= 3 && f[0] == "NumNodes" || len(f) >= 3 && f[0] == "NumTerminals" {
			return nil // declared counts are advisory; the entries are authoritative
		}
		if len(f) < 3 {
			return fmt.Errorf("short node line %q", strings.Join(f, " "))
		}
		w, err := parseFinite(f[1])
		if err != nil {
			return fmt.Errorf("node %s: bad width %q", f[0], f[1])
		}
		if _, dup := idx[f[0]]; dup {
			return fmt.Errorf("duplicate node %q", f[0])
		}
		term := len(f) >= 4 && strings.EqualFold(f[3], "terminal")
		idx[f[0]] = len(nodes)
		nodes = append(nodes, bookshelfNode{name: f[0], width: w, terminal: term})
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if len(nodes) == 0 {
		return nil, nil, fmt.Errorf("format: %s declares no nodes", filepath.Base(path))
	}
	return nodes, idx, nil
}

func parseNets(path string, nodeIdx map[string]int) ([]bookshelfNet, error) {
	var nets []bookshelfNet
	var cur *bookshelfNet
	err := scanLines(path, func(f []string) error {
		switch f[0] {
		case "NumNets", "NumPins":
			return nil
		case "NetDegree":
			// "NetDegree : d  name" — the name is optional in the wild.
			name := fmt.Sprintf("n%d", len(nets))
			if len(f) >= 4 {
				name = f[3]
			}
			nets = append(nets, bookshelfNet{name: name})
			cur = &nets[len(nets)-1]
			return nil
		}
		if cur == nil {
			return fmt.Errorf("pin line %q before any NetDegree", strings.Join(f, " "))
		}
		ni, ok := nodeIdx[f[0]]
		if !ok {
			return fmt.Errorf("net %s: unknown node %q", cur.name, f[0])
		}
		out := len(f) >= 2 && (f[1] == "O" || f[1] == "B")
		cur.pins = append(cur.pins, bookshelfPin{node: ni, out: out})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(nets) == 0 {
		return nil, fmt.Errorf("format: %s declares no nets", filepath.Base(path))
	}
	return nets, nil
}

func parseSCL(path string) ([]Row, error) {
	var rows []Row
	var cur *Row
	err := scanLines(path, func(f []string) error {
		if f[0] == "CoreRow" {
			rows = append(rows, Row{SiteWidth: 1, Height: 1})
			cur = &rows[len(rows)-1]
			return nil
		}
		if f[0] == "End" {
			cur = nil
			return nil
		}
		if cur == nil || len(f) < 3 {
			return nil
		}
		var dst *float64
		switch f[0] {
		case "Coordinate":
			dst = &cur.Coordinate
		case "Height":
			dst = &cur.Height
		case "Sitewidth":
			dst = &cur.SiteWidth
		case "SubrowOrigin":
			dst = &cur.SubrowOrigin
			// "SubrowOrigin : x  NumSites : n" shares the line.
			if len(f) >= 6 && f[3] == "NumSites" {
				cur.NumSites, _ = strconv.Atoi(f[5])
			}
		case "NumSites":
			cur.NumSites, _ = strconv.Atoi(f[2])
			return nil
		default:
			return nil
		}
		v, err := parseFinite(f[2])
		if err != nil {
			return fmt.Errorf("bad %s %q", f[0], f[2])
		}
		*dst = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("format: %s declares no core rows", filepath.Base(path))
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Coordinate < rows[j].Coordinate })
	for i := range rows {
		if rows[i].SiteWidth <= 0 {
			rows[i].SiteWidth = 1
		}
		// The height scales terminal y into the internal frame
		// (initialPlacement); 0 would put pads at infinity.
		if rows[i].Height <= 0 {
			return nil, fmt.Errorf("format: %s: core row at y=%v has height %v", filepath.Base(path), rows[i].Coordinate, rows[i].Height)
		}
	}
	return rows, nil
}

// parseFinite parses a Bookshelf number, rejecting NaN and infinities:
// every number the loader reads becomes a width or a coordinate.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite number %q", s)
	}
	return v, nil
}

func parsePl(path string, nodeIdx map[string]int) (x, y map[string]float64, err error) {
	x = make(map[string]float64, len(nodeIdx))
	y = make(map[string]float64, len(nodeIdx))
	err = scanLines(path, func(f []string) error {
		if len(f) < 3 {
			return nil // orientation-only or malformed trailer lines are ignored
		}
		if _, ok := nodeIdx[f[0]]; !ok {
			return fmt.Errorf("placement for unknown node %q", f[0])
		}
		px, err1 := parseFinite(f[1])
		py, err2 := parseFinite(f[2])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("node %s: bad coordinates %q %q", f[0], f[1], f[2])
		}
		x[f[0]], y[f[0]] = px, py
		return nil
	})
	return x, y, err
}

// buildDesign assembles the netlist.Circuit: driver assignment, terminal
// classification, and structural validation.
func buildDesign(name string, nodes []bookshelfNode, nets []bookshelfNet, rows []Row, plX, plY map[string]float64) (*Design, error) {
	siteW := rows[0].SiteWidth

	// Driver assignment: every net needs exactly one driving cell and
	// every cell drives at most one net (the single-output netlist model).
	// Two passes — explicit "O"/"B" pins claim their nets first, then the
	// leftovers take any still-free pin node. Multi-output nodes therefore
	// drive only their first net; the remaining connections degrade to
	// sink pins, which is lossless for placement (nets stay intact, only
	// the direction annotation coarsens).
	driverOf := make([]int, len(nets)) // net -> node index, -1 unassigned
	drives := make([]bool, len(nodes))
	for i := range driverOf {
		driverOf[i] = -1
	}
	for pass := 0; pass < 2; pass++ {
		for ni := range nets {
			if driverOf[ni] >= 0 {
				continue
			}
			for _, pin := range nets[ni].pins {
				if drives[pin.node] || (pass == 0 && !pin.out) {
					continue
				}
				driverOf[ni] = pin.node
				drives[pin.node] = true
				break
			}
		}
	}
	for ni := range nets {
		if driverOf[ni] < 0 {
			return nil, fmt.Errorf("format: net %q has no assignable driver (every pin node already drives another net)", nets[ni].name)
		}
	}

	// Per-node fan-in/fan-out counts for terminal classification.
	sinksOn := make([][]int, len(nodes)) // node -> nets it sinks
	for ni := range nets {
		seen := make(map[int]bool, len(nets[ni].pins))
		for _, pin := range nets[ni].pins {
			if pin.node == driverOf[ni] || seen[pin.node] {
				continue // self-loop pins on the driver and duplicate pins collapse
			}
			seen[pin.node] = true
			sinksOn[pin.node] = append(sinksOn[pin.node], ni)
		}
	}

	d := &Design{
		Rows:  rows,
		termX: make(map[netlist.CellID]float64),
		termY: make(map[netlist.CellID]float64),
		fixed: make(map[netlist.CellID]bool),
	}
	ckt := &netlist.Circuit{Name: name}
	ckt.Cells = make([]netlist.Cell, len(nodes))
	ckt.Nets = make([]netlist.Net, len(nets))

	for i, n := range nodes {
		id := netlist.CellID(i)
		typ := netlist.Macro
		width := int(math.Round(n.width / siteW))
		if width < 1 {
			width = 1
		}
		if n.terminal {
			// Pad-shaped terminals become real pads (width 0, fixed on
			// the boundary in the internal model); oddly-shaped ones stay
			// Macro so their connectivity survives, at the cost of being
			// treated as movable.
			switch {
			case drives[i] && len(sinksOn[i]) == 0:
				typ, width = netlist.Input, 0
			case !drives[i] && len(sinksOn[i]) == 1:
				typ, width = netlist.Output, 0
			}
			d.fixed[id] = true
			d.termX[id] = plX[n.name]
			d.termY[id] = plY[n.name]
		}
		ckt.Cells[i] = netlist.Cell{ID: id, Name: n.name, Type: typ, Width: width, Out: netlist.NoNet}
		switch typ {
		case netlist.Input:
			ckt.PIs = append(ckt.PIs, id)
		case netlist.Output:
			ckt.POs = append(ckt.POs, id)
		}
	}

	for ni := range nets {
		drv := netlist.CellID(driverOf[ni])
		ckt.Nets[ni] = netlist.Net{ID: netlist.NetID(ni), Name: nets[ni].name, Driver: drv}
		ckt.Cells[drv].Out = netlist.NetID(ni)
	}
	// Sink wiring from the deduplicated per-node lists keeps Cell.In and
	// Net.Sinks consistent.
	for node, list := range sinksOn {
		for _, ni := range list {
			ckt.Cells[node].In = append(ckt.Cells[node].In, netlist.NetID(ni))
			ckt.Nets[ni].Sinks = append(ckt.Nets[ni].Sinks, netlist.CellID(node))
		}
	}

	if err := ckt.Validate(); err != nil {
		return nil, fmt.Errorf("format: %s: %w", name, err)
	}
	d.Ckt = ckt
	return d, nil
}

// rowFor returns the index of the core row whose y span is nearest the
// given Bookshelf y coordinate.
func (d *Design) rowFor(y float64) int {
	best, bestDist := 0, math.Inf(1)
	for i, r := range d.Rows {
		if dist := math.Abs(y - r.Coordinate); dist < bestDist {
			best, bestDist = i, dist
		}
	}
	return best
}

// initialPlacement realizes the .pl coordinates on the internal row grid:
// each movable cell goes to the row nearest its y, rows order by ascending
// x (ties broken by node order for determinism), and fixed terminals map
// proportionally into the internal coordinate space via coordinate hints.
func (d *Design) initialPlacement(plX, plY map[string]float64) (*layout.Placement, error) {
	ckt := d.Ckt
	p := layout.New(ckt, len(d.Rows))

	type entry struct {
		id netlist.CellID
		x  float64
	}
	byRow := make([][]entry, len(d.Rows))
	for _, id := range ckt.Movable() {
		name := ckt.Cells[id].Name
		x, okX := plX[name]
		y, okY := plY[name]
		if !okX || !okY {
			return nil, fmt.Errorf("format: movable node %q has no .pl entry", name)
		}
		r := d.rowFor(y)
		byRow[r] = append(byRow[r], entry{id: id, x: x})
	}
	for r, list := range byRow {
		sort.SliceStable(list, func(i, j int) bool {
			if list[i].x != list[j].x {
				return list[i].x < list[j].x
			}
			return list[i].id < list[j].id
		})
		for _, e := range list {
			p.AppendToRow(r, e.id)
		}
	}
	p.Recompute()

	// Terminal hints: scale the Bookshelf frame into the internal one so
	// pads keep their relative geometry (wire costs then see pad pulls in
	// the right directions even though absolute units differ).
	r0 := d.Rows[0]
	siteW := r0.SiteWidth
	for id, fixed := range d.fixed {
		if !fixed || !ckt.Cells[id].IsPad() {
			continue
		}
		x := (d.termX[id] - r0.SubrowOrigin) / siteW
		y := (d.termY[id]-r0.Coordinate)/r0.Height*layout.RowPitch + layout.RowPitch/2
		p.SetCoordHint(id, x, y)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("format: initial placement: %w", err)
	}
	return p, nil
}

// WritePl emits the placement in Bookshelf .pl syntax: movable cells get
// their row's y and a left-edge x reconstructed from the site prefix sums;
// fixed terminals are echoed verbatim with the /FIXED marker. Output is
// deterministic (.nodes file order) and reaches a fixed point after one
// parse→write cycle.
func (d *Design) WritePl(w io.Writer, p *layout.Placement) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "UCLA pl 1.0\n# simevo placement for %s\n\n", d.Ckt.Name)

	// Left-edge x per movable cell from integer site offsets.
	type pos struct{ x, y float64 }
	coords := make(map[netlist.CellID]pos, d.Ckt.NumMovable())
	for r := 0; r < p.NumRows(); r++ {
		row := d.Rows[r]
		xoff := 0
		for _, id := range p.Row(r) {
			if id == netlist.NoCell {
				continue
			}
			coords[id] = pos{
				x: row.SubrowOrigin + float64(xoff)*row.SiteWidth,
				y: row.Coordinate,
			}
			xoff += d.Ckt.Cells[id].Width
		}
	}

	for i := range d.Ckt.Cells {
		cell := &d.Ckt.Cells[i]
		id := netlist.CellID(i)
		if d.fixed[id] {
			fmt.Fprintf(bw, "%s\t%s\t%s\t: N /FIXED\n",
				cell.Name, fmtCoord(d.termX[id]), fmtCoord(d.termY[id]))
			continue
		}
		c, ok := coords[id]
		if !ok {
			return fmt.Errorf("format: movable cell %q is unplaced", cell.Name)
		}
		fmt.Fprintf(bw, "%s\t%s\t%s\t: N\n", cell.Name, fmtCoord(c.x), fmtCoord(c.y))
	}
	return bw.Flush()
}

// fmtCoord renders a coordinate with the shortest exact decimal float
// representation — stable across write→parse→write cycles.
func fmtCoord(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
