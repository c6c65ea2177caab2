package wire

// VacancyBuckets shards a vacancy pool by row, keeping each row's
// vacancies x-sorted so ScanBestRows can seed near a cell's anchor and
// walk outward instead of visiting the whole free list in index order.
//
// The structure separates the static sort from the dynamic occupancy: the
// per-row ordering is built once per allocation pass (the vacancy set is
// fixed after capture), and the commit journal only flips per-slot
// liveness bits — O(1) per operation, so maintaining the buckets while
// cells take slots costs nothing against the O(|S|²) trial scans they
// accelerate. Dead (committed) entries stay in place and are skipped
// during the walk; each skip is a single branch, and a scan never touches
// more positions than the flat free-list walk it replaces.
//
// Not safe for concurrent mutation; concurrent read-only use (the chunked
// parallel scan, which partitions rows) is fine between journal ops.
type VacancyBuckets struct {
	order []int32   // vacancy indices grouped by row, x-ascending (ties: ascending index)
	xs    []float64 // xs[p] = vacancy order[p]'s x (hoisted for the seek/walk)
	pos   []int32   // per vacancy: its position in order
	rowAt []int32   // per position: the row (inverse of the region table)
	start []int32   // per row: region start in order; len rows+1
	live  []bool    // per position: vacancy still free
	rowN  []int32   // per row: live count
	total int       // live count across all rows
}

// Build sorts the vacancy pool into per-row x-ascending buckets and marks
// every vacancy live. Rows must cover every Vacancy.Row value.
func (b *VacancyBuckets) Build(vacs []Vacancy, rows int) {
	n := len(vacs)
	b.order = resizeI32s(b.order, n)
	b.xs = resizeFloats(b.xs, n)
	b.pos = resizeI32s(b.pos, n)
	b.rowAt = resizeI32s(b.rowAt, n)
	b.start = resizeI32s(b.start, rows+1)
	b.live = resizeBools(b.live, n)
	b.rowN = resizeI32s(b.rowN, rows)
	b.total = n

	// Counting sort by row. rowN doubles as the per-row fill cursor — the
	// second pass leaves it back at the per-row counts.
	for r := range b.rowN {
		b.rowN[r] = 0
	}
	for i := range vacs {
		b.rowN[vacs[i].Row]++
	}
	acc := int32(0)
	for r := 0; r < rows; r++ {
		b.start[r] = acc
		acc += b.rowN[r]
		b.rowN[r] = 0
	}
	b.start[rows] = acc
	for i := range vacs {
		r := vacs[i].Row
		b.order[b.start[r]+b.rowN[r]] = int32(i)
		b.rowN[r]++
	}
	// Then x within each row. Regions are small (the pool splits across
	// all rows), so an allocation-free insertion sort beats sort.Slice.
	for r := 0; r < rows; r++ {
		lo, hi := int(b.start[r]), int(b.start[r+1])
		region := b.order[lo:hi]
		for i := 1; i < len(region); i++ {
			v := region[i]
			x := vacs[v].X
			j := i - 1
			for j >= 0 && (vacs[region[j]].X > x || (vacs[region[j]].X == x && region[j] > v)) {
				region[j+1] = region[j]
				j--
			}
			region[j+1] = v
		}
		for p := lo; p < hi; p++ {
			b.rowAt[p] = int32(r)
		}
	}
	for p, v := range b.order {
		b.pos[v] = int32(p)
		b.xs[p] = vacs[v].X
		b.live[p] = true
	}
}

// Commit marks vacancy v occupied (journal op, O(1)).
func (b *VacancyBuckets) Commit(v int32) {
	p := b.pos[v]
	if !b.live[p] {
		return
	}
	b.live[p] = false
	b.rowN[b.rowAt[p]]--
	b.total--
}

// Live returns the number of free vacancies across all rows.
func (b *VacancyBuckets) Live() int { return b.total }

// SeekGE returns the first position in row whose x is >= x (the region end
// when every vacancy sits left of x). Positions include dead entries;
// the walks skip them via the liveness bits.
func (b *VacancyBuckets) SeekGE(row int, x float64) int {
	lo, hi := int(b.start[row]), int(b.start[row+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.xs[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func resizeBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func resizeI32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
