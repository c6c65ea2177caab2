package wire

// Test-only scan reference code: the flat pruned scan, the eager memo
// fill, and the bucket accessors. Production allocates through
// ScanBestRows alone; these stay as the oracles its tests compare against.

// PrefillClasses eagerly computes every per-class memo entry, so tests can
// score with a warm memo (and measure a fill-free steady state).
func (t *TrialSet) PrefillClasses(yOf func(class int) float64) {
	for i := range t.items {
		if t.items[i].kind != trialTrunk {
			continue
		}
		for c := 0; c < t.yClasses; c++ {
			t.fillClass(i, c, yOf(c))
		}
	}
}

// floorTail returns tail[i] = Σ_{j>=i} w_j · floor_j: a lower bound on the
// weighted cost of items i.. for ANY candidate (compiledTrial.floor — the
// stored half-perimeter, plus the branch floor min(dX, dY) for a trunk;
// see TrialSet.rowTail for why each kind's floor holds). ScanBest adds
// tail[i+1] to the partial cost when bailing, pruning vacancies whose
// suffix could never fit under the bound — deflated by scanSlack so float
// reassociation cannot turn the estimate into an over-prune.
func (t *TrialSet) floorTail() []float64 {
	tail := make([]float64, len(t.items)+1)
	acc := 0.0
	for i := len(t.items) - 1; i >= 0; i-- {
		acc += t.items[i].floor() * t.items[i].w
		tail[i] = acc
	}
	return tail
}

// ScanBest is the flat pruned scan ScanBestRows replaced, kept as its
// oracle: it scans free[lo:hi] — the ascending indices of still-free
// vacancies — in index order, skipping width-infeasible rows, scoring the
// rest with the bounded early exit and the floorTail suffix bound, and
// returns the first vacancy index holding the strictly smallest score (-1
// if none is admissible under bound0). TestTrialSetMatchesViewTrials pins
// it bitwise to the ScoreBounded loop. The memo must be compiled with
// yClasses covering every row; it fills lazily. st (which may be nil)
// collects prune statistics.
func (t *TrialSet) ScanBest(view *View, vacs []Vacancy, free []int32,
	rowOK []bool, lo, hi int, bound0 float64, st *ScanStats) (int, float64) {
	if st == nil {
		st = new(ScanStats)
	}
	best, bound := -1, bound0
	items := t.items
	// Bbox pre-check on the leading net: any trial with stored pins —
	// bbox, trunk, or RMST — is bounded below by the half-perimeter of the
	// stored pins extended by the candidate, and items 1.. are bounded
	// below by tail[1]. When even that sum reaches the current bound the
	// vacancy is skipped before any full evaluation. Pruned vacancies are
	// exactly ones the bounded scan would have discarded (their true cost
	// is >= the bound), so the winner — and the trajectory — is untouched.
	tail := t.floorTail()
	prune := false
	var pruneW, tail1, minX0, maxX0, minY0, maxY0 float64
	if len(items) > 0 && items[0].hasBox {
		it := &items[0]
		prune, pruneW, tail1 = true, it.w, tail[1]
		minX0, maxX0, minY0, maxY0 = it.minX, it.maxX, it.minY, it.maxY
	}
scan:
	for _, v32 := range free[lo:hi] {
		v := int(v32)
		row := vacs[v].Row
		if !rowOK[row] {
			continue
		}
		x, y := vacs[v].X, vacs[v].Y
		st.Vacancies++
		if prune {
			lox, hix, loy, hiy := minX0, maxX0, minY0, maxY0
			if x < lox {
				lox = x
			}
			if x > hix {
				hix = x
			}
			if y < loy {
				loy = y
			}
			if y > hiy {
				hiy = y
			}
			if (((hix-lox)+(hiy-loy))*pruneW+tail1)*scanSlack >= bound {
				st.PrunedBBox++
				continue
			}
		}
		yClass := int(row)
		cost := 0.0
		for i := range items {
			it := &items[i]
			switch it.kind {
			case trialBBox:
				lox, hix, loy, hiy := it.minX, it.maxX, it.minY, it.maxY
				if x < lox {
					lox = x
				}
				if x > hix {
					hix = x
				}
				if y < loy {
					loy = y
				}
				if y > hiy {
					hiy = y
				}
				cost += ((hix - lox) + (hiy - loy)) * it.w
			case trialTrunk:
				slot := i*t.yClasses + yClass
				if t.filled[slot] != t.epoch {
					t.fillClass(i, yClass, y)
				}
				yBranch, ySpan := t.memo[2*slot], t.memo[2*slot+1]

				lox, hix := it.minX, it.maxX
				if x < lox {
					lox = x
				}
				if x > hix {
					hix = x
				}
				h := (hix - lox) + yBranch

				var medX float64
				if it.oddM {
					medX = clampMed(x, it.ax0, it.ax1)
				} else {
					medX = (clampMed(x, it.ax0, it.ax1) + clampMed(x, it.ax1, it.ax2)) / 2
				}
				var si int
				switch {
				case medX <= it.ax0:
					si = int(it.ix0)
				case medX <= it.ax1:
					si = int(it.ixMid)
				default:
					si = int(it.ixMid) + 1
				}
				xBranch := branchSumAt(it.xv, it.xp, medX, si)
				if x > medX {
					xBranch += x - medX
				} else {
					xBranch += medX - x
				}
				v2 := ySpan + xBranch

				if v2 < h {
					h = v2
				}
				cost += h * it.w
			case trialRMST:
				cost += view.TrialNetAt(it.net, x, y) * it.w
			case trialZero:
				// Falls through to the bound check: a trailing zero
				// record at cost == bound is a tie and must not reach
				// the winner assignment (first minimum wins).
			}
			// Bail as soon as the partial cost plus the remaining items'
			// stored-span floor reaches the bound: the full cost could
			// only be larger, so only non-winners are dropped (and a tie
			// at the bound never wins — first minimum stays). The
			// estimate is deflated by scanSlack so float reassociation
			// can never prune a true sub-bound cost; the exact prefix
			// check keeps the common case (cost alone already past the
			// bound) at full strength.
			if cost >= bound {
				st.BailedExact++
				continue scan
			}
			if (cost+tail[i+1])*scanSlack >= bound {
				st.PrunedSuffix++
				continue scan
			}
		}
		st.Scored++
		if cost < bound { // unconditional first-minimum, even for an empty set
			best, bound = v, cost
		}
	}
	return best, bound
}

// Free revives vacancy v, the inverse of Commit. The allocation pass only
// commits; the journal tests use Free to drive mixed op sequences.
func (b *VacancyBuckets) Free(v int32) {
	p := b.pos[v]
	if b.live[p] {
		return
	}
	b.live[p] = true
	b.rowN[b.rowAt[p]]++
	b.total++
}

// LiveInRow returns the number of free vacancies in one row.
func (b *VacancyBuckets) LiveInRow(row int) int { return int(b.rowN[row]) }

// Rows returns the row count the buckets were built with.
func (b *VacancyBuckets) Rows() int { return len(b.rowN) }

// RowSpan returns the static position range [lo, hi) of one row's bucket.
func (b *VacancyBuckets) RowSpan(row int) (lo, hi int) {
	return int(b.start[row]), int(b.start[row+1])
}

// Alive reports whether the vacancy at position p is still free.
func (b *VacancyBuckets) Alive(p int) bool { return b.live[p] }

// At returns the vacancy index at position p.
func (b *VacancyBuckets) At(p int) int32 { return b.order[p] }

// XAt returns the x coordinate at position p.
func (b *VacancyBuckets) XAt(p int) float64 { return b.xs[p] }
