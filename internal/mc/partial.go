package mc

// Partial statistics: the seam the stage driver and distributed serving
// are built on.
//
// A Partial captures the outcomes of one contiguous index range of a
// terminal stage reduced to exactly what the fold consumes: which
// indices failed and, for importance sampling, their weights. Because
// every sample is seeded from (seed, absolute index), a Partial computed
// on any machine, with any local worker count, carries the same bits the
// single-node run produces for those indices.

import (
	"errors"
	"fmt"
	"sort"
)

// Fold and range errors; test with errors.Is.
var (
	// ErrBadRange is reported for a malformed or out-of-bounds sample
	// range.
	ErrBadRange = errors.New("mc: bad sample range")
	// ErrBadCover is reported when a set of partials does not tile the
	// stage's index space exactly (gap, overlap or out-of-order failure
	// indices) — folding anything else would silently change the bits.
	ErrBadCover = errors.New("mc: partials do not cover the stage")
)

// Range is a half-open interval [Lo, Hi) of absolute sample indices.
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Count returns the number of samples in the range.
func (r Range) Count() int { return r.Hi - r.Lo }

// checkRanges validates that every range is well-formed and inside
// [0, n).
func checkRanges(n int, ranges []Range) error {
	if len(ranges) == 0 {
		return fmt.Errorf("%w: no ranges", ErrBadRange)
	}
	for _, r := range ranges {
		if r.Lo < 0 || r.Hi <= r.Lo || r.Hi > n {
			return fmt.Errorf("%w: [%d,%d) outside [0,%d)", ErrBadRange, r.Lo, r.Hi, n)
		}
	}
	return nil
}

// Partial is the outcome of evaluating one contiguous range
// [Start, Start+Count) of a terminal sampling stage. FailIdx lists the
// absolute indices of failing samples in ascending order; W carries the
// matching importance weights (importance-sampling stages only — weights
// can be exactly zero even for a failure when the log-weight underflows,
// so failure membership and weight are recorded independently). Sims is
// the number of transistor-level simulations the range cost: Count for
// stages that simulate every sample, the unblocked-candidate count for
// statistical blockade.
type Partial struct {
	Start   int       `json:"start"`
	Count   int       `json:"count"`
	Sims    int64     `json:"sims"`
	FailIdx []int     `json:"fail_idx,omitempty"`
	W       []float64 `json:"w,omitempty"`
}

// checkCover sorts the partials by Start and validates that they tile
// [0, n) exactly with well-formed failure indices. withWeights also
// requires one weight per failure.
func checkCover(n int, parts []Partial, withWeights bool) ([]Partial, error) {
	sorted := make([]Partial, len(parts))
	copy(sorted, parts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	next := 0
	for _, p := range sorted {
		if p.Start != next || p.Count <= 0 {
			return nil, fmt.Errorf("%w: want [%d,…), got [%d,%d+%d)", ErrBadCover, next, p.Start, p.Start, p.Count)
		}
		if withWeights && len(p.W) != len(p.FailIdx) {
			return nil, fmt.Errorf("%w: %d failure indices with %d weights at start %d", ErrBadCover, len(p.FailIdx), len(p.W), p.Start)
		}
		last := p.Start - 1
		for _, i := range p.FailIdx {
			if i <= last || i >= p.Start+p.Count {
				return nil, fmt.Errorf("%w: failure index %d outside ascending [%d,%d)", ErrBadCover, i, p.Start, p.Start+p.Count)
			}
			last = i
		}
		next += p.Count
	}
	if next != n {
		return nil, fmt.Errorf("%w: %d samples covered, stage has %d", ErrBadCover, next, n)
	}
	return sorted, nil
}

// FailPartial builds the Partial of the range starting at lo from its
// per-sample failure outcomes (Sims is left for the caller).
func FailPartial(lo int, fail []bool) Partial {
	p := Partial{Start: lo, Count: len(fail)}
	for j, f := range fail {
		if f {
			p.FailIdx = append(p.FailIdx, lo+j)
		}
	}
	return p
}
