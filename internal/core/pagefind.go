package core

import (
	"colloid/internal/pages"
)

// Candidate is a page eligible for migration, with the access
// probability the underlying system attributes to it.
type Candidate struct {
	ID pages.PageID
	// Probability is the page's estimated access probability.
	Probability float64
	// Bytes is the page size.
	Bytes int64
}

// PickPages implements the page-finding contract of Section 3.2: choose
// a set of candidates whose summed access probability does not exceed
// deltaP and whose summed size does not exceed limitBytes. Candidates
// are consumed in the order given (systems order them hottest-first so
// the set is small); a candidate that would overshoot either bound is
// skipped, and scanning stops once the remaining probability budget is
// negligible or maxScan candidates have been examined.
//
// The input slice is consumed: the picks are compacted, in order, into
// its prefix, and that prefix is returned (nil when nothing is picked),
// so picking allocates nothing. Callers must not read candidates after
// the call except through the result.
func PickPages(candidates []Candidate, deltaP float64, limitBytes int64, maxScan int) []Candidate {
	if deltaP <= 0 || limitBytes <= 0 {
		return nil
	}
	picked := 0
	probLeft := deltaP
	bytesLeft := limitBytes
	for scanned, c := range candidates {
		if maxScan > 0 && scanned >= maxScan {
			break
		}
		if probLeft <= deltaP*1e-3 || bytesLeft <= 0 {
			break
		}
		if c.Probability > probLeft || c.Bytes > bytesLeft {
			continue
		}
		candidates[picked] = c
		picked++
		probLeft -= c.Probability
		bytesLeft -= c.Bytes
	}
	if picked == 0 {
		return nil
	}
	return candidates[:picked]
}
