package core

import (
	"testing"

	"edgecache/internal/model"
)

// CheckCacheSearch runs checkCacheSearch on SBS s's caps against yMinus
// and returns the oracle walks of the pruned and of the reference
// searches, and the (base, candidate) pairs whose bound it checked. It
// lets the external test package, which can import the experiment
// scenarios, drive the check on their shapes.
func CheckCacheSearch(t testing.TB, s *Subproblem, yMinus model.Mat) (pruned, reference, pairs int) {
	t.Helper()
	st := checkCacheSearch(t, s, capsFor(s, yMinus), nil)
	return st.prunedWalks, st.refWalks, st.pairs
}
