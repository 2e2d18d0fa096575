package experiments

import "testing"

func TestA1BroadcastProb(t *testing.T) {
	runAndCheck(t, A1BroadcastProb(t.Context(), Quick()), 4)
}

func TestA2SlotPairsPerRound(t *testing.T) {
	runAndCheck(t, A2SlotPairsPerRound(t.Context(), Quick()), 4)
}

func TestA3DistrCapTau(t *testing.T) {
	runAndCheck(t, A3DistrCapTau(t.Context(), Quick()), 4)
}

func TestA4DegreeCap(t *testing.T) {
	runAndCheck(t, A4DegreeCap(t.Context(), Quick()), 4)
}

func TestA5DropRobustness(t *testing.T) {
	runAndCheck(t, A5DropRobustness(t.Context(), Quick()), 4)
}
