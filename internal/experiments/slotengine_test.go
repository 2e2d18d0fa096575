package experiments

import "testing"

func TestE20SlotEngine(t *testing.T) {
	runAndCheck(t, E20SlotEngine(t.Context(), Quick()), 4)
}
