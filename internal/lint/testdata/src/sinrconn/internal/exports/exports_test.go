package exports

import "testing"

func TestUnused(t *testing.T) {
	if Unused() != 2 {
		t.Fatal("Unused")
	}
}
