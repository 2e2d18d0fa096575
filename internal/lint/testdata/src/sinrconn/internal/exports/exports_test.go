package exports

import "testing"

func TestUnused(t *testing.T) {
	if Unused() != 2 {
		t.Fatal("Unused")
	}
}

func TestKnobs(t *testing.T) {
	k := Knobs{TestOnly: 1}
	if k.Fill() != 9 {
		t.Fatal("Fill")
	}
}
