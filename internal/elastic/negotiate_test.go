package elastic

import "testing"

// A verdict's member list indexes the old membership: a duplicate, an
// unsorted list or a rank past the world must be refused, not run (a rank
// outside the world panicked in Run; a duplicate ran one identity twice).
func TestParseVerdictRejectsBadMembers(t *testing.T) {
	for _, members := range [][]int{{0, 0}, {0, 7}, {1, 0}} {
		b, err := encodeVerdict(1<<epochRoundBits, members, nil)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := parseVerdict(b, 2); err == nil {
			t.Errorf("members %v on a 2-rank world accepted as %v", members, v.members)
		}
	}
	b, err := encodeVerdict(1<<epochRoundBits, []int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := parseVerdict(b, 2); err != nil || len(v.members) != 2 {
		t.Fatalf("members [0 1] on a 2-rank world: %v, %v", v, err)
	}
}

// FuzzParseVerdict: whatever arrives on the control channel as a verdict,
// parseVerdict errors or returns distinct ascending ranks of the world —
// never a panic. The committed corpus holds the duplicate and out-of-range
// lists and a verdict carrying a checkpoint header that claims 16 GiB.
func FuzzParseVerdict(f *testing.F) {
	b, err := encodeVerdict(1<<epochRoundBits, []int{0, 1}, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := parseVerdict(b, 2)
		if err != nil {
			return
		}
		for i, m := range v.members {
			if m < 0 || m >= 2 || i > 0 && m <= v.members[i-1] {
				t.Fatalf("accepted members %v for a 2-rank world", v.members)
			}
		}
	})
}
