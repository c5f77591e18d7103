package rendezvous

import (
	"fmt"
	"slices"
	"testing"
)

// TestScorePinned pins the weight to SHA-256(member || 0x00 || key): a
// change here re-places every key of a running fleet, so it must be
// deliberate.
func TestScorePinned(t *testing.T) {
	for _, tc := range []struct {
		member, key string
		want        uint64
	}{
		{"http://127.0.0.1:39401", "abc", 0x3859ad32c5fef491},
		{"s1", "digest-0000", 0x69741f52a2e29682},
	} {
		if got := Score(tc.member, tc.key); got != tc.want {
			t.Errorf("Score(%q, %q) = %#x, want %#x", tc.member, tc.key, got, tc.want)
		}
	}
}

// TestOrderIgnoresInputOrderAndSortsByScore: the order is the members by
// descending Score whatever order they are given in.
func TestOrderIgnoresInputOrderAndSortsByScore(t *testing.T) {
	id := func(m string) string { return m }
	a := []string{"s1", "s2", "s3", "s4", "s5"}
	b := []string{"s4", "s2", "s5", "s1", "s3"}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("digest-%04d", i)
		oa, ob := Order(a, id, key), Order(b, id, key)
		if !slices.Equal(oa, ob) {
			t.Fatalf("key %s: %v vs %v", key, oa, ob)
		}
		for j := 1; j < len(oa); j++ {
			if Score(oa[j-1], key) < Score(oa[j], key) {
				t.Fatalf("key %s: %v not in descending score order", key, oa)
			}
		}
	}
}
